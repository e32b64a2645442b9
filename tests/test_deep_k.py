"""Deep-k costs: every p-adic order and lift takes O(log k) big-integer
steps, none one digit per step.

Each test times one call in process time against a bound set well above
what the call costs with doubling steps and well below what a loop of
one digit per step costs.  CPU ms of the timed call on a 2-CPU Xeon,
doubling steps / one digit per step (the loops in lift_reference.py,
and one division by p per order in the pivot search):

- valuation of 2^99999 and of 5 * 3^99999 together: 37 / 6165;
- sqrt_unit_mod_2k(50000, 17): 2.6 / 10435;
- a primitive type II draw at k2 = 16000: 11 / 2213;
- block_diagonalize(2^127999 I2) mod 2^128000: 33 / 3862.
"""

import random
import time

from quadmod.blockdiag import TypeI, block_diagonalize
from quadmod.modring import PrimePower, valuation
from quadmod.sampling import _sample_scaled_type2
from quadmod.sqroots import sqrt_unit_mod_2k


def cpu_ms(call):
    """(result, process time in ms) of call()."""
    start = time.process_time()
    result = call()
    return result, (time.process_time() - start) * 1000


def test_valuation_of_a_deep_power_takes_few_divisions():
    two, three = 2**99999, 5 * 3**99999
    (v2, v3), ms = cpu_ms(lambda: (valuation(PrimePower(2, 1), two), valuation(PrimePower(3, 1), three)))
    assert v2 == (99999, 1) and v3 == (99999, 5)
    assert ms < 600


def test_square_roots_mod_a_deep_power_of_two_take_newton_steps():
    k = 50000
    roots, ms = cpu_ms(lambda: sqrt_unit_mod_2k(k, 17))
    assert len(roots) == 4 and all(r * r % 2**k == 17 for r in roots)
    assert ms < 200


def test_a_deep_primitive_type2_draw_takes_newton_steps():
    k2 = 16000
    (y1, y2), ms = cpu_ms(lambda: _sample_scaled_type2(1, 1, 1, 1, k2, True, random.Random(1)))
    assert (y1 * y1 + y1 * y2 + y2 * y2 - 1) % 2**k2 == 0 and (y1 % 2 or y2 % 2)
    assert ms < 200


def test_a_deep_pivot_order_takes_one_valuation():
    k = 128000
    pp = PrimePower(2, k)
    half = 2 ** (k - 1)
    form, ms = cpu_ms(lambda: block_diagonalize([[half, 0], [0, half]], pp))
    assert form.blocks == (TypeI(half), TypeI(half))
    assert ms < 500
