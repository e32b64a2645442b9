"""A target t and the entries of a matrix Q are ints, of type int
exactly, at every public entry that takes them.  Anything else raises
DomainError before any count or draw: a float, Fraction or string gave a
silent wrong answer (count_form([[1]], 3^2, 1.5) was RepCounts(1, 1, 0),
symbol_of(3^2, 1.5) the invalid symbol PkSymbol(0, 0), and an entry of
1.5 was counted as if it were 1) or a bare TypeError."""

import random
from fractions import Fraction

import pytest

from quadmod import (
    DomainError,
    PkSymbol,
    PrimePower,
    RepKind,
    block_diagonalize,
    check_symmetric,
    count_composite,
    count_factors,
    count_form,
    local_density,
    prepare,
    sample_composite,
    sample_factors,
    sample_form,
    sample_prepared,
    sample_split,
    symbol_of,
)
from quadmod.blockdiag import AsymmetricEntry

BAD = [1.5, 2.0, "3", None, Fraction(3, 2)]
BAD_IDS = ["float", "integral-float", "str", "None", "Fraction"]
PP, FACTORS, Q = PrimePower(3, 2), [PrimePower(2, 3), PrimePower(3, 2)], [[1, 0], [0, 2]]

TAKES_T = {
    "count_form": lambda t, rng: count_form(Q, PP, t),
    "count_composite": lambda t, rng: count_composite(Q, FACTORS, t),
    "count_factors": lambda t, rng: count_factors([prepare(Q, pp) for pp in FACTORS], t),
    "PreparedForm.count": lambda t, rng: prepare(Q, PP).count(t),
    "local_density": lambda t, rng: local_density(Q, 3, t),
    "sample_form": lambda t, rng: sample_form(Q, PP, t, RepKind.ANY, rng),
    "sample_prepared": lambda t, rng: sample_prepared(prepare(Q, PP), t, RepKind.ANY, rng),
    "sample_composite": lambda t, rng: sample_composite(Q, FACTORS, t, RepKind.ANY, rng),
    "sample_factors": lambda t, rng: sample_factors([prepare(Q, pp) for pp in FACTORS], t, RepKind.ANY, rng),
    "sample_split": lambda t, rng: sample_split(PrimePower(5, 2), t, PkSymbol(0, 1), PkSymbol(0, 1), rng),
    "symbol_of": lambda t, rng: symbol_of(PP, t),
}

# count_factors, PreparedForm.count, sample_prepared and sample_factors
# take Q through prepare
TAKES_Q = {
    "count_form": lambda q, rng: count_form(q, PP, 1),
    "count_composite": lambda q, rng: count_composite(q, FACTORS, 1),
    "local_density": lambda q, rng: local_density(q, 3, 1),
    "prepare": lambda q, rng: prepare(q, PP),
    "sample_form": lambda q, rng: sample_form(q, PP, 1, RepKind.ANY, rng),
    "sample_composite": lambda q, rng: sample_composite(q, FACTORS, 1, RepKind.ANY, rng),
    "block_diagonalize": lambda q, rng: block_diagonalize(q, PP),
}


@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", TAKES_T)
def test_a_target_that_is_not_an_int_raises_before_any_draw(name, bad):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(DomainError, match="t must be an int"):
        TAKES_T[name](bad, rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
@pytest.mark.parametrize("name", TAKES_Q)
def test_an_entry_that_is_not_an_int_raises_before_any_draw(name, bad, where):
    q = [[bad, 0], [0, 2]] if where == "diagonal" else [[1, bad], [bad, 2]]
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(DomainError, match="not an int"):
        TAKES_Q[name](q, rng)
    assert rng.getstate() == state


def test_every_entry_is_checked_whatever_its_transpose():
    # an entry equal in value to its int transpose, or a bool, is still
    # refused, in either triangle and on the diagonal
    for q, message in (
        ([[1, 2.0], [2, 1]], r"\(0,1\) is a float"),
        ([[1, 2], [2.0, 1]], r"\(1,0\) is a float"),
        ([[1, 0], [0, True]], r"\(1,1\) is a bool"),
        ([[1, 0, 0], [0, 1, 0], [0, Fraction(4, 2), 1]], r"\(2,1\) is a Fraction"),
    ):
        with pytest.raises(DomainError, match=message):
            block_diagonalize(q, PP)
    # equal ints held as two objects, as a parser makes them, pass
    big, other = int("1" * 40), int("1" * 40)
    assert big is not other and check_symmetric([[1, big], [other, 1]]) == 2
    with pytest.raises(AsymmetricEntry):
        check_symmetric([[1, big], [other + 1, 1]])
