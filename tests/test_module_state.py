"""A call leaves the package's module state as it found it: a draw
depends only on its arguments and the random source."""

import inspect
import json
import random
import sys
import types

import quadmod.cli
import quadmod.oracle  # the CLI's check loads it; snapshot it too
from quadmod import PkSymbol, PrimePower, RepKind, count_form, sample_composite, sample_form, sample_split, symbol_of

Q4 = [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]


def module_state() -> dict[tuple[str, str], str]:
    """The repr of every module-level value of every loaded quadmod
    module, less dunder names, routines, classes and modules."""
    state = {}
    for name, module in list(sys.modules.items()):
        if name != "quadmod" and not name.startswith("quadmod."):
            continue
        for attr, value in vars(module).items():
            if attr.startswith("__") or inspect.isroutine(value) or isinstance(value, (type, types.ModuleType)):
                continue
            state[name, attr] = repr(value)
    return state


def test_calls_leave_module_state_unchanged(tmp_path, capsys):
    before = module_state()
    rng = random.Random(32)
    count_form(Q4, PrimePower(2**127 - 1, 3), 7)
    for p in (2, 3, 11, 13):
        # at p = 11 and 13 a target prime to p takes the equal-orders
        # rejection loop in most draws
        pp = PrimePower(p, 2)
        for kind in RepKind:
            for t in range(1, 12):
                sample_form(Q4, pp, t, kind, rng)
    for p in (11, 13):
        pp = PrimePower(p, 2)
        for t in range(1, p):
            g = symbol_of(pp, t)
            sample_split(pp, t, PkSymbol(0, g.sgn), PkSymbol(0, 1), rng)
    sample_composite(Q4, [PrimePower(2, 3), PrimePower(11, 2)], 5, RepKind.NONPRIMITIVE, rng)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"q": [[1, 0], [0, 1]], "factors": [{"p": "5", "k": 1}, {"p": "13", "k": 1}], "t": 2}))
    for argv in (["count"], ["sample", "--seed", "1"], ["check", "--trials", "400", "--seed", "1"]):
        assert quadmod.cli.main([argv[0], str(path), *argv[1:]]) == 0
    capsys.readouterr()
    assert module_state() == before
