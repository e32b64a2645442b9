import copy
import io
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from quadmod import PrimePower, count_form
from quadmod.cli import AsymmetricMatrix, NotPrime, ParseError, main, parse_instance


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_instance_basic(tmp_path):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    inst = parse_instance(path)
    assert inst.q == [[1, 0], [0, 1]]
    assert len(inst.factors) == 1
    assert inst.factors[0].p == 5 and inst.factors[0].k == 1
    assert inst.t == 1
    assert inst.modulus == 5


def test_parse_instance_decimal_strings(tmp_path):
    big = str(10**30 + 7)
    path = write_instance(tmp_path, {"q": [[big]], "p": "5", "k": 2, "t": big})
    inst = parse_instance(path)
    assert inst.q[0][0] == 10**30 + 7


def test_parse_instance_composite(tmp_path):
    path = write_instance(
        tmp_path, {"q": [[1]], "factors": [{"p": "3", "k": 1}, {"p": "5", "k": 2}], "t": 4}
    )
    inst = parse_instance(path)
    assert len(inst.factors) == 2 and inst.modulus == 75


def test_parse_instance_errors(tmp_path):
    with pytest.raises(NotPrime):
        parse_instance(write_instance(tmp_path, {"q": [[0, 1], [1, 2]], "p": "4", "k": 1, "t": "0"}))
    with pytest.raises(AsymmetricMatrix):
        parse_instance(write_instance(tmp_path, {"q": [[1, 2], [3, 1]], "p": "5", "k": 1, "t": "0"}))
    with pytest.raises(ParseError):
        parse_instance(write_instance(tmp_path, {"q": [[1]], "t": "0"}))
    with pytest.raises(ParseError):
        parse_instance(write_instance(tmp_path, {"q": [[1], [2]], "p": "5", "k": 1, "t": "0"}))
    with pytest.raises(ParseError):
        parse_instance(write_instance(tmp_path, {"q": [[1]], "p": "5", "k": 1, "t": "1.5"}))
    with pytest.raises(ParseError):
        parse_instance(write_instance(tmp_path, {"q": [[1]], "p": "5", "k": 1, "t": 0, "factors": []}))


def test_count_command(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["count", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"total": "4", "primitive": "4", "nonprimitive": "0"}


def test_count_command_composite(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1]], "factors": [{"p": "3", "k": 1}, {"p": "5", "k": 1}], "t": 1})
    assert main(["count", path]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == "4"


def test_sample_deterministic_with_seed(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["sample", path, "--kind", "primitive", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["sample", path, "--kind", "primitive", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    x = [int(v) for v in json.loads(first)["x"]]
    assert (x[0] ** 2 + x[1] ** 2) % 5 == 1


def test_sample_no_solution_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1]], "factors": [{"p": "3", "k": 1}, {"p": "5", "k": 1}], "t": 7})
    assert main(["sample", path]) == 1
    assert json.loads(capsys.readouterr().out) == {"result": "no-solution"}


def test_input_error_exit_code(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 2], [3, 1]], "p": "5", "k": 1, "t": "0"})
    assert main(["count", path]) == 3
    err = capsys.readouterr().err
    assert "q[1][0]" in err
    assert main(["count", str(tmp_path / "missing.json")]) == 3


def test_density_command(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["density", path]) == 0
    assert json.loads(capsys.readouterr().out) == {"density": "4/5"}


def test_diagonalize_command_round_trips(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[0, 1], [1, 0]], "p": "5", "k": 1, "t": "0"})
    assert main(["diagonalize", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == [{"type": "I", "d": "2"}, {"type": "I", "d": "2"}]
    assert out["u"] == [["1", "2"], ["1", "3"]]
    # emitted matrix re-parses as an instance matrix
    path2 = write_instance(tmp_path, {"q": out["u"], "p": "5", "k": 1, "t": "0"}, "round.json")
    with pytest.raises(AsymmetricMatrix):
        parse_instance(path2)  # u itself is not symmetric, but entries parse fine


def test_check_command(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["check", path, "--format", "text", "--trials", "100", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "count==oracle: OK" in out
    assert "uniformity: OK" in out


def test_check_command_json(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[2, 1], [1, 3]], "p": "3", "k": 2, "t": "2"})
    assert main(["check", path, "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is True
    assert out["checks"]["count==oracle"] == "OK"


@pytest.mark.parametrize(
    "instance, factors",
    [
        ({"q": [[2, 1], [1, 4]], "factors": [{"p": "2", "k": 2}, {"p": "3", "k": 1}], "t": "4"}, 2),
        ({"q": [[1, 0, 0], [0, 2, 0], [0, 0, 3]], "p": "3", "k": 2, "t": "6"}, 1),
    ],
)
def test_check_prepares_each_factor_once(tmp_path, capsys, monkeypatch, instance, factors):
    # the count and all 50 draws read the same prepared factors
    from quadmod import counting

    calls = []
    inner = counting.block_diagonalize
    monkeypatch.setattr(counting, "block_diagonalize", lambda *args: calls.append(args) or inner(*args))
    path = write_instance(tmp_path, instance)
    assert main(["check", path, "--trials", "50", "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["count==oracle"] == "OK"
    assert len(calls) == factors


def test_check_transcript_is_pinned(tmp_path, capsys):
    # the draws of a seeded check, through their chi-square statistic
    composite = {"q": [[2, 1], [1, 4]], "factors": [{"p": "2", "k": 2}, {"p": "3", "k": 1}], "t": "4"}
    path = write_instance(tmp_path, composite)
    for kind, want in (("any", "44.64, support 48"), ("primitive", "21.92, support 32"), ("nonprimitive", "12.32, support 16")):
        argv = ["check", path, "--trials", "300", "--seed", "4", "--kind", kind, "--format", "text"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"count==oracle: OK\nuniformity: OK (chi2 = {want}, trials 300)\n"


def test_stdin_input(tmp_path, capsys, monkeypatch):
    payload = json.dumps({"q": [[1]], "p": "3", "k": 1, "t": "1"})
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    assert main(["count", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == "2"


def test_text_format(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["count", path, "--format", "text"]) == 0
    assert capsys.readouterr().out.splitlines() == ["total: 4", "primitive: 4", "nonprimitive: 0"]


def test_options_after_instance_path(tmp_path, capsys):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    assert main(["count", "--format", "text", path]) == 0
    assert capsys.readouterr().out.splitlines() == ["total: 4", "primitive: 4", "nonprimitive: 0"]
    assert main(["sample", "--seed", "7", path, "--kind", "primitive"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "ok"


def test_usage_error_exit_code(tmp_path, capsys):
    # a malformed command line is malformed input (3), not a failed check (2)
    path = write_instance(tmp_path, {"q": [[1]], "p": "5", "k": 1, "t": "1"})
    for argv in (["count", path, "--kind", "bogus"], ["count", path, "extra"], ["bogus", path], ["count", "--seed", "x"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("option", ["--trials", "--budget"])
def test_negative_trials_and_budget_are_usage_errors(tmp_path, capsys, option):
    # a negative count of trials or of enumerated vectors is malformed,
    # not 0 trials or a budget nothing fits in; 0 itself is valid
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    for value in ("-5", "-1"):
        assert main(["check", path, option, value]) == 3, value
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: quadmod")
        assert captured.err.splitlines()[-1] == f"error: argument {option}: invalid non-negative int value: {value!r}"
    assert main(["check", path, option, "0", "--format", "text"]) == 0
    budget_0 = "SKIPPED (m^n exceeds budget 0)" if option == "--budget" else "OK"
    assert capsys.readouterr().out.splitlines() == [f"count==oracle: {budget_0}"]


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("quadmod.cli.count_composite", broken)
    path = write_instance(tmp_path, {"q": [[1]], "p": "5", "k": 1, "t": "1"})
    assert main(["count", path]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["internal error: RecursionError: maximum recursion depth exceeded"]


def test_strong_pseudoprime_modulus_rejected(tmp_path, capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to every prime base up to 37
    path = write_instance(tmp_path, {"q": [[1]], "p": "318665857834031151167461", "k": 1, "t": 1})
    assert main(["count", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "is not prime" in captured.err


def decimal(s: str) -> int:
    """int(s) for a decimal string of any length, read in chunks that
    stay below the interpreter's cap on str -> int conversion."""
    v = 0
    for i in range(0, len(s), 1000):
        v = v * 10 ** len(s[i : i + 1000]) + int(s[i : i + 1000])
    return v


def test_integers_of_any_size_are_read_and_printed_exactly(tmp_path, capsys):
    # a count of about 6900 digits, draws of about 4800 and a target of
    # 4400 digits, past the interpreter's 4300-digit cap on int <-> str
    # conversion, which main lifts while it runs and then puts back
    digit_cap = getattr(sys, "get_int_max_str_digits", lambda: None)
    cap = digit_cap()
    p127, q4 = 2**127 - 1, [[2, 1, 0, 3], [1, 4, 1, 0], [0, 1, 6, 1], [3, 0, 1, 8]]
    path = write_instance(tmp_path, {"q": q4, "p": str(p127), "k": 60, "t": 7})
    assert main(["count", path]) == 0
    out = json.loads(capsys.readouterr().out)
    c = count_form(q4, PrimePower(p127, 60), 7)
    assert c.total > 10**6000
    assert [decimal(out[key]) for key in ("total", "primitive", "nonprimitive")] == list(c)
    assert digit_cap() == cap
    digits = "1" + "0" * 4398 + "7"
    q = 3**10000
    for t, text in ((1, '"1"'), (10**4399 + 7, f'"{digits}"'), (10**4399 + 7, digits)):
        path = tmp_path / "deep.json"
        path.write_text('{"q": [[1, 0], [0, 1]], "p": "3", "k": 10000, "t": ' + text + "}")
        assert main(["sample", str(path), "--seed", "3"]) == 0, capsys.readouterr().err
        x1, x2 = map(decimal, json.loads(capsys.readouterr().out)["x"])
        assert (x1 * x1 + x2 * x2 - t) % q == 0
        assert digit_cap() == cap


def test_python_dash_m_entry_point(tmp_path):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "quadmod", "count", path], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"total": "4", "primitive": "4", "nonprimitive": "0"}


def test_count_does_not_load_numpy(tmp_path):
    # numpy backs the oracle, which only the check command uses
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = "import sys\nfrom quadmod.cli import main\ncode = main(sys.argv[1:])\nprint('numpy' in sys.modules, code)"
    proc = subprocess.run(
        [sys.executable, "-c", script, "count", path], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False 0"


def test_count_loads_no_module_it_does_not_run(tmp_path):
    # dataclasses (which loads inspect), logging and fractions would add
    # to every CLI start; a count runs none of them, nor numpy.  Only the
    # modules that the bare interpreter had not loaded count
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "3", "k": 60, "t": "1"})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = (
        "import sys\nbare = set(sys.modules)\nfrom quadmod.cli import main\ncode = main(sys.argv[1:])\n"
        "unused = {'dataclasses', 'inspect', 'logging', 'fractions', 'numpy'}\n"
        "print(sorted(unused & set(sys.modules) - bare), code)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "count", path], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[] 0"


def test_instance_is_an_immutable_value(tmp_path):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    inst = parse_instance(path)
    assert inst == parse_instance(path) and inst != ([[1, 0], [0, 1]], inst.factors, 1)
    assert repr(inst) == "Instance(q=[[1, 0], [0, 1]], factors=(PrimePower(p=5, k=1),), t=1)"
    for name in ("q", "factors", "t", "extra"):
        with pytest.raises(AttributeError):
            setattr(inst, name, 1)
    for other in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert type(other) is type(inst) and other == inst and other.modulus == 5
