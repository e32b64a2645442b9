import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quadmod.cli import AsymmetricMatrix, NotPrime, ParseError, main, parse_instance


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_instance_basic(tmp_path):
    path = write_instance(tmp_path, {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"})
    inst = parse_instance(path)
    assert inst.q == [[1, 0], [0, 1]]
    assert not inst.composite
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
    assert inst.composite and inst.modulus == 75


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
    for kind, want in (("any", "60.32, support 48"), ("primitive", "21.07, support 32"), ("nonprimitive", "12.53, support 16")):
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
    # a malformed command line is malformed input, not a sampler failure
    path = write_instance(tmp_path, {"q": [[1]], "p": "5", "k": 1, "t": "1"})
    for argv in (["count", path, "--kind", "bogus"], ["count", path, "extra"], ["bogus", path], ["count", "--seed", "x"]):
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith("error: ")


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    def broken(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("quadmod.cli.count_form", broken)
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
