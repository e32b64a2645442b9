"""Command-line front end.

Instances are single JSON objects:

    {"q": [[1, 0], [0, 1]], "p": "5", "k": 1, "t": "1"}

or, for a composite modulus,

    {"q": [[1]], "factors": [{"p": "3", "k": 1}, {"p": "5", "k": 1}], "t": "7"}

Matrix entries and t may be integers or decimal strings (decimal strings
keep arbitrary precision safe in JSON); every emitted number that can
exceed 64 bits is a decimal string.

Exit codes: 0 success, 1 no solution exists, 2 randomized failure or a
failed self-check, 3 malformed input or command line, 4 internal error
(a bug: one line on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from collections import Counter
from math import gcd, prod

from .blockdiag import AsymmetricEntry, TypeI, check_symmetric
# parse_instance checks Q, once; the commands call the library's paths
# that do not check it again, under the public names, which the tests
# and perfbench/tracing.py wrap
from .blockdiag import _eliminate as block_diagonalize
from .counting import _count_composite as count_composite
from .counting import _local_density as local_density
from .counting import _prepare, count_factors
from .modring import DomainError, Frozen, PrimePower, _set
from .sampling import RepKind, sample_factors
from .sqroots import LasVegasFail


class ParseError(DomainError):
    """Malformed instance input."""


class AsymmetricMatrix(ParseError):
    """The coefficient matrix is not symmetric."""


class NotPrime(ParseError):
    """A claimed prime fails a primality test."""


class UsageError(ParseError):
    """The command line does not parse."""


class Instance(Frozen):
    __slots__ = _fields = ("q", "factors", "t")
    q: list[list[int]]
    factors: tuple[PrimePower, ...]
    t: int

    def __init__(self, q: list[list[int]], factors: tuple[PrimePower, ...], t: int) -> None:
        _set(self, "q", q)
        _set(self, "factors", factors)
        _set(self, "t", t)

    @property
    def modulus(self) -> int:
        return prod(pp.q for pp in self.factors)


def _as_int(value, field: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{field}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError:
            raise ParseError(f"{field}: {value!r} is not a decimal integer") from None
    raise ParseError(f"{field}: expected an integer or decimal string, got {type(value).__name__}")


def _parse_matrix(raw, field: str) -> list[list[int]]:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{field}: expected a non-empty matrix (list of rows)")
    n = len(raw)
    mat = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{field}[{i}]: expected a row of {n} entries")
        mat.append([_as_int(v, f"{field}[{i}][{j}]") for j, v in enumerate(row)])
    try:
        check_symmetric(mat)
    except AsymmetricEntry as exc:
        i, j = exc.i, exc.j
        raise AsymmetricMatrix(f"{field}[{i}][{j}] != {field}[{j}][{i}]") from None
    return mat


def _parse_prime_power(raw_p, raw_k, field: str) -> PrimePower:
    name_p = f"{field}.p" if field else "p"
    name_k = f"{field}.k" if field else "k"
    p = _as_int(raw_p, name_p)
    k = _as_int(raw_k, name_k)
    if k < 1:
        raise ParseError(f"{name_k} = {k} must be at least 1")
    try:
        return PrimePower(p, k)
    except DomainError:
        raise NotPrime(f"{name_p} = {p} is not prime") from None


def parse_instance(source: str | None = None) -> Instance:
    """Read an instance from a file path, or stdin when source is None or '-'."""
    if source is None or source == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(source, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {source}: {exc}") from None
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(obj, dict):
        raise ParseError("instance must be a JSON object")
    for key in obj:
        if key not in {"q", "p", "k", "t", "factors"}:
            raise ParseError(f"unknown field {key!r}")
    if "q" not in obj:
        raise ParseError("missing field 'q'")
    if "t" not in obj:
        raise ParseError("missing field 't'")
    mat = _parse_matrix(obj["q"], "q")
    t = _as_int(obj["t"], "t")

    if "factors" in obj:
        if "p" in obj or "k" in obj:
            raise ParseError("give either p/k or factors, not both")
        raw = obj["factors"]
        if not isinstance(raw, list) or not raw:
            raise ParseError("factors: expected a non-empty list")
        factors = []
        for idx, entry in enumerate(raw):
            if not isinstance(entry, dict) or set(entry) != {"p", "k"}:
                raise ParseError(f"factors[{idx}]: expected an object with keys p and k")
            factors.append(_parse_prime_power(entry["p"], entry["k"], f"factors[{idx}]"))
        primes = [pp.p for pp in factors]
        if len(set(primes)) != len(primes):
            raise ParseError("factors: primes must be distinct")
        return Instance(mat, tuple(factors), t)

    if "p" not in obj or "k" not in obj:
        raise ParseError("missing field 'p' or 'k' (or use 'factors')")
    pp = _parse_prime_power(obj["p"], obj["k"], "")
    return Instance(mat, (pp,), t)


def _single(instance: Instance, command: str) -> PrimePower:
    if len(instance.factors) != 1:
        raise ParseError(f"{command} needs a single prime power, not a composite modulus")
    return instance.factors[0]


def _render(payload: dict, lines: list[str], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload)
    return "\n".join(lines)


def _cmd_count(instance: Instance, flags) -> tuple[int, str]:
    c = count_composite(instance.q, list(instance.factors), instance.t)
    payload = {
        "total": str(c.total),
        "primitive": str(c.primitive),
        "nonprimitive": str(c.nonprimitive),
    }
    lines = [f"total: {c.total}", f"primitive: {c.primitive}", f"nonprimitive: {c.nonprimitive}"]
    return 0, _render(payload, lines, flags.format)


def _cmd_sample(instance: Instance, flags) -> tuple[int, str]:
    kind = RepKind(flags.kind)
    rng = random.Random(flags.seed)
    x = sample_factors([_prepare(instance.q, pp) for pp in instance.factors], instance.t, kind, rng)
    if x is None:
        return 1, _render({"result": "no-solution"}, ["no solution"], flags.format)
    payload = {"result": "ok", "x": [str(v) for v in x]}
    lines = ["x = (" + ", ".join(str(v) for v in x) + ")"]
    return 0, _render(payload, lines, flags.format)


def _cmd_density(instance: Instance, flags) -> tuple[int, str]:
    pp = _single(instance, "density")
    alpha = local_density(instance.q, pp.p, instance.t)
    return 0, _render({"density": str(alpha)}, [f"density: {alpha}"], flags.format)


def _cmd_diagonalize(instance: Instance, flags) -> tuple[int, str]:
    pp = _single(instance, "diagonalize")
    bd = block_diagonalize(instance.q, pp)
    blocks = []
    lines = []
    for blk in bd.blocks:
        if isinstance(blk, TypeI):
            blocks.append({"type": "I", "d": str(blk.d)})
            lines.append(f"type I: d = {blk.d}")
        else:
            blocks.append(
                {"type": "II", "ell": blk.ell, "a": str(blk.a), "b": str(blk.b), "c": str(blk.c)}
            )
            lines.append(f"type II: ell = {blk.ell}, a = {blk.a}, b = {blk.b}, c = {blk.c}")
    u = [[str(v) for v in row] for row in bd.u]
    lines.append("u = " + json.dumps(u))
    return 0, _render({"blocks": blocks, "u": u}, lines, flags.format)


def _check_counts(instance: Instance, budget: int | None, prepared) -> tuple[str, str]:
    # the oracle loads numpy, which only check needs
    from .oracle import DEFAULT_BUDGET, solutions_mod

    if budget is None:
        budget = DEFAULT_BUDGET
    m = instance.modulus
    n = len(instance.q)
    if m**n > budget:
        return "count==oracle", f"SKIPPED (m^n exceeds budget {budget})"
    sols = solutions_mod(instance.q, m, instance.t, budget=budget)
    prim = sum(1 for v in sols if gcd(m, *v) == 1)
    c = count_factors(prepared(), instance.t)
    if (c.total, c.primitive) == (len(sols), prim):
        return "count==oracle", "OK"
    return "count==oracle", f"MISMATCH (counted {c.total}/{c.primitive}, oracle {len(sols)}/{prim})"


def _check_sampling(instance: Instance, flags, rng, prepared) -> tuple[str, str]:
    from .oracle import chi_square_uniform

    kind = RepKind(flags.kind)
    forms = prepared()
    c = count_factors(forms, instance.t)
    size = {
        RepKind.ANY: c.total,
        RepKind.PRIMITIVE: c.primitive,
        RepKind.NONPRIMITIVE: c.nonprimitive,
    }[kind]
    if size == 0:
        return "uniformity", "SKIPPED (empty class)"
    m = instance.modulus
    seen = Counter()
    for _ in range(flags.trials):
        x = sample_factors(forms, instance.t, kind, rng)
        acc = 0
        n = len(instance.q)
        for i in range(n):
            for j in range(n):
                acc += instance.q[i][j] * x[i] * x[j]
        if acc % m != instance.t % m:
            return "uniformity", f"FAILED (drew a non-solution {x})"
        prim = gcd(m, *x) == 1
        if kind is RepKind.PRIMITIVE and not prim:
            return "uniformity", f"FAILED (drew a non-primitive vector {x})"
        if kind is RepKind.NONPRIMITIVE and prim:
            return "uniformity", f"FAILED (drew a primitive vector {x})"
        seen[x] += 1
    if size > 255 or flags.trials < 5 * size:
        return "uniformity", f"SKIPPED (need at least {5 * size} trials and support <= 255)"
    stat, ok = chi_square_uniform(list(seen.values()), size)
    verdict = "OK" if ok else "FAILED"
    return "uniformity", f"{verdict} (chi2 = {float(stat):.2f}, support {size}, trials {flags.trials})"


def _cmd_check(instance: Instance, flags) -> tuple[int, str]:
    rng = random.Random(flags.seed)
    # the factors, prepared on first use, then shared by the count and every draw
    prepared = functools.cache(lambda: [_prepare(instance.q, pp) for pp in instance.factors])
    results = [_check_counts(instance, flags.budget, prepared)]
    if flags.trials > 0:
        results.append(_check_sampling(instance, flags, rng, prepared))
    lines = [f"{name}: {verdict}" for name, verdict in results]
    failed = any(v.startswith("MISMATCH") or v.startswith("FAILED") for _, v in results)
    payload = {"checks": {name: verdict for name, verdict in results}, "ok": not failed}
    return (2 if failed else 0), _render(payload, lines, flags.format)


_COMMANDS = {
    "count": _cmd_count,
    "sample": _cmd_sample,
    "density": _cmd_density,
    "diagonalize": _cmd_diagonalize,
    "check": _cmd_check,
}


def run(command: str, instance: Instance, flags) -> tuple[int, str]:
    """Dispatch a parsed instance; returns (exit code, rendered report)."""
    return _COMMANDS[command](instance, flags)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit with 2, the code of a randomized failure
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _non_negative_int(text: str) -> int:
    """An option's value that counts something: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="quadmod",
        description="count and sample solutions of x'Qx = t modulo prime powers",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("instance", nargs="?", default=None, help="instance JSON file (default: stdin)")
    parser.add_argument("--kind", choices=["any", "primitive", "nonprimitive"], default="any")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=_non_negative_int, default=0, help="sampling trials for check")
    parser.add_argument("--budget", type=_non_negative_int, default=None, help="oracle enumeration cap")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    return parser


def main(argv=None) -> int:
    # counts, draws and inputs may have any number of digits, so the
    # interpreter's cap on int <-> decimal string conversion is lifted
    # while main runs (Python before 3.10.7 has no cap and no setter)
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if cap is not None:
        sys.set_int_max_str_digits(0)
    try:
        return _main(argv)
    finally:
        if cap is not None:
            sys.set_int_max_str_digits(cap)


def _main(argv) -> int:
    try:
        args = _build_parser().parse_intermixed_args(argv)
        instance = parse_instance(args.instance)
        code, report = run(args.command, instance, args)
    except LasVegasFail as exc:
        print(f"fail: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a bug; never report it as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
