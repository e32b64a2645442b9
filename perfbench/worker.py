"""One benchmark process: build the inputs, run the fixed operation list,
check every output, print one JSON line.

    python3 perfbench/worker.py --workload count --seed 1 --seconds 50 --trace 0
    python3 perfbench/worker.py --workload draws --seed 1 --seconds 50 --setup-only

run.py starts it in a fresh interpreter, so every run starts with empty
caches.  With --setup-only it prints "ready" once the first operation
could be issued and exits; run.py times that from the outside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Count checks enumerate the cube when it has at most this many points.
BRUTE_LIMIT = 300_000


class Runner:
    """Issues operations against quadmod and keeps what the checks need."""

    def __init__(self, name: str, seed: int, ops: list[dict], traced: bool):
        import quadmod

        self.lib = quadmod
        self.name = name
        self.seed = seed
        self.ops = ops
        self.traced = traced
        self.tracer = tracing.Tracer() if traced else None
        self.rng = self._new_rng()
        self.tables: dict = {}
        self.api = {n: getattr(quadmod, n) for n in tracing.API_SPANS}
        self._capture_tables()

    def _new_rng(self):
        cls = tracing.CountingRandom if self.traced else random.Random
        return cls(f"draws:{self.seed}")

    def _capture_tables(self) -> None:
        """Keep the symbol table each count builds, for the partition
        identity check.  The wrapper only stores a reference."""
        from quadmod import counting

        inner = counting.form_counts_by_symbol
        tables = self.tables

        def form_counts_by_symbol(q_mat, pp):
            table = inner(q_mat, pp)
            tables[(id(q_mat), pp.p, pp.k)] = table
            return table

        counting.form_counts_by_symbol = form_counts_by_symbol

    # -- operations ----------------------------------------------------------

    def issue(self, op: dict):
        kind = op["op"]
        if kind == "cli":
            return self._cli(op)
        PP = self.lib.PrimePower
        api = self.api
        if kind == "count_form":
            return api["count_form"](op["q"], PP(op["p"], op["k"]), op["t"])
        if kind == "count_composite":
            return api["count_composite"](op["q"], [PP(p, k) for p, k in op["factors"]], op["t"])
        if kind == "local_density":
            return api["local_density"](op["q"], op["p"], op["t"])
        rk = self.lib.RepKind(op["kind"])
        if kind == "sample_form":
            return api["sample_form"](op["q"], PP(op["p"], op["k"]), op["t"], rk, self.rng)
        if kind == "sample_composite":
            factors = [PP(p, k) for p, k in op["factors"]]
            return api["sample_composite"](op["q"], factors, op["t"], rk, self.rng)
        raise ValueError(f"unknown operation {kind}")

    def _cli(self, op: dict):
        """A CLI command through `cli.main` in this process, with the
        instance on stdin; (exit code, stdout)."""
        from quadmod import cli

        argv = [op["cmd"], "-"]
        for flag, value in op["flags"].items():
            argv += [f"--{flag}", str(value)]
        out = io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(op["text"])
        try:
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()

    def run_all(self) -> tuple[list[int], int, list, list[str]]:
        """Issue every operation in order; (latencies, wall ns, outputs,
        failures).  A failure message starts with "op <index> "."""
        issue = self.issue
        lat, outs, errors = [], [], []
        tracer = self.tracer
        start = time.perf_counter_ns()
        for i, op in enumerate(self.ops):
            if tracer:
                tracer.op_id = i
            t0 = time.perf_counter_ns()
            try:
                out = issue(op)
            except Exception as exc:  # an operation that raises is counted as failed
                out = None
                errors.append(f"op {i} ({op['op']}): {type(exc).__name__}: {exc}")
            lat.append(time.perf_counter_ns() - t0)
            outs.append(out)
        return lat, time.perf_counter_ns() - start, outs, errors

    # -- checks --------------------------------------------------------------

    def table(self, q, p: int, k: int):
        got = self.tables.get((id(q), p, k))
        if got is None:
            got = self.lib.form_counts_by_symbol(q, self.lib.PrimePower(p, k))
            self.tables[(id(q), p, k)] = got
        return got

    def factor_counts(self, q, p: int, k: int, t: int, checked: set) -> tuple[list[str], int, int]:
        """(errors, total, primitive) at t mod p^k, by enumeration when
        the cube is small, else from the partition-checked symbol table."""
        if p ** (k * len(q)) <= BRUTE_LIMIT:
            return [], *checks.brute_counts(q, p**k, t, [p])
        table = self.table(q, p, k)
        errors = []
        key = (id(q), p, k)
        if key not in checked:
            checked.add(key)
            errors = checks.check_partition(q, p, k, table)
        return errors, *checks.table_counts(table, p, k, t)

    def check(self, outs: list, failures: list[str]) -> list[str]:
        """Check every output of an operation that did not fail."""
        failed = {int(f.split()[1]) for f in failures}
        errors = []
        checked: set = set()
        groups: dict = {}
        for i, (op, out) in enumerate(zip(self.ops, outs)):
            if i in failed:
                continue
            label = f"op {i} {op['op']}"
            kind = op["op"]
            if kind == "count_form":
                errs, tot, prim = self.factor_counts(op["q"], op["p"], op["k"], op["t"], checked)
                errors += errs + checks.check_counts(label, out, tot, prim)
            elif kind == "count_composite":
                tot = prim = 1
                for p, k in op["factors"]:
                    errs, ft, fp = self.factor_counts(op["q"], p, k, op["t"], checked)
                    errors += errs
                    tot, prim = tot * ft, prim * fp
                errors += checks.check_counts(label, out, tot, prim)
            elif kind == "local_density":
                p, q = op["p"], op["q"]
                s = checks.density_level(q, p, op["t"])
                if s != op["s"]:
                    errors.append(f"{label}: stabilizing level {s}, workload expects {op['s']}")
                errs, tot, _ = self.factor_counts(q, p, s, op["t"], checked)
                want = checks.density_from_count(tot, p, s, len(q))
                errors += errs
                if out != want:
                    errors.append(f"{label}: density {out}, expected {want}")
            elif kind in ("sample_form", "sample_composite"):
                factors = op["factors"] if kind == "sample_composite" else [(op["p"], op["k"])]
                m = math.prod(p**k for p, k in factors)
                primes = [p for p, _ in factors]
                errors += checks.check_vector(label, op["q"], out, m, op["t"], primes, op["kind"])
                if "group" in op and out is not None:
                    groups.setdefault(op["group"], (op, []))[1].append(out)
        for op, draws in groups.values():
            factors = op["factors"]
            m = math.prod(p**k for p, k in factors)
            support = checks.support_size(op["q"], m, op["t"], [p for p, _ in factors], op["kind"])
            if len(draws) < 5 * support:
                errors.append(f"group {op['group']}: {len(draws)} draws for a support of {support}")
            errors += checks.check_uniform(f"group {op['group']}", draws, support)
        return errors


# -- traced run ----------------------------------------------------------------


def quadmod_modules() -> dict:
    from quadmod import cli, counting, modring, sampling, sqroots, symbols

    return {
        "cli": cli,
        "counting": counting,
        "sampling": sampling,
        "sqroots": sqroots,
        "modring": modring,
        "symbols": symbols,
    }


def import_ms(samples: int = 5) -> float:
    """Median fresh `import quadmod.cli` minus median bare interpreter start."""

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def once(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=ROOT)
        return time.perf_counter() - t0

    once("import quadmod.cli")  # writes the bytecode caches
    bare, full = [], []
    for _ in range(samples):
        bare.append(once("pass"))
        full.append(once("import quadmod.cli"))
    bare.sort()
    full.sort()
    return (full[samples // 2] - bare[samples // 2]) * 1e3


def _factors(op: dict) -> list:
    if "factors" in op:
        return op["factors"]
    return [(op["p"], op.get("k", op.get("s")))]


def coverage_ops(runner: Runner, need_cli: bool, need_sampler: bool) -> list[dict]:
    """Operations that reach layers the workload's own list never calls,
    made from its operation with the smallest modulus: that operation
    through the CLI in process, and one sample_form draw of its form at
    t = Q[0][0] (the value at e_1, so the class is not empty)."""
    first = min(runner.ops, key=lambda op: (math.prod(p**k for p, k in _factors(op)), len(op["q"])))
    factors = _factors(first)
    extra = []
    if need_cli:
        cmd = "sample" if first["op"].startswith("sample") else "density" if first["op"] == "local_density" else "count"
        text = workloads.instance_json(first["q"], factors, first["t"])
        flags = {"kind": first["kind"], "seed": 1} if cmd == "sample" else {}
        extra.append({"op": "cli", "cmd": cmd, "flags": flags, "text": text})
    if need_sampler:
        q = first["q"]
        p, k = factors[0]
        extra.append({"op": "sample_form", "q": q, "p": p, "k": k, "t": q[0][0], "kind": "any"})
    return extra


def traced_metrics(runner: Runner) -> dict:
    """Per-layer metrics: a span pass over the operation list, a count
    pass for the hot split kernel, and coverage calls for layers the
    list does not reach."""
    mods = quadmod_modules()
    tracer = runner.tracer
    api = runner.api
    runner.api = {n: tracer.span(tracing.API_SPANS[n], fn) for n, fn in api.items()}
    tracer.install_spans(mods)
    stats = getattr(mods["sampling"], "split_rejection_stats", None)
    rejects0 = stats.rejects if stats else 0
    # the CLI makes its own random.Random(seed); count its draws too
    mods["cli"].random = types.SimpleNamespace(Random=tracing.CountingRandom)
    lat, wall, outs, errors = runner.run_all()
    n = len(runner.ops)
    times, calls = tracer.layer_times()
    per_op = {
        "prime_tests": tracer.counts["prime_tests"] / n,
        "blockdiag_calls": calls["blockdiag"] / n,
        "tables_calls": calls["tables"] / n,
        "rng": tracing.CountingRandom.draws / n,
        "rejects": ((stats.rejects if stats else 0) - rejects0) / n,
    }
    entries = tracing.cache_entries(mods["symbols"])
    layer_ms = {k: times[k] / n / 1e6 for k in ("blockdiag", "tables", "walk", "sqrt", "cli.parse", "cli.run_self")}

    need_cli = calls["cli.parse"] == 0
    need_sampler = calls["sampler"] == 0
    if need_cli or need_sampler:
        cov = coverage_ops(runner, need_cli, need_sampler)
        ops, runner.ops = runner.ops, cov
        mark = len(tracer.spans)
        runner.run_all()
        runner.ops = ops
        cov_times, _ = tracer.layer_times(mark)
        if need_cli:
            layer_ms["cli.parse"] = cov_times["cli.parse"] / 1e6
            layer_ms["cli.run_self"] = cov_times["cli.run_self"] / 1e6
        if need_sampler:
            layer_ms["walk"] = cov_times["walk"] / 1e6
            layer_ms["sqrt"] = cov_times["sqrt"] / 1e6
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.dump(OUT / f"trace-{runner.name}-{runner.seed}.json")
    tracer.restore()
    mods["cli"].random = random
    runner.api = api

    # count pass: same operations, same generator seed, counters only
    tracer.install_split_counters(mods)
    runner.rng = runner._new_rng()
    runner.run_all()
    tracer.restore()
    split_calls = tracer.counts["split_calls"]

    metrics = {
        "cli.import_ms": (import_ms(), "ms"),
        "cli.parse_ms": (layer_ms["cli.parse"], "ms"),
        "cli.run_ms": (layer_ms["cli.run_self"], "ms"),
        "modring.prime_tests_per_op": (per_op["prime_tests"], "count"),
        "blockdiag.diag_ms": (layer_ms["blockdiag"], "ms"),
        "blockdiag.calls_per_op": (per_op["blockdiag_calls"], "count"),
        "counting.tables_ms": (layer_ms["tables"], "ms"),
        "counting.tables_calls_per_op": (per_op["tables_calls"], "count"),
        "symbols.split_calls_per_op": (split_calls / n, "count"),
        "symbols.split_nonzero_share": (tracer.counts["split_nonzero"] / split_calls if split_calls else 0.0, "ratio"),
        "symbols.cache_entries": (entries, "count"),
        "sampling.walk_ms": (layer_ms["walk"], "ms"),
        "sampling.rng_draws_per_op": (per_op["rng"], "count"),
        "sampling.split_rejects_per_op": (per_op["rejects"], "count"),
        "sqroots.sqrt_ms": (layer_ms["sqrt"], "ms"),
    }
    return {"lat": lat, "wall": wall, "outs": outs, "errors": errors, "layers": metrics}


# -- main ------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import quadmod  # noqa: F401
    ops = workloads.build(args.workload, args.seed, args.seconds)
    runner = Runner(args.workload, args.seed, ops, traced=bool(args.trace))
    if args.setup_only:
        print("ready", flush=True)
        return 0
    if args.trace:
        res = traced_metrics(runner)
        rss_mb = None
    else:
        lat, wall, outs, errors = runner.run_all()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        res = {"lat": lat, "wall": wall, "outs": outs, "errors": errors, "layers": None}
    failed = len(res["errors"])
    check_errors = runner.check(res["outs"], res["errors"])
    print(
        json.dumps(
            {
                "latencies_ns": res["lat"],
                "wall_ns": res["wall"],
                "rss_mb": rss_mb,
                "attempted": len(ops),
                "failed": failed,
                "failures": res["errors"][:20],
                "check_errors": check_errors[:20],
                "n_check_errors": len(check_errors),
                "layers": res["layers"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
