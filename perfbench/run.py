"""quadmod benchmark: one closed-loop workload per run.

    python3 perfbench/run.py --workload count --seed 1 --seconds 50 --trace 0

Times setup in several fresh interpreters, then runs the workload's fixed
operation list in one more, checks every output, prints a summary and,
as the last line, one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones.  Exits 1 when a check fails, 2 when the
run could not be made.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_TIMEOUT_S = 150
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0)


def worker_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        *extra,
    ]


def setup_seconds(args) -> float:
    """Median wall time from starting a fresh interpreter until it reports
    that the first operation could be issued.  One unrecorded start first
    writes the bytecode caches."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(worker_cmd(args, "--setup-only"), stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=RUN_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup failed (exit {code})")
        if i:
            samples.append(elapsed)
    return statistics.median(samples)


def tail(lat_ms: list[float]) -> tuple[float, float]:
    """(level, value) of the highest percentile with at least ten
    operations above it, by nearest rank."""
    n = len(lat_ms)
    ordered = sorted(lat_ms)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100 * n)
        if n - rank >= 10:
            return level, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def run_worker(args) -> tuple[int, str, str]:
    """Run the operation list in a fresh interpreter of its own session,
    so that a timeout also stops the CLI processes it started."""
    with subprocess.Popen(
        worker_cmd(args, "--trace", str(args.trace)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
        start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    return proc.returncode, out, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="quadmod benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "quadmod" / "__init__.py").is_file():
        print(f"error: no quadmod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup_s = None if args.trace else setup_seconds(args)
        code, out, err = run_worker(args)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stderr.write(err)
    try:
        res = json.loads(out.strip().splitlines()[-1])
    except (json.JSONDecodeError, IndexError):
        print(f"error: worker exited {code} without a result", file=sys.stderr)
        return 2

    n = res["attempted"]
    for msg in res["failures"]:
        print(f"failed: {msg}")
    for msg in res["check_errors"]:
        print(f"CHECK FAILED: {msg}")
    correct = res["n_check_errors"] == 0
    if args.trace:
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in res["layers"].items()}
    else:
        lat_ms = [v / 1e6 for v in res["latencies_ns"]]
        level, tail_ms = tail(lat_ms)
        print(f"op_tail_ms is p{level:g} of {n} operations")
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "ops_per_s": {"value": n / (res["wall_ns"] / 1e9), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
            "op_tail_ms": {"value": tail_ms, "unit": "ms"},
            "peak_rss_mb": {"value": res["rss_mb"], "unit": "MB"},
        }
    pass_name = "traced pass" if args.trace else "list"
    print(f"{args.workload}: {n} operations, {res['failed']} failed, checks {'passed' if correct else 'FAILED'}")
    print(f"the {pass_name} took {res['wall_ns'] / 1e9:.2f} s")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": n, "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
