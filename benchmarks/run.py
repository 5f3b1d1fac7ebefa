"""The clawtoric benchmark: run one workload for a fixed time and report it.

    python3 benchmarks/run.py --workload soundness_gate --seed 0 --seconds 44 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Every pass runs in a fresh interpreter (``passes.py``), one after
another.  Passes start while the time already spent plus the longest pass
so far fits in ``--seconds``; at least one always runs.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics: the medians over passes of the timed wall time,
the set-up time (from spawning the pass's process to the start of its
timed part) and the pass process's peak RSS, plus the share of operations
that succeeded.  With ``--trace 1`` passes come in pairs, one untraced and
one traced, and the metrics are the per-layer medians over the traced
passes plus the tracing overhead, the median over pairs of the traced
pass's wall time minus its untraced partner's.  Metric names and units
are read from ``BENCHMARK.json``.  The line before the result describes the run:
the machine and every pass.  Any failed operation makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# a run ends well inside this many seconds, whatever --seconds asks for
HARD_LIMIT_S = 170.0

# metric names and units come from the benchmark's definition
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class PassFailed(RuntimeError):
    pass


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def pass_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # the workloads are single-threaded; keep numpy's thread pools out of them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_pass(args, traced: bool, pass_id: int, work: Path, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "passes.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--pass-id", str(pass_id),
        "--work", str(work),
    ]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=pass_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - spawned),
        )
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"pass {pass_id} did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"pass {pass_id} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    record["setup_s"] = record.pop("timed_start") - spawned
    return record


def run_passes(args, work: Path) -> list[dict]:
    started = time.monotonic()
    deadline = started + HARD_LIMIT_S
    records: list[dict] = []
    longest = 0.0
    while not records or time.monotonic() - started + longest <= args.seconds:
        group_start = time.monotonic()
        for traced in (False, True) if args.trace else (False,):
            records.append(run_pass(args, traced, len(records), work, deadline))
        longest = max(longest, time.monotonic() - group_start)
    return records


def summarize(records: list[dict], traced_run: bool) -> dict:
    plain = [r for r in records if not r["traced"]]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if traced_run:
        traced = [r for r in records if r["traced"]]
        metrics = SPEC["per_layer"]
        values = {
            m["name"]: statistics.median(r["layers"][m["name"]] for r in traced)
            for m in metrics
            if m["name"] != "trace.overhead_s"
        }
        # passes alternate untraced, traced: compare each traced pass with its partner
        values["trace.overhead_s"] = statistics.median(
            t["wall_s"] - u["wall_s"] for u, t in zip(plain, traced)
        )
    else:
        metrics = SPEC["end_to_end"]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "ok_ratio": (attempted - failed) / attempted,
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one clawtoric benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in 1..60")
    if not (ROOT / "src" / "clawtoric" / "__init__.py").is_file():
        print(f"error: no clawtoric sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        records = run_passes(args, work)
    except PassFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = summarize(records, bool(args.trace))
    for r in records:
        for error in r["errors"]:
            print(f"pass {r['pass_id']}: {error}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "pass_count": len(records),
        "passes": [{k: v for k, v in r.items() if k != "layers"} for r in records],
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
