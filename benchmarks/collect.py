"""Run every workload over several seeds and summarize the spread.

    python3 benchmarks/collect.py --seeds 1-10 --out benchmarks/BASELINE.json

For each workload this makes one untraced run per seed and one traced run
at the default seed, then reports, per end-to-end metric, the median of
the runs and the distance between their first and third quartiles as a
share of that median (``statistics.quantiles(values, n=4)``).  The output
file holds every run's result and pass list, so a later commit can be
compared against it run by run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import SPEC, WORKLOADS, machine_info

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True,
    )
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record = json.loads(record_line)
    return {"seed": seed, "passes": record["passes"], "result": json.loads(result_line)}


def spread(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    report = {"machine": machine_info(), "seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in WORKLOADS:
        runs = [bench(workload, seed, 0) for seed in args.seeds]
        summary = {
            name: spread([r["result"]["metrics"][name]["value"] for r in runs])
            for name in runs[0]["result"]["metrics"]
        }
        report["workloads"][workload] = {
            "summary": summary,
            "runs": runs,
            "traced": bench(workload, 0, 1),
        }
        for name, s in summary.items():
            print(f"{workload} {name}: median {s['median']:.4g}, spread {s['spread']:.3f}", flush=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
