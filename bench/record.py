"""Record a trajectory point: the benchmark over many seeds, with its spread.

    python3 bench/record.py --out bench/results/BENCH_<n>.json

For each workload, runs bench/run.py untraced once per seed (seeds 1..SEEDS)
and traced once (seed 1), then writes each end-to-end metric's median,
quartiles and spread (interquartile distance over the median), the traced
per-layer metrics, the output hashes and unscaled pass and reference times
per seed, and the machine it ran on.
Run it from the root of a git checkout; it prints the spread table too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = 10


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(details line, result line) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_revision": rev,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    doc = {"machine": machine(), "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        hashes, raw, attempted, failed = {}, {}, 0, 0
        for seed in range(1, SEEDS + 1):
            details, result = run(workload, seed, seconds, 0)
            hashes[seed] = details.pop("sha256")
            raw[seed] = details
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        end_to_end = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            end_to_end[name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": (q3 - q1) / med, "values": vals}
            print(f"{workload:14s} {name:12s} median {med:10.4f}  spread {(q3 - q1) / med:7.2%}")
        _, traced = run(workload, 1, seconds, 1)
        attempted += traced["attempted"]
        failed += traced["failed"]
        print(f"{workload:14s} attempted {attempted} failed {failed}")
        doc["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "sha256": hashes,
            "unscaled": raw,
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
