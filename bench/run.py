"""trm benchmark: end-to-end and per-layer timings of `trm run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each operation runs one generated config
through `trm.cli.main` in a fresh interpreter (bench/op.py), one at a time,
so every operation pays the import and cold-start cost a user pays.  A pass
runs every config of the workload once.  Rounds of passes repeat until the
time is used up:

  --trace 0  a pass at the CLI's default --workers, then one at
             --workers 1, with a run of the fixed reference work
             (reference.py) before the first pass and after every pass;
             prints the end-to-end metrics, each pass's times scaled by
             REFERENCE_S / (mean of the reference times around it) to
             cancel host drift.
  --trace 1  an untraced pass, then a traced pass, both at the default
             --workers; prints the per-layer metrics from the traced passes,
             in unscaled seconds.

Every operation's output is checked (exit code, no traceback, strict JSON,
the config kind's statistical or exact gate) and must be byte-identical to
the first output of the same config, whatever the worker count or tracing.
The last line of stdout is the result object; the line before it lists the
unscaled pass and reference times and the output sha256 of each config.
Generated configs, outputs and span files are left in .bench_out/<workload>/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from tracer import summarize
from workloads import WORKLOADS, check, configs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 150
# End-to-end times are scaled to a machine that runs the reference work
# (reference.py) in this many seconds.
REFERENCE_S = 0.5
# The unit of every metric, as BENCHMARK.json declares it.
UNITS = {
    m["name"]: m["unit"]
    for section in ("end_to_end", "per_layer")
    for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]
}


@dataclass
class Op:
    """One operation's measurements and the problems found with its output."""

    setup_s: float = 0.0
    run_s: float = 0.0
    rss_mb: float = 0.0
    sha256: str = ""
    out_bytes: int = 0
    problems: list[str] = field(default_factory=list)
    layers: dict[str, dict[str, float]] = field(default_factory=dict)


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-standard JSON constant {name}")


def op_env() -> dict[str, str]:
    """Environment of an operation: the checkout's sources first on the
    import path, and no seed override."""
    env = dict(os.environ)
    env.pop("TRM_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_op(config: dict[str, Any], cfg_path: Path, out_path: Path, workers: str,
           trace_path: Path | None, env: dict[str, str]) -> Op:
    op = Op()
    for stale in (out_path, trace_path):
        if stale is not None:
            stale.unlink(missing_ok=True)
    spawn = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "op.py"), str(cfg_path), str(out_path), workers,
             str(trace_path) if trace_path else "-"],
            capture_output=True, text=True, env=env, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        op.problems.append(f"no exit within {OP_TIMEOUT_S} s")
        return op
    if proc.returncode != 0:
        op.problems.append(f"exit code {proc.returncode}")
    if "Traceback" in proc.stderr:
        op.problems.append("traceback on stderr: " + proc.stderr.strip().splitlines()[-1])
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        op.problems.append("no timing report")
        return op
    if Path(report["trm"]).resolve().parent.parent != SRC:
        op.problems.append(f"imported trm from {report['trm']}, not from {SRC}")
    if report["runner"] is None:
        op.problems.append("the CLI never called a config runner")
        return op
    op.setup_s = report["runner"] - spawn
    op.run_s = report["done"] - report["runner"]
    op.rss_mb = report["maxrss_kb"] / 1024.0
    if not out_path.exists():
        op.problems.append("no output written")
        return op
    data = out_path.read_bytes()
    op.sha256 = hashlib.sha256(data).hexdigest()
    op.out_bytes = len(data)
    try:
        doc = json.loads(data, parse_constant=_reject_constant)
    except ValueError as exc:
        op.problems.append(f"output is not strict JSON: {exc}")
    else:
        op.problems.extend(check(config, doc))
    if trace_path is not None:
        if trace_path.exists():
            op.layers = summarize(json.loads(trace_path.read_text()))
        else:
            op.problems.append("no spans written")
    return op


def run_reference(env: dict[str, str]) -> float:
    """Seconds from spawn to exit of the reference work."""
    spawn = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH / "reference.py")], env=env, check=True,
                   timeout=OP_TIMEOUT_S)
    return time.perf_counter() - spawn


def merge_layers(ops: list[Op]) -> dict[str, dict[str, float]]:
    """Span summaries of a pass's operations, added up per span name."""
    total: dict[str, dict[str, float]] = {}
    for op in ops:
        for name, agg in op.layers.items():
            acc = total.setdefault(name, dict.fromkeys(agg, 0))
            for key, value in agg.items():
                acc[key] = max(acc[key], value) if key == "max_s" else acc[key] + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(s: dict[str, dict[str, float]], output_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md for the map
    from each to the end-to-end metric it should move)."""

    def get(name: str, key: str) -> float:
        return s.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for name in ("simplex.sample_uniform_batch", "simplex.regions_of_batch",
                 "cells.sample_in_cells"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
        m[f"{name}.rows"] = get(name, "rows")
    rows, ties = get("simplex.regions_of_batch", "rows"), get("simplex.regions_of_batch", "ties")
    m["simplex.tie_rows"] = ties
    m["simplex.useful_ratio"] = _ratio(rows - ties, rows)
    for name in ("simplex.objects", "utr.run_batch", "utr.outcome_probabilities",
                 "utr.collapse", "cells.cell_fraction_in_regions", "universal.mc_batch",
                 "universal.universal_probability_exact", "hilbert.born_probabilities",
                 "hilbert.collapse", "hilbert.objects"):
        m[f"{name}.self_s"] = get(name, "self_s")
        m[f"{name}.calls"] = get(name, "calls")
    m["gtr.transition_probabilities_nd.self_s"] = get("gtr.transition_probabilities_nd", "self_s")
    m["universal.densities"] = get("universal.mc_batch", "rows")
    m["shards.run_sharded.self_s"] = get("shards.run_sharded", "self_s")
    m["shards.blocks"] = get("shards.block", "calls")
    m["shards.block_busy_s"] = get("shards.block", "total_s")
    m["shards.block_max_s"] = get("shards.block", "max_s")
    m["shards.parallel_eff"] = _ratio(get("shards.block", "total_s"),
                                      get("shards.run_sharded", "worker_s"))
    m["cli.self_s"] = get("cli", "self_s")
    m["cli.output_bytes"] = output_bytes
    return m


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "trm" / "cli.py").is_file():
        print(f"no trm sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    work = ROOT / ".bench_out" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    env = op_env()
    # Byte-compile once, as an installed package would be, so that no timed
    # operation pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC), str(BENCH)],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    cases = []
    for name, config in configs(args.workload, args.seed):
        path = work / f"{name}.json"
        path.write_text(json.dumps(config))
        cases.append((name, config, path))

    # (label, --workers value, traced)
    if args.trace:
        modes = [("default", "default", False), ("traced", "default", True)]
    else:
        modes = [("default", "default", False), ("w1", "1", False)]
    passes: dict[str, list[list[Op]]] = {label: [] for label, _, _ in modes}
    # Untraced runs time the reference work before the first pass and after
    # every pass; each pass is scaled by the mean of the two around it.
    scales: dict[str, list[float]] = {label: [] for label, _, _ in modes}
    reference: dict[str, str] = {}
    reference_s: list[float] = [] if args.trace else [run_reference(env)]
    problems: list[str] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        for label, workers, traced in modes:
            ops = []
            for name, config, path in cases:
                trace_path = work / f"{name}.spans.json" if traced else None
                op = run_op(config, path, work / f"{name}.{label}.out", workers, trace_path, env)
                if op.sha256 and reference.setdefault(name, op.sha256) != op.sha256:
                    op.problems.append(f"output bytes differ from the first {name} output")
                attempted += 1
                if op.problems:
                    failed += 1
                    problems.extend(f"{name} ({label}): {p}" for p in op.problems)
                ops.append(op)
            passes[label].append(ops)
            if not args.trace:
                reference_s.append(run_reference(env))
                scales[label].append(REFERENCE_S / statistics.fmean(reference_s[-2:]))
        rounds = len(passes[modes[0][0]])
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > args.seconds:
            break

    def pass_run(label: str) -> float:
        return statistics.median(sum(op.run_s for op in ops) for ops in passes[label])

    def scaled_run(label: str) -> float:
        return statistics.median(
            sum(op.run_s for op in ops) * scale
            for ops, scale in zip(passes[label], scales[label])
        )

    if args.trace:
        samples = [
            layer_metrics(merge_layers(ops), sum(op.out_bytes for op in ops))
            for ops in passes["traced"]
        ]
        metrics = median_metrics(samples)
        metrics["trace.overhead_s"] = pass_run("traced") - pass_run("default")
    else:
        metrics = {
            "run_s": scaled_run("default"),
            "run_s_w1": scaled_run("w1"),
            "setup_s": statistics.median(
                op.setup_s * scale
                for label in passes
                for ops, scale in zip(passes[label], scales[label])
                for op in ops
            ),
            "peak_rss_mb": statistics.median(
                max(op.rss_mb for op in ops) for ops in passes["default"]
            ),
        }
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "pass_s": {label: [sum(op.run_s for op in ops) for ops in passes[label]]
                   for label in passes},
        "reference_s": reference_s,
        "sha256": reference,
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
