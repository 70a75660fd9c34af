"""Command line experiment runner.

Experiments are described by a JSON config::

    {"kind": "utr" | "gtr" | "universal" | "sphere" | "classify" | "oracle",
     "seed": <unsigned 64-bit int>,
     "params": {...}}

and run with `trm run config.json`.  The kind-specific subcommands
(universal-scan, sphere, classify, oracle-compare) are the same runner with
the kind pinned.  The TRM_SEED environment variable overrides the config
seed.  Monte Carlo work is sharded into fixed-size blocks with one RNG
substream per block, so output bytes depend only on the config and seed,
never on --workers.

Exit codes: 0 success, 1 oracle comparison failure, 2 malformed config,
3 well-formed config with out-of-range values.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from . import __version__
from .checker import classify
from .errors import SchemaError, integer_field, number_field
from .gtr import (
    DensitySpec,
    Epsilon,
    Z_MAX,
    density_from_json,
    epsilon_probability,
    sample_break_point,
    transition_probabilities_1d,
    transition_probabilities_nd,
)
from .hilbert import HilbertState, utr_correspondence
from .shards import block_rng, run_sharded
from .simplex import BarycentricVector, OutcomePartition
from .sphere import BlochVector, counterexample_bundle, kolmogorov_counterexample, sequential_joint
from .universal import convergence_scan
from .utr import outcome_probabilities, run_batch

__all__ = ["main"]

KINDS = ("utr", "gtr", "universal", "sphere", "classify", "oracle")


def _require(params: Mapping[str, Any], field: str, kind: str) -> Any:
    if field not in params:
        raise SchemaError(f"{kind} config is missing params.{field}")
    return params[field]


def _positive_int(value: Any, where: str) -> int:
    if integer_field(value, where) <= 0:
        raise SchemaError(f"{where} must be positive, got {value}")
    return value


def _state(params: Mapping[str, Any], kind: str) -> BarycentricVector:
    x = _require(params, "x", kind)
    if not isinstance(x, list):
        raise SchemaError(f"{kind} params.x must be an array of numbers")
    return BarycentricVector(tuple(number_field(v, f"{kind} params.x entry") for v in x))


def _partition(params: Mapping[str, Any], n: int) -> OutcomePartition:
    blocks = params.get("blocks")
    if blocks is None:
        return OutcomePartition.singletons(n)
    if not isinstance(blocks, list) or not all(isinstance(b, list) for b in blocks):
        raise SchemaError("params.blocks must be an array of integer index arrays")
    return OutcomePartition.of(
        [[integer_field(i, "params.blocks entry") for i in b] for b in blocks]
    )


def _run_utr(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    x = _state(params, "utr")
    partition = _partition(params, x.n)
    trials = _positive_int(_require(params, "trials", "utr"), "utr params.trials")
    counts = run_sharded(
        trials, seed, lambda rng, m: run_batch(x, partition, m, rng), workers
    )
    probs = outcome_probabilities(x, partition)
    freqs = counts / trials
    sigma = np.sqrt(probs * (1.0 - probs) / trials)
    dev = np.abs(freqs - probs)
    rows = [
        {
            "block_index": k + 1,
            "probability": float(probs[k]),
            "frequency": float(freqs[k]),
            "stderr": float(sigma[k]),
        }
        for k in range(partition.n_blocks)
    ]
    result = {
        "x": list(x.components),
        "blocks": [sorted(b) for b in partition.blocks],
        "trials": trials,
        "counts": [int(c) for c in counts],
        "frequencies": [float(f) for f in freqs],
        "probabilities": [float(p) for p in probs],
        "max_abs_deviation": float(dev.max()),
        "within_four_sigma": bool(np.all(dev <= 4.0 * sigma)),
    }
    return result, rows


def _run_gtr(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    mode = params.get("mode", "1d")
    density = density_from_json(_require(params, "density", "gtr"))
    if mode == "1d":
        cos_theta = number_field(_require(params, "cos_theta", "gtr"), "gtr params.cos_theta")
        p_plus, p_minus = transition_probabilities_1d(cos_theta, density)
        result: dict[str, Any] = {
            "mode": "1d",
            "cos_theta": cos_theta,
            "density": params["density"],
            "p_plus": p_plus,
            "p_minus": p_minus,
        }
        if isinstance(density, Epsilon):
            closed = epsilon_probability(cos_theta, density.epsilon)
            result["closed_form_p_plus"] = closed[0]
            result["closed_form_deviation"] = abs(closed[0] - p_plus)
        trials = params.get("trials")
        if trials is not None:
            trials = _positive_int(trials, "gtr params.trials")
            z_a = cos_theta * Z_MAX

            def block(rng: np.random.Generator, m: int) -> np.ndarray:
                z = np.atleast_1d(sample_break_point(density, rng, size=m))
                plus = z < z_a
                ties = z == z_a
                if ties.any():
                    plus = plus | (ties & (rng.random(m) < 0.5))
                return np.array([int(plus.sum())])

            hits = int(run_sharded(trials, seed, block, workers)[0])
            result["trials"] = trials
            result["mc_frequency_plus"] = hits / trials
        rows = [
            {"outcome": "+1", "probability": p_plus},
            {"outcome": "-1", "probability": p_minus},
        ]
        return result, rows
    if mode == "nd":
        x = _state(params, "gtr")
        partition = _partition(params, x.n)
        samples = params.get("samples_per_cell", 4096)
        samples = _positive_int(samples, "gtr params.samples_per_cell")
        probs, errs = transition_probabilities_nd(
            x, partition, density, block_rng(seed, 0), samples_per_cell=samples
        )
        rows = [
            {
                "block_index": k + 1,
                "probability": float(probs[k]),
                "stderr": float(errs[k]),
            }
            for k in range(partition.n_blocks)
        ]
        result = {
            "mode": "nd",
            "x": list(x.components),
            "blocks": [sorted(b) for b in partition.blocks],
            "density": params["density"],
            "probabilities": [float(p) for p in probs],
            "standard_errors": [float(e) for e in errs],
        }
        return result, rows
    raise SchemaError(f"gtr params.mode must be '1d' or 'nd', got {mode!r}")


def _run_universal(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    x = _state(params, "universal")
    partition = _partition(params, x.n)
    counts = params.get("cell_counts")
    if counts is None:
        counts = [_require(params, "n_cells", "universal")]
    if not isinstance(counts, list) or not counts:
        raise SchemaError("universal params.cell_counts must be a nonempty array")
    counts = [_positive_int(c, "universal cell count") for c in counts]
    method = params.get("method", "exact")
    sizes = {}
    if method == "mc":
        sizes = {
            field: _positive_int(params.get(field, 1000), f"universal params.{field}")
            for field in ("density_samples", "point_samples")
        }
        if sizes["density_samples"] < 2:
            raise SchemaError("universal params.density_samples must be at least 2")
    elif method != "exact":
        raise SchemaError(f"universal params.method must be 'exact' or 'mc', got {method!r}")
    rows = convergence_scan(
        x, counts, seed, method, partition=partition, workers=workers, **sizes
    )
    result = {
        "x": list(x.components),
        "blocks": [sorted(b) for b in partition.blocks],
        "method": method,
        "scan": rows,
        "max_abs_deviation": max(abs(r["deviation"]) for r in rows),
    }
    return result, rows


def _run_sphere(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    mode = params.get("mode", "counterexample")
    if mode == "counterexample":
        eps = number_field(_require(params, "epsilon", "sphere"), "sphere params.epsilon")
        rep = kolmogorov_counterexample(eps)
        bundle = counterexample_bundle(eps)
        verdicts = classify(bundle)
        result = {
            "mode": "counterexample",
            "epsilon": rep.epsilon,
            "joints": list(rep.joints),
            "margin": rep.margin,
            "classical_violation": rep.violated,
            "bundle": bundle,
            "classical_ok": verdicts["classical_ok"],
            "qubit_ok": verdicts["qubit_ok"],
        }
        rows = [
            {"quantity": "J1", "value": rep.joints[0]},
            {"quantity": "J2", "value": rep.joints[1]},
            {"quantity": "J3", "value": rep.joints[2]},
            {"quantity": "margin", "value": rep.margin},
            {"quantity": "classical_violation", "value": float(rep.violated)},
        ]
        return result, rows
    if mode == "sequential":
        density = density_from_json(_require(params, "density", "sphere"))
        start = _bloch(_require(params, "initial", "sphere"), "params.initial")
        steps_doc = _require(params, "steps", "sphere")
        if not isinstance(steps_doc, list) or not steps_doc:
            raise SchemaError("sphere params.steps must be a nonempty array")
        steps = []
        for i, step in enumerate(steps_doc):
            if not isinstance(step, Mapping) or "direction" not in step or "sign" not in step:
                raise SchemaError(f"sphere params.steps[{i}] needs direction and sign")
            sign = integer_field(step["sign"], f"sphere params.steps[{i}].sign")
            if sign not in (1, -1):
                raise SchemaError(f"sphere params.steps[{i}].sign must be 1 or -1")
            steps.append((_bloch(step["direction"], f"params.steps[{i}].direction"), sign))
        record = sequential_joint(start, steps, density)
        result = {
            "mode": "sequential",
            "probability": record.probability,
            "steps": [
                {"direction": list(d.coords), "sign": s} for d, s in record.steps
            ],
        }
        return result, [{"quantity": "probability", "value": record.probability}]
    raise SchemaError(f"sphere params.mode must be 'counterexample' or 'sequential', got {mode!r}")


def _bloch(doc: Any, where: str) -> BlochVector:
    if not isinstance(doc, list) or len(doc) != 3:
        raise SchemaError(f"{where} must be an array of three numbers")
    return BlochVector(tuple(number_field(v, f"{where} entry") for v in doc))


def _run_classify(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    bundle = _require(params, "bundle", "classify")
    report = classify(bundle)
    rows = []
    for i, j in enumerate(report["joints"]):
        rows.append({"entry": f"joint[{i}]", "ok": j["satisfied"], "metric": j["margin"]})
    for i, t in enumerate(report["transitions"]):
        rows.append({"entry": f"transition[{i}]", "ok": t["embeddable"], "metric": t["deficit"]})
    return report, rows


def _run_oracle(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    dims = params.get("dims", [2, 3, 4, 5])
    if not isinstance(dims, list) or not all(isinstance(d, int) and 2 <= d <= 5 for d in dims):
        raise SchemaError("oracle params.dims must be an array of integers in 2..5")
    states = _positive_int(params.get("states", 100), "oracle params.states")
    tolerance = number_field(params.get("tolerance", 1e-9), "oracle params.tolerance")
    if not 0 < tolerance < math.inf:
        raise SchemaError("oracle params.tolerance must be a positive finite number")
    inject = bool(params.get("inject_fault", False))
    rows = []
    worst = 0.0
    for d_i, n in enumerate(dims):
        rng = block_rng(seed, d_i)
        dim_worst = 0.0
        for _ in range(states):
            raw = rng.normal(size=n) + 1j * rng.normal(size=n)
            state = HilbertState(tuple(raw / np.linalg.norm(raw)))
            dim_worst = max(dim_worst, utr_correspondence(state).max_deviation)
        if inject and d_i == 0:
            # test hook: the first dimension reports a 1e-3 Born deviation
            dim_worst = max(dim_worst, 1e-3)
        rows.append({"dim": n, "states": states, "max_deviation": dim_worst})
        worst = max(worst, dim_worst)
    result = {
        "dims": dims,
        "states_per_dim": states,
        "tolerance": tolerance,
        "fault_injected": inject,
        "max_deviation": worst,
        "ok": worst <= tolerance,
    }
    return result, rows


_RUNNERS: dict[str, Callable[[Mapping[str, Any], int, int], tuple[dict, list[dict]]]] = {
    "utr": _run_utr,
    "gtr": _run_gtr,
    "universal": _run_universal,
    "sphere": _run_sphere,
    "classify": _run_classify,
    "oracle": _run_oracle,
}


def _load_config(path: Path, forced_kind: str | None) -> tuple[dict, str, int]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise SchemaError("config must be a JSON object")
    kind = config.get("kind", forced_kind)
    if forced_kind is not None and kind != forced_kind:
        raise SchemaError(f"config kind {kind!r} does not match subcommand {forced_kind!r}")
    if kind not in KINDS:
        raise SchemaError(f"config kind {kind!r} must be one of {list(KINDS)}")
    env_seed = os.environ.get("TRM_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise SchemaError(f"TRM_SEED={env_seed!r} is not an integer") from None
    else:
        if "seed" not in config:
            raise SchemaError("config is missing the mandatory seed")
        seed = config["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise SchemaError(f"seed must be an unsigned 64-bit integer, got {seed!r}")
    params = config.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("config params must be an object")
    return config, kind, seed


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def _render(payload: dict, rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(
        f"# trm={payload['version']} seed={payload['seed']} "
        f"config_sha256={payload['config_sha256']}\n"
    )
    if rows:
        writer = csv.writer(buf, lineterminator="\n")
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(row[k]) for k in header])
    return buf.getvalue()


def _cell(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="trm",
        description="Run tension-reduction measurement experiments from JSON configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    forced = {
        "run": None,
        "universal-scan": "universal",
        "sphere": "sphere",
        "classify": "classify",
        "oracle-compare": "oracle",
    }
    for name in forced:
        sp = sub.add_parser(name, help=f"{name} experiment")
        sp.add_argument("config", type=Path, help="JSON experiment config")
        sp.add_argument("--out", type=Path, default=None, help="write output here instead of stdout")
        sp.add_argument(
            "--workers",
            type=int,
            default=os.cpu_count() or 1,
            help="parallel workers (results do not depend on this)",
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        if name == "oracle-compare":
            sp.add_argument(
                "--inject-fault",
                action="store_true",
                help="self-test hook: report a deviation of at least 1e-3",
            )
    args = parser.parse_args(argv)

    try:
        config, kind, seed = _load_config(args.config, forced[args.command])
        params = dict(config.get("params", {}))
        if getattr(args, "inject_fault", False):
            params["inject_fault"] = True
        result, rows = _RUNNERS[kind](params, seed, max(1, args.workers))
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    payload = {
        "kind": kind,
        "seed": seed,
        "config_sha256": hashlib.sha256(canonical).hexdigest(),
        "version": __version__,
        "result": result,
    }
    text = _render(payload, rows, args.format)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", newline="\n") as f:
            f.write(text)
    if kind == "oracle" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
