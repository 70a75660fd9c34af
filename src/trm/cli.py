"""Command line experiment runner.

Experiments are described by a JSON config::

    {"kind": "utr" | "gtr" | "universal" | "sphere" | "classify" | "oracle",
     "seed": <unsigned 64-bit int>,
     "params": {...}}

and run with `trm run config.json`.  The kind-specific subcommands
(universal-scan, sphere, classify, oracle-compare) are the same runner with
the kind pinned.  The TRM_SEED environment variable overrides the config
seed; a seed the config gives is still checked.  utr and gtr 1d trials are
sharded into fixed-size blocks with one RNG substream per block, and the
universal mc route draws on the calling thread, so output bytes depend
only on the config and seed, never on --workers.  Each runner
is a thin layer over library calls: the sampling itself, the gtr 1d
trials included (gtr.frequency_plus_1d), lives in the library.  _PARAMS
lists the params each kind and mode reads; any other field, at any level of
the document, is a schema error.

Exit codes: 0 success, 1 oracle comparison failure, 2 malformed config, a
--workers below 1 or an unwritable --out file, 3 well-formed config with
out-of-range values or a non-finite result.
"""

from __future__ import annotations

import argparse
import ctypes
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
from .errors import (
    REQUIRED,
    Check,
    SchemaError,
    array_field,
    brief,
    integer_field,
    integer_in,
    number_field,
    object_field,
)
from .gtr import (
    DensitySpec,
    Epsilon,
    density_from_json,
    epsilon_probability,
    frequency_plus_1d,
    transition_probabilities_1d,
    transition_probabilities_nd,
)
from .hilbert import correspondence_batch
from .shards import block_rng, run_sharded
from .simplex import BarycentricVector, OutcomePartition
from .sphere import BlochVector, counterexample_bundle, sequential_joint
from .universal import convergence_scan
from .utr import outcome_probabilities, run_batch

__all__ = ["main"]

# glibc mallopt parameters and the ceilings of glibc's own dynamic
# adjustment of them on 64-bit systems.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD_MAX = 32 << 20

# Scratch bytes the oracle gives each correspondence_batch call.  The batch
# holds about three complex (states, 2^n - 1, n) arrays at a time, 7.4 kB
# per state at five outcomes and 98 kB at eight, so chunks sized from this
# keep its scratch near 1 MB for any `states`.  The chunk size bounds memory
# only: a state's deviation is the same in any chunk.
ORACLE_BYTES = 1 << 20


def _oracle_chunk(n: int) -> int:
    """States per correspondence_batch call at n outcomes."""
    return max(1, ORACLE_BYTES // (48 * n * ((1 << n) - 1)))


def _document(value: Any, where: str) -> Any:
    """A field passed on unchecked, to a check of its own further on."""
    return value


def _state(value: Any, where: str) -> BarycentricVector:
    return BarycentricVector(tuple(array_field(number_field)(value, where)))


def _partition(value: Any, where: str) -> OutcomePartition:
    return OutcomePartition.of(array_field(array_field(integer_field))(value, where))


def _bloch(value: Any, where: str) -> BlochVector:
    return BlochVector(tuple(array_field(number_field, 3, 3)(value, where)))


def _sign(value: Any, where: str) -> int:
    if integer_field(value, where) not in (1, -1):
        raise SchemaError(f"{where} must be 1 or -1, got {brief(value)}")
    return int(value)


def _tolerance(value: Any, where: str) -> float:
    tolerance = number_field(value, where)
    if not 0 < tolerance < math.inf:
        raise SchemaError(f"{where} must be a positive finite number, got {tolerance}")
    return tolerance


def _echoed_density(value: Any, where: str) -> tuple[DensitySpec, Any]:
    """The parsed density and its document, which the result echoes."""
    return density_from_json(value, where), value


def _blocks(params: Mapping[str, Any]) -> OutcomePartition:
    return params["blocks"] or OutcomePartition.singletons(params["x"].n)


_POSITIVE = integer_in(1)
_SEED = integer_in(0, 2**64 - 1)
_STATE = {"x": (_state, REQUIRED), "blocks": (_partition, None)}
_CELLS = {"cell_counts": (array_field(_POSITIVE, min_len=1), REQUIRED)}
_STEP = {"sign": (_sign, REQUIRED), "direction": (_bloch, REQUIRED)}

# Field that selects the mode of a kind, and its default.
_MODES = {"gtr": ("mode", "1d"), "universal": ("method", "exact"), "sphere": ("mode", "counterexample")}

# The params each (kind, mode) reads, {field: (check, default)}; a field
# another mode reads is unknown here.
_PARAMS: dict[tuple[str, str | None], dict[str, tuple[Check, Any]]] = {
    ("utr", None): {**_STATE, "trials": (_POSITIVE, REQUIRED)},
    ("gtr", "1d"): {
        "density": (_echoed_density, REQUIRED),
        "cos_theta": (number_field, REQUIRED),
        "trials": (_POSITIVE, None),
    },
    ("gtr", "nd"): {
        "density": (_echoed_density, REQUIRED),
        **_STATE,
        # read by nothing since the law is exact; still accepted because the
        # bulk_mc benchmark config sends it, and goes when that config drops it
        "samples_per_cell": (_POSITIVE, None),
    },
    ("universal", "exact"): {**_STATE, **_CELLS},
    ("universal", "mc"): {
        **_STATE,
        **_CELLS,
        "density_samples": (integer_in(2), 1000),
        "point_samples": (_POSITIVE, 1000),
    },
    ("sphere", "counterexample"): {"epsilon": (number_field, REQUIRED)},
    ("sphere", "sequential"): {
        "density": (density_from_json, REQUIRED),
        "initial": (_bloch, REQUIRED),
        "steps": (array_field(lambda doc, where: object_field(doc, where, _STEP), 1), REQUIRED),
    },
    ("classify", None): {"bundle": (_document, REQUIRED)},
    ("oracle", None): {
        "dims": (array_field(integer_in(2, 8), min_len=1), [2, 3, 4, 5]),
        "states": (_POSITIVE, 100),
        "tolerance": (_tolerance, 1e-9),
    },
}


def _run_utr(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    x, partition, trials = params["x"], _blocks(params), params["trials"]
    counts = run_sharded(
        trials, seed, lambda rng, m: run_batch(x, partition, m, rng), workers
    )
    probs = outcome_probabilities(x, partition)
    freqs = counts / trials
    var = probs * (1.0 - probs) / trials
    # below the normal range the product has lost digits or underflowed to
    # 0 (p = 5e-324 gives sigma 0); the factored form keeps them
    sigma = np.where(
        var < np.finfo(float).tiny,
        np.sqrt(probs) * np.sqrt(1.0 - probs) / math.sqrt(trials),
        np.sqrt(var),
    )
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
    density, density_doc = params["density"]
    if params["mode"] == "1d":
        cos_theta = params["cos_theta"]
        p_plus, p_minus = transition_probabilities_1d(cos_theta, density)
        result: dict[str, Any] = {
            "mode": "1d",
            "cos_theta": cos_theta,
            "density": density_doc,
            "p_plus": p_plus,
            "p_minus": p_minus,
        }
        if isinstance(density, Epsilon):
            closed = epsilon_probability(cos_theta, density.epsilon)
            result["closed_form_p_plus"] = closed[0]
            result["closed_form_deviation"] = abs(closed[0] - p_plus)
        trials = params["trials"]
        if trials is not None:
            result["trials"] = trials
            result["mc_frequency_plus"] = frequency_plus_1d(
                cos_theta, density, trials, seed, workers
            )
        rows = [
            {"outcome": "+1", "probability": p_plus},
            {"outcome": "-1", "probability": p_minus},
        ]
        return result, rows
    x, partition = params["x"], _blocks(params)
    probs = transition_probabilities_nd(x, partition, density)
    rows = [
        {"block_index": k + 1, "probability": float(probs[k])}
        for k in range(partition.n_blocks)
    ]
    result = {
        "mode": "nd",
        "x": list(x.components),
        "blocks": [sorted(b) for b in partition.blocks],
        "density": density_doc,
        "probabilities": [float(p) for p in probs],
    }
    return result, rows


def _run_universal(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    x, partition, method = params["x"], _blocks(params), params["method"]
    sizes = {k: params[k] for k in ("density_samples", "point_samples") if k in params}
    rows = convergence_scan(
        x, params["cell_counts"], seed, method, partition=partition, **sizes
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
    if params["mode"] == "counterexample":
        bundle = counterexample_bundle(params["epsilon"])
        verdicts = classify(bundle)
        (joint,) = verdicts["joints"]
        joints = [joint["p_vw"], joint["p_uw"], joint["p_ucv"]]
        violated = not joint["satisfied"]
        result = {
            "mode": "counterexample",
            "epsilon": params["epsilon"],
            "joints": joints,
            "margin": joint["margin"],
            "classical_violation": violated,
            "bundle": bundle,
            "classical_ok": verdicts["classical_ok"],
            "qubit_ok": verdicts["qubit_ok"],
        }
        rows = [
            *({"quantity": f"J{i}", "value": j} for i, j in enumerate(joints, 1)),
            {"quantity": "margin", "value": joint["margin"]},
            {"quantity": "classical_violation", "value": float(violated)},
        ]
        return result, rows
    steps = [(step["direction"], step["sign"]) for step in params["steps"]]
    probability = sequential_joint(params["initial"], steps, params["density"])
    result = {
        "mode": "sequential",
        "probability": probability,
        "steps": [{"direction": list(d.coords), "sign": s} for d, s in steps],
    }
    return result, [{"quantity": "probability", "value": probability}]


def _run_classify(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    report = classify(params["bundle"])
    rows = []
    for i, j in enumerate(report["joints"]):
        rows.append({"entry": f"joint[{i}]", "ok": j["satisfied"], "metric": j["margin"]})
    for i, t in enumerate(report["transitions"]):
        rows.append({"entry": f"transition[{i}]", "ok": t["embeddable"], "metric": t["deficit"]})
    return report, rows


def _run_oracle(params: Mapping[str, Any], seed: int, workers: int) -> tuple[dict, list[dict]]:
    dims, states = params["dims"], params["states"]
    rows = []
    worst = 0.0
    for d_i, n in enumerate(dims):
        rng = block_rng(seed, d_i)
        dim_worst = 0.0
        chunk = _oracle_chunk(n)
        for start in range(0, states, chunk):
            # one state is n real parts, then n imaginary parts
            raw = rng.normal(size=(min(chunk, states - start), 2, n))
            amps = raw[:, 0] + 1j * raw[:, 1]
            amps /= np.linalg.norm(amps, axis=1, keepdims=True)
            dim_worst = max(dim_worst, float(correspondence_batch(amps).max()))
        rows.append({"dim": n, "states": states, "max_deviation": dim_worst})
        worst = max(worst, dim_worst)
    result = {
        "dims": dims,
        "states_per_dim": states,
        "tolerance": params["tolerance"],
        "max_deviation": worst,
        "ok": worst <= params["tolerance"],
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


def _refuse_constant(token: str) -> Any:
    raise SchemaError(f"config holds {token}, which is not a JSON number")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict, refusing a repeated key, of which json.loads
    would keep the last value and drop the others unseen."""
    obj: dict[str, Any] = {}
    for key, value in pairs:
        if key in obj:
            raise SchemaError(f"config repeats the key {brief(key)} in one object")
        obj[key] = value
    return obj


def _load_config(path: Path, forced_kind: str | None) -> tuple[dict, str, int, dict]:
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read config {path}: {exc}") from None
    try:
        config = json.loads(
            text, parse_constant=_refuse_constant, object_pairs_hook=_unique_keys
        )
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise SchemaError(f"config {path} is nested too deeply to parse") from None
    spec = {"kind": (_document, forced_kind), "seed": (_SEED, None), "params": (_document, {})}
    top = object_field(config, "config", spec)
    kind = top["kind"]
    if forced_kind is not None and kind != forced_kind:
        raise SchemaError(
            f"config kind {brief(kind)} does not match subcommand {forced_kind!r}"
        )
    # a list, not the dict: an array or object kind is unhashable
    if kind not in list(_RUNNERS):
        raise SchemaError(f"config kind {brief(kind)} must be one of {list(_RUNNERS)}")
    seed, env_seed = top["seed"], os.environ.get("TRM_SEED")
    if env_seed is not None:
        try:
            env_value = int(env_seed)
        except ValueError:
            raise SchemaError(f"TRM_SEED={brief(env_seed)} is not an integer") from None
        seed = _SEED(env_value, "TRM_SEED")
    elif seed is None:
        raise SchemaError("config is missing the mandatory seed")
    params = top["params"]
    if not isinstance(params, Mapping):
        raise SchemaError("config params must be an object")
    field, default = _MODES.get(kind, (None, None))
    mode = params.get(field, default) if field else None
    modes = [m for k, m in _PARAMS if k == kind]
    if mode not in modes:
        raise SchemaError(f"{kind} params.{field} must be one of {modes}, got {brief(mode)}")
    spec = _PARAMS[kind, mode]
    if field:
        spec = {field: (_document, mode), **spec}
    return config, kind, seed, object_field(params, f"{kind} params", spec)


def _render(payload: dict, rows: list[dict], fmt: str) -> str:
    """The output text; a non-finite number anywhere is a ValueError."""
    if fmt == "json":
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
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
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value} in a CSV row")
        return repr(value)
    return str(value)


def _keep_freed_memory() -> None:
    """Keep the sampling blocks' freed scratch in the C heap for reuse.

    Each block allocates its scratch arrays and frees them before the
    next: a 65536-trial block peaks at about 2.4 MB for utr, at any n, and
    3.0 MB for gtr 1d (tracemalloc).  glibc hands freed memory at the top
    of its heap back to the system once it exceeds the trim threshold, and
    whether a block's scratch ends up there depends on where small
    long-lived allocations happen to sit; when it does, every block faults
    its pages in anew, which made a one-worker 8e6-trial utr run twice as
    slow on a 2-CPU Linux host.  Fixing the mmap and trim thresholds at the
    ceilings of glibc's own adjustment (32 MB, and twice that) keeps the
    scratch for the next block.  Without glibc's mallopt, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD_MAX)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD_MAX)


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
            help="parallel workers for utr and gtr 1d trials, at least 1; no more threads "
            "than CPUs run (results do not depend on this)",
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")
    args = parser.parse_args(argv)
    if args.workers < 1:
        print(f"argument error: --workers must be at least 1, not {args.workers}", file=sys.stderr)
        return 2
    _keep_freed_memory()

    try:
        config, kind, seed, params = _load_config(args.config, forced[args.command])
        result, rows = _RUNNERS[kind](params, seed, args.workers)
        canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
        payload = {
            "kind": kind,
            "seed": seed,
            "config_sha256": hashlib.sha256(canonical).hexdigest(),
            "version": __version__,
            "result": result,
        }
        text = _render(payload, rows, args.format)
    except SchemaError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3

    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out, "w", newline="\n") as f:
                f.write(text)
        except OSError as exc:
            print(f"output error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    if kind == "oracle" and not result["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
