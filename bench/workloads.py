"""The benchmark's workloads: seeded trm configs and the checks on their output.

Sizes are fixed per workload; the workload seed only chooses each config's
`seed` and its interior state `x`.  See README.md for why each workload
exists.
"""

from __future__ import annotations

import math
import random
from typing import Any

import numpy as np

WORKLOADS = ("bulk_mc", "universal_mc", "exact_checks")

# 8 of the 32 slab cells of the four-outcome simplex break.
GTR_BREAKABLE = [1, 5, 9, 13, 17, 21, 25, 29]

EXACT_TOL = 1e-12

# Gauss-Legendre nodes and weights on [0, 1].
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)
_NODES, _WEIGHTS = (_NODES + 1.0) / 2.0, _WEIGHTS / 2.0


def _state(rng: random.Random, n: int) -> list[float]:
    """An interior state whose components are all at least 1/(2n)."""
    w = [rng.expovariate(1.0) for _ in range(n)]
    total = sum(w)
    return [0.5 / n + 0.5 * v / total for v in w]


def configs(workload: str, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """(name, config document) pairs of one pass, deterministic in the seed."""
    rng = random.Random(f"{workload}/{seed}")

    def config(kind: str, **params: Any) -> dict[str, Any]:
        return {"kind": kind, "seed": rng.getrandbits(64), "params": params}

    if workload == "bulk_mc":
        return [
            (
                "utr_n4",
                config(
                    "utr", x=_state(rng, 4), blocks=[[1, 2], [3], [4]], trials=8_000_000
                ),
            ),
            (
                "gtr_nd_n4",
                config(
                    "gtr",
                    mode="nd",
                    x=_state(rng, 4),
                    density={
                        "type": "cellular",
                        "n_outcomes": 4,
                        "n_cells": 32,
                        "breakable": GTR_BREAKABLE,
                    },
                    samples_per_cell=65_536,
                ),
            ),
        ]
    if workload == "universal_mc":
        return [
            (
                "universal_mc_n3",
                config(
                    "universal",
                    x=_state(rng, 3),
                    method="mc",
                    cell_counts=[9, 25],
                    density_samples=4000,
                    point_samples=64,
                ),
            )
        ]
    if workload == "exact_checks":
        return [
            ("oracle", config("oracle", dims=[2, 3, 4, 5], states=100)),
            (
                "universal_exact_n2",
                config("universal", x=_state(rng, 2), method="exact", cell_counts=[20, 22]),
            ),
            (
                "universal_exact_n3",
                config("universal", x=_state(rng, 3), method="exact", cell_counts=[4, 9, 16]),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def slab_cell_law(x: list[float], n_cells: int, cells: list[int]) -> np.ndarray:
    """(len(cells), n) exact fraction of each quantile-slab cell (1-based
    index) that lies in each outcome region of the state x.  Cells are
    quantile slabs for n >= 4 outcomes only (cells.sample_in_cells).

    A uniform break point λ lies in region i when i minimizes λ_j / x_j.
    Slab c holds the points whose λ_1 has CDF value p = 1 - (1-λ_1)^(n-1)
    in [(c-1)/N, c/N).  Given λ_1 = t, the rest is (1-t)·u with u uniform on
    the (n-2)-simplex, so λ is in region 1 with probability
    max(0, 1 - t(1-x_1)/((1-t)x_1))^(n-2), which is 0 from t = x_1 on, and
    in region i > 1 with probability x_i/(1-x_1) times the remainder (the
    argmin of u_j/x_j is independent of its value).  The cell fraction is
    the mean over p in the cell, by Gauss-Legendre up to the kink at t = x_1.
    """
    n = len(x)
    x1 = x[0]
    p_kink = 1.0 - (1.0 - x1) ** (n - 1)
    rest = np.array(x[1:]) / (1.0 - x1)
    out = np.zeros((len(cells), n))
    for row, c in enumerate(cells):
        lo, hi = (c - 1) / n_cells, c / n_cells
        top = min(hi, p_kink)
        region1 = 0.0
        if top > lo:
            p = lo + (top - lo) * _NODES
            t = 1.0 - (1.0 - p) ** (1.0 / (n - 1))
            g = np.clip(1.0 - t * (1.0 - x1) / ((1.0 - t) * x1), 0.0, None) ** (n - 2)
            region1 = float(_WEIGHTS @ g) * (top - lo) / (hi - lo)
        out[row, 0] = region1
        out[row, 1:] = (1.0 - region1) * rest
    return out


def check(config: dict[str, Any], doc: Any) -> list[str]:
    """Problems with one parsed CLI output for `config`; empty when correct."""
    if not isinstance(doc, dict) or not isinstance(doc.get("result"), dict):
        return ["output is not a payload object with a result"]
    problems = []
    if doc.get("kind") != config["kind"] or doc.get("seed") != config["seed"]:
        problems.append("output kind or seed does not match the config")
    result = doc["result"]
    kind, params = config["kind"], config["params"]
    if kind == "utr":
        if result.get("within_four_sigma") is not True:
            problems.append("utr frequencies are not within four sigma")
        problems.extend(_check_utr(params, result))
    if kind == "oracle" and result.get("ok") is not True:
        problems.append("oracle comparison failed")
    if kind == "gtr":
        problems.extend(_check_gtr_nd(params, result))
    if kind == "universal":
        rows = result.get("scan", [])
        if len(rows) != len(params["cell_counts"]) * len(params["x"]):
            problems.append("universal scan has the wrong number of rows")
        for row in rows:
            limit = EXACT_TOL if params["method"] == "exact" else 4.0 * row["stderr"]
            if not abs(row["deviation"]) <= limit:
                problems.append(
                    f"universal n_c={row['n_c']} outcome {row['outcome_index']}: "
                    f"|deviation| {abs(row['deviation'])} above {limit}"
                )
    return problems


def _block_law(x: list[float], blocks: list[list[int]]) -> list[float] | None:
    """Block sums of x, or None unless blocks partition 1..len(x)."""
    if sorted(i for b in blocks for i in b) != list(range(1, len(x) + 1)):
        return None
    return [math.fsum(x[i - 1] for i in b) for b in blocks]


def _check_utr(params: dict[str, Any], result: dict[str, Any]) -> list[str]:
    """utr counts against the block sums of the configured state, at 4σ."""
    trials = params["trials"]
    blocks = result.get("blocks", [])
    law = _block_law(params["x"], blocks)
    if law is None or sorted(blocks) != sorted(sorted(b) for b in params["blocks"]):
        return ["utr blocks do not match the configured partition"]
    counts = result.get("counts", [])
    if len(counts) != len(law) or sum(counts) != trials:
        return [f"utr counts {counts} do not add up to {trials} trials"]
    problems = []
    for block, count, p in zip(blocks, counts, law):
        sigma = math.sqrt(p * (1.0 - p) / trials)
        if not abs(count / trials - p) <= 4.0 * sigma:
            problems.append(f"utr block {block}: frequency {count / trials} is not "
                            f"within 4σ of the block sum {p}")
    return problems


def _check_gtr_nd(params: dict[str, Any], result: dict[str, Any]) -> list[str]:
    """gtr nd block probabilities against the exact slab-cell law, at 4σ of
    the stratified estimate that law implies."""
    x, density = params["x"], params["density"]
    blocks = result.get("blocks", [])
    if _block_law(x, blocks) is None:
        return ["gtr blocks do not partition the outcomes"]
    frac = slab_cell_law(x, density["n_cells"], sorted(density["breakable"]))
    frac = np.stack([frac[:, [i - 1 for i in b]].sum(axis=1) for b in blocks], axis=1)
    exact = frac.mean(axis=0)
    sigma = np.sqrt((frac * (1.0 - frac)).sum(axis=0) / params["samples_per_cell"]) / len(frac)
    probs = result.get("probabilities", [])
    if len(probs) != len(blocks):
        return ["gtr has the wrong number of block probabilities"]
    return [
        f"gtr block {b}: probability {p} is not within 4σ of the exact {e}"
        for b, p, e, s in zip(blocks, probs, exact, sigma)
        if not abs(p - e) <= 4.0 * s + EXACT_TOL
    ]
