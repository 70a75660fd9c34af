"""Outside-in span tracer for the trm package.

The tracer times calls into the public functions of trm's modules without
editing them: `install` replaces every binding of each target function, in
every loaded `trm.*` module namespace, with a timing wrapper (so aliases
such as `from .utr import collapse as utr_collapse` are caught), and times
dataclass construction through `__post_init__`.  `uninstall` puts every
original back.  Spans are kept in memory as tuples and written out once,
when the run ends.

A span is (id, parent id, name, thread, start, end, rows, ties).  Each
thread keeps its own stack of open spans, so a span's parent is the
innermost open span of the same thread.  Blocks that `run_sharded` hands to
worker threads are linked to their `run_sharded` span explicitly.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

_perf = time.perf_counter

Counter = Callable[[tuple, dict, Any], tuple[int, int]]


def _result_rows(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return len(result), 0


def _region_rows(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    indices, ties = result
    return len(indices), int(ties.sum())


def _density_rows(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    return int(kwargs["density_samples"] if "density_samples" in kwargs else args[2]), 0


def _workers(args: tuple, kwargs: dict, result: Any) -> tuple[int, int]:
    """run_sharded's `workers` argument, kept in the span's rows field."""
    return int(kwargs.get("workers", args[3] if len(args) > 3 else 1)), 0


# (module, attribute path, span name, counter).  Functions are found by
# their defining module; every other binding of the same object is found by
# identity when the tracer is installed.
TARGETS: tuple[tuple[str, str, str, Counter | None], ...] = (
    ("trm.cli", "main", "cli", None),
    ("trm.simplex", "sample_uniform_batch", "simplex.sample_uniform_batch", _result_rows),
    ("trm.simplex", "regions_of_batch", "simplex.regions_of_batch", _region_rows),
    ("trm.simplex", "BarycentricVector.__post_init__", "simplex.objects", None),
    ("trm.simplex", "OutcomePartition.__post_init__", "simplex.objects", None),
    ("trm.utr", "run_batch", "utr.run_batch", None),
    ("trm.utr", "outcome_probabilities", "utr.outcome_probabilities", None),
    ("trm.utr", "collapse", "utr.collapse", None),
    ("trm.cells", "sample_in_cells", "cells.sample_in_cells", _result_rows),
    ("trm.cells", "cell_fraction_in_regions", "cells.cell_fraction_in_regions", None),
    ("trm.gtr", "transition_probabilities_nd", "gtr.transition_probabilities_nd", None),
    ("trm.universal", "mc_batch", "universal.mc_batch", _density_rows),
    (
        "trm.universal",
        "universal_probability_exact",
        "universal.universal_probability_exact",
        None,
    ),
    ("trm.hilbert", "born_probabilities", "hilbert.born_probabilities", None),
    ("trm.hilbert", "collapse", "hilbert.collapse", None),
    ("trm.hilbert", "HilbertState.__post_init__", "hilbert.objects", None),
    ("trm.hilbert", "HilbertObservable.__post_init__", "hilbert.objects", None),
    ("trm.shards", "run_sharded", "shards.run_sharded", _workers),
)

SHARDED = "shards.run_sharded"
BLOCK = "shards.block"


class Tracer:
    """Collects spans from wrapped trm functions between install and uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn: Callable, name: str, count: Counter | None) -> Callable:
        name_id = self._name_id(name)
        sharded = name == SHARDED
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else -1
            if sharded:
                if "block_fn" in kwargs:
                    kwargs["block_fn"] = tracer._block(kwargs["block_fn"], sid)
                else:
                    args = args[:2] + (tracer._block(args[2], sid),) + args[3:]
            stack.append(sid)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
            rows, ties = count(args, kwargs, result) if count is not None else (0, 0)
            tracer.spans.append((sid, parent, name_id, threading.get_ident(), t0, t1, rows, ties))
            return result

        return traced

    def _block(self, block_fn: Callable, parent: int) -> Callable:
        """Wrap one run_sharded block function; its spans may run on worker
        threads, so the parent is the run_sharded span, not the thread stack."""
        name_id = self._name_id(BLOCK)
        tracer = self

        def block(rng: Any, m: int) -> Any:
            stack = tracer._stack()
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = _perf()
            try:
                return block_fn(rng, m)
            finally:
                t1 = _perf()
                stack.pop()
                tracer.spans.append((sid, parent, name_id, threading.get_ident(), t0, t1, m, 0))

        return block

    def install(self) -> None:
        """Bind wrappers in place of every target, by identity, across all
        loaded trm modules.  Import trm (and trm.cli) before calling."""
        modules = [
            m for k, m in sorted(sys.modules.items()) if k == "trm" or k.startswith("trm.")
        ]
        for modname, path, name, count in TARGETS:
            owner: Any = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, count)
            if outer:
                self._bind(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, original, wrapper)

    def _bind(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original binding back, last bound first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(doc: dict) -> dict[str, dict[str, float]]:
    """Per span name: calls, self_s, total_s, max_s, rows, ties, worker_s.

    A span's self time is its duration minus the part of its interval that
    its child spans cover; children on other threads may overlap each other,
    so the covered part is the union of the child intervals.  `worker_s` sums
    each run_sharded span's duration times its `workers` argument (held in
    the span's rows field), the capacity that parallel efficiency is
    measured against; it is 0 for every other span.
    """
    names = doc["names"]
    spans = doc["spans"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    sharded_id = names.index(SHARDED) if SHARDED in names else -1
    for _sid, parent, _name_id, _tid, t0, t1, _rows, _ties in spans:
        children[parent].append((t0, t1))
    out: dict[str, dict[str, float]] = {}
    for sid, _parent, name_id, _tid, t0, t1, rows, ties in spans:
        agg = out.setdefault(
            names[name_id],
            {"calls": 0, "self_s": 0.0, "total_s": 0.0, "max_s": 0.0, "rows": 0, "ties": 0, "worker_s": 0.0},
        )
        dur = t1 - t0
        agg["calls"] += 1
        agg["self_s"] += dur - _covered(children.get(sid, []), t0, t1)
        agg["total_s"] += dur
        agg["max_s"] = max(agg["max_s"], dur)
        agg["rows"] += rows
        agg["ties"] += ties
        if name_id == sharded_id:
            agg["worker_s"] += dur * rows
    return out
