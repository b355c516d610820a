"""Span tracing from outside the library.

A traced pass wraps the functions at each layer boundary of ``pavemat``: every
module namespace that holds a target function gets a wrapper that records a
span (name, start, end, parent, run id) around the call and keeps counts at
the same boundary. Nothing in ``src/pavemat`` changes; the wrappers are
removed again before the outputs are checked.

Spans stay in memory, in flat arrays, until the pass ends. A layer's time is
its self time: the span durations minus the part covered by child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter
from math import comb
from pathlib import Path
from typing import Any, Callable, Iterator

# Per-layer metric -> (unit, better). Times are self times in seconds.
LAYER_METRICS = {
    "partitions.walk_s": ("s", "lower"),
    "partitions.visited": ("count", "lower"),
    "decomposition.test_s": ("s", "lower"),
    "decomposition.kept": ("count", "higher"),
    "decomposition.keep_ratio": ("ratio", "higher"),
    "decomposition.merge_s": ("s", "lower"),
    "quasi.matroid_s": ("s", "lower"),
    "quasi.small_circuits_s": ("s", "lower"),
    "quasi.type3_s": ("s", "lower"),
    "quasi.type3_candidates": ("count", "lower"),
    "quasi.type3_hits": ("count", "higher"),
    "quasi.type3_hit_ratio": ("ratio", "higher"),
    "quasi.materialize_s": ("s", "lower"),
    "quasi.circuits": ("count", "higher"),
    "core.check_axioms_s": ("s", "lower"),
    "io.serialize_s": ("s", "lower"),
    "io.bytes": ("bytes", "lower"),
    "counting.enumerate_s": ("s", "lower"),
    "counting.formula_s": ("s", "lower"),
    "counting.vector_partitions": ("count", "lower"),
    "counting.egf_s": ("s", "lower"),
    "counting.series_s": ("s", "lower"),
    "families.build_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
}

# A span's self time feeds the metric "<span name>_s", except that the self
# time of decompose_grid/lines is the merge inlined in their loop today.
MERGE_SPANS = ("decomposition.decompose", "decomposition.merge")


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_ids = [run_id]
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.run = array("i")
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter[str] = Counter()
        self._materialized: dict[int, Any] = {}
        self._undo: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_index.get(name)
        if nid is None:
            nid = self._name_index[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.run.append(0)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- layer-specific wrappers ----------------------------------------------

    def _walk(self, fn: Callable) -> Callable:
        """iter_rgs: one span per partition produced, counted as visited."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            it = fn(*args, **kwargs)
            while True:
                idx = self._open("partitions.walk")
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(idx)
                self.counts["partitions.visited"] += 1
                yield item

        return wrapper

    def _test(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open("decomposition.test")
            try:
                kept = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if kept:
                self.counts["decomposition.kept"] += 1
            return kept

        return wrapper

    def _type3(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(rep, *args, **kwargs):
            idx = self._open("quasi.type3")
            try:
                hits = fn(rep, *args, **kwargs)
            finally:
                self._close(idx)
            self.counts["quasi.type3_candidates"] += comb(rep.d, rep.n + 1)
            self.counts["quasi.type3_hits"] += hits
            return hits

        return wrapper

    def _component_count(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            method = kwargs.get("method") or next(
                (a for a in args if isinstance(a, str)), "enumerate"
            )
            idx = self._open(f"counting.{method}")
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _vector_partitions(self, fn: Callable) -> Callable:
        """Counted only: a span per partition would cost more than the work."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs) -> Iterator:
            for parts in fn(*args, **kwargs):
                self.counts["counting.vector_partitions"] += 1
                yield parts

        return wrapper

    def _circuits(self, fn: Callable) -> Callable:
        """Matroid.circuits on quasi matroids; each matroid's circuits are
        counted on its first call, when they are materialised."""

        @functools.wraps(fn)
        def wrapper(matroid, *args, **kwargs):
            if matroid.origin != "quasi-rep":
                return fn(matroid, *args, **kwargs)
            idx = self._open("quasi.materialize")
            try:
                circuits = fn(matroid, *args, **kwargs)
            finally:
                self._close(idx)
            if id(matroid) not in self._materialized:
                # holding the matroid keeps its id from being reused
                self._materialized[id(matroid)] = matroid
                self.counts["quasi.circuits"] += len(circuits)
            return circuits

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        def span(name: str) -> Callable[[Callable], Callable]:
            return functools.partial(self._span, name)

        plan = (
            ("pavemat.partitions", "iter_rgs", self._walk),
            ("pavemat.partitions", "rgs_to_blocks", span("partitions.walk")),
            ("pavemat.decomposition", "is_grid_component_partition", self._test),
            ("pavemat.decomposition", "is_line_component_partition", self._test),
            ("pavemat.decomposition", "decompose_grid", span("decomposition.decompose")),
            ("pavemat.decomposition", "decompose_lines", span("decomposition.decompose")),
            ("pavemat.decomposition", "merged_rep", span("decomposition.merge")),
            ("pavemat.families", "grid_matroid", span("families.build")),
            ("pavemat.families", "line_matroid", span("families.build")),
            ("pavemat.quasi", "quasi_matroid", span("quasi.matroid")),
            ("pavemat.quasi", "small_circuits", span("quasi.small_circuits")),
            ("pavemat.quasi", "type3_count", self._type3),
            ("pavemat.core", "check_circuit_axioms", span("core.check_axioms")),
            ("pavemat.io", "decomposition_to_dict", span("io.serialize")),
            ("pavemat.io", "matroid_to_dict", span("io.serialize")),
            ("pavemat.cli", "_print_json", span("io.serialize")),
            ("pavemat.counting", "grid_component_count", self._component_count),
            ("pavemat.counting", "line_component_count", self._component_count),
            ("pavemat.counting", "vector_partitions", self._vector_partitions),
            ("pavemat.counting", "partition_count_series", span("counting.series")),
        )
        for module, attr, make in plan:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace_everywhere(original, make(original))
        matroid_cls = getattr(sys.modules.get("pavemat.core"), "Matroid", None)
        if matroid_cls is None or not hasattr(matroid_cls, "circuits"):
            self.missing.append("pavemat.core.Matroid.circuits")
        else:
            self._set(matroid_cls, "circuits", self._circuits(matroid_cls.circuits))

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        """Point every pavemat module name bound to `original` at `wrapper`,
        so calls made through `from x import f` are traced too."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "pavemat" or name.startswith("pavemat.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        self._materialized.clear()

    # -- results --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time in seconds per span name."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name[i]]
            out[name] = out.get(name, 0.0) + (self.end[i] - self.start[i] - child[i]) / 1e9
        return out

    def layer_metrics(self, stdout_bytes: int) -> dict[str, float]:
        """Every per-layer metric except the tracing overhead, which needs an
        untraced pass to compare with. A layer the pass never entered reads 0."""
        out: dict[str, float] = {
            name: 0 if unit in ("count", "bytes") else 0.0
            for name, (unit, _) in LAYER_METRICS.items()
            if name != "trace.overhead_s"
        }
        for span, seconds in self.self_times().items():
            out["decomposition.merge_s" if span in MERGE_SPANS else f"{span}_s"] += seconds
        for name, value in self.counts.items():
            out[name] = value
        visited = out["partitions.visited"]
        candidates = out["quasi.type3_candidates"]
        out["decomposition.keep_ratio"] = out["decomposition.kept"] / visited if visited else 0.0
        out["quasi.type3_hit_ratio"] = out["quasi.type3_hits"] / candidates if candidates else 0.0
        out["io.bytes"] = stdout_bytes
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: Path) -> None:
        """All spans as rows [run, name, parent, start_ns, end_ns]."""
        rows = zip(self.run, self.name, self.parent, self.start, self.end)
        with open(path, "w") as fh:
            json.dump({"run_ids": self.run_ids, "names": self.names, "spans": list(rows)}, fh)
