"""The traced run: spans around calls into each layer's public functions.

Nothing in ``src/`` is instrumented for this.  :class:`Tracer` installs
wrappers at module or class attributes (where the caller looks the
function up), records one span per call (name, start, end, parent, run
id) in memory, and takes work counts from the values the calls return.
The spans are written out when the benchmark ends.

A span's self time is its duration minus the time its child spans
cover; calls on one thread nest, so the children never overlap.  The
benchmark's own root span around each operation (``bench.*``) has as
its self time the residual that no layer span covers.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from typing import Callable, Dict, List, Sequence, Tuple

# (module, attribute path, span name): where a layer is looked up by its
# callers.  A function imported by name into a caller's module is wrapped
# there, because that is the binding the caller uses.
ENGINE_LAYERS = (
    ("repro.engine.classifier", "ClassificationEngine.classify", "engine.classify"),
    ("repro.kernels", "coarse_prekeys", "kernels.coarse_prekeys"),
    ("repro.kernels", "influence_vectors", "kernels.influence_vectors"),
    ("repro.engine.classifier", "canonical_form", "core.canonical_form"),
)
MAP_LAYERS = ENGINE_LAYERS + (
    ("repro.benchcircuits", "parse_blif", "benchcircuits.parse_blif"),
    ("repro.aig.graph", "Aig.from_netlist", "aig.from_netlist"),
    ("repro.aig.mapper", "AigMapper.map", "aig.mapper.cover"),
    ("repro.aig.mapper", "enumerate_cuts", "aig.cuts.enumerate_cuts"),
    ("repro.aig.mapper", "catalog_cut_functions", "aig.cuts.catalog_cut_functions"),
    ("repro.engine.classifier", "ClassificationEngine.resolve_witness", "engine.resolve_witness"),
    ("repro.library.techmap", "CellLibrary.bind_with_key", "library.bind_with_key"),
    ("repro.library.techmap", "canonical_form", "core.canonical_form"),
)

TIMED_LAYERS = (
    "benchcircuits.parse_blif",
    "aig.from_netlist",
    "aig.cuts.enumerate_cuts",
    "aig.cuts.catalog_cut_functions",
    "aig.mapper.cover",
    "engine.classify",
    "engine.resolve_witness",
    "library.bind_with_key",
    "kernels.coarse_prekeys",
    "kernels.influence_vectors",
    "core.canonical_form",
)

SERVE_LAYERS = (
    ("serve.classify.p50_ms", "ms"),
    ("serve.match.p50_ms", "ms"),
    ("serve.batch_fill", "tables"),
    ("serve.engine_busy_ratio", "ratio"),
    ("serve.server_mean_ms", "ms"),
    ("store.flushes", "count"),
    ("serve.overloaded", "count"),
    ("serve.gen_late_ms_max", "ms"),
)

COUNTS = (
    ("aig.cuts.cuts_evaluated", "count"),
    ("aig.cuts.distinct_functions", "count"),
    ("aig.cuts.dedup_ratio", "ratio"),
    ("core.canonical_form.calls", "count"),
    ("engine.canonicalizations", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.membership_hit_ratio", "ratio"),
    ("engine.singleton_bucket_ratio", "ratio"),
)

TOTALS = (
    ("bench.traced.s", "s"),
    ("bench.residual.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
)


def layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    return (
        [(f"{name}.s", "s") for name in TIMED_LAYERS]
        + list(COUNTS)
        + list(SERVE_LAYERS)
        + list(TOTALS)
    )


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Tracer:
    """In-memory spans around the layer calls of one traced run."""

    def __init__(self, targets: Sequence[Tuple[str, str, str]]):
        self.targets = targets
        self.spans: List[Tuple[str, float, float, int, int]] = []
        self.self_time: Dict[str, float] = {}
        self.traced = 0.0
        self.counts: Dict[str, float] = {}
        self.cycles = 0
        self._cycle_self: Dict[str, float] = {}
        self._cycle_roots = 0.0
        self._stack: List[List] = []  # [name, start, child_seconds, index, parent]
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> List:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, len(self.spans), parent]
        self.spans.append(None)  # placeholder keeps span ids in start order
        self._stack.append(frame)
        return frame

    def _close(self, frame: List) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index, parent = frame
        duration = end - start
        self.spans[index] = (name, start, end, parent, self.cycles)
        self._cycle_self[name] = self._cycle_self.get(name, 0.0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self._cycle_roots += duration

    @contextlib.contextmanager
    def span(self, name: str):
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def end_cycle(self, scale: float) -> None:
        """Close one pass (map) or batch cycle (classify).

        ``scale`` takes the cycle's times to the reference speed (see
        ``common.SpeedRef``).
        """
        for name, seconds in self._cycle_self.items():
            self.self_time[name] = self.self_time.get(name, 0.0) + seconds * scale
        self.traced += self._cycle_roots * scale
        self._cycle_self = {}
        self._cycle_roots = 0.0
        self.cycles += 1

    # -- wrappers ----------------------------------------------------------

    def _count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + amount

    def _observe(self, name: str, result) -> None:
        """Work counts from a layer call's return value."""
        if name == "aig.cuts.catalog_cut_functions":
            self._count("cuts_evaluated", result.cut_functions_evaluated)
            self._count("distinct_functions", result.distinct_functions)
        elif name == "engine.classify":
            s = result.stats
            for field in (
                "canonicalizations",
                "cache_hits",
                "cache_misses",
                "membership_probes",
                "membership_hits",
                "buckets",
                "singleton_buckets",
            ):
                self._count(field, getattr(s, field))
        elif name == "core.canonical_form":
            self._count("canonical_form_calls", 1)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._observe(name, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, path, name in self.targets:
            owner, attr = _resolve(module, path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer self times and counts, per traced pass or cycle.

        ``bench.traced.s`` is the traced end-to-end time, the sum of the
        ``bench.*`` root spans; the layer self times plus
        ``bench.residual.s`` add up to it.  ``overhead_s`` is the traced
        minus the untraced end-to-end time of the same work.  Times are
        at the reference speed, like the end-to-end metrics.
        """
        cycles = max(1, self.cycles)
        c = {k: v / cycles for k, v in self.counts.items()}
        out: Dict[str, Tuple[float, str]] = {}
        for name in TIMED_LAYERS:
            out[f"{name}.s"] = (self.self_time.get(name, 0.0) / cycles, "s")
        traced = self.traced / cycles
        residual = sum(
            v for k, v in self.self_time.items() if k.startswith("bench.")
        ) / cycles

        def ratio(num: str, den: float) -> float:
            return c.get(num, 0.0) / den if den else 0.0

        evaluated = c.get("cuts_evaluated", 0.0)
        out.update(
            {
                "aig.cuts.cuts_evaluated": (evaluated, "count"),
                "aig.cuts.distinct_functions": (c.get("distinct_functions", 0.0), "count"),
                "aig.cuts.dedup_ratio": (
                    1.0 - ratio("distinct_functions", evaluated) if evaluated else 0.0,
                    "ratio",
                ),
                "core.canonical_form.calls": (c.get("canonical_form_calls", 0.0), "count"),
                "engine.canonicalizations": (c.get("canonicalizations", 0.0), "count"),
                "engine.cache_hit_ratio": (
                    ratio("cache_hits", c.get("cache_hits", 0.0) + c.get("cache_misses", 0.0)),
                    "ratio",
                ),
                "engine.membership_hit_ratio": (
                    ratio("membership_hits", c.get("membership_probes", 0.0)),
                    "ratio",
                ),
                "engine.singleton_bucket_ratio": (
                    ratio("singleton_buckets", c.get("buckets", 0.0)),
                    "ratio",
                ),
                "bench.traced.s": (traced, "s"),
                "bench.residual.s": (residual, "s"),
                "trace.overhead_s": (overhead_s, "s"),
                "trace.overhead_share": (overhead_s / (traced - overhead_s), "ratio"),
            }
        )
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one per span, in start order)."""
        with open(path, "w") as f:
            for span_id, span in enumerate(self.spans):
                if span is None:
                    continue  # still open: cannot happen after a clean run
                name, start, end, parent, run = span
                f.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "run": run,
                        }
                    )
                    + "\n"
                )
