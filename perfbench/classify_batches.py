"""``classify_repeat`` and ``classify_unique``: batches through the engine.

Closed loop, one caller; every batch runs on a fresh
``ClassificationEngine`` with ``workers=0``, so no batch inherits
another's cache.

* ``classify_repeat`` — ``make_repeated_batch`` batches (pool 64) at
  n=5 (B=4096) and n=8 (B=2048): bucketing, membership probes and the
  cache do the work, and ``canonical_form`` runs about once per class.
* ``classify_unique`` — ``make_random_batch`` batches with no repeats
  at n=5 (B=4096), n=6 (B=2048) and n=7 (B=1024): ``canonical_form``
  does almost all the work and bucketing is pure overhead.

A change that helps one of the two and hurts the other shows up here.
Checks, outside the timed region: every member's witness transform
(``NpnTransform.apply``) reaches its class key; tables the generator
derived from one pool function share a class; and, on sampled members,
a random transform of a table lands in the table's class.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Dict, List, Tuple

from common import (
    Outcome,
    SpeedRef,
    WorkloadConfig,
    geomean,
    peak_rss_mb,
    probe_setup_seconds,
)

SCHEDULES = {
    "classify_repeat": (("repeat", 5, 4096), ("repeat", 8, 2048)),
    "classify_unique": (("unique", 5, 4096), ("unique", 6, 2048), ("unique", 7, 1024)),
}
POOL_SIZE = 64
TINY_DIVISOR = 16
METAMORPHIC_SAMPLES = 8
SETUP_REPEATS = 5


def repeated_batch(rng: random.Random, n: int, size: int):
    """``make_repeated_batch`` plus the pool index of every table.

    The provenance is recovered by replaying the generator's documented
    draw order on a copy of its random state; each replayed table must
    equal the generated one, so a drift stops the benchmark.
    """
    from repro.boolfunc.transform import NpnTransform
    from repro.testing.workloads import make_pool, make_repeated_batch

    pool = make_pool(rng, n, POOL_SIZE)
    replay = random.Random()
    replay.setstate(rng.getstate())
    batch = make_repeated_batch(size, rng, n, pool=pool)
    origin: List[int] = []
    for table in batch:
        idx = replay.randrange(len(pool))
        want = pool[idx]
        if replay.random() < 0.5:
            want = NpnTransform.random(n, replay).apply(want)
        if want.bits != table.bits:
            raise RuntimeError("repeated-batch provenance replay drifted from the generator")
        origin.append(idx)
    return batch, origin


def make_batch(kind: str, rng: random.Random, n: int, size: int):
    from repro.testing.workloads import make_random_batch

    if kind == "repeat":
        return repeated_batch(rng, n, size)
    return make_random_batch(size, rng, n), None


def classify_once(batch, ref: SpeedRef, tracer=None):
    """Classify ``batch`` on a fresh engine; return its scaled time too.

    The tables are rebuilt first, so no per-table cache filled by an
    earlier run of the same batch carries over.
    """
    from repro.boolfunc.truthtable import TruthTable
    from repro.engine import ClassificationEngine, EngineOptions

    batch = [TruthTable(f.n, f.bits) for f in batch]
    ref.tick(force=True)
    t0 = time.perf_counter()
    if tracer is not None:
        with tracer.span("bench.classify_batch"):
            engine = ClassificationEngine(EngineOptions(workers=0))
            result = engine.classify(batch)
    else:
        engine = ClassificationEngine(EngineOptions(workers=0))
        result = engine.classify(batch)
    t1 = time.perf_counter()
    ref.tick(force=True)
    return (t1 - t0) * ref.scale(t0, t1), t1 - t0, engine, result


def plant_fault(result) -> None:
    """Move one member into a class key that is not its own."""
    from repro.engine import ClassKey

    key = min(result.members)
    idx = result.members[key].pop(0)
    if not result.members[key]:
        del result.members[key]
    result.members[ClassKey(key.n, key.key ^ 1, key.quarantined)] = [idx]


def check_batch(batch, origin, engine, result, rng: random.Random) -> int:
    """Number of wrongly classified tables in one batch."""
    from repro.boolfunc.transform import NpnTransform
    from repro.engine import ClassificationEngine, EngineOptions

    key_of: Dict[int, Tuple] = {}
    wrong = set()
    for key, idxs in result.members.items():
        for i in idxs:
            if i in key_of:
                wrong.add(i)  # in two classes
            key_of[i] = key
            if key.quarantined:
                continue
            f = batch[i]
            try:
                witness = engine.resolve_witness(f, key.key)
            except ValueError:
                wrong.add(i)
                continue
            if witness.apply(f).bits != key.key:
                wrong.add(i)
    wrong.update(i for i in range(len(batch)) if i not in key_of)
    if origin is not None:
        first: Dict[int, Tuple] = {}
        for i, o in enumerate(origin):
            if i in key_of and first.setdefault(o, key_of[i]) != key_of[i]:
                wrong.add(i)
    # Metamorphic: a random transform of a table must land in its class.
    sample = rng.sample(range(len(batch)), min(METAMORPHIC_SAMPLES, len(batch)))
    moved = [NpnTransform.random(batch[i].n, rng).apply(batch[i]) for i in sample]
    check = ClassificationEngine(EngineOptions(workers=0)).classify(moved)
    for key, idxs in check.members.items():
        for j in idxs:
            i = sample[j]
            if key_of.get(i) is not None and key_of[i].key != key.key:
                wrong.add(i)
    return len(wrong)


def run(cfg: WorkloadConfig, workload: str) -> Outcome:
    from layers import ENGINE_LAYERS, Tracer

    schedule = SCHEDULES[workload]
    ref = SpeedRef()
    setup_times, setup_raw = probe_setup_seconds("classify", 2 if cfg.tiny else SETUP_REPEATS)
    rng = random.Random(cfg.seed)
    check_rng = random.Random(cfg.seed ^ 0xC0FFEE)
    tracer = Tracer(ENGINE_LAYERS) if cfg.trace else None
    outcome = Outcome()
    per_n: Dict[int, List[float]] = {}  # n -> scaled seconds per batch
    functions = 0
    busy_raw = 0.0
    cycle_seconds: Dict[bool, List[float]] = {False: [], True: []}
    deadline = time.perf_counter() + cfg.seconds
    cycles = 0
    while cycles < (2 if tracer else 1) or time.perf_counter() < deadline:
        # A traced run alternates untraced and traced cycles of fresh
        # batches, so the two can be compared for the tracing overhead.
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.install()
        cycle_scale: List[float] = []
        try:
            for kind, n, size in schedule:
                if cfg.tiny:
                    size //= TINY_DIVISOR
                batch, origin = make_batch(kind, rng, n, size)
                seconds, raw, engine, result = classify_once(
                    batch, ref, tracer if traced else None
                )
                if cfg.plant_fault and cycles == 0:
                    plant_fault(result)
                outcome.attempted += len(batch)
                outcome.failed += check_batch(batch, origin, engine, result, check_rng)
                cycle_scale.append(seconds / raw)
                cycle_seconds[traced].append(seconds)
                if not traced:
                    functions += len(batch)
                    busy_raw += raw
                    per_n.setdefault(n, []).append(seconds)
        finally:
            if traced:
                tracer.uninstall()
        cycles += 1
        if traced:
            tracer.end_cycle(statistics.fmean(cycle_scale))

    # Medians per batch shape, so a burst of machine noise in a few
    # batches does not move the figures.
    sizes = {n: size // (TINY_DIVISOR if cfg.tiny else 1) for _, n, size in schedule}
    median_s = {n: statistics.median(ts) for n, ts in per_n.items()}
    fps = sum(sizes.values()) / sum(median_s.values())
    batch_ms = geomean([t * 1e3 for t in median_s.values()])
    batches = sum(len(ts) for ts in per_n.values())
    setup_s = statistics.median(setup_times)
    rss = peak_rss_mb()
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (fps, "1/s"),
        "latency_ms": (batch_ms, "ms"),
    }
    outcome.note("setup_s", setup_s, "s", len(setup_times))
    outcome.note("setup_raw_s", statistics.median(setup_raw), "s", len(setup_raw))
    outcome.note("peak_rss_mb", rss, "MB", 1)
    outcome.note("fail_ratio", outcome.failed / outcome.attempted, "ratio", outcome.attempted)
    outcome.note("classify_fps", fps, "1/s", batches)
    outcome.note("classify_raw_fps", functions / busy_raw, "1/s", batches)
    outcome.note("classify_batch_geomean_ms", batch_ms, "ms", batches)
    for n, ts in sorted(per_n.items()):
        outcome.note(f"classify_fps.n{n}", sizes[n] / median_s[n], "1/s", len(ts))
    if tracer is not None:
        tracer.dump(cfg.spans_path)
        per_cycle = {k: sum(v) / len(v) * len(schedule) for k, v in cycle_seconds.items()}
        outcome.layers = tracer.layer_metrics(per_cycle[True] - per_cycle[False])
    return outcome
