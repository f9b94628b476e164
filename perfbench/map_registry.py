"""``map_registry``: the netlist flow over the benchmark registry.

Closed loop, one caller.  Each pass builds a fresh ``AigMapper`` with
its defaults (batched, k=4, 16 cuts per node, kernel ``auto``, no
store) and maps the 56 registry circuits one after another, each from
BLIF text through ``parse_blif``, ``Aig.from_netlist`` and
``AigMapper.map``.  ``parity`` is left out: its single 131k-node
subject would take most of every pass, and its cost sits in the same
cut layers the other circuits exercise.

The BLIF is generated once at set-up.  The exact generators are fixed;
the synthetic stand-ins come from ``synthetic_circuit(..., seed=...)``
with a per-circuit seed derived from the workload seed, and seed 0
reproduces the registry as it is.  Every cover is checked against the
generator's ``OutputFunction`` tables and by ``MappingResult.verify``.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import List, Optional, Tuple

from common import (
    Outcome,
    SpeedRef,
    WorkloadConfig,
    geomean,
    peak_rss_mb,
    percentile,
    probe_setup_seconds,
)

LEFT_OUT = ("parity",)
TINY_CIRCUITS = ("b1", "cm138a", "rd53", "con1")
VERIFY_MAX_INPUTS = 21
SETUP_REPEATS = 5
MIN_PASSES = 2
OVERRUN = 1.2


def registry_blif(seed: int, tiny: bool):
    """``[(name, blif_text, outputs, fixed)]`` for the workload seed.

    ``outputs`` maps each output name to its ``(table, support)`` from
    the generator: the reference every cover is checked against.
    ``fixed`` marks the circuits that are the same for every seed.
    """
    from repro.benchcircuits import synthetic_circuit, write_blif
    from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS

    circuits = []
    for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS:
        if spec.name in LEFT_OUT or (tiny and spec.name not in TINY_CIRCUITS):
            continue
        if spec.exact or seed == 0:
            circuit = spec.builder()
        else:
            sub_seed = random.Random(f"{seed}:{spec.name}").getrandbits(32)
            # Same shape as the registry entry, new functions.  Every
            # registry stand-in whose support cap is not the default 11
            # has exactly that many inputs, so the default cap matches.
            circuit = synthetic_circuit(
                spec.name, spec.n_inputs, spec.n_outputs, seed=sub_seed
            )
        outputs = {o.name: (o.table, o.support) for o in circuit.outputs}
        circuits.append((spec.name, write_blif(circuit.to_netlist()), outputs, spec.exact))
    return circuits


def check_cover(result, outputs) -> int:
    """Number of faults found in one cover (0 when it is correct).

    Every chosen cell must implement its cut function under its binding
    transform; ``MappingResult.verify`` checks the cut functions against
    the subject AIG over each output's cone; the cover must drive the
    AIG's outputs; and each AIG output must equal the generator's table,
    compared over the true supports when the structural cone is wider.
    """
    if result is None:
        return len(outputs)
    aig = result.aig
    wrong = 0
    if result.output_literals != list(aig.outputs):
        wrong += 1
    for mapped in result.nodes.values():
        # A binding promises target == transform.apply(cell.function).
        binding = mapped.binding
        try:
            bound = binding.transform.apply(binding.cell.function)
        except ValueError:
            bound = None
        if bound is None or (bound.n, bound.bits) != (mapped.function.n, mapped.function.bits):
            wrong += 1
    try:
        if not result.verify(max_inputs=VERIFY_MAX_INPUTS):
            wrong += 1
    except ValueError:
        wrong += 1
    seen = set()
    for name, literal in aig.outputs:
        seen.add(name)
        if name not in outputs:
            wrong += 1
            continue
        want, want_support = outputs[name]
        got, leaves = aig.cone_function(literal, max_inputs=VERIFY_MAX_INPUTS)
        got_support = tuple(leaf - 1 for leaf in leaves)  # input i is node i + 1
        if got_support != want_support:
            got, keep = got.project_to_support()
            got_support = tuple(got_support[k] for k in keep)
            want, keep = want.project_to_support()
            want_support = tuple(want_support[k] for k in keep)
        if got_support != want_support or got.bits != want.bits:
            wrong += 1
    return wrong + len(set(outputs) - seen)


def fingerprint(result):
    """Everything a cover consists of, for comparing covers across passes."""
    if result is None:
        return None
    return (
        result.area,
        tuple(result.output_literals),
        tuple(
            (
                node,
                m.cut.leaves,
                m.binding.cell.name,
                m.binding.transform.perm,
                m.binding.transform.input_neg,
                m.binding.transform.output_neg,
                m.function.bits,
            )
            for node, m in sorted(result.nodes.items())
        ),
    )


def map_pass(circuits, ref: SpeedRef, tracer=None):
    """Map every circuit once with a fresh mapper.

    Returns ``(spans, results)``: each circuit's start and end time, and
    its cover, which the caller checks outside the timed region.
    """
    from repro.aig import Aig, AigMapper
    from repro.benchcircuits import parse_blif

    mapper = AigMapper()
    spans: List[Tuple[float, float]] = []
    results = []
    for name, blif, *_ in circuits:
        ref.tick()
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer.span("bench.map_circuit"):
                result = mapper.map(Aig.from_netlist(parse_blif(blif)))
        else:
            result = mapper.map(Aig.from_netlist(parse_blif(blif)))
        spans.append((t0, time.perf_counter()))
        results.append(result)
    ref.tick(force=True)
    return spans, results


def plant_fault(results) -> None:
    """Complement one output of the first cover: a wrong answer."""
    first = results[0]
    name, literal = first.output_literals[0]
    first.output_literals[0] = (name, literal ^ 1)


def run(cfg: WorkloadConfig) -> Outcome:
    from layers import MAP_LAYERS, Tracer

    circuits = registry_blif(cfg.seed, cfg.tiny)
    ref = SpeedRef()
    setup_times, setup_raw = probe_setup_seconds("map", 2 if cfg.tiny else SETUP_REPEATS)
    outcome = Outcome()
    tracer = Tracer(MAP_LAYERS) if cfg.trace else None
    per_circuit: List[List[float]] = [[] for _ in circuits]
    pass_seconds: List[float] = []
    pass_raw: List[float] = []
    traced_seconds: List[float] = []
    checked: List[Optional[tuple]] = [None] * len(circuits)
    nodes = 0
    area = 0.0
    start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced passes, so the two
        # can be compared for the tracing overhead.
        traced = tracer is not None and len(traced_seconds) < len(pass_seconds)
        if traced:
            tracer.install()
        try:
            spans, results = map_pass(circuits, ref, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if cfg.plant_fault:
            plant_fault(results)
        # A cover identical to one already checked is correct; any other
        # is checked in full.
        for k, ((_, _, outputs, _), result) in enumerate(zip(circuits, results)):
            outcome.attempted += 1
            fp = fingerprint(result)
            if fp is not None and fp == checked[k]:
                continue
            if check_cover(result, outputs):
                outcome.failed += 1
            elif checked[k] is None:
                checked[k] = fp
        area = sum(r.area for r in results if r is not None)
        nodes = sum(r.aig.num_ands() for r in results if r is not None)
        scaled = [(t1 - t0) * ref.scale(t0, t1) for t0, t1 in spans]
        if traced:
            traced_seconds.append(sum(scaled))
            tracer.end_cycle(ref.scale(spans[0][0], spans[-1][1]))
        else:
            pass_seconds.append(sum(scaled))
            pass_raw.append(sum(t1 - t0 for t0, t1 in spans))
            for bucket, t in zip(per_circuit, scaled):
                bucket.append(t)
        # Start another pass only if it would end close to the run length.
        elapsed = time.perf_counter() - start
        last = spans[-1][1] - spans[0][0]
        enough = len(pass_seconds) >= MIN_PASSES and (tracer is None or traced_seconds)
        if enough and elapsed + last > cfg.seconds * OVERRUN:
            break

    # Per-circuit medians over the passes, so a burst of machine noise in
    # one pass does not move the figures.
    circuit_s = [statistics.median(ts) for ts in per_circuit]
    circuit_ms = [t * 1e3 for t in circuit_s]
    map_s = sum(circuit_s)
    # The seeded stand-ins change size from seed to seed (their AND count
    # varies by about 30%), so the typical-circuit latency is taken over
    # the circuits that every seed shares; throughput is per AND node.
    fixed_ms = [ms for ms, c in zip(circuit_ms, circuits) if c[3]]
    setup_s = statistics.median(setup_times)
    rss = peak_rss_mb()
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (nodes / map_s, "1/s"),
        "latency_ms": (geomean(fixed_ms), "ms"),
    }
    outcome.note("setup_s", setup_s, "s", len(setup_times))
    outcome.note("setup_raw_s", statistics.median(setup_raw), "s", len(setup_raw))
    outcome.note("peak_rss_mb", rss, "MB", 1)
    outcome.note("fail_ratio", outcome.failed / outcome.attempted, "ratio", outcome.attempted)
    outcome.note("map_s", map_s, "s", len(pass_seconds))
    outcome.note("map_raw_s", statistics.median(pass_raw), "s", len(pass_raw))
    outcome.note("map_nodes_per_s", nodes / map_s, "1/s", len(pass_seconds))
    outcome.note("map_geomean_ms", geomean(circuit_ms), "ms", len(circuit_ms))
    outcome.note("map_fixed_geomean_ms", geomean(fixed_ms), "ms", len(fixed_ms))
    outcome.note("map_circuit_p90_ms", percentile(circuit_ms, 90), "ms", len(circuit_ms))
    outcome.note("map_area", area, "area", len(circuits))
    outcome.note("map_and_nodes", nodes, "count", len(circuits))
    if tracer is not None:
        tracer.dump(cfg.spans_path)
        outcome.layers = tracer.layer_metrics(statistics.median(traced_seconds) - map_s)
    return outcome
