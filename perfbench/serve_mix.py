"""``serve_mix``: the matching daemon under an open-loop NDJSON mix.

The daemon is started the way users start it (``python -m repro.cli
serve --port 0 --store DIR``, default batching) and one asyncio client
thread pipelines requests over two persistent connections.  Traffic is
drawn from :func:`repro.testing.workloads.make_traffic_mix` (80% hot,
n=5, pool 64): 75% ``classify`` requests and 25% ``match`` requests
that pair two mix tables whose verdict the generator knows.

Phases: an untimed warm-up, then the fixed rates ``light`` and
``heavy``, then a ladder of rates ``LIGHT_RPS * STEP**k`` (``light`` is
step 0, ``heavy`` step 6) walked away from ``heavy`` until the verdict
flips: upward while steps meet the latency limit (p99 at most
``LATENCY_LIMIT_MS``, no failure, no backlog left at the end of the
phase), downward while they miss it.  Every open-loop phase has
``PHASE_SAMPLES`` requests, so its p99 has ten samples beyond it, and
each request is timed from when it was due, not from when it was sent,
so a stalled generator shows as latency; the largest send lateness is
reported.  Last, closed-loop ``capacity`` slices keep
``CAPACITY_DEPTH`` requests queued per connection; the median slice
rate is the workload's throughput.

The figures under load are wall time.  The daemon runs in another
process, on whichever CPU it gets, and no calibration tried tracked its
speed: one in the client between phases, one run on every CPU in turn,
and one on the daemon's CPU with the daemon pinned (which itself
doubled the light-rate latency) all left the spread as wide or wider.
Set-up is timed like the other workloads' (``common.setup_seconds``),
on one pinned CPU between calibrations.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from common import OUT_DIR, Outcome, WorkloadConfig, percentile, setup_seconds, spawn_python

LIGHT_RPS = 150.0
HEAVY_RPS = 350.0
HEAVY_STEP = 6
STEP = (HEAVY_RPS / LIGHT_RPS) ** (1.0 / HEAVY_STEP)  # ~15% per ladder step
LATENCY_LIMIT_MS = 50.0
PHASE_SAMPLES = 1000
WARMUP_REQUESTS = 300
MATCH_SHARE = 0.25
CONNECTIONS = 2
MIX_TABLES = 4096
SETUP_REPEATS = 5
CAPACITY_SLICES = 8
CAPACITY_SLICE_S = 0.5
CAPACITY_DEPTH = 4
CAPACITY_MAX_REQUESTS = 8000
REPLY_TIMEOUT_S = 10.0


@dataclass
class Request:
    rid: int
    line: bytes
    kind: str  # "classify" | "match"
    expect: Tuple  # classify: (n, key, quarantined); match: (verdict, key_a, key_b)


@dataclass
class PhaseResult:
    name: str
    rate: float
    latencies_ms: List[float] = field(default_factory=list)
    by_op_ms: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    late_ms_max: float = 0.0
    last_reply: float = 0.0
    drain_lag_ms: float = 0.0
    seconds: float = 0.0
    start: float = 0.0
    end: float = 0.0
    stats_delta: Dict[str, float] = field(default_factory=dict)
    stats_call_seconds: float = 0.0

    @property
    def p50(self) -> float:
        return percentile(self.latencies_ms, 50)

    @property
    def p99(self) -> float:
        return percentile(self.latencies_ms, 99)

    @property
    def sustained(self) -> bool:
        """Met the limit: p99 within it, nothing failed, no backlog left."""
        return (
            self.failed == 0
            and self.p99 <= LATENCY_LIMIT_MS
            and self.drain_lag_ms <= LATENCY_LIMIT_MS
        )


# ----------------------------------------------------------------------
# Inputs and references
# ----------------------------------------------------------------------


def traced_mix(seed: int, size: int):
    """``make_traffic_mix`` plus, per table, the pool index it came from.

    The provenance is recovered by replaying the generator's documented
    draw order on a copy of its random state; every replayed table is
    compared with the generated one, so a drift between the two stops
    the benchmark instead of yielding a wrong reference.
    """
    from repro.boolfunc.transform import NpnTransform
    from repro.boolfunc.truthtable import TruthTable
    from repro.testing.workloads import make_pool, make_traffic_mix

    rng = random.Random(seed)
    pool = make_pool(rng)
    state = rng.getstate()
    mix = make_traffic_mix(size, rng, pool=pool)
    replay = random.Random()
    replay.setstate(state)
    origin: List[Optional[int]] = []
    for tier, table in mix:
        if replay.random() < 0.8:
            idx = replay.randrange(len(pool))
            want = pool[idx]
            if replay.random() < 0.5:
                want = NpnTransform.random(want.n, replay).apply(want)
            origin.append(idx)
        else:
            want = TruthTable.random(table.n, replay)
            origin.append(None)
        if want.bits != table.bits or tier != ("hot" if origin[-1] is not None else "cold"):
            raise RuntimeError("traffic-mix provenance replay drifted from the generator")
    return [table for _, table in mix], origin


def reference_keys(tables) -> Dict[Tuple[int, int], Tuple]:
    """Class keys from one in-process engine run at set-up."""
    from repro.engine import ClassificationEngine, EngineOptions

    result = ClassificationEngine(EngineOptions(workers=0)).classify(tables)
    keys: Dict[Tuple[int, int], Tuple] = {}
    for key, idxs in result.members.items():
        for i in idxs:
            keys[(tables[i].n, tables[i].bits)] = (key.n, key.key, bool(key.quarantined))
    return keys


def build_requests(seed: int, count: int, tables, origin, keys) -> List[Request]:
    """A deterministic request stream with known answers.

    ``match`` pairs two hot tables, half of them from one pool function,
    so the generator knows the verdict:
    tables from one pool function are equivalent; tables from two pool
    functions whose set-up keys differ are not (a pair of pool functions
    that share a class is skipped, since its truth is not known).
    """
    rng = random.Random(seed ^ 0x5EED)
    by_origin: Dict[int, List[int]] = {}
    for i, o in enumerate(origin):
        if o is not None:
            by_origin.setdefault(o, []).append(i)
    hot = [i for i, o in enumerate(origin) if o is not None]
    requests: List[Request] = []
    while len(requests) < count:
        rid = len(requests)
        if rng.random() < MATCH_SHARE:
            a = rng.choice(hot)
            # Half the pairs share a pool function, so both verdicts occur.
            b = rng.choice(by_origin[origin[a]] if rng.random() < 0.5 else hot)
            fa, fb = tables[a], tables[b]
            ka, kb = keys[(fa.n, fa.bits)], keys[(fb.n, fb.bits)]
            if origin[a] == origin[b]:
                verdict = True
            elif ka != kb:
                verdict = False
            else:
                continue  # two pool functions in one class: truth unknown
            req = {
                "id": rid,
                "op": "match",
                "a": {"n": fa.n, "bits": f"0x{fa.bits:x}"},
                "b": {"n": fb.n, "bits": f"0x{fb.bits:x}"},
            }
            expect: Tuple = (verdict, ka, kb)
        else:
            f = tables[rng.randrange(len(tables))]
            req = {"id": rid, "op": "classify", "n": f.n, "bits": f"0x{f.bits:x}"}
            expect = keys[(f.n, f.bits)]
        line = (json.dumps(req, separators=(",", ":")) + "\n").encode()
        requests.append(Request(rid, line, req["op"], expect))
    return requests


def reply_ok(req: Request, reply: dict) -> bool:
    """Does one server reply carry the reference answer?"""
    if not reply.get("ok"):
        return False
    result = reply.get("result", {})

    def key_of(payload) -> Tuple:
        return (payload["n"], int(payload["class"], 16), bool(payload["quarantined"]))

    try:
        if req.kind == "classify":
            return key_of(result) == req.expect
        verdict, ka, kb = req.expect
        return (
            result["equivalent"] is verdict
            and key_of(result["a_class"]) == ka
            and key_of(result["b_class"]) == kb
        )
    except (KeyError, TypeError, ValueError):
        return False


# ----------------------------------------------------------------------
# Daemon lifecycle
# ----------------------------------------------------------------------


class Daemon:
    """One ``serve`` process with a fresh store directory."""

    def __init__(self, store_dir: str):
        self.store_dir = store_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        self.t_spawn = time.perf_counter()
        self.proc = spawn_python(["-m", "repro.cli", "serve", "--port", "0", "--store", store_dir])
        self.port = self._read_port()

    def _read_port(self) -> int:
        line = self.proc.stdout.readline()
        marker = "listening on "
        if marker not in line:
            self.stop()
            raise RuntimeError(f"daemon did not start: {line!r}")
        return int(line.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])

    def request(self, payload: dict) -> dict:
        """One blocking request on a short-lived connection."""
        import socket

        with socket.create_connection(("127.0.0.1", self.port), timeout=REPLY_TIMEOUT_S) as s:
            s.sendall((json.dumps(payload) + "\n").encode())
            with s.makefile("rb") as f:
                return json.loads(f.readline())

    def ready_seconds(self) -> float:
        """Spawn until the first ``ping`` succeeds."""
        reply = self.request({"op": "ping"})
        if not reply.get("ok"):
            raise RuntimeError(f"ping failed: {reply}")
        return time.perf_counter() - self.t_spawn

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        shutil.rmtree(self.store_dir, ignore_errors=True)


def stats_counters(daemon: Daemon) -> Dict[str, float]:
    """The daemon's public ``stats`` op, flattened to the numbers used."""
    stats = daemon.request({"op": "stats"})["result"]
    counters = stats["counters"]
    out = {
        "batches": counters.get("serve.batcher.batches", 0),
        "tables": counters.get("serve.batcher.tables", 0),
        "classify_seconds": counters.get("serve.batcher.classify_seconds", 0.0),
        "overloaded": sum(v for k, v in counters.items() if "overloaded" in k),
        "store_flushes": stats.get("store", {}).get("flushes", 0),
        "served": 0,
        "served_seconds": 0.0,
    }
    for op in ("classify", "match"):
        lat = stats["latency"].get(op)
        if lat:
            out["served"] += lat["lifetime_count"]
            out["served_seconds"] += lat["lifetime_count"] * lat["lifetime_mean_ms"] / 1e3
    return out


# ----------------------------------------------------------------------
# Open-loop client
# ----------------------------------------------------------------------


class Client:
    """Pipelines request lines over persistent connections (one thread).

    Open-loop phases send on a fixed schedule whatever the replies do;
    the closed-loop capacity phase keeps ``depth`` requests queued per
    connection and sends the next one on a connection as soon as a
    reply comes back on it.
    """

    def __init__(self, port: int, plant_fault: bool):
        self.port = port
        self.plant_fault = plant_fault
        self.writers: List[asyncio.StreamWriter] = []
        self.readers: List[asyncio.Task] = []
        self.inflight: Dict[int, Tuple[float, Request]] = {}
        self.phase: Optional[PhaseResult] = None
        self.done = asyncio.Event()
        self.refill: Optional[Tuple[List[Request], float]] = None
        self.refill_at = 0

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.writers.append(writer)
            self.readers.append(asyncio.create_task(self._read(reader, writer)))

    async def close(self) -> None:
        for writer in self.writers:
            writer.close()
        for task in self.readers:
            task.cancel()
        for task in self.readers:
            try:
                await task
            except (asyncio.CancelledError, ConnectionError):
                pass
        for writer in self.writers:
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    def _send(self, writer: asyncio.StreamWriter, req: Request, due: float) -> None:
        self.inflight[req.rid] = (due, req)
        writer.write(req.line)

    async def _read(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            reply = json.loads(line)
            due, req = self.inflight.pop(reply.get("id"), (None, None))
            phase = self.phase
            if req is None or phase is None:
                continue
            if self.plant_fault and req.rid == 0:
                reply = {"ok": True, "result": {}}  # a planted wrong answer
            ms = (now - due) * 1e3
            if reply_ok(req, reply):
                phase.latencies_ms.append(ms)
                phase.by_op_ms.setdefault(req.kind, []).append(ms)
            else:
                phase.failed += 1
            phase.last_reply = now
            if self.refill is not None:
                requests, deadline = self.refill
                if now < deadline and self.refill_at < len(requests):
                    self._send(writer, requests[self.refill_at], now)
                    self.refill_at += 1
                    phase.attempted += 1
            if not self.inflight:
                self.done.set()

    async def _finish(self, phase: PhaseResult, last_due: float) -> PhaseResult:
        """Wait for the phase's replies; count the missing ones as failed."""
        self.done.clear()
        if self.inflight:
            try:
                await asyncio.wait_for(self.done.wait(), REPLY_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        # Phases run one after another, so whatever is still in flight
        # belongs to this phase and timed out.
        phase.failed += len(self.inflight)
        self.inflight.clear()
        # A backlog that grew during the phase shows as the last reply
        # arriving long after the last request was due.
        phase.drain_lag_ms = (phase.last_reply - last_due) * 1e3
        self.phase = None
        self.refill = None
        return phase

    async def run_open(self, phase: PhaseResult, requests: List[Request]) -> PhaseResult:
        self.phase = phase
        interval = 1.0 / phase.rate
        start = time.perf_counter() + 0.005
        due = start
        for i, req in enumerate(requests):
            due = start + i * interval
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.late_ms_max = max(phase.late_ms_max, (time.perf_counter() - due) * 1e3)
            self._send(self.writers[i % CONNECTIONS], req, due)
        phase.attempted = len(requests)
        await self._finish(phase, due)
        phase.seconds = time.perf_counter() - start
        return phase

    async def run_closed(
        self, phase: PhaseResult, requests: List[Request], seconds: float, depth: int
    ) -> PhaseResult:
        self.phase = phase
        start = time.perf_counter()
        self.refill = (requests, start + seconds)
        first = CONNECTIONS * depth
        for i, req in enumerate(requests[:first]):
            self._send(self.writers[i % CONNECTIONS], req, start)
        self.refill_at = phase.attempted = first
        await asyncio.sleep(seconds)
        self.refill = None
        await self._finish(phase, phase.last_reply)
        phase.seconds = phase.last_reply - start
        phase.rate = len(phase.latencies_ms) / phase.seconds
        return phase


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------


def ladder_rate(step: int) -> float:
    return LIGHT_RPS * STEP**step


def run(cfg: WorkloadConfig) -> Outcome:
    samples = 100 if cfg.tiny else PHASE_SAMPLES
    warmup = 50 if cfg.tiny else WARMUP_REQUESTS
    tables, origin = traced_mix(cfg.seed, 512 if cfg.tiny else MIX_TABLES)
    keys = reference_keys(tables)
    outcome = Outcome()
    # The set-up engine run is itself code under test: tables derived
    # from one pool function must share its class.
    first_key: Dict[int, Tuple] = {}
    for f, o in zip(tables, origin):
        if o is not None and first_key.setdefault(o, keys[(f.n, f.bits)]) != keys[(f.n, f.bits)]:
            outcome.failed += 1
    max_phases = 12
    stream = build_requests(
        cfg.seed, warmup + samples * max_phases + CAPACITY_MAX_REQUESTS, tables, origin, keys
    )

    setup_dir = str(OUT_DIR / f"serve-{os.getpid()}")
    stores = iter(range(SETUP_REPEATS + 1))

    def start() -> float:
        probe = Daemon(os.path.join(setup_dir, f"store{next(stores)}"))
        try:
            return probe.ready_seconds()
        finally:
            probe.stop()

    daemon: Optional[Daemon] = None
    try:
        setup_times, setup_raw = setup_seconds(start, SETUP_REPEATS)
        # The daemon under load is not pinned: it runs as users run it.
        daemon = Daemon(os.path.join(setup_dir, f"store{next(stores)}"))
        daemon.ready_seconds()
        phases = asyncio.run(_drive(cfg, daemon, stream, warmup, samples, max_phases))
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(setup_dir, ignore_errors=True)

    timed = [p for p in phases if p.name != "warmup"]
    outcome.attempted += sum(p.attempted for p in phases)
    outcome.failed += sum(p.failed for p in phases)
    named = {p.name: p for p in timed}
    light, heavy = named["light"], named["heavy"]
    capacity = [p for p in timed if p.name.startswith("capacity")]
    ladder = [p for p in timed if p not in capacity]
    capacity_rps = statistics.median(p.rate for p in capacity)
    # Highest sustained rate below the lowest rate that missed the limit.
    ceiling = min((p.rate for p in ladder if not p.sustained), default=math.inf)
    max_rps = max((p.rate for p in ladder if p.sustained and p.rate < ceiling), default=0.0)

    setup_s = statistics.median(setup_times)
    outcome.metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss, "MB"),
        "throughput_per_s": (capacity_rps, "1/s"),
        "latency_ms": (light.p50, "ms"),
    }
    outcome.note("setup_s", setup_s, "s", len(setup_times))
    outcome.note("setup_raw_s", statistics.median(setup_raw), "s", len(setup_raw))
    outcome.note("peak_rss_mb", rss, "MB", 1)
    outcome.note("fail_ratio", outcome.failed / max(1, outcome.attempted), "ratio", outcome.attempted)
    for p in (light, heavy):
        outcome.note(f"serve_{p.name}_p50_ms", p.p50, "ms", len(p.latencies_ms))
        outcome.note(f"serve_{p.name}_p99_ms", p.p99, "ms", len(p.latencies_ms))
    outcome.note("serve_max_rps", max_rps, "1/s", len(ladder))
    outcome.note("serve_capacity_rps", capacity_rps, "1/s", len(capacity))
    for p in timed:
        outcome.note(f"phase.{p.name}", p.rate, "1/s", len(p.latencies_ms))
        outcome.detail[f"phase.{p.name}"].update(
            p50_ms=p.p50,
            p99_ms=p.p99,
            failed=p.failed,
            drain_lag_ms=p.drain_lag_ms,
            late_ms_max=p.late_ms_max,
            sustained=p.sustained,
        )
    if cfg.trace:
        dump_phases(phases, cfg.spans_path)
        outcome.layers = _layers(phases, light, heavy)
    return outcome


async def _drive(
    cfg: WorkloadConfig,
    daemon: Daemon,
    stream: List[Request],
    warmup: int,
    samples: int,
    max_phases: int,
) -> List[PhaseResult]:
    client = Client(daemon.port, cfg.plant_fault)
    await client.open()
    phases: List[PhaseResult] = []
    cursor = 0

    async def phase(name: str, rate: float, count: int, closed: bool = False) -> PhaseResult:
        nonlocal cursor
        chunk = stream[cursor : cursor + count]
        cursor += count
        # Between phases nothing is in flight, so a blocking stats call
        # here does not delay any timed request.
        t0 = time.perf_counter()
        before = stats_counters(daemon)
        result = PhaseResult(name, rate)
        result.start = time.perf_counter()
        if closed:
            await client.run_closed(result, chunk, CAPACITY_SLICE_S, CAPACITY_DEPTH)
        else:
            await client.run_open(result, chunk)
        result.end = time.perf_counter()
        after = stats_counters(daemon)
        result.stats_call_seconds = (result.start - t0) + (time.perf_counter() - result.end)
        result.stats_delta = {k: after[k] - before[k] for k in after}
        phases.append(result)
        return result

    try:
        await phase("warmup", LIGHT_RPS, warmup)
        deadline = time.perf_counter() + cfg.seconds
        await phase("light", ladder_rate(0), samples)
        heavy = await phase("heavy", ladder_rate(HEAVY_STEP), samples)
        # Walk the ladder away from heavy until the verdict flips.
        direction = 1 if heavy.sustained else -1
        step = HEAVY_STEP + direction
        slices = 2 if cfg.tiny else CAPACITY_SLICES
        ladder_end = deadline - slices * CAPACITY_SLICE_S
        while 0 < step and len(phases) < max_phases and time.perf_counter() < ladder_end:
            result = await phase(f"step{step}", ladder_rate(step), samples)
            if result.sustained != heavy.sustained:
                break
            step += direction
        # Capacity in short closed-loop slices; their median is not moved
        # by a stall in one of them.
        for i in range(slices):
            await phase(f"capacity{i}", 0.0, CAPACITY_MAX_REQUESTS // slices, closed=True)
    finally:
        await client.close()
    return phases


def _layers(phases: List[PhaseResult], light: PhaseResult, heavy: PhaseResult):
    """Per-layer numbers: client per-op timings and daemon stats deltas.

    The daemon runs in its own process, so its layers are read from its
    public ``stats`` op at each phase boundary.  In the light phase the
    client's mean latency (``bench.traced.s``) splits into the daemon's
    own mean request time and the residual spent on the wire, in socket
    queues and in the client.  The tracing cost is the time spent in the
    ``stats`` calls, all of it between phases.
    """
    timed = [p for p in phases if p.name != "warmup"]

    def total(key: str) -> float:
        return sum(p.stats_delta.get(key, 0) for p in phases)

    hd, ld = heavy.stats_delta, light.stats_delta
    client_mean = statistics.fmean(light.latencies_ms) / 1e3
    server_mean = ld["served_seconds"] / max(1, ld["served"])
    overhead = sum(p.stats_call_seconds for p in phases)
    return {
        "serve.classify.p50_ms": (percentile(light.by_op_ms.get("classify", []), 50), "ms"),
        "serve.match.p50_ms": (percentile(light.by_op_ms.get("match", []), 50), "ms"),
        "serve.batch_fill": (hd["tables"] / max(1, hd["batches"]), "tables"),
        "serve.engine_busy_ratio": (hd["classify_seconds"] / heavy.seconds, "ratio"),
        "serve.server_mean_ms": (server_mean * 1e3, "ms"),
        "store.flushes": (total("store_flushes"), "count"),
        "serve.overloaded": (total("overloaded"), "count"),
        "serve.gen_late_ms_max": (max(p.late_ms_max for p in timed), "ms"),
        "bench.traced.s": (client_mean, "s"),
        "bench.residual.s": (client_mean - server_mean, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (overhead / (phases[-1].end - phases[0].start), "ratio"),
    }


def dump_phases(phases: List[PhaseResult], path) -> None:
    """Write the phases as spans, one JSON line each."""
    with open(path, "w") as f:
        for i, p in enumerate(phases):
            f.write(
                json.dumps(
                    {
                        "id": i,
                        "name": f"serve.phase.{p.name}",
                        "start": p.start,
                        "end": p.end,
                        "parent": -1,
                        "run": 0,
                        "rate": p.rate,
                        "samples": len(p.latencies_ms),
                        "failed": p.failed,
                    }
                )
                + "\n"
            )
