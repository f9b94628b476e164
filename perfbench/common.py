"""Shared pieces of the benchmark: configuration, results, statistics,
and child processes that run the code under test from ``src/``."""

from __future__ import annotations

import contextlib
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


@dataclass
class WorkloadConfig:
    seed: int
    seconds: float
    trace: bool
    tiny: bool = False
    """Shrunk inputs and phases, for the benchmark's own tests."""
    plant_fault: bool = False
    """Corrupt one output of the program before it is checked, for the
    benchmark's own tests: the run must then report a failure."""
    spans_path: Optional[Path] = None
    """Where a traced run writes its spans."""


@dataclass
class Outcome:
    """What one workload run measured.

    ``metrics`` holds the end-to-end metrics every workload reports
    (name -> (value, unit)); ``detail`` the workload's own named
    metrics, with units and sample counts; ``layers`` the per-layer
    metrics of a traced run.
    """

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    detail: Dict[str, dict] = field(default_factory=dict)
    layers: Dict[str, Tuple[float, str]] = field(default_factory=dict)

    def note(self, name: str, value: float, unit: str, samples: int) -> None:
        self.detail[name] = {"value": value, "unit": unit, "samples": samples}


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def geomean(values: Sequence[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    """This process's peak resident set size (``VmHWM``) in MiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


# ----------------------------------------------------------------------
# Machine-speed reference
# ----------------------------------------------------------------------

REFERENCE_SECONDS = 0.045
"""What one :func:`calibration_seconds` takes at the reference speed.

The shared machines this runs on change speed by up to ~1.8x from one
minute to the next (co-tenant load), which no run length averages out.
Every timing metric is therefore reported at the reference speed: the
measured time times ``REFERENCE_SECONDS`` over the calibration time
measured next to it.  The calibration is stdlib-only Python close to
the program's own mix (integer and big-integer arithmetic, dictionary
updates, calls), so a change to the program cannot move it.  The raw
wall times are reported beside the scaled ones."""

CALIBRATION_INTERVAL_S = 0.5


def calibration_seconds() -> float:
    """Time of a fixed stdlib-only Python workload (~45 ms at reference)."""
    t0 = time.perf_counter()
    for _ in range(3):
        counts: Dict[int, int] = {}
        x = 0x9E3779B97F4A7C15
        big = (1 << 256) - 1
        for _ in range(20000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            counts[x & 1023] = counts.get(x & 1023, 0) + 1
            big = ((big << 1) | (big >> 255)) & ((1 << 256) - 1) ^ x
        sorted(counts.values())
    return time.perf_counter() - t0


class SpeedRef:
    """Calibrations taken between samples, to scale each sample's time.

    ``tick`` calibrates when the last calibration is older than
    ``CALIBRATION_INTERVAL_S`` (or always, with ``force``).  ``scale``
    gives the factor for a sample that ran from ``t0`` to ``t1``: the
    reference time over the mean of the calibrations from the last one
    before the sample to the first one after it.
    """

    def __init__(self) -> None:
        self.marks: List[Tuple[float, float]] = []  # (time taken, seconds)
        self.tick(force=True)

    def tick(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.marks[-1][0] >= CALIBRATION_INTERVAL_S:
            seconds = calibration_seconds()
            self.marks.append((time.perf_counter(), seconds))

    def scale(self, t0: float, t1: float) -> float:
        first = max((i for i, (t, _) in enumerate(self.marks) if t <= t0), default=0)
        last = min(
            (i for i, (t, _) in enumerate(self.marks) if t >= t1),
            default=len(self.marks) - 1,
        )
        return REFERENCE_SECONDS / statistics.fmean(s for _, s in self.marks[first : last + 1])


def spawn_python(args: List[str]) -> subprocess.Popen:
    """Start ``python3 ARGS`` against ``src/`` with piped text stdout."""
    return subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1"),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


@contextlib.contextmanager
def one_cpu():
    """Pin this process, and the children it starts, to one CPU.

    The speed of the two cores of a shared machine differs from moment
    to moment, so a calibration only tells the speed of the core it ran
    on; set-up is timed on the same core as its calibrations.
    """
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(saved)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def setup_seconds(start: Callable[[], float], repeats: int) -> Tuple[List[float], List[float]]:
    """Set-up times at the reference speed, and as measured.

    ``start`` starts a fresh process, waits until it can take its first
    input, stops it and returns the seconds to ready.  Each start runs
    between two calibrations on the same pinned CPU.
    """
    scaled: List[float] = []
    raw: List[float] = []
    with one_cpu():
        ref = SpeedRef()
        for _ in range(repeats):
            t0 = time.perf_counter()
            seconds = start()
            ref.tick(force=True)
            raw.append(seconds)
            scaled.append(seconds * ref.scale(t0, t0 + seconds))
    return scaled, raw


def probe_setup_seconds(kind: str, repeats: int) -> Tuple[List[float], List[float]]:
    """Fresh-process set-up of ``map`` or ``classify``.

    The child (``probe.py``) imports the package and builds the object
    that takes the workload's first input, then prints ``ready``.
    """

    def start() -> float:
        t0 = time.perf_counter()
        proc = spawn_python([str(HERE / "probe.py"), kind])
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            if line.strip() != "ready":
                raise RuntimeError(f"set-up probe {kind!r} failed: {line!r}")
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        return elapsed

    return setup_seconds(start, repeats)
