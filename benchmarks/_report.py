"""Report helpers for the benchmark harness.

Every module prints the paper-style table it regenerates through
:func:`emit`.  pytest captures test output at the file-descriptor
level, so the lines are buffered here and flushed by the
``pytest_terminal_summary`` hook in ``conftest.py`` — they appear after
the pytest-benchmark statistics in the terminal (and in
``bench_output.txt`` when tee'd), and are also written to
``benchmarks/results.txt`` for later reference.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
from typing import List, Optional, Tuple

REPORT_BUFFER: List[str] = []
RESULTS_FILE = pathlib.Path(__file__).resolve().parent / "results.txt"
ROOT = pathlib.Path(__file__).resolve().parents[1]


def emit(text: str = "") -> None:
    """Queue a report line for the end-of-session summary."""
    REPORT_BUFFER.append(text)


def emit_header(title: str) -> None:
    emit()
    emit("=" * 78)
    emit(title)
    emit("=" * 78)


def flush_to(write_line) -> None:
    """Drain the buffer through a line writer and persist a copy."""
    if not REPORT_BUFFER:
        return
    for line in REPORT_BUFFER:
        write_line(line)
    try:
        RESULTS_FILE.write_text("\n".join(REPORT_BUFFER) + "\n")
    except OSError:  # pragma: no cover - read-only checkouts
        pass
    REPORT_BUFFER.clear()


def usable_cores() -> int:
    """CPUs this process may run on (not the machine's total)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def git_state() -> Tuple[Optional[str], Optional[bool]]:
    """``(revision, dirty)`` of the checkout, ``(None, None)`` outside git."""

    def git(*args):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    return revision, (bool(status) if status is not None else None)
