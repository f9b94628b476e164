"""The repository benchmark: map, classify and serve, timed end to end.

Run from the repository root::

    python3 perfbench/run.py --workload map_registry --seed 1 --seconds 24 --trace 0

Workloads: ``map_registry``, ``classify_repeat``, ``classify_unique``,
``serve_mix`` (see ``BENCHMARK.json`` for why each exists).  With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics of a traced run and
writes its spans to ``.perfbench_out/``.  Every output of the program
is checked; wrong outputs count as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line
before it carries the environment and every workload-specific metric
with its unit and sample count.  ``--out FILE`` also appends both as
one JSON record to FILE, which ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

from common import OUT_DIR, ROOT, SRC, WorkloadConfig, one_cpu

WORKLOADS = ("map_registry", "classify_repeat", "classify_unique", "serve_mix")


def environment(seed: int) -> dict:
    """Where and on what the numbers were measured."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str):
        try:
            out = subprocess.run(
                ["git", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    revision = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if revision else None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "git_dirty": bool(status) if status is not None else None,
        "seed": seed,
    }


def run_workload(name: str, cfg: WorkloadConfig):
    if name == "serve_mix":
        import serve_mix

        return serve_mix.run(cfg)
    # The in-process workloads run on one pinned CPU, the one their
    # calibrations measure; they are single-threaded either way.
    with one_cpu():
        if name == "map_registry":
            import map_registry

            return map_registry.run(cfg)
        import classify_batches

        return classify_batches.run(cfg, name)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", type=Path, default=None, help="append the run's record here")
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--plant-fault", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    cfg = WorkloadConfig(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        tiny=args.tiny,
        plant_fault=args.plant_fault,
        spans_path=OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl",
    )
    outcome = run_workload(args.workload, cfg)

    if args.trace:
        from layers import layer_names

        # Every workload reports every layer; a layer the workload does
        # not reach reads 0.
        chosen = {n: outcome.layers.get(n, (0.0, u)) for n, u in layer_names()}
    else:
        chosen = outcome.metrics
    for name, (value, _) in chosen.items():
        if not math.isfinite(value):
            print(f"error: metric {name} is not finite: {value}", file=sys.stderr)
            return 1
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in chosen.items()},
    }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed),
        "detail": outcome.detail,
    }
    if args.out is not None:
        with open(args.out, "a") as f:
            f.write(json.dumps(dict(detail, result=result)) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
