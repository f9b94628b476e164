"""Scalar-vs-batch speedup curves for the bit-parallel kernel layer.

Standalone (argparse, no pytest) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_kernels.py --guardrail

Every batch kernel here is the slab pipeline of
``repro.kernels.wordarray`` (one slab — the plain lane-packed batch — at
small n, ``2**slab_h(n)`` slabs above).  One scenario per kernel, each
swept over n in {4..10} and batch sizes {16, 256, 4096}:

* ``prekey`` — the engine's coarse pre-key plus the full cofactor-weight
  vector for every function in the batch.  The scalar side is what the
  engine pays without the kernel (per-function ``coarse_prekey`` at
  bucketing time, cofactor weights rederived in the polarity search);
  the batch side is ``batch_prekeys``, which yields both from one shared
  weight pass.  This is the path the classifier hits on every bucketing
  pass, and the acceptance target is >= 3x at n = 8, B = 256.
* ``fprm`` — fixed-polarity Reed-Muller coefficient vectors for the
  whole batch vs a ``fprm_coefficients`` loop (cache cleared per trial:
  the scalar loop is memoised, the kernel is not, and the benchmark
  measures cold transforms).
* ``walsh`` — the packed bias-encoded Walsh butterfly vs the Python-list
  reference, one spectrum per function (B is the function count).

The large cells (n in {12, 14, 16}) run the same ``prekey`` and
``fprm`` scenarios plus:

* ``cofactor_weights`` — the cofactor-weight vectors alone, against the
  raw masked-popcount loop of ``TruthTable.cofactor_weights``.  That
  scalar side is pure C big-int work, so the margin here is thin
  (~1..2x, batch-dependent) and only gated at parity; the >= 2x weight
  acceptance is carried by ``prekey``, which contains the same vectors.
* ``fprm_ladder`` — the paper's polarity-sweep workload (GRM weight
  vectors across a gray-code ladder of polarities).  The slab layout
  transforms once and applies each polarity toggle incrementally, which
  is where the >= 2x FPRM margin lives at n = 14..16.

Scalar and batch sides of every cell run inside the *same* invocation so
machine noise cancels out of the ratio; each side is best-of ``--trials``.
Results go to ``BENCH_kernels.json`` (override with ``--out``), with the
slab counts used per n, the usable core count and the git revision and
dirty flag.

``--guardrail`` runs only the acceptance cell (prekey, n = 8, B = 256)
plus one large cell (prekey, n = 14, B = 64) — each asserts the batch
results are bit-identical to scalar — and exits non-zero if either
kernel is slower than scalar: a cheap CI tripwire, deliberately far
below the 3x/2x targets because shared CI boxes are noisy.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
import time
from pathlib import Path

from repro import kernels
from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.engine.prekey import coarse_prekey
from repro.grm.transform import fprm_coefficients
from repro.kernels import wordarray
from repro.utils import bitops

from _report import git_state, usable_cores

ROOT = Path(__file__).resolve().parents[1]
N_SWEEP = (4, 5, 6, 7, 8, 9, 10)
B_SWEEP = (16, 256, 4096)
ACCEPT_N = 8
ACCEPT_B = 256
ACCEPT_SPEEDUP = 3.0

LARGE_CELLS = ((12, 256), (14, 256), (16, 64))
LARGE_ACCEPT_SPEEDUP = 2.0
LARGE_GUARD_N = 14
LARGE_GUARD_B = 64
LARGE_WALSH_B = 8
FPRM_POLARITY = 0b0101_0101_0101_0101


def make_batch(n: int, count: int, rng: random.Random):
    return [rng.getrandbits(1 << n) for _ in range(count)]


def best_of(trials: int, fn, *args):
    best = None
    for _ in range(trials):
        t0 = time.perf_counter()
        out = fn(*args)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, out)
    return best


def cell(t_scalar: float, t_batch: float) -> dict:
    return {
        "scalar_seconds": t_scalar,
        "batch_seconds": t_batch,
        "speedup": t_scalar / t_batch,
    }


def scalar_weights(bl, n):
    """The raw masked-popcount loop of ``TruthTable.cofactor_weights``."""
    masks = bitops.axis_masks(n)
    return [
        tuple(
            ((b & m).bit_count(), ((b >> (1 << i)) & m).bit_count())
            for i, m in enumerate(masks)
        )
        for b in bl
    ]


def scalar_prekeys_reference(bl, n):
    """What the engine pays per function without the kernel: the scalar
    ``coarse_prekey`` at bucketing time plus the cofactor-weight vector
    the polarity search derives later from the same table."""
    keys = [coarse_prekey(TruthTable(n, b)) for b in bl]
    return keys, scalar_weights(bl, n)


def bench_prekey(bl, n, trials):
    t_s, scalar = best_of(trials, scalar_prekeys_reference, bl, n)
    t_b, batch = best_of(trials, kernels.batch_prekeys, bl, n)
    assert batch == scalar, f"prekey mismatch at n={n}"
    return cell(t_s, t_b)


def bench_cofactor_weights(bl, n, trials):
    t_s, expected = best_of(trials, scalar_weights, bl, n)
    t_b, batch = best_of(trials, kernels.batch_cofactor_weights, bl, n)
    assert batch == expected, f"cofactor-weight mismatch at n={n}"
    return cell(t_s, t_b)


def bench_fprm(bl, n, trials):
    polarity = FPRM_POLARITY & ((1 << n) - 1)

    def scalar():
        fprm_coefficients.cache_clear()
        return [fprm_coefficients(b, n, polarity) for b in bl]

    t_s, expected = best_of(trials, scalar)
    t_b, batch = best_of(trials, kernels.batch_fprm, bl, n, polarity)
    assert batch == expected, f"fprm mismatch at n={n}"
    return cell(t_s, t_b)


def ladder_polarities(n: int):
    """A gray-code walk over three axes spread across the bands (one
    in-byte, one mid in-slab, one slab-index), so every step toggles a
    single polarity bit and every band's incremental update runs."""
    axes = (0, n // 2, n - 1)
    pols = []
    for i in range(8):
        g = i ^ (i >> 1)
        pols.append(sum(1 << axes[j] for j in range(3) if (g >> j) & 1))
    return pols


def bench_fprm_ladder(bl, n, trials):
    pols = ladder_polarities(n)

    def scalar():
        fprm_coefficients.cache_clear()
        return [
            [fprm_coefficients(b, n, p).bit_count() for b in bl] for p in pols
        ]

    t_s, expected = best_of(trials, scalar)
    t_b, batch = best_of(trials, kernels.fprm_ladder_weights, bl, n, pols)
    assert batch == expected, f"fprm ladder mismatch at n={n}"
    return {"polarities": len(pols), **cell(t_s, t_b)}


def bench_walsh(bl, n, trials):
    tables = [TruthTable(n, b) for b in bl]
    refs = [
        [1 - 2 * ((b >> m) & 1) for m in range(1 << n)] for b in bl
    ]
    t_s, expected = best_of(
        trials, lambda: [walsh._butterfly_list(list(r)) for r in refs]
    )
    t_b, packed = best_of(trials, lambda: [walsh.walsh_spectrum(f) for f in tables])
    assert packed == expected, f"walsh mismatch at n={n}"
    return {"list_seconds": t_s, "packed_seconds": t_b, "speedup": t_s / t_b}


def run_sweep(trials: int, seed: int, quick: bool):
    ns = N_SWEEP if not quick else (4, 8)
    bs = B_SWEEP if not quick else (256,)
    rng = random.Random(seed)
    cells = {}
    for n in ns:
        for count in bs:
            bl = make_batch(n, count, rng)
            row = {
                "prekey": bench_prekey(bl, n, trials),
                "fprm": bench_fprm(bl, n, trials),
            }
            if count <= 256:
                row["walsh"] = bench_walsh(bl, n, trials)
            cells[f"n={n},B={count}"] = row
            print(
                f"n={n:2d} B={count:4d}  prekey {row['prekey']['speedup']:5.2f}x  "
                f"fprm {row['fprm']['speedup']:5.2f}x"
                + (f"  walsh {row['walsh']['speedup']:5.2f}x" if "walsh" in row else "")
            )
    if not quick:
        for n, count in LARGE_CELLS:
            bl = make_batch(n, count, rng)
            row = {
                "prekey": bench_prekey(bl, n, trials),
                "cofactor_weights": bench_cofactor_weights(bl, n, trials),
                "fprm": bench_fprm(bl, n, trials),
                "fprm_ladder": bench_fprm_ladder(bl, n, trials),
                "walsh": bench_walsh(bl[:LARGE_WALSH_B], n, trials),
            }
            cells[f"n={n},B={count}"] = row
            print(
                f"n={n:2d} B={count:4d}  prekey {row['prekey']['speedup']:5.2f}x  "
                f"weights {row['cofactor_weights']['speedup']:5.2f}x  "
                f"fprm {row['fprm']['speedup']:5.2f}x  "
                f"ladder {row['fprm_ladder']['speedup']:5.2f}x  "
                f"walsh {row['walsh']['speedup']:5.2f}x"
            )
    return cells


def run_guardrail(trials: int, seed: int) -> int:
    rng = random.Random(seed)
    # Small cell at full trials, the large one at a few: bench_prekey
    # asserts bit-identical keys and weight vectors before timing.
    for n, count, t in (
        (ACCEPT_N, ACCEPT_B, trials),
        (LARGE_GUARD_N, LARGE_GUARD_B, min(trials, 3)),
    ):
        row = bench_prekey(make_batch(n, count, rng), n, t)
        print(
            f"guardrail prekey n={n} B={count} (slab_h={wordarray.slab_h(n)}): "
            f"scalar {row['scalar_seconds'] * 1e3:.2f}ms "
            f"batch {row['batch_seconds'] * 1e3:.2f}ms "
            f"speedup {row['speedup']:.2f}x"
        )
        if row["speedup"] < 1.0:
            print(
                f"GUARDRAIL FAILED: batch prekey slower than scalar at n={n}",
                file=sys.stderr,
            )
            return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=3, help="best-of trials per side")
    ap.add_argument(
        "--quick", action="store_true", help="only n in {4,8} at B=256, no JSON gate"
    )
    ap.add_argument(
        "--guardrail",
        action="store_true",
        help="CI mode: guardrail cells only, fail if batch is slower than scalar",
    )
    ap.add_argument("--out", default=None, help="JSON output path")
    args = ap.parse_args(argv)

    if args.guardrail:
        return run_guardrail(max(args.trials, 5), args.seed)

    cells = run_sweep(args.trials, args.seed, args.quick)
    n_sweep = list(N_SWEEP if not args.quick else (4, 8))
    large = [list(c) for c in LARGE_CELLS] if not args.quick else []
    all_n = n_sweep + [n for n, _ in large]
    revision, dirty = git_state()
    report = {
        "benchmark": "bench_kernels",
        "python": platform.python_version(),
        "usable_cores": usable_cores(),
        "git_revision": revision,
        "git_dirty": dirty,
        "seed": args.seed,
        "trials": args.trials,
        "n_sweep": n_sweep,
        "batch_sweep": list(B_SWEEP if not args.quick else (256,)),
        "kernel_min_batch": kernels.KERNEL_MIN_BATCH,
        "slab_h": {str(n): wordarray.slab_h(n) for n in all_n},
        "transform_slab_h": {str(n): wordarray.transform_slab_h(n) for n in all_n},
        "large_cells": large,
        "cells": cells,
    }

    out = Path(args.out) if args.out else ROOT / "BENCH_kernels.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")

    rc = 0
    accept = cells.get(f"n={ACCEPT_N},B={ACCEPT_B}")
    if accept and not args.quick and accept["prekey"]["speedup"] < ACCEPT_SPEEDUP:
        print(
            f"WARNING: prekey speedup at n={ACCEPT_N}, B={ACCEPT_B} below "
            f"{ACCEPT_SPEEDUP}x",
            file=sys.stderr,
        )
        rc = 1
    if not args.quick:
        for n, count in LARGE_CELLS:
            row = cells[f"n={n},B={count}"]
            for scenario, floor in (
                ("prekey", LARGE_ACCEPT_SPEEDUP),
                ("fprm_ladder", LARGE_ACCEPT_SPEEDUP),
                ("cofactor_weights", 1.0),
            ):
                if row[scenario]["speedup"] < floor:
                    print(
                        f"WARNING: {scenario} speedup at n={n}, B={count} "
                        f"below {floor}x",
                        file=sys.stderr,
                    )
                    rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
