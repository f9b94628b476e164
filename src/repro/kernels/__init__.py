"""Bit-parallel batch kernels: SIMD-on-bigints for the hot paths.

This package packs a batch of ``B`` truth tables (width ``2**n``) into
wide Python integers and replaces per-function Python loops with a
handful of big-integer operations that CPython executes in C.  The
layer is dependency-free (no numpy): the "vector unit" is the
arbitrary-precision integer itself.

Modules
-------
:mod:`repro.kernels.wordarray`
    The one batched layout for pre-keys, cofactor weights and the
    FPRM/Moebius transforms.  The batch is held as ``2**h`` slab
    integers, each slicing one ``2**(n-h)``-bit chunk out of every
    table; at ``h = 0`` the single slab is the plain lane-packed
    integer.  ``h`` is a function of ``n`` alone
    (:func:`repro.kernels.wordarray.slab_h`).
:mod:`repro.kernels.prekey`
    The shared back half of the pre-key kernel: scalar-identical
    ``(keys, weights)`` tuples from the extracted weight columns.
:mod:`repro.kernels.lanes`
    Lane packing, extraction and replicated-mask builders.
:mod:`repro.kernels.influence`
    Per-lane influence vectors and sensitivity histograms for the
    engine's influence/sensitivity pre-key tiers.

Dispatch
--------
Call sites pick the implementation through :func:`should_batch`, driven
by a ``kernel`` mode string: ``"scalar"`` never batches, ``"batch"``
always batches where the kernel supports the width, and ``"auto"``
(default) batches once a group reaches :data:`KERNEL_MIN_BATCH` lanes —
below that the packing overhead eats the win.  The pre-key pipeline
needs byte-aligned lanes (``n >= 3``); narrower groups silently take
the scalar path, counted in ``kernels.scalar_fallbacks``.

When observability is enabled (:mod:`repro.obs.runtime`) the wrappers
record call counts, lane throughput and wall time under the
``kernels.*`` namespace.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

from repro.kernels import influence, lanes, prekey, wordarray
from repro.kernels.influence import batch_influence, batch_sensitivity
from repro.kernels.wordarray import (
    batch_cofactor_weights,
    batch_fprm,
    batch_mobius,
    batch_prekeys,
    fprm_ladder_weights,
)
from repro.obs import runtime as _obs

__all__ = [
    "KERNEL_MIN_BATCH",
    "KERNEL_MODES",
    "batch_cofactor_weights",
    "batch_fprm",
    "batch_influence",
    "batch_mobius",
    "batch_prekeys",
    "batch_sensitivity",
    "coarse_prekeys",
    "fprm_ladder_weights",
    "influence",
    "influence_vectors",
    "lanes",
    "prekey",
    "should_batch",
    "wordarray",
]

KERNEL_MODES = ("auto", "scalar", "batch")
"""Valid values of the ``kernel`` dispatch mode: whether to batch."""

KERNEL_MIN_BATCH = 8
"""``"auto"`` crossover: batch groups of at least this many distinct
functions.  The packed pipeline was never slower than scalar from 16
lanes up in BENCH_kernels.json; 8 leaves margin for the pack cost on
cache-cold lanes."""


def should_batch(n: int, count: int, kernel: str = "auto") -> bool:
    """Whether a group of ``count`` ``n``-variable functions should go
    through the packed pre-key pipeline under dispatch mode ``kernel``."""
    if kernel not in KERNEL_MODES:
        raise ValueError(
            f"unknown kernel mode {kernel!r}; expected one of {KERNEL_MODES}"
        )
    if kernel == "scalar" or count < 2 or not wordarray.supported(n):
        if kernel != "scalar" and count >= 2 and _obs.enabled:
            _obs.registry.counter("kernels.scalar_fallbacks").inc()
        return False
    if kernel != "auto":
        return True
    return count >= KERNEL_MIN_BATCH


def coarse_prekeys(
    bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[tuple]]:
    """Instrumented entry point for the fused pre-key + weights kernel.

    Identical to :func:`repro.kernels.wordarray.batch_prekeys`, plus
    ``kernels.*`` metrics when observability is on.  Callers gate on
    :func:`should_batch`.
    """
    if not _obs.enabled:
        return batch_prekeys(bits_list, n)
    t0 = time.perf_counter()
    result = batch_prekeys(bits_list, n)
    registry = _obs.registry
    registry.counter("kernels.prekey_calls").inc()
    registry.counter("kernels.prekey_lanes").inc(len(bits_list))
    registry.counter("kernels.prekey_seconds").inc(time.perf_counter() - t0)
    return result


def influence_vectors(bits_list: Sequence[int], n: int) -> List[tuple]:
    """Instrumented entry point for the batch influence kernel.

    Identical to :func:`repro.kernels.influence.batch_influence`, plus
    ``kernels.*`` metrics when observability is on.
    """
    if not _obs.enabled:
        return batch_influence(bits_list, n)
    t0 = time.perf_counter()
    result = batch_influence(bits_list, n)
    registry = _obs.registry
    registry.counter("kernels.influence_calls").inc()
    registry.counter("kernels.influence_lanes").inc(len(bits_list))
    registry.counter("kernels.influence_seconds").inc(time.perf_counter() - t0)
    return result
