"""Batch influence vectors and sensitivity signatures, lane-packed.

The scalar references live in :mod:`repro.core.sensitivity`; this module
reproduces their raw counts bit-for-bit for a whole batch at once:

* **influence** is one XOR + axis mask per lane pair — the Boolean
  difference ``(packed ^ (packed >> 2**i)) & rep_axis(i)`` — followed by
  a strided popcount chain, so every lane's ``inf_i`` falls out of ``n``
  reduction rounds per axis.
* **sensitivity** ripple-adds the ``n`` full-domain difference tables
  into per-lane counter bit-planes (the packed twin of the scalar
  bit-plane trick), builds the per-value point masks once for the whole
  batch, and reads every histogram — on-set, off-set and the ``n``
  boundary columns — through per-lane popcount reductions.

Both entry points silently fall back to the scalar implementations
below the kernel's byte-aligned lane floor (``n < 3``) and *above*
:data:`BATCH_MAX_N`: the influence pipeline is n reduction rounds per
axis (n^2 total) over the whole packed batch, and from ``n = 11`` up
that loses to the scalar per-table masked-popcount loops, whose bare
popcounts are already C-speed.  The slab layout does not help here: its
win comes from *sharing* one reduction across all 2n cofactor counts,
and influence needs a fresh XOR-ed table per axis.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.kernels import lanes

__all__ = ["BATCH_MAX_N", "batch_influence", "batch_sensitivity", "supported"]

BATCH_MAX_N = 10
"""Widest tables the packed influence/sensitivity pipeline batches.
Above this the scalar loops win: batched influence measured ~7x slower
at n = 14 (28 ms vs 4 ms for B = 256)."""


def supported(n: int) -> bool:
    """Whether the packed influence pipeline covers ``n`` (byte-aligned
    lanes at the bottom, the measured scalar crossover at the top)."""
    return 3 <= n <= BATCH_MAX_N


def _lane_counts(x: int, n: int, count: int, lb: int, total_bits: int):
    """Per-lane popcounts of ``x`` via the strided reduction main chain."""
    S = x
    for j in range(n):
        w = 1 << j
        m = lanes.rep_mask(w, total_bits)
        S = (S & m) + ((S >> w) & m)
    return lanes.extract_lanes(S, lb, count, 1 << n)


def batch_influence(bits_list: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    """Influence vector of every table in the batch.

    Matches ``repro.core.sensitivity.influence_vector`` bit-for-bit;
    scalar fallback below the supported width.
    """
    count = len(bits_list)
    if not count:
        return []
    if not supported(n):
        return _scalar_influence(bits_list, n)
    packed = lanes.pack_tables(bits_list, n)
    total_bits = count << n
    lb = lanes.lane_bytes(n)
    cols = []
    for i in range(n):
        span = 1 << i
        am = lanes.rep_axis(n, i, total_bits)
        x = (packed ^ (packed >> span)) & am
        cols.append(_lane_counts(x, n, count, lb, total_bits))
    return [tuple(col[k] for col in cols) for k in range(count)]


def batch_sensitivity(
    bits_list: Sequence[int], n: int
) -> List[Tuple[Tuple[Tuple[int, ...], ...], Tuple[int, ...], Tuple[int, ...]]]:
    """``(columns, hist_on, hist_off)`` of every table in the batch.

    Matches ``repro.core.sensitivity.sensitivity_data`` exactly; scalar
    fallback below the supported width.
    """
    count = len(bits_list)
    if not count:
        return []
    if not supported(n):
        return _scalar_sensitivity(bits_list, n)
    packed = lanes.pack_tables(bits_list, n)
    total_bits = count << n
    lb = lanes.lane_bytes(n)
    full = (1 << total_bits) - 1
    nplanes = n.bit_length()
    planes = [0] * nplanes
    diffs = []
    for i in range(n):
        span = 1 << i
        am = lanes.rep_axis(n, i, total_bits)
        x = (packed ^ (packed >> span)) & am
        d = x | (x << span)
        diffs.append(d)
        carry = d
        for p in range(nplanes):
            nxt = planes[p] & carry
            planes[p] ^= carry
            carry = nxt
    vmasks = []
    for v in range(n + 1):
        m = full
        for p in range(nplanes):
            m &= planes[p] if (v >> p) & 1 else (full ^ planes[p])
        vmasks.append(m)

    def counts(x: int):
        return _lane_counts(x, n, count, lb, total_bits)

    off = packed ^ full
    on_cols = [counts(m & packed) for m in vmasks]
    off_cols = [counts(m & off) for m in vmasks]
    col_cols = [[counts(m & d) for m in vmasks] for d in diffs]
    out = []
    for k in range(count):
        hist_on = tuple(on_cols[v][k] for v in range(n + 1))
        hist_off = tuple(off_cols[v][k] for v in range(n + 1))
        columns = tuple(
            tuple(col_cols[i][v][k] for v in range(n + 1)) for i in range(n)
        )
        out.append((columns, hist_on, hist_off))
    return out


def _scalar_influence(bits_list: Sequence[int], n: int) -> List[Tuple[int, ...]]:
    from repro.core import sensitivity as sens_mod

    return [sens_mod._influence_vector(n, b) for b in bits_list]


def _scalar_sensitivity(bits_list: Sequence[int], n: int):
    from repro.core import sensitivity as sens_mod

    return [sens_mod._sensitivity_data(n, b) for b in bits_list]
