"""The back half of the batch pre-key kernel: scalar-identical coarse
NPN pre-keys and cofactor-weight vectors from extracted weight columns.

The scalar :func:`repro.engine.prekey.coarse_prekey` builds, per
function, the sorted min/max cofactor-weight-pair profile and takes the
lexicographic minimum of the profile and its negation image.  The batch
kernel (:func:`repro.kernels.wordarray.batch_prekeys`) reproduces those
tuples bit-for-bit from three observations:

* ``ncw_i + pcw_i = |f|`` for every variable, so each (min, max)-ordered
  pair is determined by ``m_i = min(ncw_i, pcw_i)`` and the function
  weight ``fw`` alone, and sorting pairs lexicographically is the same
  as sorting the ``m_i``.
* ``min(profile, profile_neg)`` resolves *globally* on ``fw``: for
  ``fw < 2**(n-1)`` the plain profile wins, for ``fw > 2**(n-1)`` the
  negation image wins, and at ``fw == 2**(n-1)`` the two are equal
  element-wise (each pair and its image are both ``(m, half - m)``).
  So the reported weight is ``wmin = min(fw, 2**n - fw)`` and every
  output pair is a pure function of ``(m_i, fw)``.
* A variable is outside the support only if its pair is the equal pair
  ``(fw/2, fw/2)`` — so the (rare) exact cofactor comparison runs only
  for variables whose extracted min hits ``fw // 2`` on an even ``fw``.

The per-lane mins come out of the slab weight pass with a SWAR
compare-and-select (no per-variable popcounts), and the final tuples are
materialized through lazy *pair-row tables*: ``pair_row(size, fw)[m] ==
(m, fw - m)``, so one C-level ``map(row.__getitem__, mins)`` per
function builds the whole profile — and equal pairs are shared objects
across the batch instead of fresh tuples.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.utils import bitops

Pair = Tuple[int, int]

PAIR_ROW_MAX_SIZE = 2048
"""Largest table size (``2**n``) for which pair rows are materialized.
A row costs O(size) tuples and is keyed by ``(size, fw)``; at small
``n`` rows are few and heavily shared across lanes, but from ``n ~ 12``
up nearly every lane has a distinct weight, so building rows would cost
O(B * 2**n) tuples per cold batch and pin them in the cache forever.
Above this bound the finishing loop builds each lane's n pairs
directly."""

_pair_rows: Dict[Tuple[int, int], List[Pair]] = {}
_npair_rows: Dict[Tuple[int, int], List[Pair]] = {}


def pair_row(size: int, fw: int) -> List[Pair]:
    """``pair_row(size, fw)[m] == (m, fw - m)`` for every possible min
    ``m`` of a weight-``fw`` function on ``size`` minterms."""
    key = (size, fw)
    r = _pair_rows.get(key)
    if r is None:
        top = min(fw, size >> 1)
        r = _pair_rows[key] = [(m, fw - m) for m in range(top + 1)]
    return r


def npair_row(size: int, fw: int) -> List[Pair]:
    """The negation-image row for ``fw > size // 2``:
    ``npair_row(size, fw)[m] == (m + half - fw, half - m)``, i.e. the
    min/max pair of the complement function indexed by the min of the
    original."""
    key = (size, fw)
    r = _npair_rows.get(key)
    if r is None:
        half = size >> 1
        d = half - fw
        r = _npair_rows[key] = [(m + d, half - m) for m in range(min(fw, half) + 1)]
    return r


def finish_prekeys(
    cols, bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[Tuple[Pair, ...]]]:
    """Shared back half of the pre-key kernels: turn the extracted
    ``(w, ncw_cols, min_cols)`` columns into the scalar-identical
    ``(keys, weights)`` lists.

    The columns come from the slab weight pass in
    :mod:`repro.kernels.wordarray`.  Small tables go through the shared pair-row tables; above
    :data:`PAIR_ROW_MAX_SIZE` each lane's pairs are built directly
    (see the constant's docstring for why).
    """
    w, ncw_cols, min_cols = cols
    size = 1 << n
    half = size >> 1
    use_rows = size <= PAIR_ROW_MAX_SIZE
    keys: List[tuple] = []
    weights: List[Tuple[Pair, ...]] = []
    kap = keys.append
    wap = weights.append
    axis_masks = bitops.axis_masks(n)
    for fw, row, nrow, bits in zip(w, zip(*min_cols), zip(*ncw_cols), bits_list):
        pf = pair_row(size, fw) if use_rows else None
        if use_rows:
            wap(tuple(map(pf.__getitem__, nrow)))
        else:
            wap(tuple((m, fw - m) for m in nrow))
        hf = fw >> 1
        if (fw & 1) or hf not in row:
            support = n
        else:
            support = n
            for i, m in enumerate(row):
                if m == hf:
                    span = 1 << i
                    am = axis_masks[i]
                    if (bits & am) == ((bits >> span) & am):
                        support -= 1
        srow = sorted(row)
        if fw <= half:
            if use_rows:
                kap((n, support, fw, tuple(map(pf.__getitem__, srow))))
            else:
                kap((n, support, fw, tuple((m, fw - m) for m in srow)))
        else:
            if use_rows:
                kap(
                    (
                        n,
                        support,
                        size - fw,
                        tuple(map(npair_row(size, fw).__getitem__, srow)),
                    )
                )
            else:
                d = half - fw
                kap(
                    (
                        n,
                        support,
                        size - fw,
                        tuple((m + d, half - m) for m in srow),
                    )
                )
    return keys, weights
