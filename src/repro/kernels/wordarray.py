"""Word-array (slab) batch kernels: the one batched layout.

A batch of ``B`` truth tables is *transposed* into ``2**h`` **slabs**:
slab ``s`` is one wide integer holding word ``s`` (a ``2**c``-bit chunk,
``c = n - h``) of every table, one lane per table.  At ``h = 0`` the
single slab is exactly the lane-packed integer (table ``k`` in lane
``k``); larger ``h`` trades a transpose for shorter in-slab rounds.
:func:`slab_h` and :func:`transform_slab_h` pick ``h`` from ``n`` alone
(measured sweep in EXPERIMENTS.md).

The layout splits each table's variables into three bands, exactly like
the word-array truth tables of MyskYko/ttopt (and the reference
single-table ops in :mod:`repro.utils.words`):

* axes 0..2 live inside a *byte*: one ``bytes.translate`` against a
  256-entry popcount (or transform) table processes all three at once,
  replacing the three narrowest — and most expensive per useful bit —
  butterfly rounds with a single C pass;
* axes 3..c-1 live inside a slab lane: masked-shift rounds, one per
  axis, over fields that start a byte wide;
* axes c..n-1 are the *slab index*: operations on them are list
  operations — a cofactor weight is a sum of slab vectors, an axis flip
  is a permutation of the slab list (free), a Moebius step is one
  unmasked XOR per slab pair.

The full pre-key column set costs O(n) wide passes per batch, not the
O(n^2) rounds of a butterfly that re-reduces every cofactor branch.

Cross-slab sums never overflow: the translate output holds values
<= 8 in 8-bit fields, and every summation either has headroom proved by
construction (field capacity ``2**16`` at the narrowest summed stride
vs at most ``2**(h+3)`` slabs-times-value) or is widened first in
groups of at most 31 slabs.  With ``c = 3`` (``n = 3``) the lanes are a
single byte and there are no in-slab rounds at all.

All kernels return results bit-identical to the scalar references;
tables enter and leave as plain packed bigints.  Below ``n = 3`` (no
byte-wide lanes) every entry point takes the scalar path.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from repro.kernels import lanes
from repro.kernels.prekey import PAIR_ROW_MAX_SIZE, Pair, finish_prekeys, pair_row
from repro.utils import bitops

SLAB_MAX_H = 6
"""Upper bound on ``log2`` slab count.  More slabs shorten the in-slab
rounds but grow the transpose cost linearly (``B * 2**h`` byte slices);
measured optimum is h in {3..6} over n in {11..16}."""

_BYTE_COUNT = bytes(bin(b).count("1") for b in range(256))
_BYTE_COUNT_AXIS = tuple(
    bytes(bin(b & m).count("1") for b in range(256))
    for m in (0x55, 0x33, 0x0F)
)
"""Per-byte popcount tables, plain and masked to the low-axis negative
cofactor halves (axis 0/1/2).  Built once at import: one translate pass
against these replaces the three narrowest butterfly rounds."""


def supported(n: int) -> bool:
    """Whether the slab pipeline covers ``n``: byte-wide lanes need
    ``n >= 3``; above :data:`repro.utils.bitops.MAX_VARS` tables are
    rejected everywhere anyway."""
    return 3 <= n <= bitops.MAX_VARS


def slab_h(n: int) -> int:
    """Slab-count exponent for the counting kernels (pre-keys, cofactor
    weights, the FPRM ladder).

    One slab (the plain lane-packed batch) through ``n = 6``, then two
    slab axes per three variables up to :data:`SLAB_MAX_H`: chunks grow
    from ``2**5`` bits at ``n = 7`` to ``2**10`` at ``n = 16``, short
    enough that the in-slab rounds stay cheap and long enough that the
    per-slab Python overhead amortizes (sweep in EXPERIMENTS.md).
    """
    return max(0, min(SLAB_MAX_H, 2 * (n - 5) // 3))


def transform_slab_h(n: int) -> int:
    """Slab-count exponent for the kernels that transpose back
    (:func:`batch_fprm`, :func:`batch_mobius`).

    Unpacking a multi-slab batch joins ``2**h`` chunks per table, which
    outweighs the shorter rounds until the tables are large: one slab
    through ``n = 11``, then one more slab axis per variable.
    """
    return max(0, min(SLAB_MAX_H, n - 11))


def pack_slabs(bits_list: Sequence[int], n: int, h: int) -> List[bytes]:
    """Transpose a batch into ``2**h`` slab buffers.

    Slab ``s`` holds chunk ``s`` (bytes ``[s*cb, (s+1)*cb)``, little
    endian) of every table, concatenated in batch order — i.e. lane
    ``k`` of slab ``s`` is word ``s`` of table ``k``.
    """
    tb = 1 << (n - 3)
    cb = tb >> h
    bufs = [b.to_bytes(tb, "little") for b in bits_list]
    if not h:
        return [b"".join(bufs)]
    # itemgetter(slice) keeps the B * 2**h chunk extraction entirely in
    # C; a per-buffer genexpr here costs more than the slicing itself.
    return [
        b"".join(map(itemgetter(slice(off, off + cb)), bufs))
        for off in range(0, tb, cb)
    ]


def unpack_slabs(slabs: Sequence[int], n: int, count: int, h: int) -> List[int]:
    """Inverse transpose: per-table integers from slab integers."""
    cb = (1 << (n - 3)) >> h
    fb = int.from_bytes
    if not h:
        buf = slabs[0].to_bytes(count * cb, "little")
        return [fb(buf[off:off + cb], "little") for off in range(0, count * cb, cb)]
    imgs = [x.to_bytes(count * cb, "little") for x in slabs]
    return [
        fb(b"".join(map(itemgetter(slice(off, off + cb)), imgs)), "little")
        for off in (k * cb for k in range(count))
    ]


def _count_masks(c: int, total: int) -> List[int]:
    """Even-field masks for the in-slab count rounds (fields start one
    byte wide — the translate pass already merged axes 0..2).  Empty at
    ``c = 3``."""
    return [lanes.rep_mask(8 << r, total) for r in range(c - 3)]


def _grouped_sum(vals: Sequence[int], m0: int) -> Tuple[int, int]:
    """Sum 8-bit-field count vectors (field values <= 8) into 16-bit
    fields: plain big-int adds in carry-free groups of 31 (31 * 8 = 248
    never carries across a byte), then one widening round per group.

    Returns ``(sum16, even16)`` where ``even16`` is the summed round-0
    even slice — the seed of the axis-3 branch in the weight chains.
    """
    if len(vals) <= 31:
        # A single group: no loop, no slice.
        p = sum(vals)
        e16 = p & m0
        return e16 + ((p >> 8) & m0), e16
    s16 = 0
    e16 = 0
    for k in range(0, len(vals), 31):
        p = sum(vals[k:k + 31])
        e = p & m0
        s16 += e + ((p >> 8) & m0)
        e16 += e
    return s16, e16


def _lane_weight_sum(slabs: Sequence[int], c: int, count: int) -> int:
    """Per-lane weight vector summed over all slabs (``2**c``-bit
    fields, one total count per lane).

    The masked-add widening rounds are linear in the field values, so
    the translated byte counts are summed *across slabs first* (via
    :func:`_grouped_sum`) and a single chain widens the total — one add
    per slab plus one chain, instead of a full chain per slab."""
    masks = _count_masks(c, count << c)
    tb = count << (c - 3)
    fb = int.from_bytes
    tab = _BYTE_COUNT
    counts = [fb(x.to_bytes(tb, "little").translate(tab), "little") for x in slabs]
    if not masks:
        # c == 3: byte lanes, and the slab total stays <= 2**n < 256.
        return sum(counts)
    y, _ = _grouped_sum(counts, masks[0])
    for r in range(1, len(masks)):
        w = 8 << r
        m = masks[r]
        y = (y & m) + ((y >> w) & m)
    return y


def _slab_columns(
    bits_list: Sequence[int], n: int, count: int, h: int, want_mins: bool = True
):
    """Per-table total weights, per-axis negative-cofactor-weight
    columns and per-axis ``min(ncw, pcw)`` columns, from one pass: the
    shared front half of the pre-key and cofactor-weight kernels.

    Weight flow: one popcount translate per slab collapses axes 0..2
    into byte counts (plus three masked translates seeding the
    axis-0/1/2 branches), then everything is summed *across slabs
    before widening* — the masked-add rounds are linear in the field
    values, so chain(sum) == sum(chains), and the carry-free group adds
    of :func:`_grouped_sum` cost one pass per slab where a per-slab
    chain would cost ``4 * (c - 3)``.  The total-weight chain's even
    slices are then exactly the slab-summed in-slab branches, the high
    axes need one half-batch grouped sum each, and no per-slab chain
    ever runs.
    """
    c = n - h
    size = 1 << n
    half = size >> 1
    total = count << c
    cb = 1 << (c - 3)
    fb = int.from_bytes
    masks = _count_masks(c, total)
    nrounds = len(masks)

    sbufs = pack_slabs(bits_list, n, h)
    ty = [fb(sbuf.translate(_BYTE_COUNT), "little") for sbuf in sbufs]
    low = [
        [fb(sbuf.translate(tab), "little") for sbuf in sbufs]
        for tab in _BYTE_COUNT_AXIS
    ]

    def widen(z: int, r0: int) -> int:
        for r in range(r0, nrounds):
            w = 8 << r
            m = masks[r]
            z = (z & m) + ((z >> w) & m)
        return z

    if nrounds:
        m0 = masks[0]

        def summed(vals: Sequence[int]) -> int:
            return _grouped_sum(vals, m0)[0]

        # Total-weight chain over the slab-summed byte counts, capturing
        # the even slice at every round: slice r of the summed chain
        # equals the sum of the per-slab slices, i.e. the in-slab ncw
        # column for axis 3 + r already reduced over all high axes.
        y, e0 = _grouped_sum(ty, m0)
        branch_f: List[int] = [e0]
        for r in range(1, nrounds):
            w = 8 << r
            m = masks[r]
            t = y & m
            branch_f.append(t)
            y = t + ((y >> w) & m)
    else:
        # c == 3: byte lanes, no in-slab axes; slab sums stay <= 2**n <
        # 256 (c = 3 needs 2**c > n, so n <= 7), so plain adds never
        # carry out of a lane.
        summed = sum
        y = sum(ty)
        branch_f = []
    S = y

    ncw_f = [widen(summed(zs), 1) for zs in low]
    for r, z in enumerate(branch_f):
        ncw_f.append(widen(z, r + 1))
    for j in range(h):
        bit = 1 << j
        ncw_f.append(
            widen(summed([v for s, v in enumerate(ty) if not s & bit]), 1)
        )

    # SWAR min(ncw, pcw): with pcw = S - E, set a probe bit P at
    # position n of each 2**c-bit field (2**c > n for every width
    # slab_h picks), subtract, and smear the surviving borrow into a
    # field mask bf — i.e. ge = "ncw >= pcw" per lane — then blend E
    # and pcw through bf.
    min_cols = None
    if want_mins:
        P = lanes.rep_bit(n, 1 << c, total)
        mins_f = []
        for E in ncw_f:
            pcw = S - E
            ge = ((E | P) - pcw) & P
            bf = ge - (ge >> n)
            mins_f.append(E ^ ((E ^ pcw) & bf))
        min_cols = [lanes.extract_lanes(x, cb, count, half) for x in mins_f]
    ncw_cols = [lanes.extract_lanes(x, cb, count, half) for x in ncw_f]
    w = lanes.extract_lanes(S, cb, count, size)
    return w, ncw_cols, min_cols


def batch_prekeys(
    bits_list: Sequence[int], n: int
) -> Tuple[List[tuple], List[Tuple[Pair, ...]]]:
    """Coarse pre-keys *and* cofactor-weight vectors for a whole batch.

    Returns ``(keys, weights)`` where ``keys[k]`` equals
    ``coarse_prekey(TruthTable(n, bits_list[k]))`` bit-for-bit and
    ``weights[k]`` is the ``((ncw, pcw), ...)`` vector (the two share
    one weight pass, which is where the batch speedup comes from).
    Scalar fallback below ``n = 3``.
    """
    count = len(bits_list)
    if not count:
        return [], []
    if not supported(n):
        from repro.boolfunc.truthtable import TruthTable
        from repro.engine.prekey import coarse_prekey

        keys = [coarse_prekey(TruthTable(n, b)) for b in bits_list]
        return keys, batch_cofactor_weights(bits_list, n)
    cols = _slab_columns(bits_list, n, count, slab_h(n))
    return finish_prekeys(cols, bits_list, n)


def batch_cofactor_weights(
    bits_list: Sequence[int], n: int
) -> List[Tuple[Pair, ...]]:
    """``(ncw_i, pcw_i)`` for every variable of every table in the batch.

    Matches ``tuple((half_weight(b, n, i, 0), half_weight(b, n, i, 1))
    for i in range(n))`` per table; that scalar loop is the fallback
    below ``n = 3``.
    """
    count = len(bits_list)
    if not count:
        return []
    if not supported(n):
        masks = bitops.axis_masks(n)
        return [
            tuple(
                ((b & m).bit_count(), ((b >> (1 << i)) & m).bit_count())
                for i, m in enumerate(masks)
            )
            for b in bits_list
        ]
    size = 1 << n
    w, ncw_cols, _ = _slab_columns(bits_list, n, count, slab_h(n), want_mins=False)
    if size > PAIR_ROW_MAX_SIZE:
        return [
            tuple((m, fw - m) for m in nrow) for fw, nrow in zip(w, zip(*ncw_cols))
        ]
    out = []
    for fw, nrow in zip(w, zip(*ncw_cols)):
        pf = pair_row(size, fw)
        out.append(tuple(map(pf.__getitem__, nrow)))
    return out


# ---------------------------------------------------------------------------
# FPRM / Moebius


_fprm_byte_maps: Dict[int, bytes] = {}


def _fprm_byte_map(neg3: int) -> bytes:
    """256-entry table: flip the negative low axes (``neg3`` bits 0..2),
    then the Moebius rounds for axes 0..2 — the whole low band of the
    FPRM transform as one byte permutation-free translate."""
    tab = _fprm_byte_maps.get(neg3)
    if tab is None:
        out = []
        lowm = (0x55, 0x33, 0x0F)
        for b in range(256):
            x = b
            for i in range(3):
                if (neg3 >> i) & 1:
                    w = 1 << i
                    m = lowm[i]
                    x = ((x & m) << w) | ((x >> w) & m)
            for i in range(3):
                x ^= (x & lowm[i]) << (1 << i)
                x &= 0xFF
            out.append(x)
        tab = _fprm_byte_maps[neg3] = bytes(out)
    return tab


def _fprm_slabs(
    sbufs: List[bytes], n: int, count: int, h: int, polarity: int
) -> List[int]:
    """FPRM over packed slab buffers; returns transformed slab ints.

    High-axis polarity flips are a slab-index permutation (zero bit
    work), the low band is one translate, mid-axis flips fuse into
    their Moebius round (``hi | ((lo ^ hi) << w)``), and the high-axis
    Moebius steps are unmasked slab-pair XORs.
    """
    c = n - h
    nslabs = 1 << h
    total = count << c
    fb = int.from_bytes
    neg = ~polarity & ((1 << n) - 1)
    hm = neg >> c
    if hm:
        sbufs = [sbufs[s ^ hm] for s in range(nslabs)]
    tmap = _fprm_byte_map(neg & 7)
    ops = [
        ((neg >> i) & 1, 1 << i, lanes.rep_axis(c, i, total))
        for i in range(3, c)
    ]
    slabs = []
    for sbuf in sbufs:
        x = fb(sbuf.translate(tmap), "little")
        for f, w, m in ops:
            if f:
                lo = x & m
                hi = (x >> w) & m
                x = hi | ((lo ^ hi) << w)
            else:
                x ^= (x & m) << w
        slabs.append(x)
    for j in range(h):
        bit = 1 << j
        for s in range(nslabs):
            if s & bit:
                slabs[s] ^= slabs[s ^ bit]
    return slabs


def batch_fprm(bits_list: Sequence[int], n: int, polarity: int) -> List[int]:
    """GRM coefficient vectors of a whole batch under one polarity.

    Per-table equal to ``fprm_coefficients(bits, n, polarity)``: flip
    every negative-polarity axis, then the Moebius butterfly.  Scalar
    fallback below ``n = 3``.
    """
    if not 0 <= polarity < (1 << n):
        raise ValueError("polarity vector out of range")
    count = len(bits_list)
    if not count:
        return []
    if not supported(n):
        from repro.grm.transform import fprm_coefficients

        return [fprm_coefficients(b, n, polarity) for b in bits_list]
    h = transform_slab_h(n)
    slabs = _fprm_slabs(pack_slabs(bits_list, n, h), n, count, h, polarity)
    return unpack_slabs(slabs, n, count, h)


def batch_mobius(bits_list: Sequence[int], n: int) -> List[int]:
    """Per-table :func:`repro.utils.bitops.mobius` (FPRM at the
    all-positive polarity)."""
    return batch_fprm(bits_list, n, (1 << n) - 1)


def fprm_ladder_weights(
    bits_list: Sequence[int], n: int, polarities: Sequence[int]
) -> List[List[int]]:
    """GRM spectrum weights for every table under a *ladder* of
    polarities: ``out[p][k] == fprm_coefficients(bits_list[k], n,
    polarities[p]).bit_count()``.

    This is the paper's polarity-sweep workload (compare GRM weight
    vectors across polarities) and where the slab layout is strongest:
    the batch is packed and fully transformed once, then each further
    polarity is an *incremental* update — toggling the polarity of axis
    ``i`` maps the coefficient vector by one fold ``c ^= (c >> 2**i)
    masked to even fields`` (for in-slab axes) or one unmasked XOR per
    slab pair (for high axes, at half traffic and no mask), never a
    fresh transform.  Per-lane weights come from the popcount translate
    chain after each step.
    """
    count = len(bits_list)
    if not polarities:
        return []
    if not count:
        return [[] for _ in polarities]
    if not supported(n):
        from repro.grm.transform import fprm_coefficients

        return [
            [fprm_coefficients(b, n, p).bit_count() for b in bits_list]
            for p in polarities
        ]
    h = slab_h(n)
    c = n - h
    nslabs = 1 << h
    total = count << c
    size = 1 << n
    slabs = _fprm_slabs(
        pack_slabs(bits_list, n, h), n, count, h, polarities[0]
    )
    out = []
    cur = polarities[0]
    cb = 1 << (c - 3)
    for p in polarities:
        for i in bitops.iter_bits(cur ^ p):
            if i >= c:
                bit = 1 << (i - c)
                for s in range(nslabs):
                    if not s & bit:
                        slabs[s] ^= slabs[s | bit]
            else:
                w = 1 << i
                m = lanes.rep_axis(c, i, total)
                slabs = [x ^ ((x >> w) & m) for x in slabs]
        cur = p
        S = _lane_weight_sum(slabs, c, count)
        out.append(list(lanes.extract_lanes(S, cb, count, size)))
    return out
