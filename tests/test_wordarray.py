"""Differential suite for the word-array representation and slab kernels.

Two layers under test, both pinned to the packed-bigint reference:

* :mod:`repro.utils.words` — the single-table 64-bit word-array ops
  (masked shifts in-word, list manipulation above ``LOG2W``) must match
  the :mod:`repro.utils.bitops` primitives operation-for-operation at
  small, boundary-straddling and large widths;
* :mod:`repro.kernels.wordarray` — the slab-layout batch kernels (the
  only batched layout) must reproduce the scalar pre-keys, cofactor
  weights and FPRM/Moebius transforms bit-for-bit at every width, across
  every slab-count boundary from the single-slab ``n = 3`` batch up.

Serialized formats (store shards, corpus JSON) carry the canonical
``bits``, so a round-trip through the word-array view must be exactly
byte-stable.
"""

import random

import pytest

from repro import kernels
from repro.boolfunc import walsh
from repro.boolfunc.truthtable import TruthTable
from repro.engine import EngineOptions, classify_batch
from repro.engine.prekey import coarse_prekey
from repro.grm.transform import fprm_coefficients
from repro.kernels import prekey as prekey_mod
from repro.kernels import wordarray
from repro.store.records import StoreRecord, encode_prekey
from repro.testing.corpus import Witness
from repro.utils import bitops
from repro.utils import words as W

REF_NS = (3, 6, 11, 13, 16)
"""Reference widths: below a word, exactly one word, and three
multi-word sizes spanning the multi-slab range."""


def cases_for(n, rng, randoms=3):
    """Constants, a projection, parity and random tables — the edge
    shapes where in-word/word-index band errors show up first."""
    out = [0, bitops.table_mask(n)]
    if n:
        out.append(bitops.table_mask(n) & ~bitops.axis_mask(n, 0))  # x_0
        out.append(TruthTable.parity(n).bits)
    out.extend(rng.getrandbits(1 << n) for _ in range(randoms))
    return out


@pytest.mark.parametrize("n", REF_NS)
def test_words_roundtrip_and_weights(n):
    rng = random.Random(100 + n)
    for bits in cases_for(n, rng):
        ws = W.to_words(bits, n)
        assert len(ws) == W.word_count(n)
        assert all(0 <= w < (1 << W.WORD_BITS) for w in ws)
        assert W.from_words(ws, n) == bits
        assert W.weight(ws) == bits.bit_count()
        for m in rng.sample(range(1 << n), min(16, 1 << n)):
            assert W.evaluate(ws, m) == (bits >> m) & 1
    with pytest.raises(ValueError):
        W.from_words([0] * (W.word_count(n) + 1), n)


@pytest.mark.parametrize("n", REF_NS)
def test_words_unary_ops_match_bitops(n):
    rng = random.Random(200 + n)
    for bits in cases_for(n, rng):
        ws = W.to_words(bits, n)
        for i in range(n):
            assert W.from_words(W.flip_var(ws, n, i), n) == bitops.flip_axis(
                bits, n, i
            )
            for v in (0, 1):
                assert W.from_words(
                    W.cofactor(ws, n, i, v), n
                ) == bitops.restrict(bits, n, i, v)
                assert W.cofactor_weight(ws, n, i, v) == bitops.half_weight(
                    bits, n, i, v
                )
            ref_bd = bitops.restrict(bits, n, i, 0) ^ bitops.restrict(
                bits, n, i, 1
            )
            assert W.from_words(W.boolean_difference(ws, n, i), n) == ref_bd
        assert W.cofactor_weights(ws, n) == tuple(
            (
                bitops.half_weight(bits, n, i, 0),
                bitops.half_weight(bits, n, i, 1),
            )
            for i in range(n)
        )
        assert (
            W.from_words(W.bitwise_not(ws, n), n)
            == bits ^ bitops.table_mask(n)
        )


@pytest.mark.parametrize("n", REF_NS)
def test_words_swaps_and_permutations_match_bitops(n):
    rng = random.Random(300 + n)
    for bits in cases_for(n, rng, randoms=2):
        ws = W.to_words(bits, n)
        for i in range(n - 1):
            assert W.from_words(
                W.swap_adjacent(ws, n, i), n
            ) == bitops.swap_axes(bits, n, i, i + 1)
        for _ in range(4 if n else 0):
            i, j = rng.randrange(n), rng.randrange(n)
            assert W.from_words(W.swap_vars(ws, n, i, j), n) == bitops.swap_axes(
                bits, n, i, j
            )
        if n:
            neg = rng.getrandbits(n)
            assert W.from_words(
                W.negate_inputs(ws, n, neg), n
            ) == bitops.negate_inputs(bits, n, neg)
            perm = list(range(n))
            rng.shuffle(perm)
            assert W.from_words(
                W.permute_vars(ws, n, perm), n
            ) == bitops.permute_vars(bits, n, perm)


def test_words_bitwise_ops():
    rng = random.Random(4)
    n = 11
    a, b = rng.getrandbits(1 << n), rng.getrandbits(1 << n)
    wa, wb = W.to_words(a, n), W.to_words(b, n)
    assert W.from_words(W.bitwise_and(wa, wb), n) == a & b
    assert W.from_words(W.bitwise_or(wa, wb), n) == a | b
    assert W.from_words(W.bitwise_xor(wa, wb), n) == a ^ b


@pytest.mark.parametrize("n", (2, 6, 13))
def test_truthtable_words_view(n):
    rng = random.Random(5)
    t = TruthTable.random(n, rng)
    view = t.words()
    assert view == tuple(W.to_words(t.bits, n))
    assert t.words() is view  # cached
    assert TruthTable.from_words(n, view) == t


@pytest.mark.parametrize("n", (11, 13, 16))
def test_slab_prekeys_match_scalar(n):
    rng = random.Random(400 + n)
    bl = cases_for(n, rng, randoms=8 if n < 16 else 4)
    keys, weights = wordarray.batch_prekeys(bl, n)
    masks = bitops.axis_masks(n)
    for bits, key, w in zip(bl, keys, weights):
        assert key == coarse_prekey(TruthTable(n, bits))
        assert w == tuple(
            ((bits & m).bit_count(), ((bits >> (1 << i)) & m).bit_count())
            for i, m in enumerate(masks)
        )
    assert wordarray.batch_cofactor_weights(bl, n) == list(weights)


def test_large_sizes_skip_pair_row_tables():
    # The finishing loop must not materialize O(2**n) pair-row tables
    # per distinct weight above PAIR_ROW_MAX_SIZE — at n >= 13 nearly
    # every lane has a distinct weight and the rows would pin
    # O(B * 2**n) tuples (the cold-cache blowup this guards against).
    n = 13
    assert (1 << n) > prekey_mod.PAIR_ROW_MAX_SIZE
    rng = random.Random(6)
    bl = [rng.getrandbits(1 << n) for _ in range(16)]
    before = set(prekey_mod._pair_rows)
    wordarray.batch_prekeys(bl, n)
    wordarray.batch_cofactor_weights(bl, n)
    added = {k for k in prekey_mod._pair_rows if k not in before}
    assert not {k for k in added if k[0] > prekey_mod.PAIR_ROW_MAX_SIZE}


@pytest.mark.parametrize("n", (11, 13, 16))
def test_slab_fprm_and_mobius_match_flat(n):
    # Reference: the scalar transforms over the flat packed table.
    rng = random.Random(500 + n)
    bl = cases_for(n, rng, randoms=4 if n < 16 else 2)
    for pol in (0, (1 << n) - 1, rng.getrandbits(n)):
        assert wordarray.batch_fprm(bl, n, pol) == [
            fprm_coefficients(bits, n, pol) for bits in bl
        ]
    assert wordarray.batch_mobius(bl, n) == [bitops.mobius(b, n) for b in bl]
    with pytest.raises(ValueError):
        wordarray.batch_fprm(bl, n, 1 << n)


@pytest.mark.parametrize("n", range(3, 17))
def test_slab_kernels_match_scalar_every_width(n):
    # n = 3..16 crosses every slab_h and transform_slab_h step, from the
    # single 3-bit-chunk slab at n = 3 (no in-slab rounds) to 2**6 slabs.
    rng = random.Random(1000 + n)
    bl = cases_for(n, rng, randoms=5 if n < 14 else 2)
    masks = bitops.axis_masks(n)
    ref_weights = [
        tuple(
            ((bits & m).bit_count(), ((bits >> (1 << i)) & m).bit_count())
            for i, m in enumerate(masks)
        )
        for bits in bl
    ]
    keys, weights = wordarray.batch_prekeys(bl, n)
    assert keys == [coarse_prekey(TruthTable(n, bits)) for bits in bl]
    assert weights == ref_weights
    assert wordarray.batch_cofactor_weights(bl, n) == ref_weights
    pols = [0, (1 << n) - 1, rng.getrandbits(n)]
    for pol in pols:
        assert wordarray.batch_fprm(bl, n, pol) == [
            fprm_coefficients(bits, n, pol) for bits in bl
        ]
    assert wordarray.batch_mobius(bl, n) == [bitops.mobius(b, n) for b in bl]
    assert wordarray.fprm_ladder_weights(bl, n, pols) == [
        [fprm_coefficients(bits, n, pol).bit_count() for bits in bl]
        for pol in pols
    ]


@pytest.mark.parametrize("n", (11, 13))
def test_fprm_ladder_weights_match_scalar(n):
    rng = random.Random(600 + n)
    bl = cases_for(n, rng, randoms=4)
    base = rng.getrandbits(n)
    # Arbitrary-Hamming-distance steps, including a revisit.
    pols = [base, base ^ 1, base ^ (1 << (n - 1)) ^ 3, 0, base]
    ladder = wordarray.fprm_ladder_weights(bl, n, pols)
    assert len(ladder) == len(pols)
    for step, pol in zip(ladder, pols):
        expect = [
            fprm_coefficients(bits, n, pol).bit_count() for bits in bl
        ]
        assert list(step) == expect


def test_engine_partitions_identical_across_layouts_large_n():
    # The acceptance bar: identical classify() partitions whether the
    # coarse pre-keys come from the scalar loop or the slab kernels.
    # n = 11 runs a multi-slab batch, and the npn copies force
    # multi-member classes through the full canonicalization path.
    rng = random.Random(8)
    n = 11
    base = [TruthTable.random(n, rng) for _ in range(6)]
    batch = list(base)
    for t in base[:3]:
        perm = list(range(n))
        rng.shuffle(perm)
        batch.append(t.permute_vars(perm).negate_inputs(rng.getrandbits(n)))
    results = {
        mode: classify_batch(
            [TruthTable(f.n, f.bits) for f in batch],
            options=EngineOptions(kernel=mode, workers=0),
        )
        for mode in kernels.KERNEL_MODES
    }
    for mode in kernels.KERNEL_MODES:
        assert results[mode].members == results["scalar"].members
    assert results["batch"].num_classes == len(base)
    assert results["batch"].stats.kernel_batched == len(batch)


@pytest.mark.parametrize("n", (15, 16))
def test_walsh_packed_large_n_tiers(n):
    rng = random.Random(700 + n)
    f = TruthTable.random(n, rng)
    spectrum = walsh.walsh_spectrum(f)
    ref = walsh._butterfly_list(
        [1 - 2 * ((f.bits >> m) & 1) for m in range(1 << n)]
    )
    assert spectrum == ref
    assert walsh.inverse_walsh(spectrum) == f


@pytest.mark.parametrize("n", (13, 16))
def test_store_record_roundtrip_is_byte_stable(n):
    # Shards serialize the canonical bits; a table reconstructed from
    # the word-array view must produce the identical line and parse
    # back to the identical record.
    rng = random.Random(800 + n)
    rep = TruthTable.random(n, rng)
    canon = TruthTable(n, rep.bits)  # identity witness keeps this exact
    record = StoreRecord(
        n=n,
        canon_bits=canon.bits,
        rep_bits=rep.bits,
        witness=(tuple(range(n)), 0, False),
        prekey=encode_prekey(coarse_prekey(rep)),
    )
    line = record.to_line()
    via_words = TruthTable.from_words(n, rep.words())
    record2 = StoreRecord(
        n=n,
        canon_bits=via_words.bits,
        rep_bits=via_words.bits,
        witness=(tuple(range(n)), 0, False),
        prekey=encode_prekey(coarse_prekey(via_words)),
    )
    assert record2.to_line() == line.replace(
        format(rep.bits, "x"), format(via_words.bits, "x")
    )
    parsed = StoreRecord.from_line(line)
    assert parsed.canon_bits == rep.bits
    assert TruthTable(n, parsed.rep_bits).words() == rep.words()


@pytest.mark.parametrize("n", (13, 16))
def test_corpus_witness_roundtrip_is_byte_stable(n):
    rng = random.Random(900 + n)
    f = TruthTable.random(n, rng)
    g = TruthTable.from_words(n, f.words())  # same function, via words
    w1 = Witness(n=n, f_bits=f.bits, g_bits=f.bits)
    w2 = Witness(n=n, f_bits=g.bits, g_bits=g.bits)
    assert w1.to_json() == w2.to_json()
    parsed = Witness.from_json(w1.to_json())
    assert parsed.f.words() == f.words()
