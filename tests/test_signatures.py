"""Unit and property tests for the Section 4 signatures."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.boolfunc.ops import majority, symmetric_function
from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import sensitivity as sens_mod
from repro.core import signatures as sigs
from repro.core.polarity import decide_polarity, decide_polarity_primary, hard_completions
from repro.grm.forms import Grm
from repro.obs import runtime as obs_runtime
from repro.testing import corpus
from repro.utils.partition import Partition
from tests.conftest import truth_tables


def _canonical_grm(f):
    return Grm.from_truthtable(f, decide_polarity_primary(f).polarity)


def test_weight_pair_orientation():
    f = TruthTable.from_minterms(3, [1, 3, 5])  # pcw=3, ncw=0 on x0
    assert sigs.weight_pair(f, 0) == (0, 3)
    assert sigs.weight_pair(f.flip_input(0), 0) == (0, 3)  # phase-invariant


@given(truth_tables(2, 6), st.data())
def test_theorem3_weight_pairs_invariant_under_np(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    t = NpnTransform(perm, neg, False)
    g = t.apply(f)
    for i in range(n):
        # f input i is driven by g variable perm[i].
        assert sigs.weight_pair(f, i) == sigs.weight_pair(g, perm[i])


@given(truth_tables(2, 6), st.data())
def test_function_signature_invariant_under_matching_np_transform(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    t = NpnTransform(perm, 0, False)
    g = t.apply(f)
    pol = data.draw(st.integers(0, (1 << n) - 1))
    grm_f = Grm.from_truthtable(f, pol)
    grm_g_aligned = grm_f.relabel(perm)
    sig_f = sigs.function_signature(f, grm_f)
    sig_g = sigs.function_signature(g, Grm.from_truthtable(g, grm_g_aligned.polarity))
    assert sig_f == sig_g


def test_function_signature_detects_difference():
    f = TruthTable.from_minterms(3, [1, 2, 4])
    g = TruthTable.from_minterms(3, [1, 2, 3])
    assert sigs.function_signature(f, _canonical_grm(f)) != sigs.function_signature(
        g, _canonical_grm(g)
    )


def test_variable_signatures_columns():
    # f = x0 ^ x1*x2 under positive polarity.
    f = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    grm = Grm.from_truthtable(f, 0b111)
    v = sigs.variable_signatures(f, grm)
    assert v.fvc == (1, 1, 1)
    assert v.finc == (0, 1, 1)
    assert v.vic_columns[0] == (0, 1, 0, 0)
    assert v.vic_columns[1] == (0, 0, 1, 0)
    # Both cubes are prime here.
    assert v.pcv == (1, 1, 1)
    assert v.vic_columns[0] != v.vic_columns[1] == v.vic_columns[2]
    assert v.finc[0] != v.finc[1] == v.finc[2]


def test_refine_partition_families_can_be_disabled():
    f = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    grm = Grm.from_truthtable(f, 0b111)
    part_all = sigs.refine_partition_with_grm(Partition(3), f, lambda: grm)
    assert part_all.block_sizes() == [1, 2]
    part_none = sigs.refine_partition_with_grm(
        Partition(3), f, lambda: grm, signature_families=()
    )
    assert part_none.block_sizes() == [3]


def test_inc_rounds_limits_refinement():
    # A chain structure that static FINC cannot fully split but the
    # WL fixpoint can: f = x0*x1 ^ x1*x2 ^ x2*x3 ^ x3*x4.
    x = [TruthTable.var(5, i) for i in range(5)]
    f = (x[0] & x[1]) ^ (x[1] & x[2]) ^ (x[2] & x[3]) ^ (x[3] & x[4])
    grm = Grm.from_truthtable(f, 0b11111)
    one_round = sigs.refine_partition_with_grm(
        Partition(5), f, lambda: grm, use_incidence=False
    )
    fixpoint = sigs.refine_partition_with_grm(
        Partition(5), f, lambda: grm, use_incidence=True
    )
    assert len(fixpoint.blocks) >= len(one_round.blocks)
    assert fixpoint.block_sizes() == [2, 2, 1] or fixpoint.is_discrete()


def test_wd_counts_weight_pair_multiplicity():
    f = TruthTable.parity(3)
    sig = sigs.function_signature(f, _canonical_grm(f))
    assert sig.wd == (((2, 2), 3),)
    assert sig.fw == 4


# ----------------------------------------------------------------------
# Refinement parity: the lazy, stop-when-discrete refinement against a
# reference that computes every family's columns up front and runs every
# family, whatever the partition looks like.
# ----------------------------------------------------------------------

def _eager_refine(part, f, grm, use_incidence):
    """Every family, every column, in the refinement's family order."""
    v = sigs.variable_signatures(f, grm)
    infl = sens_mod.influence_vector(f)
    cols = sens_mod.sensitivity_columns(f)
    trail = []

    def run(family, key):
        split = part.refine(key)
        trail.append((family, split, [list(b) for b in part.blocks]))
        return split

    run("weights", lambda x: v.weight_pairs[x])
    run("influence", lambda x: infl[x])
    run("sensitivity", lambda x: cols[x])
    run("vic", lambda x: (v.fvc[x], v.vic_columns[x]))
    run("primes", lambda x: (v.pcv[x], v.pcvic_columns[x]))
    split = part.refine(lambda x: v.finc[x])
    inc = grm.incidence_matrix()
    for _ in range(10**9 if use_incidence else 1):
        snapshot = [tuple(b) for b in part.blocks]
        round_split = part.refine(
            lambda x: tuple(
                tuple(sorted(inc[x][w] for w in b if w != x)) for b in snapshot
            )
        )
        split = split or round_split
        if not round_split:
            break
    trail.append(("inc", split, [list(b) for b in part.blocks]))
    return trail


def _structural_partition(f, dec):
    part = Partition(f.n)
    part.refine(lambda x: ((dec.vacuous_mask >> x) & 1, (dec.hard_mask >> x) & 1))
    return part


def _refine_trail(part, f, grm, use_incidence):
    with obs_runtime.capture() as (_reg, ring):
        sigs.refine_partition_with_grm(
            part, f, lambda: grm, use_incidence=use_incidence
        )
    events = []
    for rec in ring.records():
        events.extend(rec.get("events", ()))
        if rec.get("kind") == "event":
            events.append(rec)
    return [
        (e["attrs"]["family"], e["attrs"]["split"], e["attrs"]["blocks"])
        for e in events
        if e["name"] == "refine"
    ]


def _parity_functions():
    rng = random.Random(0x5EED)
    fns = []
    for n in range(1, 9):
        fns += [TruthTable.random(n, rng) for _ in range(10 if n < 8 else 4)]
    for n in range(1, 6):
        fns += [TruthTable.zero(n), TruthTable.one(n), TruthTable.parity(n)]
    fns += [majority(n) for n in (3, 5, 7)]
    for n in (3, 4, 6):
        fns += [
            symmetric_function(n, [rng.getrandbits(1) for _ in range(n + 1)])
            for _ in range(3)
        ]
    for pair in corpus.load_weight_twins("tests/corpus/weight_twins.json"):
        fns += [TruthTable(pair.n, pair.f_bits), TruthTable(pair.n, pair.g_bits)]
    return fns


@pytest.mark.parametrize("use_incidence", [True, False])
def test_refinement_matches_eager_reference(use_incidence):
    checked = discrete = 0
    for f in _parity_functions():
        for dec in decide_polarity(f):
            for w in hard_completions(f, dec, 64)[:4]:
                grm = Grm.from_truthtable(f, w)
                expected = _eager_refine(
                    _structural_partition(f, dec), f, grm, use_incidence
                )
                part = _structural_partition(f, dec)
                got = _refine_trail(part, f, grm, use_incidence)
                assert got == expected, (f.n, hex(f.bits), w)
                assert [list(b) for b in part.blocks] == expected[-1][2]
                checked += 1
                discrete += part.is_discrete()
    # Both sides of the early exit are exercised.
    assert 0 < discrete < checked


def test_refinement_builds_no_form_once_discrete():
    f = TruthTable.random(6, random.Random(3))
    dec = decide_polarity(f)[0]
    calls = []

    def form():
        calls.append(1)
        return Grm.from_truthtable(f, dec.polarity)

    part = sigs.refine_partition_with_grm(_structural_partition(f, dec), f, form)
    assert part.is_discrete()
    assert calls == []
    # A non-discrete partition after the truth-table families calls it.
    g = TruthTable.var(3, 0) ^ (TruthTable.var(3, 1) & TruthTable.var(3, 2))
    calls_g = []

    def form_g():
        calls_g.append(1)
        return Grm.from_truthtable(g, 0b111)

    part_g = sigs.refine_partition_with_grm(Partition(3), g, form_g)
    assert part_g.block_sizes() == [1, 2]
    assert calls_g
