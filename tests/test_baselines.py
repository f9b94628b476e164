"""Tests for the baseline matchers and symmetry checkers."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines import exhaustive, naive_symmetry, signature_matcher
from repro.boolfunc.transform import NpnTransform, random_equivalent_pair
from repro.boolfunc.truthtable import TruthTable
from repro.core import symmetry as sym
from repro.core.errors import InvariantError
from repro.core.matcher import match
from tests.conftest import truth_tables


# ----------------------------------------------------------------------
# Exhaustive
# ----------------------------------------------------------------------

@given(truth_tables(1, 3), st.data())
def test_exhaustive_canonical_is_invariant(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    g = NpnTransform(perm, neg, data.draw(st.booleans())).apply(f)
    assert exhaustive.canonicalize(f)[0] == exhaustive.canonicalize(g)[0]


def test_exhaustive_canonical_transform_reaches_canonical():
    f = TruthTable.from_minterms(3, [1, 2, 4])
    canon, t = exhaustive.canonicalize(f)
    assert t.apply(f) == canon


def test_exhaustive_without_transforms_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(exhaustive, "all_transforms", lambda n, **kw: iter(()))
    with pytest.raises(InvariantError):
        exhaustive.canonicalize(TruthTable.var(2, 0))


def test_exhaustive_class_counts():
    assert exhaustive.npn_class_count(1) == 2
    assert exhaustive.npn_class_count(2) == 4


def test_exhaustive_match_finds_transform(rng):
    f, g, _ = random_equivalent_pair(3, rng)
    t = exhaustive.match(f, g)
    assert t is not None and t.apply(f) == g
    assert exhaustive.match(TruthTable.zero(2), TruthTable.zero(3)) is None


# ----------------------------------------------------------------------
# Signature-only matcher
# ----------------------------------------------------------------------

@given(truth_tables(1, 5), st.data())
def test_signature_matcher_sound_and_complete_on_equivalents(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    out = data.draw(st.booleans())
    g = NpnTransform(perm, neg, out).apply(f)
    t = signature_matcher.match(f, g)
    assert t is not None and t.apply(f) == g


@given(truth_tables(1, 4), truth_tables(1, 4))
def test_signature_matcher_agrees_with_grm_matcher(f, g):
    if f.n != g.n:
        return
    assert (signature_matcher.match(f, g) is not None) == (match(f, g) is not None)


def test_signature_matcher_counts_work(rng):
    stats = signature_matcher.SignatureMatchStats()
    f, g, _ = random_equivalent_pair(5, rng)
    t = signature_matcher.match(f, g, stats)
    assert t is not None
    assert stats.permutations_tried >= 1


def test_signature_matcher_residual_blowup_guard():
    # Parity leaves all variables in one signature block; the residual
    # permutation search explodes and must be refused, not attempted.
    f = TruthTable.parity(10)
    with pytest.raises(RuntimeError):
        signature_matcher.np_match(f, f, max_block_permutations=100)


# ----------------------------------------------------------------------
# Naive symmetry baseline
# ----------------------------------------------------------------------

@given(truth_tables(2, 5))
def test_naive_and_bdd_and_grm_symmetries_agree(f):
    naive = naive_symmetry.all_pair_symmetries_naive(f)
    bdd = naive_symmetry.all_pair_symmetries_bdd(f)
    grm = sym.all_pair_symmetries_via_grm(f)
    assert naive == bdd == grm


@given(truth_tables(2, 5))
def test_naive_total_symmetry_agrees(f):
    assert naive_symmetry.is_totally_symmetric_naive(f) == sym.is_totally_symmetric(f)
