"""Tests for GRM-driven npn canonicalization."""

import hashlib
import random

import pytest
from hypothesis import given, strategies as st

from repro.baselines import exhaustive
from repro.boolfunc.transform import NpnTransform
from repro.boolfunc.truthtable import TruthTable
from repro.core import canonical as canonical_mod
from repro.core.canonical import canonical_form, classify, npn_class_count
from repro.core.errors import CanonicalizationBudgetError, InvariantError
from repro.core.matcher import DEFAULT_OPTIONS, _refined_partition
from repro.core.polarity import decide_polarity, hard_completions, phase_candidates
from repro.grm.forms import Grm
from repro.testing.workloads import make_random_batch
from tests.conftest import truth_tables


@given(truth_tables(1, 5))
def test_canonical_form_is_reachable(f):
    canon, t = canonical_form(f)
    assert t.apply(f) == canon


@given(truth_tables(1, 5), st.data())
def test_canonical_form_is_invariant(f, data):
    n = f.n
    perm = tuple(data.draw(st.permutations(range(n))))
    neg = data.draw(st.integers(0, (1 << n) - 1))
    out = data.draw(st.booleans())
    g = NpnTransform(perm, neg, out).apply(f)
    assert canonical_form(f)[0] == canonical_form(g)[0]


@given(truth_tables(1, 4), truth_tables(1, 4))
def test_canonical_equality_iff_equivalent(f, g):
    if f.n != g.n:
        return
    same_class = exhaustive.is_npn_equivalent(f, g)
    assert (canonical_form(f)[0] == canonical_form(g)[0]) == same_class


def test_class_counts_small_n():
    assert npn_class_count(1) == 2
    assert npn_class_count(2) == 4
    assert npn_class_count(3) == 14


@pytest.mark.slow
def test_n4_classes_sampled_against_exhaustive(rng):
    """Spot-check n=4 (full 222-class run lives in the benchmark)."""
    sample = [TruthTable(4, rng.getrandbits(16)) for _ in range(120)]
    ours = classify(sample)
    theirs = {}
    for f in sample:
        canon, _ = exhaustive.canonicalize(f)
        theirs.setdefault(canon.bits, []).append(f)
    assert len(ours) == len(theirs)
    # The groupings themselves must agree, not just the counts.
    ours_sets = {frozenset(x.bits for x in grp) for grp in ours.values()}
    theirs_sets = {frozenset(x.bits for x in grp) for grp in theirs.values()}
    assert ours_sets == theirs_sets


def test_zero_variable_canonicalization():
    canon, t = canonical_form(TruthTable.one(0))
    assert canon == TruthTable.zero(0)
    assert t.output_neg


def test_classify_groups_equivalents(rng):
    f = TruthTable.random(4, rng)
    variants = [NpnTransform.random(4, rng).apply(f) for _ in range(5)]
    classes = classify([f] + variants)
    assert len(classes) == 1


# Store shards persist canonical keys, so the keys and the transforms
# reaching them must never drift.  The digest was recorded by running
# the eager refinement (every signature family, every ordering) that
# preceded the stop-when-discrete fast path.
GOLDEN_SIZES = {3: 256, 4: 256, 5: 192, 6: 128, 7: 64, 8: 32}
GOLDEN_DIGEST = "8fc92043a417fcb983c99eb92f2a07345763efd5d60f81e89804a1d014d90ec4"


def test_canonical_forms_match_golden_digest():
    h = hashlib.sha256()
    for n, size in GOLDEN_SIZES.items():
        for f in make_random_batch(size, random.Random(1000 + n), n):
            canon, t = canonical_form(f)
            h.update(repr((canon.bits, t.perm, t.input_neg, t.output_neg)).encode())
    assert h.hexdigest() == GOLDEN_DIGEST


def _all_partitions_discrete(f):
    for ff, _ in phase_candidates(f):
        for dec in decide_polarity(ff):
            for w in hard_completions(ff, dec, DEFAULT_OPTIONS.hard_enumeration_limit):
                grm = Grm.from_truthtable(ff, w)
                if not _refined_partition(ff, lambda: grm, dec, DEFAULT_OPTIONS).is_discrete():
                    return False
    return True


def test_budget_still_raised_on_discrete_partition():
    f = TruthTable.random(6, random.Random(3))
    assert _all_partitions_discrete(f)
    with pytest.raises(CanonicalizationBudgetError) as info:
        canonical_form(f, max_orderings=0)
    assert (info.value.n, info.value.bits) == (f.n, f.bits)
    canonical_form(f, max_orderings=1)  # one ordering per candidate suffices


def test_no_candidate_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(canonical_mod, "phase_candidates", lambda f: [])
    with pytest.raises(InvariantError):
        canonical_form(TruthTable.var(3, 0))
