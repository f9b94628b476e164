"""Differential tests of cut enumeration with carried truth tables.

The enumeration builds each cut's table by stretching and ANDing its
fanin cuts' tables; the reference is :meth:`Aig.cut_function`, which
re-simulates the cone from scratch.  The catalog is checked against a
reference built here the old way: an independent set-based enumeration
followed by one ``cut_function`` call per cut.
"""

import random

import pytest

from repro.aig import FALSE, Aig, Cut, catalog_cut_functions, enumerate_cuts
from repro.aig.cuts import leaf_sign
from repro.benchcircuits import build_circuit
from repro.benchcircuits.suite import EXTRA_CIRCUITS, TABLE1_CIRCUITS
from repro.boolfunc.truthtable import TruthTable

REGISTRY_SUBSET = ["rd73", "z4ml", "alu2", "9sym", "cm150a", "count"]
K_VALUES = [2, 3, 4, 5, 6]
MAX_CUTS = [2, 4, 16]


def _aig(name: str) -> Aig:
    return Aig.from_netlist(build_circuit(name).to_netlist())


def random_reconvergent_aig(rng: random.Random, n_inputs: int, steps: int) -> Aig:
    """A seeded AIG whose XOR/MUX/AND steps reuse recent literals, so
    cones share nodes and cut merges see overlapping leaf sets."""
    aig = Aig(n_inputs)
    pool = [aig.input_literal(i) for i in range(n_inputs)]
    for _ in range(steps):
        recent = pool[-6:]
        a = rng.choice(recent) ^ rng.getrandbits(1)
        b = rng.choice(pool) ^ rng.getrandbits(1)
        op = rng.randrange(3)
        if op == 0:
            out = aig.and_(a, b)
        elif op == 1:
            out = aig.xor_(a, b)
        else:
            out = aig.mux_(rng.choice(pool), a, b)
        if out > 1:
            pool.append(out)
    for idx, literal in enumerate(pool[-3:]):
        aig.add_output(f"o{idx}", literal)
    return aig


def random_aigs(seed: int, count: int):
    rng = random.Random(seed)
    return [
        random_reconvergent_aig(rng, rng.randint(3, 8), rng.randint(4, 30))
        for _ in range(count)
    ]


def assert_truths_match_reference(aig: Aig, k: int, max_cuts: int) -> int:
    cuts = enumerate_cuts(aig, k, max_cuts)
    checked = 0
    for node, node_cuts in cuts.items():
        if node == FALSE:
            continue
        for cut in node_cuts:
            want = aig.cut_function(node, cut.leaves)
            assert cut.truth == want.bits, (node, cut, want)
            assert cut.sign == leaf_sign(cut.leaves)
            checked += 1
    return checked


# ----------------------------------------------------------------------
# Reference: the enumeration and catalog as they were before tables
# were carried (set-based merge and dominance, one cone simulation per cut)
# ----------------------------------------------------------------------

def reference_cut_leaves(aig: Aig, k: int, max_cuts: int):
    cuts = {FALSE: [()]}
    for idx in range(1, aig.n_inputs + 1):
        cuts[idx] = [(idx,)]
    for node in aig.and_nodes():
        fa, fb = aig.fanins(node)
        merged = set()
        for la in cuts[fa >> 1]:
            for lb in cuts[fb >> 1]:
                union = set(la) | set(lb)
                if len(union) <= k:
                    merged.add(tuple(sorted(union)))
        kept = []
        for leaves in sorted(merged, key=lambda t: (len(t), t)):
            if any(set(small) <= set(leaves) for small in kept):
                continue
            kept.append(leaves)
            if len(kept) >= max_cuts:
                break
        kept.append((node,))
        cuts[node] = kept
    return cuts


def reference_catalog(aig: Aig, cut_leaves):
    node_cuts = {}
    distinct_by_width = {}
    seen = set()
    evaluated = 0
    for node in aig.and_nodes():
        entries = []
        for leaves in cut_leaves[node]:
            if leaves == (node,):
                continue
            function = aig.cut_function(node, leaves)
            evaluated += 1
            key = (function.n, function.bits)
            if key not in seen:
                seen.add(key)
                distinct_by_width.setdefault(key[0], []).append(key)
            entries.append((leaves, key))
        node_cuts[node] = entries
    return node_cuts, distinct_by_width, evaluated


def assert_catalog_matches_reference(aig: Aig, k: int = 4, max_cuts: int = 16) -> None:
    ref_leaves = reference_cut_leaves(aig, k, max_cuts)
    cuts = enumerate_cuts(aig, k, max_cuts)
    assert {v: [c.leaves for c in cs] for v, cs in cuts.items()} == ref_leaves
    catalog = catalog_cut_functions(aig, cuts)
    node_cuts, distinct_by_width, evaluated = reference_catalog(aig, ref_leaves)
    got = {v: [(c.leaves, key) for c, key in entries] for v, entries in catalog.node_cuts.items()}
    assert list(got) == list(node_cuts)
    assert got == node_cuts
    assert list(catalog.distinct_by_width) == list(distinct_by_width)
    assert catalog.distinct_by_width == distinct_by_width
    assert catalog.cut_functions_evaluated == evaluated


# ----------------------------------------------------------------------
# Carried tables equal the cone simulation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("max_cuts", MAX_CUTS)
@pytest.mark.parametrize("k", K_VALUES)
def test_random_reconvergent_truths_match_cut_function(k, max_cuts):
    checked = sum(
        assert_truths_match_reference(aig, k, max_cuts)
        for aig in random_aigs(1000 * k + max_cuts, 25)
    )
    assert checked > 0


@pytest.mark.parametrize("max_cuts", MAX_CUTS)
@pytest.mark.parametrize("k", K_VALUES)
def test_registry_truths_match_cut_function(k, max_cuts):
    for name in REGISTRY_SUBSET[:3]:
        assert assert_truths_match_reference(_aig(name), k, max_cuts) > 0


def test_trivial_and_constant_cuts_carry_projection_and_zero():
    aig = Aig(2)
    ab = aig.and_(aig.input_literal(0), aig.input_literal(1))
    cuts = enumerate_cuts(aig, k=2)
    x0 = TruthTable.var(1, 0).bits
    assert [c.truth for c in cuts[1]] == [x0]
    assert cuts[ab >> 1][-1].leaves == (ab >> 1,)
    assert cuts[ab >> 1][-1].truth == x0
    assert [(c.leaves, c.truth) for c in cuts[FALSE]] == [((), 0)]


# ----------------------------------------------------------------------
# Cut identity and the leaf signature
# ----------------------------------------------------------------------

def test_cut_equality_and_hash_ignore_truth():
    a = Cut((1, 2), truth=0b1000)
    b = Cut((1, 2))
    assert a == b and hash(a) == hash(b)
    assert b in [Cut((1, 2), truth=0b0110)]
    assert Cut((1, 2)) != Cut((1, 3))


def test_dominance_is_exact_when_signatures_collide():
    # Leaves 1 and 65 share signature bit 1, so the signature test
    # passes; the exact subset check must still reject.
    small, big = Cut((1,)), Cut((2, 65))
    assert small.sign & ~big.sign == 0
    assert not small.dominates(big)
    assert Cut((2,)).dominates(big)
    assert not big.dominates(Cut((2,)))


def test_merge_is_exact_when_signatures_collide():
    # Inputs 1 and 65 collide in the signature; with k=2 the union
    # {1, 65, x} of three leaves must still be rejected.
    aig = Aig(66)
    x1, x65, x2 = (aig.input_literal(i) for i in (0, 64, 1))
    top = aig.and_(aig.and_(x1, x65), x2)
    leaves = [c.leaves for c in enumerate_cuts(aig, k=2)[top >> 1]]
    assert all(len(l) <= 2 for l in leaves)
    assert (1, 2, 65) in [c.leaves for c in enumerate_cuts(aig, k=3)[top >> 1]]


# ----------------------------------------------------------------------
# Catalog parity with the cut_function loop
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", REGISTRY_SUBSET)
def test_registry_catalog_matches_reference(name):
    assert_catalog_matches_reference(_aig(name))


@pytest.mark.parametrize("max_cuts", MAX_CUTS)
@pytest.mark.parametrize("k", K_VALUES)
def test_random_catalog_matches_reference(k, max_cuts):
    for aig in random_aigs(7000 + 10 * k + max_cuts, 10):
        assert_catalog_matches_reference(aig, k, max_cuts)


@pytest.mark.slow
@pytest.mark.parametrize(
    "name", [spec.name for spec in TABLE1_CIRCUITS + EXTRA_CIRCUITS]
)
def test_full_registry_catalog_matches_reference(name):
    assert_catalog_matches_reference(_aig(name))
