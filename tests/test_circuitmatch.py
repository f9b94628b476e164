"""Tests for circuit-level matching (logic verification)."""

import random

import pytest

from repro.benchcircuits import build_circuit
from repro.benchcircuits.generators import BenchmarkCircuit, OutputFunction
from repro.boolfunc.truthtable import TruthTable
from repro.core.circuitmatch import (
    CircuitMatchBudgetError,
    _phase_assignments,
    match_circuits,
    scramble_circuit,
    verify_correspondence,
)

CIRCUITS = ["con1", "z4ml", "rd73", "cm138a", "misex1", "b1", "x2", "ldd"]


@pytest.mark.parametrize("name", CIRCUITS)
def test_scrambled_circuit_recovered(name, rng):
    spec = build_circuit(name)
    impl, hidden = scramble_circuit(spec, rng)
    assert verify_correspondence(spec, impl, hidden)
    corr = match_circuits(spec, impl)
    assert corr is not None
    assert verify_correspondence(spec, impl, corr)


def test_identity_correspondence(rng):
    spec = build_circuit("rd73")
    corr = match_circuits(spec, spec)
    assert corr is not None
    assert verify_correspondence(spec, spec, corr)


def test_different_circuits_rejected():
    assert match_circuits(build_circuit("con1"), build_circuit("z4ml")) is None


def test_shape_mismatches_rejected():
    a = build_circuit("con1")
    b = BenchmarkCircuit("small", a.n_inputs - 1, [])
    assert match_circuits(a, b) is None


def test_single_minterm_bug_detected(rng):
    spec = build_circuit("rd73")
    impl, _ = scramble_circuit(spec, rng)
    victim = impl.outputs[1]
    impl.outputs[1] = OutputFunction(
        victim.name,
        victim.table ^ TruthTable.from_minterms(victim.table.n, [5]),
        victim.support,
    )
    assert match_circuits(spec, impl) is None


def test_output_swap_within_class_is_fine(rng):
    # cm138a's eight outputs are one npn class; swapping them still
    # yields an equivalent circuit and the matcher must find a pairing.
    spec = build_circuit("cm138a")
    impl, _ = scramble_circuit(spec, rng)
    corr = match_circuits(spec, impl)
    assert corr is not None
    assert verify_correspondence(spec, impl, corr)


def test_phase_assignments_basics():
    f = TruthTable.var(2, 0) & ~TruthTable.var(2, 1)
    # g = f with both phases flipped and variables swapped.
    g = ~TruthTable.var(2, 1) & TruthTable.var(2, 0)
    # perm maps f-var 0 -> g-var 0?  Try identity and swap.
    found = 0
    for perm in ((0, 1), (1, 0)):
        for mask, out in _phase_assignments(f, g, perm, {}):
            cand = f.negate_inputs(mask).permute_vars(perm)
            assert cand == (~g if out else g)
            found += 1
    assert found >= 1


def test_phase_assignments_respect_fixed_bits():
    f = TruthTable.parity(3)
    g = TruthTable.parity(3)
    free = list(_phase_assignments(f, g, (0, 1, 2), {}))
    # Parity: any even number of input flips works (with matching output
    # phase), so there are 8 assignments in total across output phases.
    assert len(free) == 8
    pinned = list(_phase_assignments(f, g, (0, 1, 2), {0: 1, 1: 0}))
    assert all(mask & 1 for mask, _ in pinned)
    assert all(not (mask >> 1) & 1 for mask, _ in pinned)
    assert len(pinned) == 2


def test_wide_balanced_output_matches_lazily():
    # 16 balanced variables in one output: the lazy phase enumeration
    # must find a consistent assignment without exhausting 2**16 masks.
    spec = build_circuit("parity")
    impl, _ = scramble_circuit(build_circuit("parity"), random.Random(1))
    corr = match_circuits(spec, impl)
    assert corr is not None and verify_correspondence(spec, impl, corr)


def test_budget_error_raised():
    # Shrinking the lazy-enumeration limit forces the budget error.
    from repro.core import circuitmatch as cm

    f = TruthTable.parity(10)
    with pytest.raises(CircuitMatchBudgetError):
        list(cm._phase_assignments(f, f, tuple(range(10)), {}, limit=4))


def test_verify_rejects_wrong_correspondence(rng):
    spec = build_circuit("con1")
    impl, hidden = scramble_circuit(spec, rng)
    wrong = hidden.__class__(
        output_mapping=hidden.output_mapping,
        output_phases=tuple(not p for p in hidden.output_phases),
        input_mapping=hidden.input_mapping,
        input_phases=hidden.input_phases,
    )
    assert not verify_correspondence(spec, impl, wrong)


def test_failed_reverification_raises_real_error(monkeypatch):
    # The final re-check must survive ``python -O``: a correspondence
    # that fails it raises, never comes back as a verdict.
    from repro.core import circuitmatch as cm

    spec = build_circuit("rd73")
    monkeypatch.setattr(cm, "verify_correspondence", lambda *args: False)
    with pytest.raises(cm.CircuitMatchError) as info:
        match_circuits(spec, spec)
    assert not isinstance(info.value, AssertionError)
