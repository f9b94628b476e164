"""Circuit-level Boolean matching (logic verification, Section 1 and 7).

The paper's second application: two multi-output circuit descriptions
whose input/output correspondence has been lost must be checked for
equivalence under a *global* input permutation, per-input phases, an
output permutation, and per-output phases.  Section 7 observes that in
practice "every variable can be differentiated in one of the output
functions"; this module turns that observation into a verifier:

1. outputs are grouped by np-invariant class keys;
2. inputs are partitioned by global signature vectors (their weight
   pairs inside every output they feed, iterated Weisfeiler-Lehman
   style over the input/output incidence structure);
3. a backtracking assignment maps outputs and inputs simultaneously,
   verifying every completed output pair on its truth tables (finding
   per-output input phases consistent with the global phase choices);
4. the returned correspondence is re-verified wholesale, so a reported
   match is sound by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.benchcircuits.generators import BenchmarkCircuit, OutputFunction
from repro.boolfunc.truthtable import TruthTable
from repro.core.signatures import weight_pair



@dataclass(frozen=True)
class CircuitCorrespondence:
    """A witnessing correspondence between two circuits.

    ``output_mapping[i]`` is the impl output implementing spec output
    ``i`` (``output_phases[i]`` set = inverted); ``input_mapping[a]`` is
    the impl input driving spec input ``a`` (``input_phases`` bit ``a``
    set = through an inverter).  Spec inputs unused by every output map
    to arbitrary unused impl inputs.
    """

    output_mapping: Tuple[int, ...]
    output_phases: Tuple[bool, ...]
    input_mapping: Tuple[int, ...]
    input_phases: int


class CircuitMatchBudgetError(RuntimeError):
    """Raised when the verification search exceeds its node budget."""


class CircuitMatchError(RuntimeError):
    """The search built a correspondence that fails the independent
    re-check: an internal fault, raised instead of returning a wrong
    verdict (and, unlike an ``assert``, still raised under ``-O``)."""


# ----------------------------------------------------------------------
# Invariant keys
# ----------------------------------------------------------------------

def _output_class_key(out: OutputFunction) -> Tuple:
    """An np(n)-invariant key for pairing outputs across circuits."""
    tt = out.table
    n = tt.n
    weight = min(tt.count(), (1 << n) - tt.count())
    pairs = sorted(
        tuple(sorted((weight_pair(tt, v), weight_pair((~tt), v))))
        for v in range(n)
    )
    return (n, weight, tuple(pairs))


def _input_keys(circuit: BenchmarkCircuit, output_keys: Sequence[Tuple]) -> List[Tuple]:
    """Global np-invariant signature vector per circuit input."""
    per_input: List[List[Tuple]] = [[] for _ in range(circuit.n_inputs)]
    for out, okey in zip(circuit.outputs, output_keys):
        tt = out.table
        for local, global_idx in enumerate(out.support):
            wp = weight_pair(tt, local)
            wp_c = weight_pair(~tt, local)
            per_input[global_idx].append((okey, tuple(sorted((wp, wp_c)))))
    return [tuple(sorted(entries)) for entries in per_input]


# ----------------------------------------------------------------------
# Per-output phase search
# ----------------------------------------------------------------------

def _phase_assignments(
    f: TruthTable,
    g: TruthTable,
    perm: Sequence[int],
    fixed: Dict[int, int],
    limit: int = 1 << 16,
):
    """Yield every ``(phase_mask, output_phase)`` with
    ``g == out ⊕ f(x_i = y[perm[i]] ⊕ mask_i)``.

    ``perm[i]`` is the g-variable driving f-variable ``i``; ``fixed``
    pins the phase of some f-variables (from global decisions made by
    other outputs).  The output phase is decided by the on-set weights
    (both tried when neutral); each unbalanced variable's phase is then
    forced by cofactor-weight orientation and only genuinely free bits
    are enumerated — lazily, so callers that stop at the first
    consistent assignment do not pay for the rest.
    """
    n = f.n
    fc, gc = f.count(), g.count()
    half = (1 << n) // 2
    out_options = []
    if gc == fc:
        out_options.append(False)
    if gc == (1 << n) - fc:
        out_options.append(True)
    for out in out_options:
        free: List[int] = []
        base = 0
        feasible = True
        for i in range(n):
            if i in fixed:
                base |= fixed[i] << i
                continue
            f0 = f.cofactor_weight(i, 0)
            f1 = f.cofactor_weight(i, 1)
            j = perm[i]
            g0 = g.cofactor_weight(j, 0)
            g1 = g.cofactor_weight(j, 1)
            if out:
                g0, g1 = half - g0, half - g1
            if f0 == f1:
                free.append(i)
            elif (g0, g1) == (f0, f1):
                pass  # positive phase
            elif (g0, g1) == (f1, f0):
                base |= 1 << i
            else:
                feasible = False
                break
        if not feasible:
            continue
        if 1 << len(free) > limit:
            raise CircuitMatchBudgetError(
                f"{len(free)} free phase bits exceed the enumeration limit"
            )
        target = ~g if out else g
        for choice in range(1 << len(free)):
            mask = base
            for k, i in enumerate(free):
                if (choice >> k) & 1:
                    mask |= 1 << i
            if f.negate_inputs(mask).permute_vars(perm) == target:
                yield (mask, out)


# ----------------------------------------------------------------------
# The matcher
# ----------------------------------------------------------------------

def match_circuits(
    spec: BenchmarkCircuit,
    impl: BenchmarkCircuit,
    max_nodes: int = 200_000,
) -> Optional[CircuitCorrespondence]:
    """Find a global correspondence making ``impl`` implement ``spec``.

    Returns ``None`` when provably inequivalent; raises
    :class:`CircuitMatchBudgetError` if the search budget runs out and
    :class:`CircuitMatchError` if the found correspondence fails its
    re-verification (never a wrong verdict).
    """
    if spec.n_inputs != impl.n_inputs or spec.n_outputs != impl.n_outputs:
        return None
    n_in = spec.n_inputs
    n_out = spec.n_outputs

    spec_okeys = [_output_class_key(o) for o in spec.outputs]
    impl_okeys = [_output_class_key(o) for o in impl.outputs]
    if sorted(spec_okeys) != sorted(impl_okeys):
        return None
    spec_ikeys = _input_keys(spec, spec_okeys)
    impl_ikeys = _input_keys(impl, impl_okeys)
    if sorted(spec_ikeys) != sorted(impl_ikeys):
        return None

    # Output processing order: rarest class key first, then widest.
    key_freq: Dict[Tuple, int] = {}
    for k in spec_okeys:
        key_freq[k] = key_freq.get(k, 0) + 1
    out_order = sorted(
        range(n_out),
        key=lambda i: (key_freq[spec_okeys[i]], -len(spec.outputs[i].support)),
    )

    out_map: Dict[int, int] = {}
    out_phase: Dict[int, bool] = {}
    used_impl_out: set = set()
    in_map: Dict[int, int] = {}
    in_phase: Dict[int, int] = {}
    used_impl_in: set = set()
    nodes = [0]

    def bump() -> None:
        nodes[0] += 1
        if nodes[0] > max_nodes:
            raise CircuitMatchBudgetError(f"exceeded {max_nodes} search nodes")

    def try_output(pos: int) -> bool:
        if pos == n_out:
            return True
        s_idx = out_order[pos]
        s_out = spec.outputs[s_idx]
        for i_idx in range(n_out):
            if i_idx in used_impl_out:
                continue
            if impl_okeys[i_idx] != spec_okeys[s_idx]:
                continue
            i_out = impl.outputs[i_idx]
            if len(i_out.support) != len(s_out.support):
                continue
            bump()
            if assign_inputs(s_idx, i_idx, s_out, i_out, pos):
                return True
        return False

    def assign_inputs(
        s_idx: int, i_idx: int, s_out: OutputFunction, i_out: OutputFunction, pos: int
    ) -> bool:
        """Map the supports of one output pair onto each other, then
        verify the pair and recurse into the next output."""
        impl_support = set(i_out.support)
        # Consistency of already-mapped inputs.
        pending: List[int] = []
        for a in s_out.support:
            if a in in_map:
                if in_map[a] not in impl_support:
                    return False
            else:
                pending.append(a)
        taken = {in_map[a] for a in s_out.support if a in in_map}
        candidates_pool = [
            b for b in i_out.support if b not in taken and b not in used_impl_in
        ]
        if len(candidates_pool) != len(pending):
            return False

        def place(k: int) -> bool:
            if k == len(pending):
                return verify_pair(s_idx, i_idx, s_out, i_out, pos)
            a = pending[k]
            for b in candidates_pool:
                if b in used_impl_in:
                    continue
                if impl_ikeys[b] != spec_ikeys[a]:
                    continue
                bump()
                in_map[a] = b
                used_impl_in.add(b)
                if place(k + 1):
                    return True
                del in_map[a]
                used_impl_in.remove(b)
            return False

        out_map[s_idx] = i_idx
        used_impl_out.add(i_idx)
        if place(0):
            return True
        del out_map[s_idx]
        used_impl_out.discard(i_idx)
        return False

    def verify_pair(
        s_idx: int, i_idx: int, s_out: OutputFunction, i_out: OutputFunction, pos: int
    ) -> bool:
        # Induced local permutation: local spec var -> local impl var.
        impl_local = {g: l for l, g in enumerate(i_out.support)}
        perm = [impl_local[in_map[a]] for a in s_out.support]
        fixed = {
            l: in_phase[a]
            for l, a in enumerate(s_out.support)
            if a in in_phase
        }
        for mask, o_phase in _phase_assignments(s_out.table, i_out.table, perm, fixed):
            bump()
            newly = []
            ok = True
            for l, a in enumerate(s_out.support):
                bit = (mask >> l) & 1
                if a in in_phase:
                    if in_phase[a] != bit:
                        ok = False
                        break
                else:
                    in_phase[a] = bit
                    newly.append(a)
            if ok:
                out_phase[s_idx] = o_phase
                if try_output(pos + 1):
                    return True
                del out_phase[s_idx]
            for a in newly:
                del in_phase[a]
        return False

    if not try_output(0):
        return None

    # Unused inputs (outside every support) pair off arbitrarily.
    leftover_impl = [b for b in range(n_in) if b not in used_impl_in]
    for a in range(n_in):
        if a not in in_map:
            in_map[a] = leftover_impl.pop()
            in_phase.setdefault(a, 0)
    phases = 0
    for a, bit in in_phase.items():
        phases |= bit << a
    result = CircuitCorrespondence(
        output_mapping=tuple(out_map[i] for i in range(n_out)),
        output_phases=tuple(out_phase.get(i, False) for i in range(n_out)),
        input_mapping=tuple(in_map[a] for a in range(n_in)),
        input_phases=phases,
    )
    if not verify_correspondence(spec, impl, result):
        raise CircuitMatchError(
            f"correspondence found for {spec.name!r} vs {impl.name!r} "
            f"fails re-verification: {result}"
        )
    return result


def verify_correspondence(
    spec: BenchmarkCircuit, impl: BenchmarkCircuit, corr: CircuitCorrespondence
) -> bool:
    """Independently check a correspondence on every output's table."""
    if sorted(corr.input_mapping) != list(range(spec.n_inputs)):
        return False
    for s_idx, i_idx in enumerate(corr.output_mapping):
        s_out = spec.outputs[s_idx]
        i_out = impl.outputs[i_idx]
        mapped = {corr.input_mapping[a] for a in s_out.support}
        if mapped != set(i_out.support):
            return False
        impl_local = {g: l for l, g in enumerate(i_out.support)}
        perm = [impl_local[corr.input_mapping[a]] for a in s_out.support]
        mask = 0
        for l, a in enumerate(s_out.support):
            mask |= ((corr.input_phases >> a) & 1) << l
        candidate = s_out.table.negate_inputs(mask).permute_vars(perm)
        expected = ~i_out.table if corr.output_phases[s_idx] else i_out.table
        if candidate != expected:
            return False
    return True


# ----------------------------------------------------------------------
# Test/workload utility
# ----------------------------------------------------------------------

def scramble_circuit(
    circuit: BenchmarkCircuit, rng: random.Random, name: Optional[str] = None
) -> Tuple[BenchmarkCircuit, CircuitCorrespondence]:
    """Hide a circuit behind a random global correspondence.

    Returns the scrambled implementation and the hidden correspondence
    (in the same orientation :func:`match_circuits` reports, i.e. the
    returned object satisfies :func:`verify_correspondence`).
    """
    n_in = circuit.n_inputs
    input_perm = list(range(n_in))
    rng.shuffle(input_perm)  # spec input a drives impl input input_perm[a]
    input_phases = rng.getrandbits(n_in) if n_in else 0
    out_positions = list(range(circuit.n_outputs))
    rng.shuffle(out_positions)  # spec output i lands at impl slot out_positions[i]
    out_phases = [bool(rng.getrandbits(1)) for _ in range(circuit.n_outputs)]

    impl_outputs: List[Optional[OutputFunction]] = [None] * circuit.n_outputs
    for s_idx, out in enumerate(circuit.outputs):
        new_support = sorted(input_perm[a] for a in out.support)
        slot_of = {g: l for l, g in enumerate(new_support)}
        perm = [slot_of[input_perm[a]] for a in out.support]
        mask = 0
        for l, a in enumerate(out.support):
            mask |= ((input_phases >> a) & 1) << l
        table = out.table.negate_inputs(mask).permute_vars(perm)
        if out_phases[s_idx]:
            table = ~table
        impl_outputs[out_positions[s_idx]] = OutputFunction(
            out.name, table, tuple(new_support)
        )
    impl = BenchmarkCircuit(
        name or f"{circuit.name}-scrambled",
        n_in,
        [o for o in impl_outputs if o is not None],
    )
    hidden = CircuitCorrespondence(
        output_mapping=tuple(out_positions),
        output_phases=tuple(out_phases),
        input_mapping=tuple(input_perm),
        input_phases=input_phases,
    )
    return impl, hidden
