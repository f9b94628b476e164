"""Signatures for Boolean matching (Section 4 of the paper).

Three signature sources:

* **on-set weights** (Section 4.1): the functional weight ``fw = |f|``,
  the weight-distribution vector ``wd``, and the per-variable cofactor
  weight pair ``(ncw, pcw)`` — np-invariant as an unordered pair
  (Theorem 3).
* **influence & sensitivity** (:mod:`repro.core.sensitivity`, from the
  post-paper literature): the per-variable Boolean-difference weight
  ``inf_i`` and the per-variable sensitivity columns.  Both depend only
  on the truth table (not the GRM form), cost ``O(n)`` / ``O(n**2)``
  popcounts, and frequently split weight-tied variables before any
  GRM-derived signature is consulted.
* **the GRM form** (Section 4.2): cube-length distributions (VIC, FC,
  FVC), incidence counts (INC, FINC), and the prime-cube statistics
  (PC, PCV, PCvic, PCinc).

Function-level signatures gate whether two functions can match at all;
variable-level signatures refine the ordered partition of variables that
bounds the matcher's permutation search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro.boolfunc.truthtable import TruthTable
from repro.core import primes as primes_mod
from repro.core import sensitivity as sens_mod
from repro.grm.forms import Grm
from repro.obs import runtime as _obs
from repro.obs.trace import TRACE_DETAIL
from repro.utils.partition import Partition

DEFAULT_FAMILIES = ("weights", "influence", "sensitivity", "vic", "primes", "inc")
"""Refinement family order (:func:`refine_partition_with_grm` runs the
selected families in this order): truth-table-only families (weights,
influence, sensitivity) run before the GRM-derived ones so the cheap
invariants do as much splitting as possible first."""


@dataclass(frozen=True)
class FunctionSignature:
    """Permutation-invariant summary of one function under one GRM form.

    Any mismatch between two functions' signatures disproves
    np-equivalence of the underlying (phase-normalized) functions.
    """

    n: int
    fw: int
    wd: Tuple[Tuple[Tuple[int, int], int], ...]
    fc: Tuple[int, ...]
    fvc_multiset: Tuple[int, ...]
    finc_multiset: Tuple[int, ...]
    pc: int
    pcv_multiset: Tuple[int, ...]
    num_cubes: int


@dataclass(frozen=True)
class VariableSignatures:
    """Per-variable signature columns for one function under one GRM form."""

    weight_pairs: Tuple[Tuple[int, int], ...]
    vic_columns: Tuple[Tuple[int, ...], ...]
    fvc: Tuple[int, ...]
    finc: Tuple[int, ...]
    pcv: Tuple[int, ...]
    pcvic_columns: Tuple[Tuple[int, ...], ...]


def weight_pair(f: TruthTable, i: int) -> Tuple[int, int]:
    """The np-invariant cofactor weight pair, ordered ``(min, max)``.

    Negating input ``i`` swaps ncw and pcw, so sorting the pair makes it
    invariant under input phase as well as permutation.
    """
    ncw, pcw = f.cofactor_weights()[i]
    return (ncw, pcw) if ncw <= pcw else (pcw, ncw)


def function_signature(f: TruthTable, grm: Grm) -> FunctionSignature:
    """Build the functional-level signature of ``f`` under ``grm``."""
    pairs = [weight_pair(f, i) for i in range(f.n)]
    wd = tuple(sorted(Counter(pairs).items()))
    pcv = primes_mod.prime_count_vector(grm)
    primes = grm.prime_cubes()
    return FunctionSignature(
        n=f.n,
        fw=f.count(),
        wd=wd,
        fc=grm.cube_length_histogram(),
        fvc_multiset=tuple(sorted(grm.variable_cube_counts())),
        finc_multiset=tuple(sorted(grm.incidence_totals())),
        pc=len(primes),
        pcv_multiset=tuple(sorted(pcv)),
        num_cubes=grm.num_cubes(),
    )


def variable_signatures(f: TruthTable, grm: Grm) -> VariableSignatures:
    """Build the per-variable signature columns of ``f`` under ``grm``."""
    n = f.n
    vic = grm.variable_inclusion_counts()
    pcvic = primes_mod.prime_vic(grm)
    return VariableSignatures(
        weight_pairs=tuple(weight_pair(f, i) for i in range(n)),
        vic_columns=tuple(tuple(vic[k][j] for k in range(n + 1)) for j in range(n)),
        fvc=grm.variable_cube_counts(),
        finc=grm.incidence_totals(),
        pcv=tuple(primes_mod.prime_count_vector(grm)),
        pcvic_columns=tuple(tuple(pcvic[k][j] for k in range(n + 1)) for j in range(n)),
    )


def refine_partition_with_grm(
    partition: Partition,
    f: TruthTable,
    form: Callable[[], Grm],
    use_incidence: bool = True,
    inc_rounds: Optional[int] = None,
    signature_families: Sequence[str] = DEFAULT_FAMILIES,
) -> Partition:
    """Refine a variable partition with every signature the form offers.

    ``signature_families`` selects which families participate — the
    ablation benchmark switches them off one at a time.  Incidence
    refinement keys each variable on the multiset of its INC counts
    toward every current block; ``inc_rounds`` bounds how often that is
    repeated (1 = the paper's static signature comparison, ``None`` with
    ``use_incidence`` = iterate to a Weisfeiler-Lehman-style fixpoint —
    our enhancement).

    Each family computes its columns only when it runs, and none runs
    once the partition is discrete: refinement only splits blocks, and a
    singleton cannot split, so the result is the same as running them
    all.  ``form`` is a zero-argument callable returning the GRM form;
    it is called only when a GRM-derived family (vic, primes, inc) runs.
    Under ``TRACE_DETAIL`` a skipped family still emits its ``refine``
    event (``split=False``), so the trail does not depend on the skip.
    """
    fams = set(signature_families)
    tr = _obs.tracer
    detail = tr.wants(TRACE_DETAIL)
    n = f.n
    for family in DEFAULT_FAMILIES:
        if family not in fams:
            continue
        if partition.is_discrete():
            split = False
        elif family == "weights":
            split = partition.refine(lambda v: weight_pair(f, v))
        elif family == "influence":
            infl = sens_mod.influence_vector(f)
            split = partition.refine(infl.__getitem__)
        elif family == "sensitivity":
            cols = sens_mod.sensitivity_columns(f)
            split = partition.refine(cols.__getitem__)
        elif family == "vic":
            g = form()
            fvc = g.variable_cube_counts()
            vic = g.variable_inclusion_counts()
            split = partition.refine(
                lambda v: (fvc[v], tuple(vic[k][v] for k in range(n + 1)))
            )
        elif family == "primes":
            g = form()
            pcv = primes_mod.prime_count_vector(g)
            pcvic = primes_mod.prime_vic(g)
            split = partition.refine(
                lambda v: (pcv[v], tuple(pcvic[k][v] for k in range(n + 1)))
            )
        else:
            split = _refine_incidence(partition, form(), use_incidence, inc_rounds)
        if detail:
            tr.event(
                "refine",
                family=family,
                split=split,
                blocks=[list(b) for b in partition.blocks],
            )
    return partition


def _refine_incidence(
    partition: Partition, grm: Grm, use_incidence: bool, inc_rounds: Optional[int]
) -> bool:
    """The inc family: FINC, then INC counts toward the current blocks."""
    finc = grm.incidence_totals()
    split = partition.refine(finc.__getitem__)
    if inc_rounds is None:
        inc_rounds = 10**9 if use_incidence else 1
    inc = grm.incidence_matrix()
    for _ in range(inc_rounds):
        blocks_snapshot = [tuple(b) for b in partition.blocks]

        def inc_key(v: int) -> Tuple:
            return tuple(
                tuple(sorted(inc[v][w] for w in block if w != v))
                for block in blocks_snapshot
            )

        round_split = partition.refine(inc_key)
        split = split or round_split
        if not round_split:
            break
    return split


def signatures_equal_for_matching(a: FunctionSignature, b: FunctionSignature) -> bool:
    """Functional-level gate used by the matcher before any search."""
    return a == b
