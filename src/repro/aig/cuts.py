"""K-feasible cut enumeration on AIGs, with each cut's truth table.

A *cut* of node ``v`` is a set of nodes (leaves) such that every path
from the primary inputs to ``v`` passes through a leaf; it is
k-feasible when it has at most ``k`` leaves.  The mapper matches the
local function of each cut against the library.

Standard bottom-up enumeration: the cuts of an AND node are the merged
pairs of its fanins' cuts (unions of at most ``k`` leaves), plus the
trivial cut ``{v}``; dominated cuts (supersets of another cut) are
pruned and the per-node list is truncated to the smallest few.

Truth tables are carried through the merge, as ABC and mockturtle's
``cut_enumeration`` with ``compute_truth`` do: each surviving merged
cut stretches its two fanin cuts' tables onto the merged leaf set,
complements a table whose fanin edge is complemented, and ANDs the two.
No cone is ever re-simulated; :meth:`Aig.cut_function` is kept as the
reference the verifier and the differential tests check against.  Each
cut also carries a 64-bit leaf signature (ABC's ``uSign``: the OR of
``1 << (leaf & 63)``), so most oversized merges are rejected by one
popcount and most dominance tests by one AND.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Tuple

from repro.aig.graph import FALSE, Aig, lit_compl, lit_var
from repro.utils import bitops

_VAR0 = 0b10
"""The projection ``x0`` over one variable: the table of a trivial cut."""


def leaf_sign(leaves: Iterable[int]) -> int:
    """The 64-bit leaf signature: OR of ``1 << (leaf & 63)``."""
    sign = 0
    for leaf in leaves:
        sign |= 1 << (leaf & 63)
    return sign


class Cut:
    """A sorted tuple of leaf node ids and the node's function over them.

    ``truth`` is the packed table of the local function over
    ``len(leaves)`` variables, variable ``i`` being ``leaves[i]`` (the
    bit convention of :meth:`TruthTable.var`); it is ``None`` on a cut
    built by hand rather than by :func:`enumerate_cuts`.  ``sign`` is
    the leaf signature.  Equality and hashing look at the leaves only:
    a node has one function over a given leaf set, so two cuts of the
    same node with equal leaves are the same cut.
    """

    __slots__ = ("leaves", "truth", "sign")

    def __init__(
        self,
        leaves: Tuple[int, ...],
        truth: Optional[int] = None,
        sign: Optional[int] = None,
    ):
        self.leaves = leaves
        self.truth = truth
        self.sign = leaf_sign(leaves) if sign is None else sign

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cut):
            return NotImplemented
        return self.leaves == other.leaves

    def __hash__(self) -> int:
        return hash(self.leaves)

    def __repr__(self) -> str:
        return f"Cut(leaves={self.leaves!r}, truth={self.truth!r})"

    def size(self) -> int:
        return len(self.leaves)

    def dominates(self, other: "Cut") -> bool:
        """True when this cut's leaves are a subset of ``other``'s."""
        if self.sign & ~other.sign:
            return False  # some leaf's signature bit is missing from other
        return all(map(other.leaves.__contains__, self.leaves))


def _merge_leaves(
    a: Tuple[int, ...], b: Tuple[int, ...], k: int
) -> Optional[Tuple[Tuple[int, ...], int, int]]:
    """Sorted union of two sorted leaf tuples, or ``None`` past ``k`` leaves.

    Returns ``(leaves, where_a, where_b)``: bit ``p`` of ``where_a`` is
    set when ``leaves[p]`` is one of ``a``'s leaves, likewise for ``b``.
    """
    out = []
    where_a = where_b = 0
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, y = a[i], b[j]
        bit = 1 << len(out)
        if x == y:
            out.append(x)
            where_a |= bit
            where_b |= bit
            i += 1
            j += 1
        elif x < y:
            out.append(x)
            where_a |= bit
            i += 1
        else:
            out.append(y)
            where_b |= bit
            j += 1
    p = len(out)
    if p + na - i + nb - j > k:
        return None
    # At most one of the two tails is non-empty.
    where_a |= ((1 << (na - i)) - 1) << p
    where_b |= ((1 << (nb - j)) - 1) << p
    return tuple(out) + a[i:] + b[j:], where_a, where_b


@lru_cache(maxsize=1 << 16)
def _stretch(truth: int, where: int, m: int) -> int:
    """``truth`` re-expressed over ``m`` variables at the set bits of ``where``.

    Variable ``i`` of ``truth`` becomes the ``i``-th set bit of
    ``where``; the other variables are don't-cares.  Filled on first
    use; for k <= 4 it never holds more than about 1,300 entries.
    """
    positions = bitops.bits_of(where)
    perm = positions + [p for p in range(m) if p not in positions]
    return bitops.permute_vars(bitops.spread_table(truth, len(positions), m), m, perm)


@dataclass
class CutCatalog:
    """Every non-trivial cut of an AIG with its local function, deduped.

    Phase one of the batched mapping flow: ``node_cuts[v]`` lists the
    matchable ``(cut, (n, bits))`` pairs of node ``v`` in enumeration
    order, and ``distinct_by_width[n]`` holds each distinct ``(n, bits)``
    cut function exactly once (first-seen order), grouped by support
    width so phase two can push whole width groups through the batch
    classification engine.  ``cut_functions_evaluated`` counts cut
    evaluations, so ``1 - distinct/evaluated`` is the dedup rate the
    netlist-flow benchmark reports.
    """

    node_cuts: Dict[int, List[Tuple[Cut, Tuple[int, int]]]] = field(default_factory=dict)
    distinct_by_width: Dict[int, List[Tuple[int, int]]] = field(default_factory=dict)
    cut_functions_evaluated: int = 0

    @property
    def distinct_functions(self) -> int:
        return sum(len(group) for group in self.distinct_by_width.values())

    def dedup_rate(self) -> float:
        """Fraction of cut evaluations resolved by exact dedup."""
        if not self.cut_functions_evaluated:
            return 0.0
        return 1.0 - self.distinct_functions / self.cut_functions_evaluated


def catalog_cut_functions(
    aig: Aig,
    cuts: Optional[Dict[int, List[Cut]]] = None,
    k: int = 4,
    max_cuts_per_node: int = 16,
) -> CutCatalog:
    """Collect every matchable cut function of the whole AIG, deduped.

    ``cuts`` defaults to :func:`enumerate_cuts` with the given limits.
    Trivial cuts are skipped (a node cannot implement itself); every
    other cut's local function — the table the enumeration carried —
    is recorded under its exact ``(n, bits)`` identity.  ``bits`` is
    the *canonical* packed form of a :class:`TruthTable` (the word-array
    of :meth:`TruthTable.words` is only a view of the same bytes), so
    this key — like the store shards and the wire protocol — is
    independent of which kernel layout later processes the batch.
    """
    if cuts is None:
        cuts = enumerate_cuts(aig, k, max_cuts_per_node)
    catalog = CutCatalog()
    seen: Dict[Tuple[int, int], None] = {}
    evaluated = 0
    for node in aig.and_nodes():
        entries: List[Tuple[Cut, Tuple[int, int]]] = []
        for cut in cuts[node]:
            leaves = cut.leaves
            if leaves == (node,):
                continue
            key = (len(leaves), cut.truth)
            if key not in seen:
                seen[key] = None
                catalog.distinct_by_width.setdefault(key[0], []).append(key)
            entries.append((cut, key))
        evaluated += len(entries)
        catalog.node_cuts[node] = entries
    catalog.cut_functions_evaluated = evaluated
    return catalog


def enumerate_cuts(
    aig: Aig, k: int = 4, max_cuts_per_node: int = 16
) -> Dict[int, List[Cut]]:
    """All (pruned) k-feasible cuts for every node, with their tables.

    Primary inputs get their trivial cut; AND nodes get merged fanin
    cuts, ordered by (size, leaves), plus the trivial cut (listed last
    so the mapper prefers real covers).  Only the cuts that survive
    pruning have their tables built.
    """
    if k < 2:
        raise ValueError("cut size must be at least 2")
    full = [(1 << (1 << m)) - 1 for m in range(k + 1)]
    cuts: Dict[int, List[Cut]] = {FALSE: [Cut((), 0, 0)]}
    for idx in range(1, aig.n_inputs + 1):
        cuts[idx] = [Cut((idx,), _VAR0, 1 << (idx & 63))]
    for node in aig.and_nodes():
        fa, fb = aig.fanins(node)
        compl_a, compl_b = lit_compl(fa), lit_compl(fb)
        cuts_b = cuts[lit_var(fb)]
        merged: Dict[Tuple[int, ...], Tuple[Cut, Cut, int, int]] = {}
        for ca in cuts[lit_var(fa)]:
            sa = ca.sign
            for cb in cuts_b:
                if (sa | cb.sign).bit_count() > k:
                    continue
                union = _merge_leaves(ca.leaves, cb.leaves, k)
                if union is None:
                    continue
                leaves, where_a, where_b = union
                if leaves not in merged:
                    merged[leaves] = (ca, cb, where_a, where_b)
        order = sorted(merged)
        order.sort(key=len)  # stable: (size, leaves) order
        kept: List[Cut] = []
        for leaves in order:
            ca, cb, where_a, where_b = merged[leaves]
            sign = ca.sign | cb.sign
            outside = ~sign
            for cut in kept:  # Cut.dominates, inlined
                if not cut.sign & outside and all(map(leaves.__contains__, cut.leaves)):
                    break  # dominated by a smaller kept cut
            else:
                m = len(leaves)
                every = (1 << m) - 1  # a fanin cut with all the leaves needs no stretch
                ta = ca.truth if where_a == every else _stretch(ca.truth, where_a, m)
                tb = cb.truth if where_b == every else _stretch(cb.truth, where_b, m)
                full_m = full[m]
                if compl_a:
                    ta ^= full_m
                if compl_b:
                    tb ^= full_m
                kept.append(Cut(leaves, ta & tb, sign))
                if len(kept) >= max_cuts_per_node:
                    break
        kept.append(Cut((node,), _VAR0, 1 << (node & 63)))
        cuts[node] = kept
    return cuts
