"""Exhaustive NPN canonicalization baseline.

The brute-force comparison point: canonicalize a function by applying
every transform in the NPN group and keeping the lexicographically
smallest truth table.  Exact for any ``n`` but costs ``n! * 2**(n+1)``
transform applications, so it is only practical for small ``n`` — which
is precisely the gap the paper's GRM method closes.
"""

from __future__ import annotations


from typing import Optional, Tuple

from repro.boolfunc.transform import NpnTransform, all_transforms
from repro.boolfunc.truthtable import TruthTable
from repro.core.errors import InvariantError



def canonicalize(
    f: TruthTable, include_output_neg: bool = True
) -> Tuple[TruthTable, NpnTransform]:
    """The minimum-table NPN representative and a transform reaching it.

    ``canonical == transform.apply(f)``; two functions are npn-equivalent
    iff their canonical tables are equal.
    """
    best_bits: Optional[int] = None
    best_t: Optional[NpnTransform] = None
    for t in all_transforms(f.n, include_output_neg=include_output_neg):
        bits = t.apply(f).bits
        if best_bits is None or bits < best_bits:
            best_bits = bits
            best_t = t
    if best_bits is None or best_t is None:
        raise InvariantError(f"no transform enumerated for n={f.n}")
    return TruthTable(f.n, best_bits), best_t


def match(
    f: TruthTable, g: TruthTable, allow_output_neg: bool = True
) -> Optional[NpnTransform]:
    """Exhaustive matching: scan the group for ``t`` with ``t.apply(f) == g``."""
    if f.n != g.n:
        return None
    for t in all_transforms(f.n, include_output_neg=allow_output_neg):
        if t.apply(f) == g:
            return t
    return None


def is_npn_equivalent(f: TruthTable, g: TruthTable) -> bool:
    return match(f, g) is not None


def npn_class_count(n: int, limit_functions: Optional[int] = None) -> int:
    """Count NPN equivalence classes of ``n``-variable functions.

    Known values: 1 var → 2 classes, 2 vars → 4, 3 vars → 14,
    4 vars → 222.  ``limit_functions`` truncates the scan (testing aid).
    """
    seen = set()
    total = 1 << (1 << n)
    if limit_functions is not None:
        total = min(total, limit_functions)
    for bits in range(total):
        f = TruthTable(n, bits)
        canon, _ = canonicalize(f)
        seen.add(canon.bits)
    return len(seen)
