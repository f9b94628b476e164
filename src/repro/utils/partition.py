"""Ordered partition refinement over variable indices.

The matcher differentiates the variables of a function by repeatedly
splitting an ordered partition of ``range(n)`` with signature keys: two
variables stay in the same block only while every signature computed so
far agrees on them.  The ordering of blocks is itself canonical (sorted by
the signature keys), so np-equivalent functions produce block structures
that can be aligned positionally.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Sequence, Tuple


class Partition:
    """An ordered partition of the integers ``0..n-1``.

    Blocks are tuples of variable indices.  Refinement with a key function
    splits every block into sub-blocks of equal key, ordered by the key's
    sort order, which keeps the partition canonical for matching purposes.
    """

    def __init__(self, n: int, blocks: Sequence[Sequence[int]] | None = None):
        self.n = n
        if blocks is None:
            self.blocks: List[Tuple[int, ...]] = [tuple(range(n))] if n else []
        else:
            self.blocks = [tuple(b) for b in blocks if b]
            seen = sorted(v for b in self.blocks for v in b)
            if seen != list(range(n)):
                raise ValueError("blocks do not partition range(n)")

    def refine(self, key: Callable[[int], Hashable]) -> bool:
        """Split blocks by ``key``; return ``True`` if any block was split."""
        new_blocks: List[Tuple[int, ...]] = []
        changed = False
        for block in self.blocks:
            if len(block) == 1:  # a singleton cannot split
                new_blocks.append(block)
                continue
            groups: dict = {}
            for v in block:
                groups.setdefault(key(v), []).append(v)
            if len(groups) == 1:
                new_blocks.append(block)
                continue
            changed = True
            for k in sorted(groups, key=_sort_token):
                new_blocks.append(tuple(groups[k]))
        self.blocks = new_blocks
        return changed

    def is_discrete(self) -> bool:
        """True when every block is a singleton (all variables differentiated)."""
        return len(self.blocks) == self.n  # blocks are non-empty and disjoint

    def block_sizes(self) -> List[int]:
        """Sizes of the blocks, in partition order."""
        return [len(b) for b in self.blocks]

    def nontrivial_blocks(self) -> List[Tuple[int, ...]]:
        """Blocks holding more than one variable."""
        return [b for b in self.blocks if len(b) > 1]

    def block_of(self, v: int) -> int:
        """Index of the block containing variable ``v``."""
        for idx, block in enumerate(self.blocks):
            if v in block:
                return idx
        raise KeyError(v)

    def copy(self) -> "Partition":
        return Partition(self.n, [list(b) for b in self.blocks])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.blocks == other.blocks

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition({self.n}, {self.blocks!r})"


def _sort_token(key: Hashable):
    """Total order over heterogeneous refinement keys (hash-stable fallback)."""
    return (key.__class__.__name__, repr(key))
