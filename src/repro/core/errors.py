"""Shared budget-exceeded exception types for the matching core.

The matcher, the canonicalizer, and the polarity-completion enumerator
all cap combinatorial enumerations.  Historically each raised its own
ad-hoc exception (``MatchBudgetExceededError`` in the matcher,
``CanonicalizationBudgetError`` in the canonicalizer, a plain
``ValueError`` in :func:`repro.core.polarity.candidate_polarities`),
which made batch drivers fragile: a cap hit deep inside one function's
enumeration aborted whole batches because callers could not catch one
coherent type.  This module is the single home for the hierarchy so
every budget overrun is an instance of :class:`BudgetExceededError` and
carries the offending function's ``(n, bits)`` when known.
"""

from __future__ import annotations

from typing import Optional


class BudgetExceededError(RuntimeError):
    """A capped enumeration overflowed its configured budget.

    ``n``/``bits`` identify the function whose enumeration overflowed,
    when the raising site knows it; batch drivers use them to quarantine
    the single offending function instead of abandoning completed work.
    """

    def __init__(
        self,
        message: str,
        *,
        n: Optional[int] = None,
        bits: Optional[int] = None,
    ):
        super().__init__(message)
        self.n = n
        self.bits = bits

    def attach_function(self, n: int, bits: int) -> "BudgetExceededError":
        """Attach function context (first attachment wins) and return self."""
        if self.n is None:
            self.n = n
            self.bits = bits
        return self


class MatchBudgetExceededError(BudgetExceededError):
    """Hard-variable polarity enumeration exceeded the search budget."""


class CanonicalizationBudgetError(BudgetExceededError):
    """Candidate-ordering enumeration exceeded the canonicalization cap."""


class InvariantError(AssertionError):
    """An internal invariant failed.

    Raised explicitly where an ``assert`` used to stand, so the check
    survives ``python -O``; an ``AssertionError`` so that handlers for
    budget overruns (``RuntimeError``) never swallow it.
    """
