"""A deliberately naive brute-force consistency reference for cross-checking
the solvers.

Over the two-element algebra consistency is decided by 0/1 assignments, so
the canonical coefficient table is scanned directly; over a general finite
algebra every tuple of B**n is tried.  The point budget is explicit and
generous enough for the bundled tests, nothing here aims to be fast.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .function import BoolFunction, point_bits
from .solver import Assignment

DEFAULT_POINT_BUDGET = 1 << 24


class BudgetExceededError(ValueError):
    """The instance is larger than the oracle's enumeration budget."""


@dataclass(frozen=True)
class OracleReport:
    consistent: bool
    witness: Assignment | None
    checked_points: int


def brute_consistency(f: BoolFunction,
                      point_budget: int = DEFAULT_POINT_BUDGET) -> OracleReport:
    """Search for a zero of f by enumeration, smallest candidate first.

    Two-element algebra: scans the 2**n coefficient table (the values at all
    0/1 points).  General algebra: walks all of B**n in mask-lexicographic
    order and evaluates.
    """
    algebra = f.algebra
    n = f.n
    if algebra.atom_count <= 1:
        total = 1 << n
        if total > point_budget:
            raise BudgetExceededError(
                f"2^{n} points exceed the budget of {point_budget}")
        if f.table.all():
            return OracleReport(False, None, total)
        j = int(np.argmin(f.table))  # first False entry
        witness = {i: algebra.one if b else algebra.zero
                   for i, b in enumerate(point_bits(j, n))}
        return OracleReport(True, witness, j + 1)

    total = algebra.size ** n
    if total > point_budget:
        raise BudgetExceededError(
            f"{algebra.size}^{n} tuples exceed the budget of {point_budget}")
    checked = 0
    for masks in itertools.product(range(algebra.size), repeat=n):
        point = tuple(algebra.element(m) for m in masks)
        checked += 1
        if f.evaluate(point).is_zero:
            return OracleReport(True, dict(enumerate(point)), checked)
    return OracleReport(False, None, checked)
