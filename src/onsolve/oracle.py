"""An exact consistency oracle that runs none of the solver's code.

Boole's condition: take the ON set of the 2**n minterms, and f(X) = 0 is
consistent exactly when the product of f's values at the 0/1 points is 0.
Evaluation is atomwise (``BoolFunction.evaluate``), so the condition is read
one atom t at a time off the coefficient table: the equation is consistent
exactly when every atom is missing from some entry, and then the first such
entry A_t puts t in X_i exactly when bit i of A_t is set.  The witness is
checked with ``evaluate``.  The work is at most one pass over the table per
atom, and no point of B**n is enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .function import BoolFunction, point_bits
from .solver import Assignment

# Entries per chunk of the scan: 64 KiB as bool, 512 KiB as uint64.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class OracleReport:
    consistent: bool
    witness: Assignment | None


def _first_without(entries: np.ndarray, atom: int,
                   scratch: np.ndarray) -> int | None:
    """The index of the first entry without the atom mask ``atom``, or None.
    Each chunk is ANDed into ``scratch`` before ``np.argmin`` reads it,
    since argmin copies an array it cannot write, such as a table."""
    for row, chunk in enumerate(entries.reshape(-1, len(scratch))):
        lacks = np.bitwise_and(chunk, atom, out=scratch)
        j = int(np.argmin(lacks))
        if not lacks[j]:
            return row * len(scratch) + j
    return None


def brute_consistency(f: BoolFunction) -> OracleReport:
    """Decide f = 0 by Boole's condition, one atom at a time.

    Over the two-element algebra the witness is the first zero entry in
    index order.  The scan stops at the first chunk that holds one, and it
    allocates one chunk, not a table.
    """
    algebra, n = f.algebra, f.n
    # Bytes, not bools: numpy ANDs a bool array with a scalar 20x slower.
    entries = f.table.view(np.uint8) if f.table.dtype == bool else f.table
    scratch = np.empty(min(len(entries), _CHUNK), dtype=entries.dtype)
    masks = [0] * n
    for t in range(algebra.atom_count):
        j = _first_without(entries, 1 << t, scratch)
        if j is None:
            return OracleReport(False, None)
        for i, bit in enumerate(point_bits(j, n)):
            masks[i] |= bit << t
    witness = {i: algebra.element(m) for i, m in enumerate(masks)}
    if not f.evaluate(tuple(witness.values())).is_zero:
        raise AssertionError("internal error: Boole's witness fails")
    return OracleReport(True, witness)
