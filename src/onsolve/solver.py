"""Consistency tests and constructive solvers for Boolean equations f(X) = 0.

The pieces fit together as follows.  Single-variable elimination multiplies
the two cofactors.  Its generalization expands f over an orthonormal set on a
block of variables and multiplies the coefficient functions, producing an
eliminant over the remaining variables; iterating over a variable split
drives the table down to a constant whose vanishing decides consistency.
Back-substitution then rebuilds a concrete solution stage by stage, using the
explicit solutions of the linear ON equation, of minterm systems, and of
systems phi_i(X) = beta_i defined by an ON set.  One routine, ``_stage``,
runs every elimination stage from its source: stage 1 of ``eliminate_expr``
writes the expression tree in row slabs, 64 entries per uint64 word over
the two-element algebra, and every other stage reads a table as one
unpacked slab.  Both go through one AND and one class check, and an ON set
passed explicitly is always folded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .algebra import (Algebra, AlgebraElement, AlgebraMismatchError,
                      complement, meet, meet_all)
from .function import (BoolFunction, _check_expr, _dtype_for, _entry,
                       _write_expr, point_bits)
from .orthonormal import (
    OrthonormalSet,
    coefficient_interval,
    is_in_class,
    ladder_set,
    minterm_set,
)
from .parsing import Cubes, Expr, Sum, cnf_expr

Assignment = dict[int, AlgebraElement]
"""Solution map: 0-based variable index -> element."""


class InapplicableClassError(ValueError):
    """The function admits no constant-coefficient expansion over the ON set."""


class InconsistentTraceError(ValueError):
    """Back-substitution was asked for on an inconsistent trace."""


def delta_tuple(algebra: Algebra, n: int, i: int) -> tuple[AlgebraElement, ...]:
    """The ON n-tuple with 1 in position i and 0 elsewhere."""
    if not 0 <= i < n:
        raise IndexError(f"position {i} out of range for n={n}")
    return tuple(algebra.one if j == i else algebra.zero for j in range(n))


def eliminate_variable(f: BoolFunction, i: int) -> BoolFunction:
    """Product of the two cofactors on variable i.

    f(X, y) = 0 is consistent exactly when the returned function (which no
    longer depends on variable i, though the arity is kept) is 0-consistent.
    """
    return f.cofactor(i, 1) * f.cofactor(i, 0)


def _linear_on(a: np.ndarray, one, order) -> np.ndarray | None:
    """ON solution of sum(a_i * z_i) = 0 by one prefix-AND scan in ``order``,
    or None when prod(a_i) != 0.  Entries are atom masks of a's dtype, and
    ``one`` is the algebra's 1 as such an entry."""
    ordered = a[order]
    prefix = np.bitwise_and.accumulate(ordered)
    if prefix[-1]:
        return None
    before = np.empty_like(ordered)
    before[0] = one
    before[1:] = prefix[:-1]
    beta = np.empty_like(ordered)
    beta[order] = before & ~ordered
    return beta


def _on_system(beta, reps, width: int) -> list[int]:
    """Masks of X solving phi_i(X) = beta_i for an ON tuple beta, by the
    expansion formula with block i's value carried by minterm ``reps[i]``.
    Only the nonzero entries are visited; over k atoms there are at most k."""
    values = [0] * width
    for i in np.flatnonzero(beta):
        for j, bit in enumerate(point_bits(reps[i], width)):
            if bit:
                values[j] |= int(beta[i])
    return values


def solve_linear_on(a, sigma=None) -> tuple[AlgebraElement, ...] | None:
    """ON solution of sum(a_i * z_i) = 0, or None when prod(a_i) != 0.

    The solution z_s(1) = a_s(1)', z_s(i) = a_s(1)..a_s(i-1) a_s(i)' follows
    the permutation ``sigma`` (0-based, default identity).
    """
    a = list(a)
    n = len(a)
    if n < 1:
        raise ValueError("need at least one coefficient")
    algebra = a[0].algebra
    if any(x.algebra != algebra for x in a):
        raise AlgebraMismatchError("coefficients from different algebras")
    sigma = list(range(n)) if sigma is None else list(sigma)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of 0..{n - 1}")
    masks = np.array([x.mask for x in a], dtype=_dtype_for(algebra))
    beta = _linear_on(masks, _entry(algebra, algebra.full_mask), sigma)
    return None if beta is None else tuple(algebra.element(int(m)) for m in beta)


def solve_dual_linear_coon(b) -> tuple[AlgebraElement, ...] | None:
    """Co-ON solution of prod(b_i + xi_i) = 1, or None when sum(b_i) != 1.

    xi_1 = b_1', xi_i = b_1 + .. + b_(i-1) + b_i': the complement of the
    linear ON solution for the complemented coefficients.
    """
    z = solve_linear_on([complement(x) for x in b])
    return None if z is None else tuple(complement(x) for x in z)


def solve_minterm_equation(alpha) -> Assignment | None:
    """Solution of sum(alpha_j * minterm_j(X)) = 0, or None if prod != 0.

    Builds the ON tuple beta_0 = alpha_0', beta_j = alpha_0..alpha_(j-1)
    alpha_j' (running product from index 0) and solves minterm_j(X) = beta_j.
    """
    alpha = list(alpha)
    total = len(alpha)
    if total == 0 or total & (total - 1):
        raise ValueError("coefficient list length must be a power of two")
    beta = solve_linear_on(alpha)
    if beta is None:
        return None
    n = total.bit_length() - 1
    return solve_on_system(minterm_set(n, alpha[0].algebra), beta)


def is_on_system(items, algebra: Algebra) -> bool:
    """Pairwise products zero and sum one, in one pass: no item may share
    an atom with the sum of the items before it."""
    total = algebra.zero
    for x in items:
        if not meet(total, x).is_zero:
            return False
        total = total + x
    return total.is_one


def solve_on_system(onset: OrthonormalSet, beta,
                    representatives=None) -> Assignment | None:
    """Solution Z of the system phi_i(X) = beta_i, or None when beta is not
    an ON tuple of the set's order.

    One minterm index is chosen in each block (``representatives``; default
    the smallest index) to carry beta_i; the rest are forced to 0 and the
    resulting minterm system is solved by the expansion formula.
    """
    beta = list(beta)
    if len(beta) != onset.order:
        raise ValueError(f"expected {onset.order} constants, got {len(beta)}")
    algebra = onset.algebra
    if not is_on_system(beta, algebra):
        return None
    if representatives is None:
        representatives = onset.reps
    else:
        representatives = list(representatives)
        if len(representatives) != onset.order:
            raise ValueError("one representative per block required")
        for i, k in enumerate(representatives):
            if not 0 <= k < len(onset.labels) or onset.labels[k] != i:
                raise ValueError(f"representative {k} not in block {i + 1}")
    values = _on_system([x.mask for x in beta], representatives, onset.n)
    return {i: algebra.element(m) for i, m in enumerate(values)}


@dataclass(frozen=True)
class ClassConsistency:
    """Decision for f = 0 with f in the constant-coefficient class."""

    consistent: bool
    constants: tuple[AlgebraElement, ...]
    witness: Assignment | None


def consistency_on_class(f: BoolFunction, onset: OrthonormalSet) -> ClassConsistency:
    """Decide f = 0 for f in the constant class of the ON set.

    The equation is consistent exactly when the product of the expansion
    constants is 0; a witness is then built by solving the associated linear
    ON equation and the induced system phi_i(X) = beta_i.
    """
    membership = is_in_class(f, onset)
    if not membership:
        raise InapplicableClassError(
            "function admits no constant-coefficient expansion over this ON set")
    constants = membership.constants
    witness = None
    beta = solve_linear_on(constants)
    consistent = beta is not None
    if consistent:
        witness = solve_on_system(onset, beta)
        check = f.evaluate(tuple(witness[i] for i in range(f.n)))
        if not check.is_zero:
            raise AssertionError("internal error: constructed witness fails")
    return ClassConsistency(consistent, constants, witness)


def necessary_condition(f: BoolFunction, onset: OrthonormalSet) -> BoolFunction:
    """Function whose 0-consistency is necessary for that of f = 0.

    For f in the constant class this is the constant product of the expansion
    constants, and the condition is then also sufficient.  Outside the class
    it is the product of the pointwise coefficient functions f*phi_i: f itself
    for a set of order 1, and the zero function for order 2 or more, since
    the members are disjoint, so the condition is then vacuous.
    """
    membership = is_in_class(f, onset)
    if membership:
        product = meet_all(membership.constants, f.algebra)
        return BoolFunction.constant(f.algebra, f.n, product)
    if onset.order == 1:
        return f
    return BoolFunction.constant(f.algebra, f.n, f.algebra.zero)


# ---------------------------------------------------------------------------
# Block elimination


def _block_rows(f: BoolFunction, block: tuple[int, ...]) -> np.ndarray:
    """Reshape f's table to (2**b, 2**rest): row A holds the restriction of f
    to block assignment A, as a table over the remaining variables (original
    order).  The first block variable is the most significant bit of A."""
    n = f.n
    b = len(block)
    tensor = f.table.reshape((2,) * n) if n else f.table.reshape((1, 1))
    if n == 0:
        return tensor
    moved = np.moveaxis(tensor, block, range(b))
    return np.ascontiguousarray(moved).reshape(1 << b, 1 << (n - b))


def _fold_rows(table: np.ndarray, rows: np.ndarray, lo: int,
               phi: OrthonormalSet) -> None:
    """Store each of the rows of block minterms lo, lo + 1, .. that is its
    ON block's first (``phi.reps``) as the block's row of ``table``, and
    check every row against its block's row.  Fed in index order, the rows
    meet each block's first row before its others."""
    labels = phi.labels[lo:lo + len(rows)]
    first = phi.reps[labels] == np.arange(lo, lo + len(rows))
    table[labels[first]] = rows[first]
    if not np.array_equal(table[labels], rows):
        raise InapplicableClassError(
            "no coefficient over the remaining variables exists for a "
            "member of the block ON set; the function is outside the class")


def _local_onset(policy: str, width: int, algebra: Algebra) -> OrthonormalSet:
    if policy == "minterm":
        return minterm_set(width, algebra)
    if policy == "ladder":
        return ladder_set(width, algebra)
    raise ValueError('phi policy must be "minterm" or "ladder"')


def block_eliminant(f: BoolFunction, block,
                    phi: OrthonormalSet | None = None) -> BoolFunction:
    """Eliminant of f after removing a block of variables.

    ``phi`` is an ON set over the block's own variables (first block variable
    = most significant minterm bit); None means the block minterms, for which
    the expansion always exists.  An explicit ``phi`` is always checked, and
    raises ``InapplicableClassError`` when f is outside its class.  The
    result ranges over the remaining variables in their original order, and
    f = 0 is consistent exactly when the eliminant is 0-consistent.
    """
    block = tuple(block)
    if len(set(block)) != len(block):
        raise ValueError("block repeats a variable")
    for i in block:
        if not 0 <= i < f.n:
            raise IndexError(f"variable index {i} out of range for n={f.n}")
    minterms = phi is None
    if minterms:
        phi = minterm_set(len(block), f.algebra)
    elif phi.n != len(block) or phi.algebra != f.algebra:
        raise ValueError("ON set does not match the block")
    return _stage(f, range(f.n), block, phi, minterms).eliminant


@dataclass(frozen=True)
class EliminationStage:
    """One step of block elimination, kept for reporting and back-substitution.

    ``source`` is the read-only (order, 2^rest) coefficient table, row i the
    coefficient of phi_i, or the expression tree for a minterm stage 1
    larger than one slab (ladder keeps its table)."""

    block: tuple[int, ...]            # original indices eliminated here
    remaining: tuple[int, ...]        # original indices the eliminant ranges over
    phi: OrthonormalSet               # ON set over the block's local variables
    source: np.ndarray | Expr         # the coefficient table, or the tree
    eliminant: BoolFunction           # product of the coefficients
    zero_coefficients: int            # coefficients that vanish identically

    @property
    def coeffs(self) -> tuple[BoolFunction, ...]:
        """The expansion coefficients over `remaining`, one per row of a
        table source."""
        return tuple(BoolFunction(self.eliminant.algebra, len(self.remaining), row)
                     for row in self.source)

    def constants_at(self, values: dict[int, int]) -> np.ndarray:
        """The coefficients at the point where each remaining variable i
        takes the atom mask ``values[i]`` (``values`` holds no block
        variable): the tree written over the block, or one column gather
        per atom from the table."""
        algebra = self.eliminant.algebra
        constants = np.zeros(self.phi.order, dtype=_dtype_for(algebra))
        if isinstance(self.source, Expr):
            return _write_expr(constants, self.block, self.source, values, algebra)
        for t in range(algebra.atom_count):
            idx = 0
            for i in self.remaining:
                idx = idx << 1 | (values[i] >> t & 1)
            constants |= self.source[:, idx] & _entry(algebra, 1 << t)
        return constants


@dataclass(frozen=True)
class EliminationTrace:
    """Eliminants f_1 .. f_r of f under a variable split, ending in a constant."""

    algebra: Algebra
    n: int
    split: tuple[tuple[int, ...], ...]
    policy: str
    stages: tuple[EliminationStage, ...]
    final: AlgebraElement

    @property
    def consistent(self) -> bool:
        return self.final.is_zero


def consecutive_split(n: int, block_size: int) -> list[list[int]]:
    """Variables 0..n-1 in consecutive blocks; the last may be smaller."""
    if block_size < 1:
        raise ValueError("block size must be positive")
    return [list(range(s, min(s + block_size, n)))
            for s in range(0, n, block_size)]


def _check_split(n: int, split) -> tuple[tuple[int, ...], ...]:
    split = tuple(tuple(b) for b in split)
    flat = [i for b in split for i in b]
    if sorted(flat) != list(range(n)):
        raise ValueError("split must partition the variable indices")
    if any(not b for b in split):
        raise ValueError("split contains an empty block")
    return split


def _eliminate(source: Expr | BoolFunction, n: int, algebra: Algebra, split,
               policy: str) -> EliminationTrace:
    """The trace of eliminating ``split``'s blocks in turn from ``source``, an
    expression tree or a table over 0..n-1: each stage's eliminant is the
    next stage's source.  At n = 0 the split is empty, and one stage of the
    empty block, which is not kept, turns the source into its value."""
    stages, variables = [], range(n)
    for block in split or ((),):
        phi = _local_onset(policy, len(block), algebra)
        stages.append(_stage(source, variables, block, phi, policy == "minterm"))
        source, variables = stages[-1].eliminant, stages[-1].remaining
    return EliminationTrace(algebra, n, split, policy, tuple(stages[:len(split)]),
                            source.coeff(0))


def eliminate_blocks(f: BoolFunction, split,
                     phi_policy: str = "minterm") -> EliminationTrace:
    """Run block elimination over a split of the variables.

    ``split`` lists the blocks (original variable indices) in elimination
    order and must partition 0..n-1.  The equation f = 0 is consistent
    exactly when the trace's final constant is 0.
    """
    return _eliminate(f, f.n, f.algebra, _check_split(f.n, split), phi_policy)


# ---------------------------------------------------------------------------
# One stage routine, from an expression tree or a table

# A slab of 2^20 entries (1 MiB as bool, 128 KiB as words) or more keeps
# numpy's per-call cost small.
_SLAB_ENTRIES = 1 << 20

# Over the two-element algebra a table over m >= 6 variables is written as
# 2^(m-6) words: entry j is bit j & 63 of word j >> 6.  That is a table over
# the first m - 6 variables whose entries are 64-lane masks, written over
# the algebra of 64 atoms with each of the last six variables in the point:
# low position p is the set of lanes i with bit 5 - p of i set.  A table
# over m < 6 variables is one word: its variables take the last m lane
# patterns, so lane i holds entry i mod 2^m and the upper lanes repeat it.
WORDS = Algebra(64)
_LANES = tuple(sum(1 << i for i in range(64) if i >> (5 - p) & 1) for p in range(6))


def _unpack(words: np.ndarray) -> np.ndarray:
    """The ``bool`` entries of a word table, entry j from bit j & 63 of
    word j >> 6."""
    octets = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(octets, bitorder="little").view(bool)


def _lane_groups(slab: np.ndarray, free: int, rest: int) -> np.ndarray:
    """The first 2^free lane groups of 2^rest lanes, 3 <= rest < 6, in the
    words of a slab, each read as an int of its own width."""
    return slab.astype("<u8", copy=False).view(f"<u{1 << (rest - 3)}")[:1 << free]


def _rows(slab: np.ndarray, free: int, rest: int) -> np.ndarray:
    """The 2^free rows of 2^rest entries each in a slab, one per line: a
    run of whole entries or words, or, for rows narrower than a word, the
    row's lanes moved to the low lanes of a word of its own.  The lanes a
    one-word slab repeats past its 2^(free+rest) entries are dropped."""
    if len(slab) >= 1 << free:
        return slab.reshape(1 << free, -1)
    if rest >= 3:
        return _lane_groups(slab, free, rest).astype(np.uint64).reshape(-1, 1)
    width = 1 << rest
    groups = slab[:, None] >> np.arange(0, 64, width, dtype=np.uint64)
    return (groups & np.uint64((1 << width) - 1)).reshape(-1, 1)[:1 << free]


def _zero_rows(rows: np.ndarray) -> int:
    """How many rows of a 2-D array are 0 throughout.  Bool rows are read as
    ints of up to eight entries, and rows of up to 16 columns are ORed
    column by column: numpy's ``any`` along short rows costs a call per
    row."""
    if rows.dtype == bool:
        rows = rows.view(f"u{min(8, rows.shape[1])}")
    if rows.shape[1] > 16:
        return int(np.count_nonzero(~rows.any(axis=1)))
    out = rows[:, 0]
    for j in range(1, rows.shape[1]):
        out = out | rows[:, j]
    return len(out) - int(np.count_nonzero(out))


def _zero_slab_rows(slab: np.ndarray, free: int, rest: int) -> int:
    """How many of the 2^free rows of 2^rest entries in a slab are 0
    throughout, the slab read as ``_rows`` reads it.  Rows narrower than a
    word are lane groups: groups of eight lanes or more are read as ints of
    their own width, and narrower ones are ORed onto their first lane,
    whose set bits are counted."""
    if len(slab) >= 1 << free:
        return _zero_rows(slab.reshape(1 << free, -1))
    if rest >= 3:
        groups = _lane_groups(slab, free, rest)
        return len(groups) - int(np.count_nonzero(groups))
    lanes = slab.astype("<u8", copy=False)
    for k in range(rest):
        lanes = lanes | lanes >> np.uint64(1 << k)
    firsts = sum(1 << i for i in range(0, min(64, 1 << (free + rest)), 1 << rest))
    return (1 << free) - int(np.bitwise_count(lanes & np.uint64(firsts)).sum())


def cnf_function(n: int, clauses, algebra: Algebra) -> BoolFunction:
    """f with f = 0 exactly on satisfying assignments: 1 on the cube where
    some clause is false.  A tautological clause contributes nothing."""
    return BoolFunction.from_expr(cnf_expr(clauses, algebra), n, algebra)


def _prefix_levels(source: Expr, prefix: tuple[int, ...]) -> list[tuple[Expr, ...]]:
    """The parts of ``source`` by level: level j > 0 holds the parts whose
    deepest prefix variable is ``prefix[j - 1]``, and level 0 those without
    one.  A ``Cubes`` part is split by the rows' ``care``, and any other
    part is placed by its ``support()``."""
    depth = {1 << v: j for j, v in enumerate(prefix, 1)}
    prefix_mask = sum(depth)

    def level(support: int) -> int:
        support &= prefix_mask
        j = 0
        while support:
            low = support & -support
            j = max(j, depth[low])
            support ^= low
        return j

    levels = [[] for _ in range(len(prefix) + 1)]
    for part in source.parts if isinstance(source, Sum) else (source,):
        if isinstance(part, Cubes):
            rows = [level(care) for care in part.care]
            for j in set(rows):
                levels[j].append(part.select([r == j for r in rows]))
        else:
            levels[level(part.support())].append(part)
    return [tuple(parts) for parts in levels]


def _stage(source: Expr | BoolFunction, variables, block: tuple[int, ...],
           phi: OrthonormalSet, minterms: bool) -> EliminationStage:
    """The stage eliminating ``block`` from ``source``, an expression tree or
    a table over the original variables ``variables`` in order.  ``minterms``
    says that ``phi`` is the block minterms, whose rows need no fold.

    Row A is the source with the block at A, and the eliminant is the AND of
    the rows.  They are read in slabs, runs of whole rows that share their
    leading block bits (the prefix), in index order.  A table is one slab of
    its rows, unpacked (``_block_rows``, a view under a consecutive split).
    A tree is written: one slab holds every row when they fit, and otherwise
    the slabs are the leaves of a depth-first walk over the prefix bits.
    Each part has a level, the depth of its deepest prefix variable
    (``_prefix_levels``), and the common buffer holds the parts of level 0.
    Buffer j holds buffer j - 1 plus the level-j parts, written under the
    point ``prefix[:j]``; a level without parts aliases the buffer above it.
    When slab p follows slab p - 1, only the buffers at and below the
    highest prefix bit that changed are rebuilt, so a part whose deepest
    prefix literal is at depth d is written 2^d times, not once per slab,
    and skipped where its prefix literals miss the point.  ``_fold_rows``
    keeps the (order, 2^rest) coefficient table and checks the class.  The
    block minterms need no fold, and past one slab they keep no table: the
    stage keeps the tree as its source.

    Over the two-element algebra a tree's slab is written as 64-entry words,
    one word below six variables.  The AND runs on the words at every row
    width: rows of whole words are ANDed column by column, and for narrower
    rows all the words are ANDed into one, whose 64 / 2^rest lane groups
    are then folded onto the first.  The class check reads the rows as
    words (``_rows``), each narrow row in a word of its own.  The stage's
    zero coefficients are counted here, once: on the slab's rows under the
    block minterms (``_zero_slab_rows``, on the words), and on the folded
    table otherwise.  Only the eliminant and the kept table are unpacked.
    """
    algebra = phi.algebra
    remaining = tuple(i for i in variables if i not in block)
    rest = len(remaining)
    tree = isinstance(source, Expr)
    prefix, space, lanes = (), algebra, {}
    if tree:
        # Each slab holds 2^free rows of 2^rest entries.
        free = min(len(block), max(0, (_SLAB_ENTRIES - 1).bit_length() - rest))
        prefix, written = block[:len(block) - free], block[len(block) - free:] + remaining
        if algebra.is_two_element:
            cut = max(0, len(written) - 6)
            lanes = dict(zip(written[cut:], _LANES[6 - len(written[cut:]):]))
            space, written = WORDS, written[:cut]
        levels = _prefix_levels(source, prefix) if prefix else [(source,)]
        common = np.zeros(1 << len(written), dtype=_dtype_for(space))
        _write_expr(common, written, Sum(levels[0]), lanes, space)
        # Buffer j is buffer j - 1 plus the level-j parts; an empty level
        # aliases the buffer above it.
        buffers = [common]
        for parts in levels[1:]:
            buffers.append(np.empty_like(common) if parts else buffers[-1])
    else:
        free = len(block)
        common = _block_rows(source, tuple(variables.index(i) for i in block)).reshape(-1)
        buffers = [common]
    slab = buffers[-1]
    # The entries or words of one row, or one word of several narrow rows.
    width = max(1, len(common) >> free)
    table = None if minterms else np.empty((phi.order, width), dtype=common.dtype)
    zero = 0
    depth = len(prefix)
    for p in range(1 << depth):
        if depth:
            # The buffers at and below the highest prefix bit that changed.
            top = depth + 1 - (p & -p).bit_length() if p else 1
            point = lanes | {v: bit * space.full_mask
                             for v, bit in zip(prefix, point_bits(p, depth))}
            for j in range(top, depth + 1):
                if levels[j]:
                    np.copyto(buffers[j], buffers[j - 1])
                    _write_expr(buffers[j], written, Sum(levels[j]), point, space)
        product = np.bitwise_and.reduce(slab.reshape(-1, width), axis=0)
        if p:
            eliminant &= product
        else:
            eliminant = product
        if table is not None:
            _fold_rows(table, _rows(slab, free, rest), p << free, phi)
        else:
            zero += _zero_slab_rows(slab, free, rest)
    packed = space is WORDS
    if packed:
        # Fold the word's lane groups of 2^rest onto the first: their AND.
        for k in reversed(range(rest, 6)):
            eliminant &= eliminant >> np.uint64(1 << k)
        eliminant = _unpack(eliminant)[:1 << rest]
    g = BoolFunction(algebra, rest, eliminant)
    if table is None and prefix:
        return EliminationStage(block, remaining, phi, source, g, zero)
    if table is None:
        table = _unpack(slab)[:1 << len(variables)] if packed else slab
        table = table.reshape(1 << len(block), -1)
    else:
        zero = _zero_rows(table)
        if packed:
            table = _unpack(table).reshape(len(table), -1)[:, :1 << rest]
    table.flags.writeable = False
    return EliminationStage(block, remaining, phi, table, g, zero)


def eliminate_expr(expr: Expr, n: int, algebra: Algebra, split,
                   phi_policy: str = "minterm") -> EliminationTrace:
    """``eliminate_blocks(BoolFunction.from_expr(expr, n, algebra), split,
    phi_policy)``, without a 2^n table when stage 1 is larger than one slab:
    stage 1 is written from the tree (``_stage``), and each later stage
    reads the eliminant before it."""
    split = _check_split(n, split)
    _check_expr(expr, n, algebra)
    return _eliminate(expr, n, algebra, split, phi_policy)


def extract_solution(trace: EliminationTrace) -> Assignment:
    """Rebuild a solution of f = 0 from a consistent elimination trace.

    Walks the stages backwards.  At each one the constants are the stage's
    coefficients at the partial assignment (``stage.constants_at``).
    The linear ON equation over them is solved in reversed member order
    over the two-element algebra, so the pivot is the highest-index
    vanishing block, and in member order otherwise; then the ON system
    phi_i(X) = beta_i, with each block's smallest minterm as representative.
    """
    if not trace.consistent:
        raise InconsistentTraceError(f"final eliminant is {trace.final}, not 0")
    algebra = trace.algebra
    order = slice(None, None, -1 if algebra.is_two_element else 1)
    values: dict[int, int] = {}
    for stage in reversed(trace.stages):
        constants = stage.constants_at(values)
        beta = _linear_on(constants, _entry(algebra, algebra.full_mask), order)
        if beta is None:
            raise InconsistentTraceError(
                "coefficient product nonzero at the partial assignment")
        local = _on_system(beta, stage.phi.reps, len(stage.block))
        values.update(zip(stage.block, local))
    return {i: algebra.element(m) for i, m in values.items()}


def render_trace(trace: EliminationTrace,
                 var_names: list[str] | None = None) -> str:
    """Human-readable stage report of an elimination trace."""

    def name(i: int) -> str:
        return var_names[i] if var_names else f"x{i + 1}"

    lines = [f"elimination trace: n={trace.n}, algebra=2^"
             f"{trace.algebra.atom_count}, policy={trace.policy}"]
    for s, stage in enumerate(trace.stages, start=1):
        digest = hashlib.sha1(stage.eliminant.table.tobytes()).hexdigest()[:8]
        lines.append(
            f"  stage {s}: eliminate {{{', '.join(name(i) for i in stage.block)}}}"
            f" via ON order {stage.phi.order};"
            f" coefficients: {stage.phi.order} ({stage.zero_coefficients} zero);"
            f" eliminant over {len(stage.remaining)} vars"
            f" ({1 << len(stage.remaining)} entries, digest {digest})")
    lines.append(f"  final constant: {trace.final}"
                 f" -> {'CONSISTENT' if trace.consistent else 'INCONSISTENT'}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Two-element-algebra corollaries


def _require_b0(f: BoolFunction) -> None:
    if f.algebra.atom_count != 1:
        raise ValueError("this test is specific to the two-element algebra")


def b0_coefficient(f: BoolFunction, phi: BoolFunction) -> AlgebraElement | None:
    """Constant coefficient of phi in a two-element-algebra expansion of f.

    Returns 0 when f*phi is identically zero, 1 when f'*phi is, and None when
    neither holds (no constant works, so f is outside the class for phi).
    """
    _require_b0(f)
    interval = coefficient_interval(f, phi)
    if interval.low.is_zero:
        return interval.low
    return interval.high if interval.high.is_one else None


def b0_consistency(f: BoolFunction, onset: OrthonormalSet, target: int = 0) -> bool:
    """Decide f = target (0 or 1) over the two-element algebra: f = 0 is
    consistent iff f*phi_i is identically zero, its constant 0, for some i
    (dually 1 for target 1).  Requires f in the constant class."""
    _require_b0(f)
    if target not in (0, 1):
        raise ValueError("target must be 0 or 1")
    membership = is_in_class(f, onset)
    if not membership:
        raise InapplicableClassError(
            "function admits no constant-coefficient expansion over this ON set")
    return any(c.mask == target for c in membership.constants)
