"""Consistency tests and constructive solvers for Boolean equations f(X) = 0.

The pieces fit together as follows.  Single-variable elimination multiplies
the two cofactors.  Its generalization expands f over an orthonormal set on a
block of variables and multiplies the coefficient functions, producing an
eliminant over the remaining variables; iterating over a variable split
drives the table down to a constant whose vanishing decides consistency.
Back-substitution then rebuilds a concrete solution stage by stage, using the
explicit solutions of the linear ON equation, of minterm systems, and of
systems phi_i(X) = beta_i defined by an ON set.  For a sum of cube terms,
``eliminate_cubes`` writes stage 1 straight from the terms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .algebra import (Algebra, AlgebraElement, AlgebraMismatchError,
                      complement, meet, meet_all)
from .function import (DEFAULT_VAR_CAP, BoolFunction, _check_cube, _dtype_for,
                       _mask_to_value, _one_value, _write_cubes, point_bits)
from .orthonormal import (
    OrthonormalSet,
    is_in_class,
    minterm_set,
    ladder_terms,
    term_set,
)
from .parsing import Cube, cnf_expr

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
    masks = np.array([x.mask for x in a], dtype=object)
    beta = _linear_on(masks, algebra.full_mask, sigma)
    return None if beta is None else tuple(algebra.element(m) for m in beta)


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
    return solve_on_system(minterm_set(n, alpha[0].algebra, var_cap=n), beta)


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
        for i, (k, block) in enumerate(zip(representatives, onset.blocks)):
            if k not in block:
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
    it falls back to the product of the pointwise coefficient functions
    f*phi_i, which is sound but usually weak.
    """
    membership = is_in_class(f, onset)
    if membership:
        product = meet_all(membership.constants, f.algebra)
        return BoolFunction.constant(f.algebra, f.n, product, var_cap=f.n)
    out = BoolFunction.constant(f.algebra, f.n, f.algebra.one, var_cap=f.n)
    for phi in onset.members():
        out = out * (f * phi)
    return out


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


def _stage_expand(f: BoolFunction, block: tuple[int, ...],
                  phi: OrthonormalSet) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (order, 2**rest) coefficient table of f's expansion in the
    ON set on the block, plus the eliminant table (the AND of its rows).
    Row i is f restricted to the smallest minterm of block i; f is in the
    class when every minterm's restriction equals its block's row."""
    rows = _block_rows(f, block)
    table = rows[phi.reps]
    if phi.order < len(rows) and not np.array_equal(table[phi.labels], rows):
        raise InapplicableClassError(
            "no coefficient over the remaining variables exists for a "
            "member of the block ON set; the function is outside the class")
    table.flags.writeable = False
    return table, np.bitwise_and.reduce(table, axis=0)


def _local_onset(policy: str, width: int, algebra: Algebra) -> OrthonormalSet:
    if policy == "minterm":
        return minterm_set(width, algebra, var_cap=width)
    if policy == "ladder":
        return term_set(width, ladder_terms(width), algebra)
    raise ValueError('phi policy must be "minterm" or "ladder"')


def block_eliminant(f: BoolFunction, block,
                    phi: OrthonormalSet | None = None) -> BoolFunction:
    """Eliminant of f after removing a block of variables.

    ``phi`` is an ON set over the block's own variables (first block variable
    = most significant minterm bit); None means the block minterms, for which
    the expansion always exists.  The result ranges over the remaining
    variables in their original order, and f = 0 is consistent exactly when
    the eliminant is 0-consistent.
    """
    block = tuple(block)
    if len(set(block)) != len(block):
        raise ValueError("block repeats a variable")
    for i in block:
        if not 0 <= i < f.n:
            raise IndexError(f"variable index {i} out of range for n={f.n}")
    if phi is None:
        phi = minterm_set(len(block), f.algebra, var_cap=len(block))
    elif phi.n != len(block) or phi.algebra != f.algebra:
        raise ValueError("ON set does not match the block")
    _, eliminant = _stage_expand(f, block, phi)
    return BoolFunction(f.algebra, f.n - len(block), eliminant)


@dataclass(frozen=True)
class EliminationStage:
    """One step of block elimination, kept for reporting and back-substitution."""

    block: tuple[int, ...]            # original indices eliminated here
    remaining: tuple[int, ...]        # original indices the eliminant ranges over
    phi: OrthonormalSet               # ON set over the block's local variables
    table: np.ndarray                 # read-only, row i = coefficient of phi_i
    eliminant: BoolFunction           # product of the coefficients

    @property
    def coeffs(self) -> tuple[BoolFunction, ...]:
        """The expansion coefficients over `remaining`, one per table row."""
        return tuple(BoolFunction(self.eliminant.algebra, len(self.remaining), row)
                     for row in self.table)

    @property
    def zero_coefficients(self) -> int:
        """How many coefficients vanish identically."""
        return int(np.count_nonzero(~self.table.any(axis=1)))

    def constants_at(self, values: dict[int, int]) -> np.ndarray:
        """The coefficients at the point where each remaining variable i
        takes the atom mask ``values[i]``: one column gather per atom."""
        algebra = self.eliminant.algebra
        constants = np.zeros(self.phi.order, dtype=self.table.dtype)
        for t in range(algebra.atom_count):
            idx = 0
            for i in self.remaining:
                idx = idx << 1 | (values[i] >> t & 1)
            constants |= self.table[:, idx] & _mask_to_value(algebra, 1 << t)
        return constants


@dataclass(frozen=True)
class CubeStage:
    """Stage 1 of a sum of cube terms under the minterm policy, when its
    table is larger than one slab: it keeps the ``Cube`` terms instead."""

    block: tuple[int, ...]
    remaining: tuple[int, ...]
    phi: OrthonormalSet               # the block minterms
    cubes: tuple[Cube, ...]
    eliminant: BoolFunction
    zero_coefficients: int            # block points where f vanishes identically

    def constants_at(self, values: dict[int, int]) -> np.ndarray:
        """f at each block point with each remaining variable i at the atom
        mask ``values[i]`` (``values`` holds no block variable): the OR of
        the cubes restricted to that point."""
        algebra = self.eliminant.algebra
        constants = np.zeros(self.phi.order, dtype=_dtype_for(algebra))
        _write_cubes(constants, self.block, self.cubes, values, algebra)
        return constants


@dataclass(frozen=True)
class EliminationTrace:
    """Eliminants f_1 .. f_r of f under a variable split, ending in a constant."""

    algebra: Algebra
    n: int
    split: tuple[tuple[int, ...], ...]
    policy: str
    stages: tuple[EliminationStage | CubeStage, ...]
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


def _eliminate_stages(g: BoolFunction, remaining, split,
                      phi_policy: str) -> tuple[list[EliminationStage], BoolFunction]:
    """The stages eliminating ``split``'s blocks from g, which ranges over
    the original variables ``remaining`` in order; also the last eliminant."""
    remaining = list(remaining)
    stages = []
    for block in split:
        positions = tuple(remaining.index(i) for i in block)
        phi = _local_onset(phi_policy, len(block), g.algebra)
        table, eliminant_table = _stage_expand(g, positions, phi)
        remaining = [i for i in remaining if i not in block]
        g = BoolFunction(g.algebra, len(remaining), eliminant_table)
        stages.append(EliminationStage(block, tuple(remaining), phi, table, g))
    return stages, g


def eliminate_blocks(f: BoolFunction, split,
                     phi_policy: str = "minterm") -> EliminationTrace:
    """Run block elimination over a split of the variables.

    ``split`` lists the blocks (original variable indices) in elimination
    order and must partition 0..n-1.  The equation f = 0 is consistent
    exactly when the trace's final constant is 0.
    """
    split = _check_split(f.n, split)
    stages, g = _eliminate_stages(f, range(f.n), split, phi_policy)
    return EliminationTrace(f.algebra, f.n, split, phi_policy,
                            tuple(stages), g.coeff(0))


# ---------------------------------------------------------------------------
# Sums of cube terms: the cube stage

# A slab of 2^20 entries (1 MiB) or more keeps numpy's per-call cost small.
_SLAB_ENTRIES = 1 << 20


def cnf_function(n: int, clauses, algebra: Algebra,
                 var_cap: int = DEFAULT_VAR_CAP) -> BoolFunction:
    """f with f = 0 exactly on satisfying assignments: 1 on the cube where
    some clause is false.  A tautological clause contributes nothing."""
    return BoolFunction.from_expr(cnf_expr(clauses, algebra), n, algebra,
                                  var_cap=var_cap)


def eliminate_cubes(n: int, algebra: Algebra, cubes, split) -> EliminationTrace:
    """``eliminate_blocks(BoolFunction.from_expr(Sum(cubes), ...), split)``
    under the minterm policy, with stage 1 computed from the ``Cube`` terms.

    Row A of stage 1 is f with the first block at A, and the eliminant is
    the AND of the rows.  Rows that fit in one slab are written at once and
    kept as an ``EliminationStage``.  Larger ones are written in slabs, runs
    of whole rows that share their leading block bits (the prefix): a copy
    of a common buffer, which holds the cubes without a prefix variable,
    plus the cubes the prefix leaves live.  Stage 1 is then a ``CubeStage``.
    """
    split = _check_split(n, split)
    if not split:
        raise ValueError("the cube stage needs at least one variable")
    cubes = tuple(cubes)
    for cube in cubes:
        _check_cube(cube, n, algebra)
    block = split[0]
    remaining = tuple(i for i in range(n) if i not in block)
    phi = minterm_set(len(block), algebra, var_cap=len(block))
    # Each slab holds 2^free rows of 2^len(remaining) entries.
    free = min(len(block), max(0, (_SLAB_ENTRIES - 1).bit_length() - len(remaining)))
    prefix = block[:len(block) - free]
    variables = block[len(block) - free:] + remaining
    common = np.zeros(1 << len(variables), dtype=_dtype_for(algebra))
    _write_cubes(common, variables,
                 [c for c in cubes if not any(v in prefix for v, _ in c.lits)],
                 {}, algebra)
    if not prefix:
        table = common.reshape(phi.order, -1)
        table.flags.writeable = False
        g = BoolFunction(algebra, len(remaining), np.bitwise_and.reduce(table, axis=0))
        first = EliminationStage(block, remaining, phi, table, g)
    else:
        live = [c for c in cubes if any(v in prefix for v, _ in c.lits)]
        slab = np.empty_like(common)
        eliminant = np.full(1 << len(remaining), _one_value(algebra), dtype=common.dtype)
        zero = 0
        for p in range(1 << len(prefix)):
            np.copyto(slab, common)
            point = {v: bit * algebra.full_mask
                     for v, bit in zip(prefix, point_bits(p, len(prefix)))}
            _write_cubes(slab, variables, live, point, algebra)
            rows = slab.reshape(1 << free, -1)
            eliminant &= np.bitwise_and.reduce(rows, axis=0)
            zero += int(np.count_nonzero(~rows.any(axis=1)))
        g = BoolFunction(algebra, len(remaining), eliminant)
        first = CubeStage(block, remaining, phi, cubes, g, zero)
    stages, g = _eliminate_stages(g, remaining, split[1:], "minterm")
    return EliminationTrace(algebra, n, split, "minterm",
                            (first, *stages), g.coeff(0))


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
    step = -1 if algebra.is_two_element else 1
    values: dict[int, int] = {}
    for stage in reversed(trace.stages):
        constants = stage.constants_at(values)
        order = np.arange(stage.phi.order)[::step]
        beta = _linear_on(constants, _one_value(algebra), order)
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

    def table_digest(table: np.ndarray) -> str:
        if table.dtype == object:
            raw = repr(list(table)).encode()
        else:
            raw = np.ascontiguousarray(table).tobytes()
        return hashlib.sha1(raw).hexdigest()[:8]

    lines = [f"elimination trace: n={trace.n}, algebra=2^"
             f"{trace.algebra.atom_count}, policy={trace.policy}"]
    for s, stage in enumerate(trace.stages, start=1):
        digest = table_digest(stage.eliminant.table)
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
    if (f * phi).is_zero:
        return f.algebra.zero
    if (~f * phi).is_zero:
        return f.algebra.one
    return None


def b0_consistency(f: BoolFunction, onset: OrthonormalSet, target: int = 0) -> bool:
    """Decide f = target (0 or 1) over the two-element algebra by tautology
    scans: f = 0 is consistent iff f*phi_i is identically zero for some i
    (dually with f' for target 1).  Requires f in the constant class."""
    _require_b0(f)
    if target not in (0, 1):
        raise ValueError("target must be 0 or 1")
    if not is_in_class(f, onset):
        raise InapplicableClassError(
            "function admits no constant-coefficient expansion over this ON set")
    g = f if target == 0 else ~f
    return any((g * phi).is_zero for phi in onset.members())
