"""Orthonormal sets of functions, their canonical partition form, coefficient
intervals, and expansions.

An orthonormal (ON) set of order m is a list of functions with pairwise
product 0 and sum 1.  Restricted to indicator members (all coefficients 0 or
1), such a set is exactly a partition of the 2**n minterm indices into m
nonempty blocks, which is the canonical form used throughout.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import Algebra, AlgebraElement, leq
from .function import (
    BoolFunction,
    Term,
    _dtype_for,
    _entry,
    term_to_function,
)


class OrthonormalityError(ValueError):
    """A function list fails to be an orthonormal set of indicators."""


class NotOrthogonalError(OrthonormalityError):
    def __init__(self, i: int, j: int):
        super().__init__(f"members {i} and {j} have a nonzero product")
        self.indices = (i, j)


class NotNormalError(OrthonormalityError):
    def __init__(self):
        super().__init__("members do not sum to the constant 1")


class NonIndicatorError(OrthonormalityError):
    def __init__(self, i: int):
        super().__init__(f"member {i} has a coefficient other than 0 or 1")
        self.index = i


class ZeroMemberError(OrthonormalityError):
    def __init__(self, i: int):
        super().__init__(f"member {i} is the zero function (empty block)")
        self.index = i


@dataclass(frozen=True, eq=False)
class OrthonormalSet:
    """ON set in canonical form: ``labels[j]`` is the block of minterm j and
    ``reps[i]`` the smallest minterm of block i; the constructor trusts both."""

    algebra: Algebra
    n: int
    labels: np.ndarray
    reps: np.ndarray

    def __post_init__(self) -> None:
        self.labels.flags.writeable = False
        self.reps.flags.writeable = False

    @cached_property
    def _grouped(self) -> tuple[np.ndarray, np.ndarray]:
        """The minterms sorted by block, and where each block starts in
        that order."""
        members = np.argsort(self.labels)
        starts = np.zeros(self.order, dtype=np.intp)
        np.cumsum(np.bincount(self.labels)[:-1], out=starts[1:])
        return members, starts

    @cached_property
    def blocks(self) -> tuple[frozenset[int], ...]:
        """The blocks as sets of minterm indices, in block order."""
        members, starts = self._grouped
        return tuple(frozenset(part.tolist())
                     for part in np.split(members, starts[1:]))

    @property
    def order(self) -> int:
        return len(self.reps)

    def member(self, i: int) -> BoolFunction:
        algebra = self.algebra
        table = np.zeros(1 << self.n, dtype=_dtype_for(algebra))
        table[self.labels == range(self.order)[i]] = _entry(algebra, algebra.full_mask)
        return BoolFunction(self.algebra, self.n, table)

    def members(self) -> tuple[BoolFunction, ...]:
        return tuple(self.member(i) for i in range(self.order))

    def block_of(self, j: int) -> int:
        if not 0 <= j < len(self.labels):
            raise IndexError(f"minterm index {j} out of range")
        return int(self.labels[j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrthonormalSet):
            return NotImplemented
        return (self.algebra == other.algebra and self.n == other.n
                and np.array_equal(self.labels, other.labels))

    def __repr__(self) -> str:
        blocks = "; ".join(
            "{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks
        )
        return f"<ON set order {self.order}, n={self.n}: {blocks}>"


def from_blocks(algebra: Algebra, n: int, blocks) -> OrthonormalSet:
    """Build an ON set from minterm-index blocks, validating the partition.
    The label array is allocated only once the blocks cover every minterm."""
    total = 1 << n
    owner: dict[int, int] = {}
    reps = []
    for i, block in enumerate(map(frozenset, blocks)):
        if not block:
            raise ZeroMemberError(i)
        reps.append(min(block))
        for j in block:
            if not 0 <= j < total:
                raise ValueError(f"minterm index {j} out of range for n={n}")
            if j in owner:
                raise ValueError(f"minterm index {j} appears in two blocks")
            owner[j] = i
    if len(owner) != total:
        raise NotNormalError()
    return OrthonormalSet(algebra, n, np.array([owner[j] for j in range(total)]),
                          np.array(reps))


def verify_on(functions) -> OrthonormalSet:
    """Check a list of functions is ON and return its canonical partition.

    Raises NonIndicatorError, ZeroMemberError, NotOrthogonalError or
    NotNormalError when the list is not an ON set of indicator functions.
    """
    functions = list(functions)
    if not functions:
        raise NotNormalError()
    first = functions[0]
    supports = []
    for i, f in enumerate(functions):
        if f.algebra != first.algebra or f.n != first.n:
            raise ValueError("ON members must share one algebra and arity")
        if not f.is_indicator():
            raise NonIndicatorError(i)
        support = frozenset(f.support())
        if not support:
            raise ZeroMemberError(i)
        supports.append(support)
    for i in range(len(supports)):
        for j in range(i + 1, len(supports)):
            if supports[i] & supports[j]:
                raise NotOrthogonalError(i, j)
    return from_blocks(first.algebra, first.n, supports)


def minterm_set(n: int, algebra: Algebra,
                var_cap: int | None = None) -> OrthonormalSet:
    """The order-2**n ON set of all minterms, blocks in index order; n above
    ``var_cap``, when one is given, is rejected (only bench/worker.py gives one)."""
    if var_cap is not None and n > var_cap:
        raise ValueError(f"{n} variables exceeds the cap of {var_cap}")
    labels = np.arange(1 << n)
    return OrthonormalSet(algebra, n, labels, labels)


def ladder_terms(m: int) -> list[Term]:
    """The smallest ON set of terms over m variables: m+1 members
    x1', x1 x2', ..., x1..x(m-1) xm', x1..xm."""
    if m < 1:
        raise ValueError("need at least one variable")
    terms = []
    for i in range(m):
        exps = [1] * i + [0] + [-1] * (m - i - 1)
        terms.append(Term(tuple(exps)))
    terms.append(Term((1,) * m))
    return terms


def term_set(n: int, terms, algebra: Algebra) -> OrthonormalSet:
    """Canonical partition of an ON list of terms over n variables."""
    return verify_on([term_to_function(t, n, algebra) for t in terms])


def ladder_set(m: int, algebra: Algebra) -> OrthonormalSet:
    """``term_set(m, ladder_terms(m), algebra)`` without its member tables:
    block i holds the minterms with i leading 1 bits, a run of 2^(m-i-1)
    minterms for i < m, and block m the last minterm.  m = 0 is one block."""
    runs = [1 << (m - i - 1) for i in range(m)] + [1]
    return OrthonormalSet(algebra, m, np.repeat(np.arange(m + 1), runs),
                          np.cumsum([0] + runs[:-1]))


@dataclass(frozen=True)
class CoefficientInterval:
    """Constant coefficient range [low, high] for one ON member."""

    low: AlgebraElement
    high: AlgebraElement

    @property
    def nonempty(self) -> bool:
        return leq(self.low, self.high)

    def __repr__(self) -> str:
        return f"[{self.low}, {self.high}]"


def coefficient_interval(f: BoolFunction, phi: BoolFunction) -> CoefficientInterval:
    """Range of constants usable as the coefficient of phi when expanding f.

    By the range formula the extrema over B**n are attained over 0/1 points:
    low is the sum of f(A)phi(A) and high the product of f(A) + phi(A)'.
    """
    if f.algebra != phi.algebra or f.n != phi.n:
        raise ValueError("function and ON member must share algebra and arity")
    low = np.bitwise_or.reduce((f * phi).table)
    high = np.bitwise_and.reduce((f + ~phi).table)
    return CoefficientInterval(f.algebra.element(int(low)),
                               f.algebra.element(int(high)))


@dataclass(frozen=True)
class ClassMembership:
    """Outcome of the constant-expansion test for f against an ON set."""

    in_class: bool
    constants: tuple[AlgebraElement, ...] | None
    intervals: tuple[CoefficientInterval, ...]

    def __bool__(self) -> bool:
        return self.in_class


def is_in_class(f: BoolFunction, onset: OrthonormalSet) -> ClassMembership:
    """Test whether f admits an expansion over the ON set with constant
    coefficients; on success the canonical constants are the interval lows."""
    if f.algebra != onset.algebra or f.n != onset.n:
        raise ValueError("function and ON set must share algebra and arity")
    # The interval of member i is [OR, AND] of f over block i: outside the
    # block f*phi is 0 and f + phi' is 1.
    members, starts = onset._grouped
    values = f.table[members]
    lows = np.bitwise_or.reduceat(values, starts)
    highs = np.bitwise_and.reduceat(values, starts)
    element = {m: f.algebra.element(int(m))
               for m in {*lows.tolist(), *highs.tolist()}}
    intervals = tuple(CoefficientInterval(element[low], element[high])
                      for low, high in zip(lows.tolist(), highs.tolist()))
    if not np.any(lows & ~highs):
        return ClassMembership(True, tuple(iv.low for iv in intervals), intervals)
    return ClassMembership(False, None, intervals)


def expand(f: BoolFunction, onset: OrthonormalSet, policy: str = "low"):
    """Expansion coefficients of f over the ON set.

    Returns constants (interval lows or highs per ``policy``) when f is in
    the constant-coefficient class, else the pointwise coefficient functions
    f*phi_i, which always satisfy the expansion.
    """
    if policy not in ("low", "high"):
        raise ValueError('policy must be "low" or "high"')
    membership = is_in_class(f, onset)
    if membership:
        if policy == "low":
            return [iv.low for iv in membership.intervals]
        return [iv.high for iv in membership.intervals]
    return [f * phi for phi in onset.members()]


def expand_in_terms(f: BoolFunction, terms) -> list[BoolFunction]:
    """Coefficients f/t_i of the expansion of f over an ON list of terms.

    f/t_i is f with every literal of t_i pinned to make the term 1; absent
    variables stay free and the arity is kept.  Raises if the terms are not
    an ON set over f's variables.
    """
    terms = list(terms)
    term_set(f.n, terms, f.algebra)
    out = []
    for t in terms:
        g = f
        for i, v in sorted(t.fixed_vars().items()):
            g = g.cofactor(i, v)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Text format: "m n" record then one "Mi={...}" record per block, separated
# by newlines or semicolons.

_BLOCK_RE = re.compile(r"^M([0-9]+)\s*=\s*\{([0-9\s,]*)\}$")


def format_on_set(onset: OrthonormalSet) -> str:
    records = [f"{onset.order} {onset.n}"]
    for i, block in enumerate(onset.blocks):
        records.append(f"M{i + 1}={{{','.join(map(str, sorted(block)))}}}")
    return "\n".join(records)


def on_set_records(text: str) -> list[tuple[int, str]]:
    """The non-blank, non-comment records of the text format, with lines."""
    records = [(lineno, r.strip()) for lineno, line in enumerate(text.splitlines(), 1)
               for r in line.split(";")]
    return [(lineno, r) for lineno, r in records if r and not r.startswith("#")]


def parse_on_set(text: str, algebra: Algebra) -> OrthonormalSet:
    records = on_set_records(text)
    if not records:
        raise ValueError("empty ON-set description")
    lineno, head = records[0][0], records[0][1].split()
    if len(head) != 2:
        raise ValueError('ON-set header must be "m n"')
    for token in head:
        # int() alone also reads other Unicode digits and "_" separators.
        if not re.fullmatch(r"[+-]?[0-9]+", token):
            raise ValueError(f"line {lineno}: expected an integer, got {token!r}")
    m, n = int(head[0]), int(head[1])
    if len(records) - 1 != m:
        raise ValueError(f"line {lineno}: expected {m} block records,"
                         f" got {len(records) - 1}")
    blocks: list[list[int] | None] = [None] * m
    for lineno, record in records[1:]:
        match = _BLOCK_RE.match(record)
        if not match:
            raise ValueError(f"line {lineno}: malformed block record {record!r}")
        i = int(match.group(1))
        if not 1 <= i <= m:
            raise ValueError(f"line {lineno}: block number M{i} outside 1..{m}")
        if blocks[i - 1] is not None:
            raise ValueError(f"line {lineno}: repeated block record M{i}")
        blocks[i - 1] = [int(s) for s in match.group(2).replace(",", " ").split()]
    return from_blocks(algebra, n, blocks)
