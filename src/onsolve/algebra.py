"""Finite Boolean algebras as powerset algebras over named atoms.

Every finite Boolean algebra is isomorphic to the powerset algebra of its
atoms, so a carrier of size 2**k is modelled here by k named atoms
``a0 .. a{k-1}`` and each element by the set of atoms below it, stored as an
int bitmask.  An algebra has at most ``MAX_ATOMS`` = 64 atoms, so every
element fits one 64-bit word.  All operations are bitwise and exact.
Elements are immutable values; every operation is pure, so they are safe to
share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

MAX_ATOMS = 64
"""Largest atom count: a function table holds one uint64 atom mask per entry."""


class AlgebraMismatchError(ValueError):
    """An operation received elements of two different algebras."""


@dataclass(frozen=True)
class Algebra:
    """The finite Boolean algebra with ``2**atom_count`` elements.

    ``atom_count`` = 0 gives the degenerate one-element algebra (0 = 1);
    ``atom_count`` = 1 is the two-element switching algebra.  Counts above
    ``MAX_ATOMS`` are rejected.
    """

    atom_count: int

    def __post_init__(self) -> None:
        if self.atom_count < 0:
            raise ValueError("atom count must be nonnegative")
        if self.atom_count > MAX_ATOMS:
            raise ValueError(f"atom count {self.atom_count} exceeds the limit "
                             f"of {MAX_ATOMS} atoms")

    @property
    def size(self) -> int:
        return 1 << self.atom_count

    @property
    def full_mask(self) -> int:
        return (1 << self.atom_count) - 1

    # Built once; equality and hashing still see atom_count only.
    @cached_property
    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, 0)

    @cached_property
    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.full_mask)

    @cached_property
    def _atoms(self) -> dict[int, "AlgebraElement"]:
        return {}  # filled on demand: all k atoms hold k^2/2 mask bits

    def atom(self, i: int) -> "AlgebraElement":
        if not 0 <= i < self.atom_count:
            raise IndexError(f"atom index {i} out of range for {self!r}")
        atom = self._atoms.get(i)
        if atom is None:
            atom = self._atoms[i] = AlgebraElement(self, 1 << i)
        return atom

    def element(self, mask: int) -> "AlgebraElement":
        """Element from an atom bitmask (bit i set = atom ``a{i}`` present)."""
        return AlgebraElement(self, mask)

    def elements(self) -> Iterator["AlgebraElement"]:
        """All 2**k elements in mask order.  Only sensible for small k."""
        for mask in range(self.size):
            yield AlgebraElement(self, mask)

    @property
    def is_two_element(self) -> bool:
        return self.atom_count == 1


@dataclass(frozen=True)
class AlgebraElement:
    """An element of a finite Boolean algebra, as a bitmask of atoms."""

    algebra: Algebra
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.algebra.full_mask:
            raise ValueError(
                f"mask {self.mask:#x} outside carrier of {self.algebra!r}"
            )

    @property
    def atoms(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.algebra.atom_count) if self.mask >> i & 1)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_one(self) -> bool:
        return self.mask == self.algebra.full_mask

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return meet(self, other)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return join(self, other)

    def __invert__(self) -> "AlgebraElement":
        return complement(self)

    def __le__(self, other: "AlgebraElement") -> bool:
        return leq(self, other)

    def __str__(self) -> str:
        if self.mask == 0:
            return "0"
        if self.is_one:
            return "1"
        return "+".join(f"a{i}" for i in self.atoms)

    def __repr__(self) -> str:
        return f"<{self} in 2^{self.algebra.atom_count}>"


def _same_algebra(a: AlgebraElement, b: AlgebraElement) -> Algebra:
    if a.algebra != b.algebra:
        raise AlgebraMismatchError(
            f"operands from different algebras: {a.algebra!r} vs {b.algebra!r}"
        )
    return a.algebra


def meet(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Boolean multiplication a.b (atom-set intersection)."""
    return AlgebraElement(_same_algebra(a, b), a.mask & b.mask)


def join(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Boolean addition a+b (atom-set union)."""
    return AlgebraElement(_same_algebra(a, b), a.mask | b.mask)


def complement(a: AlgebraElement) -> AlgebraElement:
    """a' relative to the full atom set."""
    return AlgebraElement(a.algebra, a.mask ^ a.algebra.full_mask)


def leq(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Partial order a <= b, decided as a.b' = 0."""
    return meet(a, complement(b)).mask == 0


def meet_all(items, algebra: Algebra) -> AlgebraElement:
    """Product of a (possibly empty) iterable of elements; empty = 1."""
    out = algebra.one
    for x in items:
        out = meet(out, x)
    return out


def join_all(items, algebra: Algebra) -> AlgebraElement:
    """Sum of a (possibly empty) iterable of elements; empty = 0."""
    out = algebra.zero
    for x in items:
        out = join(out, x)
    return out


B0 = Algebra(1)
"""The two-element algebra {0, 1}."""
