"""Boolean functions over a finite algebra, in minterm canonical form.

A function of n variables is stored as its dense table of 2**n coefficients,
entry j holding the value at the 0/1 point whose bits spell j (variable x1 is
the most significant bit).  Since the carrier is a powerset algebra, the table
is kept atom-sliced in a numpy array: booleans up to one atom, otherwise one
uint64 atom mask per entry, which holds any algebra since ``Algebra`` stops
at 64 atoms.  Every Boolean operation on functions is then a single vectorized
bitwise operation, and evaluation at an arbitrary point of B**n decomposes
atom by atom.

Functions are immutable after construction and all operations are pure.
A table is built for any n: the command line, not this module, limits n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraElement, AlgebraMismatchError
from .parsing import Cubes, Expr, Not, Prod, Sum, parse_expr


_BOOL, _UINT64 = np.dtype(bool), np.dtype(np.uint64)


def _dtype_for(algebra: Algebra) -> np.dtype:
    return _BOOL if algebra.atom_count <= 1 else _UINT64


def _entry(algebra: Algebra, mask: int):
    """The table entry of an atom mask."""
    return bool(mask) if algebra.atom_count <= 1 else np.uint64(mask)


class BoolFunction:
    """An n-variable function B**n -> B as a dense coefficient table."""

    __slots__ = ("algebra", "n", "table")

    def __init__(self, algebra: Algebra, n: int, table: np.ndarray):
        if table.shape != (1 << n,):
            raise ValueError(f"table must be flat with 2^{n} entries")
        if table.dtype != _dtype_for(algebra):
            raise ValueError("table dtype does not match the algebra")
        table.flags.writeable = False
        self.algebra = algebra
        self.n = n
        self.table = table

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, algebra: Algebra, n: int, value: AlgebraElement) -> "BoolFunction":
        if value.algebra != algebra:
            raise AlgebraMismatchError("constant from a different algebra")
        table = np.full(1 << n, _entry(algebra, value.mask),
                        dtype=_dtype_for(algebra))
        return cls(algebra, n, table)

    @classmethod
    def variable(cls, algebra: Algebra, n: int, i: int) -> "BoolFunction":
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        table = np.zeros(1 << n, dtype=_dtype_for(algebra))
        x = Cubes(algebra, (1 << i,), (1 << i,), (algebra.full_mask,))
        return cls(algebra, n, _write_expr(table, range(n), x, {}, algebra))

    @classmethod
    def from_coeffs(cls, algebra: Algebra, n: int, coeffs) -> "BoolFunction":
        """Function with the given 2**n coefficients (entry j = value at A_j)."""
        coeffs = list(coeffs)
        if len(coeffs) != 1 << n:
            raise ValueError(f"expected 2^{n} coefficients, got {len(coeffs)}")
        table = np.empty(1 << n, dtype=_dtype_for(algebra))
        for j, c in enumerate(coeffs):
            if c.algebra != algebra:
                raise AlgebraMismatchError("coefficient from a different algebra")
            table[j] = _entry(algebra, c.mask)
        return cls(algebra, n, table)

    @classmethod
    def from_expr(cls, expr: Expr, n: int, algebra: Algebra) -> "BoolFunction":
        _check_expr(expr, n, algebra)
        table = np.zeros(1 << n, dtype=_dtype_for(algebra))
        return cls(algebra, n, _write_expr(table, range(n), expr, {}, algebra))

    # -- coefficient access --------------------------------------------------

    def coeff(self, j: int) -> AlgebraElement:
        """Coefficient of minterm j, i.e. the value at the 0/1 point A_j."""
        if not 0 <= j < self.table.shape[0]:
            raise IndexError(f"minterm index {j} out of range")
        return self.algebra.element(int(self.table[j]))

    @property
    def coeffs(self) -> tuple[AlgebraElement, ...]:
        return tuple(self.algebra.element(int(v)) for v in self.table)

    def support(self) -> tuple[int, ...]:
        """Minterm indices with a nonzero coefficient."""
        return tuple(int(j) for j in np.nonzero(self.table)[0])

    def is_indicator(self) -> bool:
        """True when every coefficient is 0 or 1."""
        one = _entry(self.algebra, self.algebra.full_mask)
        return bool(np.all((self.table == 0) | (self.table == one)))

    @property
    def is_zero(self) -> bool:
        return not self.table.any()

    @property
    def is_one(self) -> bool:
        one = _entry(self.algebra, self.algebra.full_mask)
        return bool(np.all(self.table == one))

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point) -> AlgebraElement:
        """Value at an arbitrary point of B**n.

        Decomposes atomwise: atom t belongs to f(Z) exactly when the t-slice
        of the table holds 1 at the 0/1 point formed by the t-bits of Z.
        """
        point = tuple(point)
        if len(point) != self.n:
            raise ValueError(f"expected {self.n} arguments, got {len(point)}")
        for z in point:
            if z.algebra != self.algebra:
                raise AlgebraMismatchError("argument from a different algebra")
        mask = 0
        for t in range(self.algebra.atom_count):
            idx = 0
            for z in point:
                idx = idx << 1 | (z.mask >> t & 1)
            if int(self.table[idx]) >> t & 1:
                mask |= 1 << t
        return self.algebra.element(mask)

    # -- cofactors ------------------------------------------------------------

    def cofactor(self, i: int, v: int) -> "BoolFunction":
        """f with variable i pinned to bit v; arity is kept, variable i inert."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for n={self.n}")
        if v not in (0, 1):
            raise ValueError("cofactor bit must be 0 or 1")
        view = self.table.reshape((2,) * self.n)
        sel = [slice(None)] * self.n
        sel[i] = v
        half = view[tuple(sel)]
        out = np.stack((half, half), axis=i).reshape(-1)
        return BoolFunction(self.algebra, self.n, out)

    # -- pointwise algebra ------------------------------------------------------

    def _compatible(self, other: "BoolFunction") -> None:
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("functions over different algebras")
        if self.n != other.n:
            raise ValueError(f"arity mismatch: {self.n} vs {other.n}")

    def __mul__(self, other: "BoolFunction") -> "BoolFunction":
        self._compatible(other)
        return BoolFunction(self.algebra, self.n, self.table & other.table)

    def __add__(self, other: "BoolFunction") -> "BoolFunction":
        self._compatible(other)
        return BoolFunction(self.algebra, self.n, self.table | other.table)

    def __invert__(self) -> "BoolFunction":
        one = _entry(self.algebra, self.algebra.full_mask)
        return BoolFunction(self.algebra, self.n, self.table ^ one)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BoolFunction):
            return NotImplemented
        return (self.algebra == other.algebra and self.n == other.n
                and bool(np.array_equal(self.table, other.table)))

    __hash__ = None

    def __repr__(self) -> str:
        body = to_expression(self)
        if len(body) > 60:
            body = body[:57] + "..."
        return f"<BoolFunction n={self.n} over 2^{self.algebra.atom_count}: {body}>"


def _write_expr(table: np.ndarray, variables, expr: Expr, point: dict[int, int],
                algebra: Algebra) -> np.ndarray:
    """OR the expression into ``table`` in place and return the table.  The
    flat table ranges over ``variables`` (the first is the most significant
    bit).  A row of a ``Cubes`` node is a strided write, and a literal on
    any other variable v meets the row's mask with ``point[v]``, an atom
    mask, or its complement.  A row that lies wholly inside the table is
    written on its own.  The rows that meet the point are merged by their
    literals on the table: their masks are ORed as ints, and each group is
    one write.  A mask of 1 is assigned, which is the same and cheaper, and
    any other is ORed into the strided view in place.  A row's 1 is the
    table algebra's 1, so a two-element row can be written into 64-lane
    words (``algebra`` 2^64, lane patterns in ``point``).  Other nodes
    combine their parts' tables entrywise."""
    variables = tuple(variables)
    view = table.reshape((2,) * len(variables))
    # Keyed by a variable's bit: its axis, or the point's mask and complement.
    axis = {1 << v: a for a, v in enumerate(variables)}
    met = {1 << v: (mask, ~mask) for v, mask in point.items()}
    inside = sum(axis)
    outside = ~inside
    # The Ellipsis keeps a view when every axis is fixed.
    whole = [slice(None)] * len(variables) + [...]
    full, one = algebra.full_mask, _entry(algebra, algebra.full_mask)

    def write(care, bits, mask):
        sel = whole.copy()
        while care:
            low = care & -care
            sel[axis[low]] = 1 if bits & low else 0
            care ^= low
        if mask == full:
            view[tuple(sel)] = one
        else:
            # Only a uint64 table meets a mask other than 0 and 1.
            sub = view[tuple(sel)]
            sub |= mask

    for part in expr.parts if isinstance(expr, Sum) else (expr,):
        if isinstance(part, Cubes):
            top = part.algebra.full_mask
            merged = {}
            for care, bits, mask in zip(part.care, part.bits, part.value):
                if mask == top:
                    mask = full
                lits = care & outside
                if not lits:
                    if mask:
                        write(care, bits, mask)
                    continue
                while lits:
                    low = lits & -lits
                    mask &= met[low][0] if bits & low else met[low][1]
                    lits ^= low
                if mask:
                    key = (care & inside, bits & inside)
                    merged[key] = merged.get(key, 0) | mask
            for (care, bits), mask in merged.items():
                write(care, bits, mask)
        elif isinstance(part, Sum):
            _write_expr(table, variables, part, point, algebra)
        elif isinstance(part, Prod):
            out = np.full_like(table, one)
            for p in part.parts:
                out &= _write_expr(np.zeros_like(table), variables, p, point, algebra)
            table |= out
        else:
            table |= _write_expr(np.zeros_like(table), variables, part.arg,
                                 point, algebra) ^ one
    return table


def _check_algebra(expr: Expr, algebra: Algebra) -> None:
    if isinstance(expr, Cubes):
        if expr.algebra != algebra:
            raise AlgebraMismatchError("constant from a different algebra")
    elif isinstance(expr, (Sum, Prod, Not)):
        for part in (expr.arg,) if isinstance(expr, Not) else expr.parts:
            _check_algebra(part, algebra)
    else:
        raise TypeError(f"unknown expression node {expr!r}")


def _check_expr(expr: Expr, n: int, algebra: Algebra) -> None:
    """Reject a node from another algebra or a variable outside n, before
    any table is allocated."""
    _check_algebra(expr, algebra)
    support = expr.support()
    if support >> n:
        raise ValueError(f"variable index {support.bit_length() - 1} outside n={n}")


def parse(text: str, n: int, algebra: Algebra,
          var_names: list[str] | None = None) -> BoolFunction:
    """Parse an expression into its minterm canonical form."""
    return BoolFunction.from_expr(parse_expr(text, n, algebra, var_names), n, algebra)


def shannon_sop(f: BoolFunction, i: int) -> tuple[BoolFunction, BoolFunction]:
    """Cofactor pair (c1, c0) of the sum form f = xi*c1 + xi'*c0."""
    return f.cofactor(i, 1), f.cofactor(i, 0)


def shannon_pos(f: BoolFunction, i: int) -> tuple[BoolFunction, BoolFunction]:
    """Cofactor pair (c0, c1) of the product form f = (xi + c0)(xi' + c1)."""
    return f.cofactor(i, 0), f.cofactor(i, 1)


@dataclass(frozen=True)
class Term:
    """A product of literals: exponent 1 = xi, 0 = xi', -1 = variable absent."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(e not in (-1, 0, 1) for e in self.exponents):
            raise ValueError("term exponents must be -1, 0 or 1")

    @property
    def width(self) -> int:
        return len(self.exponents)

    def fixed_vars(self) -> dict[int, int]:
        """Map of variable index -> forced bit under t = 1."""
        return {i: e for i, e in enumerate(self.exponents) if e != -1}

    def text(self, var_names: list[str] | None = None) -> str:
        parts = []
        for i, e in enumerate(self.exponents):
            if e == -1:
                continue
            name = var_names[i] if var_names else f"x{i + 1}"
            parts.append(name if e == 1 else name + "'")
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.text()


def term_to_function(t: Term, n: int, algebra: Algebra) -> BoolFunction:
    """Indicator function of the term's subcube.

    Terms narrower than n are padded with absent variables on the right.
    """
    if t.width > n:
        raise ValueError(f"term over {t.width} variables does not fit n={n}")
    table = np.zeros(1 << n, dtype=_dtype_for(algebra))
    fixed = t.fixed_vars()
    care = sum(1 << i for i in fixed)
    bits = sum(1 << i for i, e in fixed.items() if e)
    cube = Cubes(algebra, (care,), (bits,), (algebra.full_mask,))
    return BoolFunction(algebra, n, _write_expr(table, range(n), cube, {}, algebra))


def minterm_function(algebra: Algebra, n: int, j: int) -> BoolFunction:
    """The minterm with index j (indicator of the single point A_j)."""
    if not 0 <= j < 1 << n:
        raise IndexError(f"minterm index {j} out of range for n={n}")
    table = np.zeros(1 << n, dtype=_dtype_for(algebra))
    table[j] = _entry(algebra, algebra.full_mask)
    return BoolFunction(algebra, n, table)


def point_bits(j: int, n: int) -> tuple[int, ...]:
    """The 0/1 point A_j as bits, variable x1 first."""
    return tuple(j >> (n - 1 - i) & 1 for i in range(n))


def to_expression(f: BoolFunction, var_names: list[str] | None = None) -> str:
    """Render the minterm canonical form as parseable expression text."""
    parts = []
    for j in f.support():
        c = f.coeff(j)
        if f.n == 0:
            parts.append(str(c))
            continue
        lits = Term(tuple(point_bits(j, f.n))).text(var_names)
        parts.append(lits if c.is_one else f"({c})*{lits}")
    return " + ".join(parts) if parts else "0"
