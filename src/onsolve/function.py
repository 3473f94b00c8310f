"""Boolean functions over a finite algebra, in minterm canonical form.

A function of n variables is stored as its dense table of 2**n coefficients,
entry j holding the value at the 0/1 point whose bits spell j (variable x1 is
the most significant bit).  Since the carrier is a powerset algebra, the table
is kept atom-sliced in a numpy array: booleans for the two-element algebra,
one 64-bit atom mask per entry up to 64 atoms, arbitrary-precision masks
beyond.  Every Boolean operation on functions is then a single vectorized
bitwise operation, and evaluation at an arbitrary point of B**n decomposes
atom by atom.

Functions are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, AlgebraElement, AlgebraMismatchError
from .parsing import Cube, Expr, Not, Prod, Sum, parse_expr

DEFAULT_VAR_CAP = 24


def _dtype_for(algebra: Algebra) -> np.dtype:
    if algebra.atom_count <= 1:
        return np.dtype(bool)
    if algebra.atom_count <= 64:
        return np.dtype(np.uint64)
    return np.dtype(object)


def _one_value(algebra: Algebra):
    """Table entry representing the constant 1 of the algebra."""
    if algebra.atom_count <= 1:
        return algebra.atom_count == 1
    if algebra.atom_count <= 64:
        return np.uint64(algebra.full_mask)
    return algebra.full_mask


def _mask_to_value(algebra: Algebra, mask: int):
    if algebra.atom_count <= 1:
        return bool(mask)
    if algebra.atom_count <= 64:
        return np.uint64(mask)
    return mask


def _check_var_cap(n: int, var_cap: int) -> None:
    if n < 0:
        raise ValueError("variable count must be nonnegative")
    if n > var_cap:
        raise ValueError(
            f"{n} variables exceeds the table cap of {var_cap} "
            f"(pass var_cap={n} to allow tables of 2^{n} entries)"
        )


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
    def constant(cls, algebra: Algebra, n: int, value: AlgebraElement,
                 var_cap: int = DEFAULT_VAR_CAP) -> "BoolFunction":
        if value.algebra != algebra:
            raise AlgebraMismatchError("constant from a different algebra")
        _check_var_cap(n, var_cap)
        table = np.full(1 << n, _mask_to_value(algebra, value.mask),
                        dtype=_dtype_for(algebra))
        return cls(algebra, n, table)

    @classmethod
    def variable(cls, algebra: Algebra, n: int, i: int,
                 var_cap: int = DEFAULT_VAR_CAP) -> "BoolFunction":
        _check_var_cap(n, var_cap)
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for n={n}")
        table = np.zeros(1 << n, dtype=_dtype_for(algebra))
        _write_cubes(table, range(n), [Cube(algebra.one, ((i, 1),))], {}, algebra)
        return cls(algebra, n, table)

    @classmethod
    def from_coeffs(cls, algebra: Algebra, n: int, coeffs,
                    var_cap: int = DEFAULT_VAR_CAP) -> "BoolFunction":
        """Function with the given 2**n coefficients (entry j = value at A_j)."""
        _check_var_cap(n, var_cap)
        coeffs = list(coeffs)
        if len(coeffs) != 1 << n:
            raise ValueError(f"expected 2^{n} coefficients, got {len(coeffs)}")
        table = np.empty(1 << n, dtype=_dtype_for(algebra))
        for j, c in enumerate(coeffs):
            if c.algebra != algebra:
                raise AlgebraMismatchError("coefficient from a different algebra")
            table[j] = _mask_to_value(algebra, c.mask)
        return cls(algebra, n, table)

    @classmethod
    def from_expr(cls, expr: Expr, n: int, algebra: Algebra,
                  var_cap: int = DEFAULT_VAR_CAP) -> "BoolFunction":
        _check_var_cap(n, var_cap)
        return cls(algebra, n, _expr_table(expr, n, algebra))

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
        one = _one_value(self.algebra)
        return bool(np.all((self.table == 0) | (self.table == one)))

    @property
    def is_zero(self) -> bool:
        return not self.table.any()

    @property
    def is_one(self) -> bool:
        return bool(np.all(self.table == _one_value(self.algebra)))

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

    def evaluate_bits(self, bits) -> AlgebraElement:
        """Value at a 0/1 point given as a sequence of ints."""
        idx = 0
        count = 0
        for b in bits:
            idx = idx << 1 | (b & 1)
            count += 1
        if count != self.n:
            raise ValueError(f"expected {self.n} bits, got {count}")
        return self.coeff(idx)

    # -- cofactors and restriction ---------------------------------------------

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

    def restrict(self, fixed: dict[int, int]) -> "BoolFunction":
        """Fix some variables to bits, dropping them from the arity.

        Remaining variables keep their relative order.
        """
        for i, v in fixed.items():
            if not 0 <= i < self.n:
                raise IndexError(f"variable index {i} out of range for n={self.n}")
            if v not in (0, 1):
                raise ValueError("restriction bits must be 0 or 1")
        view = self.table.reshape((2,) * self.n)
        sel = tuple(fixed.get(ax, slice(None)) for ax in range(self.n))
        sub = np.ascontiguousarray(view[sel]).reshape(-1)
        return BoolFunction(self.algebra, self.n - len(fixed), sub)

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
        return BoolFunction(self.algebra, self.n,
                            self.table ^ _one_value(self.algebra))

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


def _write_cubes(table: np.ndarray, variables, cubes, point: dict[int, int],
                 algebra: Algebra) -> None:
    """OR each ``Cube`` term into the entries of its cube, in place.  The
    flat table ranges over ``variables`` (the first is the most significant
    bit).  A literal on any other variable v is set by ``point[v]``, an atom
    mask that the term's value meets.  A value of 1 is assigned, which is
    the same and cheaper."""
    variables = tuple(variables)
    view = table.reshape((2,) * len(variables))
    axis = {v: a for a, v in enumerate(variables)}
    full, one = algebra.full_mask, _one_value(algebra)
    for cube in cubes:
        mask = cube.value.mask
        sel = [slice(None)] * len(variables)
        for v, bit in cube.lits:
            if v in axis:
                sel[axis[v]] = bit
            else:
                mask &= point[v] if bit else ~point[v]
        if mask == full:
            view[tuple(sel)] = one
        elif mask:
            view[tuple(sel)] |= _mask_to_value(algebra, mask)


def _check_cube(cube: Cube, n: int, algebra: Algebra) -> None:
    if cube.value.algebra != algebra:
        raise AlgebraMismatchError("constant from a different algebra")
    for v, _ in cube.lits:
        if v >= n:
            raise ValueError(f"variable index {v} outside n={n}")


def _expr_table(expr: Expr, n: int, algebra: Algebra) -> np.ndarray:
    """Table of an expression (equals evaluating the tree at every 0/1
    point, since all operations act entrywise).  Each ``Cube`` part of a
    sum is one strided write into a zeros buffer; any other part is built
    compositionally."""
    out = np.zeros(1 << n, dtype=_dtype_for(algebra))
    cubes = []
    for part in expr.parts if isinstance(expr, Sum) else (expr,):
        if not isinstance(part, Cube):
            out |= _composite_table(part, n, algebra)
            continue
        _check_cube(part, n, algebra)
        cubes.append(part)
    _write_cubes(out, range(n), cubes, {}, algebra)
    return out


def _composite_table(expr: Expr, n: int, algebra: Algebra) -> np.ndarray:
    """Table of a node that is not a ``Cube``, from its parts' tables."""
    if isinstance(expr, Sum):
        return _expr_table(expr, n, algebra)
    if isinstance(expr, Prod):
        out = np.full(1 << n, _one_value(algebra), dtype=_dtype_for(algebra))
        for p in expr.parts:
            out &= _expr_table(p, n, algebra)
        return out
    if isinstance(expr, Not):
        return _expr_table(expr.arg, n, algebra) ^ _one_value(algebra)
    raise TypeError(f"unknown expression node {expr!r}")


def parse(text: str, n: int, algebra: Algebra,
          var_names: list[str] | None = None,
          var_cap: int = DEFAULT_VAR_CAP) -> BoolFunction:
    """Parse an expression into its minterm canonical form."""
    return BoolFunction.from_expr(parse_expr(text, n, algebra, var_names),
                                  n, algebra, var_cap=var_cap)


def cofactor(f: BoolFunction, i: int, v: int) -> BoolFunction:
    return f.cofactor(i, v)


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


def term_to_function(t: Term, n: int, algebra: Algebra,
                     var_cap: int = DEFAULT_VAR_CAP) -> BoolFunction:
    """Indicator function of the term's subcube.

    Terms narrower than n are padded with absent variables on the right.
    """
    _check_var_cap(n, var_cap)
    if t.width > n:
        raise ValueError(f"term over {t.width} variables does not fit n={n}")
    table = np.zeros(1 << n, dtype=_dtype_for(algebra))
    _write_cubes(table, range(n), [Cube(algebra.one, tuple(t.fixed_vars().items()))],
                 {}, algebra)
    return BoolFunction(algebra, n, table)


def minterm_function(algebra: Algebra, n: int, j: int,
                     var_cap: int = DEFAULT_VAR_CAP) -> BoolFunction:
    """The minterm with index j (indicator of the single point A_j)."""
    _check_var_cap(n, var_cap)
    if not 0 <= j < 1 << n:
        raise IndexError(f"minterm index {j} out of range for n={n}")
    table = np.zeros(1 << n, dtype=_dtype_for(algebra))
    table[j] = _one_value(algebra)
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
