"""Expression grammar for functions and algebra-element literals.

Grammar (whitespace insignificant)::

    expr    := term ('+' term)*
    term    := factor (('*')? factor)*
    factor  := primary "'"*
    primary := '0' | '1' | atom | var | '(' expr ')'
    atom    := 'a' digits
    var     := 'x' digits          (x1 is the first variable)

Juxtaposition multiplies, postfix ``'`` complements and binds tightest.
For convenience the bare letters ``x y z w`` are accepted as aliases for
``x1 x2 x3 x4``, and callers may supply their own variable names instead.
A name is one letter followed by digits in the sense of ``str.isdigit``, so
names such as ``p2``, ``α`` and ``p²`` can be declared; only ASCII digits
number an ``x`` variable or an ``a`` atom.  Element literals use the same
grammar without variables.

The parser folds cube terms as it reads them.  Constants and variables are
``Cube`` leaves: a constant value times literals over distinct variables.
A product of cubes is one cube (values meet, and a variable met in both
polarities makes the value 0); a prime on a constant or on a bare literal
is a cube; a sum of constants is a constant.  ``Sum``, ``Prod`` and ``Not``
nodes remain only for other shapes, such as a complemented sum that holds
variables.  A DIMACS clause list is read into the same tree by ``cnf_expr``:
a ``Sum`` of one ``Cube`` per clause.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, AlgebraElement, complement, join, meet


class ExpressionSyntaxError(ValueError):
    """Syntax error or unknown symbol, with its character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------------------------------------------------------------------------
# Abstract syntax


class Expr:
    """Node of an expression tree; evaluable at a tuple of elements."""

    def evaluate(self, args: tuple[AlgebraElement, ...], algebra: Algebra) -> AlgebraElement:
        raise NotImplementedError


@dataclass(frozen=True)
class Cube(Expr):
    """``value`` times the literals ``lits``: (variable, bit) pairs over
    distinct 0-based variables, bit 1 standing for x and 0 for x'."""

    value: AlgebraElement
    lits: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len({v for v, _ in self.lits}) != len(self.lits):
            raise ValueError(f"cube literals {self.lits} repeat a variable")

    def evaluate(self, args, algebra):
        out = self.value
        for v, bit in self.lits:
            out = meet(out, args[v] if bit else complement(args[v]))
        return out


@dataclass(frozen=True)
class Sum(Expr):
    parts: tuple[Expr, ...]

    def evaluate(self, args, algebra):
        out = algebra.zero
        for p in self.parts:
            out = join(out, p.evaluate(args, algebra))
        return out


@dataclass(frozen=True)
class Prod(Expr):
    parts: tuple[Expr, ...]

    def evaluate(self, args, algebra):
        out = algebra.one
        for p in self.parts:
            out = meet(out, p.evaluate(args, algebra))
        return out


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def evaluate(self, args, algebra):
        return complement(self.arg.evaluate(args, algebra))


# ---------------------------------------------------------------------------
# Tokenizer

_LETTER_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}  # 1-based variable numbers
_PUNCTUATION = "01+*'()"  # each is one token, of its own kind
_FACTOR_START = {"0", "1", "(", "NAME"}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) tokens, ending with an END token."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in _PUNCTUATION:
            tokens.append((c, c, i))
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("NAME", text[i:j], i))
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("END", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, n: int, algebra: Algebra,
                 var_names: dict[str, int] | None):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.n = n
        self.algebra = algebra
        self.var_names = var_names  # name -> 0-based index, or None

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Expr:
        e = self.expr()
        kind, text, pos = self.peek()
        if kind != "END":
            raise ExpressionSyntaxError(f"unexpected {text!r}", pos)
        return e

    def expr(self) -> Expr:
        parts = [self.term()]
        while self.peek()[0] == "+":
            self.pos += 1
            parts.append(self.term())
        if len(parts) == 1:
            return parts[0]
        if all(isinstance(p, Cube) and not p.lits for p in parts):
            mask = 0
            for p in parts:
                mask |= p.value.mask
            return Cube(self.algebra.element(mask))
        return Sum(tuple(parts))

    def term(self) -> Expr:
        parts = [self.factor()]
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.pos += 1
            elif kind not in _FACTOR_START:
                break
            parts.append(self.factor())
        if len(parts) == 1:
            return parts[0]
        if not all(isinstance(p, Cube) for p in parts):
            return Prod(tuple(parts))
        mask, lits = self.algebra.full_mask, {}
        for p in parts:
            mask &= p.value.mask
            for v, bit in p.lits:
                if lits.setdefault(v, bit) != bit:
                    mask = 0
        return Cube(self.algebra.element(mask), tuple(lits.items()))

    def factor(self) -> Expr:
        e = self.primary()
        while self.peek()[0] == "'":
            self.pos += 1
            if isinstance(e, Cube) and not e.lits:
                e = Cube(complement(e.value))
            elif isinstance(e, Cube) and len(e.lits) == 1 and e.value.is_one:
                ((v, bit),) = e.lits
                e = Cube(e.value, ((v, 1 - bit),))
            else:
                e = Not(e)
        return e

    def primary(self) -> Expr:
        kind, text, pos = self.next()
        if kind == "0":
            return Cube(self.algebra.zero)
        if kind == "1":
            return Cube(self.algebra.one)
        if kind == "(":
            e = self.expr()
            kind, _, pos = self.next()
            if kind != ")":
                raise ExpressionSyntaxError("expected ')'", pos)
            return e
        if kind == "NAME":
            return self.resolve_name(text, pos)
        raise ExpressionSyntaxError(f"unexpected {text or 'end of input'!r}", pos)

    def resolve_name(self, name: str, pos: int) -> Cube:
        # A NAME token is a letter and digits, so an ASCII name longer than
        # one character is a letter and an ASCII number.
        numbered = len(name) > 1 and name.isascii()
        if self.var_names is not None:
            if name in self.var_names:
                return Cube(self.algebra.one, ((self.var_names[name], 1),))
            if name[0] == "a" and numbered:
                return self.resolve_atom(name, pos)
            raise ExpressionSyntaxError(f"unknown variable {name!r}", pos)
        if name[0] == "x" and numbered:
            number = int(name[1:])
            if not 1 <= number <= self.n:
                raise ExpressionSyntaxError(
                    f"variable {name!r} outside x1..x{self.n}", pos)
            return Cube(self.algebra.one, ((number - 1, 1),))
        if name[0] == "a" and numbered:
            return self.resolve_atom(name, pos)
        if name in _LETTER_ALIASES and _LETTER_ALIASES[name] <= self.n:
            return Cube(self.algebra.one, ((_LETTER_ALIASES[name] - 1, 1),))
        raise ExpressionSyntaxError(f"unknown symbol {name!r}", pos)

    def resolve_atom(self, name: str, pos: int) -> Cube:
        atom = int(name[1:])
        if atom >= self.algebra.atom_count:
            raise ExpressionSyntaxError(
                f"unknown atom {name!r} (algebra has "
                f"{self.algebra.atom_count} atoms)", pos)
        return Cube(self.algebra.atom(atom))


def parse_expr(text: str, n: int, algebra: Algebra,
               var_names: list[str] | None = None) -> Expr:
    """Parse an n-variable expression into its syntax tree.

    ``var_names`` replaces the default scheme (x1..xn plus the x/y/z/w
    aliases) with explicit names, one per variable.
    """
    names = None
    if var_names is not None:
        if len(var_names) != n:
            raise ValueError(f"expected {n} variable names, got {len(var_names)}")
        names = {name: i for i, name in enumerate(var_names)}
        if len(names) != n:
            raise ValueError("variable names must be distinct")
    return _Parser(text, n, algebra, names).parse()


def cnf_expr(clauses, algebra: Algebra) -> Sum:
    """f of a DIMACS clause list, 1 where some clause is false: one
    ``Cube(1, lits)`` per clause, on the points that falsify it.  A clause
    holding a variable in both polarities is always true and has no cube."""
    one, parts = algebra.one, []
    for clause in clauses:
        lits = {abs(lit) - 1: int(lit < 0) for lit in clause}
        if len(lits) == len(set(clause)):
            parts.append(Cube(one, tuple(lits.items())))
    return Sum(tuple(parts))


def parse_element(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse a constant literal (no variables) into an algebra element."""
    expr = _Parser(text, 0, algebra, None).parse()
    return expr.evaluate((), algebra)
