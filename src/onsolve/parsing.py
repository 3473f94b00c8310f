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

The parser folds cube terms as it reads them.  A sum of cubes is one
``Cubes`` node: three equal-length tuples of ints, one row per cube, giving
the variables that have a literal (``care``, bit v for variable v), their
polarities (``bits``) and the atom mask the literals meet (``value``).  A
constant or a lone term is a node of one row.  A product of cubes is one
cube (masks meet, and a variable met in both polarities makes the mask 0);
a prime on a constant or on a bare literal is a cube; a sum of constants is
a constant.  ``Sum``, ``Prod`` and ``Not`` nodes remain only for other
shapes, such as a complemented sum that holds variables.  The cubes of a
``Sum``, with the rows of any group of cubes among its terms, make one
``Cubes`` part, its first, and the cube factors of a ``Prod`` make one
cube, its first part.  While it reads, a cube travels as a plain
``(mask, care, bits)`` triple of ints; it becomes a row of a node where it
joins the tree: as a part of a ``Sum``, ``Prod`` or ``Not``, or as the
whole expression.  So no term costs an object of its own.  A DIMACS clause list is read into the same node by
``cnf_expr``, and a DIMACS file's literals by ``clause_cubes``: one row per
clause, on the points that falsify it.

``_tokenize`` returns the token kinds, texts and start positions as three
parallel lists, and the parser walks them with one index.  ``term`` reads a
name, its primes and the ``*`` after it in one loop, and calls ``factor``
only for a constant or a group.  Each parser keeps the triple that
``resolve_name`` gave for each name text, so a name repeated in many terms
is resolved once; a parser reads one text, so nothing resolved under one
list of variable names is seen under another.

At most ``MAX_NESTING`` (100) parentheses may be open at once, and at most
as many ``Not`` nodes may lie on one path of the tree; past either limit the
text is a syntax error at the ``(`` or the ``'`` that crosses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import compress
from operator import or_

import numpy as np

from .algebra import (Algebra, AlgebraElement, AlgebraMismatchError, complement,
                      join, meet)


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

    def support(self) -> int:
        """The variables that hold a literal in the tree, bit v for
        variable v."""
        raise NotImplementedError


@dataclass(frozen=True)
class Cubes(Expr):
    """A sum of cubes over ``algebra``, one row per cube: row r is the atom
    mask ``value[r]`` times a literal on each variable v whose bit is set in
    ``care[r]``, x where bit v of ``bits[r]`` is set and x' where it is
    not.  All masks are plain ints, and ``bits[r]`` lies within
    ``care[r]``."""

    algebra: Algebra
    care: tuple[int, ...]
    bits: tuple[int, ...]
    value: tuple[int, ...]

    def __post_init__(self) -> None:
        if not len(self.care) == len(self.bits) == len(self.value):
            raise ValueError("cube rows must give care, bits and value alike")

    def evaluate(self, args, algebra):
        if algebra != self.algebra:
            raise AlgebraMismatchError("cubes from a different algebra")
        out = 0
        for care, bits, mask in zip(self.care, self.bits, self.value):
            while care and mask:
                low = care & -care
                x = args[low.bit_length() - 1].mask
                mask &= x if bits & low else ~x
                care ^= low
            out |= mask
        return algebra.element(out)

    def support(self) -> int:
        return reduce(or_, self.care, 0)

    def select(self, keep) -> "Cubes":
        """The rows where ``keep`` holds, in order."""
        return Cubes(self.algebra, tuple(compress(self.care, keep)),
                     tuple(compress(self.bits, keep)), tuple(compress(self.value, keep)))


@dataclass(frozen=True)
class Sum(Expr):
    parts: tuple[Expr, ...]

    def evaluate(self, args, algebra):
        out = algebra.zero
        for p in self.parts:
            out = join(out, p.evaluate(args, algebra))
        return out

    def support(self) -> int:
        return reduce(or_, (p.support() for p in self.parts), 0)


@dataclass(frozen=True)
class Prod(Expr):
    parts: tuple[Expr, ...]

    def evaluate(self, args, algebra):
        out = algebra.one
        for p in self.parts:
            out = meet(out, p.evaluate(args, algebra))
        return out

    def support(self) -> int:
        return reduce(or_, (p.support() for p in self.parts), 0)


@dataclass(frozen=True)
class Not(Expr):
    arg: Expr

    def evaluate(self, args, algebra):
        return complement(self.arg.evaluate(args, algebra))

    def support(self) -> int:
        return self.arg.support()


# ---------------------------------------------------------------------------
# Tokenizer

_LETTER_ALIASES = {"x": 1, "y": 2, "z": 3, "w": 4}  # 1-based variable numbers
_PUNCTUATION = "01+*'()"  # each is one token, of its own kind
_FACTOR_START = {"0", "1", "(", "NAME"}
MAX_NESTING = 100
"""Most parentheses open at once, and most ``Not`` nodes on one path of the
tree.  The parser and the tree walks after it (``Expr.evaluate``, the table
writers) recurse once per level, so a deeper text is a syntax error rather
than a ``RecursionError``."""


def _tokenize(text: str) -> tuple[list[str], list[str], list[int]]:
    """The kinds, texts and start positions of the tokens, as three parallel
    lists that end with an END token."""
    kinds: list[str] = []
    texts: list[str] = []
    starts: list[int] = []
    i, end = 0, len(text)
    while i < end:
        c = text[i]
        if c in _PUNCTUATION:
            kinds.append(c)
            texts.append(c)
            starts.append(i)
            i += 1
        elif c.isspace():
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < end and text[j].isdigit():
                j += 1
            kinds.append("NAME")
            texts.append(text[i:j])
            starts.append(i)
            i = j
        else:
            raise ExpressionSyntaxError(f"unexpected character {c!r}", i)
    kinds.append("END")
    texts.append("")
    starts.append(end)
    return kinds, texts, starts


class _Parser:
    """Recursive descent over the tokens.  ``primary``, ``factor``, ``term``
    and ``expr`` return a node, or a cube as a plain ``(mask, care, bits)``
    triple of ints: an atom mask, the variables that have a literal and
    their polarities.  ``cube`` turns a triple into a node of one row where
    it joins the tree.  ``pos`` indexes the token lists."""

    def __init__(self, text: str, n: int, algebra: Algebra,
                 var_names: dict[str, int] | None):
        self.kinds, self.texts, self.starts = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current token
        self.nots = {}  # id of a Sum/Prod/Not -> most Not nodes on a path in it
        self.n = n
        self.algebra = algebra
        self.full = algebra.full_mask
        self.var_names = var_names  # name -> 0-based index, or None
        self.resolved: dict[str, tuple[int, int, int]] = {}  # name -> its triple

    def cube(self, part: Expr | tuple[int, int, int]) -> Expr:
        if type(part) is tuple:
            mask, care, bits = part
            return Cubes(self.algebra, (care,), (bits,), (mask,))
        return part

    def node(self, e: Sum | Prod) -> Expr:
        """``e``, after noting in ``nots`` the most ``Not`` nodes on one path
        through its parts."""
        nots = max(self.nots.get(id(p), 0) for p in e.parts)
        if nots:
            self.nots[id(e)] = nots
        return e

    def parse(self) -> Expr:
        e = self.expr()
        if self.kinds[self.pos] != "END":
            raise ExpressionSyntaxError(f"unexpected {self.texts[self.pos]!r}",
                                        self.starts[self.pos])
        return self.cube(e)

    def expr(self) -> Expr | tuple[int, int, int]:
        """Terms joined by ``+``.  A sum of constants is a constant; else
        the cubes, with the rows of any ``Cubes`` part, make one node, which
        stands alone or first in a ``Sum`` of the other parts."""
        part = self.term()
        if self.kinds[self.pos] != "+":
            return part
        parts = [part]
        while self.kinds[self.pos] == "+":
            self.pos += 1
            parts.append(self.term())
        value, care, bits, others = [], [], [], []
        for part in parts:
            if type(part) is tuple:
                value.append(part[0])
                care.append(part[1])
                bits.append(part[2])
            elif type(part) is Cubes:
                value += part.value
                care += part.care
                bits += part.bits
            else:
                others.append(part)
        if not (others or any(care)):
            return reduce(or_, value), 0, 0
        if value:
            node = Cubes(self.algebra, tuple(care), tuple(bits), tuple(value))
            if not others:
                return node
            others.insert(0, node)
        return self.node(Sum(tuple(others)))

    def product(self, cubes) -> tuple[int, int, int]:
        """The cube of a product of cubes: the masks meet, and a variable
        met in both polarities makes the mask 0."""
        mask, care, bits = self.full, 0, 0
        for m, c, b in cubes:
            if care & c & (bits ^ b):
                mask = 0
            mask &= m
            care |= c
            bits |= b
        return mask, care, bits

    def term(self) -> Expr | tuple[int, int, int]:
        """Factors up to the next token that cannot start one.  A name and
        its primes are read here, without ``factor``: a prime on a name's
        triple complements its atom mask or flips its one literal.  The
        cube factors of a ``Prod`` make its first part."""
        kinds, texts, resolved = self.kinds, self.texts, self.resolved
        parts = []
        cubes = True  # every part is a triple
        pos = self.pos
        while True:
            if kinds[pos] == "NAME":
                name = texts[pos]
                part = resolved.get(name)
                if part is None:
                    part = resolved[name] = self.resolve_name(name, self.starts[pos])
                pos += 1
                if kinds[pos] == "'":
                    mask, care, bits = part
                    while kinds[pos] == "'":
                        pos += 1
                        if care:
                            bits ^= care
                        else:
                            mask ^= self.full
                    part = mask, care, bits
                parts.append(part)
            else:
                self.pos = pos
                part = self.factor()
                parts.append(part)
                cubes = cubes and type(part) is tuple
                pos = self.pos
            kind = kinds[pos]
            if kind == "*":
                pos += 1
            elif kind not in _FACTOR_START:
                break
        self.pos = pos
        if len(parts) == 1:
            return parts[0]
        if cubes:
            return self.product(parts)
        others = [p for p in parts if type(p) is not tuple]
        if len(others) < len(parts):
            others.insert(0, self.cube(self.product(p for p in parts if type(p) is tuple)))
        return self.node(Prod(tuple(others)))

    def factor(self) -> Expr | tuple[int, int, int]:
        e = self.primary()
        while self.kinds[self.pos] == "'":
            pos = self.starts[self.pos]
            self.pos += 1
            if type(e) is tuple and not e[1]:
                e = e[0] ^ self.full, 0, 0
            elif type(e) is tuple and e[0] == self.full and not e[1] & (e[1] - 1):
                e = e[0], e[1], e[2] ^ e[1]
            else:
                nots = self.nots.get(id(e), 0) + 1
                if nots > MAX_NESTING:
                    raise ExpressionSyntaxError(
                        f"complements nested deeper than {MAX_NESTING}", pos)
                e = Not(self.cube(e))
                self.nots[id(e)] = nots
        return e

    def primary(self) -> Expr | tuple[int, int, int]:
        """A constant or a group; ``term`` reads names itself."""
        i = self.pos
        kind, start = self.kinds[i], self.starts[i]
        self.pos = i + 1
        if kind == "0":
            return 0, 0, 0
        if kind == "1":
            return self.full, 0, 0
        if kind == "(":
            if self.depth == MAX_NESTING:
                raise ExpressionSyntaxError(
                    f"parentheses nested deeper than {MAX_NESTING}", start)
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            if self.kinds[self.pos] != ")":
                raise ExpressionSyntaxError("expected ')'", self.starts[self.pos])
            self.pos += 1
            return e
        raise ExpressionSyntaxError(
            f"unexpected {self.texts[i] or 'end of input'!r}", start)

    def resolve_name(self, name: str, pos: int) -> tuple[int, int, int]:
        # A NAME token is a letter and digits, so an ASCII name longer than
        # one character is a letter and an ASCII number.
        numbered = len(name) > 1 and name.isascii()
        if self.var_names is not None:
            if name in self.var_names:
                return self.literal(self.var_names[name])
            if name[0] == "a" and numbered:
                return self.resolve_atom(name, pos)
            raise ExpressionSyntaxError(f"unknown variable {name!r}", pos)
        if name[0] == "x" and numbered:
            number = int(name[1:])
            if not 1 <= number <= self.n:
                raise ExpressionSyntaxError(
                    f"variable {name!r} outside x1..x{self.n}", pos)
            return self.literal(number - 1)
        if name[0] == "a" and numbered:
            return self.resolve_atom(name, pos)
        if name in _LETTER_ALIASES and _LETTER_ALIASES[name] <= self.n:
            return self.literal(_LETTER_ALIASES[name] - 1)
        raise ExpressionSyntaxError(f"unknown symbol {name!r}", pos)

    def literal(self, v: int) -> tuple[int, int, int]:
        return self.full, 1 << v, 1 << v

    def resolve_atom(self, name: str, pos: int) -> tuple[int, int, int]:
        atom = int(name[1:])
        if atom >= self.algebra.atom_count:
            raise ExpressionSyntaxError(
                f"unknown atom {name!r} (algebra has "
                f"{self.algebra.atom_count} atoms)", pos)
        return 1 << atom, 0, 0


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


def cnf_expr(clauses, algebra: Algebra) -> Cubes:
    """``clause_cubes`` of a DIMACS clause list."""
    literals = [lit for clause in clauses for lit in (*clause, 0)]
    return clause_cubes(np.array(literals, dtype=np.int64), algebra)


def clause_cubes(literals: np.ndarray, algebra: Algebra) -> Cubes:
    """f of DIMACS clauses, 1 where some clause is false: one row per
    clause, on the points that falsify it.  ``literals`` is an integer
    array of the clauses in order, each ended by a 0 but perhaps the last.
    A clause holding a variable in both polarities is always true and has
    no row.  The masks are found for all clauses at once: each literal's
    variable bit, ORed over each clause's span, once per polarity."""
    if not len(literals):
        return Cubes(algebra, (), (), ())
    starts = np.flatnonzero(literals[:-1] == 0) + 1
    starts = np.concatenate(([0], starts))
    size = np.abs(literals)
    wide = literals.dtype == object or size.max() > 63  # Python ints past 63 variables
    one = 1 if wide else np.uint64(1)
    bit = np.left_shift(one, size.astype(object if wide else np.uint64)) >> one
    pos = np.bitwise_or.reduceat(np.where(literals > 0, bit, 0), starts)
    neg = np.bitwise_or.reduceat(np.where(literals < 0, bit, 0), starts)
    keep = (pos & neg) == 0
    care, bits = (pos | neg)[keep].tolist(), neg[keep].tolist()
    return Cubes(algebra, tuple(care), tuple(bits), (algebra.full_mask,) * len(care))


def parse_element(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse a constant literal (no variables) into an algebra element."""
    expr = _Parser(text, 0, algebra, None).parse()
    return expr.evaluate((), algebra)
