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

``_tokenize`` returns the token texts as one list, which the parser walks
with one index; a name is any token other than ``0 1 + * ' ( )`` and the
empty END token.  It spaces out the marks with ``str.replace`` and cuts the
words with ``str.split``, whose whitespace is ``str.isspace``'s.  Each
distinct word is checked once, and only a word of several tokens (``xy``,
``1x1``) or with a bad character is read one character at a time.  A
token's position is found only for an error, by ``_start``: only whitespace
lies between tokens, so each starts at the next occurrence of its text.
``expr`` reads a term that is one name, and ``term`` reads a name, its
primes and the ``*`` after it in one loop, calling ``factor`` only for a
constant or a group.  Each parser keeps the triple that
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
_SYMBOLS = frozenset(("0", "1", "+", "*", "'", "(", ")", ""))  # every token but a name
_TERM_END = frozenset(("+", ")", ""))  # the tokens that end a term
MAX_NESTING = 100
"""Most parentheses open at once, and most ``Not`` nodes on one path of the
tree.  The parser and the tree walks after it (``Expr.evaluate``, the table
writers) recurse once per level, so a deeper text is a syntax error rather
than a ``RecursionError``."""


def _tokenize(text: str) -> list[str]:
    """The token texts, ending with the empty END token.  The marks
    ``+ * ' ( )`` are spaced out into words of their own and ``str.split``
    cuts the words at whitespace.  A word that is one token (``0``, ``1``,
    a mark, or a letter and digits) is kept whole; each other distinct word
    is split once by ``_split_word``, in the order the text first meets
    them, so that the first bad character in the text is the one reported."""
    words = (text.replace("+", " + ").replace("*", " * ").replace("'", " ' ")
             .replace("(", " ( ").replace(")", " ) ").split())
    many = {word for word in set(words) if not (
        word in _SYMBOLS or word[0].isalpha() and (len(word) == 1 or word[1:].isdigit()))}
    if many:
        split = {word: _split_word(word, text, words)
                 for word in dict.fromkeys(words) if word in many}
        words = [token for word in words for token in split.get(word, (word,))]
    words.append("")
    return words


def _split_word(word: str, text: str, words: list[str]) -> list[str]:
    """The tokens of ``word``, read one character at a time: ``0`` and ``1``
    stand alone, and a letter starts a name that takes the digits after it.
    Any other character is an error at its position in ``text``, where
    ``word`` is first met in ``words``."""
    tokens = []
    i, end = 0, len(word)
    while i < end:
        c = word[i]
        if c == "0" or c == "1":
            tokens.append(c)
            i += 1
        elif c.isalpha():
            j = i + 1
            while j < end and word[j].isdigit():
                j += 1
            tokens.append(word[i:j])
            i = j
        else:
            start = _start(text, words, words.index(word))
            raise ExpressionSyntaxError(f"unexpected character {c!r}", start + i)
    return tokens


def _start(text: str, tokens: list[str], i: int) -> int:
    """The position in ``text`` of token i.  Only whitespace lies between
    tokens, so each token starts at the next occurrence of its text after
    the one before it; the END token starts at the end of the text."""
    at = 0
    for token in tokens[:i]:
        at = text.index(token, at)
        at += len(token)
    return text.index(tokens[i], at) if tokens[i] else len(text)


class _Parser:
    """Recursive descent over the token texts.  ``primary``, ``factor``,
    ``term`` and ``expr`` return a node, or a cube as a plain
    ``(mask, care, bits)`` triple of ints: an atom mask, the variables that
    have a literal and their polarities.  ``cube`` turns a triple into a
    node of one row where it joins the tree.  ``pos`` indexes the tokens; a
    token's position in the text is found only for an error."""

    def __init__(self, text: str, n: int, algebra: Algebra,
                 var_names: dict[str, int] | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0  # open parentheses around the current token
        self.nots = {}  # id of a Sum/Prod/Not -> most Not nodes on a path in it
        self.n = n
        self.algebra = algebra
        self.full = algebra.full_mask
        self.var_names = var_names  # name -> 0-based index, or None
        self.resolved: dict[str, tuple[int, int, int]] = {}  # name -> its triple

    def error(self, message: str, i: int) -> ExpressionSyntaxError:
        """A syntax error at token i."""
        return ExpressionSyntaxError(message, _start(self.text, self.tokens, i))

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
        if self.tokens[self.pos]:
            raise self.error(f"unexpected {self.tokens[self.pos]!r}", self.pos)
        return self.cube(e)

    def expr(self) -> Expr | tuple[int, int, int]:
        """Terms joined by ``+``.  A term that is one name is read here, and
        any other by ``term``.  A sum of constants is a constant; else the
        cubes, with the rows of any ``Cubes`` part, make one node, which
        stands alone or first in a ``Sum`` of the other parts."""
        tokens, resolved = self.tokens, self.resolved
        parts = []
        pos = self.pos
        while True:
            name = tokens[pos]
            if name not in _SYMBOLS and tokens[pos + 1] in _TERM_END:
                parts.append(resolved.get(name) or self.resolve(pos))
                pos += 1
            else:
                self.pos = pos
                parts.append(self.term())
                pos = self.pos
            if tokens[pos] != "+":
                break
            pos += 1
        self.pos = pos
        if len(parts) == 1:
            return parts[0]
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
        tokens, resolved = self.tokens, self.resolved
        parts = []
        cubes = True  # every part is a triple
        pos = self.pos
        while True:
            name = tokens[pos]
            if name not in _SYMBOLS:
                part = resolved.get(name) or self.resolve(pos)
                pos += 1
                if tokens[pos] == "'":
                    mask, care, bits = part
                    while tokens[pos] == "'":
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
            token = tokens[pos]
            if token == "*":
                pos += 1
            elif token in _TERM_END:
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
        while self.tokens[self.pos] == "'":
            self.pos += 1
            if type(e) is tuple and not e[1]:
                e = e[0] ^ self.full, 0, 0
            elif type(e) is tuple and e[0] == self.full and not e[1] & (e[1] - 1):
                e = e[0], e[1], e[2] ^ e[1]
            else:
                nots = self.nots.get(id(e), 0) + 1
                if nots > MAX_NESTING:
                    raise self.error(
                        f"complements nested deeper than {MAX_NESTING}", self.pos - 1)
                e = Not(self.cube(e))
                self.nots[id(e)] = nots
        return e

    def primary(self) -> Expr | tuple[int, int, int]:
        """A constant or a group; ``term`` reads names itself."""
        i = self.pos
        token = self.tokens[i]
        self.pos = i + 1
        if token == "0":
            return 0, 0, 0
        if token == "1":
            return self.full, 0, 0
        if token == "(":
            if self.depth == MAX_NESTING:
                raise self.error(f"parentheses nested deeper than {MAX_NESTING}", i)
            self.depth += 1
            e = self.expr()
            self.depth -= 1
            if self.tokens[self.pos] != ")":
                raise self.error("expected ')'", self.pos)
            self.pos += 1
            return e
        raise self.error(f"unexpected {token or 'end of input'!r}", i)

    def resolve(self, i: int) -> tuple[int, int, int]:
        """The triple of the name at token i, kept for the name's next use."""
        name = self.tokens[i]
        part = self.resolved[name] = self.resolve_name(name, i)
        return part

    def resolve_name(self, name: str, i: int) -> tuple[int, int, int]:
        # A name token is a letter and digits, so an ASCII name longer than
        # one character is a letter and an ASCII number.
        numbered = len(name) > 1 and name.isascii()
        if self.var_names is not None:
            if name in self.var_names:
                return self.literal(self.var_names[name])
            if name[0] == "a" and numbered:
                return self.resolve_atom(name, i)
            raise self.error(f"unknown variable {name!r}", i)
        if name[0] == "x" and numbered:
            number = int(name[1:])
            if not 1 <= number <= self.n:
                raise self.error(f"variable {name!r} outside x1..x{self.n}", i)
            return self.literal(number - 1)
        if name[0] == "a" and numbered:
            return self.resolve_atom(name, i)
        if name in _LETTER_ALIASES and _LETTER_ALIASES[name] <= self.n:
            return self.literal(_LETTER_ALIASES[name] - 1)
        raise self.error(f"unknown symbol {name!r}", i)

    def literal(self, v: int) -> tuple[int, int, int]:
        return self.full, 1 << v, 1 << v

    def resolve_atom(self, name: str, i: int) -> tuple[int, int, int]:
        atom = int(name[1:])
        if atom >= self.algebra.atom_count:
            raise self.error(
                f"unknown atom {name!r} (algebra has "
                f"{self.algebra.atom_count} atoms)", i)
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
