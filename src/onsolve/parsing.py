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
variables.  While it reads, a cube travels as a plain ``(mask, lits)`` pair
(an atom mask and the literal tuple); its ``Cube`` and ``AlgebraElement``
are built once, where the pair joins the tree: as a part of a ``Sum``,
``Prod`` or ``Not``, or as the whole expression.  So a product term such as
``(a0+a2)*x1*x3'`` costs one ``Cube``.  A DIMACS clause list is read into
the same tree by ``cnf_expr``: a ``Sum`` of one ``Cube`` per clause.

``_tokenize`` returns the token kinds, texts and start positions as three
parallel lists, and the parser walks them with one index.  ``term`` reads a
name, its primes and the ``*`` after it in one loop, and calls ``factor``
only for a constant or a group.  Each parser keeps the pair that
``resolve_name`` gave for each name text, so a name repeated in many terms
is resolved once; a parser reads one text, so nothing resolved under one
list of variable names is seen under another.

At most ``MAX_NESTING`` (100) parentheses may be open at once, and at most
as many ``Not`` nodes may lie on one path of the tree; past either limit the
text is a syntax error at the ``(`` or the ``'`` that crosses it.
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
    and ``expr`` return a node, or a cube as a plain ``(mask, lits)`` pair:
    an atom mask and a tuple of (variable, bit) pairs over distinct
    variables.  ``cube`` turns a pair into its ``Cube`` where it joins the
    tree.  ``pos`` indexes the token lists."""

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
        self.resolved: dict[str, tuple[int, tuple]] = {}  # name -> its pair

    def cube(self, part: Expr | tuple[int, tuple]) -> Expr:
        if type(part) is tuple:
            mask, lits = part
            return Cube(self.algebra.element(mask), lits)
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

    def expr(self) -> Expr | tuple[int, tuple]:
        part = self.term()
        if self.kinds[self.pos] != "+":
            return part
        parts = [part]
        constant = type(part) is tuple and not part[1]
        while self.kinds[self.pos] == "+":
            self.pos += 1
            part = self.term()
            parts.append(part)
            constant = constant and type(part) is tuple and not part[1]
        if constant:
            mask = 0
            for m, _ in parts:
                mask |= m
            return mask, ()
        return self.node(Sum(tuple(map(self.cube, parts))))

    def term(self) -> Expr | tuple[int, tuple]:
        """Factors up to the next token that cannot start one.  A name and
        its primes are read here, without ``factor``: a prime on a name's
        pair complements its atom mask or flips its one literal."""
        kinds, texts, resolved = self.kinds, self.texts, self.resolved
        parts = []
        cubes = True  # every part is a pair
        pos = self.pos
        while True:
            if kinds[pos] == "NAME":
                name = texts[pos]
                part = resolved.get(name)
                if part is None:
                    part = resolved[name] = self.resolve_name(name, self.starts[pos])
                pos += 1
                if kinds[pos] == "'":
                    mask, lits = part
                    while kinds[pos] == "'":
                        pos += 1
                        if lits:
                            lits = ((lits[0][0], 1 - lits[0][1]),)
                        else:
                            mask ^= self.full
                    part = mask, lits
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
        if not cubes:
            return self.node(Prod(tuple(map(self.cube, parts))))
        mask, lits = self.full, {}
        for m, ls in parts:
            mask &= m
            for v, bit in ls:
                if lits.setdefault(v, bit) != bit:
                    mask = 0
        return mask, tuple(lits.items())

    def factor(self) -> Expr | tuple[int, tuple]:
        e = self.primary()
        while self.kinds[self.pos] == "'":
            pos = self.starts[self.pos]
            self.pos += 1
            if type(e) is tuple and not e[1]:
                e = e[0] ^ self.full, ()
            elif type(e) is tuple and len(e[1]) == 1 and e[0] == self.full:
                ((v, bit),) = e[1]
                e = e[0], ((v, 1 - bit),)
            else:
                nots = self.nots.get(id(e), 0) + 1
                if nots > MAX_NESTING:
                    raise ExpressionSyntaxError(
                        f"complements nested deeper than {MAX_NESTING}", pos)
                e = Not(self.cube(e))
                self.nots[id(e)] = nots
        return e

    def primary(self) -> Expr | tuple[int, tuple]:
        """A constant or a group; ``term`` reads names itself."""
        i = self.pos
        kind, start = self.kinds[i], self.starts[i]
        self.pos = i + 1
        if kind == "0":
            return 0, ()
        if kind == "1":
            return self.full, ()
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

    def resolve_name(self, name: str, pos: int) -> tuple[int, tuple]:
        # A NAME token is a letter and digits, so an ASCII name longer than
        # one character is a letter and an ASCII number.
        numbered = len(name) > 1 and name.isascii()
        if self.var_names is not None:
            if name in self.var_names:
                return self.full, ((self.var_names[name], 1),)
            if name[0] == "a" and numbered:
                return self.resolve_atom(name, pos)
            raise ExpressionSyntaxError(f"unknown variable {name!r}", pos)
        if name[0] == "x" and numbered:
            number = int(name[1:])
            if not 1 <= number <= self.n:
                raise ExpressionSyntaxError(
                    f"variable {name!r} outside x1..x{self.n}", pos)
            return self.full, ((number - 1, 1),)
        if name[0] == "a" and numbered:
            return self.resolve_atom(name, pos)
        if name in _LETTER_ALIASES and _LETTER_ALIASES[name] <= self.n:
            return self.full, ((_LETTER_ALIASES[name] - 1, 1),)
        raise ExpressionSyntaxError(f"unknown symbol {name!r}", pos)

    def resolve_atom(self, name: str, pos: int) -> tuple[int, tuple]:
        atom = int(name[1:])
        if atom >= self.algebra.atom_count:
            raise ExpressionSyntaxError(
                f"unknown atom {name!r} (algebra has "
                f"{self.algebra.atom_count} atoms)", pos)
        return 1 << atom, ()


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
        # Only a clause that repeats a variable can hold both polarities.
        if len(lits) == len(clause) or len(lits) == len(set(clause)):
            parts.append(Cube(one, tuple(lits.items())))
    return Sum(tuple(parts))


def parse_element(text: str, algebra: Algebra) -> AlgebraElement:
    """Parse a constant literal (no variables) into an algebra element."""
    expr = _Parser(text, 0, algebra, None).parse()
    return expr.evaluate((), algebra)
