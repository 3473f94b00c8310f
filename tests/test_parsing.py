"""Expression grammar: tokens, precedence, aliases, error positions."""

import functools
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsolve import (Algebra, ExpressionSyntaxError, complement, join, meet,
                     parse, parse_element)
from onsolve.function import point_bits
from onsolve.parsing import Cubes, Not, Prod, Sum, parse_expr

from helpers import B0, B2, B3, EXPR_ALGEBRAS, cube, rows


def table_of(text, n, algebra=B0, **kw):
    return [c.mask for c in parse(text, n, algebra, **kw).coeffs]


def test_juxtaposition_equals_star():
    assert table_of("x1x2", 2) == table_of("x1*x2", 2)
    assert table_of("x1 x2' x1", 2) == table_of("x1*x2'*x1", 2)


def test_prime_binds_tightest_and_iterates():
    assert table_of("x1'", 1) == [1, 0]
    assert table_of("x1''", 1) == [0, 1]
    assert table_of("(x1+x2)'", 2) == [1, 0, 0, 0]


def test_parentheses_and_whitespace():
    assert table_of(" ( x1 + x2 ) * x1' ", 2) == table_of("x1'x2", 2)


def test_letter_aliases():
    assert table_of("x*y + z'w", 4) == table_of("x1*x2 + x3'x4", 4)


def test_explicit_names():
    got = table_of("p*q'", 2, var_names=["p", "q"])
    assert got == table_of("x1*x2'", 2)
    with pytest.raises(ExpressionSyntaxError):
        parse("x1", 2, B0, var_names=["p", "q"])


def test_atoms_usable_alongside_named_vars():
    f = parse("a1*p", 1, B2, var_names=["p"])
    assert [c.mask for c in f.coeffs] == [0, 0b10]


def test_duplicate_or_wrong_arity_names():
    with pytest.raises(ValueError):
        parse("p", 2, B0, var_names=["p", "p"])
    with pytest.raises(ValueError):
        parse("p", 2, B0, var_names=["p"])


def test_syntax_error_reports_position():
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 + + x2", 2, B0)
    assert err.value.position == 5
    with pytest.raises(ExpressionSyntaxError) as err:
        parse("x1 ?", 1, B0)
    assert err.value.position == 3


def test_unknown_symbols():
    with pytest.raises(ExpressionSyntaxError):
        parse("x3", 2, B0)
    with pytest.raises(ExpressionSyntaxError):
        parse("a2", 1, B2)
    with pytest.raises(ExpressionSyntaxError):
        parse("q", 1, B0)


def test_unbalanced_parens():
    with pytest.raises(ExpressionSyntaxError):
        parse("(x1 + x2", 2, B0)
    with pytest.raises(ExpressionSyntaxError):
        parse("x1)", 1, B0)


def test_parse_element():
    assert parse_element("0", B2) == B2.zero
    assert parse_element("1", B2) == B2.one
    assert parse_element("a0+a1'a0", B2).mask == 0b01
    assert parse_element("(a0+a1)'", B2) == B2.zero
    with pytest.raises(ExpressionSyntaxError):
        parse_element("x1", B2)


def test_empty_input():
    with pytest.raises(ExpressionSyntaxError):
        parse("", 1, B0)


def test_parse_element_three_atoms():
    wide = Algebra(3)
    assert parse_element("a0 + a2", wide) == wide.element(0b101)


# (text, n, algebra, var_names, message, position) for every kind of
# ExpressionSyntaxError.  In the four rows before the last two a letter
# carries non-ASCII digits (superscript two, Arabic-Indic three): they name no
# variable or atom.  The last two pass the nesting limit, MAX_NESTING = 100.
SYNTAX_ERRORS = [
    ("x1 ?", 1, B0, None, "unexpected character '?'", 3),
    ("x1 + + x2", 2, B0, None, "unexpected '+'", 5),
    ("x1)", 1, B0, None, "unexpected ')'", 2),
    ("(x1 + x2", 2, B0, None, "expected ')'", 8),
    ("((x1)' x2", 2, B0, None, "expected ')'", 9),
    ("", 1, B0, None, "unexpected 'end of input'", 0),
    ("x1 +", 2, B0, None, "unexpected 'end of input'", 4),
    ("x1 *", 1, B0, None, "unexpected 'end of input'", 4),
    ("x1 x2 (", 2, B0, None, "unexpected 'end of input'", 7),
    ("x1", 2, B0, ["p", "q"], "unknown variable 'x1'", 0),
    ("p + q'r", 2, B0, ["p", "q"], "unknown variable 'r'", 6),
    ("q", 1, B0, None, "unknown symbol 'q'", 0),
    ("x3", 2, B0, None, "variable 'x3' outside x1..x2", 0),
    ("x1 x0", 2, B0, None, "variable 'x0' outside x1..x2", 3),
    ("x1", 0, B2, None, "variable 'x1' outside x1..x0", 0),
    ("a2", 1, B2, None, "unknown atom 'a2' (algebra has 2 atoms)", 0),
    ("p a5'", 1, B2, ["p"], "unknown atom 'a5' (algebra has 2 atoms)", 2),
    ("x + w", 3, B0, None, "unknown symbol 'w'", 4),
    ("α", 1, B0, None, "unknown symbol 'α'", 0),
    ("α γ", 2, B0, ["α", "β"], "unknown variable 'γ'", 2),
    ("p²", 1, B0, None, "unknown symbol 'p²'", 0),
    ("p² p³", 2, B0, ["p²", "q"], "unknown variable 'p³'", 3),
    ("x²", 3, B0, None, "unknown symbol 'x²'", 0),
    ("x1 x٣", 3, B0, None, "unknown symbol 'x٣'", 3),
    ("a1² x1", 1, B2, None, "unknown symbol 'a1²'", 0),
    ("p a1²", 1, B2, ["p"], "unknown variable 'a1²'", 2),
    pytest.param("(" * 101 + "x1" + ")" * 101, 1, B0, None,
                 "parentheses nested deeper than 100", 100,
                 id="parentheses-too-deep"),
    pytest.param("((x1+x2)" + "'" * 60 + " x1)" + "'" * 41, 2, B0, None,
                 "complements nested deeper than 100", 112,
                 id="complements-too-deep"),
]


@pytest.mark.parametrize("text, n, algebra, names, message, position",
                         SYNTAX_ERRORS)
def test_syntax_error_messages(text, n, algebra, names, message, position):
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text, n, algebra, var_names=names)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


def test_declared_names_with_unicode_letters_and_digits():
    got = table_of("α β' + p²", 3, var_names=["α", "β", "p²"])
    assert got == table_of("x1 x2' + x3", 3)


def test_nesting_limit_counts_levels_not_length():
    # 100 open parentheses, or 100 Not nodes on one path, still parse; many
    # groups side by side count once.
    parse_expr("(" * 100 + "x1" + ")" * 100, 1, B0)
    parse_expr("((x1+x2)" + "'" * 60 + " x1)" + "'" * 40, 2, B0)
    parse_expr(" + ".join(["((x1+x2)" + "'" * 99 + ")"] * 60), 2, B0)


B00 = Algebra(0)


def _lit(v, bit=1, algebra=B0):
    return cube(algebra.one, ((v, bit),))


# (text, n, algebra, tree): the exact tree parse_expr returns.  A product of
# cubes folds to one cube, and the cubes of a sum, with the rows of any group
# of cubes in it, to one Cubes node, their rows in the order met; Sum, Prod
# and Not remain only where a part leaves the cube shape, and then the cubes
# make their first part.
GOLDEN_TREES = [
    ("a1", 0, B2, cube(B2.element(0b10))),
    ("a0+a1", 0, B2, cube(B2.one)),
    ("0 + a0", 0, B2, cube(B2.element(0b01))),
    ("x1''", 1, B0, _lit(0)),
    ("x1'''", 1, B0, _lit(0, 0)),
    ("(a0+a1)'", 0, B2, cube(B2.zero)),
    ("a1'", 0, B2, cube(B2.element(0b01))),
    ("(a0+a2)*x1*x3'", 3, B3, cube(B3.element(0b101), ((0, 1), (2, 0)))),
    ("x3 (a1 x1) x3 a2", 3, B3, cube(B3.zero, ((2, 1), (0, 1)))),
    ("x1 x1'", 1, B0, cube(B0.zero, ((0, 1),))),
    ("x2 x1 x2'", 2, B0, cube(B0.zero, ((1, 1), (0, 1)))),
    ("x1 (x2+x3)", 3, B0, Prod((_lit(0), rows(_lit(1), _lit(2))))),
    ("(x1+x2)'", 2, B0, Not(rows(_lit(0), _lit(1)))),
    ("(x1 x2)''", 2, B0, Not(Not(cube(B0.one, ((0, 1), (1, 1)))))),
    ("(a0 x1)'", 1, B2, Not(cube(B2.element(0b01), ((0, 1),)))),
    ("a1 x1 x2' + x3 (x1+x2) + a0", 3, B2,
     Sum((rows(cube(B2.element(0b10), ((0, 1), (1, 0))), cube(B2.element(0b01))),
          Prod((_lit(2, 1, B2), rows(_lit(0, 1, B2), _lit(1, 1, B2))))))),
    ("((x1))", 1, B0, _lit(0)),
    ("1", 1, B00, cube(B00.one)),
    ("x1' + 0", 1, B00, rows(_lit(0, 0, B00), cube(B00.zero))),
    ("x1 x2", 2, B00, cube(B00.one, ((0, 1), (1, 1)))),
    ("(x2)'", 2, B0, _lit(1, 0)),
    ("(x2)''", 2, B0, _lit(1)),
    ("x1 + (x2 + x3') + a0 x3", 3, B2,
     rows(_lit(0, 1, B2), _lit(1, 1, B2), _lit(2, 0, B2),
          cube(B2.element(0b01), ((2, 1),)))),
    ("x1 + (x2 + x3)' + x2", 3, B0,
     Sum((rows(_lit(0), _lit(1)), Not(rows(_lit(1), _lit(2)))))),
    ("x1 x2' (x1 + x3)' a1 x2", 3, B2,
     Prod((cube(B2.zero, ((0, 1), (1, 1))), Not(rows(_lit(0, 1, B2), _lit(2, 1, B2)))))),
]


@pytest.mark.parametrize("text, n, algebra, tree", GOLDEN_TREES)
def test_parse_expr_builds_the_golden_tree(text, n, algebra, tree):
    assert parse_expr(text, n, algebra) == tree


def test_cubes_rows_give_care_bits_and_value_alike():
    with pytest.raises(ValueError, match="care, bits and value alike"):
        Cubes(B0, (1, 2), (1,), (1, 1))


# Declared names for the text property: a letter and digits, none starting
# with the atom letter.
DECLARED = ["p", "q2", "α", "p²", "ζ10"]


@st.composite
def _structures(draw, n, algebra, depth=3):
    """An expression as nested tuples: ("const", mask), ("var", i),
    ("not", node, primes), ("prod", nodes) or ("sum", nodes)."""
    kinds = ["const", "var", "literal"] if n else ["const"]
    if depth:
        kinds += ["prod", "prod", "sum", "not"]
    kind = draw(st.sampled_from(kinds))
    if kind == "const":
        return kind, draw(st.sampled_from((0, algebra.full_mask))
                          | st.integers(0, algebra.full_mask))
    if kind == "var":
        return kind, draw(st.integers(0, n - 1))
    if kind == "literal":
        return "not", ("var", draw(st.integers(0, n - 1))), draw(st.integers(1, 3))
    if kind == "not":
        return kind, draw(_structures(n, algebra, depth - 1)), draw(st.integers(1, 3))
    return kind, tuple(draw(st.lists(_structures(n, algebra, depth - 1),
                                     min_size=2, max_size=4)))


def _reference(node, args, algebra):
    """The structure's value at ``args``, straight from meet, join and
    complement."""
    kind = node[0]
    if kind == "const":
        return algebra.element(node[1])
    if kind == "var":
        return args[node[1]]
    if kind == "not":
        out = _reference(node[1], args, algebra)
        for _ in range(node[2]):
            out = complement(out)
        return out
    parts = [_reference(p, args, algebra) for p in node[1]]
    return functools.reduce(meet if kind == "prod" else join, parts)


def _render(draw, node, names, algebra, level=0):
    """Text of a structure that reads as one unit at ``level`` (0 a sum, 1 a
    product, 2 a factor): in parentheses where the level needs them, and
    now and then where it does not."""
    kind = node[0]
    if kind == "const":
        mask = node[1]
        choices = ["0"] if mask == 0 else []
        if mask == algebra.full_mask:
            choices.append("1")
        if mask:
            choices.append("+".join(f"a{t}" for t in range(mask.bit_length())
                                    if mask >> t & 1))
        text = draw(st.sampled_from(choices))
        own = 0 if "+" in text else 2
    elif kind == "var":
        i = node[1]
        if names:
            text = names[i]
        else:
            text = draw(st.sampled_from([f"x{i + 1}"] + ["xyzw"[i:i + 1]] * (i < 4)))
        own = 2
    elif kind == "not":
        text = _render(draw, node[1], names, algebra, 2) + "'" * node[2]
        own = 2
    elif kind == "prod":
        text = ""
        for j, part in enumerate(node[1]):
            piece = _render(draw, part, names, algebra, 2)
            if j:
                # A name swallows the digits after it, so "x1" "1" needs a gap.
                text += draw(st.sampled_from(
                    (" ", "*", " * ") if piece[0].isdigit() else ("", " ", "*", " * ")))
            text += piece
        own = 1
    else:
        text = draw(st.sampled_from(("+", " + "))).join(
            _render(draw, part, names, algebra, 1) for part in node[1])
        own = 0
    if own < level or draw(st.integers(0, 9)) == 0:
        text = f"({text})"
    return text


@settings(max_examples=400)
@given(st.data())
def test_parsed_text_matches_direct_evaluation(data):
    algebra = data.draw(st.sampled_from(EXPR_ALGEBRAS))
    n = data.draw(st.integers(0, len(DECLARED)))
    names = DECLARED[:n] if data.draw(st.booleans()) else None
    node = data.draw(_structures(n, algebra))
    text = _render(data.draw, node, names, algebra)
    f = parse(text, n, algebra, var_names=names)
    for j in range(1 << n):
        point = tuple(algebra.one if bit else algebra.zero
                      for bit in point_bits(j, n))
        assert f.coeff(j) == _reference(node, point, algebra), (text, j)
    point = tuple(algebra.element(data.draw(st.integers(0, algebra.full_mask)))
                  for _ in range(n))
    assert f.evaluate(point) == _reference(node, point, algebra), text


# (n, algebra, declared names or None, names, stray names) for the seeded
# texts: the default scheme with its aliases, declared ASCII and Unicode
# names, and stray names that resolve to nothing.
SEEDED_SCOPES = [
    (3, B0, None, ["x1", "x2", "x3", "x", "y", "z"], ["w", "x0", "x9", "q"]),
    (3, B2, None, ["x1", "x3", "y"], ["α", "p²", "x²", "a1²"]),
    (0, B3, None, [], ["x1", "q"]),
    (3, B2, ["p", "q2", "α"], ["p", "q2", "α"], ["q", "x1"]),
    (4, Algebra(64), ["p²", "ζ10", "x1", "y"], ["p²", "ζ10", "x1", "y"],
     ["p³", "x2"]),
]
CORRUPTIONS = "01+*'() ?xa9αp²٣"


def _seeded_text(rng, k, names, strays):
    """A random text: cube sums, prime chains and nested groups over
    ``names``, constants and atoms, now and then a stray name or an atom
    outside the k atoms, and in about a third of the texts one character
    replaced, inserted or deleted."""

    def factor(depth):
        r = rng.random()
        if depth and r < 0.2:
            text = "(" + expr(depth - 1) + ")"
        elif r < 0.02:
            text = rng.choice(strays)
        elif r < 0.04:
            text = f"a{k + rng.randrange(3)}"
        elif r < 0.3 or not names and not k:
            text = rng.choice("01")
        elif r < 0.5 and k or not names:
            text = f"a{rng.randrange(min(k, 8))}"
        else:
            text = rng.choice(names)
        return text + "'" * rng.choice((0, 0, 0, 1, 2, 3))

    def term(depth):
        text = factor(depth)
        for _ in range(rng.randrange(4)):
            text += rng.choice(("", " ", "*", " * ")) + factor(depth)
        return text

    def expr(depth):
        return rng.choice(("+", " + ")).join(
            term(depth) for _ in range(1 + rng.randrange(3)))

    text = expr(3)
    if rng.random() < 0.35:
        i = rng.randrange(len(text) + 1)
        c = rng.choice(CORRUPTIONS)
        text = rng.choice((text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                           text[:i] + text[i + 1:]))
    return text


# Recorded when cube terms became rows of one Cubes node.  It pins every
# tree; the messages and positions are the earlier parser's, and the tables
# are pinned apart by SEEDED_TABLE_DIGEST, recorded before the change.
SEEDED_DIGEST = "fa7b6763c54ffa8fe63b7e58d29e60fad1021ef513e44ec0a23431d0cede3c8d"


def test_seeded_texts_parse_to_the_recorded_trees_and_errors():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(2000):
        n, algebra, declared, names, strays = rng.choice(SEEDED_SCOPES)
        text = _seeded_text(rng, algebra.atom_count, names, strays)
        try:
            outcome = repr(parse_expr(text, n, algebra, declared))
        except ExpressionSyntaxError as exc:
            outcome = repr((type(exc).__name__, str(exc), exc.position))
        digest.update(f"{text}\0{outcome}\n".encode())
    assert digest.hexdigest() == SEEDED_DIGEST



# Recorded before the parser carried cubes as integer masks, so it pins the
# table that every seeded text writes, and every error, as they were.
SEEDED_TABLE_DIGEST = "a1ad9fdbe72a8f072a687f0727779413e5c62d34b798bb01676c4f4ac6100bf2"


def test_seeded_texts_write_the_recorded_tables():
    rng = random.Random(2026)
    digest = hashlib.sha256()
    for _ in range(2000):
        n, algebra, declared, names, strays = rng.choice(SEEDED_SCOPES)
        text = _seeded_text(rng, algebra.atom_count, names, strays)
        try:
            outcome = parse(text, n, algebra, declared).table.tobytes()
        except ExpressionSyntaxError as exc:
            outcome = str(exc).encode()
        digest.update(text.encode() + b"\0" + outcome + b"\n")
    assert digest.hexdigest() == SEEDED_TABLE_DIGEST

def test_resolved_names_do_not_carry_over_between_calls():
    assert parse_expr("p*q'", 2, B0, ["p", "q"]) == cube(B0.one, ((0, 1), (1, 0)))
    assert parse_expr("p*q'", 2, B0, ["q", "p"]) == cube(B0.one, ((1, 1), (0, 0)))
    assert parse_expr("a1 x2", 2, B2) == cube(B2.element(0b10), ((1, 1),))
    with pytest.raises(ExpressionSyntaxError, match="unknown atom 'a1'"):
        parse_expr("a1 x2", 2, B0)
