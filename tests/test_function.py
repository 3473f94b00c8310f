"""Minterm canonical form, evaluation, cofactors, expansion identities."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsolve import (
    AlgebraMismatchError,
    BoolFunction,
    Term,
    minterm_function,
    parse,
    shannon_pos,
    shannon_sop,
    term_to_function,
    to_expression,
)
from onsolve.function import _dtype_for, _write_expr, point_bits
from onsolve.parsing import Cubes, Not, Prod, Sum
from onsolve.solver import WORDS

from helpers import (
    B0,
    B2,
    B3,
    EXPR_ALGEBRAS,
    cube,
    all_points,
    minterm_sum_eval,
    rand_element,
    rand_function,
    rows,
    write_rows,
)

WORKED_F = "x + x*y'*z + x*y + x'*z' + x*y' + x*y*z"


def worked_f():
    return parse(WORKED_F, 3, B0)


def test_parse_tautology():
    assert [c.mask for c in parse("x1 + x1'", 1, B0).coeffs] == [1, 1]


def test_parse_worked_example_table():
    # f(0,y,0) = 1, f(0,y,1) = 0, f(1,y,z) = 1 for all y,z
    assert [c.mask for c in worked_f().coeffs] == [1, 0, 1, 0, 1, 1, 1, 1]


def test_parse_zero():
    assert parse("0", 2, B0).is_zero


def test_evaluate_worked_example_solution():
    f = worked_f()
    assert f.evaluate((B0.zero, B0.one, B0.one)).is_zero


def test_evaluate_at_01_points_returns_coeffs():
    rng = random.Random(3)
    f = rand_function(B2, 3, rng)
    for j in range(8):
        bits = [(j >> (2 - i)) & 1 for i in range(3)]
        point = tuple(B2.one if b else B2.zero for b in bits)
        assert f.evaluate(point) == f.coeff(j)
        assert f.evaluate_bits(bits) == f.coeff(j)


@st.composite
def _cubes(draw, n, algebra):
    """A cube node of one to three rows, each a constant (often 0) times
    literals over distinct variables."""
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        value = draw(st.one_of(st.just(0), st.integers(0, algebra.full_mask)))
        variables = draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=3)) if n else []
        nodes.append(cube(algebra.element(value),
                         tuple((v, draw(st.integers(0, 1))) for v in variables)))
    return rows(*nodes)


@st.composite
def _expressions(draw, n, algebra, depth=3):
    """Trees of cube nodes under sums, products and complements; the
    parts of the top sum that are not cubes take the compositional path."""
    if not depth:
        return draw(_cubes(n, algebra))
    kind = draw(st.sampled_from(("cube", "sum", "prod", "not")))
    if kind == "cube":
        return draw(_cubes(n, algebra))
    if kind == "not":
        return Not(draw(_expressions(n, algebra, depth - 1)))
    parts = tuple(draw(st.lists(_expressions(n, algebra, depth - 1),
                                min_size=1, max_size=4)))
    return (Sum if kind == "sum" else Prod)(parts)


@settings(max_examples=400)
@given(st.data())
def test_table_evaluation_matches_ast_interpreter(data):
    algebra = data.draw(st.sampled_from(EXPR_ALGEBRAS))
    n = data.draw(st.integers(0, 5))
    expr = data.draw(_expressions(n, algebra))
    f = BoolFunction.from_expr(expr, n, algebra)
    for j in range(1 << n):
        point = tuple(algebra.one if bit else algebra.zero
                      for bit in point_bits(j, n))
        assert f.coeff(j) == expr.evaluate(point, algebra), (expr, j)
    point = tuple(algebra.element(data.draw(st.integers(0, algebra.full_mask)))
                  for _ in range(n))
    assert f.evaluate(point) == expr.evaluate(point, algebra)


def test_expression_table_checks():
    def var(i):
        return cube(B2.one, ((i, 1),))

    with pytest.raises(AlgebraMismatchError):
        BoolFunction.from_expr(Prod((var(0), cube(B3.atom(1)))), 2, B2)
    with pytest.raises(AlgebraMismatchError):
        BoolFunction.from_expr(Sum((Not(Sum((var(0), var(1)))),
                                    cube(B3.one))), 2, B2)
    with pytest.raises(ValueError, match="variable index 2 outside n=2"):
        BoolFunction.from_expr(Sum((var(0), Not(var(2)))), 2, B2)


def test_minterm_reconstruction_exhaustive():
    # k*n = 8: every point of B**n agrees with the literal minterm sum
    rng = random.Random(5)
    f = rand_function(B2, 4, rng)
    for point in all_points(B2, 4):
        assert f.evaluate(point) == minterm_sum_eval(f, point)


def test_cofactor_worked_example():
    f = worked_f()
    c1 = f.cofactor(0, 1)
    assert c1.is_one  # arity kept, variable x inert
    assert [c.mask for c in c1.restrict({0: 0}).coeffs] == [1, 1, 1, 1]
    c0 = f.cofactor(0, 0)
    # f(0,y,z) = z'
    assert [c.mask for c in c0.restrict({0: 0}).coeffs] == [1, 0, 1, 0]


def test_cofactor_of_constant_and_variable():
    c = BoolFunction.constant(B2, 2, B2.atom(1))
    assert c.cofactor(0, 1) == c
    x1 = BoolFunction.variable(B0, 1, 0)
    assert x1.cofactor(0, 0).is_zero


def test_cofactor_idempotent():
    f = worked_f()
    for i in range(3):
        for v in (0, 1):
            g = f.cofactor(i, v)
            assert g.cofactor(i, v) == g


def test_cofactor_errors():
    f = worked_f()
    with pytest.raises(IndexError):
        f.cofactor(3, 0)
    with pytest.raises(ValueError):
        f.cofactor(0, 2)


def test_shannon_sop_on_single_variable():
    x1 = BoolFunction.variable(B0, 1, 0)
    c1, c0 = shannon_sop(x1, 0)
    assert c1.is_one and c0.is_zero


def test_shannon_pair_on_worked_example():
    f = worked_f()
    c1, c0 = shannon_sop(f, 0)
    assert c1.is_one
    zprime = parse("z'", 3, B0)
    assert c0 == zprime


@settings(max_examples=200)
@given(st.lists(st.integers(0, 3), min_size=8, max_size=8), st.integers(0, 2),
       st.integers(0, 4 ** 3 - 1))
def test_shannon_reconstruction_pointwise(masks, i, seed):
    f = BoolFunction.from_coeffs(B2, 3, [B2.element(m) for m in masks])
    xi = BoolFunction.variable(B2, 3, i)
    c1, c0 = shannon_sop(f, i)
    assert xi * c1 + (~xi) * c0 == f
    d0, d1 = shannon_pos(f, i)
    assert (xi + d0) * (~xi + d1) == f
    # the identities also hold at an arbitrary point of B**n
    point = tuple(B2.element(seed >> (2 * t) & 3) for t in range(3))
    lhs = (xi * c1 + (~xi) * c0).evaluate(point)
    assert lhs == f.evaluate(point)


def test_term_to_function():
    assert term_to_function(Term((-1, -1)), 2, B0).is_one
    t = term_to_function(Term((1, 0)), 2, B0)
    assert [c.mask for c in t.coeffs] == [0, 0, 1, 0]
    ladder = term_to_function(Term((1, 1, 0)), 3, B0)
    assert ladder.support() == (6,)  # the single point 110


def test_term_padding_and_errors():
    padded = term_to_function(Term((1,)), 2, B0)
    assert padded.support() == (2, 3)
    with pytest.raises(ValueError):
        term_to_function(Term((1, 1, 1)), 2, B0)
    with pytest.raises(ValueError):
        Term((2, 0))
    assert Term((1, -1, 0)).text() == "x1*x3'"


def test_minterm_function():
    mu = minterm_function(B2, 2, 3)
    assert mu.support() == (3,)
    assert mu.coeff(3) == B2.one


def test_from_coeffs_roundtrip_and_arity():
    rng = random.Random(9)
    coeffs = [rand_element(B2, rng) for _ in range(8)]
    f = BoolFunction.from_coeffs(B2, 3, coeffs)
    assert list(f.coeffs) == coeffs
    with pytest.raises(ValueError):
        BoolFunction.from_coeffs(B2, 2, coeffs)
    with pytest.raises(ValueError):
        f.evaluate((B2.one,))


def test_tables_take_any_variable_count():
    # the size limit is the command line's (--var-cap), not the library's
    assert BoolFunction.constant(B0, 25, B0.zero).is_zero


def test_function_operators_match_pointwise():
    rng = random.Random(13)
    f = rand_function(B2, 2, rng)
    g = rand_function(B2, 2, rng)
    for point in all_points(B2, 2):
        assert (f * g).evaluate(point) == f.evaluate(point) * g.evaluate(point)
        assert (f + g).evaluate(point) == f.evaluate(point) + g.evaluate(point)
        assert (~f).evaluate(point) == ~f.evaluate(point)


def test_tables_are_immutable():
    f = worked_f()
    with pytest.raises(ValueError):
        f.table[0] = False


def test_to_expression_roundtrip():
    rng = random.Random(17)
    f = rand_function(B2, 3, rng)
    again = parse(to_expression(f), 3, B2)
    assert again == f
    assert to_expression(parse("0", 2, B0)) == "0"


def test_wide_algebra_tables():
    import onsolve

    wide = onsolve.Algebra(64)
    a = wide.atom(63)
    f = BoolFunction.from_coeffs(wide, 1, [a, ~a])
    assert f.evaluate((wide.zero,)) == a
    assert (f * ~f).is_zero
    assert f.cofactor(0, 1).coeff(0) == ~a


def _shared_rows(algebra, n, rng):
    """A node of up to 40 rows over six sets of variables out of n, so
    that rows often share their literals on a table."""
    sets = [rng.sample(range(n), rng.randint(0, min(n, 4))) for _ in range(6)]
    care, bits, value = [], [], []
    for _ in range(rng.randint(0, 40)):
        c = sum(1 << v for v in rng.choice(sets))
        pick = rng.random()
        care.append(c)
        bits.append(rng.getrandbits(n) & c)
        value.append(algebra.full_mask if pick < 0.4 else 0 if pick < 0.5
                     else rng.getrandbits(algebra.atom_count))
    return Cubes(algebra, tuple(care), tuple(bits), tuple(value))


def test_write_expr_matches_the_row_by_row_writer():
    # Tables over a random part of n variables, the rest in the point, from
    # random contents: bool and uint64 tables, and 64-lane words written
    # from two-element rows.  Rows that meet the point are merged by their
    # literals on the table, and the reference writes every row alone.
    rng = random.Random("write-rows")
    cases = [(algebra, algebra) for algebra in EXPR_ALGEBRAS] + [(WORDS, B0)]
    for table_algebra, node_algebra in cases:
        for _ in range(80):
            n = rng.randint(0, 8)
            variables = rng.sample(range(n), rng.randint(0, n))
            point = {v: rng.getrandbits(table_algebra.atom_count)
                     for v in range(n) if v not in variables}
            node = _shared_rows(node_algebra, n, rng)
            start = np.array([rng.getrandbits(table_algebra.atom_count) * (rng.random() < 0.3)
                              for _ in range(1 << len(variables))],
                             dtype=np.uint64).astype(_dtype_for(table_algebra))
            got = _write_expr(start.copy(), variables, node, point, table_algebra)
            want = write_rows(start.copy(), variables, node, point, table_algebra)
            assert got.dtype == want.dtype and np.array_equal(got, want), (n, variables)
