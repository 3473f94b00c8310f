"""Constructive solvers, elimination, back-substitution, two-element corollaries."""

import functools
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from onsolve import (
    AlgebraMismatchError,
    BoolFunction,
    InapplicableClassError,
    InconsistentTraceError,
    b0_coefficient,
    b0_consistency,
    block_eliminant,
    brute_consistency,
    cnf_function,
    complement,
    consecutive_split,
    consistency_on_class,
    delta_tuple,
    eliminate_blocks,
    eliminate_expr,
    eliminate_variable,
    extract_solution,
    from_blocks,
    is_in_class,
    ladder_set,
    minterm_set,
    necessary_condition,
    parse,
    render_trace,
    solve_dual_linear_coon,
    solve_linear_on,
    solve_minterm_equation,
    solve_on_system,
    term_to_function,
)
from onsolve import solver
from onsolve.algebra import Algebra, join_all, meet, meet_all
from onsolve.function import point_bits
from onsolve.parsing import Cubes, Expr, Not, Prod, Sum, cnf_expr
from onsolve.solver import is_on_system

from helpers import (
    B0,
    B2,
    B3,
    LADDER_CLAUSES,
    OutsideClassError,
    cube,
    rows,
    dense_stages,
    is_coon_tuple,
    is_on_tuple,
    rand_b0_function,
    rand_element,
    rand_function,
    rand_partition,
)
import numpy as np

B8 = Algebra(8)
WORKED_F = "x + x*y'*z + x*y + x'*z' + x*y' + x*y*z"


def worked_f():
    return parse(WORKED_F, 3, B0)


def as_point(model, n):
    return tuple(model[i] for i in range(n))


# ---------------------------------------------------------------------------
# single-variable elimination


def test_eliminate_variable_single():
    f = BoolFunction.variable(B0, 1, 0)
    assert eliminate_variable(f, 0).is_zero


def test_eliminate_variable_classical_condition():
    # f = a*x + a'*x' has eliminant a*a' = 0, hence always consistent
    a = Algebra(1).atom(0)
    f = BoolFunction.from_coeffs(Algebra(1), 1, [complement(a), a])
    assert eliminate_variable(f, 0).is_zero
    # and in general the eliminant of a*x + b*x' is the constant a*b
    rng = random.Random(2)
    for _ in range(50):
        a, b = rand_element(B8, rng), rand_element(B8, rng)
        f = BoolFunction.from_coeffs(B8, 1, [b, a])
        assert eliminate_variable(f, 0).coeff(0) == meet(a, b)


def test_full_elimination_chain_equals_brute_force():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 11))
        f = rand_b0_function(n, rng)
        g = f
        for i in range(n):
            g = eliminate_variable(g, i)
        assert g.is_zero == brute_consistency(f).consistent


# ---------------------------------------------------------------------------
# linear ON equation


def test_solve_linear_on_base_cases():
    z = solve_linear_on((B0.zero, B0.one))
    assert z == (B0.one, B0.zero)
    assert solve_linear_on([B8.one] * 5) is None
    # The bool and uint64 tables both hand back Python int masks.
    top = Algebra(64).atom(63)
    wide = solve_linear_on((top, ~top))
    assert wide == (~top, top)
    assert all(type(x.mask) is int for x in z + wide)


def test_solve_linear_on_all_permutations():
    rng = random.Random(6)
    trials = 0
    while trials < 20:
        a = [rand_element(B8, rng) for _ in range(4)]
        if not meet_all(a, B8).is_zero:
            continue
        trials += 1
        for sigma in itertools.permutations(range(4)):
            z = solve_linear_on(a, sigma)
            assert z is not None
            assert is_on_tuple(z, B8)
            residual = join_all((meet(ai, zi) for ai, zi in zip(a, z)), B8)
            assert residual.is_zero


def test_solve_linear_on_all_permutations_s5():
    rng = random.Random(7)
    trials = 0
    while trials < 3:
        a = [rand_element(B8, rng) for _ in range(5)]
        if not meet_all(a, B8).is_zero:
            continue
        trials += 1
        for sigma in itertools.permutations(range(5)):
            z = solve_linear_on(a, sigma)
            assert is_on_tuple(z, B8)
            assert join_all((meet(ai, zi) for ai, zi in zip(a, z)), B8).is_zero


def test_solve_linear_on_bad_permutation():
    with pytest.raises(ValueError):
        solve_linear_on([B0.zero, B0.zero], sigma=(0, 0))


def test_delta_tuple_is_on():
    for i in range(3):
        d = delta_tuple(B2, 3, i)
        assert sum(1 for x in d if x.is_one) == 1
        assert is_on_tuple(d, B2)
    with pytest.raises(IndexError):
        delta_tuple(B2, 3, 3)
    # the disjointness check is one pass, not one meet per pair
    assert is_on_system(delta_tuple(B8, 4096, 7), B8)


def test_core_rejects_mixed_algebras():
    mixed = (B2.one, B3.zero)
    with pytest.raises(AlgebraMismatchError):
        is_on_system(mixed, B2)
    with pytest.raises(AlgebraMismatchError):
        solve_on_system(minterm_set(1, B2), mixed)
    with pytest.raises(AlgebraMismatchError):
        solve_linear_on(mixed)
    with pytest.raises(AlgebraMismatchError):
        solve_dual_linear_coon(mixed)
    with pytest.raises(AlgebraMismatchError):
        solve_minterm_equation(mixed)


# ---------------------------------------------------------------------------
# dual linear equation, co-ON systems


def test_solve_dual_base_cases():
    xi = solve_dual_linear_coon((B0.one, B0.zero))
    assert xi == (B0.zero, B0.one)
    assert solve_dual_linear_coon([B8.zero] * 4) is None


def test_solve_dual_random_and_duality():
    b6 = Algebra(6)
    rng = random.Random(8)
    trials = 0
    while trials < 30:
        b = [rand_element(b6, rng) for _ in range(4)]
        if not join_all(b, b6).is_one:
            continue
        trials += 1
        xi = solve_dual_linear_coon(b)
        assert xi is not None
        assert is_coon_tuple(xi, b6)
        product = meet_all((bi + x for bi, x in zip(b, xi)), b6)
        assert product.is_one
        # duality: complementing the linear solution for the complemented
        # coefficients gives exactly the dual solution
        z = solve_linear_on([complement(bi) for bi in b])
        assert z is not None
        assert tuple(complement(zi) for zi in z) == tuple(xi)


# ---------------------------------------------------------------------------
# minterm equation


def test_solve_minterm_equation_example():
    alpha = (B0.zero, B0.one, B0.one, B0.one)
    model = solve_minterm_equation(alpha)
    assert model == {0: B0.zero, 1: B0.zero}
    f = BoolFunction.from_coeffs(B0, 2, alpha)
    assert f.evaluate(as_point(model, 2)).is_zero


def test_solve_minterm_equation_no_solution():
    assert solve_minterm_equation([B2.one] * 4) is None
    with pytest.raises(ValueError):
        solve_minterm_equation([B2.one] * 3)


def test_solve_minterm_equation_random():
    b4 = Algebra(4)
    rng = random.Random(10)
    trials = 0
    while trials < 40:
        alpha = [rand_element(b4, rng) for _ in range(8)]
        if not meet_all(alpha, b4).is_zero:
            continue
        trials += 1
        model = solve_minterm_equation(alpha)
        assert model is not None
        f = BoolFunction.from_coeffs(b4, 3, alpha)
        assert f.evaluate(as_point(model, 3)).is_zero


def test_minterm_beta_construction_is_on():
    # running-product tuple beta_j = alpha_0..alpha_(j-1) alpha_j' is ON
    # whenever prod(alpha) = 0; checked exhaustively over 2^2, length 4
    for masks in itertools.product(range(4), repeat=4):
        alpha = [B2.element(m) for m in masks]
        if not meet_all(alpha, B2).is_zero:
            continue
        beta = []
        prefix = B2.one
        for a in alpha:
            beta.append(meet(prefix, complement(a)))
            prefix = meet(prefix, a)
        assert is_on_tuple(beta, B2)


# ---------------------------------------------------------------------------
# ON function systems


def test_solve_on_system_worked_example():
    onset = from_blocks(B3, 3, [{0, 5, 7}, {1, 3, 6}, {2, 4}])
    beta = (B3.atom(0), B3.atom(1), B3.atom(2))
    model = solve_on_system(onset, beta, representatives=(5, 1, 2))
    assert model[0] == beta[0]
    assert model[1] == beta[2]
    assert model[2] == beta[0] + beta[1]
    point = as_point(model, 3)
    for i in range(3):
        assert onset.member(i).evaluate(point) == beta[i]


def test_solve_on_system_minterms():
    onset = minterm_set(1, B0)
    model = solve_on_system(onset, (B0.one, B0.zero))
    assert model == {0: B0.zero}


def test_solve_on_system_rejects_non_on():
    onset = minterm_set(1, B2)
    assert solve_on_system(onset, (B2.atom(0), B2.atom(0))) is None
    with pytest.raises(ValueError):
        solve_on_system(onset, (B2.one,))
    with pytest.raises(ValueError):
        solve_on_system(onset, (B2.one, B2.zero), representatives=(1, 1))
    # -1 would index minterm 1, the last one, which is in block 2
    with pytest.raises(ValueError, match="representative -1 not in block 2"):
        solve_on_system(onset, (B2.one, B2.zero), representatives=(0, -1))
    with pytest.raises(ValueError, match="representative 2 not in block 2"):
        solve_on_system(onset, (B2.one, B2.zero), representatives=(0, 2))


def test_solve_on_system_random_partitions():
    rng = random.Random(12)
    for _ in range(25):
        m = rng.randint(1, 4)
        onset = from_blocks(B3, 3, rand_partition(8, m, rng))
        # random ON tuple of order m: atoms grouped, padded with zeros
        # (an ON tuple may contain zero entries)
        groups = rand_partition(3, min(m, 3), rng)
        groups += [set()] * (m - len(groups))
        rng.shuffle(groups)
        beta = [join_all((B3.atom(t) for t in g), B3) for g in groups]
        model = solve_on_system(onset, beta)
        assert model is not None
        point = as_point(model, 3)
        for i in range(m):
            assert onset.member(i).evaluate(point) == beta[i]


# ---------------------------------------------------------------------------
# consistency for the constant class


def _system_function(onset, constants):
    coeffs = [constants[onset.block_of(j)] for j in range(1 << onset.n)]
    return BoolFunction.from_coeffs(onset.algebra, onset.n, coeffs)


def test_consistency_on_class_worked_example():
    onset = from_blocks(B3, 3, [{0, 5, 7}, {1, 3, 6}, {2, 4}])
    beta = (B3.atom(0), B3.atom(1), B3.atom(2))
    f = _system_function(onset, beta)
    result = consistency_on_class(f, onset)
    assert result.consistent
    assert result.constants == beta
    assert f.evaluate(as_point(result.witness, 3)).is_zero


def test_consistency_on_class_constant_one():
    onset = from_blocks(B2, 2, [{0, 2}, {1, 3}])
    f = BoolFunction.constant(B2, 2, B2.one)
    result = consistency_on_class(f, onset)
    assert not result.consistent
    assert result.constants == (B2.one, B2.one)
    assert result.witness is None


def test_consistency_on_class_inapplicable():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    onset = from_blocks(B0, 2, [{2, 3}, {0, 1}])
    with pytest.raises(InapplicableClassError):
        consistency_on_class(f, onset)


def test_consistency_on_class_matches_brute_force_b0():
    rng = random.Random(14)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = rng.randint(1, 1 << n)
        onset = from_blocks(B0, n, rand_partition(1 << n, m, rng))
        constants = [B0.element(rng.getrandbits(1)) for _ in range(m)]
        f = _system_function(onset, constants)
        result = consistency_on_class(f, onset)
        assert result.consistent == brute_consistency(f).consistent
        if result.consistent:
            assert f.evaluate(as_point(result.witness, n)).is_zero


def test_constant_product_biconditional_exhaustive_2x2():
    # all partitions of the 2-variable minterms, all constant tuples over 2^2
    rng = random.Random(16)
    for m in range(1, 5):
        for _ in range(6):
            onset = from_blocks(B2, 2, rand_partition(4, m, rng))
            for masks in itertools.product(range(4), repeat=m):
                constants = [B2.element(x) for x in masks]
                f = _system_function(onset, constants)
                product_zero = meet_all(constants, B2).is_zero
                assert product_zero == brute_consistency(f).consistent


def test_constant_product_biconditional_n3():
    rng = random.Random(17)
    for _ in range(30):
        m = rng.randint(1, 4)
        onset = from_blocks(B2, 3, rand_partition(8, m, rng))
        constants = [rand_element(B2, rng) for _ in range(m)]
        f = _system_function(onset, constants)
        product_zero = meet_all(constants, B2).is_zero
        assert product_zero == brute_consistency(f).consistent
        result = consistency_on_class(f, onset)
        assert result.consistent == product_zero


# ---------------------------------------------------------------------------
# block elimination


def test_block_eliminant_worked_example():
    f = worked_f()
    eliminant = block_eliminant(f, (1, 2))
    assert eliminant == BoolFunction.variable(B0, 1, 0)
    # coefficients land in ascending minterm order on (y,z); the worked
    # listing (yz, y'z, yz', y'z') = (x, x, 1, 1) sits at rows (3, 1, 2, 0)
    trace = eliminate_blocks(f, [(1, 2), (0,)])
    coeffs = trace.stages[0].coeffs
    x = BoolFunction.variable(B0, 1, 0)
    one = BoolFunction.constant(B0, 1, B0.one)
    assert [coeffs[i] for i in (3, 1, 2, 0)] == [x, x, one, one]
    # An explicit ON set is folded and checked: the block minterms give the
    # same eliminant, and the ladder member y' (rows 1 and x) has no constant.
    assert block_eliminant(f, (1, 2), minterm_set(2, B0)) == eliminant
    with pytest.raises(InapplicableClassError):
        block_eliminant(f, (1, 2), ladder_set(2, B0))


def test_block_eliminant_full_block_is_constant_product():
    rng = random.Random(18)
    f = rand_function(B2, 3, rng)
    eliminant = block_eliminant(f, (0, 1, 2))
    expected = meet_all(f.coeffs, B2)
    assert eliminant.n == 0 and eliminant.coeff(0) == expected


def test_block_eliminant_matches_brute_force():
    rng = np.random.default_rng(20)
    for _ in range(20):
        f = rand_b0_function(8, rng)
        eliminant = block_eliminant(f, (2, 3, 4))
        assert brute_consistency(eliminant).consistent == \
            brute_consistency(f).consistent


def test_block_eliminant_validation():
    f = worked_f()
    with pytest.raises(ValueError):
        block_eliminant(f, (0, 0))
    with pytest.raises(IndexError):
        block_eliminant(f, (5,))
    with pytest.raises(ValueError):
        block_eliminant(f, (0,), minterm_set(2, B0))


def test_eliminate_blocks_zero_function():
    f = BoolFunction.constant(B0, 4, B0.zero)
    trace = eliminate_blocks(f, consecutive_split(4, 2))
    assert trace.consistent
    for stage in trace.stages:
        assert stage.eliminant.is_zero


def test_eliminate_blocks_split_validation():
    f = worked_f()
    with pytest.raises(ValueError):
        eliminate_blocks(f, [(0, 1)])
    with pytest.raises(ValueError):
        eliminate_blocks(f, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        eliminate_blocks(f, [(0, 1, 2), ()])


def test_eliminate_blocks_random_cnf_vs_brute_force():
    from helpers import random_cnf
    from onsolve.cli import cnf_function

    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(4, 12)
        clauses = random_cnf(n, int(4.3 * n), rng)
        f = cnf_function(n, clauses, B0)
        expected = brute_consistency(f).consistent
        for size in (1, 4):
            trace = eliminate_blocks(f, consecutive_split(n, size))
            assert trace.consistent == expected


def test_eliminate_blocks_scrambled_blocks():
    # blocks may list variables in any order and interleave arbitrarily
    rng = np.random.default_rng(25)
    splits = [[(3, 0), (4, 2, 1)], [(4, 1, 2), (0, 3)], [(2,), (0, 4), (3, 1)]]
    for _ in range(15):
        f = rand_b0_function(5, rng)
        expected = brute_consistency(f).consistent
        for split in splits:
            trace = eliminate_blocks(f, split)
            assert trace.consistent == expected
            if expected:
                model = extract_solution(trace)
                assert f.evaluate(as_point(model, 5)).is_zero


def test_eliminate_blocks_degenerate_algebra():
    b = Algebra(0)
    f = BoolFunction.constant(b, 2, b.zero)
    for split in ([(0, 1)], [(0,), (1,)]):
        trace = eliminate_blocks(f, split)
        assert trace.consistent  # 0 = 1 in the one-element algebra
        model = extract_solution(trace)
        assert model == {0: b.zero, 1: b.zero}
        assert f.evaluate(as_point(model, 2)).is_zero


def test_eliminate_blocks_wide_algebra():
    # at 64 atoms the tables hold one uint64 mask per entry, top bit in use
    wide = Algebra(64)
    rng = random.Random(31)
    solved = 0
    for _ in range(10):
        f = rand_function(wide, 3, rng)
        trace = eliminate_blocks(f, consecutive_split(3, 2))
        assert trace.stages[0].source.dtype == np.uint64
        assert trace.consistent == meet_all(f.coeffs, wide).is_zero
        assert "coefficients: 4 (" in render_trace(trace)
        if trace.consistent:
            solved += 1
            model = extract_solution(trace)
            assert f.evaluate(as_point(model, 3)).is_zero
    assert solved


def test_eliminate_blocks_general_algebra():
    rng = random.Random(24)
    for _ in range(15):
        f = rand_function(B3, 4, rng)
        trace = eliminate_blocks(f, consecutive_split(4, 2))
        assert trace.consistent == brute_consistency(f).consistent
        if trace.consistent:
            model = extract_solution(trace)
            assert f.evaluate(as_point(model, 4)).is_zero


def test_ladder_policy_on_block_class_member():
    # f built from ladder-term coefficients on x1..x2 stays in the class
    terms = [term_to_function(t, 4, B0)
             for t in __import__("onsolve").ladder_terms(2)]
    y_coeffs = [parse("x3*x4", 4, B0), parse("x3'", 4, B0),
                parse("x3 + x4", 4, B0)]
    f = parse("0", 4, B0)
    for t, c in zip(terms, y_coeffs):
        f = f + t * c
    trace = eliminate_blocks(f, [(0, 1), (2, 3)], phi_policy="ladder")
    assert trace.consistent == brute_consistency(f).consistent
    model = extract_solution(trace)
    assert f.evaluate(as_point(model, 4)).is_zero


def test_ladder_policy_rejects_generic_function():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    with pytest.raises(InapplicableClassError):
        eliminate_blocks(f, [(0, 1)], phi_policy="ladder")


# ---------------------------------------------------------------------------
# back-substitution


def test_extract_solution_worked_example():
    trace = eliminate_blocks(worked_f(), [(1, 2), (0,)])
    model = extract_solution(trace)
    assert model == {0: B0.zero, 1: B0.one, 2: B0.one}


def test_extract_solution_zero_function_deterministic():
    # every stage coefficient vanishes; the documented pivot rule picks the
    # highest block, so the model pins every variable to 1
    f = BoolFunction.constant(B0, 3, B0.zero)
    trace = eliminate_blocks(f, consecutive_split(3, 2))
    model = extract_solution(trace)
    assert model == {0: B0.one, 1: B0.one, 2: B0.one}
    assert f.evaluate(as_point(model, 3)).is_zero


def test_extract_solution_random_consistent_instances():
    rng = np.random.default_rng(26)
    produced = 0
    while produced < 100:
        n = int(rng.integers(2, 13))
        f = rand_b0_function(n, rng)
        trace = eliminate_blocks(f, consecutive_split(n, 4))
        if not trace.consistent:
            continue
        produced += 1
        model = extract_solution(trace)
        assert f.evaluate(as_point(model, n)).is_zero


def test_extract_solution_requires_consistency():
    trace = eliminate_blocks(BoolFunction.constant(B0, 2, B0.one),
                             consecutive_split(2, 1))
    assert not trace.consistent
    with pytest.raises(InconsistentTraceError):
        extract_solution(trace)


def test_render_trace_mentions_stages():
    trace = eliminate_blocks(worked_f(), [(1, 2), (0,)])
    report = render_trace(trace, ["x", "y", "z"])
    assert "stage 1: eliminate {y, z}" in report
    assert "CONSISTENT" in report


# ---------------------------------------------------------------------------
# the cube stage

def _messy_cnf(n, rng):
    """Random clauses of width 1..4 drawn with replacement, so they hold
    repeated literals and tautologies; an empty clause now and then."""
    clauses = [[v if rng.random() < 0.5 else -v
                for v in rng.choices(range(1, n + 1), k=rng.choice((1, 2, 3, 3, 4)))]
               for _ in range(rng.randint(0, 3 * n))]
    if rng.random() < 0.05:
        clauses.insert(rng.randint(0, len(clauses)), [])
    return clauses


def _messy_cubes(n, algebra, rng):
    """The cubes of a messy CNF with values that are often 0 or 1, and a
    constant term now and then."""
    def value():
        pick = rng.random()
        if pick < 0.2:
            return algebra.zero
        return algebra.one if pick < 0.5 else rand_element(algebra, rng)

    node = cnf_expr(_messy_cnf(n, rng), algebra)
    cubes = [Cubes(algebra, (care,), (bits,), (value().mask,))
             for care, bits in zip(node.care, node.bits)]
    if rng.random() < 0.2:
        cubes.insert(rng.randint(0, len(cubes)), cube(value()))
    return cubes


def _plain_cnf(n, algebra, rng):
    return [cnf_expr(_messy_cnf(n, rng), algebra)]


def _subtree(n, algebra, rng, depth):
    """A random tree of products, complements and sums over small cubes."""
    kind = rng.choice(("cube", "prod", "not", "sum")) if depth else "cube"
    if kind == "cube":
        lits = tuple((v, rng.getrandbits(1))
                     for v in rng.sample(range(n), rng.randint(1, min(3, n))))
        return cube(rand_element(algebra, rng), lits)
    parts = tuple(_subtree(n, algebra, rng, depth - 1)
                  for _ in range(rng.randint(1, 3)))
    if kind == "not":
        return Not(Prod(parts))
    return (Prod if kind == "prod" else Sum)(parts)


def _messy_trees(n, algebra, rng):
    """Messy cube terms, with some products and nested sums among them and
    a complemented product of a cube with a sum."""
    parts = _messy_cubes(n, algebra, rng)[:n]
    for _ in range(rng.randint(1, 3)):
        parts.insert(rng.randint(0, len(parts)),
                     Prod((_subtree(n, algebra, rng, 2), _subtree(n, algebra, rng, 2))))
    v = rng.randrange(n)
    parts.append(Prod((cube(algebra.one, ((v, 1),)),
                       Not(Sum((_subtree(n, algebra, rng, 1),
                                cube(algebra.one, ((v, 1),))))))))
    return parts


# (algebra, cases, largest n, term maker, least consistent cases): DIMACS
# clause lists as `onsolve solve` reads them, then cube sums and other trees
# over the bool and uint64 tables.
EXPR_CASES = ((B0, 80, 12, _plain_cnf, 20),
              *(case
                for a in (B0, B2, B3, Algebra(64))
                for case in ((a, 40, 10, _messy_cubes, 20),
                             (a, 30, 8, _messy_trees, 10))))


def _random_split(n, rng):
    variables = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(variables)
    size = rng.randint(1, max(n, 1))
    return [variables[s:s + size] for s in range(0, n, size)]


def _trace_or_error(eliminate, *args):
    try:
        return eliminate(*args)
    except InapplicableClassError:
        return None


def _dense_or_none(f, split, policy):
    try:
        return dense_stages(f, split, policy)
    except OutsideClassError:
        return None


def _assert_matches_dense(trace, reference):
    """Each stage's eliminant, zero count and kept table equal those that
    ``dense_stages`` reads off f's table (a stage that keeps the tree keeps
    no table)."""
    assert len(trace.stages) == len(reference)
    for stage, (eliminant, zero, kept) in zip(trace.stages, reference):
        assert np.array_equal(stage.eliminant.table, eliminant)
        assert stage.zero_coefficients == zero
        if not isinstance(stage.source, Expr):
            assert stage.source.dtype == kept.dtype and stage.source.shape == kept.shape
            assert np.array_equal(stage.source, kept)


@pytest.mark.parametrize("slab", [1, 16, 256, solver._SLAB_ENTRIES])
def test_eliminate_expr_matches_dense_stages(monkeypatch, slab):
    # Small slabs make the per-row and multi-slab paths run at n <= 12.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", slab)
    rng = random.Random(f"expr-stage:{slab}")
    for algebra, cases, largest, make, least in EXPR_CASES:
        consistent = 0
        for case in range(cases):
            n = rng.randint(1, largest) if case else 0
            expr = Sum(tuple(make(n, algebra, rng))) if n else cube(algebra.zero)
            split = _random_split(n, rng)
            f = BoolFunction.from_expr(expr, n, algebra)
            # The oracle's verdict, where B^n is small enough to enumerate.
            oracle = (brute_consistency(f).consistent
                      if algebra.size ** n <= 4096 else None)
            for policy in ("minterm", "ladder"):
                dense = _trace_or_error(eliminate_blocks, f, split, policy)
                fast = _trace_or_error(eliminate_expr, expr, n, algebra, split, policy)
                reference = _dense_or_none(f, split, policy)
                if dense is None or fast is None or reference is None:
                    assert dense is fast is reference is None, policy
                    continue
                assert len(fast.stages) == len(dense.stages) == len(split)
                _assert_matches_dense(fast, reference)
                _assert_matches_dense(dense, reference)
                for got, want in zip(fast.stages, dense.stages):
                    assert (got.block, got.remaining) == (want.block, want.remaining)
                    assert np.array_equal(got.eliminant.table, want.eliminant.table)
                    assert got.zero_coefficients == want.zero_coefficients
                assert (fast.final, fast.policy) == (dense.final, dense.policy)
                if oracle is not None:
                    assert fast.consistent == oracle, policy
                if fast.consistent:
                    # Checked on the tree, which builds no table.
                    model = extract_solution(fast)
                    point = tuple(model[i] for i in range(n))
                    assert expr.evaluate(point, algebra).is_zero, policy
                if not n:
                    continue
                # A table of one slab or less is kept as a dense stage.
                assert isinstance(fast.stages[0].source, Expr) == (
                    policy == "minterm" and 1 << n > slab)
                for _ in range(3):
                    values = {i: rng.getrandbits(algebra.atom_count)
                              for i in dense.stages[0].remaining}
                    got = fast.stages[0].constants_at(values)
                    want = dense.stages[0].constants_at(values)
                    assert got.dtype == want.dtype and np.array_equal(got, want)
                if dense.consistent:
                    consistent += policy == "minterm"
                    assert extract_solution(fast) == extract_solution(dense)
        assert consistent >= least, (algebra, make)


def test_slab_loop_writes_parts_without_a_prefix_variable_once(monkeypatch):
    # Slabs of 64 entries leave the whole first block {x1..x4} as the
    # prefix: 16 slabs.  A product or a complement over other variables is
    # written once, into the common buffer.  A part whose deepest prefix
    # variable is x(d) is written into buffer d, once per point of x1..x(d):
    # a part on x1 twice, and one on x4 once per slab.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", 64)
    write, calls = solver._write_expr, []

    def spy(table, variables, expr, point, algebra):
        calls.append(expr)
        return write(table, variables, expr, point, algebra)

    monkeypatch.setattr(solver, "_write_expr", spy)
    n, split = 10, consecutive_split(10, 4)
    for algebra in (B0, B2):
        def x(v, bit=1):
            return cube(algebra.one, ((v, bit),))

        product = Prod((x(4), Not(Sum((x(5, 0), cube(algebra.one, ((6, 1), (9, 0))))))))
        negated = Not(Sum((x(7), x(8), x(9, 0))))
        first = Prod((x(0), x(5)))
        second = Prod((x(1), Not(x(6))))
        third = Not(Sum((x(2, 0), x(7))))
        fourth = Prod((x(3), x(0, 0)))
        parts = (product, negated, first, second, third, fourth)
        expr = Sum((cube(algebra.one, ((1, 1), (6, 0))), *parts))
        calls.clear()
        trace = eliminate_expr(expr, n, algebra, split)
        assert isinstance(trace.stages[0].source, Expr)
        assert [sum(part in e.parts for e in calls)
                for part in parts] == [1, 1, 2, 4, 8, 16]
        dense = eliminate_blocks(BoolFunction.from_expr(expr, n, algebra), split)
        assert render_trace(trace) == render_trace(dense)
        assert dense.consistent
        assert extract_solution(trace) == extract_solution(dense)


def test_slab_loop_strided_writes(monkeypatch):
    # Slabs of 64 entries leave x1..x4 as the prefix of 16 slabs over the
    # uint64 table of x5..x10.  A row is written once per point of the
    # prefix variables down to its deepest one that its literals meet, and
    # rows that meet the point merge by their literals on the table:
    #   x1 x5 and a0 x1 x5 (one group)   level 1, 1 of 2 points   1
    #   a0 x1' x5'                        level 1, 1 of 2 points   1
    #   x4 x6                             level 4, 8 of 16 points  8
    #   a1 x2 x4' x6'                     level 4, 4 of 16 points  4
    #   x5 x7                             level 0, once            1
    # Writing every row that the prefix leaves live into every slab takes
    # 8 + 8 + 8 + 8 + 4 + 1 = 37 writes.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", 64)
    writes = []

    class Counting(np.ndarray):
        def __setitem__(self, key, value):
            writes.append(key)
            super().__setitem__(key, value)

        def __ior__(self, other):
            writes.append(other)
            return super().__ior__(other)

    write = solver._write_expr

    def spy(table, variables, expr, point, algebra):
        write(table.view(Counting), variables, expr, point, algebra)
        return table

    monkeypatch.setattr(solver, "_write_expr", spy)
    a0, a1, one = B2.element(1), B2.element(2), B2.one
    expr = rows(cube(one, ((0, 1), (4, 1))), cube(a0, ((0, 1), (4, 1))),
                cube(a0, ((0, 0), (4, 0))), cube(one, ((3, 1), (5, 1))),
                cube(a1, ((1, 1), (3, 0), (5, 0))), cube(one, ((4, 1), (6, 1))))
    split = consecutive_split(10, 4)
    trace = eliminate_expr(expr, 10, B2, split)
    assert isinstance(trace.stages[0].source, Expr)
    assert len(writes) == 15
    dense = eliminate_blocks(BoolFunction.from_expr(expr, 10, B2), split)
    assert render_trace(trace) == render_trace(dense)
    assert extract_solution(trace) == extract_solution(dense)


def test_rows_read_narrow_rows_as_the_shift_does():
    # Rows of 2^rest < 64 entries: byte-wide ints for rest >= 3, the shift
    # below, against the shift at every rest and every row count up to 2^16.
    rng = np.random.default_rng(7)
    for rest in range(6):
        width = 1 << rest
        for free in range(1, 17):
            slab = rng.integers(0, 1 << 64, size=max(1, (1 << (free + rest)) >> 6),
                                dtype=np.uint64)
            if rng.random() < 0.5:
                slab[rng.random(len(slab)) < 0.5] = 0
            groups = slab[:, None] >> np.arange(0, 64, width, dtype=np.uint64)
            want = (groups & np.uint64((1 << width) - 1)).reshape(-1, 1)[:1 << free]
            got = solver._rows(slab, free, rest)
            assert got.dtype == want.dtype and np.array_equal(got, want), (rest, free)
            zero = int(np.count_nonzero(want == 0))
            assert solver._zero_slab_rows(slab, free, rest) == zero, (rest, free)


def test_lane_patterns():
    # Low position p of a word's six variables: lanes i with bit 5 - p set.
    assert solver._LANES == (0xFFFFFFFF00000000, 0xFFFF0000FFFF0000,
                             0xFF00FF00FF00FF00, 0xF0F0F0F0F0F0F0F0,
                             0xCCCCCCCCCCCCCCCC, 0xAAAAAAAAAAAAAAAA)


def _lane_expr(n, rng):
    """Two-element cubes with literals only on the last six variables (the
    lanes of a word), only above them, or on both sides; negated literals,
    value-0 cubes, and products with complements among them."""
    low, high = list(range(max(0, n - 6), n)), list(range(max(0, n - 6)))

    def row(kind):
        if not high:
            kind = "low"
        pool = {"low": low, "high": high, "mixed": low + high}[kind]
        lits = set(rng.sample(pool, min(len(pool), rng.randint(2, 3))))
        if kind == "mixed":
            lits |= {rng.choice(low), rng.choice(high)}
        return cube(B0.zero if rng.random() < 0.15 else B0.one,
                    tuple((v, rng.getrandbits(1)) for v in sorted(lits)))

    parts = [row(rng.choice(("low", "high", "mixed")))
             for _ in range(rng.randint(2, n // 2 + 2))]
    parts.append(Prod((row("mixed"), Not(Sum((row("low"), row("high")))))))
    parts.append(Not(Sum((Not(row("high")), Not(row("low"))))))
    return Sum(tuple(parts))


@functools.cache
def _lane_cases():
    """Three trees at each n, with their bool tables from ``Expr.evaluate``
    at each 0/1 point, which no table writer builds."""
    rng = random.Random("lanes")
    cases = []
    for n in (5, 6, 7, 12):
        for _ in range(3):
            expr = _lane_expr(n, rng)
            table = [expr.evaluate(tuple(B0.element(b) for b in point_bits(j, n)), B0).mask
                     for j in range(1 << n)]
            cases.append((n, expr, BoolFunction(B0, n, np.array(table, dtype=bool))))
    return cases


@pytest.mark.parametrize("slab", [1, 16, 256, solver._SLAB_ENTRIES])
def test_packed_stage_matches_evaluated_table(monkeypatch, slab):
    # At n = 5 nothing is packed, at n = 6 a table is one word, and small
    # slabs make the word slab loop run with rows of one or more words.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", slab)
    consistent = 0
    for n, expr, f in _lane_cases():
        for size in (1, 3, 4):
            split = consecutive_split(n, size)
            for policy in ("minterm", "ladder"):
                want = _trace_or_error(eliminate_blocks, f, split, policy)
                got = _trace_or_error(eliminate_expr, expr, n, B0, split, policy)
                if want is None or got is None:
                    assert want is got, (n, split, policy)
                    continue
                for mine, theirs in zip(got.stages, want.stages, strict=True):
                    assert np.array_equal(mine.eliminant.table, theirs.eliminant.table)
                    assert mine.zero_coefficients == theirs.zero_coefficients
                assert got.final == want.final
                if want.consistent:
                    consistent += 1
                    assert extract_solution(got) == extract_solution(want)
    assert consistent >= 40


def _ladder_class_expr(block, others, rng):
    """Two-element cubes, each on one ladder member of ``block`` (its first
    i variables 1 and the next 0, or all 1) and a cube over ``others``: the
    function is in stage 1's ladder class."""
    parts = []
    for _ in range(rng.randint(1, 2 * len(block) + 2)):
        i = rng.randint(0, len(block))
        lits = [(v, 1) for v in block[:i]] + [(v, 0) for v in block[i:i + 1]]
        lits += [(v, rng.getrandbits(1))
                 for v in rng.sample(others, rng.randint(0, min(3, len(others))))]
        parts.append(cube(B0.one, tuple(lits)))
    return Sum(tuple(parts))


@pytest.mark.parametrize("slab", [16, 64, 256, solver._SLAB_ENTRIES])
def test_narrow_rows_fold_on_words(monkeypatch, slab):
    # Stage 1 rows of 2^rest entries for every rest in 0..7 at n <= 12: a
    # table of fewer than 64 entries in one word, several rows per word,
    # rows of whole words, and several slabs; at 64 entries n = 10, b = 8 is
    # 16 one-word slabs with rows of 4 entries, and at 16 entries a slab is
    # part of a word.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", slab)
    rng = random.Random(f"narrow:{slab}")
    consistent = ladders = 0
    cases = [(0, 0)] + [(n, rest) for rest in range(8) for n in range(rest + 1, 13)]
    for n, rest in cases:
        variables = rng.sample(range(n), n)
        block, others = variables[:n - rest], variables[n - rest:]
        size = 1 if rng.random() < 0.5 else rng.randint(1, max(rest, 1))
        split = [block] * bool(n) + [others[s:s + size] for s in range(0, rest, size)]
        exprs = (Sum(tuple(_plain_cnf(n, B0, rng))) if n else cube(B0.one),
                 _ladder_class_expr(block, others, rng) if n else cube(B0.zero))
        for expr in exprs:
            f = BoolFunction.from_expr(expr, n, B0)
            for policy in ("minterm", "ladder"):
                want = _trace_or_error(eliminate_blocks, f, split, policy)
                got = _trace_or_error(eliminate_expr, expr, n, B0, split, policy)
                reference = _dense_or_none(f, split, policy)
                if want is None or got is None or reference is None:
                    assert want is got is reference is None, (n, rest, policy)
                    continue
                ladders += policy == "ladder"
                _assert_matches_dense(got, reference)
                _assert_matches_dense(want, reference)
                for mine, theirs in zip(got.stages, want.stages, strict=True):
                    assert np.array_equal(mine.eliminant.table, theirs.eliminant.table)
                    assert mine.zero_coefficients == theirs.zero_coefficients
                if got.stages and not isinstance(got.stages[0].source, Expr):
                    assert got.stages[0].source.shape == want.stages[0].source.shape
                    assert np.array_equal(got.stages[0].source, want.stages[0].source)
                assert got.final == want.final
                if want.consistent:
                    consistent += 1
                    model = extract_solution(got)
                    assert model == extract_solution(want)
                    point = tuple(model[i] for i in range(n))
                    assert expr.evaluate(point, B0).is_zero, (n, rest, policy)
    assert consistent >= 150 and ladders >= 80, (consistent, ladders)


def test_stage_table_rows_follow_the_member_order():
    # An explicit ON set is folded: over the block minterms in index order
    # the table is the rows, and in another order row i is still member i's.
    f = parse("x1*x2' + a1*x2 + a0*x1'*x3", 3, B2)
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        phi = from_blocks(B2, 2, [{j} for j in order])
        stage = solver._stage(f, range(3), (0, 1), phi, False)
        rows = f.table.reshape(4, 2)
        assert np.array_equal(stage.source, rows[order])
        assert np.array_equal(stage.eliminant.table, np.bitwise_and.reduce(rows, axis=0))


def test_ladder_slab_loop_builds_no_full_table():
    # At n = 24 the ladder stage 1 spans 16 slabs of one row: its table is
    # five rows of 2^20 entries, never the 2^24 entries of f.
    n, split = 24, consecutive_split(24, 4)
    expr = cnf_expr(LADDER_CLAUSES, B0)
    tracemalloc.start()
    try:
        trace = eliminate_expr(expr, n, B0, split, "ladder")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << n
    dense = eliminate_blocks(BoolFunction.from_expr(expr, n, B0), split, "ladder")
    assert dense.consistent and trace.final == dense.final
    for got, want in zip(trace.stages, dense.stages, strict=True):
        assert (got.block, got.remaining, got.phi) == (want.block, want.remaining, want.phi)
        assert np.array_equal(got.source, want.source)
        assert np.array_equal(got.eliminant.table, want.eliminant.table)
    assert render_trace(trace) == render_trace(dense)
    assert extract_solution(trace) == extract_solution(dense)


@pytest.mark.parametrize("clause", [[2, -9], [-6, 13]])
def test_ladder_slab_loop_rejects_out_of_class(clause):
    # x2 breaks stage 1's class in the slab loop, x6 stage 2's.
    n, split = 24, consecutive_split(24, 4)
    expr = cnf_expr(LADDER_CLAUSES + [clause], B0)
    with pytest.raises(InapplicableClassError):
        eliminate_expr(expr, n, B0, split, "ladder")
    with pytest.raises(InapplicableClassError):
        eliminate_blocks(BoolFunction.from_expr(expr, n, B0), split, "ladder")


def test_eliminate_expr_validation():
    x1 = cube(B0.one, ((0, 1),))
    with pytest.raises(ValueError):
        eliminate_expr(x1, 3, B0, [[0, 1]])
    with pytest.raises(ValueError, match="variable index 1 outside n=1"):
        eliminate_expr(cube(B0.one, ((1, 1),)), 1, B0, [[0]])
    with pytest.raises(ValueError, match="variable index 2 outside n=2"):
        eliminate_expr(Sum((x1, Not(Prod((x1, cube(B0.one, ((2, 0),))))))), 2, B0,
                       [[0], [1]])
    with pytest.raises(AlgebraMismatchError):
        eliminate_expr(x1, 1, B2, [[0]])
    # n = 0: no stages, and the final constant is the expression's value.
    for policy in ("minterm", "ladder"):
        for value in (B0.zero, B0.one):
            trace = eliminate_expr(Sum((cube(value),)), 0, B0, [], policy)
            assert (trace.stages, trace.final, trace.policy) == ((), value, policy)


# ---------------------------------------------------------------------------
# necessary condition


def test_necessary_condition_in_class_is_constant_test():
    onset = from_blocks(B2, 2, [{0, 2}, {1, 3}])
    constants = (B2.atom(0), B2.atom(1))
    f = _system_function(onset, constants)
    condition = necessary_condition(f, onset)
    assert condition.is_zero  # a0 * a1 = 0


def test_necessary_condition_constant_one():
    onset = from_blocks(B0, 2, [{0, 1}, {2, 3}])
    f = BoolFunction.constant(B0, 2, B0.one)
    condition = necessary_condition(f, onset)
    assert condition.is_one
    assert not brute_consistency(condition).consistent


def test_necessary_condition_sound_on_random_consistent_instances():
    rng = np.random.default_rng(28)
    rng_py = random.Random(28)
    produced = 0
    while produced < 40:
        f = rand_b0_function(3, rng)
        if not brute_consistency(f).consistent:
            continue
        produced += 1
        m = rng_py.randint(1, 4)
        onset = from_blocks(B0, 3, rand_partition(8, m, rng_py))
        condition = necessary_condition(f, onset)
        assert brute_consistency(condition).consistent


def _random_onset_function(algebra, rng):
    """A random ON set of any order (1 included) and a function that is in
    its constant class about half the time."""
    n = rng.randint(1, 4)
    onset = from_blocks(algebra, n, rand_partition(1 << n, rng.randint(1, 1 << n), rng))
    if rng.random() < 0.5:
        constants = [rand_element(algebra, rng) for _ in range(onset.order)]
        return _system_function(onset, constants), onset
    return rand_function(algebra, n, rng), onset


def test_necessary_condition_matches_its_definition():
    # The constant product of the expansion constants in the class, and the
    # product of the coefficient functions f*phi_i outside it.
    rng = random.Random("necessary-condition")
    outside = 0
    for algebra in (B0, B2):
        for _ in range(150):
            f, onset = _random_onset_function(algebra, rng)
            membership = is_in_class(f, onset)
            if membership:
                want = BoolFunction.constant(
                    algebra, f.n, meet_all(membership.constants, algebra))
            else:
                outside += 1
                want = BoolFunction.constant(algebra, f.n, algebra.one)
                for phi in onset.members():
                    want = want * (f * phi)
            assert necessary_condition(f, onset) == want
    assert outside >= 100


# ---------------------------------------------------------------------------
# two-element corollaries


def test_b0_coefficient_single_variable():
    f = BoolFunction.variable(B0, 1, 0)
    onset = minterm_set(1, B0)
    assert b0_coefficient(f, onset.member(0)) == B0.zero   # phi = x'
    assert b0_coefficient(f, onset.member(1)) == B0.one    # phi = x
    assert b0_consistency(f, onset)


def test_b0_coefficient_worked_example_block():
    # at x = 0 the worked instance has a vanishing yz coefficient
    g = worked_f().cofactor(0, 0)
    yz = parse("y*z", 3, B0)
    assert b0_coefficient(g, yz) == B0.zero


def test_b0_coefficient_nonconstant():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    x1 = BoolFunction.variable(B0, 2, 0)
    assert b0_coefficient(f, x1) is None
    with pytest.raises(ValueError):
        b0_coefficient(rand_function(B2, 1, random.Random(1)),
                       BoolFunction.variable(B2, 1, 0))


def test_b0_consistency_matches_truth_table():
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(1, 8)
        m = rng.randint(1, min(6, 1 << n))
        onset = from_blocks(B0, n, rand_partition(1 << n, m, rng))
        constants = [B0.element(rng.getrandbits(1)) for _ in range(m)]
        f = _system_function(onset, constants)
        assert b0_consistency(f, onset) == brute_consistency(f).consistent
        # dual form: f = 1 consistent iff some f'*phi vanishes
        assert b0_consistency(f, onset, target=1) == \
            brute_consistency(~f).consistent


def test_b0_consistency_requires_class_membership():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    onset = from_blocks(B0, 2, [{2, 3}, {0, 1}])
    with pytest.raises(InapplicableClassError):
        b0_consistency(f, onset)


def test_b0_coefficient_matches_its_definition():
    rng = random.Random("b0-coefficient")
    seen = set()
    for _ in range(150):
        f, onset = _random_onset_function(B0, rng)
        for phi in onset.members():
            if (f * phi).is_zero:
                want = B0.zero
            elif (~f * phi).is_zero:
                want = B0.one
            else:
                want = None
            assert b0_coefficient(f, phi) == want
            seen.add(want)
    assert seen == {B0.zero, B0.one, None}


def test_b0_consistency_matches_its_definition():
    rng = random.Random("b0-consistency")
    in_class = 0
    for _ in range(150):
        f, onset = _random_onset_function(B0, rng)
        if not is_in_class(f, onset):
            with pytest.raises(InapplicableClassError):
                b0_consistency(f, onset)
            continue
        in_class += 1
        for target, g in ((0, f), (1, ~f)):
            want = any((g * phi).is_zero for phi in onset.members())
            assert b0_consistency(f, onset, target) == want
    assert in_class >= 60
