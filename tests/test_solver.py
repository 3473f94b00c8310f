"""Constructive solvers, elimination, back-substitution, two-element corollaries."""

import itertools
import random

import pytest

from onsolve import (
    AlgebraMismatchError,
    BoolFunction,
    CubeStage,
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
    eliminate_cubes,
    eliminate_variable,
    extract_solution,
    from_blocks,
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
from onsolve.parsing import Cube, Sum, cnf_expr
from onsolve.solver import is_on_system

from helpers import (
    B0,
    B2,
    B3,
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
    # above 64 atoms the tables hold arbitrary-precision masks (object dtype)
    wide = Algebra(70, atom_cap=70)
    rng = random.Random(31)
    solved = 0
    for _ in range(10):
        f = rand_function(wide, 3, rng)
        trace = eliminate_blocks(f, consecutive_split(3, 2))
        assert trace.stages[0].table.dtype == object
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

    cubes = [Cube(value(), c.lits) for c in cnf_expr(_messy_cnf(n, rng), algebra).parts]
    if rng.random() < 0.2:
        cubes.insert(rng.randint(0, len(cubes)), Cube(value()))
    return cubes


def _plain_cnf(n, algebra, rng):
    return list(cnf_expr(_messy_cnf(n, rng), algebra).parts)


# (algebra, cases, largest n, term maker): DIMACS clause lists as
# `onsolve solve` reads them, then cube sums over the bool, uint64 and
# object tables.
CUBE_CASES = ((B0, 80, 12, _plain_cnf),
              *((a, 40, 10, _messy_cubes)
                for a in (B0, B2, B3, Algebra(65, atom_cap=65))))


def _random_split(n, rng):
    variables = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(variables)
    size = rng.randint(1, n)
    return [variables[s:s + size] for s in range(0, n, size)]


@pytest.mark.parametrize("slab", [1, 16, 256, solver._SLAB_ENTRIES])
def test_eliminate_cubes_matches_dense_stages(monkeypatch, slab):
    # Small slabs make the per-row and multi-slab paths run at n <= 12.
    monkeypatch.setattr(solver, "_SLAB_ENTRIES", slab)
    rng = random.Random(f"cube-stage:{slab}")
    for algebra, cases, largest, make in CUBE_CASES:
        consistent = 0
        for _ in range(cases):
            n = rng.randint(1, largest)
            cubes = make(n, algebra, rng)
            split = _random_split(n, rng)
            f = BoolFunction.from_expr(Sum(tuple(cubes)), n, algebra)
            dense = eliminate_blocks(f, split)
            fast = eliminate_cubes(n, algebra, cubes, split)
            # A table of one slab or less is kept as a dense stage.
            assert isinstance(fast.stages[0], CubeStage) == (1 << n > slab)
            assert len(fast.stages) == len(dense.stages)
            for got, want in zip(fast.stages, dense.stages):
                assert (got.block, got.remaining) == (want.block, want.remaining)
                assert np.array_equal(got.eliminant.table, want.eliminant.table)
                assert got.zero_coefficients == want.zero_coefficients
            assert fast.final == dense.final
            for _ in range(3):
                values = {i: rng.getrandbits(algebra.atom_count)
                          for i in dense.stages[0].remaining}
                got = fast.stages[0].constants_at(values)
                want = dense.stages[0].constants_at(values)
                assert got.dtype == want.dtype and np.array_equal(got, want)
            if dense.consistent:
                consistent += 1
                assert extract_solution(fast) == extract_solution(dense)
        assert consistent >= 20, algebra


def test_eliminate_cubes_validation():
    x1 = Cube(B0.one, ((0, 1),))
    with pytest.raises(ValueError):
        eliminate_cubes(3, B0, [x1], [[0, 1]])
    with pytest.raises(ValueError):
        eliminate_cubes(0, B0, [], [])
    with pytest.raises(ValueError, match="variable index 1 outside n=1"):
        eliminate_cubes(1, B0, [Cube(B0.one, ((1, 1),))], [[0]])
    with pytest.raises(AlgebraMismatchError):
        eliminate_cubes(1, B2, [x1], [[0]])


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
