"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime.  Run with ``pytest tests/test_acceptance.py -v -s``.

All comparisons are exact; the time bounds are asserted as stated.
"""

import itertools
import random
import time

import numpy as np

from onsolve import (
    BoolFunction,
    brute_consistency,
    complement,
    consecutive_split,
    consistency_on_class,
    eliminate_blocks,
    eliminate_variable,
    extract_solution,
    from_blocks,
    is_in_class,
    leq,
    parse,
    solve_dual_linear_coon,
    solve_linear_on,
    solve_on_system,
)
from onsolve.algebra import Algebra, join_all, meet, meet_all
from onsolve.solver import cnf_function

from helpers import (
    B0,
    B2,
    B3,
    brute_class_membership,
    clauses_satisfied,
    is_coon_tuple,
    is_on_tuple,
    model_bits,
    planted_cnf,
    rand_b0_function,
    rand_element,
    rand_partition,
    random_cnf,
)

WORKED_F = "x + x*y'*z + x*y + x'*z' + x*y' + x*y*z"


class timer:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"time limit exceeded: {self.elapsed:.2f}s >= {self.limit}s")
        return False


def report(number, label, t):
    print(f"\ncriterion {number}: PASS ({t.elapsed:.2f}s) {label}")


def test_criterion_1_on_system_reproduction():
    with timer(1.0) as t:
        onset = from_blocks(B3, 3, [{0, 5, 7}, {1, 3, 6}, {2, 4}])
        beta = (B3.atom(0), B3.atom(1), B3.atom(2))
        # representatives as documented: the cells carrying beta_1..beta_3
        # in the worked walkthrough (minterms 101, 001, 010)
        model = solve_on_system(onset, beta, representatives=(5, 1, 2))
        assert model[0] == beta[0]
        assert model[1] == beta[2]
        assert model[2] == beta[0] + beta[1]
        point = (model[0], model[1], model[2])
        for i in range(3):
            assert onset.member(i).evaluate(point) == beta[i]
    report(1, "three-variable ON system solved in closed form", t)


def test_criterion_2_elimination_reproduction():
    with timer(1.0) as t:
        f = parse(WORKED_F, 3, B0)
        trace = eliminate_blocks(f, [(1, 2), (0,)])
        stage1 = trace.stages[0]
        x = BoolFunction.variable(B0, 1, 0)
        one = BoolFunction.constant(B0, 1, B0.one)
        # stage coefficients in the walkthrough's listing order
        # (yz, y'z, yz', y'z') = local minterm rows (3, 1, 2, 0)
        listed = [stage1.coeffs[i] for i in (3, 1, 2, 0)]
        assert listed == [x, x, one, one]
        assert stage1.eliminant == x
        assert trace.final == B0.zero and trace.consistent
        model = extract_solution(trace)
        assert model == {0: B0.zero, 1: B0.one, 2: B0.one}
    report(2, "two-stage elimination and back-substitution", t)


def test_criterion_3_one_variable_base_case():
    b8 = Algebra(8)
    rng = random.Random(101)
    with timer(1.0) as t:
        for _ in range(1000):
            a = rand_element(b8, rng)
            b = rand_element(b8, rng)
            f = BoolFunction.from_coeffs(b8, 1, [b, a])
            eliminant = eliminate_variable(f, 0)
            assert eliminant.is_zero == meet(a, b).is_zero
    report(3, "1000 single-variable eliminations match a*b = 0", t)


def test_criterion_4_oracle_equivalence_b0():
    np_rng = np.random.default_rng(103)
    rng = random.Random(103)
    block_sizes = (1, 3, 4)
    with timer(60.0) as t:
        for _ in range(500):
            n = int(np_rng.integers(1, 13))
            f = rand_b0_function(n, np_rng)
            expected = brute_consistency(f).consistent
            for size in block_sizes:
                trace = eliminate_blocks(f, consecutive_split(n, size))
                assert trace.consistent == expected
                if trace.consistent:
                    model = extract_solution(trace)
                    point = tuple(model[i] for i in range(n))
                    assert f.evaluate(point).is_zero
        for _ in range(200):
            n = rng.randint(8, 20)
            clauses = random_cnf(n, round(4.26 * n), rng)
            f = cnf_function(n, clauses, B0)
            expected = brute_consistency(f).consistent
            for size in block_sizes:
                trace = eliminate_blocks(f, consecutive_split(n, size))
                assert trace.consistent == expected
                if trace.consistent:
                    model = extract_solution(trace)
                    bits = model_bits(model, n)
                    assert clauses_satisfied(clauses, bits)
    report(4, "500 random tables + 200 random 3-CNFs, block sizes 1/3/4", t)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1:]
        yield [{first}] + part


def test_criterion_5_constant_product_biconditional_general_b():
    rng = random.Random(105)
    with timer(30.0) as t:
        partitions = list(_set_partitions(list(range(4))))
        assert len(partitions) == 15  # Bell(4); all have m <= 4
        for blocks in partitions:
            onset = from_blocks(B2, 2, blocks)
            for _ in range(50):
                constants = [rand_element(B2, rng) for _ in range(onset.order)]
                coeffs = [constants[onset.block_of(j)] for j in range(4)]
                f = BoolFunction.from_coeffs(B2, 2, coeffs)
                product_zero = meet_all(constants, B2).is_zero
                oracle = brute_consistency(f)
                assert product_zero == oracle.consistent
                result = consistency_on_class(f, onset)
                assert result.consistent == oracle.consistent
                if result.consistent:
                    point = tuple(result.witness[i] for i in range(2))
                    assert f.evaluate(point).is_zero
    report(5, "product-of-constants test == search over B^n, all partitions", t)


def test_criterion_6_class_test_vs_exhaustive_search():
    rng = random.Random(107)
    with timer(30.0) as t:
        for _ in range(200):
            n = rng.randint(1, 3)
            coeffs = [rand_element(B2, rng) for _ in range(1 << n)]
            f = BoolFunction.from_coeffs(B2, n, coeffs)
            m = rng.randint(1, min(4, 1 << n))
            onset = from_blocks(B2, n, rand_partition(1 << n, m, rng))
            assert bool(is_in_class(f, onset)) == brute_class_membership(f, onset)
    report(6, "interval inequality == exhaustive constant search, 200 cases", t)


def test_criterion_7_expansion_soundness():
    rng = random.Random(109)
    with timer(30.0) as t:
        for _ in range(300):
            n = rng.randint(1, 3)
            m = rng.randint(1, 1 << n)
            onset = from_blocks(B2, n, rand_partition(1 << n, m, rng))
            constants = [rand_element(B2, rng) for _ in range(m)]
            coeffs = [constants[onset.block_of(j)] for j in range(1 << n)]
            f = BoolFunction.from_coeffs(B2, n, coeffs)
            membership = is_in_class(f, onset)
            assert membership
            chosen = []
            for interval in membership.intervals:
                slack = interval.high.mask & ~interval.low.mask
                pick = interval.low.mask | (rng.getrandbits(2) & slack)
                chosen.append(B2.element(pick))
                assert leq(interval.low, chosen[-1])
                assert leq(chosen[-1], interval.high)
            members = onset.members()
            # exact reconstruction at every 0/1 point
            g = BoolFunction.constant(B2, n, B2.zero)
            for c, phi in zip(chosen, members):
                g = g + BoolFunction.constant(B2, n, c) * phi
            assert g == f
            # and at 20 arbitrary points of B^n
            for _ in range(20):
                point = tuple(rand_element(B2, rng) for _ in range(n))
                total = B2.zero
                for c, phi in zip(chosen, members):
                    total = total + meet(c, phi.evaluate(point))
                assert total == f.evaluate(point)
    report(7, "300 in-interval coefficient choices reconstruct f", t)


def test_criterion_8_constructive_linear_solutions():
    b8 = Algebra(8)
    b6 = Algebra(6)
    rng = random.Random(111)
    perms = list(itertools.permutations(range(4)))
    with timer(10.0) as t:
        for _ in range(500):
            a = [rand_element(b8, rng) for _ in range(4)]
            a[0] = meet(a[0], complement(meet_all(a[1:], b8)))
            assert meet_all(a, b8).is_zero
            for sigma in perms:
                z = solve_linear_on(a, sigma)
                assert z is not None
                assert is_on_tuple(z, b8)
                assert join_all((meet(ai, zi) for ai, zi in zip(a, z)),
                                b8).is_zero
        for _ in range(500):
            b = [rand_element(b6, rng) for _ in range(4)]
            b[0] = b[0] + complement(join_all(b[1:], b6))
            assert join_all(b, b6).is_one
            xi = solve_dual_linear_coon(b)
            assert xi is not None
            assert is_coon_tuple(xi, b6)
            assert meet_all((bi + x for bi, x in zip(b, xi)), b6).is_one
            # duality against the linear solution for the complements
            z = solve_linear_on([complement(bi) for bi in b])
            assert tuple(complement(zi) for zi in z) == tuple(xi)
    report(8, "500 ON + 500 co-ON constructions, all sigma in S4, duality", t)


def test_criterion_9_scale_check():
    rng = random.Random(113)
    with timer(10.0) as t:
        clauses, hidden = planted_cnf(20, 85, rng)
        assert clauses_satisfied(clauses, hidden)
        f = cnf_function(20, clauses, B0)
        trace = eliminate_blocks(f, consecutive_split(20, 4))
        assert trace.consistent
        model = extract_solution(trace)
        bits = model_bits(model, 20)
        assert clauses_satisfied(clauses, bits)
        point = tuple(model[i] for i in range(20))
        assert f.evaluate(point).is_zero
    report(9, "satisfiable 3-CNF, n=20 m=85, solved with model", t)
