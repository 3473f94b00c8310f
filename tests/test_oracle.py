"""The brute-force references themselves: small cases and budgets."""

import random

import pytest

from onsolve import (
    BoolFunction,
    BudgetExceededError,
    brute_consistency,
    from_blocks,
    is_in_class,
    minterm_set,
    parse,
)

from helpers import (
    B0,
    B2,
    brute_class_membership,
    minterm_sum_eval,
    rand_function,
    rand_partition,
)


def test_zero_function_witnessed_at_origin():
    f = BoolFunction.constant(B0, 3, B0.zero)
    report = brute_consistency(f)
    assert report.consistent
    assert report.witness == {0: B0.zero, 1: B0.zero, 2: B0.zero}
    assert report.checked_points == 1


def test_one_function_inconsistent():
    f = BoolFunction.constant(B0, 2, B0.one)
    report = brute_consistency(f)
    assert not report.consistent and report.witness is None
    assert report.checked_points == 4


def test_worked_example_witness():
    f = parse("x + x*y'*z + x*y + x'*z' + x*y' + x*y*z", 3, B0)
    report = brute_consistency(f)
    assert report.consistent
    # first zero in index order is 001; (0,1,1) is another witness
    assert report.witness == {0: B0.zero, 1: B0.zero, 2: B0.one}
    assert f.evaluate((B0.zero, B0.one, B0.one)).is_zero


def test_general_algebra_enumeration():
    rng = random.Random(33)
    for _ in range(10):
        f = rand_function(B2, 2, rng)
        report = brute_consistency(f)
        if report.consistent:
            point = tuple(report.witness[i] for i in range(2))
            assert f.evaluate(point).is_zero
            assert minterm_sum_eval(f, point).is_zero
        else:
            # cross-check with exhaustive independent evaluation
            from helpers import all_points

            assert all(not minterm_sum_eval(f, p).is_zero
                       for p in all_points(B2, 2))


def test_point_budget():
    f = BoolFunction.constant(B0, 5, B0.zero)
    with pytest.raises(BudgetExceededError):
        brute_consistency(f, point_budget=16)
    g = BoolFunction.constant(B2, 3, B2.zero)
    with pytest.raises(BudgetExceededError):
        brute_consistency(g, point_budget=63)


def test_membership_minterms_always_true():
    rng = random.Random(35)
    f = rand_function(B2, 2, rng)
    assert brute_class_membership(f, minterm_set(2, B2))


def test_membership_counterexample():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    onset = from_blocks(B0, 2, [{2, 3}, {0, 1}])
    assert not brute_class_membership(f, onset)


def test_membership_agrees_with_interval_test():
    rng = random.Random(37)
    for _ in range(50):
        n = rng.randint(1, 3)
        f = rand_function(B2, n, rng)
        m = rng.randint(1, min(4, 1 << n))
        onset = from_blocks(B2, n, rand_partition(1 << n, m, rng))
        assert brute_class_membership(f, onset) == bool(is_in_class(f, onset))


def test_membership_budget():
    f = rand_function(B2, 3, random.Random(39))
    onset = minterm_set(3, B2)
    with pytest.raises(BudgetExceededError):
        brute_class_membership(f, onset, tuple_budget=100)
