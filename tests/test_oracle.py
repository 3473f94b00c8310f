"""The oracle and the brute-force references themselves."""

import random

import numpy as np
import pytest

from onsolve import (
    Algebra,
    BoolFunction,
    brute_consistency,
    from_blocks,
    is_in_class,
    minterm_set,
    parse,
)
from onsolve.function import point_bits

from helpers import (
    B0,
    B2,
    BudgetExceededError,
    all_points,
    brute_class_membership,
    first_zero,
    minterm_sum_eval,
    rand_function,
    rand_partition,
)


def test_zero_function_witnessed_at_origin():
    f = BoolFunction.constant(B0, 3, B0.zero)
    report = brute_consistency(f)
    assert report.consistent
    assert report.witness == {0: B0.zero, 1: B0.zero, 2: B0.zero}


def test_one_function_inconsistent():
    f = BoolFunction.constant(B0, 2, B0.one)
    report = brute_consistency(f)
    assert not report.consistent and report.witness is None


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
            assert all(not minterm_sum_eval(f, p).is_zero
                       for p in all_points(B2, 2))


def _tables(k: int, n: int, rng: random.Random):
    """Atom-mask tables of 2^n entries over 2^k: uniform draws, and tables
    that are full but at a few entries, each with and without a forced
    atom, so that every k >= 1 meets both verdicts."""
    full, size = (1 << k) - 1, 1 << n
    for forced in (0, 1 << rng.randrange(k) if k else 0):
        yield [rng.getrandbits(k) | forced for _ in range(size)]
        holes = {rng.randrange(size): rng.getrandbits(k) for _ in range(2)}
        yield [holes.get(j, full) | forced for j in range(size)]


def test_boole_condition_matches_exhaustive_search():
    """Every k = 0..4 and n with (2^k)^n <= 4096: the verdict is the
    exhaustive search's, each witness is a zero under the minterm sum, and
    a two-element witness is the first zero entry in index order."""
    rng = random.Random(41)
    verdicts = set()
    for k in range(5):
        algebra = Algebra(k)
        for n in range(5 if k == 0 else 12 // k + 1):
            for masks in _tables(k, n, rng):
                f = BoolFunction.from_coeffs(algebra, n, map(algebra.element, masks))
                report = brute_consistency(f)
                verdicts.add((k, report.consistent))
                assert report.consistent == (first_zero(f) is not None), (k, n, masks)
                if not report.consistent:
                    assert report.witness is None
                    continue
                point = tuple(report.witness[i] for i in range(n))
                assert minterm_sum_eval(f, point).is_zero
                if k == 1:
                    j = masks.index(0)
                    assert [z.mask for z in point] == list(point_bits(j, n))
    assert verdicts == {(0, True)} | {(k, v) for k in range(1, 5) for v in (True, False)}


def test_boole_scan_reads_past_the_first_chunk():
    """Tables of four and two scan chunks: each atom's first missing entry
    is found in a later chunk, at its index in the whole table."""
    n = 18
    for at in (1 << 16, 3 << 16 | 12345, (1 << n) - 1):
        table = np.ones(1 << n, dtype=bool)
        table[at] = False
        report = brute_consistency(BoolFunction(B0, n, table))
        assert [z.mask for z in report.witness.values()] == list(point_bits(at, n))
    n, lacks = 17, {0: (1 << 16) + 7, 1: 5 << 13}
    table = np.full(1 << n, 3, dtype=np.uint64)
    for t, at in lacks.items():
        table[at] = 3 ^ 1 << t
    f = BoolFunction(B2, n, table)
    masks = [sum(point_bits(at, n)[i] << t for t, at in lacks.items()) for i in range(n)]
    report = brute_consistency(f)
    assert [z.mask for z in report.witness.values()] == masks
    table = table.copy()  # the function holds the first one read-only
    table[lacks[1]] = 3
    assert not brute_consistency(BoolFunction(B2, n, table)).consistent


def test_boole_witness_reads_each_atom_from_its_own_entry():
    """Over B2, atom a0 is missing only at x1 = 1 and atom a1 only at x1 = 0,
    so the witness is x1 = a0: no 0/1 point is a zero."""
    f = parse("a1*x1 + a0*x1'", 1, B2)
    assert all(not f.evaluate(p).is_zero for p in ((B2.zero,), (B2.one,)))
    report = brute_consistency(f)
    assert report.consistent and report.witness == {0: B2.atom(0)}


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
