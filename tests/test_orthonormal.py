"""ON sets: verification, canonical partitions, intervals, expansions."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onsolve import (
    BoolFunction,
    NonIndicatorError,
    NotNormalError,
    NotOrthogonalError,
    OrthonormalSet,
    ZeroMemberError,
    coefficient_interval,
    expand,
    expand_in_terms,
    format_on_set,
    from_blocks,
    is_in_class,
    ladder_set,
    ladder_terms,
    leq,
    minterm_set,
    parse,
    parse_on_set,
    term_to_function,
    verify_on,
)
from onsolve.algebra import join_all
from onsolve.orthonormal import term_set

from helpers import (
    B0,
    B2,
    B3,
    all_points,
    brute_class_membership,
    rand_element,
    rand_function,
    rand_partition,
)

WORKED_BLOCKS = [{0, 5, 7}, {1, 3, 6}, {2, 4}]


def worked_onset():
    return from_blocks(B3, 3, WORKED_BLOCKS)


def test_verify_on_base_case():
    x = BoolFunction.variable(B0, 1, 0)
    onset = verify_on([x, ~x])
    assert onset.blocks == (frozenset({1}), frozenset({0}))


def test_verify_on_three_variable_system():
    phis = [
        parse("x'y'z' + xy'z + xyz", 3, B3),
        parse("x'y'z + x'yz + xyz'", 3, B3),
        parse("x'yz' + xy'z'", 3, B3),
    ]
    onset = verify_on(phis)
    assert sorted(len(b) for b in onset.blocks) == [2, 3, 3]
    assert [set(b) for b in onset.blocks] == WORKED_BLOCKS
    assert set().union(*onset.blocks) == set(range(8))


def test_verify_on_rejects_repeats():
    x = BoolFunction.variable(B0, 1, 0)
    with pytest.raises(NotOrthogonalError) as err:
        verify_on([x, x])
    assert err.value.indices == (0, 1)


def test_verify_on_rejects_non_indicator():
    f = BoolFunction.constant(B2, 1, B2.atom(0))
    with pytest.raises(NonIndicatorError):
        verify_on([f, ~f])


def test_verify_on_rejects_zero_member_and_gaps():
    x = BoolFunction.variable(B0, 1, 0)
    with pytest.raises(ZeroMemberError):
        verify_on([x, ~x, parse("0", 1, B0)])
    with pytest.raises(NotNormalError):
        verify_on([x])


def test_partition_validation():
    with pytest.raises(ValueError):
        from_blocks(B0, 2, [{0, 1}, {1, 2, 3}])
    with pytest.raises(NotNormalError):
        from_blocks(B0, 2, [{0, 1}, {3}])
    with pytest.raises(ZeroMemberError):
        from_blocks(B0, 2, [{0, 1, 2, 3}, set()])
    # checks run block by block: a repeat in block 1 is reported before a
    # bad index in block 2, and coverage last
    with pytest.raises(ValueError, match="0 appears in two blocks"):
        from_blocks(B0, 1, [{0}, {0}, {5}])
    with pytest.raises(ValueError, match="5 out of range"):
        from_blocks(B0, 1, [{0}, {5}, {0}])
    with pytest.raises(ZeroMemberError):
        from_blocks(B0, 1, [{0}, set(), {0}])
    with pytest.raises(NotNormalError):
        from_blocks(B0, 40, [{0, 1}, {2, 3}])
    swapped = from_blocks(B0, 1, [[1, 1], (0,)])
    assert swapped == OrthonormalSet(B0, 1, np.array([1, 0]), np.array([1, 0]))
    assert swapped != minterm_set(1, B0)
    with pytest.raises(TypeError):
        hash(swapped)


@settings(max_examples=40)
@given(st.data())
def test_partition_views_agree(data):
    rng = random.Random(data.draw(st.integers(0, 2 ** 31)))
    n = data.draw(st.integers(0, 4))
    total = 1 << n
    given_blocks = rand_partition(total, rng.randint(1, total), rng)
    onset = from_blocks(B2, n, given_blocks)
    assert [set(b) for b in onset.blocks] == given_blocks
    assert onset.order == len(given_blocks)
    for j in range(total):
        assert onset.labels[j] == onset.block_of(j)
        assert j in given_blocks[onset.block_of(j)]
    for i, block in enumerate(onset.blocks):
        assert onset.reps[i] == min(block)
        coeffs = [B2.one if j in block else B2.zero for j in range(total)]
        assert onset.member(i) == BoolFunction.from_coeffs(B2, n, coeffs)
    for j in (-1, total):
        with pytest.raises(IndexError):
            onset.block_of(j)
    with pytest.raises(ValueError):
        onset.labels[0] = 0


def test_minterm_set_small():
    onset = minterm_set(1, B0)
    assert onset.blocks == (frozenset({0}), frozenset({1}))
    members = onset.members()
    assert members[0] == parse("x1'", 1, B0)
    assert members[1] == parse("x1", 1, B0)
    assert minterm_set(2, B0).order == 4


def test_order_counts_the_blocks_of_every_constructor():
    # order is the number of reps, so every constructor must give one
    # representative per block.
    onsets = [minterm_set(3, B0), minterm_set(0, B2),
              term_set(3, ladder_terms(3), B0),
              from_blocks(B0, 2, [{3}, {0, 2}, {1}]),
              from_blocks(B3, 0, [{0}]), worked_onset(), ladder_set(3, B0)]
    for onset in onsets:
        assert onset.order == len(onset.reps) == len(onset.blocks)
    assert [onset.order for onset in onsets] == [8, 1, 4, 3, 1, 3, 4]


def test_constructors_give_each_blocks_smallest_minterm():
    # The reference is the scatter-min that once computed reps from labels.
    rng = random.Random(24)
    onsets = [minterm_set(n, B0) for n in range(13)]
    onsets += [ladder_set(m, B2) for m in range(13)]
    onsets += [verify_on([term_to_function(t, m, B0) for t in ladder_terms(m)])
               for m in range(1, 9)]
    for _ in range(200):
        total = 1 << rng.randint(0, 6)
        blocks = rand_partition(total, rng.randint(1, total), rng)
        onsets.append(from_blocks(B2, total.bit_length() - 1, blocks))
    for onset in onsets:
        labels = onset.labels
        assert onset.order == labels.max() + 1 == len(onset.reps)
        ref = np.full(onset.order, len(labels))
        np.minimum.at(ref, labels, np.arange(len(labels)))
        assert np.array_equal(onset.reps, ref), onset
        with pytest.raises(ValueError):
            onset.reps[0] = 0
    # Blocks listed out of index order keep their order.
    assert from_blocks(B0, 2, [{3}, {0, 1, 2}]).reps.tolist() == [3, 0]


def test_ladder_set_labels_the_ladder_terms():
    # Block i is the run of minterms with i leading 1 bits; m = 0 is the
    # one block of minterm_set(0).
    for m in range(1, 13):
        want = term_set(m, ladder_terms(m), B0).labels
        assert np.array_equal(ladder_set(m, B0).labels, want), m
    assert np.array_equal(ladder_set(0, B2).labels, minterm_set(0, B2).labels)
    assert ladder_set(3, B2) == term_set(3, ladder_terms(3), B2)


def test_minterm_set_sums_to_one_at_random_points():
    rng = random.Random(23)
    onset = minterm_set(3, B2)
    for _ in range(10):
        point = tuple(rand_element(B2, rng) for _ in range(3))
        total = join_all((phi.evaluate(point) for phi in onset.members()), B2)
        assert total.is_one


def test_ladder_terms_m1():
    terms = ladder_terms(1)
    assert [t.exponents for t in terms] == [(0,), (1,)]


def test_ladder_terms_m2_is_on_of_order_3():
    terms = ladder_terms(2)
    assert [str(t) for t in terms] == ["x1'", "x1*x2'", "x1*x2"]
    onset = verify_on([term_to_function(t, 2, B0) for t in terms])
    assert onset.order == 3


def test_ladder_terms_m4_pairwise_products_zero():
    terms = [term_to_function(t, 4, B0) for t in ladder_terms(4)]
    assert len(terms) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            assert (terms[i] * terms[j]).is_zero
    onset = verify_on(terms)
    assert onset.order == 5


def test_interval_f_equals_member():
    phi = BoolFunction.variable(B0, 1, 0)
    interval = coefficient_interval(phi, phi)
    assert interval.low == B0.one and interval.high == B0.one


def test_interval_zero_function():
    phi = BoolFunction.variable(B0, 1, 0)
    interval = coefficient_interval(parse("0", 1, B0), phi)
    assert interval.low == B0.zero and interval.high == B0.zero
    assert interval.nonempty


def test_interval_worked_example_block_coefficient():
    # The three-variable instance read as a function of (y, z) over the
    # four-element algebra of x-functions: atom a0 = "holds at x=0",
    # a1 = "holds at x=1".  The restriction to each (y,z) cell packs into
    # one element; the yz cell carries exactly "x", i.e. atom a1.
    f3 = parse("x + x*y'*z + x*y + x'*z' + x*y' + x*y*z", 3, B0)
    packed = []
    for yz in range(4):
        mask = 0
        for xv in (0, 1):
            value = f3.coeff(xv << 2 | yz)
            mask |= value.mask << xv
        packed.append(B2.element(mask))
    g = BoolFunction.from_coeffs(B2, 2, packed)
    yz = parse("x1*x2", 2, B2)
    interval = coefficient_interval(g, yz)
    assert interval.low == B2.element(0b10)
    assert interval.high == B2.element(0b10)


def test_is_in_class_minterms_always():
    rng = random.Random(29)
    f = rand_function(B2, 2, rng)
    membership = is_in_class(f, minterm_set(2, B2))
    assert membership
    assert membership.constants == tuple(f.coeffs)


def test_is_in_class_counterexample():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    onset = from_blocks(B0, 2, [{2, 3}, {0, 1}])  # {x1, x1'}
    membership = is_in_class(f, onset)
    assert not membership
    assert not coefficient_interval(f, onset.member(0)).nonempty
    # the exhaustive search agrees that no constant pair works
    assert not brute_class_membership(f, onset)


def test_is_in_class_constructed_system():
    onset = worked_onset()
    beta = (B3.atom(0), B3.atom(1), B3.atom(2))
    coeffs = [B3.zero] * 8
    for block, b in zip(onset.blocks, beta):
        for j in block:
            coeffs[j] = b
    f = BoolFunction.from_coeffs(B3, 3, coeffs)
    membership = is_in_class(f, onset)
    assert membership and membership.constants == beta


def test_expand_two_member_constants():
    rng = random.Random(31)
    f = rand_function(B2, 1, rng)
    onset = from_blocks(B2, 1, [{1}, {0}])  # {x, x'}
    constants = expand(f, onset)
    assert constants == [f.coeff(1), f.coeff(0)]


def test_expand_one_policy_high():
    f = BoolFunction.constant(B0, 2, B0.one)
    onset = from_blocks(B0, 2, [{0, 3}, {1, 2}])
    highs = expand(f, onset, policy="high")
    assert highs == [B0.one, B0.one]
    with pytest.raises(ValueError):
        expand(f, onset, policy="middle")


def test_expand_function_coefficients_reconstruct():
    rng = random.Random(37)
    for _ in range(25):
        f = rand_function(B2, 2, rng)
        m = rng.randint(1, 4)
        onset = from_blocks(B2, 2, rand_partition(4, m, rng))
        coeffs = expand(f, onset)
        for _ in range(50):
            point = tuple(rand_element(B2, rng) for _ in range(2))
            total = B2.zero
            for c, phi in zip(coeffs, onset.members()):
                value = c if not isinstance(c, BoolFunction) else c.evaluate(point)
                total = total + value * phi.evaluate(point)
            assert total == f.evaluate(point)


@settings(max_examples=40)
@given(st.data())
def test_expansion_soundness_any_interval_choice(data):
    # any per-member choice inside [low, high] reconstructs f everywhere
    rng = random.Random(data.draw(st.integers(0, 2 ** 31)))
    m = rng.randint(1, 4)
    onset = from_blocks(B2, 2, rand_partition(4, m, rng))
    constants = [rand_element(B2, rng) for _ in range(m)]
    coeffs = [constants[onset.block_of(j)] for j in range(4)]
    f = BoolFunction.from_coeffs(B2, 2, coeffs)
    membership = is_in_class(f, onset)
    assert membership
    chosen = []
    for interval in membership.intervals:
        slack = interval.high.mask & ~interval.low.mask
        pick = interval.low.mask | (rng.getrandbits(2) & slack)
        chosen.append(B2.element(pick))
        assert leq(interval.low, chosen[-1]) and leq(chosen[-1], interval.high)
    for point in all_points(B2, 2):
        total = B2.zero
        for c, phi in zip(chosen, onset.members()):
            total = total + c * phi.evaluate(point)
        assert total == f.evaluate(point)


def test_eq10_matches_exhaustive_search_small():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randint(1, 2)
        f = rand_function(B2, n, rng)
        m = rng.randint(1, min(3, 1 << n))
        onset = from_blocks(B2, n, rand_partition(1 << n, m, rng))
        assert bool(is_in_class(f, onset)) == brute_class_membership(f, onset)


def test_expand_in_terms_single_variable_split():
    f = parse("x1*x2 + x1'*x2'", 2, B0)
    terms = [t for t in ladder_terms(1)]
    coeffs = expand_in_terms(f, [*terms])
    assert coeffs == [f.cofactor(0, 0), f.cofactor(0, 1)]


def test_expand_in_terms_matches_cofactor_oracle():
    f = parse("x + x*y'*z + x*y + x'*z' + x*y' + x*y*z", 3, B0)
    from onsolve import Term

    terms = [Term((-1, 0, -1)), Term((-1, 1, 0)), Term((-1, 1, 1))]
    coeffs = expand_in_terms(f, terms)
    assert coeffs[0] == f.cofactor(1, 0)
    assert coeffs[1] == f.cofactor(1, 1).cofactor(2, 0)
    assert coeffs[2] == f.cofactor(1, 1).cofactor(2, 1)
    # reconstruction identity
    total = parse("0", 3, B0)
    for c, t in zip(coeffs, terms):
        total = total + c * term_to_function(t, 3, B0)
    assert total == f


def test_expand_in_terms_constant():
    c = BoolFunction.constant(B2, 2, B2.atom(1))
    from onsolve import Term

    coeffs = expand_in_terms(c, ladder_terms(2))
    assert all(g == c for g in coeffs)


def test_expand_in_terms_requires_on():
    f = parse("x1", 1, B0)
    from onsolve import Term

    with pytest.raises(NotOrthogonalError):
        expand_in_terms(f, [Term((1,)), Term((1,))])


def test_on_set_text_roundtrip():
    onset = worked_onset()
    text = format_on_set(onset)
    assert text.splitlines()[0] == "3 3"
    again = parse_on_set(text, B3)
    assert again == onset
    oneline = parse_on_set("3 3; M1={0,5,7}; M2={1,3,6}; M3={2,4}", B3)
    assert oneline == onset


def test_on_set_text_errors():
    with pytest.raises(ValueError):
        parse_on_set("2 1; M1={0}", B0)
    with pytest.raises(ValueError):
        parse_on_set("1 1; M7={0,1}", B0)
    with pytest.raises(ValueError):
        parse_on_set("garbage", B0)
