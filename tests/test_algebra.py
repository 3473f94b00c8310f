"""Axioms and order structure of the powerset algebras."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from onsolve import Algebra, AlgebraMismatchError, complement, join, leq, meet
from onsolve.algebra import join_all, meet_all

from helpers import B2, B3

B8 = Algebra(8)


def test_identity_and_complement_cases():
    x = B2.element(0b01)
    assert meet(B2.one, x) == x
    assert meet(x, complement(x)) == B2.zero
    assert join(x, complement(x)) == B2.one


def test_meet_is_atom_intersection():
    a = B2.element(0b11)  # {a0, a1}
    b = B2.element(0b10)  # {a1}
    assert meet(a, b) == b
    assert meet(a, b).atoms == (1,)


def test_zero_is_least():
    for x in B3.elements():
        assert leq(B3.zero, x)
        assert leq(x, B3.one)


def test_leq_matches_subset_oracle():
    rng = random.Random(1)
    for _ in range(100):
        a = B8.element(rng.getrandbits(8))
        b = B8.element(rng.getrandbits(8))
        assert leq(a, b) == (a.mask & ~b.mask == 0)


def _check_axioms(a, b, c, algebra):
    one, zero = algebra.one, algebra.zero
    assert meet(a, b) == meet(b, a)
    assert join(a, b) == join(b, a)
    assert meet(a, join(b, c)) == join(meet(a, b), meet(a, c))
    assert join(a, meet(b, c)) == meet(join(a, b), join(a, c))
    assert meet(a, one) == a
    assert join(a, zero) == a
    assert meet(a, complement(a)) == zero
    assert join(a, complement(a)) == one
    assert meet(a, join(a, b)) == a
    assert join(a, meet(a, b)) == a


def test_axioms_exhaustive_two_atoms():
    for a in B2.elements():
        for b in B2.elements():
            for c in B2.elements():
                _check_axioms(a, b, c, B2)


@given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
def test_axioms_random_eight_atoms(ma, mb, mc):
    _check_axioms(B8.element(ma), B8.element(mb), B8.element(mc), B8)


def test_interval_nonempty_iff_leq():
    # {x : a <= x <= b} is nonempty exactly when a <= b
    for a in B3.elements():
        for b in B3.elements():
            members = [x for x in B3.elements() if leq(a, x) and leq(x, b)]
            assert bool(members) == leq(a, b)


def test_mixed_algebra_raises():
    with pytest.raises(AlgebraMismatchError):
        meet(B2.one, B3.one)
    with pytest.raises(AlgebraMismatchError):
        join(B2.zero, B8.zero)


def test_atom_cap():
    wide = Algebra(64)
    assert wide.size == 1 << 64
    a = wide.atom(63)
    assert meet(a, complement(a)) == wide.zero
    assert join(a, complement(a)) == wide.one
    with pytest.raises(ValueError,
                       match="^atom count 65 exceeds the limit of 64 atoms$"):
        Algebra(65)


def test_degenerate_algebra():
    b = Algebra(0)
    assert b.one == b.zero
    assert complement(b.zero) == b.zero


def test_constants_are_cached_without_changing_equality():
    fresh = Algebra(3)
    assert fresh == B3 and hash(fresh) == hash(B3)
    read = (fresh.zero, fresh.one, fresh.atom(1), fresh.atom(2))
    assert read == (B3.zero, B3.one, B3.atom(1), B3.element(0b100))
    assert all(x is y for x, y in zip(read, (fresh.zero, fresh.one,
                                             fresh.atom(1), fresh.atom(2))))
    assert fresh == Algebra(3) and hash(fresh) == hash(Algebra(3))
    assert fresh != B2 and repr(fresh) == "Algebra(atom_count=3)"
    with pytest.raises(IndexError):
        fresh.atom(-1)


def test_element_validation_and_reprs():
    with pytest.raises(ValueError):
        B2.element(4)
    with pytest.raises(IndexError):
        B2.atom(2)
    assert str(B2.zero) == "0"
    assert str(B2.one) == "1"
    assert str(B3.element(0b101)) == "a0+a2"


def test_meet_all_join_all():
    rng = random.Random(7)
    xs = [B8.element(rng.getrandbits(8)) for _ in range(5)]
    expected_meet, expected_join = xs[0], xs[0]
    for x in xs[1:]:
        expected_meet = meet(expected_meet, x)
        expected_join = join(expected_join, x)
    assert meet_all(xs, B8) == expected_meet
    assert join_all(xs, B8) == expected_join
    assert meet_all([], B8) == B8.one
    assert join_all([], B8) == B8.zero
