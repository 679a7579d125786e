"""Artin quotient algebras, socles, Wiebe duality, and the freeness checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from _instances import random_wiebe_instance
from logderiv import ideals
from logderiv.exactla import RowBasis
from logderiv.divisors import DivisorGerm, apply_derivs, derlog, saito_matrix
from logderiv.ideals import IdealData
from logderiv.orders import LOCAL
from logderiv.poly import Ring
from logderiv.quotients import (
    CosetIdeal,
    NotArtinError,
    annihilator,
    ci_check,
    hessian_socle_check,
    quotient,
    socle,
    theorem_b_check,
    wiebe_check,
)

R = Ring(["x", "y"])
X, Y = R.gens()


class TestQuotientAlgebra:
    def test_monomial_ci(self):
        A = quotient(IdealData(R, [X**2, Y**2]))
        assert A.dim == 4
        assert A.reduce(X**2 + X * Y) == X * Y
        assert A.reduce((1 + X) * (1 + Y)) == 1 + X + Y + X * Y

    def test_not_artin_raises(self):
        with pytest.raises(NotArtinError):
            quotient(IdealData(R, [X]))

    def test_reduction_is_projection(self):
        A = quotient(IdealData(R, [X**2 - Y, Y**2]))
        p = X**3 + 2 * X
        r = A.reduce(p)
        assert A.reduce(r) == r
        assert A.reduce(p - r).is_zero()


class TestAnnihilatorSocle:
    def test_socle_is_annihilator_of_max_ideal(self):
        A = quotient(IdealData(R, [X**3, Y**2]))
        s = socle(A)
        ann = annihilator(A, ideals.maximal_ideal(R))
        assert s.equals(CosetIdeal(A, ann.vector_basis()))

    def test_monomial_socle(self):
        A = quotient(IdealData(R, [X**3, Y**2]))
        s = socle(A)
        assert len(s.reps) == 1
        assert s.contains(X**2 * Y)

    def test_annihilator_of_zero_is_everything(self):
        A = quotient(IdealData(R, [X**2, Y**2]))
        ann = annihilator(A, IdealData(R, [X**2]))
        assert ann.is_whole_algebra() or ann.contains(R.one())


def _random_poly(rng, ring, low=0):
    """Up to three terms of degree `low` to 2."""
    p = ring.zero()
    for _ in range(rng.randint(1, 3)):
        mono = ring.one()
        for _ in range(rng.randint(low, 2)):
            mono = mono * rng.choice(ring.gens())
        p = p + rng.choice([1, -1, 2, Fraction(1, 2)]) * mono
    return p


class TestSubspaceAgainstLift:
    """An ideal of A = O/I as a subspace of A against the ideal I + reps of O
    that it stands for, decided by the lift as the reference."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32))
    def test_membership_and_equality(self, seed):
        rng = random.Random(seed)
        gamma, F, _ = random_wiebe_instance(rng)
        R, I = gamma.ring, IdealData(gamma.ring, F)
        A = quotient(I)

        def lift(C):
            return IdealData(R, list(I.gens) + C.reps)

        reps = [A.reduce(_random_poly(rng, R, low=1)) for _ in range(rng.randint(1, 2))]
        C = CosetIdeal(A, reps)
        members = [_random_poly(rng, R) * r + F[0] for r in reps]
        for p in members + [_random_poly(rng, R) for _ in range(4)]:
            assert C.contains(p) == ideals.ideal_membership(p, lift(C), LOCAL)
        assert all(C.contains(p) for p in members)
        # the same ideal from other reps, and a random one
        same = CosetIdeal(A, [A.reduce((3 + _random_poly(rng, R) * R.gens()[0]) * r) for r in reps])
        other = CosetIdeal(A, [A.reduce(_random_poly(rng, R, low=1))])
        for D in (same, other):
            assert C.equals(D) == D.equals(C) == ideals.ideal_equal(lift(C), lift(D), LOCAL)
        assert C.equals(same)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32))
    def test_annihilator_is_the_kernel(self, seed):
        rng = random.Random(seed)
        gamma, F, _ = random_wiebe_instance(rng)
        R = gamma.ring
        A = quotient(IdealData(R, F))
        J = IdealData(R, [_random_poly(rng, R, low=1) for _ in range(rng.randint(1, 2))])
        assume(not J.is_zero())
        ann = annihilator(A, J)
        assert all(A.reduce(a * g).is_zero() for a in ann.reps for g in J.gens)
        # the rank of a -> (a * g for g in J) on the standard monomials
        image = RowBasis(lambda col: (col[0], LOCAL.key(col[1])))
        for s in A.std_monomial_polys():
            image.insert({(k, t): c for k, g in enumerate(J.gens) for t, c in A.reduce(s * g).terms.items()})
        assert len(ann.vector_basis()) == len(ann.reps) == A.dim - image.rank


class TestCI:
    def test_ci_true(self):
        assert ci_check(IdealData(R, [X**2, Y**3])).ok

    def test_ci_false_too_many_generators(self):
        v = ci_check(IdealData(R, [X**2, X * Y, Y**2]))
        assert not v.ok
        assert v.certificate["min_generators"] == 3

    def test_ci_false_positive_dim(self):
        assert not ci_check(IdealData(R, [X])).ok


class TestWiebe:
    def test_identity_transition(self):
        gamma = X**2 + Y**2
        from logderiv.poly import jacobian_gens

        G = jacobian_gens(gamma)
        assert wiebe_check(gamma, G, R.one()).ok

    def test_unimodular_transition(self):
        gamma = X**3 + Y**2
        from logderiv.poly import jacobian_gens

        g1, g2 = jacobian_gens(gamma)
        F = [g1 + X * g2, g2]
        assert wiebe_check(gamma, F, R.one()).ok

    def test_monomial_scaling(self):
        gamma = X**2 + Y**2
        F = [X * 2 * X, 2 * Y]  # diag(x, 1) transition, delta = x
        assert wiebe_check(gamma, F, X).ok

    def test_wrong_delta_fails(self):
        gamma = X**2 + Y**2
        from logderiv.poly import jacobian_gens

        G = jacobian_gens(gamma)
        v = wiebe_check(gamma, G, X)  # claims delta = x for the identity
        assert not v.ok

    def test_randomized_instances(self):
        rng = random.Random(7)
        for _ in range(10):
            gamma, F, delta = random_wiebe_instance(rng)
            assert wiebe_check(gamma, F, delta).ok


class TestGorensteinTripwire:
    def test_ci_implies_socle_dim_one(self):
        rng = random.Random(11)
        seen = 0
        for _ in range(8):
            gamma, F, delta = random_wiebe_instance(rng)
            I = IdealData(gamma.ring, F)
            if ci_check(I).ok:
                assert len(socle(quotient(I)).reps) == 1
                seen += 1
        assert seen > 0


class TestTheoremB:
    def test_free_plane_arrangement(self, cusp_line):
        D, theta = cusp_line
        x, y = D.ring.gens()
        v = theorem_b_check(D, theta, x**2 + y**2)
        assert v.ok
        assert v.certificate["saito_agrees"]
        assert all(v.certificate["memberships"])

    def test_precondition_gamma_in_m2(self, cusp_line):
        D, theta = cusp_line
        x, y = D.ring.gens()
        v = theorem_b_check(D, theta, x + x**2 + y**2)
        assert not v.ok
        assert any("degree < 2" in d for d in v.diagnostics)

    def test_precondition_isolated_critical_point(self, cusp_line):
        D, theta = cusp_line
        x, y = D.ring.gens()
        v = theorem_b_check(D, theta, x**2)
        assert not v.ok

    def test_precondition_non_ci(self, whitney):
        D, theta = whitney
        x, y, z = D.ring.gens()
        v = theorem_b_check(D, theta, x**2 + y**2 + z**2)
        assert not v.ok
        assert "precondition_failures" in v.certificate


class TestHessianSocle:
    def test_requires_homogeneous(self, cusp_line):
        D, theta = cusp_line
        x, y = D.ring.gens()
        A = quotient(apply_derivs(theta, x**2 + y**2))
        with pytest.raises(ValueError):
            hessian_socle_check(D, x**2 + y**3 + x * y, A, D.f)

    def test_free_case_agreement(self, cusp_line):
        D, theta = cusp_line
        x, y = D.ring.gens()
        gamma = x**2 + y**2
        A = quotient(apply_derivs(theta, gamma))
        v = hessian_socle_check(D, gamma, A, -D.f)
        assert v.ok
        assert v.certificate["saito_ideal_equality"]
        assert v.certificate["hessian_in_socle"]
