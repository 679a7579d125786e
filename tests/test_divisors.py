"""Derivation modules of divisor germs and the determinant freeness check."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from logderiv import ideals
from logderiv.divisors import (
    DerivationModule,
    DivisorGerm,
    apply_derivation,
    apply_derivs,
    derlog,
    graded_derlog,
    min_generators_derivs,
    reducedness_check,
    saito_det_membership,
    saito_free_check,
    saito_matrix,
    syzygy_derlog,
    tangency_witness,
)
from logderiv.orders import GLOBAL, LOCAL
from logderiv.parse import parse_expr
from logderiv.poly import PolyMatrix, Ring, exact_div


class TestDivisorGerm:
    def test_rejects_bad_input(self, R3):
        x, y, z = R3.gens()
        with pytest.raises(ValueError):
            DivisorGerm(R3, R3.zero())
        with pytest.raises(ValueError):
            DivisorGerm(R3, x + 1)


class TestTangency:
    def test_euler_field(self, R2):
        x, y = R2.gens()
        D = DivisorGerm(R2, x**3 + y**3)
        w = tangency_witness(D, [x, y])
        assert w == R2.const(3)

    def test_non_tangent(self, R2):
        x, y = R2.gens()
        D = DivisorGerm(R2, x**2 + y**3)
        assert tangency_witness(D, [R2.one(), R2.zero()]) is None

    def test_module_validates(self, R2):
        x, y = R2.gens()
        D = DivisorGerm(R2, x * y)
        DerivationModule(D, [[x, R2.zero()], [R2.zero(), y]])
        with pytest.raises(ValueError):
            DerivationModule(D, [[R2.one(), R2.zero()]])


class TestDerlog:
    def test_all_generators_are_tangent(self, whitney):
        D, theta = whitney
        for d in theta.gens:
            assert tangency_witness(D, d) is not None

    def test_smooth_germ(self):
        R1 = Ring(["x"])
        (x,) = R1.gens()
        D = DivisorGerm(R1, x)
        theta = __import__("logderiv").derlog(D)
        count, kept = min_generators_derivs(theta)
        assert count == 1
        v = saito_free_check(D, theta)
        assert v.ok

    def test_whitney_counts(self, whitney):
        D, theta = whitney
        count, _ = min_generators_derivs(theta)
        assert count == 4
        assert not saito_free_check(D, theta).ok

    def test_quintic_free(self, quintic):
        D, theta = quintic
        v = saito_free_check(D, theta)
        assert v.ok
        u = v.certificate["unit_cofactor"]
        assert u.is_constant() and u.constant_term() != 0
        assert v.certificate["determinant"] == u * D.f


class TestReducedness:
    def test_reduced(self, whitney):
        D, _ = whitney
        assert reducedness_check(D).ok

    def test_non_reduced(self, R2):
        x, y = R2.gens()
        D = DivisorGerm(R2, x**2)
        assert not reducedness_check(D).ok
        assert not saito_free_check(D, __import__("logderiv").derlog(D)).ok


class TestSaitoDet:
    def test_det_always_in_ideal(self, whitney):
        D, theta = whitney
        n = D.ring.n
        gens = theta.gens
        for triple in [gens[:3], gens[1:4], [gens[0], gens[2], gens[3]]]:
            assert saito_det_membership(D, triple).ok

    def test_wrong_count_rejected(self, whitney):
        D, theta = whitney
        with pytest.raises(ValueError):
            saito_det_membership(D, theta.gens[:2])


class TestApplyDerivs:
    def test_theta_gamma_generators(self, whitney):
        D, theta = whitney
        R3 = D.ring
        x, y, z = R3.gens()
        gamma = x**2 + y**2 + z**2
        Tg = apply_derivs(theta, gamma)
        assert len(Tg.gens) == len(theta.gens)
        for d, g in zip(theta.gens, Tg.gens):
            assert apply_derivation(d, gamma) == g


A4 = Ring(["a", "b", "c", "d"])
A4_F = "(a-b)*(a-c)*(a-d)*(b-c)*(b-d)*(c-d)*a*b*c*d"
# the syzygy path's Der(-log D) of the A4 braid-arrangement cone, which is
# also the basis of its `free` certificate
A4_BASIS = [
    ["0", "0", "0", "a*b*c*d - a*b*d^2 - a*c*d^2 - b*c*d^2 + a*d^3 + b*d^3 + c*d^3 - d^4"],
    ["0", "0", "a*b*c - a*c^2 - b*c^2 + c^3", "a*b*d - a*d^2 - b*d^2 + d^3"],
    ["0", "a*b - b^2", "a*c - c^2", "a*d - d^2"],
    ["a", "b", "c", "d"],
]


def _strs(gens):
    return [[str(p) for p in g] for g in gens]


def _degrees(gens):
    return sorted(max(p.total_degree() for p in g) for g in gens)


def _germ(ring, text):
    return DivisorGerm(ring, parse_expr(ring, text))


@pytest.fixture(scope="module")
def a4_cone():
    D = _germ(A4, A4_F)
    return D, derlog(D)


class TestGradedDerlog:
    """The degree-by-degree basis of homogeneous reduced divisors."""

    def test_a4_cone(self, a4_cone):
        D, theta = a4_cone
        assert _degrees(theta.gens) == [1, 2, 3, 4]
        assert _strs(theta.gens) == A4_BASIS

    def test_a4_cone_free_certificate(self, a4_cone):
        D, theta = a4_cone
        v = saito_free_check(D, theta)
        assert v.ok
        assert _strs(v.certificate["basis"]) == A4_BASIS
        assert v.certificate["unit_cofactor"] == A4.one()
        assert v.certificate["determinant"] == D.f

    def test_a3(self, R3):
        D = _germ(R3, "x*y*z*(x-y)*(x-z)*(y-z)")
        gens = graded_derlog(D)
        assert _degrees(gens) == [1, 2, 3]
        assert _strs(gens) == _strs(syzygy_derlog(D))

    def test_generic_arrangement_falls_back(self, R3):
        # not free: minimal generators in degrees 1, 2, 2, 2
        D = _germ(R3, "x*y*z*(x+y+z)")
        assert graded_derlog(D) is None
        assert _strs(derlog(D).gens) == _strs(syzygy_derlog(D))

    def test_non_reduced_is_never_certified(self, R2):
        D = _germ(R2, "x^2*y*(x+y)")
        assert graded_derlog(D) is None
        assert _strs(derlog(D).gens) == _strs(syzygy_derlog(D))

    def test_reducedness_is_computed_once(self, R3):
        D = _germ(R3, "x*y*z*(x-y)*(x-z)*(y-z)")
        assert D.reducedness() is D.reducedness()
        assert saito_free_check(D, derlog(D)).ok


FREE_ARRANGEMENTS = ["x*y*z*(x+y)", "x*y*z*(x-y)*(x-z)*(y-z)", "x*y*(x-y)*z"]

small = st.integers(-2, 2)
matrices = st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3)
linear_forms = st.lists(small, min_size=3, max_size=3).filter(any)


def _linear(R, coeffs):
    return sum((c * x for c, x in zip(coeffs, R.gens())), R.zero())


def _substitute(f, forms):
    out = f.ring.zero()
    for m, c in f.terms.items():
        t = f.ring.const(c)
        for form, e in zip(forms, m):
            t = t * form**e
        out = out + t
    return out


def _proportional(u, v):
    return all(u[i] * v[j] == u[j] * v[i] for i in range(3) for j in range(i + 1, 3))


class TestGradedAgainstSyzygies:
    """The graded basis and the syzygy generators span one module."""

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(FREE_ARRANGEMENTS), matrices)
    def test_images_of_free_arrangements(self, R3, source, M):
        assume(PolyMatrix([[R3.const(c) for c in row] for row in M]).det() != 0)
        f = _substitute(parse_expr(R3, source), [_linear(R3, row) for row in M])
        D = DivisorGerm(R3, f)
        gens = graded_derlog(D)
        assert gens is not None  # a linear image of a free arrangement is free
        assert exact_div(saito_matrix(gens, R3).det(), f).is_constant()
        assert ideals.module_equal(gens, syzygy_derlog(D), 3, GLOBAL)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(linear_forms, min_size=3, max_size=5))
    def test_products_of_linear_forms(self, R3, forms):
        for i, u in enumerate(forms):
            assume(not any(_proportional(u, v) for v in forms[:i]))
        f = R3.one()
        for u in forms:
            f = f * _linear(R3, u)
        D = DivisorGerm(R3, f)
        gens = graded_derlog(D)
        if gens is not None:
            assert len(gens) == 3
            assert ideals.module_equal(gens, syzygy_derlog(D), 3, GLOBAL)
