"""Ideal operations: intersection, colon, minimal generators, Artin data,
radical membership over the localization."""

from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from _instances import OverBudget, reduction_budget
from logderiv import engine, ideals
from logderiv.ideals import (
    IdealData,
    ZeroIdealQuotientError,
    artin_reducer,
    poly_to_vec,
    polyvec_to_vec,
)
from logderiv.orders import GLOBAL, LOCAL, ModuleOrder
from logderiv.parse import parse_expr
from logderiv.poly import Polynomial, Ring

R = Ring(["x", "y"])
X, Y = R.gens()
R3 = Ring(["x", "y", "z"])
x3, y3, z3 = R3.gens()

HYPO = settings(max_examples=20, deadline=None)
coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(
    lambda d: Polynomial(R, dict(d))
)


def greedy_min_generators(vectors):
    """Reference minimal generators of a localized module: drop the
    lowest-index generator that the local standard basis of the others
    contains, and start again until none is redundant."""
    order = ModuleOrder(LOCAL)
    kept = [v for v in vectors if any(not p.is_zero() for p in v)]
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1 :]
            basis = engine.std([polyvec_to_vec(v) for v in others], order)
            if engine.is_member(polyvec_to_vec(kept[i]), basis, order):
                del kept[i]
                changed = True
                break
    return kept


class TestIntersect:
    def test_monomial(self):
        I = IdealData(R, [X])
        J = IdealData(R, [Y])
        K = ideals.ideal_intersect(I, J)
        assert ideals.ideal_equal(K, IdealData(R, [X * Y]), GLOBAL)

    def test_principal(self):
        I = IdealData(R, [X * (X + Y)])
        J = IdealData(R, [Y * (X + Y)])
        K = ideals.ideal_intersect(I, J)
        assert ideals.ideal_equal(K, IdealData(R, [X * Y * (X + Y)]), GLOBAL)

    @HYPO
    @given(polys, polys)
    def test_contained_in_both(self, p, q):
        I = IdealData(R, [p])
        J = IdealData(R, [q])
        K = ideals.ideal_intersect(I, J)
        for g in K.gens:
            assert ideals.ideal_membership(g, I, GLOBAL)
            assert ideals.ideal_membership(g, J, GLOBAL)


class TestColon:
    def test_principal_colon(self):
        I = IdealData(R, [X**2 * Y])
        Q = ideals.ideal_quotient(I, IdealData(R, [X]), GLOBAL)
        assert ideals.ideal_equal(Q, IdealData(R, [X * Y]), GLOBAL)

    def test_colon_by_nonmember(self):
        I = IdealData(R, [X**2, Y**2])
        Q = ideals.ideal_quotient(I, IdealData(R, [X * Y]), GLOBAL)
        assert ideals.ideal_equal(Q, IdealData(R, [X, Y]), GLOBAL)

    def test_zero_numerator_raises(self):
        I = IdealData(R, [X])
        try:
            ideals.ideal_quotient(I, IdealData(R, [R.zero()]), GLOBAL)
        except (ZeroIdealQuotientError, ValueError):
            pass

    @HYPO
    @given(polys, polys)
    def test_colon_product_recovers(self, p, q):
        # (<p*q> : <q>) contains p
        if p.is_zero() or q.is_zero():
            return
        I = IdealData(R, [p * q])
        Q = ideals.ideal_quotient(I, IdealData(R, [q]), GLOBAL)
        assert ideals.ideal_membership(p, Q, GLOBAL)

    @HYPO
    @given(polys, polys, polys)
    def test_colon_members_multiply_in(self, p, q, g):
        gens = [v for v in (p, q) if not v.is_zero()]
        if not gens or g.is_zero():
            return
        I = IdealData(R, gens)
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        for h in Q.gens:
            assert ideals.ideal_membership(h * g, I, LOCAL)

    # positive-dimensional colons on which Mora's weak normal form or the local
    # syzygy standard basis did not finish: I is <y>, and then <y^2>, locally
    @pytest.mark.parametrize(
        "p, q, g, local",
        [
            (
                "x^3*y^3 + 5/3*x^2*y + 4/3*y^3",
                "-x^2*y^3 + 4*y^2 - 3*y",
                "-2/3*x^3*y^3 - 3*x^3*y - 4*x^3",
                "y",
            ),
            (
                "-1/4*x^3*y^3 - 5/2*y^3 - 3/4*y^2",
                "x^3*y^3 + 9*x*y^3 + y^2",
                "-x^2*y^3 + 5*x^2 - 7/4*y^2",
                "y^2",
            ),
        ],
        ids=["locally-y", "locally-y^2"],
    )
    def test_colon_of_locally_principal_ideal(self, p, q, g, local):
        p, q, g, local = (parse_expr(R, s) for s in (p, q, g, local))
        I = IdealData(R, [p, q])
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        for h in Q.gens:
            assert ideals.ideal_membership(h * g, I, LOCAL)
        assert ideals.ideal_equal(I, IdealData(R, [local]), LOCAL)
        assert ideals.ideal_equal(Q, IdealData(R, [local]), LOCAL)

    # three Artinian colons whose syzygy computation under Mora's normal form
    # did not finish: in the first and third I is the unit ideal locally
    # (p has a constant term), and in the first g is a unit as well

    def test_colon_of_unit_ideal_by_unit(self):
        p = Fraction(9, 4) * X**3 * Y**2 + Fraction(1, 4)
        q = 5 * X**2 * Y**2 - Fraction(3, 2) * Y**3
        g = -Fraction(5, 2) * X**3 - 7 * X * Y - 2
        I = IdealData(R, [p, q])
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        assert ideals.colength(Q) == 0

    def test_colon_of_artinian_ideal(self):
        p = Fraction(3, 2) * X**3 * Y**3 + 9 * Y**2
        q = -Fraction(5, 2) * Y**3 + 5 * X * Y + Fraction(4, 3) * X
        g = Fraction(3, 4) * X**3 * Y**2 - 6 * X**2 * Y**2 + 2 * X
        I = IdealData(R, [p, q])
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        for h in Q.gens:
            assert ideals.ideal_membership(h * g, I, LOCAL)
        # locally p = y^2 * unit and q = x * unit - 5/2*y^3, so I = <x, y^2>;
        # g = x * unit lies in I and the colon is the whole ring
        assert ideals.colength(I) == 2
        assert ideals.colength(Q) == 0

    def test_colon_of_unit_ideal(self):
        p = Fraction(3, 2) * X * Y**3 - Fraction(3, 4)
        q = 4 * X**3 * Y - Fraction(3, 2) * X**3 - 4 * X * Y
        g = -Fraction(3, 4) * X**3 * Y**2 - Fraction(3, 2) * X * Y**3 - Fraction(7, 2) * Y
        I = IdealData(R, [p, q])
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        assert ideals.colength(Q) == 0


class TestMinGenerators:
    def test_redundant_dropped(self):
        I = IdealData(R, [X, Y, X + Y, X**2])
        # greedy removal of the lowest-index redundant generator keeps y, x + y
        assert ideals.kept_generators(I) == [Y, X + Y]

    def test_unit_multiple_dropped(self):
        I = IdealData(R, [X, X * (1 + Y), Y**2])
        assert len(ideals.kept_generators(I)) == 2

    def test_independent_kept(self):
        I = IdealData(R, [X**2, X * Y, Y**2])
        assert len(ideals.kept_generators(I)) == 3

    @HYPO
    @given(st.lists(polys, min_size=1, max_size=4))
    def test_same_set_as_greedy_removal(self, extra):
        # the row reduction in I/mI, the module syzygies at the origin and
        # greedy removal by local standard bases keep the same generators
        gens = [X**2, Y**3] + [p for p in extra if not p.is_zero()]
        I = IdealData(R, gens)
        vectors = [[g] for g in I.gens]
        try:
            with reduction_budget():
                greedy = greedy_min_generators(vectors)
        except OverBudget:
            reject()
        _, kept = ideals.min_generators(vectors)
        assert ideals.kept_generators(I) == [v[0] for v in kept] == [v[0] for v in greedy]

    @HYPO
    @given(
        st.lists(st.tuples(polys, polys), min_size=1, max_size=3),
        polys,
        polys,
        polys,
        st.integers(0, 3),
    )
    def test_module_same_set_as_greedy_removal(self, gens, a, b, s, k):
        # rank-2 modules with a redundant combination a*v_0 + b*v_1 inserted
        # at position k, and the unit multiple (1 + x*s)*v_0 at the end
        v0, v1 = gens[0], gens[-1]
        vectors = [list(v) for v in gens]
        vectors.insert(min(k, len(vectors)), [a * p + b * q for p, q in zip(v0, v1)])
        vectors.append([(1 + X * s) * p for p in v0])
        try:
            with reduction_budget():
                expected = greedy_min_generators(vectors)
        except OverBudget:
            reject()
        count, kept = ideals.min_generators(vectors)
        assert kept == expected
        assert count == len(expected)


class TestLocalMembership:
    """Colon-based membership in a positive-dimensional germ against Mora's
    normal form, on ideals <h*p*(1 + x*s), h*q> inside <h>.  Examples where
    either side goes over the reduction budget are rejected: Mora's normal
    form runs away on some germs, and the global syzygies of the colon on
    others (coefficient growth in the global engine)."""

    @HYPO
    @given(st.sampled_from(["x", "y", "x + y", "x - y^2", "x*y"]), polys, polys, polys, polys)
    def test_same_as_mora(self, h, p, q, r, s):
        h = parse_expr(R, h)
        I = IdealData(R, [h * p * (1 + X * s), h * q])
        candidates = [h * p, h * (p + r * q), r, h * r]
        order = ModuleOrder(LOCAL)
        try:
            with reduction_budget():
                basis = I.basis_entries(LOCAL)
                expected = [engine.is_member(poly_to_vec(c), basis, order) for c in candidates]
            with reduction_budget():
                found = [ideals.ideal_membership(c, I, LOCAL) for c in candidates]
        except OverBudget:
            reject()
        assert ideals.colength(I) is None
        assert found == expected
        assert expected[0]


class TestArtinReducer:
    def test_canonical_and_linear(self):
        I = IdealData(R, [X**2 - Y**3, X * Y**2])
        red = artin_reducer(I)
        p = X**4 + 3 * X**2
        q = Y * p
        # linearity
        assert red.reduce(p + q) == red.reduce(p) + red.reduce(q)
        # members reduce to zero, canonically
        assert red.reduce(p - p) == R.zero()
        for g in I.gens:
            assert red.reduce(g * (1 + X)) == R.zero()

    def test_residues_span_quotient(self):
        I = IdealData(R, [X**2, Y**2])
        red = artin_reducer(I)
        mons = set(ideals.std_monomials(I))
        r = red.reduce((1 + X) * (1 + Y))
        assert set(r.terms) <= mons
        assert red.reduce(X * Y) == X * Y


class TestMoraAgainstRowReduction:
    """The finite-colength path (truncated row reduction) against Mora's
    standard basis and the syzygy colon, on ideals <x^a, y^b, p>.  Examples
    where Mora's side goes over a budget of reduction steps or coefficient
    bits are rejected: that side runs away on some Artinian ideals."""

    @HYPO
    @given(st.integers(1, 4), st.integers(1, 4), polys, polys, polys)
    def test_same_quotient(self, a, b, p, h, g):
        I = IdealData(R, [X**a, Y**b, p])
        try:
            with reduction_budget():
                basis = I.basis_entries(LOCAL)
                in_mora = engine.is_member(poly_to_vec(h), basis, ModuleOrder(LOCAL))
                S = ideals._colon_single(I, g)
        except OverBudget:
            reject()
        mora = engine.standard_monomials(engine.leading_exponents(basis), 2)
        red = artin_reducer(I)
        # the residual monomials of the row basis are Mora's standard
        # monomials, in the same order (the CertificationError identity)
        assert red.std_mons == mora
        assert ideals.std_monomials(I) == mora
        assert ideals.colength(I) == len(mora)
        assert ideals.ideal_membership(h * p + g * X**a, I, LOCAL)
        assert ideals.ideal_membership(h, I, LOCAL) == in_mora
        # the kernel colon and the syzygy colon are the same ideal
        Q = ideals.ideal_quotient(I, IdealData(R, [g]), LOCAL)
        assert ideals.ideal_equal(Q, S, LOCAL)


class TestRadicalMembership:
    def test_power_in_ideal(self):
        I = IdealData(R, [X**2])
        assert ideals.radical_membership(X, I)
        assert not ideals.radical_membership(Y, I)

    def test_local_vs_global(self):
        # <x*(1+x)> is <x> locally but V contains x = -1 globally
        I = IdealData(R, [X * (1 + X)])
        assert ideals.radical_membership(X, I, germ=True)
        assert not ideals.radical_membership(X, I, germ=False)

    def test_member_is_in_radical(self):
        I = IdealData(R, [X**2 + Y**2, X * Y])
        assert ideals.radical_membership(X, I)
        assert ideals.radical_membership(Y, I)

    def test_unit_ideal(self):
        I = IdealData(R, [1 + X])
        assert ideals.radical_membership(R.one(), I, germ=True)


class TestColength:
    def test_milnor_cusp(self):
        # mu(x^3 - y^2) = 2
        from logderiv.poly import jacobian_gens

        g = X**3 - Y**2
        assert ideals.colength(IdealData(R, jacobian_gens(g))) == 2

    def test_quasihomogeneous(self):
        I = IdealData(R3, [x3**2, y3**3, z3**4])
        assert ideals.colength(I) == 24
