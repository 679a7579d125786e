"""Term orders, standard bases (global and local), syzygies, membership."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from logderiv import engine, ideals
from logderiv.ideals import IdealData, poly_to_vec, vecs_to_polys
from logderiv.orders import GLOBAL, LOCAL, GermElimOrder, ModuleOrder
from logderiv.poly import Polynomial, Ring

R = Ring(["x", "y"])
X, Y = R.gens()
R3 = Ring(["x", "y", "z"])
x3, y3, z3 = R3.gens()

HYPO = settings(max_examples=25, deadline=None)

coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))
monos = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(monos, coeffs, min_size=1, max_size=4).map(
    lambda d: Polynomial(R, dict(d))
)


class TestOrders:
    def test_global_one_is_smallest(self):
        assert GLOBAL.key((0, 0)) < GLOBAL.key((1, 0))

    def test_local_one_is_largest(self):
        assert LOCAL.key((0, 0)) > LOCAL.key((1, 0))

    def test_degrevlex_tiebreak(self):
        # x^2*y > x*y^2 in degrevlex (same degree, smaller last exponent wins)
        assert GLOBAL.key((2, 1)) > GLOBAL.key((1, 2))
        assert LOCAL.key((2, 1)) > LOCAL.key((1, 2))

    def test_germ_elim_t_dominates(self):
        o = GermElimOrder(2)  # exponents (x, y, t)
        assert o.key((0, 0, 1)) > o.key((5, 0, 0))
        # within the t-free block, the order is local
        assert o.key((0, 0, 0)) > o.key((1, 0, 0))

    def test_module_position_over_term(self):
        o = ModuleOrder(GLOBAL)
        assert o.key((0, (0, 0))) > o.key((1, (5, 5)))

    def test_module_elimination_block(self):
        o = ModuleOrder(GLOBAL, elim_comps=1)
        assert o.key((0, (0, 0))) > o.key((1, (9, 9)))
        assert o.key((2, (1, 0))) > o.key((1, (0, 0)))


class TestGlobalStd:
    def test_groebner_textbook(self):
        # <x^2 - y, x*y - 1>: reduced degrevlex basis contains y^2 - x
        gens = [poly_to_vec(X**2 - Y), poly_to_vec(X * Y - 1)]
        G = engine.std(gens, ModuleOrder(GLOBAL), is_ideal=True)
        assert engine.is_member(poly_to_vec(Y**2 - X), G, ModuleOrder(GLOBAL))
        assert not engine.is_member(poly_to_vec(X), G, ModuleOrder(GLOBAL))

    def test_membership_iff_nf_zero(self):
        I = IdealData(R, [X**2 - Y, Y**3])
        inside = X**2 * Y**2 - Y**3 + Y * (X**2 - Y)
        outside = X + 1
        assert ideals.ideal_membership(inside, I, GLOBAL)
        assert not ideals.ideal_membership(outside, I, GLOBAL)

    @HYPO
    @given(polys, polys, polys, polys)
    def test_random_combinations_are_members(self, a, b, p, q):
        if p.is_zero() and q.is_zero():
            return
        I = IdealData(R, [g for g in (p, q) if not g.is_zero()])
        assert ideals.ideal_membership(a * p + b * q, I, GLOBAL)
        assert ideals.ideal_membership(a * p + b * q, I, LOCAL)

    def test_reduced_nf_is_canonical(self):
        I = IdealData(R, [X**2 - Y])
        p = X**4 + X**2
        n1 = ideals.normal_form(p, I, GLOBAL)
        n2 = ideals.normal_form(p - (X**2 - Y) * (X**2 + 7), I, GLOBAL)
        assert n1 == n2 == Y**2 + Y


class TestLocalStd:
    def test_unit_times_generator(self):
        # locally, x - x^2 = x(1 - x) generates <x>
        I = IdealData(R, [X - X**2])
        assert ideals.ideal_membership(X, I, LOCAL)
        assert not ideals.ideal_membership(X, I, GLOBAL)

    def test_mora_terminates_on_ecart_growth(self):
        I = IdealData(R, [X - X**2 * Y, Y**2])
        assert ideals.ideal_membership(X * Y**2, I, LOCAL)
        assert ideals.ideal_membership(X, I, LOCAL)

    def test_member_of_local_unit_ideal(self):
        # p is a unit locally, so <p, q> is the unit ideal; Mora's normal form
        # of the combination below against its standard basis does not finish
        h = Fraction(1, 2)
        p = -2 * X**3 * Y**2 - X**3 * Y**3 - 5 * h * Y**3 - h
        q = -Fraction(9, 4) * X + Fraction(2, 3) * X**3 - 2 * X * Y - Fraction(3, 4) * X**2 * Y
        a = -5 * X**3 * Y - 3 * h * Y**2
        b = -8 * X**3
        I = IdealData(R, [p, q])
        assert ideals.ideal_membership(a * p + b * q, I, LOCAL)
        assert ideals.ideal_membership(X, I, LOCAL)

    def test_tangent_cone_leading_terms(self):
        I = IdealData(R, [X**2 - Y**3])
        lead = engine.leading_exponents(I.basis_entries(LOCAL))
        assert (2, 0) in lead


class TestSyzygies:
    @HYPO
    @given(polys, polys)
    def test_syzygy_exactness(self, p, q):
        cols = [g for g in (p, q) if not g.is_zero()]
        if len(cols) < 2:
            return
        for order in (GLOBAL, LOCAL):
            for s in ideals.syzygies(cols, order):
                combo = sum(
                    (si * gi for si, gi in zip(s, cols)), R.zero()
                )
                assert combo.is_zero()

    def test_koszul_syzygy_found(self):
        # the syzygy module of (x, y) is generated by (y, -x)
        syz = ideals.syzygies([X, Y], GLOBAL)
        target = [Y, -X]
        assert ideals.module_membership(
            target,
            ideals.module_entries(syz, 2, GLOBAL),
            GLOBAL,
        )


class TestMonomialData:
    def test_dim_and_std_monomials(self):
        I = IdealData(R, [X**2, X * Y, Y**3])
        assert ideals.colength(I) == 4
        assert set(ideals.std_monomials(I)) == {(0, 0), (1, 0), (0, 1), (0, 2)}

    def test_positive_dim(self):
        I = IdealData(R3, [x3 * y3, x3 * z3])
        assert ideals.colength(I) is None
        assert ideals.dim_at_origin(I) == 2

    def test_unit_ideal(self):
        I = IdealData(R, [X + 1])
        assert ideals.colength(I) == 0
