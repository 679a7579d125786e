"""The jet oracle against the symbolic engines, and against the reference
implementation it replaced."""

import random
from fractions import Fraction

from hypothesis import given, reject, settings, strategies as st

from _instances import OverBudget, random_zero_dim_ideal, reduction_budget
from logderiv import ideals
from logderiv.divisors import DivisorGerm, tangency_witness
from logderiv.exactla import RowBasis, nullspace
from logderiv.ideals import IdealData, monomials_below
from logderiv.jets import (
    JetBasis,
    cross_check_colength,
    cross_check_derlog,
    jet_colength,
    jet_derlog,
)
from logderiv.orders import LOCAL
from logderiv.poly import Polynomial, Ring

R = Ring(["x", "y"])
X, Y = R.gens()
RINGS = {2: R, 3: Ring(["x", "y", "z"])}

HYPO = settings(max_examples=25, deadline=None)
coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 4))


def _polys(ring, max_size=3):
    monos = st.sampled_from(monomials_below(ring.n, 4))
    return st.dictionaries(monos, coeffs, min_size=1, max_size=max_size).map(
        lambda d: Polynomial(ring, dict(d))
    )


@st.composite
def random_ideals(draw):
    """(I, cutoff): I Artinian (pure powers plus extras), unit,
    positive-dimensional (inside <x>), or pure powers times local units
    1 + x*s; the cutoff at most 8, and at most 5 in three variables, where
    the reference's rows, which keep every term, grow too long above it."""
    ring = RINGS[draw(st.sampled_from([2, 3]))]
    cutoff = draw(st.integers(0, 8 if ring.n == 2 else 5))
    xs = ring.gens()
    polys = _polys(ring)
    extra = draw(st.lists(polys, max_size=2))
    kind = draw(st.sampled_from(["artinian", "unit", "positive-dimensional", "local-unit"]))
    if kind == "artinian":
        gens = [x ** draw(st.integers(1, 4)) for x in xs] + extra
    elif kind == "unit":
        gens = [1 + draw(polys)] + extra
    elif kind == "positive-dimensional":
        gens = [xs[0] * p for p in [draw(polys)] + extra]
    else:
        gens = [(1 + xs[0] * draw(polys)) * x ** draw(st.integers(1, 3)) for x in xs] + extra
    return IdealData(ring, gens), cutoff


@st.composite
def random_germs(draw):
    """A random polynomial through 0, or a product of two or three linear
    forms, whose tangent fields need a cofactor."""
    ring = RINGS[draw(st.sampled_from([2, 3]))]
    if draw(st.booleans()):
        f = draw(_polys(ring, max_size=4))
        f = f - f.constant_term()
    else:
        forms = st.lists(st.integers(-2, 2), min_size=ring.n, max_size=ring.n)
        f = ring.one()
        for c in draw(st.lists(forms, min_size=2, max_size=3)):
            f = f * sum((a * x for a, x in zip(c, ring.gens())), ring.zero())
    return DivisorGerm(ring, f if not f.is_zero() else ring.gens()[0] ** 2)


# The jet oracle before it was cut to one row basis read off at its pivots,
# verbatim but for the names: the reference of the differential tests.


def _deriv_colkey(col):
    i, m = col
    return (-i, LOCAL.key(m))


def reference_jet_derlog(D, d):
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    ring = D.ring
    n = ring.n
    f = D.f
    grads = [f.diff(i) for i in range(n)]
    a_mons = monomials_below(n, d + 1)
    c_mons = monomials_below(n, d) if d >= 1 else []

    # unknown labels: ("a", i, mono) and ("c", mono)
    unknowns = [("a", i, m) for i in range(n) for m in a_mons]
    unknowns += [("c", m) for m in c_mons]

    # equations: one per monomial of delta(f) - c*f
    eqs = {}

    def add(eq_mono, unknown, coeff):
        row = eqs.setdefault(eq_mono, {})
        row[unknown] = row.get(unknown, Fraction(0)) + coeff
        if not row[unknown]:
            del row[unknown]

    for i in range(n):
        for am in a_mons:
            for gm, gc in grads[i].terms.items():
                add(tuple(x + y for x, y in zip(am, gm)), ("a", i, am), gc)
    for cm in c_mons:
        for fm, fc in f.terms.items():
            add(tuple(x + y for x, y in zip(cm, fm)), ("c", cm), -fc)

    def unknown_key(u):
        if u[0] == "a":
            return (1, -u[1], LOCAL.key(u[2]))
        return (0, 0, LOCAL.key(u[1]))

    sols = nullspace(list(eqs.values()), unknowns, unknown_key)

    # project to the a-part and re-reduce to an independent basis
    rb = RowBasis(_deriv_colkey)
    derivations = []
    for s in sols:
        row = {(u[1], u[2]): c for u, c in s.items() if u[0] == "a"}
        if not row:
            continue
        if rb.insert(dict(row)) is None:
            continue
        vec = [dict() for _ in range(n)]
        for (i, m), c in row.items():
            vec[i][m] = c
        derivations.append([Polynomial(ring, t, _clean=True) for t in vec])
    return JetBasis(ring, d, derivations)


def reference_jet_colength(I, cutoff):
    n = I.ring.n
    rb = RowBasis(LOCAL.key)
    multiples = []
    for g in I.gens:
        for m in monomials_below(n, cutoff + 1):
            row = {
                tuple(x + y for x, y in zip(e, m)): c for e, c in g.terms.items()
            }
            multiples.append(row)
            rb.insert(dict(row))

    k = None
    for cand in range(cutoff + 1):
        covered = True
        for mu in monomials_below(n, cand + 1):
            if sum(mu) != cand:
                continue
            residual = rb.reduce({mu: Fraction(1)})
            if any(sum(e) <= cand for e in residual):
                covered = False
                break
        if covered:
            k = cand
            break
    if k is None:
        return None
    if k == 0:
        return 0

    trunc = RowBasis(LOCAL.key)
    for row in multiples:
        trunc.insert({e: c for e, c in row.items() if sum(e) < k})
    return len(monomials_below(n, k)) - trunc.rank


class TestJetDerlog:
    def test_jets_are_tangent(self):
        D = DivisorGerm(R, X * Y)
        jets = jet_derlog(D, 2)
        assert len(jets) > 0
        for d in jets.derivations:
            assert tangency_witness(D, d) is not None

    def test_normal_crossing_dimension(self):
        # degree <= 1 tangent fields of xy: a(x d/dx) + b(y d/dy)
        D = DivisorGerm(R, X * Y)
        jets = jet_derlog(D, 1)
        assert len(jets) == 2


class TestJetColength:
    def test_monomial(self):
        assert jet_colength(IdealData(R, [X**2, Y**2]), 6) == 4

    def test_unit(self):
        assert jet_colength(IdealData(R, [1 + X]), 4) == 0

    def test_maximal(self):
        assert jet_colength(IdealData(R, [X, Y]), 4) == 1

    def test_positive_dim_never_stabilizes(self):
        assert jet_colength(IdealData(R, [X]), 6) is None

    def test_local_unit_factor(self):
        # <x(1+x), y> is <x, y> locally: colength 1
        assert jet_colength(IdealData(R, [X * (1 + X), Y]), 6) == 1


class TestCrossChecks:
    def test_derlog_cross_check(self, whitney, cusp_line):
        for D, _ in (whitney, cusp_line):
            assert cross_check_derlog(D, 2).ok

    def test_colength_cross_check_named(self):
        assert cross_check_colength(IdealData(R, [X**2 - Y**3, X * Y**2]), 8).ok

    def test_colength_cross_check_random(self):
        rng = random.Random(3)
        for _ in range(10):
            I = random_zero_dim_ideal(rng)
            v = cross_check_colength(I, 8)
            assert v.ok
            assert v.certificate["jet"] == v.certificate["symbolic"]


class TestAgainstReference:
    """The jet oracle against the reference above, and, where it answers,
    against the symbolic engine.  Examples where the symbolic side goes over
    the reduction budget are rejected."""

    @HYPO
    @given(random_ideals())
    def test_colength_same_as_reference(self, example):
        I, cutoff = example
        found = jet_colength(I, cutoff)
        assert found == reference_jet_colength(I, cutoff)
        if found is not None:
            try:
                with reduction_budget():
                    symbolic = ideals.colength(I)
            except OverBudget:
                reject()
            assert found == symbolic

    @HYPO
    @given(random_germs(), st.integers(0, 3))
    def test_derlog_same_as_reference(self, D, d):
        found = jet_derlog(D, d)
        expected = reference_jet_derlog(D, d)
        assert found.degree == expected.degree == d
        assert found.derivations == expected.derivations
        try:
            with reduction_budget():
                assert cross_check_derlog(D, d).ok
        except OverBudget:
            reject()
