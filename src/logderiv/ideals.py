"""Ideal and module algebra on top of the standard-basis engine.

`IdealData` wraps a generator list and caches one standard basis per term
order.  Global orders compute in the polynomial ring, local orders in the
localization at the origin; membership, equality and colon ideals take the
order as an argument and mean the corresponding ring.

Every local operation on an ideal of finite colength is row reduction on
its `artin_reducer`.  On a germ of positive dimension, localization is flat:
syzygies, colons and intersections are the global ones; p lies in I*O iff
the global colon (I : p) has a generator that is a unit at the origin, and
a vector lies in a localized module by the same test on syzygies.  Minimal
generators of a module come from its global syzygies at the origin.  The
local standard basis (Mora) only reads the local leading ideal: the
dimension at the origin, the settling fallback and the germ radical
membership.
"""

from __future__ import annotations

from fractions import Fraction

from logderiv import engine
from logderiv.exactla import RowBasis, nullspace
from logderiv.orders import GLOBAL, LOCAL, GermElimOrder, ModuleOrder
from logderiv.poly import CertificationError, Polynomial, RingMismatchError, exact_div


class ZeroIdealQuotientError(ValueError):
    """Raised for (I : 0): the annihilator of zero is the whole ring."""


def poly_to_vec(p, comp=0):
    return {(comp, m): c for m, c in p.terms.items()}


def vec_to_poly(v, ring):
    return Polynomial(ring, {m: c for (_, m), c in v.items()}, _clean=True)


def vecs_to_polys(vec, ring, ncomp):
    """Split a rank-ncomp vector into its component polynomials."""
    comps = [{} for _ in range(ncomp)]
    for (c, m), q in vec.items():
        comps[c][m] = q
    return [Polynomial(ring, t, _clean=True) for t in comps]


def polyvec_to_vec(polys):
    out = {}
    for c, p in enumerate(polys):
        for m, q in p.terms.items():
            out[(c, m)] = q
    return out


class IdealData:
    """A polynomial ideal: generators plus per-order cached standard bases."""

    def __init__(self, ring, gens):
        self.ring = ring
        clean = []
        for g in gens:
            if g.ring != ring:
                raise RingMismatchError("ideal generator in wrong ring")
            if not g.is_zero():
                clean.append(g)
        self.gens = tuple(clean)
        self._bases = {}

    def __repr__(self):
        return f"IdealData({', '.join(str(g) for g in self.gens) or '0'})"

    def basis_entries(self, order):
        """Standard basis as engine entries (cached, write-once)."""
        if order.kind not in self._bases:
            vecs = [poly_to_vec(g) for g in self.gens]
            self._bases[order.kind] = engine.std(
                vecs, ModuleOrder(order), is_ideal=True
            )
        return self._bases[order.kind]

    def is_zero(self):
        return not self.gens


def normal_form(p, I, order):
    """The unique fully reduced remainder of p modulo I under a global order.

    The local counterpart, for finite colength, is `artin_reducer(I).reduce`.
    """
    if not order.is_global:
        raise ValueError("normal_form needs a global order; use artin_reducer locally")
    v = engine.division_nf(poly_to_vec(p), I.basis_entries(order), ModuleOrder(order), tail=True)
    return vec_to_poly(v, I.ring)


def ideal_membership(p, I, order):
    """p in I, or locally p in I*O: a global member, or (I : p) holds a unit."""
    if p.is_zero():
        return True
    if not I.gens:
        return False
    red = None if order.is_global else artin_reducer(I)
    if red is not None:
        return not red.reduce_terms(p.terms)
    if engine.is_member(poly_to_vec(p), I.basis_entries(GLOBAL), ModuleOrder(GLOBAL)):
        return True
    if order.is_global:
        return False
    # outside the finite-colength I + m^(ord p + 1), p is no local member:
    # this spares the colon for most non-members
    k = 1 + p.order_at_origin()
    powers = [I.ring.monomial(e) for e in monomials_below(I.ring.n, k + 1) if sum(e) == k]
    if not ideal_membership(p, IdealData(I.ring, list(I.gens) + powers), LOCAL):
        return False
    # a common monomial factor cancels from the colon, which contains the
    # generators: a unit among them spares the syzygies
    polys = (p, *I.gens)
    common = I.ring.monomial([min(e[i] for g in polys for e in g.terms) for i in range(I.ring.n)])
    p, *gens = (exact_div(g, common) for g in polys)
    if any(g.constant_term() for g in gens):
        return True
    return any(a.constant_term() for a in _colon_single(IdealData(I.ring, gens), p).gens)


def ideal_contains(I, J, order):
    return all(ideal_membership(g, I, order) for g in J.gens)


def ideal_equal(I, J, order):
    return ideal_contains(I, J, order) and ideal_contains(J, I, order)


def syzygies(polys_or_vectors):
    """Generating set of the syzygy module of the given elements, over the
    polynomial ring and over its localization at the origin.

    Accepts either a list of polynomials (syzygies of ideal generators) or a
    list of equal-length polynomial vectors.  Returns a list of length-m
    polynomial vectors (m = number of inputs) with sum a_i * g_i = 0 exactly.
    """
    if not polys_or_vectors:
        return []
    first = polys_or_vectors[0]
    if isinstance(first, Polynomial):
        ring = first.ring
        vecs = [poly_to_vec(p) for p in polys_or_vectors]
        k = 1
    else:
        ring = first[0].ring
        vecs = [polyvec_to_vec(pv) for pv in polys_or_vectors]
        k = len(first)
    m = len(vecs)
    raw = engine.syzygy_module(vecs, k)
    return [vecs_to_polys(s, ring, m) for s in raw]


def _first_entries(cols):
    """The nonzero first entries of the syzygies of cols."""
    return [s[0] for s in syzygies(cols) if not s[0].is_zero()]


def module_contains(gens_a, gens_b, order):
    """Does the (localized) module spanned by gens_a contain every gens_b?

    Locally, v lies in it iff u*v lies in the global module for some u with
    u(0) != 0: iff a syzygy of (v, gens_a) has a unit first entry.
    """
    glob = ModuleOrder(GLOBAL)
    basis = engine.std([polyvec_to_vec(v) for v in gens_a], glob)
    return all(
        engine.is_member(polyvec_to_vec(v), basis, glob)
        or (not order.is_global and any(a.constant_term() for a in _first_entries([v, *gens_a])))
        for v in gens_b
    )


def module_equal(gens_a, gens_b, ncomp, order):
    """Equality of the modules spanned by gens_a and gens_b; the rank ncomp
    is read off the vectors."""
    return module_contains(gens_a, gens_b, order) and module_contains(gens_b, gens_a, order)


def ideal_intersect(I, J):
    """I cap J via syzygies of (1,1), (f_i,0), (0,g_j) in rank 2."""
    one, zero = I.ring.one(), I.ring.zero()
    cols = [[one, one]] + [[f, zero] for f in I.gens] + [[zero, g] for g in J.gens]
    return IdealData(I.ring, _first_entries(cols))


def _colon_single(I, g):
    """(I : g) via syzygies of (g, f_1, ..., f_k): first coordinates."""
    return IdealData(I.ring, _first_entries([g] + list(I.gens)))


def ideal_quotient(I, J, order):
    """The colon ideal (I : J) = {p : p*J subseteq I}.

    Locally with I of finite colength, this is I plus the lifted kernel of
    multiplication by the generators of J on the standard-monomial basis of
    O/I; otherwise an intersection of global syzygy colons, which localize to
    the local ones.
    """
    if J.is_zero():
        raise ZeroIdealQuotientError("quotient by the zero ideal is the whole ring")
    red = None if order.is_global else artin_reducer(I)
    if red is not None:
        if any(g.constant_term() for g in J.gens):
            return I
        mons = red.std_mons
        rows = {}  # (generator, output monomial) -> row over the input monomials
        for k, g in enumerate(J.gens):
            for s in mons:
                for t, c in red.reduce_terms(_shifted(g.terms, s, red.cutoff)).items():
                    rows.setdefault((k, t), {})[s] = c
        kernel = nullspace(list(rows.values()), mons, LOCAL.key)
        return IdealData(I.ring, list(I.gens) + [Polynomial(I.ring, v, _clean=True) for v in kernel])
    result = None
    for g in J.gens:
        q = _colon_single(I, g)
        result = q if result is None else ideal_intersect(result, q)
    return result


def min_generators(vectors):
    """Minimal generating set of the localized module spanned by `vectors`.

    The global syzygies S of the m nonzero generators generate the local
    ones, so M/mM = Q^m / colspan S(0).  A generator is kept iff its unit
    vector is independent of S(0) and of the unit vectors of the later kept
    ones: the set that greedy removal of the lowest-index redundant generator
    keeps, of size dim_Q(M/mM).  Returns (count, kept_vectors).
    """
    vecs = [v for v in vectors if any(not p.is_zero() for p in v)]
    rb = RowBasis(lambda i: -i)
    for s in syzygies(vecs):
        rb.insert({i: c for i, p in enumerate(s) if (c := p.constant_term())})
    kept = [i for i in reversed(range(len(vecs))) if rb.insert({i: Fraction(1)}) is not None]
    return len(kept), [vecs[i] for i in reversed(kept)]


def dim_at_origin(I):
    """Krull dimension of V(I) at the origin; None if the germ is empty."""
    if not I.gens:
        return I.ring.n
    basis = I.basis_entries(LOCAL)
    return engine.monomial_ideal_dim(engine.leading_exponents(basis), I.ring.n)


def colength(I):
    """dim_Q of the local ring modulo I; None means infinite."""
    mons = std_monomials(I)
    return None if mons is None else len(mons)


def std_monomials(I):
    """Exponent tuples of monomials outside the local leading ideal.

    Returns None when the colength is infinite; [] for the unit ideal.
    """
    if not I.gens:
        return None if I.ring.n else []
    red = artin_reducer(I)
    return None if red is None else red.std_mons


def monomials_below(n, cutoff):
    """All exponent tuples in n variables of total degree < cutoff."""
    out = [()] if cutoff > 0 else []
    for _ in range(n):
        out = [e + (v,) for e in out for v in range(cutoff - sum(e))]
    return out


# Highest truncation degree at which settling looks for m^j inside I before
# Mora's standard basis decides: Theta(gamma) of the A4 braid-arrangement
# cone with quadratic gamma, the largest Artinian germ measured (colength 120,
# 4 variables), settles at degree j = 11, seen at truncation degree 12.
SETTLE_CAP = 12


class LocalArtinReducer:
    """Canonical coset reduction modulo a finite-colength local ideal.

    `rowbasis` is the reduced row echelon form, under the local order, of
    the multiples x^a * g of the generators truncated below some degree, and
    m^cutoff lies in I.  So O/I is the span of the monomials of degree below
    the cutoff modulo the rows cut below it: reduction is exact row
    elimination, and the non-pivot monomials are the standard monomials of
    the local leading ideal.  Cutting the rows keeps their pivots, so the
    residues do not depend on the truncation degree.
    """

    def __init__(self, ring, rowbasis, cutoff):
        rowbasis.cut(lambda e: sum(e) < cutoff)
        self.ring = ring
        self.cutoff = cutoff
        self.rowbasis = rowbasis
        self.std_mons = sorted(
            (e for e in monomials_below(ring.n, cutoff) if e not in rowbasis.pivot_columns),
            key=engine.std_monomial_key,
        )

    def reduce_terms(self, terms):
        # terms of degree >= cutoff lie in the localized ideal: drop them
        row = {e: c for e, c in terms.items() if sum(e) < self.cutoff}
        return self.rowbasis.reduce(row)

    def reduce(self, p):
        return Polynomial(self.ring, self.reduce_terms(p.terms), _clean=True)


def _shifted(terms, shift, cutoff):
    """The terms of x^shift * terms below degree cutoff."""
    moved = ((tuple(x + y for x, y in zip(e, shift)), c) for e, c in terms.items())
    return {m: c for m, c in moved if sum(m) < cutoff}


def _build_rowbasis(gens, cutoff, n, first=0):
    """Row basis of the multiples x^a * g, |a| >= first, truncated below cutoff."""
    rb = RowBasis(LOCAL.key)
    for g in gens:
        for shift in monomials_below(n, cutoff - g.order_at_origin()):
            if sum(shift) >= first:
                rb.insert(_shifted(g.terms, shift, cutoff))
    return rb


def _settle(I):
    n, gens = I.ring.n, I.gens
    if not gens:
        return None
    # without a unit, fewer than n generators never have finite colength
    if len(gens) >= n or any(g.constant_term() for g in gens):
        for cutoff in range(1 + max(g.total_degree() for g in gens), SETTLE_CAP + 1):
            rb = _build_rowbasis(gens, cutoff, n)
            # the least degree j whose monomials are all pivots: m^j lies in I
            pivots = rb.pivot_columns
            open_degrees = {sum(e) for e in monomials_below(n, cutoff) if e not in pivots}
            j = next((j for j in range(cutoff) if j not in open_degrees), None)
            if j is not None:
                return LocalArtinReducer(I.ring, rb, j)
    mons = engine.standard_monomials(engine.leading_exponents(I.basis_entries(LOCAL)), n)
    if mons is None:
        return None
    cutoff = 1 + max((sum(e) for e in mons), default=-1)
    red = LocalArtinReducer(I.ring, _build_rowbasis(gens, cutoff, n), cutoff)
    if red.std_mons != mons:
        raise CertificationError("leading-ideal / row-space mismatch")
    return red


def artin_reducer(I):
    """Cached LocalArtinReducer for I, or None if the colength is infinite."""
    if not hasattr(I, "_artin_red"):
        I._artin_red = _settle(I)
    return I._artin_red


def kept_generators(I):
    """A minimal generating set of the finite-colength local ideal I.

    A generator is kept iff its image in I/mI is independent of the images of
    the later ones: the set that greedy removal of the lowest-index redundant
    generator keeps.  m^cutoff lies in I, so I/mI lives below degree cutoff + 1.
    """
    cutoff, n = artin_reducer(I).cutoff + 1, I.ring.n
    rb = _build_rowbasis(I.gens, cutoff, n, first=1)
    kept = [g for g in reversed(I.gens) if rb.insert(_shifted(g.terms, (0,) * n, cutoff)) is not None]
    return kept[::-1]


def maximal_ideal(ring):
    return IdealData(ring, ring.gens())


def radical_membership(p, I, germ=True):
    """Rabinowitsch: p in sqrt(I) iff 1 in I + <1 - t*p> in the extended ring.

    With germ=True (the default) the check runs over the localization at the
    origin -- t is ordered globally above a local block, so the answer is the
    germ statement "p vanishes on every component of V(I) through 0".  With
    germ=False it is the classical global affine check.  A germ of finite
    colength needs no Rabinowitsch basis: its zero set is the origin, or empty
    for the unit ideal.
    """
    if p.is_zero():
        return True
    if germ:
        cl = colength(I)
        if cl is not None:
            return cl == 0 or not p.constant_term()
    ring = I.ring
    ext = ring.extend("_t")
    t = ext.var(ring.n)

    def lift(q):
        return Polynomial(ext, {m + (0,): c for m, c in q.terms.items()}, _clean=True)

    gens = [lift(g) for g in I.gens]
    gens.append(ext.one() - t * lift(p))
    if germ:
        order = ModuleOrder(GermElimOrder(ring.n))
        basis = engine.std([poly_to_vec(g) for g in gens], order, is_ideal=True)
    else:
        J = IdealData(ext, gens)
        basis = J.basis_entries(GLOBAL)
    return engine.contains_unit(engine.leading_exponents(basis))
