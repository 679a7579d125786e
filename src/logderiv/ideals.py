"""Ideal and module algebra on top of the standard-basis engine.

`IdealData` wraps a generator list and caches one standard basis per term
order.  Global orders compute in the polynomial ring, local orders in the
localization at the origin; membership, equality, colon ideals, colength and
dimension all take the order as an argument and mean the corresponding ring.
"""

from __future__ import annotations

from logderiv import engine
from logderiv.orders import GLOBAL, LOCAL, GermElimOrder, ModuleOrder
from logderiv.poly import CertificationError, Polynomial, RingMismatchError


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
    """Remainder of p modulo I.

    Global: the unique fully reduced normal form.  Local with finite
    colength: the canonical coset representative supported on the standard
    monomials (exact linear reduction in the Artin quotient).  Local with
    infinite colength: Mora weak normal form, where only the zero-test and
    the leading term are meaningful.
    """
    basis = I.basis_entries(order)
    v = poly_to_vec(p)
    morder = ModuleOrder(order)
    if order.is_global:
        return vec_to_poly(engine.division_nf(v, basis, morder, tail=True), I.ring)
    red = artin_reducer(I)
    if red is not None:
        return Polynomial(I.ring, red.reduce_terms(p.terms), _clean=True)
    return vec_to_poly(engine.mora_nf(v, basis, morder), I.ring)


def ideal_membership(p, I, order):
    if p.is_zero():
        return True
    if not I.gens:
        return False
    basis = I.basis_entries(order)
    if engine.contains_unit(engine.leading_exponents(basis)):
        return True
    return engine.is_member(poly_to_vec(p), basis, ModuleOrder(order))


def ideal_contains(I, J, order):
    return all(ideal_membership(g, I, order) for g in J.gens)


def ideal_equal(I, J, order):
    return ideal_contains(I, J, order) and ideal_contains(J, I, order)


def syzygies(polys_or_vectors, order=GLOBAL):
    """Generating set of the syzygy module of the given elements.

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
    raw = engine.syzygy_module(vecs, k, order)
    return [vecs_to_polys(s, ring, m) for s in raw]


def module_entries(vectors, ncomp, order):
    vecs = [polyvec_to_vec(v) for v in vectors if any(not p.is_zero() for p in v)]
    return engine.std(vecs, ModuleOrder(order), is_ideal=False)


def module_membership(vector, basis_entries, order):
    v = polyvec_to_vec(vector)
    if not v:
        return True
    return engine.is_member(v, basis_entries, ModuleOrder(order))


def module_contains(gens_a, gens_b, ncomp, order):
    """Does the (localized) module spanned by gens_a contain every gens_b?"""
    basis = module_entries(gens_a, ncomp, order)
    return all(module_membership(v, basis, order) for v in gens_b)


def module_equal(gens_a, gens_b, ncomp, order):
    return module_contains(gens_a, gens_b, ncomp, order) and module_contains(
        gens_b, gens_a, ncomp, order
    )


def ideal_intersect(I, J, order):
    """I cap J via syzygies of (1,1), (f_i,0), (0,g_j) in rank 2."""
    ring = I.ring
    one = ring.one()
    zero = ring.zero()
    cols = [[one, one]]
    cols += [[f, zero] for f in I.gens]
    cols += [[zero, g] for g in J.gens]
    gens = []
    for s in syzygies(cols, order):
        a = s[0]
        if not a.is_zero():
            gens.append(a)
    return IdealData(ring, gens)


def _colon_single(I, g, order):
    """(I : g) via syzygies of (g, f_1, ..., f_k): first coordinates."""
    ring = I.ring
    cols = [g] + list(I.gens)
    gens = []
    for s in syzygies(cols, order):
        a = s[0]
        if not a.is_zero():
            gens.append(a)
    if not gens:
        # g is a nonzerodivisor modulo 0-generated I only when I = 0
        return IdealData(ring, [])
    return IdealData(ring, gens)


def ideal_quotient(I, J, order):
    """The colon ideal (I : J) = {p : p*J subseteq I}."""
    if J.is_zero():
        raise ZeroIdealQuotientError("quotient by the zero ideal is the whole ring")
    result = None
    for g in J.gens:
        q = _colon_single(I, g, order)
        result = q if result is None else ideal_intersect(result, q, order)
    return result


def min_generators(vectors, ncomp, order=LOCAL):
    """Minimal generating set of a localized module by Nakayama/greedy removal.

    A generator is redundant iff it lies in the localized module spanned by
    the others; greedy removal terminates with a minimal set, whose size is
    dim_Q(M / mM).  Returns (count, kept_vectors).
    """
    kept = [v for v in vectors if any(not p.is_zero() for p in v)]
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1 :]
            basis = engine.std(
                [polyvec_to_vec(v) for v in others], ModuleOrder(order), is_ideal=(ncomp == 1)
            )
            if engine.is_member(polyvec_to_vec(kept[i]), basis, ModuleOrder(order)):
                del kept[i]
                changed = True
                break
    return len(kept), kept


def min_generators_ideal(I, order=LOCAL):
    count, kept = min_generators([[g] for g in I.gens], 1, order)
    return count, [v[0] for v in kept]


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
    basis = I.basis_entries(LOCAL)
    return engine.standard_monomials(engine.leading_exponents(basis), I.ring.n)


def monomials_below(n, cutoff):
    """All exponent tuples in n variables of total degree < cutoff."""
    out = []

    def rec(prefix):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        used = sum(prefix)
        for v in range(cutoff - used):
            rec(prefix + [v])

    if cutoff > 0:
        rec([])
    return out


class LocalArtinReducer:
    """Canonical coset reduction modulo a finite-colength local ideal.

    Once every monomial of degree >= k lies in the local leading ideal,
    m^k is contained in the localized ideal (any such polynomial Mora-reduces
    to zero since intermediate leading terms keep degree >= k).  The quotient
    is then the span of monomials of degree < k modulo the row space of
    truncated multiples of the standard basis, and reduction becomes exact,
    linear row elimination with the standard monomials as the residual basis.
    """

    def __init__(self, I):
        basis = I.basis_entries(LOCAL)
        lead = engine.leading_exponents(basis)
        mons = engine.standard_monomials(lead, I.ring.n)
        if mons is None:
            raise ValueError("infinite colength: no Artin reduction")
        self.ring = I.ring
        self.std_mons = mons
        self.cutoff = 1 + max((sum(e) for e in mons), default=-1)
        key = LOCAL.key
        self.rowbasis = _build_rowbasis(basis, self.cutoff, I.ring.n, key)
        pivots = set(self.rowbasis.pivots)
        residual = set(self._all_mons()) - pivots
        if residual != set(mons):
            raise CertificationError("leading-ideal / row-space mismatch")

    def _all_mons(self):
        return monomials_below(self.ring.n, self.cutoff)

    def reduce_terms(self, terms):
        # terms of degree >= cutoff lie in the localized ideal: drop them
        row = {e: c for e, c in terms.items() if sum(e) < self.cutoff}
        return self.rowbasis.reduce(row)

    def reduce(self, p):
        return Polynomial(self.ring, self.reduce_terms(p.terms), _clean=True)


def _build_rowbasis(basis_entries, cutoff, n, key):
    from logderiv.exactla import RowBasis

    rb = RowBasis(key)
    for g in basis_entries:
        gterms = {e: c for (_, e), c in g.terms.items()}
        lead_deg = sum(g.lm[1])
        # all monomial multiples whose lead stays below the cutoff
        room = cutoff - lead_deg
        if room <= 0:
            continue

        def rec(prefix):
            if len(prefix) == n:
                shift = tuple(prefix)
                row = {}
                for e, c in gterms.items():
                    m = tuple(x + y for x, y in zip(e, shift))
                    if sum(m) < cutoff:
                        row[m] = c
                if row:
                    rb.insert(row)
                return
            used = sum(prefix)
            for v in range(room - used):
                rec(prefix + [v])

        rec([])
    return rb


def artin_reducer(I):
    """Cached LocalArtinReducer for I, or None if the colength is infinite."""
    if not hasattr(I, "_artin_red"):
        if std_monomials(I) is None:
            I._artin_red = None
        else:
            I._artin_red = LocalArtinReducer(I)
    return I._artin_red


def maximal_ideal(ring):
    return IdealData(ring, ring.gens())


def radical_membership(p, I, germ=True):
    """Rabinowitsch: p in sqrt(I) iff 1 in I + <1 - t*p> in the extended ring.

    With germ=True (the default) the check runs over the localization at the
    origin -- t is ordered globally above a local block, so the answer is the
    germ statement "p vanishes on every component of V(I) through 0".  With
    germ=False it is the classical global affine check.
    """
    if p.is_zero():
        return True
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
