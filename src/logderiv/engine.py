"""Standard-basis engine for ideals and submodules of free modules.

Everything is phrased over free-module elements: a "vector" is a dict mapping
(component, exponent-tuple) to a nonzero Fraction; an ideal element lives in
component 0 of a rank-1 module.  One Buchberger-style completion loop serves
both the global case (ordinary division as normal form) and the local case
(Mora's weak normal form with ecart-based reducer selection, which terminates
for non-well-orders).  The local case is only used to read the local leading
ideal; every other local question is answered from global data, since
localization at the origin is flat.

Syzygies come from the tagged-unit-vector construction: augment each input
vector with a fresh tag component, complete under a global order that
eliminates the original components, and read syzygies off the elements whose
original part vanished.  They generate the syzygies over the localization too.
"""

from __future__ import annotations

import heapq
from fractions import Fraction

from logderiv.kernels import mono_div, mono_lcm, vec_axpy
from logderiv.orders import GLOBAL, ModuleOrder


class Entry:
    """A basis/reducer element with cached leading data."""

    __slots__ = ("terms", "lm", "lc", "ec")

    def __init__(self, terms, order):
        self.terms = terms
        self.lm = max(terms, key=order.key)
        self.lc = terms[self.lm]
        lead_deg = sum(self.lm[1])
        self.ec = max(sum(m[1]) for m in terms) - lead_deg


def term_mul_vec(v, c, shift):
    return {(comp, tuple(x + y for x, y in zip(e, shift))): q * c for (comp, e), q in v.items()}


def vec_monic(v, order):
    lm = max(v, key=order.key)
    lc = v[lm]
    if lc == 1:
        return v
    inv = Fraction(1) / lc
    return {m: q * inv for m, q in v.items()}


def spair(a, b):
    """S-vector of two entries whose leading monomials share a component."""
    lcm = mono_lcm(a.lm[1], b.lm[1])
    sa = mono_div(lcm, a.lm[1])
    sb = mono_div(lcm, b.lm[1])
    s = term_mul_vec(a.terms, Fraction(1) / a.lc, sa)
    return vec_axpy(s, Fraction(1) / b.lc, sb, b.terms)


def _find_reducer(reducers, lm):
    comp, e = lm
    best = None
    for t in reducers:
        if t.lm[0] == comp and mono_div(e, t.lm[1]) is not None:
            if best is None or t.ec < best.ec:
                best = t
    return best


def division_nf(p, basis, order, tail=False):
    """Ordinary multivariate division (global orders).

    With tail=True the result is the unique fully reduced normal form; with
    tail=False reduction stops at the first irreducible leading term, which
    suffices for membership tests.
    """
    h = dict(p)
    rem = {}
    while h:
        lm = max(h, key=order.key)
        t = _find_reducer(basis, lm)
        if t is None:
            if not tail:
                break
            rem[lm] = h.pop(lm)
            continue
        shift = mono_div(lm[1], t.lm[1])
        h = vec_axpy(h, h[lm] / t.lc, shift, t.terms)
    rem.update(h)
    return rem


def mora_nf(p, basis, order):
    """Mora's weak normal form.

    Returns u*p - sum(a_i g_i) for some unit u of the local ring; the result
    is zero iff p lies in the localized submodule (when `basis` is a standard
    basis).  Nonzero results are only meaningful through their leading term
    and zero-tests.
    """
    reducers = list(basis)
    h = dict(p)
    while h:
        lm = max(h, key=order.key)
        t = _find_reducer(reducers, lm)
        if t is None:
            break
        h_ec = max(sum(m[1]) for m in h) - sum(lm[1])
        if t.ec > h_ec:
            reducers.append(Entry(dict(h), order))
        shift = mono_div(lm[1], t.lm[1])
        h = vec_axpy(h, h[lm] / t.lc, shift, t.terms)
    return h


def normal_form(p, basis, order, tail=False):
    if not p:
        return {}
    if order.is_global:
        return division_nf(p, basis, order, tail=tail)
    return mora_nf(p, basis, order)


def _pair_key(a, b, i, j):
    lcm = mono_lcm(a.lm[1], b.lm[1])
    return (sum(lcm), lcm, i, j)


def std(vectors, order, is_ideal=False):
    """Complete a generating set to a standard basis.

    For global orders this is Buchberger's algorithm yielding (after
    interreduction) the reduced Groebner basis; for local orders it is the
    standard-basis algorithm with Mora's normal form.  The product criterion
    is applied only in the rank-1 (ideal) case where it is valid.
    """
    G = []
    seen = set()
    for v in vectors:
        if not v:
            continue
        v = vec_monic(v, order)
        key = frozenset(v.items())
        if key in seen:
            continue
        seen.add(key)
        G.append(Entry(v, order))

    pairs = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if G[i].lm[0] == G[j].lm[0]:
                heapq.heappush(pairs, _pair_key(G[i], G[j], i, j))

    while pairs:
        _, _, i, j = heapq.heappop(pairs)
        a, b = G[i], G[j]
        if is_ideal:
            # Buchberger's product criterion: coprime leads reduce to zero
            if all(x == 0 or y == 0 for x, y in zip(a.lm[1], b.lm[1])):
                continue
        s = spair(a, b)
        h = normal_form(s, G, order)
        if not h:
            continue
        h = vec_monic(h, order)
        G.append(Entry(h, order))
        k = len(G) - 1
        for i2 in range(k):
            if G[i2].lm[0] == G[k].lm[0]:
                heapq.heappush(pairs, _pair_key(G[i2], G[k], i2, k))

    return _interreduce(G, order)


def _interreduce(G, order):
    # drop elements whose lead is divisible by another's lead
    G = sorted(G, key=lambda g: (sum(g.lm[1]), g.lm))
    kept = []
    for g in G:
        redundant = False
        for h in kept:
            if h.lm[0] == g.lm[0] and mono_div(g.lm[1], h.lm[1]) is not None:
                redundant = True
                break
        if not redundant:
            kept.append(g)
    if order.is_global:
        # tail-reduce for a canonical reduced basis
        out = []
        for idx, g in enumerate(kept):
            others = [h for k, h in enumerate(kept) if k != idx]
            r = division_nf(g.terms, others, order, tail=True)
            if r:
                out.append(Entry(vec_monic(r, order), order))
        kept = out
    # deterministic output order: by leading monomial, largest first
    kept.sort(key=lambda g: order.key(g.lm), reverse=True)
    return kept


def is_member(v, basis, order):
    return not normal_form(v, basis, order)


def syzygy_module(vectors, ncomp):
    """Generators of {(a_1..a_m) : sum a_i v_i = 0} over the polynomial ring,
    hence also over its localization at the origin.

    Returns a list of rank-m vectors.
    """
    vecs = [v for v in vectors]
    m = len(vecs)
    if m == 0:
        return []
    order = ModuleOrder(GLOBAL, elim_comps=ncomp)
    zero_exp = None
    for v in vecs:
        for (_, e) in v:
            zero_exp = tuple(0 for _ in e)
            break
        if zero_exp is not None:
            break
    if zero_exp is None:
        raise ValueError("cannot infer ring dimension from all-zero input")
    aug = []
    for i, v in enumerate(vecs):
        w = dict(v)
        w[(ncomp + i, zero_exp)] = Fraction(1)
        aug.append(w)
    G = std(aug, order, is_ideal=False)
    syz = []
    for g in G:
        if all(comp >= ncomp for (comp, _) in g.terms):
            syz.append({(comp - ncomp, e): q for (comp, e), q in g.terms.items()})
    return syz


# -- leading-ideal combinatorics (rank-1, local) ---------------------------


def leading_exponents(basis):
    """Exponent tuples of the leading monomials of a rank-1 basis."""
    return [g.lm[1] for g in basis]


def contains_unit(lead_exps):
    return any(all(x == 0 for x in e) for e in lead_exps)


def monomial_ideal_dim(lead_exps, n):
    """Krull dimension of the monomial ideal's zero set; None if unit ideal.

    dim = max size of a variable subset S such that no leading exponent is
    supported entirely inside S.  Brute force over subsets (n is small).
    """
    if contains_unit(lead_exps):
        return None
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in lead_exps]
    best = 0
    for mask in range(1 << n):
        S = frozenset(i for i in range(n) if mask >> i & 1)
        if len(S) <= best:
            continue
        if all(not s <= S for s in supports):
            best = len(S)
    return best


def std_monomial_key(e):
    """Listing order of standard monomials: by degree, then reverse exponents."""
    return (sum(e), tuple(reversed(e)))


def standard_monomials(lead_exps, n):
    """Monomials outside the monomial ideal, or None if infinitely many."""
    if contains_unit(lead_exps):
        return []
    bounds = []
    for i in range(n):
        pure = [e[i] for e in lead_exps if all(x == 0 for j, x in enumerate(e) if j != i)]
        if not pure:
            return None
        bounds.append(min(pure))

    out = []

    def rec(prefix):
        if len(prefix) == n:
            e = tuple(prefix)
            if all(mono_div(e, le) is None for le in lead_exps):
                out.append(e)
            return
        for v in range(bounds[len(prefix)]):
            rec(prefix + [v])

    rec([])
    out.sort(key=std_monomial_key)
    return out
