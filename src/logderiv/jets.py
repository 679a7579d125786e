"""Brute-force jet oracle: truncated-degree linear algebra over exact rationals.

Exists solely to be obviously correct; it revalidates the symbolic engines
(derlog, colength) by independent means on bounded-degree data.
"""

from __future__ import annotations

from fractions import Fraction

from logderiv import ideals
from logderiv.divisors import Verdict, derlog
from logderiv.exactla import RowBasis, nullspace
from logderiv.ideals import monomials_below
from logderiv.orders import LOCAL
from logderiv.poly import Polynomial


class JetBasis:
    """A basis of derivation jets: coefficient vectors of (a_1, ..., a_n)."""

    def __init__(self, ring, degree, derivations):
        self.ring = ring
        self.degree = degree
        self.derivations = derivations  # list of length-n Polynomial vectors

    def __len__(self):
        return len(self.derivations)

    def coefficient_rows(self):
        """Each derivation as a sparse row over (component, monomial) columns."""
        rows = []
        for d in self.derivations:
            row = {}
            for i, p in enumerate(d):
                for m, c in p.terms.items():
                    row[(i, m)] = c
            rows.append(row)
        return rows


def _deriv_colkey(col):
    i, m = col
    return (-i, LOCAL.key(m))


def jet_derlog(D, d):
    """All derivations with coefficient degree <= d tangent to the divisor.

    Solves delta(f) - c*f = 0 as one exact linear system in the coefficients
    of (a_1, ..., a_n) (degree <= d) and the cofactor c (degree <= d-1).
    The truncation of c can only under-approximate; the cross-check
    compensates by restricting both sides to degree <= d.
    """
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


def jet_colength(I, cutoff):
    """Colength by truncated row reduction; None if not stabilized.

    Rows are the monomial multiples m*g with deg m <= cutoff, columns ordered
    by the local order (lowest degree first).  The least k such that every
    degree-k monomial reduces to a residual supported entirely in degrees > k
    certifies m^k <= I + m^(k+1), hence m^k lies in the ideal locally
    (Nakayama).  The quotient is then span(monomials of degree < k) modulo
    the rows with degree-(>= k) tails dropped, counted by rank.
    """
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


def cross_check_derlog(D, d):
    """Mutual containment of the jet derivations and the symbolic derlog at degree d."""
    theta = derlog(D)
    jets = jet_derlog(D, d)

    # jet vectors must lie in the (localized) derlog module
    jets_in_module = ideals.module_contains(theta.gens, jets.derivations, LOCAL)

    # symbolic generators of coefficient degree <= d must lie in the jet span
    rb = RowBasis(_deriv_colkey)
    rb.extend(jets.coefficient_rows())
    gens_in_jets = True
    for g in theta.gens:
        if max((p.total_degree() for p in g), default=-1) > d:
            continue
        row = {}
        for i, p in enumerate(g):
            for m, c in p.terms.items():
                row[(i, m)] = c
        if not rb.contains(row):
            gens_in_jets = False
            break

    ok = jets_in_module and gens_in_jets
    return Verdict(
        ok,
        certificate={
            "jets_in_module": jets_in_module,
            "generators_in_jet_span": gens_in_jets,
            "jet_dimension": len(jets),
        },
        diagnostics=[
            f"jet basis (degree <= {d}) inside derlog: {jets_in_module}",
            f"derlog generators (degree <= {d}) inside jet span: {gens_in_jets}",
        ],
    )


def cross_check_colength(I, cutoff):
    """Symbolic colength vs the jet count, whenever the jet count stabilizes."""
    symbolic = ideals.colength(I)
    jet = jet_colength(I, cutoff)
    if jet is None:
        ok = True  # no stabilization: nothing to contradict
        note = "jet oracle did not stabilize"
    else:
        ok = symbolic == jet
        note = f"symbolic {symbolic} vs jet {jet}"
    return Verdict(
        ok,
        certificate={"symbolic": symbolic, "jet": jet},
        diagnostics=[note],
    )
