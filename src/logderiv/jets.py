"""Brute-force jet oracle: truncated-degree linear algebra over exact rationals.

Exists solely to be obviously correct; it revalidates the symbolic engines
(derlog, colength) by independent means on bounded-degree data.  Every
linear system is a set of sparse rows over (component, monomial) or monomial
columns, reduced by `exactla`; the column key of derivations is the one of
`divisors`, so a row means the same thing on both sides of a cross-check.
"""

from __future__ import annotations

from logderiv import ideals
from logderiv.divisors import Verdict, _deriv_key, _row_to_derivation, _shift, derlog
from logderiv.exactla import RowBasis, nullspace
from logderiv.ideals import monomials_below
from logderiv.orders import LOCAL
from logderiv.poly import jacobian_gens


class JetBasis:
    """A basis of derivation jets: coefficient vectors of (a_1, ..., a_n)."""

    def __init__(self, ring, degree, derivations):
        self.ring = ring
        self.degree = degree
        self.derivations = derivations  # list of length-n Polynomial vectors

    def __len__(self):
        return len(self.derivations)


def _rows(derivations):
    """Each derivation as a sparse row over (component, monomial) columns."""
    return [{(i, m): c for i, p in enumerate(d) for m, c in p.terms.items()} for d in derivations]


def jet_derlog(D, d):
    """All derivations with coefficient degree <= d tangent to the divisor.

    Solves delta(f) - c*f = 0 as one exact linear system in the coefficients
    of (a_1, ..., a_n) (degree <= d, columns (i, m)) and the cofactor c
    (degree <= d-1, columns (n, m)), then projects the nullspace to the
    a-part.  The truncation of c can only under-approximate; the cross-check
    compensates by restricting both sides to degree <= d.
    """
    if d < 0:
        raise ValueError("degree bound must be >= 0")
    f = D.f
    n = D.ring.n
    a_mons = monomials_below(n, d + 1)
    c_mons = monomials_below(n, d)
    eqs = {}  # monomial of delta(f) - c*f -> row over the unknowns
    for i, g in enumerate(jacobian_gens(f)):
        for m in a_mons:
            for gm, gc in g.terms.items():
                eqs.setdefault(_shift(m, gm), {})[(i, m)] = gc
    for m in c_mons:
        for fm, fc in f.terms.items():
            eqs.setdefault(_shift(m, fm), {})[(n, m)] = -fc
    columns = [(i, m) for i in range(n) for m in a_mons] + [(n, m) for m in c_mons]
    rb = RowBasis(_deriv_key)
    derivations = []
    for sol in nullspace(list(eqs.values()), columns, _deriv_key):
        row = {col: c for col, c in sol.items() if col[0] < n}
        if rb.insert(row) is not None:
            derivations.append(_row_to_derivation(D.ring, row))
    return JetBasis(D.ring, d, derivations)


def jet_colength(I, cutoff):
    """Colength by truncated row reduction; None if not stabilized.

    Rows are the multiples m*g with deg m <= cutoff, cut above degree cutoff,
    with columns in the local order, so the pivot of a reduced row is its
    lowest-degree term.  The least k <= cutoff whose monomials are all pivots
    is the least k such that every degree-k monomial reduces into degrees
    > k: m^k <= I + m^(k+1), hence m^k lies in the ideal locally (Nakayama).
    The rows cut below degree k span the image of I there, whose pivots are
    exactly the pivots of degree < k; the colength counts the others.
    """
    mons = monomials_below(I.ring.n, cutoff + 1)
    rb = RowBasis(LOCAL.key)
    for g in I.gens:
        for m in mons:
            rb.insert({_shift(e, m): c for e, c in g.terms.items() if sum(e) + sum(m) <= cutoff})
    for k in range(cutoff + 1):
        if all(mu in rb.pivots for mu in mons if sum(mu) == k):
            return sum(mu not in rb.pivots for mu in mons if sum(mu) < k)
    return None


def cross_check_derlog(D, d):
    """Mutual containment of the jet derivations and the symbolic derlog at degree d."""
    theta = derlog(D)
    jets = jet_derlog(D, d)

    # jet vectors must lie in the (localized) derlog module
    jets_in_module = ideals.module_contains(theta.gens, jets.derivations, LOCAL)

    # symbolic generators of coefficient degree <= d must lie in the jet span
    rb = RowBasis(_deriv_key)
    rb.extend(_rows(jets.derivations))
    low = [g for g in theta.gens if max((p.total_degree() for p in g), default=-1) <= d]
    gens_in_jets = all(rb.contains(row) for row in _rows(low))

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
