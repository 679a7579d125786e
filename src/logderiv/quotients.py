"""Artin quotient algebras and the duality/freeness checks built on them.

The quotient O/I (I of finite colength, locally at the origin) is handled as
a concrete finite-dimensional vector space on the standard monomials, with
canonical coset representatives from the exact linear reduction in
`ideals.LocalArtinReducer`.  An ideal of O/I is a subspace of it: the
image of multiplication by its representatives on that basis, whose kernel
is their annihilator.  Membership and equality of ideals of O/I compare
these subspaces in reduced row echelon form, never lifting to O.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from logderiv import ideals
from logderiv.divisors import (
    Verdict,
    apply_derivation,
    derlog,
    saito_free_check,
    saito_matrix,
)
from logderiv.exactla import RowBasis
from logderiv.ideals import IdealData
from logderiv.orders import LOCAL
from logderiv.poly import hessian_det, jacobian_gens


class NotArtinError(ValueError):
    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"not Artin: dim V(I) = {dim} > 0")


class QuotientAlgebra:
    """O_loc/I with a standard-monomial vector-space basis."""

    def __init__(self, I):
        self._red = ideals.artin_reducer(I)
        if self._red is None:
            raise NotArtinError(ideals.dim_at_origin(I))
        self.ideal = I
        self.ring = I.ring
        self.std_mons = self._red.std_mons
        self.dim = len(self.std_mons)

    def reduce(self, p):
        """Canonical coset representative supported on the standard monomials."""
        return self._red.reduce(p)

    def std_monomial_polys(self):
        return [self.ring.monomial(e) for e in self.std_mons]

    def __repr__(self):
        return f"QuotientAlgebra(dim={self.dim})"


@dataclass
class CosetIdeal:
    """The ideal of a QuotientAlgebra generated by reduced coset representatives."""

    algebra: QuotientAlgebra
    reps: list

    def vector_basis(self):
        """Linearly independent representatives spanning the coset span.

        This is the span of the reps as a vector subspace; for a coset ideal
        whose representatives happen to be closed under multiplication by the
        maximal ideal (e.g. the socle) this is the whole story.
        """
        rb = RowBasis(LOCAL.key)
        out = []
        for r in self.reps:
            if rb.insert(dict(r.terms)) is not None:
                out.append(r)
        return out

    @cached_property
    def _span(self):
        rb = RowBasis(LOCAL.key)
        for r in self.reps:
            rb.extend(self.algebra._red.multiples(r))
        return rb

    def contains(self, p):
        return self._span.contains(self.algebra.reduce(p).terms)

    def equals(self, other):
        """Equal subspaces of the same algebra: the RREF is unique."""
        a, b = self._span, other._span
        return a.pivot_columns == b.pivot_columns and all(a.row(c) == b.row(c) for c in a.pivot_columns)

    def is_whole_algebra(self):
        return any(r.constant_term() for r in self.reps)


def quotient(I):
    """The Artin quotient O/I; raises NotArtinError for positive dimension."""
    return QuotientAlgebra(I)


def annihilator(A, J):
    """Ann_A(image of J) = (I : J) mod I as a coset ideal: the kernel of
    multiplication by J on the standard monomials, in reduced row echelon form.

    The annihilator of the zero ideal is all of A, signalled by the coset
    ideal generated by 1.
    """
    return CosetIdeal(A, [A.ring.one()] if J.is_zero() else A._red.kernel(J.gens))


def socle(A):
    """Ann_A(maximal ideal), as a basis of reduced coset representatives."""
    return annihilator(A, ideals.maximal_ideal(A.ring))


def ci_check(I):
    """Is O/I an Artinian complete intersection?

    In a regular local ring of dimension n this means finite colength and
    exactly n minimal generators (then automatically a regular sequence).
    The minimal generators are counted as dim I/mI by row reduction.
    """
    n = I.ring.n
    cl = ideals.colength(I)
    if cl is None:
        return Verdict(
            False,
            certificate={"dim": ideals.dim_at_origin(I)},
            diagnostics=["colength infinite: not Artin"],
        )
    gens = ideals.kept_generators(I)
    count = len(gens)
    ok = count == n
    return Verdict(
        ok,
        certificate={"colength": cl, "min_generators": count, "gens": gens},
        diagnostics=[f"colength {cl}, {count} minimal generators, ambient dim {n}"],
    )


def wiebe_check(gamma, F, delta, derivs=None):
    """Wiebe duality for a transition between the Jacobian generators and F.

    F must generate a finite-colength complete intersection contained in
    <jacobian(gamma)>-transition terms, delta is the transition determinant.
    Checks <delta-bar> = Ann(J-bar) and J-bar = Ann(delta-bar) in O/<F>.
    When `derivs` (coefficient vectors with derivs[j](gamma) = F[j]) is
    given, the transition identity and determinant are verified first.
    """
    ring = gamma.ring
    J = IdealData(ring, jacobian_gens(gamma))
    if ideals.colength(J) is None:
        return Verdict(
            False,
            certificate={"precondition": "isolated_critical_point"},
            diagnostics=["gamma does not have an isolated critical point"],
        )
    IF = IdealData(ring, F)
    ci = ci_check(IF)
    if not ci.ok:
        return Verdict(
            False,
            certificate={"precondition": "complete_intersection"},
            diagnostics=["<F> is not an Artinian complete intersection"] + ci.diagnostics,
        )
    if derivs is not None:
        for j, d in enumerate(derivs):
            if apply_derivation(d, gamma) != F[j]:
                return Verdict(
                    False,
                    certificate={"precondition": "transition_identity", "index": j},
                    diagnostics=[f"delta_{j}(gamma) != F_{j}"],
                )
        if saito_matrix(derivs, ring).det() != delta:
            return Verdict(
                False,
                certificate={"precondition": "transition_determinant"},
                diagnostics=["delta is not the determinant of the given transition"],
            )
    A = QuotientAlgebra(IF)
    delta_ideal = CosetIdeal(A, [A.reduce(delta)])
    J_ideal = CosetIdeal(A, [A.reduce(g) for g in J.gens])
    first = delta_ideal.equals(annihilator(A, J))
    second = J_ideal.equals(annihilator(A, IdealData(ring, [delta])))
    return Verdict(
        first and second,
        certificate={"delta_generates_ann_J": first, "J_is_ann_delta": second},
        diagnostics=[
            f"<delta-bar> = Ann(J-bar): {first}",
            f"J-bar = Ann(delta-bar): {second}",
        ],
    )


def theorem_b_check(D, theta, gamma):
    """Freeness via the Artin quotient: free iff f * J_gamma lies in Theta(gamma).

    Preconditions are reported individually: f must be reduced, gamma must
    have no terms of degree < 2 and an isolated critical point, Theta(gamma)
    must be an Artinian complete intersection, and gamma must be generic:
    membership that Saito's criterion contradicts is no free verdict.  On a
    free verdict the certificate holds preimages in Theta of a minimal
    (regular) sequence generating Theta(gamma), and Saito agrees.
    """
    ring = gamma.ring
    reduced = D.reducedness()
    failures = [] if reduced.ok else ["divisor is not reduced: " + "; ".join(reduced.diagnostics)]
    if any(sum(m) < 2 for m in gamma.terms):
        failures.append("gamma has terms of degree < 2")
    J = IdealData(ring, jacobian_gens(gamma))
    milnor = ideals.colength(J)
    if milnor is None:
        failures.append("gamma does not have an isolated critical point")
    images = [apply_derivation(d, gamma) for d in theta.gens]
    Tg = IdealData(ring, images)  # Theta(gamma): the nonzero images
    ci = ci_check(Tg)
    if not ci.ok:
        failures.append("Theta(gamma) is not an Artinian complete intersection")
    if failures:
        return Verdict(
            False,
            certificate={"precondition_failures": failures, "ci": ci.ok},
            diagnostics=failures,
        )

    f = D.f
    memberships = [
        ideals.ideal_membership(f * g, Tg, LOCAL) for g in jacobian_gens(gamma)
    ]
    free = all(memberships)

    # lift the minimal generating subset of Theta(gamma) back to Theta, by
    # the index among all images: Tg.gens has no zero images to keep in step
    basis = [theta.gens[images.index(g)] for g in ci.certificate["gens"]]

    saito = saito_free_check(D, derlog(D) if not theta.is_full_derlog else theta)
    agreement = saito.ok == free
    if free and not agreement:
        failures = ["gamma is not generic: f * J_gamma lies in Theta(gamma), but Saito says not free"]
        cert = {"precondition_failures": failures, "memberships": memberships, "saito_agrees": False}
        return Verdict(False, certificate=cert, diagnostics=failures)

    return Verdict(
        free,
        certificate={
            "milnor_number": milnor,
            "colength": ci.certificate.get("colength"),
            "memberships": memberships,
            "basis": basis if free else None,
            "saito_agrees": agreement,
        },
        diagnostics=[
            f"f * J_gamma in Theta(gamma): {free}",
            f"Saito criterion agrees: {agreement}",
        ],
    )


def hessian_socle_check(D, gamma, A, delta):
    """For homogeneous gamma: <delta> = <f> iff f * Hess(gamma) lies in the
    part of the socle cut out by delta.

    By Wiebe's theorem applied to the transition from the coordinates to the
    chosen generators of A.ideal, the coset of delta * Hess(gamma) generates
    the socle whenever the complete-intersection setup holds; the right-hand
    side is therefore the coset-ideal membership f * Hess(gamma) in
    <delta * Hess(gamma)> + I, which coincides with plain socle membership in
    that setup but stays delta-sensitive outside it.  Both sides are
    evaluated independently and the verdict asserts their agreement.
    """
    if not gamma.is_homogeneous():
        raise ValueError("gamma must be homogeneous for the Hessian-socle check")
    ring = gamma.ring
    f = D.f
    side_i = ideals.ideal_equal(
        IdealData(ring, [delta]), IdealData(ring, [f]), LOCAL
    )
    h = hessian_det(gamma)
    side_ii = CosetIdeal(A, [A.reduce(delta * h)]).contains(f * h)
    return Verdict(
        side_i == side_ii,
        certificate={"saito_ideal_equality": side_i, "hessian_in_socle": side_ii},
        diagnostics=[
            f"<delta> = <f> locally: {side_i}",
            f"f * Hessian(gamma) in <delta * Hessian(gamma)> + I: {side_ii}",
            f"agreement: {side_i == side_ii}",
        ],
    )
