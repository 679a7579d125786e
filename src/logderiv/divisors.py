"""Logarithmic derivations of a hypersurface germ and Saito's criterion.

A derivation is carried as its coefficient vector (a_1, ..., a_n) with
respect to the partials d/dx_i; it is tangent to the divisor f = 0 when
applying it to f lands in <f>.  The full module of such derivations is the
projection of the syzygies of (df/dx_1, ..., df/dx_n, -f) to the first n
coordinates.  For a homogeneous f the module is graded, and when f is also
reduced a basis is first sought degree by degree by exact linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from logderiv import ideals
from logderiv.exactla import RowBasis, nullspace
from logderiv.ideals import IdealData, monomials_below
from logderiv.orders import GLOBAL, LOCAL
from logderiv.poly import CertificationError, Polynomial, PolyMatrix, exact_div, jacobian_gens


class NotABasisError(ValueError):
    """An explicit theta whose minimal generators are not a Saito basis.

    Such a theta is not all of Der(-log D), so it decides nothing about D.
    """

    def __init__(self, message, certificate):
        super().__init__(message)
        self.certificate = certificate


@dataclass
class Verdict:
    ok: bool
    certificate: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)

    def __bool__(self):
        return self.ok


class DivisorGerm:
    """A reduced-hypersurface candidate: f with f(0) = 0, f nonzero, non-unit."""

    def __init__(self, ring, f):
        if f.ring != ring:
            raise ValueError("defining polynomial in wrong ring")
        if f.is_zero():
            raise ValueError("defining polynomial must be nonzero")
        if f.constant_term():
            raise ValueError("divisor germ must pass through the origin (f(0) = 0)")
        self.ring = ring
        self.f = f
        self._principal = None
        self._reducedness = None
        self._derlog = None

    def principal_ideal(self):
        if self._principal is None:
            self._principal = IdealData(self.ring, [self.f])
        return self._principal

    def reducedness(self):
        """The verdict of `reducedness_check`, computed once per germ."""
        if self._reducedness is None:
            self._reducedness = reducedness_check(self)
        return self._reducedness

    def __repr__(self):
        return f"DivisorGerm({self.f})"


class DerivationModule:
    """A finite generating set of vector fields tangent to the divisor."""

    def __init__(self, divisor, gens, is_full_derlog=False, check_tangency=True):
        self.divisor = divisor
        self.gens = [list(g) for g in gens]
        self.is_full_derlog = is_full_derlog
        if check_tangency:
            for d in self.gens:
                v = tangency_witness(divisor, d)
                if v is None:
                    raise ValueError(
                        f"derivation ({', '.join(str(p) for p in d)}) is not tangent to f"
                    )

    def __len__(self):
        return len(self.gens)


def apply_derivation(deriv, gamma):
    """delta(gamma) = sum_i a_i * dgamma/dx_i."""
    out = gamma.ring.zero()
    for i, a in enumerate(deriv):
        out = out + a * gamma.diff(i)
    return out


def tangency_witness(D, deriv):
    """The exact cofactor c with delta(f) = c * f, or None if not tangent."""
    df = apply_derivation(deriv, D.f)
    if df.is_zero():
        return D.ring.zero()
    return exact_div(df, D.f)


@dataclass
class SaitoData:
    derivations: list
    matrix: PolyMatrix
    determinant: Polynomial
    cofactor: Polynomial | None  # u with det = u * f, when division is exact


def saito_matrix(derivs, ring):
    """The n x n matrix whose (i, j) entry is delta_j(x_i)."""
    n = ring.n
    return PolyMatrix([[derivs[j][i] for j in range(n)] for i in range(n)])


def reducedness_check(D):
    """f is reduced iff the singular locus of V(f) has codimension >= 2 in it.

    Char-0 criterion: dim V(f, df/dx_1, ..., df/dx_n) <= n - 2, computed from
    a global Groebner basis.
    """
    ring = D.ring
    sing = IdealData(ring, [D.f] + jacobian_gens(D.f))
    basis = sing.basis_entries(GLOBAL)
    from logderiv import engine

    lead = engine.leading_exponents(basis)
    if engine.contains_unit(lead):
        dim = -1  # empty singular locus
    else:
        dim = engine.monomial_ideal_dim(lead, ring.n)
    ok = dim <= ring.n - 2
    return Verdict(
        ok,
        certificate={"singular_locus_dim": dim},
        diagnostics=[
            f"dim V(f, jacobian) = {dim}; reduced iff <= {ring.n - 2}"
        ],
    )


def derlog(D):
    """Generators of Der(-log D) = {delta : delta(f) in <f>}, computed once per germ.

    The homogeneous basis of `graded_derlog` when it certifies one, else the
    generators of `syzygy_derlog`.  Either set generates the module over the
    polynomial ring, hence also the localized module.
    """
    if D._derlog is None:
        # the generators only: a module on the germ would refer back to it,
        # and the cycle would wait for the garbage collector
        D._derlog = graded_derlog(D)
        if D._derlog is None:
            D._derlog = syzygy_derlog(D)
    return DerivationModule(D, D._derlog, is_full_derlog=True, check_tangency=False)


def syzygy_derlog(D):
    """The first n coordinates of the syzygies of (df/dx_1, ..., df/dx_n, -f)
    over the global degrevlex module order, without repeats."""
    ring = D.ring
    cols = jacobian_gens(D.f) + [-D.f]
    gens = []
    seen = set()
    for s in ideals.syzygies(cols):
        vec = s[: ring.n]
        if all(p.is_zero() for p in vec):
            continue
        key = tuple(frozenset(p.terms.items()) for p in vec)
        if key in seen:
            continue
        seen.add(key)
        gens.append(vec)
    return gens


def _deriv_key(col):
    # position over term: component 0 on top, then the local order
    i, m = col
    return (-i, LOCAL.key(m))


def _monomials_of_degree(n, d):
    return [m for m in monomials_below(n, d + 1) if sum(m) == d]


def _shift(m, s):
    return tuple(x + y for x, y in zip(m, s))


def _graded_piece(f, grads, d):
    """The derivations of degree d tangent to f, in reduced row-echelon form.

    Rows are sparse over (component, monomial) columns: the nullspace of
    sum_i a_i * df/dx_i - c * f = 0 with a_i of degree d and c of degree
    d - 1, projected to the a-part (c = delta(f) / f is fixed by a).
    """
    n = f.ring.n
    a_mons = _monomials_of_degree(n, d)
    c_mons = _monomials_of_degree(n, d - 1)
    eqs = {}  # monomial of delta(f) - c*f -> row over the unknowns
    for i, g in enumerate(grads):
        for m in a_mons:
            for gm, gc in g.terms.items():
                eqs.setdefault(_shift(m, gm), {})[(i, m)] = gc
    for m in c_mons:
        for fm, fc in f.terms.items():
            eqs.setdefault(_shift(m, fm), {})[(n, m)] = -fc
    columns = [(i, m) for i in range(n) for m in a_mons] + [(n, m) for m in c_mons]
    piece = RowBasis(_deriv_key)
    for sol in nullspace(list(eqs.values()), columns, _deriv_key):
        piece.insert({col: c for col, c in sol.items() if col[0] < n})
    return piece


def graded_derlog(D):
    """A homogeneous basis of Der(-log D) certified by Saito's criterion, or None.

    Only for f homogeneous, where Der(-log D) is a graded module, and reduced.
    For d = 0, 1, ..., deg f, the rows of the degree-d piece, latest
    component first, that the degree-d part of the submodule spanned by the
    earlier generators does not contain are new generators: by graded
    Nakayama, minimal ones.  Once there are n of them, they are a basis iff
    their Saito determinant is a nonzero constant times f (Saito's
    criterion); a free module has exactly n minimal generators, so otherwise
    it is not free.  None on more than n generators, a degree sum above
    deg f, or no basis by degree deg f.  Listed from the highest degree to
    the lowest, component 0 first within a degree.
    """
    f = D.f
    if not f.is_homogeneous() or not D.reducedness().ok:
        return None
    ring = D.ring
    n = ring.n
    e = f.total_degree()
    grads = jacobian_gens(f)
    kept = []  # (degree, row), in the order found
    for d in range(e + 1):
        span = RowBasis(_deriv_key)
        for dg, row in kept:
            for s in _monomials_of_degree(n, d - dg):
                span.insert({(i, _shift(m, s)): c for (i, m), c in row.items()})
        piece = _graded_piece(f, grads, d)
        for piv in sorted(piece.pivots, key=_deriv_key):
            if span.insert(piece.pivots[piv]) is not None:
                kept.append((d, piece.pivots[piv]))
        if len(kept) > n or sum(dg for dg, _ in kept) > e:
            return None
        if len(kept) == n:
            gens = [_row_to_derivation(ring, row) for _, row in reversed(kept)]
            u = exact_div(saito_matrix(gens, ring).det(), f)
            if u is None or u.is_zero() or not u.is_constant():
                return None
            return gens
    return None


def _row_to_derivation(ring, row):
    terms = [{} for _ in range(ring.n)]
    for (i, m), c in row.items():
        terms[i][m] = c
    return [Polynomial(ring, t, _clean=True) for t in terms]


def apply_derivs(theta, gamma):
    """The ideal Theta(gamma) = < delta(gamma) : delta in Theta >.

    Its generators are the nonzero images, in the order of theta.gens; a
    derivation that maps gamma to 0 leaves no generator, so a generator's
    index need not be its derivation's (see `theorem_b_check`).
    """
    ring = gamma.ring
    return IdealData(ring, [apply_derivation(d, gamma) for d in theta.gens])


def min_generators_derivs(theta):
    return ideals.min_generators(theta.gens)


def saito_free_check(D, theta):
    """Saito's criterion for freeness.

    Nakayama count first: the localized module of logarithmic derivations is
    free iff it needs exactly n generators.  On success the minimal set's
    Saito determinant is certified to be a unit times f by exact division.

    For the computed Der(-log D), fewer than n generators or a non-unit
    cofactor raise CertificationError.  For an explicit theta, a minimal count
    other than n or a non-unit cofactor raise NotABasisError: that theta is
    not all of Der(-log D).
    """
    red = D.reducedness()
    if not red.ok:
        return Verdict(
            False,
            certificate={"precondition": "reducedness"},
            diagnostics=["divisor is not reduced"] + red.diagnostics,
        )
    ring = D.ring
    n = ring.n
    count, kept = min_generators_derivs(theta)
    if count != n:
        if not theta.is_full_derlog:
            raise NotABasisError(
                f"theta is not a basis of Der(-log D): {count} minimal generators, not {n}",
                {"min_generators": count},
            )
        if count < n:
            raise CertificationError(f"Der(-log D) with {count} < {n} generators")
        return Verdict(
            False,
            certificate={"min_generators": count},
            diagnostics=[f"Der(-log D) needs {count} > {n} generators: not free"],
        )
    M = saito_matrix(kept, ring)
    det = M.det()
    u = exact_div(det, D.f)
    if u is None:
        raise CertificationError(
            "Saito determinant of tangent derivations must be divisible by f"
        )
    if u.constant_term() == 0:
        if not theta.is_full_derlog:
            raise NotABasisError(
                f"theta is not a basis of Der(-log D): det(saito matrix) = ({u}) * f"
                " with a non-unit cofactor",
                {"determinant": det, "cofactor": u},
            )
        raise CertificationError("cofactor must be a local unit for a free divisor")
    data = SaitoData(derivations=kept, matrix=M, determinant=det, cofactor=u)
    return Verdict(
        True,
        certificate={
            "basis": kept,
            "determinant": det,
            "unit_cofactor": u,
            "saito": data,
        },
        diagnostics=[f"free: det(saito matrix) = ({u}) * f with unit cofactor"],
    )


def saito_det_membership(D, derivs):
    """det(delta_j(x_i)) lies in <f> for any n tangent derivations."""
    ring = D.ring
    if len(derivs) != ring.n:
        raise ValueError(f"need exactly {ring.n} derivations")
    for d in derivs:
        if tangency_witness(D, d) is None:
            raise ValueError("input derivation is not tangent to the divisor")
    det = saito_matrix(derivs, ring).det()
    q = exact_div(det, D.f) if not det.is_zero() else ring.zero()
    member = det.is_zero() or q is not None or ideals.ideal_membership(
        det, D.principal_ideal(), GLOBAL
    )
    return Verdict(
        bool(member),
        certificate={"determinant": det, "quotient": q},
        diagnostics=[f"det = {det}"],
    )
