"""Sparse multivariate polynomials over the rationals.

All coefficients are `fractions.Fraction`, all arithmetic is exact.  A
polynomial is immutable after construction; the term map is a dict from
exponent tuple to nonzero coefficient.  Display order is degree-reverse-
lexicographic with the ring's variable order (a storage/printing convention,
independent of the ordering any particular algorithm computes with).
"""

from __future__ import annotations

from fractions import Fraction

from logderiv.kernels import (
    dict_add,
    dict_axpy,
    dict_mul,
    dict_scale,
    dict_sub,
    mono_div,
)


class RingMismatchError(ValueError):
    pass


class CertificationError(RuntimeError):
    """A certification check failed: an exact identity that the mathematics
    guarantees does not hold, so the computation behind it is wrong."""


class Ring:
    """A polynomial ring context: just an ordered tuple of variable names."""

    __slots__ = ("names", "n")

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names: {names}")
        self.names = names
        self.n = len(names)

    def __eq__(self, other):
        return isinstance(other, Ring) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"Ring({', '.join(self.names)})"

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = Fraction(c)
        if not c:
            return self.zero()
        return Polynomial(self, {(0,) * self.n: c})

    def var(self, i):
        e = [0] * self.n
        e[i] = 1
        return Polynomial(self, {tuple(e): Fraction(1)})

    def gens(self):
        return [self.var(i) for i in range(self.n)]

    def monomial(self, exps, coeff=1):
        exps = tuple(exps)
        if len(exps) != self.n or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps} for {self!r}")
        c = Fraction(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, {exps: c})

    def extend(self, name):
        return Ring(self.names + (name,))


def _grevlex_key(e):
    # larger key <=> larger monomial under degrevlex
    return (sum(e), tuple(-x for x in reversed(e)))


class Polynomial:
    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms, _clean=False):
        self.ring = ring
        if _clean:
            self.terms = terms
        else:
            self.terms = {
                tuple(m): Fraction(c) for m, c in terms.items() if c
            }
        self._hash = None

    # -- basic protocol -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.ring != self.ring:
                raise RingMismatchError(
                    f"{self.ring!r} vs {other.ring!r}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.const(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self):
        return not self.terms

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, dict_add(self.terms, other.terms), _clean=True)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, dict_sub(self.terms, other.terms), _clean=True)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, dict_sub(other.terms, self.terms), _clean=True)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Polynomial(
                self.ring, dict_scale(self.terms, Fraction(other)), _clean=True
            )
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial(self.ring, dict_mul(self.terms, other.terms), _clean=True)

    __rmul__ = __mul__

    def __neg__(self):
        return Polynomial(self.ring, dict_scale(self.terms, Fraction(-1)), _clean=True)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError(f"exponent must be a non-negative integer, got {k}")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- structure ------------------------------------------------------

    def total_degree(self):
        """Max total degree of a term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def order_at_origin(self):
        """Min total degree of a term (the germ's vanishing order); None if zero."""
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.ring.n, Fraction(0))

    def is_constant(self):
        return all(sum(m) == 0 for m in self.terms)

    def is_homogeneous(self):
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def sorted_terms(self):
        """Terms in decreasing degrevlex order."""
        return sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0]), reverse=True)

    def diff(self, i):
        """Exact formal partial derivative with respect to variable i."""
        if not 0 <= i < self.ring.n:
            raise IndexError(f"variable index {i} out of range for {self.ring!r}")
        out = {}
        for m, c in self.terms.items():
            if m[i]:
                e = list(m)
                e[i] -= 1
                out[tuple(e)] = c * m[i]
        return Polynomial(self.ring, out, _clean=True)

    def evaluate(self, point):
        """Evaluate at a tuple of Fractions; exact."""
        total = Fraction(0)
        for m, c in self.terms.items():
            v = c
            for e, p in zip(m, point):
                v *= Fraction(p) ** e
            total += v
        return total

    # -- printing -------------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in self.sorted_terms():
            factors = []
            for name, e in zip(self.ring.names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mono = "*".join(factors)
            ac = abs(c)
            if mono and ac == 1:
                body = mono
            elif mono:
                body = f"{ac}*{mono}"
            else:
                body = str(ac)
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"<poly {self} over {','.join(self.ring.names)}>"


def jacobian_gens(p):
    """The tuple of partial derivatives (generators of the Jacobian ideal)."""
    return [p.diff(i) for i in range(p.ring.n)]


def exact_div(p, d):
    """Exact polynomial quotient p / d, or None if d does not divide p.

    Leading-term cancellation under degrevlex; valid because lt(p) =
    lt(d) * lt(p/d) holds for any monomial order when the division is exact.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = p.ring
    q = {}
    r = dict(p.terms)
    dm = max(d.terms, key=_grevlex_key)
    dc = d.terms[dm]
    while r:
        rm = max(r, key=_grevlex_key)
        shift = mono_div(rm, dm)
        if shift is None:
            return None
        c = r[rm] / dc
        q[shift] = c
        r = dict_axpy(r, c, shift, d.terms)
    return Polynomial(ring, q, _clean=True)


class PolyMatrix:
    """A rectangular grid of polynomials over one ring."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        ncols = len(rows[0])
        ring = rows[0][0].ring
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged matrix")
            for p in r:
                if p.ring != ring:
                    raise RingMismatchError("mixed ring contexts in matrix")
        self.ring = ring
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def det(self):
        """Exact determinant; cofactor expansion for n <= 3, Bareiss above."""
        if self.nrows != self.ncols:
            raise ValueError(f"determinant of a {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        if n <= 3:
            return _det_cofactor(self.rows, self.ring)
        return _det_bareiss(self.rows, self.ring)


def _det_cofactor(rows, ring):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = ring.zero()
    sign = 1
    for j in range(n):
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total = total + sign * rows[0][j] * _det_cofactor(minor, ring)
        sign = -sign
    return total


def _det_bareiss(rows, ring):
    # fraction-free elimination: intermediate entries stay polynomial and
    # every division is exact (by the previous pivot)
    n = len(rows)
    a = [list(r) for r in rows]
    sign = 1
    prev = ring.one()
    for k in range(n - 1):
        if a[k][k].is_zero():
            for i in range(k + 1, n):
                if not a[i][k].is_zero():
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return ring.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                q = exact_div(num, prev)
                if q is None:
                    raise CertificationError("Bareiss division must be exact")
                a[i][j] = q
            a[i][k] = ring.zero()
        prev = a[k][k]
    return a[n - 1][n - 1] if sign == 1 else -a[n - 1][n - 1]


def hessian_det(p):
    """Determinant of the matrix of second partials of p."""
    n = p.ring.n
    grads = jacobian_gens(p)
    return PolyMatrix([[grads[i].diff(j) for j in range(n)] for i in range(n)]).det()
