"""Seeded random instance generators and the reduction budget shared between
test modules."""

from contextlib import contextmanager
from fractions import Fraction

from logderiv import engine, ideals
from logderiv.ideals import IdealData
from logderiv.poly import PolyMatrix, Ring, jacobian_gens

_RINGS = {
    1: Ring(["x"]),
    2: Ring(["x", "y"]),
    3: Ring(["x", "y", "z"]),
}


class OverBudget(Exception):
    pass


@contextmanager
def reduction_budget(steps=2000, bits=512):
    """Stop the standard-basis engine after `steps` reduction steps, or at a
    coefficient wider than `bits` bits."""
    axpy = engine.vec_axpy
    done = 0

    def counted(*args):
        nonlocal done
        done += 1
        out = axpy(*args)
        if done > steps or any(
            max(q.numerator.bit_length(), q.denominator.bit_length()) > bits
            for q in out.values()
        ):
            raise OverBudget
        return out

    engine.vec_axpy = counted
    try:
        yield
    finally:
        engine.vec_axpy = axpy


def random_wiebe_instance(rng):
    """A verified complete-intersection transition (gamma, F, delta).

    gamma = sum c_i x_i^{a_i} has Milnor number prod (a_i - 1) <= 8; F is a
    random transition M applied to the Jacobian generators, with M a product
    of elementary operations, unit row scalings, and a monomial diagonal, so
    delta = det(M) is known by construction.  Resamples until <F> has finite
    colength (then F is automatically a regular sequence).
    """
    while True:
        n = rng.choice([1, 2, 3])
        ring = _RINGS[n]
        xs = ring.gens()
        exps = [rng.choice([2, 3]) for _ in range(n)]
        gamma = ring.zero()
        for i in range(n):
            c = Fraction(rng.choice([1, -1]) * rng.randint(1, 5))
            gamma = gamma + c * xs[i] ** exps[i]
        G = jacobian_gens(gamma)

        # transition matrix: identity, then elementary ops and scalings
        M = [[ring.one() if i == j else ring.zero() for j in range(n)] for i in range(n)]
        for _ in range(rng.randint(0, 3)):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            q = rng.choice(list(xs) + [ring.const(c) for c in (1, -1, 2)])
            for k in range(n):
                M[i][k] = M[i][k] + q * M[j][k]
        for i in range(n):
            u = rng.choice([1, -1, 2, -3])
            for k in range(n):
                M[i][k] = u * M[i][k]
            e = rng.choice([0, 0, 1])
            if e:
                xi = xs[rng.randrange(n)]
                for k in range(n):
                    M[i][k] = xi * M[i][k]

        F = [
            sum((M[i][k] * G[k] for k in range(n)), ring.zero())
            for i in range(n)
        ]
        delta = PolyMatrix(M).det()
        IF = IdealData(ring, F)
        if any(f.is_zero() for f in F) or delta.is_zero():
            continue
        if ideals.colength(IF) is None:
            continue
        return gamma, F, delta


def random_zero_dim_ideal(rng, max_exp=3):
    """A finite-colength ideal: pure powers plus a few random elements of m."""
    n = rng.choice([1, 2, 3])
    ring = _RINGS[n]
    xs = ring.gens()
    gens = [xs[i] ** rng.randint(2, max_exp) for i in range(n)]
    for _ in range(rng.randint(0, 2)):
        p = ring.zero()
        for _ in range(rng.randint(1, 3)):
            mono = ring.one()
            for _ in range(rng.randint(1, 3)):
                mono = mono * xs[rng.randrange(n)]
            p = p + rng.choice([1, -1, 2]) * mono
        if not p.is_zero():
            gens.append(p)
    return IdealData(ring, gens)
