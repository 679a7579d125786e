"""Verified random sampling of gamma and the holonomicity probe.

Genericity is never certified symbolically: we draw rational coefficients
from a seeded generator, verify the wanted conclusion, and retry on failure.
Repeated failure across independent draws is reported as evidence (never a
verdict) that the divisor is not holonomic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from logderiv import ideals
from logderiv.divisors import Verdict, apply_derivs, derlog
from logderiv.ideals import IdealData
from logderiv.poly import jacobian_gens


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    coeff_bound: int = 100  # numerators and denominators bounded by this
    retries: int = 5

    def __post_init__(self):
        if self.coeff_bound < 1 or self.retries < 1:
            raise ValueError("coeff_bound and retries must be >= 1")


class GammaSpace:
    """A finite-dimensional space of candidate gamma's, spanned by polynomials.

    Every basis element must vanish at the origin; by default the span is
    also required to cut out only the origin (V(Gamma) = {0}), the standing
    hypothesis of the holonomicity probe.
    """

    def __init__(self, basis, require_origin_only=True):
        if not basis:
            raise ValueError("empty gamma space")
        self.ring = basis[0].ring
        for b in basis:
            if b.ring != self.ring:
                raise ValueError("gamma-space basis in mixed rings")
            if b.constant_term():
                raise ValueError("gamma-space basis element with constant term")
        self.basis = list(basis)
        if require_origin_only:
            if ideals.colength(IdealData(self.ring, self.basis)) is None:
                raise ValueError("V(Gamma) != {0}: the basis ideal has positive dimension")


def sample_gamma(space, cfg, rng=None):
    """One deterministic draw: random height-bounded rational coefficients.

    A fresh generator seeded from cfg is used unless an already-advanced one
    is passed in (for retries).
    """
    if rng is None:
        rng = random.Random(cfg.seed)
    H = cfg.coeff_bound
    gamma = space.ring.zero()
    for b in space.basis:
        c = Fraction(rng.randint(-H, H), rng.randint(1, H))
        gamma = gamma + c * b
    return gamma


def isolated_crit_check(gamma):
    """Milnor number of gamma (colength of the Jacobian ideal); None = infinite."""
    if gamma.constant_term():
        raise ValueError("gamma must vanish at the origin")
    return ideals.colength(IdealData(gamma.ring, jacobian_gens(gamma)))


def theorem_a_probe(D, space, cfg=SampleConfig(), theta=None):
    """Sample gamma and test whether Theta(gamma) cuts out only the origin.

    Success (finite colength for some draw) is what holonomicity guarantees
    for generic gamma; failure on every retry is reported as evidence of
    non-holonomicity, with the failing draws and their dimensions as
    witnesses.
    """
    if theta is None:
        theta = derlog(D)
    rng = random.Random(cfg.seed)
    attempts = []
    for k in range(cfg.retries):
        gamma = sample_gamma(space, cfg, rng=rng)
        Tg = apply_derivs(theta, gamma)
        cl = ideals.colength(Tg)
        if cl is not None:
            attempts.append({"gamma": gamma, "colength": cl})
            return Verdict(
                True,
                certificate={"gamma": gamma, "colength": cl, "attempts": attempts},
                diagnostics=[f"draw {k}: colength(Theta(gamma)) = {cl}"],
            )
        dim = ideals.dim_at_origin(Tg)
        attempts.append({"gamma": gamma, "dim": dim})
    return Verdict(
        False,
        certificate={"attempts": attempts},
        diagnostics=[
            f"all {cfg.retries} draws gave dim V(Theta(gamma)) > 0: "
            "evidence that D is not holonomic (no verdict on holonomicity)"
        ]
        + [f"draw {i}: dim = {a['dim']}" for i, a in enumerate(attempts)],
    )


def locus_compare(I, candidate, germ=True):
    """Do V(I) and V(candidate) agree as germs? Mutual radical membership.

    With germ=False the comparison is of the affine zero sets instead.
    """
    ring = I.ring
    C = IdealData(ring, candidate)
    forward = [(str(g), ideals.radical_membership(g, C, germ=germ)) for g in I.gens]
    backward = [(str(g), ideals.radical_membership(g, I, germ=germ)) for g in C.gens]
    ok = all(b for _, b in forward) and all(b for _, b in backward)
    return Verdict(
        ok,
        certificate={"I_in_sqrt_candidate": forward, "candidate_in_sqrt_I": backward},
        diagnostics=[f"V(I) = V(candidate): {ok}"],
    )
