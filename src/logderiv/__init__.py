"""Exact symbolic toolkit for logarithmic derivations of hypersurface germs.

Given a polynomial f defining a divisor germ D at the origin, the package
computes the module Der(-log D) of vector fields tangent to D, decides
freeness (Saito determinant criterion and the Artin-quotient criterion),
analyses the quotient algebras O/Theta(gamma) (colength, socle, complete
intersection, Wiebe duality), and cross-checks everything against a
brute-force jet oracle.  All arithmetic is exact over the rationals.
"""

from logderiv.divisors import (
    DerivationModule,
    DivisorGerm,
    NotABasisError,
    Verdict,
    apply_derivation,
    apply_derivs,
    derlog,
    saito_free_check,
    saito_matrix,
)
from logderiv.ideals import IdealData
from logderiv.orders import GLOBAL, LOCAL
from logderiv.poly import CertificationError, Polynomial, PolyMatrix, Ring, jacobian_gens
from logderiv.quotients import (
    CosetIdeal,
    NotArtinError,
    QuotientAlgebra,
    annihilator,
    ci_check,
    hessian_socle_check,
    quotient,
    socle,
    theorem_b_check,
    wiebe_check,
)
from logderiv.sampling import GammaSpace, SampleConfig, locus_compare, theorem_a_probe

__version__ = "0.1.0"

__all__ = [
    "CertificationError",
    "CosetIdeal",
    "DerivationModule",
    "DivisorGerm",
    "GLOBAL",
    "GammaSpace",
    "IdealData",
    "LOCAL",
    "NotABasisError",
    "NotArtinError",
    "PolyMatrix",
    "Polynomial",
    "QuotientAlgebra",
    "Ring",
    "SampleConfig",
    "Verdict",
    "annihilator",
    "apply_derivation",
    "apply_derivs",
    "ci_check",
    "derlog",
    "hessian_socle_check",
    "jacobian_gens",
    "locus_compare",
    "quotient",
    "saito_free_check",
    "saito_matrix",
    "socle",
    "theorem_a_probe",
    "theorem_b_check",
    "wiebe_check",
]
