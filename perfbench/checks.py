"""Output checks that do not rely on logderiv: sympy and jsonschema only.

Every report is validated against the program's published report schema.
Certificates are re-verified from the problem data:

* every derivation of a `derlog` or `free` certificate (and of a `theorem-b`
  basis) satisfies delta(f) = 0 mod f, by `sympy.div`;
* every `free` (or `theorem-b`) basis has a Saito determinant equal to a
  local unit times f, the determinant computed in sympy;
* every colength c of `artin` and `theorem-b` equals dim_Q Q[x]/(I + m^(c+1))
  for I = Theta(gamma), counted from a sympy Groebner basis;
* every socle representative s is nonzero and x_i * s reduces to 0 modulo
  that basis.

Verdicts are held to known facts and theorems: which instances are free
(Saito), that `theorem-b` agrees with `free` on holonomic divisors (the
paper's theorem), that `theorem-a` fails only on the non-holonomic one, and
the colength prod(d_i + 1) of a homogeneous free arrangement with exponents
d_i and quadratic gamma.  A failed check raises CheckFailure.
"""

from __future__ import annotations

import itertools
import json
import os
from functools import cached_property

import jsonschema
import sympy

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEMA_PATH = os.path.join(os.path.dirname(HERE), "src", "logderiv", "report_schema.json")

EXIT_TRUE, EXIT_FALSE, EXIT_PRECONDITION = 0, 1, 2


class CheckFailure(Exception):
    pass


def _fail(where, message):
    raise CheckFailure(f"{where}: {message}")


class Problem:
    """One instance in sympy terms: generators, f, gamma, cached ideals."""

    def __init__(self, inst, gamma):
        self.inst = inst
        self.gens = sympy.symbols(inst.ring)
        self.names = dict(zip(inst.ring, self.gens))
        self.f = self.poly(inst.f)
        self.gamma = self.poly(gamma) if gamma else None
        self._artin = {}

    def poly(self, text):
        expr = sympy.parse_expr(text.replace("^", "**"), local_dict=dict(self.names))
        return sympy.Poly(expr, *self.gens, domain="QQ")

    def vector(self, comps, where):
        if len(comps) != len(self.gens):
            _fail(where, f"derivation has {len(comps)} components, expected {len(self.gens)}")
        return [self.poly(c) for c in comps]

    def apply(self, vec, p):
        """delta(p) = sum_i a_i * dp/dx_i."""
        out = sympy.Poly(0, *self.gens, domain="QQ")
        for a, x in zip(vec, self.gens):
            out += a * p.diff(x)
        return out

    def check_tangent(self, vec, where):
        _, r = sympy.div(self.apply(vec, self.f), self.f)
        if not r.is_zero:
            _fail(where, f"derivation {vec} is not logarithmic: delta(f) mod f = {r.as_expr()}")

    def saito_cofactor(self, basis, where):
        """u with det(basis) = u * f, checked to be a local unit."""
        n = len(self.gens)
        if len(basis) != n:
            _fail(where, f"basis of {len(basis)} derivations, expected {n}")
        M = sympy.Matrix(n, n, lambda i, j: basis[j][i].as_expr())
        det = sympy.Poly(M.det(method="berkowitz"), *self.gens, domain="QQ")
        u, r = sympy.div(det, self.f)
        if not r.is_zero:
            _fail(where, "Saito determinant is not a multiple of f")
        if u.eval(dict.fromkeys(self.gens, 0)) == 0:
            _fail(where, f"Saito cofactor {u.as_expr()} is not a unit at the origin")
        return det, u

    def artin(self, derivs):
        """(colength, Groebner basis) of I = <delta(gamma)> locally at 0.

        L_j = dim Q[x]/(I + m^j) grows strictly with j until L_j = L_(j+1),
        which means m^j lies in I + m^(j+1), hence in I locally (Nakayama);
        from then on L_j is the local colength and I + m^j its m-primary
        part.  The basis is of the first stable I + m^j.
        """
        key = tuple(tuple(str(a.as_expr()) for a in d) for d in derivs)
        if key not in self._artin:
            ideal = [g for g in (self.apply(d, self.gamma) for d in derivs) if not g.is_zero]
            prev = None
            for j in range(1, 64):
                mono = [sympy.Mul(*c) for c in
                        itertools.combinations_with_replacement(self.gens, j)]
                G = sympy.groebner([g.as_expr() for g in ideal] + mono, *self.gens,
                                   order="grevlex", domain="QQ")
                dim = _count_standard(G, self.gens, j)
                if dim == prev:
                    break
                prev = dim
            else:
                raise CheckFailure(f"{self.inst.name}: Theta(gamma) is not m-primary")
            self._artin[key] = (dim, G)
        return self._artin[key]


def _count_standard(G, gens, j):
    """Monomials of degree < j outside the leading ideal of G (which has m^j)."""
    leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in G.exprs]
    count = 0
    for d in range(j):
        for e in _exponents(len(gens), d):
            if not any(all(a >= b for a, b in zip(e, le)) for le in leads):
                count += 1
    return count


def _exponents(n, d):
    if n == 1:
        yield (d,)
        return
    for k in range(d + 1):
        for rest in _exponents(n - 1, d - k):
            yield (k,) + rest


class Checker:
    """Checks the distinct reports of one run, given the instances' data."""

    def __init__(self, instances, gammas):
        self.problems = {name: Problem(inst, gammas[name]) for name, inst in instances.items()}

    @cached_property
    def validator(self):
        with open(SCHEMA_PATH, encoding="utf-8") as fh:
            return jsonschema.Draft7Validator(json.load(fh))

    def check(self, results):
        """results: {(instance, command): (exit code, report text)}."""
        parsed = {}
        for (name, command), (code, text) in sorted(results.items()):
            where = f"{name}/{command}"
            try:
                report = json.loads(text)
            except ValueError as e:
                _fail(where, f"output is not JSON: {e}")
            self.check_envelope(report, code, command, where)
            parsed[(name, command)] = (code, report)
        # derlog first: other checks rebuild Theta(gamma) from its generators
        for (name, command), (code, report) in sorted(
            parsed.items(), key=lambda kv: (kv[0][0], kv[0][1] != "derlog", kv[0][1])
        ):
            handler = getattr(self, "check_" + command.replace("-", "_"))
            handler(self.problems[name], code, report, parsed, f"{name}/{command}")

    def check_envelope(self, report, code, command, where):
        errors = sorted(self.validator.iter_errors(report), key=str)
        if errors:
            _fail(where, f"report violates the schema: {errors[0].message}")
        if report["command"] != command:
            _fail(where, f"report is for command {report['command']!r}")
        expected = {EXIT_TRUE: True, EXIT_FALSE: False, EXIT_PRECONDITION: False}
        if code not in expected:
            _fail(where, f"exit code {code}")
        if report["verdict"] is not expected[code]:
            _fail(where, f"verdict {report['verdict']} with exit code {code}")

    # -- per command -------------------------------------------------------------

    def check_derlog(self, P, code, report, parsed, where):
        cert = report["certificate"]
        for key in ("generators", "minimal_set"):
            for comps in cert[key]:
                P.check_tangent(P.vector(comps, where), where)
        count, n = cert["min_generators"], len(P.gens)
        if count != len(cert["minimal_set"]):
            _fail(where, "min_generators differs from the size of the minimal set")
        # Saito: free iff Der(-log D) has n minimal generators
        if (count == n) != P.inst.free:
            _fail(where, f"{count} minimal generators in {n} variables, "
                         f"but the divisor is {'' if P.inst.free else 'not '}free")

    def check_free(self, P, code, report, parsed, where):
        if report["verdict"] != P.inst.free:
            _fail(where, f"verdict {report['verdict']}, but the divisor is "
                         f"{'' if P.inst.free else 'not '}free")
        if not report["verdict"]:
            return
        cert = report["certificate"]
        basis = [P.vector(c, where) for c in cert["basis"]]
        for d in basis:
            P.check_tangent(d, where)
        det, u = P.saito_cofactor(basis, where)
        if det != P.poly(cert["determinant"]):
            _fail(where, "reported determinant differs from det of the Saito matrix")
        if u != P.poly(cert["unit_cofactor"]):
            _fail(where, "reported unit cofactor differs from det / f")

    def check_theorem_a(self, P, code, report, parsed, where):
        if report["verdict"] != P.inst.holonomic:
            _fail(where, f"verdict {report['verdict']} on a "
                         f"{'' if P.inst.holonomic else 'non-'}holonomic divisor")

    def check_theorem_b(self, P, code, report, parsed, where):
        if P.inst.holonomic and report["verdict"] != P.inst.free:
            _fail(where, f"verdict {report['verdict']} disagrees with freeness "
                         f"({P.inst.free}) on a holonomic divisor")
        if code == EXIT_PRECONDITION:
            return
        cert = report["certificate"]
        if report["verdict"]:
            basis = [P.vector(c, where) for c in cert["basis"]]
            for d in basis:
                P.check_tangent(d, where)
            P.saito_cofactor(basis, where)  # so the basis generates Der(-log D)
        else:
            basis = self._derlog_generators(P, parsed, where)
        self._check_colength(P, basis, cert["colength"], where)

    def check_artin(self, P, code, report, parsed, where):
        if not report["verdict"]:
            return
        cert = report["certificate"]
        c = cert["colength"]
        if len(cert["standard_monomials"]) != c:
            _fail(where, "number of standard monomials differs from the colength")
        if P.inst.colength is not None and c != P.inst.colength:
            _fail(where, f"colength {c}, expected prod(d_i + 1) = {P.inst.colength}")
        self._check_colength(P, self._derlog_generators(P, parsed, where), c, where)

    def check_socle(self, P, code, report, parsed, where):
        if code == EXIT_PRECONDITION:
            return
        cert = report["certificate"]
        reps = [P.poly(s) for s in cert["socle_basis"]]
        if cert["socle_dim"] != len(reps):
            _fail(where, "socle_dim differs from the number of representatives")
        derivs = self._derlog_generators(P, parsed, where)
        _, G = self._check_colength(P, derivs, cert["algebra_dim"], where)
        for s in reps:
            if G.contains(s.as_expr()):
                _fail(where, f"socle representative {s.as_expr()} is zero in the quotient")
            for x in P.gens:
                if not G.contains((s * sympy.Poly(x, *P.gens)).as_expr()):
                    _fail(where, f"{x} * {s.as_expr()} is not zero in the quotient")
        # a complete intersection is Gorenstein: free + holonomic => 1-dim socle
        if P.inst.free and P.inst.holonomic and len(reps) != 1:
            _fail(where, f"socle of dimension {len(reps)} in a Gorenstein quotient")

    def check_wiebe(self, P, code, report, parsed, where):
        if code != EXIT_PRECONDITION and not report["verdict"]:
            _fail(where, "Wiebe duality fails although its preconditions hold")

    def check_hessian_socle(self, P, code, report, parsed, where):
        if code != EXIT_PRECONDITION and not report["verdict"]:
            _fail(where, "the two sides of the Hessian-socle equivalence disagree")

    def check_locus(self, P, code, report, parsed, where):
        # the candidate is the maximal ideal: V(Theta(gamma)) = {0} iff Artin
        artin = parsed.get((P.inst.name, "artin"))
        if artin is not None and artin[1]["verdict"] and not report["verdict"]:
            _fail(where, "Theta(gamma) has finite colength but its locus is not the origin")

    def check_oracle_check(self, P, code, report, parsed, where):
        if not report["verdict"]:
            _fail(where, "the jet oracle disagrees with the symbolic engine")

    # -- shared ------------------------------------------------------------------

    def _derlog_generators(self, P, parsed, where):
        derlog = parsed.get((P.inst.name, "derlog"))
        if derlog is None:
            _fail(where, "no derlog report of this instance to rebuild Theta(gamma) from")
        return [P.vector(c, where) for c in derlog[1]["certificate"]["generators"]]

    def _check_colength(self, P, derivs, c, where):
        dim, G = P.artin(derivs)
        if dim != c:
            _fail(where, f"colength {c}, but dim Q[x]/(I + m^(c+1)) = {dim}")
        return dim, G
