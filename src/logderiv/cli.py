"""Command-line driver: parse a problem file, run a pipeline, emit a report.

Every command reads one problem file (path or `-` for stdin) and writes a
text or JSON report to stdout.  Exit codes: 0 = verdict true / success,
1 = verdict false, 2 = precondition failure, 3 = input error, 4 = failed
certification (an identity the mathematics guarantees did not hold, so the
computation is wrong; the verdict is null).  JSON reports
use the fixed field set (command, verdict, certificate, diagnostics, seed,
timings_ms) validated by report_schema.json; with the default flags they are
byte-identical across runs for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from fractions import Fraction

from logderiv import ideals
from logderiv.divisors import (
    DerivationModule,
    DivisorGerm,
    NotABasisError,
    Verdict,
    derlog,
    min_generators_derivs,
    saito_free_check,
    saito_matrix,
    apply_derivation,
    apply_derivs,
)
from logderiv.jets import cross_check_colength, cross_check_derlog
from logderiv.parse import ParseError, parse_input
from logderiv.poly import CertificationError, Polynomial, PolyMatrix
from logderiv.quotients import (
    NotArtinError,
    ci_check,
    hessian_socle_check,
    quotient,
    socle,
    theorem_b_check,
    wiebe_check,
)
from logderiv.sampling import GammaSpace, SampleConfig, locus_compare, theorem_a_probe

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_PRECONDITION = 2
EXIT_INPUT = 3
EXIT_CERTIFICATION = 4

COMMANDS = (
    "derlog",
    "free",
    "theorem-a",
    "theorem-b",
    "artin",
    "socle",
    "wiebe",
    "hessian-socle",
    "locus",
    "oracle-check",
)


class PreconditionFailure(Exception):
    def __init__(self, message, certificate=None):
        super().__init__(message)
        self.certificate = certificate or {}


class InputError(Exception):
    pass


def to_jsonable(obj):
    """Reports as plain JSON: polynomials and fractions become strings."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Polynomial):
        return str(obj)
    if isinstance(obj, PolyMatrix):
        return [[str(p) for p in row] for row in obj.rows]
    if isinstance(obj, Verdict):
        return {
            "verdict": obj.ok,
            "certificate": to_jsonable(obj.certificate),
            "diagnostics": list(obj.diagnostics),
        }
    if dataclasses.is_dataclass(obj):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return str(obj)


def _require(pf, field, command):
    value = getattr(pf, field)
    if value is None or value == []:
        raise InputError(f"command {command!r} requires a {field!r} entry in the input")
    return value


def _divisor(pf, command):
    f = _require(pf, "f", command)
    try:
        return DivisorGerm(pf.ring, f)
    except ValueError as e:
        raise InputError(str(e)) from None


def _derivations(pf, D, need_n=False):
    """Explicit theta from the file (tangency-checked) or the computed derlog."""
    if pf.theta:
        try:
            theta = DerivationModule(D, pf.theta, is_full_derlog=False)
        except ValueError as e:
            raise InputError(str(e)) from None
    else:
        theta = derlog(D)
    if need_n:
        n = D.ring.n
        if pf.theta:
            kept = theta.gens
        else:
            _, kept = min_generators_derivs(theta)
        if len(kept) != n:
            raise PreconditionFailure(
                f"need exactly {n} derivations, have {len(kept)}",
                {"derivation_count": len(kept)},
            )
        return theta, kept
    return theta, None


def run(command, pf, args):
    """Execute one pipeline; returns (verdict, certificate, diagnostics)."""
    if command == "derlog":
        D = _divisor(pf, command)
        theta = derlog(D)
        count, kept = min_generators_derivs(theta)
        cert = {
            "generators": [[str(p) for p in g] for g in theta.gens],
            "min_generators": count,
            "minimal_set": [[str(p) for p in g] for g in kept],
        }
        return True, cert, [f"Der(-log D): {len(theta.gens)} generators, {count} minimal"]

    if command == "free":
        D = _divisor(pf, command)
        theta, _ = _derivations(pf, D)
        try:
            v = saito_free_check(D, theta)
        except NotABasisError as e:
            raise PreconditionFailure(str(e), e.certificate) from None
        cert = dict(v.certificate)
        cert.pop("saito", None)
        return v.ok, cert, v.diagnostics

    if command == "theorem-a":
        try:
            cfg = SampleConfig(
                seed=args.seed, coeff_bound=args.coeff_bound, retries=args.retries
            )
        except ValueError as e:
            raise InputError(str(e)) from None
        D = _divisor(pf, command)
        basis = _require(pf, "gamma_space", command)
        try:
            space = GammaSpace(basis)
        except ValueError as e:
            raise PreconditionFailure(str(e)) from None
        theta, _ = _derivations(pf, D)
        v = theorem_a_probe(D, space, cfg, theta=theta)
        return v.ok, v.certificate, v.diagnostics

    if command == "theorem-b":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        theta, _ = _derivations(pf, D)
        v = theorem_b_check(D, theta, gamma)
        if "precondition_failures" in v.certificate:
            raise PreconditionFailure(
                "; ".join(v.certificate["precondition_failures"]), v.certificate
            )
        return v.ok, v.certificate, v.diagnostics

    if command == "artin":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        theta, _ = _derivations(pf, D)
        Tg = apply_derivs(theta, gamma)
        cl = ideals.colength(Tg)
        if cl is None:
            dim = ideals.dim_at_origin(Tg)
            return (
                False,
                {"dim": dim},
                [f"Theta(gamma) is not Artin: dim V = {dim}"],
            )
        A = quotient(Tg)
        ci = ci_check(Tg)
        cert = {
            "colength": cl,
            "standard_monomials": [str(m) for m in A.std_monomial_polys()],
            "normal_form_of_f": str(A.reduce(D.f)),
            "complete_intersection": ci.ok,
            "min_generators": ci.certificate.get("min_generators"),
        }
        return True, cert, [f"Artin quotient of dimension {cl}"] + ci.diagnostics

    if command == "socle":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        theta, _ = _derivations(pf, D)
        Tg = apply_derivs(theta, gamma)
        try:
            A = quotient(Tg)
        except NotArtinError as e:
            raise PreconditionFailure(str(e), {"dim": e.dim}) from None
        s = socle(A)
        reps = [str(r) for r in s.reps]
        return (
            True,
            {"socle_basis": reps, "socle_dim": len(reps), "algebra_dim": A.dim},
            [f"socle basis: {', '.join(reps) or '0'}"],
        )

    if command == "wiebe":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        _, kept = _derivations(pf, D, need_n=True)
        F = [apply_derivation(d, gamma) for d in kept]
        delta = saito_matrix(kept, D.ring).det()
        v = wiebe_check(gamma, F, delta, derivs=kept)
        if "precondition" in v.certificate:
            raise PreconditionFailure(
                "; ".join(v.diagnostics), v.certificate
            )
        cert = dict(v.certificate)
        cert["delta"] = str(delta)
        return v.ok, cert, v.diagnostics

    if command == "hessian-socle":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        if not gamma.is_homogeneous():
            raise PreconditionFailure("gamma must be homogeneous")
        theta, kept = _derivations(pf, D, need_n=True)
        # the quotient algebra always comes from the full derivation module;
        # the explicit theta only selects the n derivations for the determinant
        Tg = apply_derivs(theta if theta.is_full_derlog else derlog(D), gamma)
        try:
            A = quotient(Tg)
        except NotArtinError as e:
            raise PreconditionFailure(str(e), {"dim": e.dim}) from None
        delta = saito_matrix(kept, D.ring).det()
        v = hessian_socle_check(D, gamma, A, delta)
        cert = dict(v.certificate)
        cert["delta"] = str(delta)
        return v.ok, cert, v.diagnostics

    if command == "locus":
        D = _divisor(pf, command)
        gamma = _require(pf, "gamma", command)
        candidate = _require(pf, "locus", command)
        theta, _ = _derivations(pf, D)
        Tg = apply_derivs(theta, gamma)
        v = locus_compare(Tg, candidate, germ=(args.order == "local"))
        return v.ok, v.certificate, v.diagnostics

    if command == "oracle-check":
        if args.jet_cutoff < 0:
            raise InputError("--jet-cutoff must be >= 0")
        D = _divisor(pf, command)
        checks = {"derlog_jets": cross_check_derlog(D, 2)}
        diagnostics = list(checks["derlog_jets"].diagnostics)
        if pf.gamma is not None:
            theta, _ = _derivations(pf, D)
            Tg = apply_derivs(theta, pf.gamma)
            checks["colength_jets"] = cross_check_colength(Tg, args.jet_cutoff)
            diagnostics += checks["colength_jets"].diagnostics
        ok = all(v.ok for v in checks.values())
        cert = {k: {"verdict": v.ok, **to_jsonable(v.certificate)} for k, v in checks.items()}
        return ok, cert, diagnostics

    raise InputError(f"unknown command {command!r}")


def build_parser():
    p = argparse.ArgumentParser(
        prog="logderiv",
        description="Exact freeness and Artin-quotient analysis of hypersurface germs.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("input", help="problem file path, or - for stdin")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--coeff-bound", type=int, default=100)
        sp.add_argument("--retries", type=int, default=5)
        sp.add_argument("--order", choices=("local", "global"), default="local")
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--jet-cutoff", type=int, default=8)
        sp.add_argument(
            "--timings",
            action="store_true",
            help="include wall-clock timings (breaks byte-identical determinism)",
        )
    return p


def emit(report, as_json, stream=None):
    stream = stream or sys.stdout
    if as_json:
        stream.write(
            json.dumps(to_jsonable(report), sort_keys=True, indent=2) + "\n"
        )
        return
    stream.write(f"command: {report['command']}\n")
    for d in report["diagnostics"]:
        stream.write(f"  {d}\n")
    v = report["verdict"]
    stream.write(f"verdict: {'-' if v is None else str(bool(v)).lower()}\n")


def main(argv=None):
    args = build_parser().parse_args(argv)
    report = {
        "command": args.command,
        "verdict": None,
        "certificate": None,
        "diagnostics": [],
        "seed": args.seed,
        "timings_ms": None,
    }
    t0 = time.perf_counter()
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            try:
                with open(args.input, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as e:
                raise InputError(str(e)) from None
        pf = parse_input(text)
        verdict, cert, diagnostics = run(args.command, pf, args)
    except (ParseError, InputError) as e:
        report["diagnostics"] = [str(e)]
        print(f"error: {e}", file=sys.stderr)
        emit(report, args.json)
        return EXIT_INPUT
    except PreconditionFailure as e:
        report["verdict"] = False
        report["certificate"] = e.certificate
        report["diagnostics"] = [str(e)]
        print(f"precondition failure: {e}", file=sys.stderr)
        emit(report, args.json)
        return EXIT_PRECONDITION
    except CertificationError as e:
        report["diagnostics"] = [str(e)]
        print(f"certification failure: {e}", file=sys.stderr)
        emit(report, args.json)
        return EXIT_CERTIFICATION

    report["verdict"] = bool(verdict)
    report["certificate"] = cert
    report["diagnostics"] = list(diagnostics)
    if args.timings:
        report["timings_ms"] = {"total": (time.perf_counter() - t0) * 1000.0}
    emit(report, args.json)
    return EXIT_TRUE if verdict else EXIT_FALSE


if __name__ == "__main__":
    sys.exit(main())
