"""Self-test of the output checks: each check must accept the program's real
reports and reject a corrupted copy.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench)

The good reports come from running the CLI on two small ladder instances, the
normal crossing xyz (free, colength 8) and the pinch point (not free).
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

INSTANCES = {i.name: i for i in workloads.LADDER if i.name in ("xyz", "pinch")}
GAMMAS = {name: workloads.ladder_gamma(inst, 0) for name, inst in INSTANCES.items()}
PINCH_COMMANDS = ("derlog", "free", "artin", "socle", "theorem-b")


def _good_reports(tmpdir=os.path.join(HERE, "out", "selftest")):
    from logderiv import cli

    os.makedirs(tmpdir, exist_ok=True)
    results = {}
    for name, inst in INSTANCES.items():
        path = os.path.join(tmpdir, f"{name}.lgd")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(workloads.problem_text(inst, GAMMAS[name]))
        commands = workloads.COMMANDS if name == "xyz" else PINCH_COMMANDS
        for command in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, path, "--json"])
            results[(name, command)] = (code, out.getvalue())
    return results


GOOD = None


def good():
    global GOOD
    if GOOD is None:
        GOOD = _good_reports()
    return GOOD


def check(results):
    checks.Checker(INSTANCES, GAMMAS).check(results)


def corrupted(key, mutate, code=None):
    """The good results with one report changed by `mutate(report)`."""
    results = dict(good())
    old_code, text = results[key]
    report = json.loads(text)
    mutate(report)
    results[key] = (old_code if code is None else code, json.dumps(report))
    return results


def rejects(results, fragment):
    try:
        check(results)
    except checks.CheckFailure as e:
        assert fragment in str(e), f"rejected for another reason: {e}"
        return
    raise AssertionError(f"corrupted report accepted (expected: {fragment})")


def _set(path, value):
    def mutate(report):
        node = report
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = value
    return mutate


# -- the real reports pass ----------------------------------------------------------


def test_good_reports_pass():
    check(good())


# -- envelope ---------------------------------------------------------------------


def test_schema_missing_field():
    rejects(corrupted(("xyz", "derlog"), lambda r: r.pop("seed")), "schema")


def test_schema_unknown_field():
    rejects(corrupted(("xyz", "artin"), _set(("surplus",), 1)), "schema")


def test_not_json():
    results = dict(good())
    results[("xyz", "free")] = (0, "{truncated")
    rejects(results, "not JSON")


def test_exit_code_disagrees_with_verdict():
    rejects(corrupted(("xyz", "socle"), lambda r: None, code=1), "exit code")


def test_outputs_must_repeat_across_rounds():
    row = {"op": "xyz/free", "error": None, "code": 0}
    result = {"rounds": [[dict(row, digest="a")], [dict(row, digest="b")]],
              "reports": {"a": "{}", "b": "{}"}}
    try:
        run.distinct_outputs(result)
    except SystemExit as e:
        assert "differs between rounds" in str(e)
    else:
        raise AssertionError("differing outputs accepted")


# -- certificates -----------------------------------------------------------------


def test_derlog_non_logarithmic_generator():
    def mutate(r):
        r["certificate"]["generators"][0][0] = "1"
    rejects(corrupted(("xyz", "derlog"), mutate), "not logarithmic")


def test_derlog_wrong_generator_count():
    def mutate(r):
        r["certificate"]["minimal_set"].append(r["certificate"]["minimal_set"][0])
        r["certificate"]["min_generators"] += 1
    rejects(corrupted(("xyz", "derlog"), mutate), "minimal generators")


def test_free_wrong_determinant():
    rejects(corrupted(("xyz", "free"), _set(("certificate", "determinant"), "2*x*y*z")),
            "reported determinant")


def test_free_cofactor_not_a_unit():
    def mutate(r):
        basis = r["certificate"]["basis"]
        basis[0] = [f"x*({c})" for c in basis[0]]
    rejects(corrupted(("xyz", "free"), mutate), "not a unit")


def test_free_basis_not_logarithmic():
    def mutate(r):
        r["certificate"]["basis"][0][0] = "y"
    rejects(corrupted(("xyz", "free"), mutate), "not logarithmic")


def test_artin_wrong_colength():
    def mutate(r):
        r["certificate"]["colength"] += 1
        r["certificate"]["standard_monomials"].append("z^9")
    # the pinch point has no known colength, so the sympy count must catch it
    rejects(corrupted(("pinch", "artin"), mutate), "dim Q[x]/(I + m^(c+1))")


def test_theorem_b_wrong_colength():
    def mutate(r):
        r["certificate"]["colength"] -= 1
    rejects(corrupted(("xyz", "theorem-b"), mutate), "dim Q[x]/(I + m^(c+1))")


def test_socle_representative_not_annihilated():
    rejects(corrupted(("xyz", "socle"), _set(("certificate", "socle_basis"), ["x"])),
            "is not zero in the quotient")


def test_socle_representative_zero():
    rejects(corrupted(("xyz", "socle"), _set(("certificate", "socle_basis"), ["x^2*y*z"])),
            "is zero in the quotient")


# -- known facts and theorems ------------------------------------------------------


def test_free_verdict_flipped():
    rejects(corrupted(("pinch", "free"), _set(("verdict",), True), code=0), "not free")


def test_theorem_b_disagrees_with_saito():
    def mutate(r):
        r["verdict"] = False
    rejects(corrupted(("xyz", "theorem-b"), mutate, code=1), "disagrees with freeness")


def test_theorem_a_false_on_holonomic():
    rejects(corrupted(("xyz", "theorem-a"), _set(("verdict",), False), code=1), "holonomic")


def test_known_colength():
    def mutate(r):
        r["certificate"]["colength"] = 9
        r["certificate"]["standard_monomials"].append("z^9")
    rejects(corrupted(("xyz", "artin"), mutate), "prod(d_i + 1)")


def test_gorenstein_socle():
    def mutate(r):
        r["certificate"]["socle_basis"].append("x*y*z")
        r["certificate"]["socle_dim"] = 2
    rejects(corrupted(("xyz", "socle"), mutate), "Gorenstein")


def test_wiebe_false():
    rejects(corrupted(("xyz", "wiebe"), _set(("verdict",), False), code=1), "Wiebe")


def test_hessian_socle_false():
    rejects(corrupted(("xyz", "hessian-socle"), _set(("verdict",), False), code=1),
            "Hessian-socle")


def test_locus_false():
    rejects(corrupted(("xyz", "locus"), _set(("verdict",), False), code=1), "locus")


def test_oracle_false():
    rejects(corrupted(("xyz", "oracle-check"), _set(("verdict",), False), code=1), "jet oracle")


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    print(f"{len(tests)} checks passed")
