"""Problem-file parsing, CLI exit codes, JSON reports, and determinism."""

import json
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from logderiv import cli, divisors, quotients
from logderiv.cli import main, to_jsonable
from logderiv.parse import ParseError, parse_expr, parse_input
from logderiv.poly import CertificationError, Polynomial, Ring, exact_div

R = Ring(["x", "y"])
X, Y = R.gens()

SCHEMA = json.loads(resources.files("logderiv").joinpath("report_schema.json").read_text())

WHITNEY = """\
# pinch point
ring: x, y, z
f: x^2 - y^2*z
gamma: x^2 + y^2 + z^2
gamma_space: x^2; y^2; z^2
"""

QUINTIC = """\
ring: x, y, z
f: x*y*(x+y)*(x-y)*(y-x*z)
gamma: x^2 + y^2 + z^2
gamma_space: x^2; y^2; z^2
locus: x, y
"""

A3 = """\
ring: x, y, z
f: x*y*z*(x-y)*(x-z)*(y-z)
gamma: x^2 + y^2 + z^2
"""

SWALLOWTAIL = """\
ring: x, y, z
f: 256*z^3 - 128*x^2*z^2 + 144*x*y^2*z - 27*y^4 + 16*x^4*z - 4*x^3*y^2
gamma: x^2 + y^2 + z^2
locus: x, y, z
"""

# reduced plane curves whose Theta(gamma) is a colength-11 complete intersection
PLANE_CURVES = [
    "f: (x-y)*(x+y)*(x+2*y)*(2*x-3*y)*(2*x+3*y) + 5*x*y^5\ngamma: 4*x^2 + y^2\n",
    "f: (x-y)*(x+y)*(2*x-3*y)*(3*x-2*y)*(3*x-y) + 4*x^2*y^4\ngamma: 2*x^2 + 3*y^2\n",
]

# explicit thetas for f = x*y that are not a basis of Der(-log D), each with
# the certificate field that records why
NOT_A_BASIS = [
    ("(x, 0)", "min_generators"),
    ("(x^2, 0); (0, y)", "cofactor"),
    ("(x^2, 0); (0, y); (x*y, 0)", "min_generators"),
]

coeffs = st.builds(Fraction, st.integers(-99, 99).filter(bool), st.integers(1, 30))
monos = st.tuples(st.integers(0, 6), st.integers(0, 6))
polys = st.dictionaries(monos, coeffs, max_size=6).map(
    lambda d: Polynomial(R, dict(d))
)


class TestExpressions:
    def test_literals_and_precedence(self):
        assert parse_expr(R, "2*x + 3/2*y^2") == 2 * X + Fraction(3, 2) * Y**2
        assert parse_expr(R, "x - y - y") == X - 2 * Y
        assert parse_expr(R, "-(x + y)^2") == -((X + Y) ** 2)
        assert parse_expr(R, "x*y^2") == X * Y**2

    @settings(max_examples=50, deadline=None)
    @given(polys)
    def test_print_parse_roundtrip(self, p):
        assert parse_expr(R, str(p)) == p

    @pytest.mark.parametrize(
        "bad", ["x +", "w", "1/0", "x^y", "(x", "x**y", "3.5*x"]
    )
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_expr(R, bad)


class TestProblemFile:
    def test_full_file(self):
        pf = parse_input(QUINTIC)
        x, y, z = pf.ring.gens()
        assert pf.f == x * y * (x + y) * (x - y) * (y - x * z)
        assert pf.gamma == x**2 + y**2 + z**2
        assert pf.gamma_space == [x**2, y**2, z**2]
        assert pf.locus == [x, y]

    def test_theta_vectors(self):
        pf = parse_input("ring: x, y\ntheta: (x, 0); (0, y)")
        x, y = pf.ring.gens()
        assert pf.theta == [[x, pf.ring.zero()], [pf.ring.zero(), y]]

    def test_error_positions(self):
        with pytest.raises(ParseError) as e:
            parse_input("ring: x, y\nf: x + q")
        assert e.value.line == 2

    @pytest.mark.parametrize(
        "text",
        [
            "f: x",  # ring missing
            "ring: x\nring: y",  # duplicate
            "ring: x\nbogus: x",  # unknown key
            "ring: x, x",  # duplicate variable
            "ring: x\ntheta: (x, x)",  # wrong arity
        ],
    )
    def test_structural_errors(self, text):
        with pytest.raises(ParseError):
            parse_input(text)


@pytest.fixture()
def problem(tmp_path):
    def write(text, name="prob.lgd"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestCLI:
    def test_exit_codes(self, problem, capsys):
        whit = problem(WHITNEY)
        assert main(["free", whit]) == 1
        assert main(["derlog", whit]) == 0
        assert main(["theorem-b", whit]) == 2
        assert main(["free", "no-such-file.lgd"]) == 3
        capsys.readouterr()

    def test_free_quintic(self, problem, capsys):
        q = problem(QUINTIC)
        assert main(["free", q]) == 0
        out = capsys.readouterr().out
        assert "verdict: true" in out

    def test_generic_arrangement_not_free(self, problem, capsys):
        path = problem("ring: x, y, z\nf: x*y*z*(x+y+z)\n")
        assert main(["free", path, "--json"]) == 1
        rep = json.loads(capsys.readouterr().out)
        assert rep["certificate"] == {"min_generators": 4}

    def test_certification_error_exit(self, problem, capsys, monkeypatch):
        def broken(D, theta):
            raise CertificationError("cofactor must be a local unit for a free divisor")

        monkeypatch.setattr(cli, "saito_free_check", broken)
        assert main(["free", problem(QUINTIC), "--json"]) == 4
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert rep["verdict"] is None and rep["certificate"] is None
        assert rep["diagnostics"] == ["cofactor must be a local unit for a free divisor"]
        assert "certification failure" in captured.err

    def test_parse_error_exit(self, problem, capsys):
        bad = problem("ring: x\nf: x +")
        assert main(["free", bad]) == 3
        capsys.readouterr()

    def test_json_matches_schema(self, problem, capsys):
        for cmd, code in [("free", 1), ("derlog", 0), ("socle", 0), ("theorem-b", 2)]:
            whit = problem(WHITNEY)
            assert main([cmd, whit, "--json"]) == code
            rep = json.loads(capsys.readouterr().out)
            jsonschema.validate(rep, SCHEMA)
            assert rep["command"] == cmd
            assert rep["timings_ms"] is None

    def test_json_certificates_are_strings(self, problem, capsys):
        whit = problem(WHITNEY)
        main(["derlog", whit, "--json"])
        rep = json.loads(capsys.readouterr().out)
        gens = rep["certificate"]["generators"]
        assert all(isinstance(c, str) for g in gens for c in g)

    def test_timings_flag(self, problem, capsys):
        whit = problem(WHITNEY)
        main(["derlog", whit, "--json", "--timings"])
        rep = json.loads(capsys.readouterr().out)
        assert isinstance(rep["timings_ms"]["total"], float)

    def test_seed_echoed(self, problem, capsys):
        whit = problem(WHITNEY)
        main(["theorem-a", whit, "--json", "--seed", "17"])
        rep = json.loads(capsys.readouterr().out)
        assert rep["seed"] == 17

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("theorem-a", "--retries", "0"),
            ("theorem-a", "--coeff-bound", "-5"),
            ("oracle-check", "--jet-cutoff", "-1"),
        ],
    )
    def test_out_of_range_flag_is_input_error(self, problem, capsys, command, flag, value):
        assert main([command, problem(WHITNEY), flag, value, "--json"]) == 3
        captured = capsys.readouterr()
        rep = json.loads(captured.out)
        jsonschema.validate(rep, SCHEMA)
        assert rep["verdict"] is None and rep["certificate"] is None
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize(
        "text, calls",
        [
            (A3, {"graded_derlog": 1}),
            (QUINTIC, {"graded_derlog": 1, "syzygy_derlog": 1}),
        ],
        ids=["a3", "quintic"],
    )
    def test_oracle_check_one_derlog(self, problem, capsys, monkeypatch, text, calls):
        # Der(-log D) is computed once per germ, though both the jet
        # cross-check and Theta(gamma) use it
        seen = {}
        for name in calls:
            def counted(D, _name=name, _fn=getattr(divisors, name)):
                seen[_name] = seen.get(_name, 0) + 1
                return _fn(D)

            monkeypatch.setattr(divisors, name, counted)
        assert main(["oracle-check", problem(text), "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert seen == calls
        jet = {A3: 24, QUINTIC: None}[text]
        assert rep["certificate"] == {
            "colength_jets": {"jet": jet, "symbolic": jet, "verdict": True},
            "derlog_jets": {
                "generators_in_jet_span": True,
                "jet_dimension": 5,
                "jets_in_module": True,
                "verdict": True,
            },
        }

    @pytest.mark.parametrize("first", ["x*y^2, -x^2*y, 0", "0, 0, 0"])
    def test_theorem_b_basis_after_zero_image(self, problem, capsys, first):
        # the first derivation maps gamma to 0, so Theta(gamma) has no
        # generator for it; the basis must still lift the kept generators
        R3 = Ring(["x", "y", "z"])
        x, y, z = R3.gens()
        f, gamma = x * y * z, x**2 + y**2 + z**2
        theta = f"({first}); (x, 0, 0); (0, y, 0); (0, 0, z)"
        path = problem(f"ring: x, y, z\nf: x*y*z\ngamma: x^2 + y^2 + z^2\ntheta: {theta}\n")
        assert main(["theorem-b", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, SCHEMA)
        basis = [[parse_expr(R3, c) for c in d] for d in rep["certificate"]["basis"]]
        assert [divisors.apply_derivation(d, gamma) for d in basis] == [2 * x**2, 2 * y**2, 2 * z**2]
        u = exact_div(divisors.saito_matrix(basis, R3).det(), f)
        assert u is not None and u.constant_term() != 0

    @pytest.mark.parametrize(
        "text",
        ["ring: x, y\nf: x^2*y\ngamma: x^2+y^2\n", "ring: x\nf: x^2\ngamma: x^2\n"],
        ids=["x^2*y", "x^2"],
    )
    def test_theorem_b_needs_a_reduced_divisor(self, problem, capsys, text):
        # f * J_gamma lies in Theta(gamma) here, but f is not reduced: the
        # same file that `free` calls not free is no free verdict
        path = problem(text)
        assert main(["free", path]) == 1
        capsys.readouterr()
        assert main(["theorem-b", path, "--json"]) == 2
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, SCHEMA)
        assert rep["verdict"] is False
        [failure] = rep["certificate"]["precondition_failures"]
        assert failure.startswith("divisor is not reduced: dim V(f, jacobian) = ")
        assert rep["diagnostics"] == [failure]

    def test_theorem_b_against_saito_is_not_generic(self, problem, capsys, monkeypatch):
        # membership that Saito's criterion contradicts shows a gamma that is
        # not generic: a failed precondition that keeps both findings
        monkeypatch.setattr(quotients, "saito_free_check", lambda D, theta: divisors.Verdict(False))
        path = problem("ring: x, y\nf: x*y*(x+y)\ngamma: x^2 + y^2\n")
        assert main(["theorem-b", path, "--json"]) == 2
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, SCHEMA)
        assert rep["verdict"] is False
        assert rep["certificate"] == {
            "precondition_failures": [
                "gamma is not generic: f * J_gamma lies in Theta(gamma), but Saito says not free"
            ],
            "memberships": [True, True],
            "saito_agrees": False,
        }

    def test_subprocess_determinism(self, problem):
        whit = problem(WHITNEY)
        runs = [
            subprocess.run(
                [sys.executable, "-m", "logderiv.cli", "theorem-a", whit,
                 "--seed", "42", "--json"],
                capture_output=True,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stdout == runs[1].stdout


class TestArtinianGerms:
    """Commands on finite-colength quotients that ran away in Mora's standard
    basis, the syzygy colon, the Rabinowitsch basis or the greedy local
    minimal generators."""

    def _json(self, capsys, argv, code=0):
        assert main(argv + ["--json"]) == code
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, SCHEMA)
        return rep["certificate"]

    def test_swallowtail_socle(self, problem, capsys):
        cert = self._json(capsys, ["socle", problem(SWALLOWTAIL)])
        assert cert == {"algebra_dim": 8, "socle_basis": ["z^3"], "socle_dim": 1}

    def test_swallowtail_wiebe(self, problem, capsys):
        cert = self._json(capsys, ["wiebe", problem(SWALLOWTAIL)])
        assert cert["delta_generates_ann_J"] and cert["J_is_ann_delta"]

    def test_swallowtail_locus(self, problem, capsys):
        cert = self._json(capsys, ["locus", problem(SWALLOWTAIL)])
        pairs = cert["I_in_sqrt_candidate"] + cert["candidate_in_sqrt_I"]
        assert len(pairs) == 7 and all(ok for _, ok in pairs)

    @pytest.mark.parametrize("curve", PLANE_CURVES)
    def test_plane_curve_artin(self, problem, capsys, curve):
        cert = self._json(capsys, ["artin", problem("ring: x, y\n" + curve)])
        assert cert["colength"] == 11
        assert cert["min_generators"] == 2
        assert cert["complete_intersection"]

    @pytest.mark.parametrize("curve", PLANE_CURVES)
    def test_plane_curve_derlog(self, problem, capsys, curve):
        cert = self._json(capsys, ["derlog", problem("ring: x, y\n" + curve)])
        assert len(cert["generators"]) == 5
        assert cert["min_generators"] == 2
        assert cert["minimal_set"] == cert["generators"][3:]

    @pytest.mark.parametrize("curve", PLANE_CURVES)
    def test_plane_curve_free(self, problem, capsys, curve):
        self._json(capsys, ["free", problem("ring: x, y\n" + curve)])
        cert = self._json(capsys, ["theorem-b", problem("ring: x, y\n" + curve)])
        assert cert["colength"] == 11

    def test_swallowtail_hessian_socle_one_derlog(self, problem, capsys, monkeypatch):
        calls = []
        syzygy_derlog = divisors.syzygy_derlog

        def counted(D):
            calls.append(D)
            return syzygy_derlog(D)

        monkeypatch.setattr(divisors, "syzygy_derlog", counted)
        cert = self._json(capsys, ["hessian-socle", problem(SWALLOWTAIL)])
        assert len(calls) == 1
        assert cert == {
            "delta": "x^3*y^2 - 4*x^4*z + 27/4*y^4 - 36*x*y^2*z + 32*x^2*z^2 - 64*z^3",
            "hessian_in_socle": True,
            "saito_ideal_equality": True,
        }


class TestExplicitTheta:
    """A theta that is not all of Der(-log D) decides nothing about D."""

    @pytest.mark.parametrize("theta, field", NOT_A_BASIS)
    def test_not_a_basis_is_a_precondition_failure(self, problem, capsys, theta, field):
        path = problem(f"ring: x, y\nf: x*y\ntheta: {theta}\n")
        assert main(["free", path, "--json"]) == 2
        rep = json.loads(capsys.readouterr().out)
        jsonschema.validate(rep, SCHEMA)
        assert rep["verdict"] is False
        assert field in rep["certificate"]

    def test_basis_still_decides(self, problem, capsys):
        path = problem("ring: x, y\nf: x*y\ntheta: (x, 0); (0, y)\n")
        assert main(["free", path, "--json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["certificate"]["unit_cofactor"] == "1"

    def test_optimized_interpreter(self, problem):
        theta, field = NOT_A_BASIS[1]
        path = problem(f"ring: x, y\nf: x*y\ntheta: {theta}\n")
        run = subprocess.run(
            [sys.executable, "-O", "-m", "logderiv.cli", "free", path, "--json"],
            capture_output=True,
        )
        assert run.returncode == 2, run.stderr
        rep = json.loads(run.stdout)
        jsonschema.validate(rep, SCHEMA)
        assert field in rep["certificate"]


class TestJsonable:
    def test_polynomials_and_fractions(self):
        assert to_jsonable({"p": X + 1, "c": Fraction(1, 2)}) == {
            "p": "x + 1",
            "c": "1/2",
        }
        assert to_jsonable([(X, Y)]) == [["x", "y"]]
