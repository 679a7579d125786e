"""Source-level invariants of the package."""

import ast
from pathlib import Path

import logderiv
from logderiv import engine, ideals

SRC = Path(logderiv.__file__).parent


def test_no_assert_statements():
    # certification checks must still run under `python -O`, which strips asserts
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def _references(node, name, scope=None):
    """(enclosing function, line) of every name, attribute, import or string `name`."""
    if isinstance(node, ast.FunctionDef):
        scope = node.name
    label = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.Constant: "value"}
    if getattr(node, label.get(type(node), ""), None) == name:
        yield scope, node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _references(child, name, scope)


def test_mora_only_inside_normal_form():
    # Mora's weak normal form only serves the local standard basis, through
    # engine.normal_form; every other local question uses the global engine
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{line} in {scope}"
            for scope, line in _references(tree, "mora_nf")
            if (path.name, scope) != ("engine.py", "normal_form")
        ]
    assert not found, f"mora_nf named outside engine.normal_form: {found}"


def test_jet_oracle_apart_from_the_checked_path():
    # the jet oracle re-derives Der(-log D) and the colength by its own
    # linear algebra: it names nothing of the engine, nothing of ideals but
    # the monomial list, and none of the paths it checks
    def own(module):
        defined = {n for n, v in vars(module).items() if getattr(v, "__module__", None) == module.__name__}
        return defined | {module.__name__.rpartition(".")[2]}

    banned = own(engine) | own(ideals) - {"monomials_below"}
    banned |= {"graded_derlog", "_graded_piece", "syzygy_derlog"}
    banned |= {"_settle", "_build_rowbasis", "artin_reducer", "LocalArtinReducer"}
    tree = ast.parse((SRC / "jets.py").read_text(encoding="utf-8"))
    oracle = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("jet_derlog", "jet_colength")
    ]
    assert len(oracle) == 2
    found = [
        f"jets.py:{line} in {scope}: {name}"
        for node in oracle
        for name in sorted(banned)
        for scope, line in _references(node, name)
    ]
    assert not found, f"the jet oracle names the path it checks: {found}"


def test_ideals_of_the_artin_algebra_are_subspaces():
    # an ideal of A = O/I is a subspace of A: coset ideals, annihilators and
    # the socle never rebuild an ideal of O from I and representatives, nor
    # read I's generators; the checks built on them ask no lifted question
    lift = {"IdealData", "ideal_membership", "ideal_equal", "ideal_quotient", "artin_reducer"}
    banned = {
        "CosetIdeal": lift | {"ideal"},
        "annihilator": lift | {"ideal"},
        "socle": lift | {"ideal"},
        "wiebe_check": {"ideal_membership", "ideal_equal", "ideal_quotient"},
        "hessian_socle_check": {"ideal_membership", "ideal_quotient"},
    }
    tree = ast.parse((SRC / "quotients.py").read_text(encoding="utf-8"))
    checked = [node for node in tree.body if getattr(node, "name", None) in banned]
    assert len(checked) == len(banned)
    found = [
        f"quotients.py:{line} in {scope or node.name}: {name}"
        for node in checked
        for name in sorted(banned[node.name])
        for scope, line in _references(node, name)
    ]
    assert not found, f"an ideal of the Artin algebra is lifted to O: {found}"
