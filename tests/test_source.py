"""Properties of the package source itself."""

import ast
from pathlib import Path

import hmlab


def test_no_assert_statements_in_the_package():
    """Runtime checks raise typed HmlabError; an assert would vanish under
    python -O."""
    found = []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_one_jacobi_flow_integrator():
    """The flow derivative is stepped in one place only: radial._jacobi_flow.
    A second RK4 loop would have to call it from somewhere else."""
    callers = set()
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scope = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scope[child] = (node.name if isinstance(node, ast.FunctionDef)
                                else scope.get(node, "<module>"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "_flow_derivative":
                    callers.add((path.stem, scope[node]))
    assert callers == {("radial", "_jacobi_flow")}
