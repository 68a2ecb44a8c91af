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
