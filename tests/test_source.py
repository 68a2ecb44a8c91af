"""Properties of the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import hmlab
from hmlab.series import TruncatedSeries


def test_no_assert_statements_in_the_package():
    """Runtime checks raise typed HmlabError; an assert would vanish under
    python -O."""
    found = []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def identifiers(node):
    """Every name, attribute and imported name used under ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add((sub.asname or sub.name).rsplit(".", 1)[-1])
    return out


def test_every_definition_is_reached():
    """The package is what a command, the release gate or the benchmark
    reaches.  Roots: every identifier in cli.py, the gate and its fixtures,
    and bench/*.py, plus the module-level statements of the package other
    than its imports.  A top-level function or class is reached when its
    name is a root or is used in the body of a reached definition.  Oracles
    that only tests compare against live in those tests."""
    repo = Path(__file__).resolve().parent.parent
    package = repo / "src" / "hmlab"
    entry = [package / "cli.py", repo / "tests" / "test_acceptance.py",
             repo / "tests" / "conftest.py",
             *sorted((repo / "bench").glob("*.py"))]
    reached = set()
    for path in entry:
        reached |= identifiers(ast.parse(path.read_text()))
    definitions = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= identifiers(node)
    todo = list(reached)
    while todo:
        for _, node in definitions.get(todo.pop(), []):
            new = identifiers(node) - reached
            reached |= new
            todo += new
    unreached = sorted(f"{module}.{name}" for name, defs in definitions.items()
                       for module, _ in defs if name not in reached)
    assert unreached == []


def scopes_of(match):
    """(module, enclosing function) of every node of the package for which
    ``match(node)`` holds; the scope at module level is '<module>'."""
    found = set()
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scope = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                scope[child] = (node.name if isinstance(node, ast.FunctionDef)
                                else scope.get(node, "<module>"))
        found |= {(path.stem, scope[node]) for node in ast.walk(tree)
                  if match(node)}
    return found


def calls_by_scope(name):
    """(module, enclosing function) of every call to ``name`` in the package."""
    def is_call(node):
        return isinstance(node, ast.Call) and name == getattr(
            node.func, "id", getattr(node.func, "attr", None))
    return scopes_of(is_call)


def test_imports_inside_functions_are_the_deferred_scipy_ones():
    """Every import sits at module top, where a module's dependencies can be
    read and an import cycle would show at once.  The two exceptions defer
    scipy.linalg to the spectral solver and the conjugacy check, which keeps
    it out of every command's start-up."""
    found = []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {inner for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)
                  if isinstance(inner, (ast.Import, ast.ImportFrom))}
        found += [(path.stem, ast.unparse(node)) for node in inside]
    assert found == [("spectra", "import scipy.linalg")] * 2


def test_only_polynomials_reads_the_coefficient_representation():
    """CPoly's integer pairs over one denominator are read through its
    methods; a module reading ``.terms`` or ``.den`` itself would have to
    change with the representation."""
    found = []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        if path.stem == "polynomials":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("terms", "den")]
    assert found == []


def test_one_jacobi_flow_integrator():
    """The flow derivative is stepped in one place only: radial._jacobi_flow.
    A second RK4 loop would have to call it from somewhere else."""
    assert calls_by_scope("_flow_derivative") == {("radial", "_jacobi_flow")}


def test_one_sphere_curvature_fit():
    """Both sphere-curvature oracles fit through heatinv._fit_powers, which
    checks the design first; the other least-squares solve is the
    multiplicity oracle's restriction of the rotation derivative."""
    assert calls_by_scope("lstsq") == \
        {("heatinv", "_fit_powers"), ("spectra", "hnm_multiplicity_oracle")}


def test_one_harmonic_series_closure():
    """The r^6 trace closure is applied in radial.harmonic_density only;
    every density or shape series that needs it goes through that one."""
    assert calls_by_scope("harmonic_trace_c6") == {("radial", "harmonic_density")}


def test_covariant_derivatives_stop_at_nabla_r():
    """Jets of every order are built from nabla R; no second covariant
    derivative (an n^6 array) is formed anywhere in the package."""
    assert calls_by_scope("covariant_derivative") == {("geometry", "nabla_r")}


def test_one_complex_structure_check_and_adaptation_per_build():
    """J is checked and its adapted coordinates are built once per bidegree
    build, for all degrees; the multiplicity oracle checks its own J."""
    assert calls_by_scope("adapted_coordinates") == \
        {("spectra", "build_hnm_basis")}
    assert calls_by_scope("_check_complex_structure") == \
        {("spectra", "build_hnm_basis"), ("spectra", "hnm_multiplicity_oracle")}


def test_j_is_prepared_once_where_a_build_or_the_oracle_starts():
    """J becomes integer rows over one denominator where a bidegree build
    or the multiplicity oracle starts, and every exact J-level step (the
    check, the adapted coordinates, each rotation derivative) runs on that
    form; the rotation derivative converts nothing itself."""
    assert calls_by_scope("integer_j") == \
        {("spectra", "build_hnm_basis"), ("spectra", "hnm_multiplicity_oracle")}
    assert ("polynomials", "rotation_derivative") not in \
        calls_by_scope("_over_one_denominator")


def test_reports_are_written_in_one_place():
    """cli.report_value is the one place that writes a Fraction as
    [numerator, denominator], and cli.write_report the one that stamps the
    schema version; the other reader of a Fraction's parts is exact
    arithmetic."""
    assert scopes_of(lambda node: isinstance(node, ast.Attribute)
                     and node.attr in ("numerator", "denominator")) == \
        {("cli", "report_value"), ("polynomials", "_over_one_denominator")}
    assert scopes_of(lambda node: isinstance(node, ast.Constant)
                     and node.value == "schema_version") == \
        {("cli", "write_report")}


def test_truncated_series_has_one_window_rule():
    """A series knows the powers offset..offset + len(coeffs) - 1; any
    further slot would be hidden state for a second window mode."""
    assert TruncatedSeries.__slots__ == ("offset", "coeffs")


def test_the_command_line_imports_no_sparse_scipy():
    """Importing scipy.sparse would add to the start-up of every command
    (9-16 ms on top of hmlab.cli, measured on a 2-vCPU host), and nothing in
    the package needs it: exact elimination keeps its own sparse rows, and
    the Monte Carlo sampler sums one dense coefficient vector."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, hmlab.cli; print('scipy.sparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_the_command_line_imports_no_scipy():
    """scipy.linalg is imported where the spectral solver and the
    conjugacy check first need it; importing it with the command line
    cost every command ~0.11 s and ~22 MB (measured on a 2-vCPU host)."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hmlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
