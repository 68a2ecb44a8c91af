"""Properties of the package source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    read and an import cycle would show at once.  The one deferred load is
    scipy's LAPACK wrapper, loaded by ``spectra._lapack`` at the first
    spectral solve or conjugacy check, which keeps it out of every
    command's start-up."""
    found = []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        inside = {inner for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for inner in ast.walk(node)
                  if isinstance(inner, (ast.Import, ast.ImportFrom))}
        found += [(path.stem, ast.unparse(node)) for node in inside]
    assert found == []
    for name in ("find_spec", "module_from_spec", "exec_module"):
        assert calls_by_scope(name) == {("spectra", "_lapack")}


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


def test_one_power_fit():
    """The density peel is the one power fit left and solves its square
    design itself, by LU; the sphere-curvature oracles read their
    coefficients off a flow series.  The one least-squares solve is the
    multiplicity oracle's restriction of the rotation derivative, and no
    Neville peel is left."""
    assert calls_by_scope("lstsq") == {("spectra", "hnm_multiplicity_oracle")}
    assert scopes_of(lambda node: isinstance(node, ast.Call)
                     and getattr(node.func, "attr", None) == "solve"
                     and getattr(node.func.value, "attr", None) == "linalg") \
        == {("radial", "peel_coefficients")}
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name in ("_neville_at_zero",
                                       "_least_squares")) == set()


def test_one_flow_series_reader():
    """The Taylor series of the Jacobi flow is taken by the sphere-curvature
    series only.  Directions are checked by geometry._unit_directions only,
    called by the jet, by the one flow start of the march and the series,
    and by the sphere-curvature oracles' one-direction check."""
    assert calls_by_scope("flow_series") == \
        {("heatinv", "_sphere_curvature_series")}
    assert calls_by_scope("_flow_start") == \
        {("radial", "_jacobi_flow"), ("radial", "flow_series")}
    assert calls_by_scope("_unit_directions") == \
        {("geometry", "curvature_jet"), ("radial", "_flow_start"),
         ("heatinv", "_one_direction")}
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name == "_unit_directions") == \
        {("geometry", "<module>")}


def test_one_monte_carlo_fold():
    """Each Monte Carlo quantity is folded once, by invariants._mc_form,
    straight into the form mc_average evaluates; no intermediate term list
    or squared-only reshaping step is left."""
    assert calls_by_scope("_symmetric_factor") == {("invariants", "_mc_form")}
    assert calls_by_scope("_mc_form") == {("invariants", "mc_average")}
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name in ("_mc_plan", "_squared_form")) == set()


def test_sphere_averages_contract_curvature_factors():
    """Every package call of invariants.sphere_average passes an einsum
    spec string, a literal or a module-level constant, with its curvature
    factors, so no coefficient tensor is handed to it; and the package
    defines no builder of such a tensor (n^4 entries for beta, n^6 for
    tr R_u'R_u') for a caller to average."""
    specs, firsts = {}, []
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        specs |= {target.id: node.value.value for node in tree.body
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Constant)
                  for target in node.targets
                  if isinstance(target, ast.Name)}
        firsts += [node.args[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Call) and getattr(
                       node.func, "id", getattr(node.func, "attr", None))
                   == "sphere_average"]
    assert calls_by_scope("sphere_average") == \
        {("invariants", "verify_average_identities")}
    for arg in firsts:
        spec = (arg.value if isinstance(arg, ast.Constant)
                else specs.get(getattr(arg, "id", None)))
        assert isinstance(spec, str) and spec.count("->") == 1, \
            ast.unparse(arg)
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name in ("beta_tensor",
                                       "grad_quad_tensor")) == set()


def test_one_harmonic_series_closure():
    """The r^6 trace closure is applied in radial.harmonic_density only;
    every density or shape series that needs it goes through that one.  The
    r^5 Jacobi series is read only by harmonic_density, and the shape
    traces are formed inside harmonic_series from its closed series, so no
    caller closes a series by hand or hands the traces an unclosed one."""
    assert calls_by_scope("harmonic_trace_c6") == {("radial", "harmonic_density")}
    assert calls_by_scope("jacobi_series") == {("radial", "harmonic_density")}
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name in ("shape_trace_series",
                                       "extend_with_trace",
                                       "density_series")) == set()


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


def test_the_bidegree_build_runs_on_the_batched_engine():
    """The build projects and rotates whole degrees as PolyBatch steps.  The
    per-element CPoly projection and rotation derivative are left to the
    multiplicity oracle, the independent route the build is compared
    against, and no per-element eigenvector check is defined."""
    oracle = {("spectra", "hnm_multiplicity_oracle")}
    assert calls_by_scope("harmonic_projection") == oracle
    assert calls_by_scope("rotation_derivative") == oracle
    assert scopes_of(lambda node: isinstance(node, ast.FunctionDef)
                     and node.name == "is_i_times") == set()


def test_j_is_prepared_once_where_a_build_or_the_oracle_starts():
    """J becomes integer rows over one denominator where a bidegree build
    or the multiplicity oracle starts, and every exact J-level step (the
    check, the adapted coordinates, each rotation derivative) runs on that
    form; neither rotation derivative converts anything itself."""
    assert calls_by_scope("integer_j") == \
        {("spectra", "build_hnm_basis"), ("spectra", "hnm_multiplicity_oracle")}
    converting = calls_by_scope("_over_one_denominator")
    for rotation in ("rotation_derivative", "rotated", "_rotated"):
        assert ("polynomials", rotation) not in converting


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


def test_one_integer_check():
    """Every integer argument is checked by errors.checked_integer, the one
    reader of numbers.Integral; no function coerces an argument of its own
    with int(), which took 2.5 as 2, True as 1 and "2" as 2."""
    assert scopes_of(lambda node: isinstance(node, ast.Attribute)
                     and node.attr == "Integral") == \
        {("errors", "checked_integer")}
    coercions = set()
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(fn, ast.FunctionDef):
                params = {a.arg for a in ast.walk(fn.args)
                          if isinstance(a, ast.arg)}
                coercions |= {(path.stem, fn.name) for call in ast.walk(fn)
                              if isinstance(call, ast.Call)
                              and getattr(call.func, "id", None) == "int"
                              and call.args
                              and isinstance(call.args[0], ast.Name)
                              and call.args[0].id in params}
    assert coercions == {("errors", "checked_integer")}


def reads(node, names):
    """Whether any of ``names`` is read under ``node``."""
    return any(isinstance(sub, ast.Name) and sub.id in names
               for sub in ast.walk(node))


def test_one_real_check():
    """Every real scalar argument is checked by errors.checked_real, the one
    reader of numbers.Real and the one chained ``above < x < math.inf``; no
    package function outside the command line tests a parameter of its own
    with math.isfinite or a chained comparison to infinity, the hand-written
    checks that took True as 1 and let a string end in a bare TypeError.
    geometry_from_algebra's math.isfinite reads the extremes of its arrays,
    no parameter, and stays."""
    assert scopes_of(lambda node: isinstance(node, ast.Attribute)
                     and node.attr == "Real") == {("errors", "checked_real")}
    checks = set()
    for path in sorted(Path(hmlab.__file__).parent.rglob("*.py")):
        if path.stem == "cli":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            params = {a.arg for a in ast.walk(fn.args)
                      if isinstance(a, ast.arg)}
            for node in ast.walk(fn):
                finite_test = (isinstance(node, ast.Call) and any(
                    ast.unparse(part) == "math.isfinite"
                    for part in [node.func, *node.args])
                    and any(reads(arg, params) for arg in node.args))
                chained = (isinstance(node, ast.Compare)
                           and len(node.comparators) == 2
                           and ast.unparse(node.comparators[1]) in
                           ("math.inf", "np.inf")
                           and reads(node.comparators[0], params))
                if finite_test or chained:
                    checks.add((path.stem, fn.name))
    assert checks == {("errors", "checked_real")}


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
    """scipy's LAPACK wrapper is loaded where the spectral solver and the
    conjugacy check first need it; importing scipy.linalg with the command
    line cost every command ~0.11 s and ~22 MB (measured on a 2-vCPU
    host)."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, hmlab.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


ORACLE_PASSES = """
import sys
import numpy as np
eager = "numpy.ma" in sys.modules
from hmlab.geometry import damek_ricci_geometry
from hmlab.heatinv import alpha2_cross_difference, sphere_intrinsic_oracle
from hmlab.invariants import mc_average
from hmlab.radial import flow_series, ode_oracle, peel_coefficients
geometry = damek_ricci_geometry(3, 1, 1)
u1, u2 = np.eye(12)[0], np.eye(12)[5]
for quantity in ("beta", "grad_quad"):
    mc_average(geometry, quantity, n_samples=10 ** 4, seed=1)
flow = ode_oracle(geometry, u1, (0.15, 0.21, 0.27, 0.33, 0.39, 0.45),
                  steps_per_unit=64)
peel_coefficients(flow.theta_normalized - 1.0, flow.radii, (2, 4))
flow_series(geometry, u1, 6)
alpha2_cross_difference(geometry, u1, u2)
sphere_intrinsic_oracle(geometry, u1)
print(eager, "numpy.ma" in sys.modules)
"""


def test_the_oracle_passes_load_no_numpy_ma():
    """A bare one-dimensional np.unique (no optional output) imports all
    of numpy.ma in numpy 2.x, 8-10 ms and 1.2 MB (measured on a 2-vCPU
    host); the Monte Carlo averages, the Jacobi-flow oracles and the
    peeling that check them need none of it."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", ORACLE_PASSES],
                         capture_output=True, text=True, check=True, env=env)
    eager, loaded = out.stdout.split()
    if eager == "True":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert loaded == "False"


SPECTRAL_COMMANDS = """
import contextlib, io, json, sys
import hmlab.cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [hmlab.cli.main(argv) for argv in (
        ["spectrum", "--k", "2", "--mu", "0.5", "--t-domain", "40"],
        ["isospec", "--family", "3:2,0;1,1", "--max-degree", "1"])]
loaded = sorted(m for m in sys.modules
                if m.startswith(("scipy", "numpy.f2py", "numpy.testing")))
held = hmlab.spectra._lapack.cache_info()
import scipy.linalg
reused = [scipy.linalg._flapack.dstebz is hmlab.spectra._lapack().dstebz,
          scipy.linalg._flapack.dgees is hmlab.spectra._lapack().dgees]
print(json.dumps([codes, loaded, [held.misses, held.hits], reused]))
"""


def test_the_spectral_commands_load_only_scipys_lapack_wrapper():
    """spectrum and isospec reach scipy's LAPACK through the wrapper that
    ``spectra._lapack`` loads once and holds: the scipy.linalg package,
    whose import clones numpy with numpy.f2py and numpy.testing (~0.2 s on
    a 2-vCPU host), is never imported, no scipy module stays in
    sys.modules, the wrapper is loaded once for all the calls, and
    importing scipy.linalg afterwards binds its _flapack with the held
    wrapper's functions."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", SPECTRAL_COMMANDS],
                         capture_output=True, text=True, check=True, env=env)
    codes, loaded, held, reused = json.loads(out.stdout)
    assert codes == [0, 0]
    assert loaded == []
    assert held[0] == 1 and held[1] > 0
    assert reused == [True, True]


def test_the_blas_thread_is_set_before_anything_loads_numpy():
    """OpenBLAS reads OPENBLAS_NUM_THREADS once, when it loads, so the
    package sets it (overwriting, not defaulting) before its first import
    that can load numpy; only ``os`` may be imported ahead of it."""
    tree = ast.parse(Path(hmlab.__file__).read_text())
    setting = [i for i, node in enumerate(tree.body)
               if isinstance(node, ast.Assign)
               and ast.unparse(node) ==
               "os.environ['OPENBLAS_NUM_THREADS'] = '1'"]
    assert len(setting) == 1
    before = [ast.unparse(node) for node in tree.body[:setting[0]]
              if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert before == ["import os"]


IMPORT_FOOTPRINT = """
import json, sys
import hmlab
print(json.dumps(sorted(name for name in vars(hmlab)
                        if not name.startswith("__"))))
import hmlab.geometry
print(json.dumps(sorted(m for m in sys.modules if m.startswith("hmlab"))))
"""


def test_each_name_has_one_import_path():
    """``import hmlab`` binds no function or class (a name is imported from
    its module), so importing the geometry layer in a fresh interpreter
    loads that module and what it imports, and no other layer."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", IMPORT_FOOTPRINT],
                         capture_output=True, text=True, check=True, env=env)
    bound, loaded = map(json.loads, out.stdout.splitlines())
    assert bound == ["os"]
    assert loaded == ["hmlab", "hmlab.clifford", "hmlab.errors",
                      "hmlab.geometry"]


BLAS_THREADS = """
import json
import hmlab.geometry
from worker import blas_threads
print(json.dumps(blas_threads()))
from hmlab.spectra import RadialOperator, radial_spectrum
radial_spectrum(RadialOperator(k=2, n=0, m=0, mu=0.5), 10.0)
print(json.dumps(blas_threads()))
"""


def test_every_openblas_runs_one_thread_after_importing_hmlab():
    """With two threads asked for in the environment, numpy's OpenBLAS
    (loaded by importing hmlab.geometry) and scipy's own (loaded with its LAPACK
    wrapper by the first radial solve) each report one thread, queried as
    the benchmark's worker queries every BLAS mapped into its process."""
    src = str(Path(hmlab.__file__).resolve().parent.parent)
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, bench, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", BLAS_THREADS],
                         capture_output=True, text=True, check=True, env=env)
    after_hmlab, after_scipy = (
        {lib: n for lib, n in json.loads(line).items()
         if "openblas" in lib.lower()} for line in out.stdout.splitlines())
    if not after_scipy:
        pytest.skip("no OpenBLAS is loaded by numpy or scipy")
    assert set(after_hmlab.values()) <= {1}
    assert set(after_scipy.values()) == {1}
