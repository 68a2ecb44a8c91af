"""Layer spans recorded from outside the program.

``install`` wraps every public function of each hmlab module (and the
methods of ``TruncatedSeries``, where the series layer does its work) and
rebinds every module attribute that held the original, so calls made
through ``from .x import f`` names are traced too.  Each call becomes a
span: name, start, end, parent span and the pass and job it belongs to.
Spans stay in memory until the pass ends.

A span's self time is its duration minus that of its child spans; the
program is single-threaded at the Python level, so children never
overlap.  Self time is charged to the layer metric named in ``SELF_TIME``,
else to the module's entry in ``MODULE_SELF_TIME``, else to no reported
metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("clifford", "geometry", "invariants", "radial", "heatinv",
           "series", "exactlinalg", "sis", "polynomials", "spectra", "cli")

SELF_TIME = {
    "geometry.curvature_jet": "geometry.jet_s",
    "geometry.covariant_derivative": "geometry.covariant_s",
    "invariants.verify_harmonicity": "invariants.harmonicity_s",
    "invariants.direction_constants": "invariants.harmonicity_s",
    "invariants.c_tensor": "invariants.tensor_s",
    "invariants.h_tensor": "invariants.tensor_s",
    "invariants.r_cube_tensor": "invariants.tensor_s",
    "invariants.grad_quad_tensor": "invariants.tensor_s",
    "invariants.beta_tensor": "invariants.tensor_s",
    "invariants.sphere_average": "invariants.sphere_average_s",
    "invariants.mc_average": "invariants.mc_s",
    "radial.ode_oracle": "radial.flow_s",
    "heatinv.sphere_intrinsic_curvature": "heatinv.flow_s",
    "heatinv.alpha2_cross_difference": "heatinv.flow_s",
    "heatinv.sphere_intrinsic_oracle": "heatinv.flow_s",
    "polynomials.harmonic_projection": "polynomials.projection_s",
    "polynomials.harmonic_decomposition": "polynomials.projection_s",
    "spectra.build_hnm_basis": "spectra.hnm_basis_s",
    "spectra.hnm_basis_for_lattice": "spectra.hnm_basis_s",
    "spectra.radial_spectrum": "spectra.radial_spectrum_s",
}

MODULE_SELF_TIME = {
    "clifford": "clifford.build_s",
    "geometry": "geometry.build_s",
    "radial": "radial.series_s",
    "heatinv": "heatinv.boundary_s",
    "series": "series.s",
    "exactlinalg": "exactlinalg.s",
    "sis": "sis.s",
    "cli": "cli.self_s",
}

CALLS = {
    "geometry.curvature_jet": "geometry.jet_calls",
    "invariants.direction_constants": "invariants.direction_calls",
    "invariants.point_invariants": "invariants.point_invariants_calls",
    "radial.ode_oracle": "radial.flow_calls",
    "polynomials.harmonic_projection": "polynomials.projection_calls",
    "spectra.build_hnm_basis": "spectra.hnm_basis_calls",
    "spectra.radial_spectrum": "spectra.radial_spectrum_calls",
}

TENSORS = {"invariants.c_tensor", "invariants.h_tensor",
           "invariants.r_cube_tensor", "invariants.grad_quad_tensor",
           "invariants.beta_tensor"}

# Helpers left unwrapped, so their time counts as their caller's: the
# Monte Carlo direction sampler belongs to the Monte Carlo layer.
UNWRAPPED = {"invariants.random_directions"}

# Not method calls worth a span: construction and printing.
SKIPPED_METHODS = {"__init__", "__repr__"}


def _extra(name, fn, args, kwargs, result):
    """The per-call quantity a layer ratio needs, or None."""
    if name in TENSORS:
        return result.nbytes
    if name == "invariants.mc_average":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["n_samples"]
    if name == "spectra.radial_spectrum":
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        return repr(sorted(bound.arguments.items()))
    return None


class Recorder:
    """Spans of one pass: [name, start, end, parent index, job, extra].

    Calls are recorded only while ``job`` is set, so the benchmark's own
    checks, which call the program too, leave no spans.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.job = None
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.job,
                    None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            span[5] = _extra(name, fn, args, kwargs, result)
            return result
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "run": self.run_id, "job": job}) + "\n")


def install(recorder):
    """Wrap the public functions of every hmlab module and rebind them."""
    modules = [importlib.import_module(f"hmlab.{m}") for m in MODULES]
    wrapped = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                    and not attr.startswith("_") and name not in UNWRAPPED
                    and not inspect.isgeneratorfunction(obj)):
                wrapped[obj] = recorder.wrap(name, obj)
    for module in [sys.modules["hmlab"]] + modules:
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, attr, wrapped[obj])
    series_cls = sys.modules["hmlab.series"].TruncatedSeries
    for attr, obj in list(vars(series_cls).items()):
        if inspect.isfunction(obj) and attr not in SKIPPED_METHODS:
            setattr(series_cls, attr, recorder.wrap(f"series.{attr}", obj))


def layer_metrics(spans):
    """Self times, call counts and ratios, keyed by metric name."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out = {}
    tensor_bytes = mc_samples = mc_time = 0.0
    solves = set()
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        metric = SELF_TIME.get(name) or MODULE_SELF_TIME.get(
            name.split(".", 1)[0])
        if metric:
            out[metric] = out.get(metric, 0.0) + (end - start - child_time[i])
        if name in CALLS:
            out[CALLS[name]] = out.get(CALLS[name], 0) + 1
        if name.startswith("exactlinalg."):
            out["exactlinalg.calls"] = out.get("exactlinalg.calls", 0) + 1
        if name in TENSORS:
            tensor_bytes += extra
        elif name == "invariants.mc_average":
            mc_samples += extra
            mc_time += end - start
        elif name == "spectra.radial_spectrum":
            solves.add(extra)
    out["invariants.tensor_mb"] = tensor_bytes / 1e6
    out["invariants.mc_samples_per_s"] = mc_samples / mc_time if mc_time else 0.0
    calls = out.get("spectra.radial_spectrum_calls", 0)
    out["spectra.radial_spectrum_unique_frac"] = \
        len(solves) / calls if calls else 0.0
    return out
