"""The benchmark's workloads: the jobs of one pass and the check of each job.

A job runs the program the way a user does, through ``hmlab.cli.main`` or
the public library functions, and returns what it produced.  Its check
then raises ``CheckFailed`` unless that output meets the release-gate
criteria or equals the exact output recorded in ``expected.json``.  Job
time and check time are measured apart, so checking costs the measured
job nothing.

Seeds: the benchmark seed goes to ``verify --seed``, ``expand --seed``,
the Monte Carlo sampler and the flow directions.  ``counterexample``,
``isospec`` and ``sis`` accept ``--seed`` but ignore it, so their jobs
are run without it and do not depend on the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")

PAIR = "3:2,0;1,1"          # the two 12-dim Damek-Ricci members
ISOSPEC_PAIR = ["isospec", "--family", PAIR, "--max-degree", "3",
                "--grid", "128"]
COUNTEREXAMPLE = ["counterexample", "--family", PAIR]
SIS = ["sis", "--family", "3:2,0"]
SPECTRUM = ["spectrum", "--k", "2", "--n", "0", "--m", "0", "--mu", "0.5",
            "--t-domain", "40", "--grid", "256"]
AGREEING_COLUMNS = ("C", "H", "L", "A2", "A4", "A6")


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    name: str
    group: str      # the per-job time this job counts towards
    run: object     # run(ctx) -> output
    check: object   # check(ctx, output), raises CheckFailed


@dataclass
class CliOutput:
    code: int
    text: str

    def json(self):
        return json.loads(self.text)


def run_cli(argv):
    import hmlab.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hmlab.cli.main(argv)
    return CliOutput(code=code, text=buf.getvalue())


def cli_job(name, group, argv, check):
    return Job(name, group, lambda ctx: run_cli(argv(ctx)), check)


def load_expected():
    return json.loads(EXPECTED_PATH.read_text())


def rel_diff(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# -- verify_pair ----------------------------------------------------------------


def check_verify(ctx, out):
    require(out.code == 0, f"verify exited {out.code}")
    report = out.json()
    require(report["passed"] is True, "verify report not passed")
    require([m["member"] for m in report["members"]]
            == ["l3-a2b0", "l3-a1b1"], "verify members")
    for member in report["members"]:
        require(member["passed"] is True, f"{member['member']} not passed")
        for block in member["blocks"]:
            for row in block["rows"]:
                require(row["passed"] and row["rel_residual"] <= row["tolerance"],
                        f"{member['member']} {row['identity']} "
                        f"{row['rel_residual']:.3e} > {row['tolerance']:.0e}")


VERIFY_PAIR = [
    cli_job("verify", "verify_s",
            lambda ctx: ["verify", "--family", PAIR, "--directions", "100",
                         "--seed", str(ctx["seed"])],
            check_verify),
]


# -- oracles_pair ---------------------------------------------------------------


def build_pair(ctx):
    from hmlab.geometry import damek_ricci_geometry
    pair = [damek_ricci_geometry(3, 2, 0), damek_ricci_geometry(3, 1, 1)]
    for geo in pair:
        geo.nabla_r
    ctx["pair"] = pair
    return pair


def check_pair(ctx, pair):
    require([geo.dim for geo in pair] == [12, 12], "pair is not 12-dim")


def seeded_unit_vectors(ctx, count, salt):
    import numpy as np
    rng = np.random.default_rng([ctx["seed"], salt])
    g = rng.standard_normal((count, 12))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def mc_job(quantity):
    def run(ctx):
        from hmlab.invariants import mc_average
        return mc_average(ctx["pair"][1], quantity, n_samples=10 ** 6,
                          seed=ctx["seed"])
    return Job(f"mc_{quantity}", "mc_s", run, check_mc(quantity))


def check_mc(quantity):
    def check(ctx, result):
        # closed forms of the two averages (gate check 4), from the point
        # invariants, so the check builds no sphere tensor
        from hmlab.invariants import point_invariants
        pi = point_invariants(ctx["pair"][1])
        n = pi.dim
        if quantity == "beta":
            exact = (n * pi.c ** 3 - 0.25 * pi.r_hat + 2.0 * pi.r_ring) \
                / (n * (n + 2))
        else:
            exact = 3.0 * pi.grad_r_sq / (n * (n + 2) * (n + 4))
        mean, stderr = result
        require(stderr > 0.0, f"{quantity} standard error is {stderr}")
        z = abs(mean - exact) / stderr
        require(z < 4.0, f"{quantity} Monte Carlo z = {z:.2f} >= 4")
    return check


FLOW_RADII = (0.15, 0.21, 0.27, 0.33, 0.39, 0.45)


def flow_job(member):
    def run(ctx):
        from hmlab.radial import ode_oracle, peel_coefficients
        u = seeded_unit_vectors(ctx, 1, salt=member)[0]
        flow = ode_oracle(ctx["pair"][member], u, FLOW_RADII,
                          steps_per_unit=2048)
        return peel_coefficients(flow.theta_normalized - 1.0, flow.radii,
                                 (2, 4))
    return Job(f"flow_{member}", "flow_s", run, check_flow(member))


def check_flow(member):
    def check(ctx, peeled):
        from hmlab.radial import radial_density
        dens = radial_density(ctx["pair"][member])
        for power, got in zip((2, 4), peeled):
            want = dens.coefficient(power)
            require(rel_diff(got, want) < 1e-5,
                    f"flow r^{power}: {got!r} vs series {want!r}")
    return check


def alpha2_pair(ctx):
    """Of eight seeded directions, the two whose tr R'R' differ most, so the
    predicted r^2 gap is well above the fit's error for every seed."""
    import numpy as np
    from hmlab.geometry import curvature_jet
    cands = seeded_unit_vectors(ctx, 8, salt=2)
    geo = ctx["pair"][1]
    values = []
    for u in cands:
        r1 = curvature_jet(geo, u, order=1).matrices[1]
        values.append(float(np.trace(r1 @ r1)))
    return cands[int(np.argmax(values))], cands[int(np.argmin(values))]


def run_alpha2(ctx):
    from hmlab.heatinv import alpha2_cross_difference
    u1, u2 = alpha2_pair(ctx)
    return alpha2_cross_difference(ctx["pair"][1], u1, u2)


def check_alpha2(ctx, result):
    fitted, predicted = result
    require(abs(predicted) > 1e-3, f"predicted gap {predicted!r} too small")
    require(abs(fitted - predicted) < 0.05 * abs(predicted),
            f"alpha2 fit {fitted!r} vs jet prediction {predicted!r}")


def run_intrinsic(ctx):
    from hmlab.heatinv import sphere_intrinsic_oracle
    u = seeded_unit_vectors(ctx, 1, salt=3)[0]
    return sphere_intrinsic_oracle(ctx["pair"][1], u)


def check_intrinsic(ctx, fit):
    # the 1/r^4 terms are those of the round sphere S^(n-1)(r)
    n = 12
    require(fit["powers"][0] == -4, "first fitted power is not -4")
    for key, want in (("ric_sq", (n - 1) * (n - 2) ** 2),
                      ("riem_sq", 2 * (n - 1) * (n - 2))):
        got = fit[key][0]
        require(rel_diff(got, want) < 1e-6, f"{key} r^-4 {got!r} vs {want}")


ORACLES_PAIR = [
    Job("build_pair", "build_s", build_pair, check_pair),
    mc_job("beta"),
    mc_job("grad_quad"),
    flow_job(0),
    flow_job(1),
    Job("alpha2_cross", "flow_s", run_alpha2, check_alpha2),
    Job("sphere_intrinsic", "flow_s", run_intrinsic, check_intrinsic),
]


# -- reports_pair ---------------------------------------------------------------


def isospec_cells(report):
    return [[block["z_gamma"],
             [[c["degree"], c["m"], c["dim_a"], c["dim_b"]]
              for c in block["cells"]]]
            for block in report["blocks"]]


def check_isospec(ctx, out):
    require(out.code == 0, f"isospec exited {out.code}")
    report = out.json()
    require(report["isospectral"] is True, "pair reported not isospectral")
    require(all(c["agree"] for b in report["blocks"] for c in b["cells"]),
            "a cell disagrees")
    require(isospec_cells(report) == ctx["expected"]["isospec_cells"],
            "isospec dimensions differ from the recorded ones")


def check_counterexample(ctx, out):
    require(out.code == 0, f"counterexample exited {out.code}")
    marks = out.json()["marks"]
    require(marks == ctx["expected"]["counterexample_marks"],
            f"counterexample marks {marks}")
    require(all(marks[c] == "agree" for c in AGREEING_COLUMNS)
            and marks["grad_R_sq"] == "differ", "agree/differ split")


def sis_exact(transcript):
    """Every exact field of the transcript.  ``moment_gram`` is left out:
    it reports a capability, not an exact value."""
    return {k: v for k, v in transcript.items() if k != "moment_gram"}


def check_sis(ctx, out):
    require(out.code == 0, f"sis exited {out.code}")
    require(sis_exact(out.json()) == ctx["expected"]["sis"],
            "sis transcript differs from the recorded one")


def check_expand(ctx, out):
    from hmlab.geometry import damek_ricci_geometry
    from hmlab.radial import radial_density
    require(out.code == 0, f"expand exited {out.code}")
    report = out.json()
    require(report["seed"] == ctx["seed"], "expand ignored --seed")
    # harmonic: the density series does not depend on the direction
    dens = radial_density(damek_ricci_geometry(3, 1, 1)).normalized
    got = report["density_normalized"]
    require(got["offset"] == dens.offset, "density offset")
    for k, (a, b) in enumerate(zip(got["coeffs"], dens.coeffs)):
        require(abs(a - float(b)) <= 1e-8 * max(abs(float(b)), 1.0),
                f"density coefficient {k}: {a!r} vs {float(b)!r}")
    require(abs(report["tr_sigma"]["coeffs"][0] - 11.0) < 1e-12,
            "tr sigma leading term is not n - 1")


def check_spectrum(ctx, out):
    require(out.code == 0, f"spectrum exited {out.code}")
    got = out.json()
    want = ctx["expected"]["spectrum"]
    require(len(got["eigenvalues"]) == len(want["eigenvalues"]), "count")
    for g, w, bar in zip(got["eigenvalues"], want["eigenvalues"],
                         want["error_bars"]):
        require(abs(g - w) <= bar + 1e-12, f"eigenvalue {g!r} vs {w!r}")


def check_verify_control(ctx, out):
    report = out.json()
    require(out.code == 0 and report["control_tripped"] is True
            and report["passed"] is False, "perturbed verify did not trip")


def check_isospec_control(ctx, out):
    require(out.code == 1 and out.json()["isospectral"] is False,
            "detuned isospec did not trip")


REPORTS_PAIR = [
    cli_job("isospec", "isospec_s", lambda ctx: ISOSPEC_PAIR, check_isospec),
    cli_job("counterexample", "short_cmds_s", lambda ctx: COUNTEREXAMPLE,
            check_counterexample),
    cli_job("sis", "short_cmds_s", lambda ctx: SIS, check_sis),
    cli_job("expand", "short_cmds_s",
            lambda ctx: ["expand", "--family", "3:1,1",
                         "--seed", str(ctx["seed"])],
            check_expand),
    cli_job("spectrum", "short_cmds_s", lambda ctx: SPECTRUM, check_spectrum),
    cli_job("verify_control", "short_cmds_s",
            lambda ctx: ["verify", "--family", "1:1,0", "--perturb", "1.25"],
            check_verify_control),
    cli_job("isospec_control", "short_cmds_s",
            lambda ctx: ["isospec", "--family", PAIR, "--max-degree", "1",
                         "--detune", "1.1"],
            check_isospec_control),
]

WORKLOADS = {
    "verify_pair": VERIFY_PAIR,
    "oracles_pair": ORACLES_PAIR,
    "reports_pair": REPORTS_PAIR,
}
