"""The benchmark's metrics, with the workload and end-to-end metric each
per-layer metric is expected to move.  BENCHMARK.json lists the same names,
units and directions; run.py refuses to start when the two disagree.

End-to-end metrics are measured with tracing off; the pass times have
their interpreted part scaled to the reference speed (see hostspeed.py).
Per-layer metrics come from a traced run, except the ``job.*``,
``raw.*`` and ``host.*`` ones, which come from the untraced passes of
that same run.  Per-layer times are raw.  A per-layer metric reads 0 on a
workload where its layer does no work.
"""

# name: (unit, better, what it is)
END_TO_END = {
    "setup_s": ("s", "lower",
                "import of hmlab.cli in a fresh interpreter, median of "
                "several per run"),
    "pass_s": ("s", "lower",
               "wall time of one pass (fresh interpreter, import, every "
               "job, exit), interpreted part at the reference speed"),
    "pass_cpu_s": ("s", "lower",
                   "user+sys CPU of a pass, all threads, scaled like "
                   "pass_s; exceeds pass_s when BLAS runs in parallel"),
    "peak_rss_mb": ("MB", "lower", "peak resident memory of a pass"),
}

# name: (unit, better, workload and end-to-end metric it should move)
PER_LAYER = {
    "raw.wall_s": ("s", "lower", "pass_s before scaling; every workload"),
    "raw.cpu_s": ("s", "lower", "pass_cpu_s before scaling; every workload"),
    "host.slowdown": ("ratio", "lower",
                      "raw.wall_s / pass_s: how much the host slowed the "
                      "interpreted part of a pass"),
    "job.verify_s": ("s", "lower", "verify_pair: pass_s"),
    "job.mc_s": ("s", "lower", "oracles_pair: pass_s"),
    "job.flow_s": ("s", "lower", "oracles_pair: pass_s"),
    "job.isospec_s": ("s", "lower", "reports_pair: pass_s"),
    "job.short_cmds_s": ("s", "lower", "reports_pair: pass_s"),
    "geometry.jet_s": ("s", "lower", "verify_pair: job.verify_s"),
    "geometry.jet_calls": ("count", "lower", "verify_pair: job.verify_s"),
    "invariants.harmonicity_s": ("s", "lower", "verify_pair: job.verify_s"),
    "invariants.direction_calls": ("count", "lower",
                                   "verify_pair: job.verify_s"),
    "invariants.tensor_s": ("s", "lower",
                            "verify_pair: job.verify_s, peak_rss_mb"),
    "invariants.sphere_average_s": ("s", "lower",
                                    "verify_pair: job.verify_s, peak_rss_mb"),
    "invariants.tensor_mb": ("MB", "lower",
                             "verify_pair: job.verify_s, peak_rss_mb"),
    "invariants.mc_s": ("s", "lower",
                        "oracles_pair: job.mc_s, pass_cpu_s, peak_rss_mb"),
    "invariants.mc_samples_per_s": ("1/s", "higher",
                                    "oracles_pair: job.mc_s, pass_cpu_s"),
    "radial.flow_s": ("s", "lower", "oracles_pair: job.flow_s"),
    "radial.flow_calls": ("count", "lower", "oracles_pair: job.flow_s"),
    "heatinv.flow_s": ("s", "lower", "oracles_pair: job.flow_s"),
    "polynomials.projection_s": ("s", "lower", "reports_pair: job.isospec_s"),
    "polynomials.projection_calls": ("count", "lower",
                                     "reports_pair: job.isospec_s"),
    "spectra.hnm_basis_s": ("s", "lower", "reports_pair: job.isospec_s"),
    "spectra.hnm_basis_calls": ("count", "lower",
                                "reports_pair: job.isospec_s"),
    "exactlinalg.s": ("s", "lower", "reports_pair: job.isospec_s"),
    "exactlinalg.calls": ("count", "lower", "reports_pair: job.isospec_s"),
    "spectra.radial_spectrum_s": ("s", "lower",
                                  "reports_pair: job.isospec_s (small)"),
    "spectra.radial_spectrum_calls": ("count", "lower",
                                      "reports_pair: job.isospec_s (small)"),
    "spectra.radial_spectrum_unique_frac": (
        "ratio", "higher",
        "reports_pair: distinct operators per solve; 0.5 shows the double "
        "solve per cell"),
    "clifford.build_s": ("s", "lower",
                         "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "geometry.build_s": ("s", "lower",
                         "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "geometry.covariant_s": ("s", "lower",
                             "reports_pair: job.short_cmds_s; "
                             "setup_s everywhere"),
    "radial.series_s": ("s", "lower",
                        "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "series.s": ("s", "lower",
                 "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "heatinv.boundary_s": ("s", "lower",
                           "reports_pair: job.short_cmds_s; "
                           "setup_s everywhere"),
    "sis.s": ("s", "lower",
              "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "invariants.point_invariants_calls": ("count", "lower",
                                          "reports_pair: job.short_cmds_s"),
    "cli.self_s": ("s", "lower",
                   "reports_pair: job.short_cmds_s; setup_s everywhere"),
    "cli.report_bytes": ("bytes", "lower",
                         "reports_pair: job.short_cmds_s; must not move "
                         "unless a report changes"),
    "trace.overhead_frac": ("ratio", "lower",
                            "traced pass_s / untraced pass_s - 1, every "
                            "workload"),
}
