"""Exercises the command line layer through main(argv).

Numerical content is covered by the module suites; here the concern is
argument parsing, exit codes, report structure, and determinism of the
emitted files.
"""

import argparse
import dataclasses
import json
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from hmlab.cli import (COLUMNS, UsageError, build_parser, main, member_label,
                       parse_family, to_json)
from hmlab.errors import FamilyMismatch
from hmlab.invariants import gradient_adjusted_cubics


def run_to_dir(argv, tmp_path, name, sub="out"):
    out = tmp_path / sub
    rc = main(argv + ["--out", str(out)])
    path = out / name
    assert path.exists()
    return rc, path.read_text()


def traced_peak(func, *args):
    """(peak traced bytes, result) of one call to ``func``."""
    tracemalloc.start()
    try:
        result = func(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def nabla_r_bytes(n):
    """Size of one member's nabla R, n^5 float64 values."""
    return 8 * n ** 5


def test_parse_family_members():
    l, members = parse_family("3:2,0;1,1")
    assert l == 3
    assert members == [(2, 0), (1, 1)]
    l, members = parse_family("1:1,0")
    assert (l, members) == (1, [(1, 0)])
    # trailing separators and spaces are tolerated
    assert parse_family("3:2,0; 1,1;")[1] == [(2, 0), (1, 1)]


@pytest.mark.parametrize("text", [
    "", "3", "x:1,0", "3:1", "3:1,0,0", "3:a,b", "3:0,0", "3:", "3:-1,2",
])
def test_parse_family_rejects_malformed(text):
    with pytest.raises(UsageError):
        parse_family(text)


def test_parse_family_requires_shared_total():
    with pytest.raises(FamilyMismatch):
        parse_family("3:2,0;1,0")


def test_member_label_format():
    assert member_label(3, 2, 0) == "l3-a2b0"


def test_usage_failures_exit_two(capsys):
    assert main(["verify", "--family", "nonsense"]) == 2
    assert main(["verify", "--family", "3:2,0;1,0"]) == 2
    assert main(["counterexample", "--family", "1:1,0"]) == 2
    assert main(["isospec", "--family", "3:2,0;1,1;2,0"]) == 2
    err = capsys.readouterr().err
    assert err.count("error:") == 4


@pytest.mark.parametrize("count", ["0", "-3", "1"])
def test_verify_rejects_direction_count_below_two(count, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "--family", "1:1,0", "--directions", count,
                 "--out", str(out)]) == 2
    assert "--directions" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["isospec", "--max-degree", "-1"], "--max-degree"),
    (["isospec", "--max-degree", "7"], "--max-degree"),
    (["isospec", "--grid", "63"], "--grid"),
    (["spectrum", "--k", "2", "--grid", "32"], "--grid"),
    (["spectrum", "--k", "2", "--count", "0"], "--count"),
    (["spectrum", "--k", "2", "--t-domain", "0"], "--t-domain"),
    (["spectrum", "--k", "2", "--t-domain", "-4"], "--t-domain"),
    (["spectrum", "--k", "2", "--t-domain", "nan"], "--t-domain"),
    (["spectrum", "--k", "2", "--t-domain", "inf"], "--t-domain"),
    (["spectrum", "--k", "2", "--count", "500", "--grid", "64"], "--count"),
    (["spectrum", "--k", "2", "--mu", "nan"], "--mu"),
    (["spectrum", "--k", "2", "--mu", "inf"], "--mu"),
    (["spectrum", "--k", "2", "--bc", "1,nan"], "--bc"),
    (["spectrum", "--k", "2", "--bc", "inf,1"], "--bc"),
    (["isospec", "--detune", "nan"], "--detune"),
    (["isospec", "--detune", "inf"], "--detune"),
    (["verify", "--family", "1:1,0", "--perturb", "nan"], "--perturb"),
    (["verify", "--family", "1:1,0", "--tol", "nan"], "--tol"),
    (["verify", "--family", "1:1,0", "--tol", "inf"], "--tol"),
    (["counterexample", "--family", "3:2,0;1,1", "--tol", "nan"], "--tol"),
    (["counterexample", "--family", "3:2,0;1,1", "--tol", "inf"], "--tol"),
    (["counterexample", "--family", "3:2,0;1,1", "--tol", "0"], "--tol"),
    (["spectrum", "--k", "4", "--n", "-1", "--grid", "64", "--count", "2"],
     "--n"),
    (["spectrum", "--k", "-2", "--n", "2", "--grid", "64", "--count", "2"],
     "--k"),
    (["verify", "--family", "1:1,0", "--seed", "-5"], "--seed"),
    (["counterexample", "--family", "3:2,0;1,1", "--seed", "-1"], "--seed"),
    (["expand", "--family", "1:1,0", "--seed", "-1"], "--seed"),
    (["sis", "--family", "3:2,0;1,1"], "--family"),
    (["sis", "--family", "2:1,0"], "--family"),
    (["expand", "--family", "3:2,0;1,1"], "--family"),
])
def test_out_of_range_inputs_are_usage_errors_before_any_work(
        argv, flag, monkeypatch, capsys):
    import hmlab.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")

    monkeypatch.setattr(hmlab.cli, "build_members", no_work)
    monkeypatch.setattr(hmlab.cli, "isospectrality_report", no_work)
    monkeypatch.setattr(hmlab.cli, "radial_spectrum", no_work)
    if argv[0] == "isospec":
        argv = argv + ["--family", "3:2,0;1,1"]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spectrum", "--k", "2"],
                                  ["sis", "--family", "1:1,0"]])
def test_out_naming_a_file_is_refused_before_any_work(argv, tmp_path,
                                                      monkeypatch, capsys):
    import hmlab.cli

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(hmlab.cli, "build_members", no_work)
    monkeypatch.setattr(hmlab.cli, "radial_spectrum", no_work)
    target = tmp_path / "report"
    target.write_text("kept\n")
    assert main(argv + ["--out", str(target)]) == 2
    assert capsys.readouterr().err.startswith("error: --out ")
    assert target.read_text() == "kept\n"


def test_out_below_a_file_is_a_usage_error(tmp_path, capsys):
    """The path does not exist, so the command runs; making the directory
    then fails, and that is a usage error, not a traceback."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["spectrum", "--k", "2", "--grid", "64", "--count", "2",
                 "--out", str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: --out ")


def test_verify_clean_family(tmp_path):
    rc, text = run_to_dir(
        ["verify", "--family", "1:1,0", "--directions", "8"],
        tmp_path, "verify.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["schema_version"] == 1
    assert payload["passed"] is True
    assert "control_tripped" not in payload
    (member,) = payload["members"]
    assert member["member"] == "l1-a1b0"
    names = [row["identity"] for block in member["blocks"]
             for row in block["rows"]]
    assert "spread[C]" in names
    assert "einstein" in names
    assert "beta-average" in names
    assert all(row["passed"] for block in member["blocks"]
               for row in block["rows"])


def test_verify_holds_one_member_at_a_time(tmp_path):
    """Verifying the 12-dim pair peaks less than one nabla R above the
    larger single-member run: the first member, and the nabla R cached on
    it, is let go before the second member's nabla R is formed."""
    def peak(family, sub):
        found, (rc, _) = traced_peak(
            run_to_dir, ["verify", "--family", family], tmp_path,
            "verify.json", sub)
        assert rc == 0
        return found

    # the pair runs first, so any one-time import lands on its side
    pair = peak("3:2,0;1,1", "pair")
    single = max(peak("3:2,0", "a"), peak("3:1,1", "b"))
    assert pair < single + nabla_r_bytes(12)


def test_verify_perturbed_control_trips(tmp_path):
    # detuned bracket must fail the batteries; the run reports success
    # (exit 0) exactly because the control tripped
    rc, text = run_to_dir(
        ["verify", "--family", "1:1,0", "--directions", "8",
         "--perturb", "1.25"],
        tmp_path, "verify.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["perturb"] == 1.25
    assert payload["control_tripped"] is True
    assert payload["passed"] is False


def test_verify_perturbed_members_keep_their_names(tmp_path):
    rc, text = run_to_dir(
        ["verify", "--family", "1:1,0;0,1", "--directions", "8",
         "--perturb", "1.25"],
        tmp_path, "verify.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["control_tripped"] is True
    # every perturbed member trips on its own, not only one of them
    assert all(m["passed"] is False for m in payload["members"])
    # each perturbed member keeps its own name in every report block
    spaces = [{block["space"] for block in member["blocks"]}
              for member in payload["members"]]
    assert spaces == [{"DR(l=1; 1,0)"}, {"DR(l=1; 0,1)"}]


def test_counterexample_marks_split_by_degree(tmp_path):
    rc, text = run_to_dir(
        ["counterexample", "--family", "3:2,0;1,1", "--tol", "1e-7"],
        tmp_path, "counterexample.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["columns"][0] == "member"
    assert [row["member"] for row in payload["rows"]] == \
        ["l3-a2b0", "l3-a1b1"]
    marks = payload["marks"]
    for col in ("C", "H", "L", "A2", "A4", "A6"):
        assert marks[col] == "agree", col
    for col in ("grad_R_sq", "R_hat", "R_ring", "avg_alpha2_direction",
                "avg_beta2_direction", "p2_r3", "p3_dirichlet_r3",
                "p3_neumann_r3"):
        assert marks[col] == "differ", col
    sym, ns = payload["rows"]
    assert abs(sym["grad_R_sq"]) < 1e-10
    assert abs(ns["grad_R_sq"] - 576.0) < 1e-6


@pytest.mark.parametrize("family", ["3:2,0;0,2", "2:2,0;1,1"])
def test_counterexample_positive_controls_agree_in_every_column(family,
                                                                tmp_path):
    """Members that must agree in all 14 columns, so that a false "differ"
    would show: 3:0,2 is 3:2,0 with every J_Z negated (the isometry
    Z -> -Z), and at center dimension 2 both multiplicities give one
    module up to equivalence, hence one space."""
    rc, text = run_to_dir(["counterexample", "--family", family], tmp_path,
                          "counterexample.json")
    assert rc == 0
    payload = json.loads(text)
    assert len(payload["marks"]) == len(payload["columns"]) - 1 == 14
    assert set(payload["marks"].values()) == {"agree"}


@pytest.mark.parametrize("family,cells", [("3:2,0;0,2", 18),
                                          ("2:2,0;1,1", 6)])
def test_isospec_positive_controls_agree_in_every_cell(family, cells,
                                                      tmp_path):
    """The same members as the counterexample controls above: every cell of
    every lattice block agrees through degree 2.  At center dimension 2 the
    lattice is the one vector (1, 0)."""
    rc, text = run_to_dir(["isospec", "--family", family, "--max-degree",
                           "2"], tmp_path, "isospec.json")
    assert rc == 0
    payload = json.loads(text)
    agree = [cell["agree"] for block in payload["blocks"]
             for cell in block["cells"]]
    assert len(agree) == cells
    assert all(agree)
    assert payload["isospectral"] is True


def test_counterexample_on_the_16_dim_pair(tmp_path):
    """The 16-dim pair 3:3,0;2,1 splits like the 12-dim one: it agrees
    through A6 and differs in ||grad R||^2, 0 on the symmetric member."""
    rc, text = run_to_dir(["counterexample", "--family", "3:3,0;2,1"],
                          tmp_path, "counterexample.json")
    assert rc == 0
    payload = json.loads(text)
    assert [row["member"] for row in payload["rows"]] == \
        ["l3-a3b0", "l3-a2b1"]
    marks = payload["marks"]
    for col in ("C", "H", "L", "A2", "A4", "A6"):
        assert marks[col] == "agree", col
    assert marks["grad_R_sq"] == "differ"
    sym, ns = payload["rows"]
    assert abs(sym["grad_R_sq"]) < 1e-10
    assert abs(ns["grad_R_sq"] - 1152.0) < 1e-6


def test_counterexample_on_the_24_dim_pair(tmp_path):
    """The 24-dim pair 3:5,0;4,1 splits like the smaller ones, with exact
    cubic scalars: R_hat and R_ring differ, and the gradient-adjusted
    cubics take the symmetric member's values on both.  One member's
    nabla R is alive at a time, so the run peaks under 2.5 nabla R (about
    2.1 of them, where two members side by side peak at about 3.1)."""
    peak, (rc, text) = traced_peak(
        run_to_dir, ["counterexample", "--family", "3:5,0;4,1"],
        tmp_path, "counterexample.json")
    assert peak < 2.5 * nabla_r_bytes(24)
    assert rc == 0
    payload = json.loads(text)
    marks = payload["marks"]
    for col in ("C", "H", "L", "A2", "A4", "A6"):
        assert marks[col] == "agree", col
    assert marks["grad_R_sq"] == "differ"
    sym, ns = payload["rows"]
    assert (sym["member"], ns["member"]) == ("l3-a5b0", "l3-a4b1")
    assert (sym["grad_R_sq"], ns["grad_R_sq"]) == (0.0, 2304.0)
    assert (sym["R_hat"], ns["R_hat"]) == (-5808.0, -5136.0)
    assert (sym["R_ring"], ns["R_ring"]) == (-1524.0, -1116.0)
    for row in (sym, ns):
        pi = SimpleNamespace(r_hat=row["R_hat"], r_ring=row["R_ring"],
                             grad_r_sq=row["grad_R_sq"])
        assert gradient_adjusted_cubics(pi) == {
            "r_hat_minus_7_24_grad": -5808.0,
            "r_ring_minus_17_96_grad": -1524.0}


def test_counterexample_reruns_byte_identical(tmp_path):
    argv = ["counterexample", "--family", "3:2,0;1,1"]
    _, first = run_to_dir(argv, tmp_path, "counterexample.json", sub="a")
    _, second = run_to_dir(argv, tmp_path, "counterexample.json", sub="b")
    assert first == second


def test_counterexample_csv_layout(tmp_path):
    rc, text = run_to_dir(
        ["counterexample", "--family", "3:2,0;1,1", "--format", "csv"],
        tmp_path, "counterexample.csv")
    assert rc == 0
    lines = text.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header == ["member"] + list(COLUMNS)
    assert lines[1].startswith("l3-a2b0,")
    assert lines[3].startswith("mark,")


@pytest.mark.parametrize("argv", [
    ["verify", "--family", "1:1,0"],
    ["isospec", "--family", "1:1,0;1,0"],
    ["sis", "--family", "1:1,0"],
    ["expand", "--family", "1:1,0"],
    ["spectrum", "--k", "2"],
])
def test_format_is_rejected_where_no_csv_exists(argv, capsys):
    """Only counterexample writes CSV; elsewhere --format would be ignored,
    so it is a usage error rather than a silent JSON report."""
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--format", "csv"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--format" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv, flag", [
    (["verify", "--family", "1:1,0"], ["--mode", "natural"]),
    (["counterexample", "--family", "1:1,0;1,0"], ["--mode", "natural"]),
    (["isospec", "--family", "1:1,0;1,0"], ["--mode", "natural"]),
    (["sis", "--family", "1:1,0"], ["--mode", "natural"]),
    (["expand", "--family", "1:1,0"], ["--mode", "natural"]),
    (["isospec", "--family", "1:1,0;1,0"], ["--tol", "1e-6"]),
    (["sis", "--family", "1:1,0"], ["--tol", "1e-6"]),
    (["expand", "--family", "1:1,0"], ["--tol", "1e-6"]),
    (["isospec", "--family", "1:1,0;1,0"], ["--seed", "1"]),
    (["sis", "--family", "1:1,0"], ["--seed", "1"]),
])
def test_flags_a_subcommand_does_not_read_are_rejected(argv, flag, capsys):
    """A flag the subcommand would ignore is a usage error, not a no-op."""
    with pytest.raises(SystemExit) as exc:
        main(argv + flag)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert flag[0] in captured.err
    assert captured.out == ""


def test_each_subcommand_registers_only_the_flags_it_reads():
    """counterexample keeps --seed, unread, for scripts that pass it."""
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    flags = {name: {opt for action in sub._actions
                    for opt in action.option_strings} - {"-h", "--help"}
             for name, sub in subparsers.choices.items()}
    assert flags == {
        "verify": {"--family", "--out", "--seed", "--tol", "--directions",
                   "--perturb"},
        "counterexample": {"--family", "--out", "--tol", "--format",
                           "--seed"},
        "isospec": {"--family", "--out", "--max-degree", "--grid",
                    "--detune"},
        "sis": {"--family", "--out"},
        "expand": {"--family", "--out", "--seed"},
        "spectrum": {"--k", "--n", "--m", "--mu", "--t-domain", "--bc",
                     "--grid", "--count", "--out"},
    }
    assert sum(len(v) for v in flags.values()) == 30


def test_isospec_pair_and_detuned_control(tmp_path):
    base = ["isospec", "--family", "3:2,0;1,1", "--max-degree", "0",
            "--grid", "64"]
    rc, text = run_to_dir(base, tmp_path, "isospec.json", sub="pos")
    assert rc == 0
    payload = json.loads(text)
    assert payload["members"] == ["l3-a2b0", "l3-a1b1"]
    assert payload["isospectral"] is True
    rc, text = run_to_dir(base + ["--detune", "1.05"], tmp_path,
                          "isospec.json", sub="neg")
    assert rc == 1
    payload = json.loads(text)
    assert payload["detune"] == 1.05
    assert payload["isospectral"] is False


def test_isospec_builds_no_geometry(tmp_path, monkeypatch):
    """The comparison reads nothing of a member but its J-map: with
    ``geometry_from_algebra`` raising, isospec writes the same report."""
    import hmlab.cli
    import hmlab.geometry

    argv = ["isospec", "--family", "3:2,0;1,1", "--max-degree", "1"]
    rc, want = run_to_dir(argv, tmp_path, "isospec.json", sub="built")
    assert rc == 0

    def no_geometry(*args, **kwargs):
        raise AssertionError("isospec built a geometry")

    monkeypatch.setattr(hmlab.geometry, "geometry_from_algebra", no_geometry)
    monkeypatch.setattr(hmlab.cli, "geometry_from_algebra", no_geometry)
    assert run_to_dir(argv, tmp_path, "isospec.json", sub="jmaps") == (0, want)


def test_sis_transcript_contents(tmp_path):
    rc, text = run_to_dir(["sis", "--family", "3:2,0"],
                          tmp_path, "sis.json")
    assert rc == 0
    payload = json.loads(text)
    assert payload["dim"] == 12
    names = [g["name"] for g in payload["generators"]]
    assert names == ["density-r6", "ricci-square-r2", "gradient-square-r2"]
    assert payload["membership_plain"]["member"] is False
    assert payload["membership_graded"]["member"] is False
    assert payload["elimination_proper"].startswith("DegreeMismatch")
    assert payload["moment_gram"].startswith("DegreeTooHigh")
    assert "noise_wave" in payload
    assert "elimination_rudimentary" in payload


def test_expand_reports_series(tmp_path):
    argv = ["expand", "--family", "3:1,1", "--seed", "5"]
    rc, text = run_to_dir(argv, tmp_path, "expand.json", sub="a")
    assert rc == 0
    payload = json.loads(text)
    assert np.isclose(np.linalg.norm(payload["direction"]), 1.0)
    dens = payload["density_normalized"]
    assert dens["offset"] == 0
    assert dens["coeffs"][0] == 1.0
    tr = payload["tr_sigma"]
    assert tr["offset"] == -1
    assert np.isclose(tr["coeffs"][0], 11.0)
    assert "mode" not in payload
    # same seed reproduces the file, another seed moves the direction
    _, again = run_to_dir(argv, tmp_path, "expand.json", sub="b")
    assert again == text
    _, other = run_to_dir(["expand", "--family", "3:1,1", "--seed", "6"],
                          tmp_path, "expand.json", sub="c")
    assert json.loads(other)["direction"] != payload["direction"]


def test_spectrum_matches_direct_solver(tmp_path):
    from hmlab.spectra import RadialOperator, radial_spectrum
    rc, text = run_to_dir(
        ["spectrum", "--k", "2", "--grid", "64", "--count", "3"],
        tmp_path, "spectrum.json")
    assert rc == 0
    payload = json.loads(text)
    direct = radial_spectrum(RadialOperator(k=2, n=0, m=0, mu=0.0),
                             10.0, grid=64, count=3)
    assert payload["eigenvalues"] == [float(x) for x in direct.eigenvalues]
    assert len(payload["error_bars"]) == 3


def test_spectrum_error_paths(capsys):
    # non-integrable measure, degenerate Robin data, malformed Robin data
    assert main(["spectrum", "--k", "0", "--grid", "64"]) == 2
    assert main(["spectrum", "--k", "2", "--bc", "0,0", "--grid", "64"]) == 2
    assert main(["spectrum", "--k", "2", "--bc", "oops", "--grid", "64"]) == 2
    # a solve that does not converge has its own exit code
    assert main(["spectrum", "--k", "4", "--mu", "40",
                 "--t-domain", "10", "--grid", "64"]) == 3
    err = capsys.readouterr().err
    assert "ConvergenceFailure" in err


@pytest.mark.parametrize("flag,value", [("--bc", "-1,1"), ("--mu", "-1e-3")])
def test_a_negative_value_goes_in_the_equals_form(flag, value, capsys):
    """argparse reads a value such as -1,1 or -1e-3 as a flag, so the
    spaced form exits 2 with "expected one argument"; the = form solves."""
    argv = ["spectrum", "--k", "2", "--grid", "64", "--count", "2"]
    with pytest.raises(SystemExit) as info:
        main(argv + [flag, value])
    assert info.value.code == 2
    assert f"argument {flag}: expected one argument" in capsys.readouterr().err
    assert main(argv + [f"{flag}={value}"]) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"]


def test_isospec_names_the_sector_that_does_not_converge(capsys):
    """At grid 64 the 12-dim pair's sectors at Z = (1, 2, 2) do not
    converge above degree 0; the error says which one."""
    assert main(["isospec", "--family", "3:2,0;1,1", "--max-degree", "1",
                 "--grid", "64"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ConvergenceFailure: ")
    assert "(1, 2, 2)" in err and "degree 1" in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("extra", [["--t-domain", "1e-200"],
                                   ["--t-domain", "1e300"],
                                   ["--mu", "1e200"],
                                   ["--t-domain", "5e-324"],
                                   ["--mu", "6e153"]])
def test_spectrum_extreme_finite_inputs_fail_with_one_line(extra, capsys):
    argv = ["spectrum", "--k", "2", "--grid", "64", "--count", "2"]
    assert main(argv + extra) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ConvergenceFailure: ")


@pytest.mark.parametrize("command", ["verify", "counterexample", "isospec"])
@pytest.mark.parametrize("center", ["0", "4"])
def test_unsupported_center_dimension_is_a_usage_error(command, center,
                                                        capsys):
    assert main([command, "--family", f"{center}:1,0;0,1"]) == 2
    assert f"center dimension in 1..3, got {center}" in capsys.readouterr().err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, name", [
    (["verify", "--family", "1:1,0", "--directions", "8"], "verify.json"),
    (["counterexample", "--family", "1:1,0;0,1"], "counterexample.json"),
    (["isospec", "--family", "1:1,0;0,1", "--max-degree", "1", "--grid",
      "64"], "isospec.json"),
    (["sis", "--family", "1:1,0"], "sis.json"),
    (["expand", "--family", "1:1,0"], "expand.json"),
    (["spectrum", "--k", "2", "--grid", "64", "--count", "2"],
     "spectrum.json"),
])
def test_every_report_is_strict_json(argv, name, tmp_path):
    """No NaN, Infinity or -Infinity token, which json.loads would accept."""
    _, text = run_to_dir(argv, tmp_path, name)
    payload = json.loads(text, parse_constant=refuse_constant)
    assert payload["command"] == argv[0]
    assert payload["schema_version"] == 1


@pytest.mark.filterwarnings("error")
def test_a_report_that_would_hold_nan_is_refused(tmp_path, capsys):
    """A bracket scaled by 1e300 overflows the curvature to NaN; the build
    refuses it before any battery runs, with no numpy warning, and the run
    exits 1 naming the error and writes no report."""
    out = tmp_path / "out"
    rc = main(["verify", "--family", "1:1,0", "--directions", "8",
               "--perturb", "1e300", "--out", str(out)])
    assert rc == 1
    assert "error: NonFiniteGeometry: " in capsys.readouterr().err
    assert not (out / "verify.json").exists()


def test_report_value_writes_what_json_has_no_type_for():
    @dataclasses.dataclass
    class Pair:
        first: object
        second: object

    class Keyed:
        def as_dict(self):
            return {"key": Fraction(-3, 6)}

    payload = {"pair": Pair(np.array([[1.5, 2.0]]), Keyed()),
               "fraction": Fraction(4, 2)}
    assert json.loads(to_json(payload)) == {
        "pair": {"first": [[1.5, 2.0]], "second": {"key": [-1, 2]}},
        "fraction": [2, 1]}
    with pytest.raises(TypeError):
        to_json({"set": {1}})


def test_stdout_emission_without_out_dir(capsys):
    rc = main(["verify", "--family", "1:1,0", "--directions", "4"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "verify"
