"""Command-line front end: verification runs, comparison tables, transcripts.

All reports are deterministic: fixed seeds, sorted JSON keys, no
timestamps, so byte-identical reruns are a testable property.  Exit codes:
0 verified / completed, 1 a verification or comparison failed, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from .errors import (DegenerateBoundary, DegreeMismatch, DegreeTooHigh,
                     FamilyMismatch, HmlabError, UnsupportedCenterDimension)
from .geometry import (curvature_jet, damek_ricci_geometry,
                       geometry_from_algebra, scale_bracket)
from .heatinv import averaged_boundary_r3
from .invariants import (point_invariants, verify_average_identities,
                         verify_einstein_identities, verify_harmonicity)
from .radial import harmonic_series, radial_density
from .sis import (ball_boundary_vector, ball_volume_vector,
                  canonical_generators, eliminate, lichnerowicz_vector,
                  moment_gram, noise_wave, rank_and_membership)
from .spectra import (MAX_DEGREE, MIN_GRID, RadialOperator,
                      isospectrality_report, radial_spectrum)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


def require(ok, flag, value, bound):
    """A usage error naming ``flag`` unless ``ok``; checked before any work."""
    if not ok:
        raise UsageError(f"{flag} must be {bound}, got {value}")


def parse_family(text):
    """'l:a,b;a,b' -> (l, [(a, b), ...]); every member shares l and a+b."""
    if not text or ":" not in text:
        raise UsageError("family must look like 'l:a,b;a,b'")
    head, _, tail = text.partition(":")
    try:
        l = int(head)
    except ValueError as exc:
        raise UsageError(f"bad center dimension {head!r}") from exc
    members = []
    for chunk in tail.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad member {chunk!r}, expected 'a,b'")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise UsageError(f"bad member {chunk!r}") from exc
        if a < 0 or b < 0 or a + b == 0:
            raise UsageError(f"member {chunk!r} needs a,b >= 0 and a+b >= 1")
        members.append((a, b))
    if not members:
        raise UsageError("family has no members")
    total = members[0][0] + members[0][1]
    for a, b in members[1:]:
        if a + b != total:
            raise FamilyMismatch(
                f"members must share a+b: {members[0]} vs ({a},{b})")
    return l, members


def member_label(l, a, b):
    return f"l{l}-a{a}b{b}"


def build_members(l, members):
    return [(member_label(l, a, b), damek_ricci_geometry(l, a, b))
            for a, b in members]


def emit(args, name, text):
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, name)
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def to_json(payload):
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- verify ---------------------------------------------------------------------


def cmd_verify(args):
    require(args.directions >= 1, "--directions", args.directions, "at least 1")
    require(0 < args.tol < math.inf, "--tol", args.tol, "positive and finite")
    require(math.isfinite(args.perturb), "--perturb", args.perturb, "finite")
    require(args.seed >= 0, "--seed", args.seed, "at least 0")
    l, members = parse_family(args.family)
    reports = []
    all_passed = True
    for label, geo in build_members(l, members):
        if args.perturb != 1.0:
            algebra = scale_bracket(geo.algebra, 0, geo.dim - 1, args.perturb)
            geo = geometry_from_algebra(algebra, name=geo.name)
        blocks = [verify_harmonicity(geo, n_directions=args.directions,
                                     seed=args.seed, tol=args.tol),
                  verify_einstein_identities(geo, tol=args.tol),
                  verify_average_identities(geo, tol=max(args.tol, 1e-7))]
        passed = all(b.passed for b in blocks)
        all_passed = all_passed and passed
        reports.append({"member": label, "passed": passed,
                        "blocks": [b.as_dict() for b in blocks]})
    payload = {"schema_version": SCHEMA_VERSION, "command": "verify",
               "perturb": args.perturb, "members": reports,
               "passed": all_passed}
    ok = all_passed
    if args.perturb != 1.0:
        payload["control_tripped"] = ok = not all_passed
    emit(args, "verify.json", to_json(payload))
    return 0 if ok else 1


# -- counterexample table ---------------------------------------------------------


COLUMNS = ("C", "H", "L", "A2", "A4", "A6", "grad_R_sq", "R_hat", "R_ring",
           "avg_alpha2_direction", "avg_beta2_direction",
           "p2_r3", "p3_dirichlet_r3", "p3_neumann_r3")


def member_row(geo):
    pi = point_invariants(geo)
    dens = radial_density(geo)
    avg_alpha, avg_beta = pi.alpha_beta_averages()
    r3 = averaged_boundary_r3(pi)
    return {
        "C": pi.c, "H": pi.h, "L": pi.l,
        "A2": float(dens.normalized.coefficient(2)),
        "A4": float(dens.normalized.coefficient(4)),
        "A6": float(dens.normalized.coefficient(6)),
        "grad_R_sq": pi.grad_r_sq, "R_hat": pi.r_hat, "R_ring": pi.r_ring,
        "avg_alpha2_direction": avg_alpha,
        "avg_beta2_direction": avg_beta,
        "p2_r3": r3["p2"], "p3_dirichlet_r3": r3["p3_dirichlet"],
        "p3_neumann_r3": r3["p3_neumann"],
    }


def cmd_counterexample(args):
    require(0 < args.tol < math.inf, "--tol", args.tol, "positive and finite")
    require(args.seed >= 0, "--seed", args.seed, "at least 0")
    l, members = parse_family(args.family)
    if len(members) < 2:
        raise UsageError("comparison table needs at least two members")
    rows = []
    for label, geo in build_members(l, members):
        row = {"member": label}
        row.update(member_row(geo))
        rows.append(row)
    marks = {}
    for col in COLUMNS:
        values = [row[col] for row in rows]
        scale = max(max(abs(v) for v in values), 1.0)
        spread = max(values) - min(values)
        marks[col] = "agree" if spread <= args.tol * scale else "differ"
    payload = {"schema_version": SCHEMA_VERSION, "command": "counterexample",
               "columns": ["member"] + list(COLUMNS), "rows": rows,
               "marks": marks}
    if args.format == "json":
        emit(args, "counterexample.json", to_json(payload))
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["member"] + list(COLUMNS))
        for row in rows:
            writer.writerow([row["member"]]
                            + [repr(row[c]) for c in COLUMNS])
        writer.writerow(["mark"] + [marks[c] for c in COLUMNS])
        emit(args, "counterexample.csv", buf.getvalue())
    return 0


# -- isospectrality ----------------------------------------------------------------


def default_lattice(l):
    if l == 1:
        return [(1,), (2,)]
    if l == 3:
        return [(1, 0, 0), (2, 0, 0), (1, 2, 2)]
    vec = [0] * l
    vec[0] = 1
    return [tuple(vec)]


def cmd_isospec(args):
    require(0 <= args.max_degree <= MAX_DEGREE, "--max-degree",
            args.max_degree, f"in 0..{MAX_DEGREE}")
    require(args.grid >= MIN_GRID, "--grid", args.grid, f"at least {MIN_GRID}")
    require(math.isfinite(args.detune), "--detune", args.detune, "finite")
    l, members = parse_family(args.family)
    if len(members) != 2:
        raise UsageError("isospectrality comparison needs exactly two members")
    built = build_members(l, members)
    report = isospectrality_report(built[0][1], built[1][1],
                                   default_lattice(l),
                                   degrees=tuple(range(args.max_degree + 1)),
                                   grid=args.grid,
                                   mu_scale_b=args.detune)
    payload = {"schema_version": SCHEMA_VERSION, "command": "isospec",
               "members": [built[0][0], built[1][0]],
               "detune": args.detune}
    payload.update(report.as_dict())
    emit(args, "isospec.json", to_json(payload))
    return 0 if report.isospectral else 1


# -- structural identity transcript ------------------------------------------------


def cmd_sis(args):
    l, members = parse_family(args.family)
    require(len(members) == 1, "--family", args.family, "one member")
    label, geo = build_members(l, members)[0]
    n = geo.dim
    gens = canonical_generators(n)
    lich = lichnerowicz_vector(n)
    plain = rank_and_membership(gens, lich, graded=False)
    graded = rank_and_membership(gens, lich, graded=True)
    transcript = {
        "schema_version": SCHEMA_VERSION, "command": "sis",
        "member": label, "dim": n,
        "generators": [g.as_dict() for g in gens],
        "lichnerowicz": lich.as_dict(),
        "membership_plain": plain.as_dict(),
        "membership_graded": graded.as_dict(),
    }
    target = ball_boundary_vector(n)
    tool = ball_volume_vector(n)
    try:
        eliminate(target, tool, "L", mode="proper")
        transcript["elimination_proper"] = "unexpectedly succeeded"
        code = 1
    except DegreeMismatch as exc:
        transcript["elimination_proper"] = f"DegreeMismatch: {exc}"
        code = 0
    rudimentary = eliminate(target, tool, "L", mode="rudimentary")
    transcript["elimination_rudimentary"] = rudimentary.as_dict()
    noise = noise_wave(lich, gens)
    transcript["noise_wave"] = noise.as_dict()
    try:
        moment_gram(geo, gens)
        transcript["moment_gram"] = "available"
    except DegreeTooHigh as exc:
        transcript["moment_gram"] = f"{type(exc).__name__}: {exc}"
    emit(args, "sis.json", to_json(transcript))
    return code


# -- series dumps -------------------------------------------------------------------


def cmd_expand(args):
    require(args.seed >= 0, "--seed", args.seed, "at least 0")
    l, members = parse_family(args.family)
    require(len(members) == 1, "--family", args.family, "one member")
    label, geo = build_members(l, members)[0]
    rng = np.random.default_rng(args.seed)
    u = rng.standard_normal(geo.dim)
    u = u / np.linalg.norm(u)
    dens, shape = harmonic_series(curvature_jet(geo, u, order=3))

    def series_dict(s):
        return {"offset": s.offset,
                "coeffs": [float(c) for c in s.coeffs]}

    payload = {
        "schema_version": SCHEMA_VERSION, "command": "expand",
        "member": label, "seed": args.seed,
        "direction": [float(x) for x in u],
        "density_normalized": series_dict(dens.normalized),
        "density": series_dict(dens.density),
        "tr_sigma": series_dict(shape.tr_sigma),
        "tr_sigma_sq": series_dict(shape.tr_sigma_sq),
        "tr_sigma_cube": series_dict(shape.tr_sigma_cube),
        "tr_curv_sigma": series_dict(shape.tr_curv_sigma),
    }
    emit(args, "expand.json", to_json(payload))
    return 0


# -- one radial spectrum --------------------------------------------------------------


def cmd_spectrum(args):
    require(args.k >= 0, "--k", args.k, "at least 0 (a module dimension)")
    require(args.n >= 0, "--n", args.n, "at least 0 (a harmonic degree)")
    require(args.grid >= MIN_GRID, "--grid", args.grid, f"at least {MIN_GRID}")
    require(1 <= args.count <= args.grid, "--count", args.count,
            f"in 1..{args.grid} (--grid)")
    require(0 < args.t_domain < math.inf, "--t-domain", args.t_domain,
            "positive and finite")
    require(math.isfinite(args.mu), "--mu", args.mu, "finite")
    try:
        a_str, b_str = args.bc.split(",")
        bc = (float(a_str), float(b_str))
    except ValueError as exc:
        raise UsageError(f"bad Robin pair {args.bc!r}, expected 'A,B'") from exc
    require(all(map(math.isfinite, bc)), "--bc", args.bc, "two finite numbers")
    if args.k + 2 * args.n <= 0:
        raise UsageError("k + 2n must be positive for an integrable measure")
    op = RadialOperator(k=args.k, n=args.n, m=args.m, mu=args.mu)
    report = radial_spectrum(op, args.t_domain, bc=bc, grid=args.grid,
                             count=args.count)
    payload = {
        "schema_version": SCHEMA_VERSION, "command": "spectrum",
        "operator": {"k": args.k, "n": args.n, "m": args.m, "mu": args.mu},
        "t_domain": args.t_domain, "bc": list(bc), "grid": args.grid,
        "eigenvalues": [float(x) for x in report.eigenvalues],
        "error_bars": [float(x) for x in report.error_bars],
    }
    emit(args, "spectrum.json", to_json(payload))
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hmlab",
        description="verification and comparison tools for the harmonic "
                    "family built here")
    sub = parser.add_subparsers(dest="command", required=True)

    # each subcommand registers only the flags it reads
    def common(p):
        p.add_argument("--family", required=True,
                       help="members as 'l:a,b;a,b'")
        p.add_argument("--out", default=None, help="directory for reports")

    p_verify = sub.add_parser("verify", help="run the identity batteries")
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", type=float, default=1e-8)
    p_verify.add_argument("--directions", type=int, default=100)
    p_verify.add_argument("--perturb", type=float, default=1.0,
                          help="bracket detuning factor; != 1 expects red")
    p_verify.set_defaults(func=cmd_verify)

    p_counter = sub.add_parser("counterexample",
                               help="side-by-side invariant table")
    common(p_counter)
    p_counter.add_argument("--tol", type=float, default=1e-8)
    # the one report with a CSV layout; other commands reject --format
    p_counter.add_argument("--format", choices=("json", "csv"), default="json")
    # accepted for scripts that pass it; the table draws nothing at random
    p_counter.add_argument("--seed", type=int, default=0)
    p_counter.set_defaults(func=cmd_counterexample)

    p_iso = sub.add_parser("isospec", help="lattice-sector spectral comparison")
    common(p_iso)
    p_iso.add_argument("--max-degree", type=int, default=1)
    p_iso.add_argument("--grid", type=int, default=128)
    p_iso.add_argument("--detune", type=float, default=1.0,
                       help="scale member B's mu; != 1 is a negative control")
    p_iso.set_defaults(func=cmd_isospec)

    p_sis = sub.add_parser("sis", help="identity-space transcript")
    common(p_sis)
    p_sis.set_defaults(func=cmd_sis)

    p_expand = sub.add_parser("expand", help="dump density and trace series")
    common(p_expand)
    p_expand.add_argument("--seed", type=int, default=0)
    p_expand.set_defaults(func=cmd_expand)

    p_spec = sub.add_parser("spectrum", help="solve one radial problem")
    p_spec.add_argument("--k", type=int, required=True)
    p_spec.add_argument("--n", type=int, default=0)
    p_spec.add_argument("--m", type=int, default=0)
    p_spec.add_argument("--mu", type=float, default=0.0)
    p_spec.add_argument("--t-domain", type=float, default=10.0)
    p_spec.add_argument("--bc", default="0,1")
    p_spec.add_argument("--grid", type=int, default=128)
    p_spec.add_argument("--count", type=int, default=6)
    p_spec.add_argument("--out", default=None)
    p_spec.set_defaults(func=cmd_spectrum)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, FamilyMismatch, DegenerateBoundary,
            UnsupportedCenterDimension) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HmlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
