#!/usr/bin/env bash
# Run every hmlab report command against two source trees and diff what
# they write.
#
# Usage: .github/report-diff.sh BASE_SRC HEAD_SRC
#
# Each command runs with PYTHONPATH at one src directory, from a temporary
# directory, with --out in a fresh subdirectory per command; its exit code,
# stdout and stderr are written next to its report.  Exits 1 if `diff -r`
# finds any difference between the two sides, 0 otherwise.
set -euo pipefail

if [ "$#" -ne 2 ]; then
  echo "usage: $0 BASE_SRC HEAD_SRC" >&2
  exit 2
fi

commands=(
  "verify --family 3:2,0;1,1"
  "verify --family 1:1,0 --perturb 1.25"
  "counterexample --family 3:2,0;1,1"
  "counterexample --family 3:2,0;1,1 --format csv"
  "isospec --family 3:2,0;1,1 --max-degree 3"
  "isospec --family 3:2,0;1,1 --max-degree 1 --detune 1.1"
  "isospec --family 3:3,0;2,1 --max-degree 2"
  "sis --family 3:2,0"
  "sis --family 3:1,1"
  "expand --family 3:2,0"
  "expand --family 3:1,1"
  "spectrum --k 2 --n 0 --m 0 --mu 0.5 --t-domain 40 --grid 256"
  "spectrum --k 2 --bc 1,0.5"
  "verify --family 3:3,0;2,1"
  "counterexample --family 3:3,0;2,1"
  "counterexample --family 3:5,0;4,1"
  # a non-dyadic member, where a change in summation order shows in the
  # last bits; the dyadic members above sum exactly in any order
  "verify --family 3:2,0;1,1 --perturb 1.1"
  # more directions than one Monte Carlo block, ending in a short jet block
  "verify --family 3:2,0;1,1 --directions 1100 --seed 3"
  # the 24-dim pair through verify, which lets go of each member's nabla R
  # (64 MB) before the next member's is formed
  "verify --family 3:5,0;4,1 --directions 40"
  # the J-map comparison at center dimension 1, whose two lattice vectors
  # lie on one ray, and the noise wave at n = 6
  "isospec --family 1:1,0;0,1 --max-degree 2"
  "sis --family 1:2,0"
  # every argument of radial_spectrum that the real check reads, with
  # nonzero n and m and a Robin pair other than the default
  "spectrum --k 3 --n 1 --m -1 --mu 0.25 --bc 1,0 --t-domain 20"
  # positive controls: members that agree in every counterexample column
  "counterexample --family 3:2,0;0,2"
  "counterexample --family 2:2,0;1,1"
  # the harmonic r^6 closure at center dimensions 1 and 2, one of them at
  # odd n = 7
  "expand --family 2:1,0"
  "expand --family 1:2,0"
  # a negative Robin entry, which only the = form passes to --bc
  "spectrum --k 2 --bc=-1,1 --grid 64 --count 2"
  # the isospec lattice at center dimension 2, on a positive control
  "isospec --family 2:2,0;1,1 --max-degree 2"
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

run_side() {  # run_side NAME SRC
  local src dir i args rc
  src=$(cd "$2" && pwd)
  dir="$work/$1"
  mkdir -p "$dir"
  for i in "${!commands[@]}"; do
    read -r -a args <<< "${commands[$i]}"
    rc=0
    # relative --out, so no message names the temporary directory
    (cd "$dir" && PYTHONPATH="$src" exec python3 -m hmlab.cli "${args[@]}" \
       --out "$i" > "$dir/$i.stdout" 2> "$dir/$i.stderr") || rc=$?
    echo "$rc" > "$dir/$i.exit"
  done
}

run_side base "$1"
run_side head "$2"
if diff -r "$work/base" "$work/head"; then
  echo "reports identical: ${#commands[@]} commands"
else
  echo "reports differ" >&2
  exit 1
fi
