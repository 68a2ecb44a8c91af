"""Write expected.json: the exact fields the reports_pair checks compare.

Run from the repository root at the commit whose outputs are the
reference:  PYTHONPATH=src python3 bench/record_expected.py
"""

import json

from workloads import (COUNTEREXAMPLE, EXPECTED_PATH, ISOSPEC_PAIR, SIS,
                       SPECTRUM, isospec_cells, run_cli, sis_exact)


def main():
    spectrum = run_cli(SPECTRUM).json()
    expected = {
        "isospec_cells": isospec_cells(run_cli(ISOSPEC_PAIR).json()),
        "counterexample_marks": run_cli(COUNTEREXAMPLE).json()["marks"],
        "sis": sis_exact(run_cli(SIS).json()),
        "spectrum": {"eigenvalues": spectrum["eigenvalues"],
                     "error_bars": spectrum["error_bars"]},
    }
    EXPECTED_PATH.write_text(json.dumps(expected, sort_keys=True, indent=1)
                             + "\n")


if __name__ == "__main__":
    main()
