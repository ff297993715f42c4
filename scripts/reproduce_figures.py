#!/usr/bin/env python3
"""Reproduce every bundled figure preset as CSV plot data.

Runs all six presets for both test matrices plus the two grid-operator
surface dumps, writing into an output directory (default ./figures-out)
and printing one summary line per file: row count, dominance violations
against the resolved oracle entries, the extremal bound/oracle ratios and
the Spearman rank correlation of log bound against log oracle over the
rows that carry a bound and a resolved oracle entry (does the bound follow
the decay, not only lie above it?).
"""

import argparse
import csv
import pathlib
import sys
import time

from scipy.stats import spearmanr

from decaybounds.cli import _positive_number
from decaybounds.figures import FIGURE_IDS, run_figure, run_surface


def rank_correlation(path, floor):
    """Spearman correlation of bound against oracle in the CSV at
    ``path``, over the rows with a bound and an oracle entry >= ``floor``
    (ranks, so the same as on their logs)."""
    with open(path, newline="") as fh:
        pairs = [(float(row["bound"]), float(row["oracle"]))
                 for row in csv.DictReader(fh)
                 if row["bound"] and float(row["oracle"]) >= floor]
    return spearmanr(*zip(*pairs)).statistic


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures-out")
    parser.add_argument("--quad-tol", type=_positive_number, default=1e-10)
    args = parser.parse_args(argv)
    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    failures = 0
    for figure_id in FIGURE_IDS:
        for kind in ("tridiag", "pentadiag"):
            path = out_dir / f"{figure_id}-{kind}.csv"
            t0 = time.perf_counter()
            s = run_figure(figure_id, kind, str(path), args.quad_tol)
            dt = time.perf_counter() - t0
            ok = s["violations"] == 0 and s["converged"]
            failures += 0 if ok else 1
            rmin = "n/a" if s["ratio_min"] is None else f"{s['ratio_min']:.3g}"
            rmax = "n/a" if s["ratio_max"] is None else f"{s['ratio_max']:.3g}"
            rho = rank_correlation(path, s["oracle_floor"])
            print(f"{path.name:28s} rows={s['rows']:4d} violations={s['violations']} "
                  f"ratio[{rmin}, {rmax}] spearman={rho:.4g} {dt:5.1f}s "
                  f"{'ok' if ok else 'FAIL'}")

    for function in ("exp", "inv_sqrt"):
        path = out_dir / f"surface-{function}.csv"
        run_surface(function, 5.0, 10, str(path))
        print(f"{path.name:28s} full 100x100 dump")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
