#!/usr/bin/env python3
"""Reproduce every bundled figure preset as CSV plot data.

Runs all six presets for both test matrices plus the two grid-operator
surface dumps, writing into an output directory (default ./figures-out)
and printing one summary line per file: row count, dominance violations
against the resolved oracle entries, and the extremal bound/oracle ratios.
"""

import argparse
import pathlib
import sys
import time

from decaybounds.cli import _positive_number
from decaybounds.figures import FIGURE_IDS, run_figure, run_surface


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures-out")
    parser.add_argument("--quad-tol", type=_positive_number(float), default=1e-10)
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
            print(f"{path.name:28s} rows={s['rows']:4d} violations={s['violations']} "
                  f"ratio[{rmin}, {rmax}] {dt:5.1f}s {'ok' if ok else 'FAIL'}")

    for function in ("exp", "inv_sqrt"):
        path = out_dir / f"surface-{function}.csv"
        run_surface(function, 5.0, 10, str(path))
        print(f"{path.name:28s} full 100x100 dump")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
