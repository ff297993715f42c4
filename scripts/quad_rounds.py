#!/usr/bin/env python3
"""Print the lockstep quadrature's counts and times, one line per job.

Runs benchmark jobs with the benchmark's own job runner
(``perfbench/run.py``: in-process through ``decaybounds.cli.main``, BLAS
pinned to one thread) while ``decaybounds.bounds.run_steps``, the kernel
it is handed and ``bounds._orbits`` are wrapped, and prints one line per
job:

    <workload> <key> <calls> <tuples> <orbits> <steps> <rounds> <panels> <run_steps s> <kernel s>

``calls`` counts lockstep runs, ``tuples`` the distance tuples handed to
``laplace_bounds`` and ``orbits`` the ones it integrates (one per
permutation orbit over factors with equal enclosures; a Cauchy-class
single matrix counts neither), ``steps`` the integration steps,
``rounds`` the kernel calls and ``panels`` the abscissa rows handed to
the kernel.  The seconds are spent inside ``run_steps`` and, of those,
inside the kernel; their difference is the engine's own bookkeeping.
Every job of a workload runs (all pool variants and, for figures-kron,
the figure presets); ``--seed S`` runs the first pass of seed S instead,
in its benchmark order.  A ``total`` line per workload follows its jobs.

    python3 scripts/quad_rounds.py --workload figures-kron --seed 1

The counts depend on the jobs only, so two checkouts of one algorithm
print the same counts; only the seconds differ.  It reads
``perfbench/`` and writes only under a temporary directory.
"""

import argparse
import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.dont_write_bytecode = True      # leave perfbench/ as it was
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

from decaybounds import bounds, cli  # noqa: E402

FIELDS = ("calls", "tuples", "orbits", "steps", "rounds", "panels",
          "run_steps_s", "kernel_s")


class Counter:
    """Counts and times of every ``bounds.run_steps`` and
    ``bounds._orbits`` call made while it is installed."""

    def __init__(self):
        self.totals = dict.fromkeys(FIELDS, 0)

    def wrap(self, run_steps):
        clock = time.perf_counter
        totals = self.totals

        def counted(kernel, a, b, rtol, singularity, max_panels):
            totals["calls"] += 1
            totals["steps"] += len(a)

            def timed(x, step):
                t0 = clock()
                y = kernel(x, step)
                totals["kernel_s"] += clock() - t0
                totals["rounds"] += 1
                totals["panels"] += len(x)
                return y

            t0 = clock()
            try:
                return run_steps(timed, a, b, rtol, singularity, max_panels)
            finally:
                totals["run_steps_s"] += clock() - t0
        return counted

    def wrap_orbits(self, orbits):
        totals = self.totals

        def counted(terms, distances):
            found = orbits(terms, distances)
            totals["tuples"] += len(found[1])
            totals["orbits"] += len(found[0])
            return found
        return counted

    def take(self):
        """The totals since the last take, reset to zero."""
        out = dict(self.totals)
        self.totals.update(dict.fromkeys(FIELDS, 0))
        return out


def _line(workload, key, c):
    return (f"{workload} {key} {c['calls']} {c['tuples']} {c['orbits']} "
            f"{c['steps']} {c['rounds']} {c['panels']} "
            f"{c['run_steps_s']:.4f} {c['kernel_s']:.4f}")


def job_lines(workload, jobs):
    """One line per job of ``workload`` plus a total line."""
    counter = Counter()
    original = bounds.run_steps, bounds._orbits
    bounds.run_steps = counter.wrap(original[0])
    bounds._orbits = counter.wrap_orbits(original[1])
    lines, total = [], dict.fromkeys(FIELDS, 0)
    try:
        with tempfile.TemporaryDirectory(prefix="quad-rounds-") as tmp:
            runner = run.Runner(cli, pathlib.Path(tmp))
            runner.write_files(jobs)
            out = runner.run_dir / "out.csv"
            for job in jobs:
                counter.take()
                runner.run_job(job, out)
                c = counter.take()
                for f in FIELDS:
                    total[f] += c[f]
                lines.append(_line(workload, job.key, c))
                if out.exists():
                    out.unlink()
    finally:
        bounds.run_steps, bounds._orbits = original
    lines.append(_line(workload, "total", total))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(workloads.TEMPLATES),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int,
                        help="run the first benchmark pass of this seed")
    args = parser.parse_args(argv)
    for workload in args.workload or list(workloads.TEMPLATES):
        if args.seed is None:
            jobs = workloads.all_variants(workload)
        else:
            jobs = workloads.plan(workload, args.seed)[0]
        for line in job_lines(workload, jobs):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
