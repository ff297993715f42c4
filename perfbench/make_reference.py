#!/usr/bin/env python3
"""Write the reference cells the output check compares against.

    python3 perfbench/make_reference.py quad-column dense-oracle figures-kron

Runs every variant in each workload's pool once (untimed) and stores,
per job, the CSV header, every bound cell, the oracle cells at or above
the oracle resolution floor, and that floor, in
``perfbench/reference/<workload>.npz``.  The floor is the one the program
itself passes to its dominance statistics.  References belong to the
commit that defined the benchmark; a change that claims a gain must not
regenerate them.
"""

from __future__ import annotations

import sys

import run  # pins BLAS threads before numpy is imported


def main(argv):
    cli = run._import_program()
    if cli is None:
        print("make_reference.py: no decaybounds sources", file=sys.stderr)
        return 2
    import numpy as np
    from decaybounds import figures

    import check
    from workloads import all_variants

    floors = []
    stats = figures._ratio_stats

    def capture(pairs, floor):
        floors.append(floor)
        return stats(pairs, floor)

    figures._ratio_stats = capture
    run.OUT.mkdir(exist_ok=True)
    for workload in argv:
        jobs = [j for j in all_variants(workload) if j.layout != "surface"]
        runner = run.setup(cli, [jobs])
        arrays = {}
        try:
            for job in jobs:
                out = runner.run_dir / "ref.csv"
                floors.clear()
                rc, text, dt = runner.run_job(job, out)
                if rc != 0 or len(floors) != 1:
                    raise RuntimeError(f"{job.key}: exit {rc}: {text}")
                for field, value in check.make_reference(
                        out, job.layout, floors[0]).items():
                    arrays[f"{job.key}:{field}"] = value
                print(f"{job.key:28s} {dt:6.2f}s  {' '.join(job.argv)}",
                      flush=True)
        finally:
            run.shutil.rmtree(runner.run_dir, ignore_errors=True)
        np.savez_compressed(run.HERE / "reference" / f"{workload}.npz", **arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
