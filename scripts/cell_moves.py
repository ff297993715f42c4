#!/usr/bin/env python3
"""Print how far each benchmark job's cells move from another checkout.

    python3 scripts/cell_moves.py OTHER_ROOT [--workload W] [--job KEY ...]

Runs benchmark jobs (every job of ``perfbench.workloads.all_variants``,
or those named) in this checkout and in the checkout at OTHER_ROOT, with
each checkout's own job runner (``perfbench/run.py``'s ``Runner``: in
process through ``decaybounds.cli.main``, BLAS pinned to one thread).
Each checkout runs in a child process of its own, since one process
imports one ``decaybounds``.  A job whose exit code, CSV bytes and output
text (with the run directory masked) are equal in both counts as the
same, so "0 of N jobs moved" on every workload is the byte-identity gate
between two checkouts.  For every other job one line follows:

    <workload> <key> bound <move> margin <m> oracle <move> margin <m> check <verdict>

``bound`` is the largest relative move of a bound cell, |this - other| /
|other|.  ``oracle`` is the same over the oracle cells that the committed
reference keeps (at or above its floor); surface dumps report their value
cells there.  Each margin is the smallest ratio, over the cells that
moved, of the cell's own tolerance in ``perfbench/check.py`` to its move
|this - other|: for a bound cell the job's relative tolerance
(``CLOSED_RTOL``, or ``QUAD_FACTOR`` times its ``--quad-tol``) times
|other|, for an oracle cell ``CLOSED_RTOL`` |other| plus the reference
floor / 100, for a surface cell ``CLOSED_RTOL`` |other| plus its rounding
level n eps max|f|.  A margin below 1 means some cell moved by more than
check.py allows.  ``check`` is check.py's verdict on this checkout's CSV
against the committed reference.  A summary line per workload counts the
moved jobs.

It reads ``perfbench/`` of both checkouts and writes only under a
temporary directory.
"""

import argparse
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

# numpy and the perfbench modules are imported inside the functions: a
# child process imports the other checkout's run.py, which pins the BLAS
# threads, before numpy loads.


def collect(root, out_dir, workload, keys):
    """Child process: run the jobs ``keys`` of ``workload`` with the
    sources and job runner of ``root``; write each CSV to ``out_dir`` and
    the exit codes and output texts to ``out_dir/jobs.json``."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import run  # (pins BLAS threads before numpy loads)
    import workloads
    from decaybounds import cli

    jobs = {job.key: job for job in workloads.all_variants(workload)}
    jobs = [jobs[key] for key in keys]
    runner = run.Runner(cli, out_dir)
    runner.write_files(jobs)
    results = {}
    for i, job in enumerate(jobs):
        out = out_dir / f"{i}.csv"
        rc, text, _ = runner.run_job(job, out)
        results[job.key] = {"rc": rc,
                            "csv": out.name if out.exists() else None,
                            "text": text.replace(str(out_dir), "<run>")}
    (out_dir / "jobs.json").write_text(json.dumps(results))


def _run_child(root, out_dir, workload, keys):
    out_dir.mkdir()
    script = str(pathlib.Path(__file__).resolve())
    subprocess.run([sys.executable, "-B", script, "--collect", str(root),
                    str(out_dir), workload, *keys], check=True)
    return json.loads((out_dir / "jobs.json").read_text())


def largest_move(this, other):
    """Largest |this - other| / |other| over cells filled in both (0 for
    equal cells, inf for a move off a zero cell); None when no cell is
    filled in both."""
    import numpy as np

    both = ~np.isnan(this) & ~np.isnan(other)
    if not both.any():
        return None
    a, b = this[both], other[both]
    diff = np.abs(a - b)
    with np.errstate(divide="ignore", invalid="ignore"):
        rel = np.where(diff == 0, 0.0, diff / np.abs(b))
    return float(np.max(rel))


def least_margin(this, other, rtol, atol):
    """Smallest ratio of a cell's tolerance, rtol |other| + atol, to its
    move |this - other|, over cells filled in both (inf when none moved);
    None when no cell is filled in both."""
    import numpy as np

    both = ~np.isnan(this) & ~np.isnan(other)
    if not both.any():
        return None
    diff = np.abs(this[both] - other[both])
    tol = rtol * np.abs(other[both]) + atol
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.min(np.where(diff == 0, np.inf, tol / diff)))


def _surface_values(path):
    import numpy as np

    with open(path) as fh:
        next(fh)
        return np.array([float(line.rsplit(",", 1)[1]) for line in fh])


def _fmt(this, other, rtol, atol=0.0):
    move = largest_move(this, other)
    if move is None:
        return "- margin -"
    return f"{move:.3g} margin {least_margin(this, other, rtol, atol):.3g}"


def job_line(workload, job, this, other, this_dir, other_dir, ref):
    """The report line of one job run in both checkouts, None when the
    two runs are the same."""
    import check
    import numpy as np

    def read(result, folder):
        name = result["csv"]
        return None if name is None else (folder / name).read_bytes()

    if (this["rc"], this["text"], read(this, this_dir)) == (
            other["rc"], other["text"], read(other, other_dir)):
        return None
    head = f"{workload} {job.key}"
    if this["rc"] != other["rc"] or None in (this["csv"], other["csv"]):
        return f"{head} exit {other['rc']} -> {this['rc']}"
    a, b = this_dir / this["csv"], other_dir / other["csv"]
    if job.layout == "surface":
        _, fmax = check.grid_function(*job.surface)
        rounding = job.surface[2] ** 2 * np.finfo(float).eps * fmax
        moves = _fmt(_surface_values(a), _surface_values(b),
                     check.CLOSED_RTOL, rounding)
        return (f"{head} bound - margin - oracle {moves} "
                f"check {check.check_surface(a, job) or 'ok'}")
    _, bound, oracle = check.read_cells(a, job.layout)
    _, bound0, oracle0 = check.read_cells(b, job.layout)
    if not np.array_equal(np.isnan(bound), np.isnan(bound0)):
        return f"{head} empty bound cells differ"
    rtol = (check.CLOSED_RTOL if job.quad_tol is None
            else check.QUAD_FACTOR * job.quad_tol)
    kept, floor = np.ones(oracle.shape, bool), 0.0
    verdict = f"no reference for {job.key}"
    if ref is not None:
        kept, floor = ~np.isnan(ref["oracle"]), float(ref["floor"][0])
        verdict = check.check_bounds(a, job, ref)[0] or "ok"
    moves = _fmt(np.where(kept, oracle, np.nan),
                 np.where(kept, oracle0, np.nan), check.CLOSED_RTOL, floor / 100)
    return (f"{head} bound {_fmt(bound, bound0, rtol)} "
            f"oracle {moves} check {verdict}")


def compare(other_root, workload, keys):
    """Report lines of ``keys`` (jobs of ``workload``) against the
    checkout at ``other_root``, then the workload's summary line."""
    import numpy as np
    import workloads

    jobs = {job.key: job for job in workloads.all_variants(workload)}
    refs = {}
    with np.load(ROOT / "perfbench" / "reference" / f"{workload}.npz") as npz:
        for name in npz.files:
            key, _, field = name.rpartition(":")
            refs.setdefault(key, {})[field] = npz[name]
    with tempfile.TemporaryDirectory(prefix="cell-moves-") as tmp:
        this_dir = pathlib.Path(tmp, "this")
        other_dir = pathlib.Path(tmp, "other")
        this = _run_child(ROOT, this_dir, workload, keys)
        other = _run_child(other_root, other_dir, workload, keys)
        lines = [job_line(workload, jobs[key], this[key], other[key],
                          this_dir, other_dir, refs.get(key)) for key in keys]
    moved = [line for line in lines if line is not None]
    return moved + [f"{workload}: {len(moved)} of {len(keys)} jobs moved"]


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other_root", type=pathlib.Path)
    parser.add_argument("--workload", choices=sorted(workloads.TEMPLATES))
    parser.add_argument("--job", action="append", default=[],
                        help="a job key such as resolvent-0/2; repeatable")
    args = parser.parse_args(argv)
    for workload in [args.workload] if args.workload else workloads.TEMPLATES:
        keys = [job.key for job in workloads.all_variants(workload)
                if not args.job or job.key in args.job]
        if keys:
            for line in compare(args.other_root.resolve(), workload, keys):
                print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.dont_write_bytecode = True      # leave perfbench/ as it was
    if sys.argv[1:2] == ["--collect"]:
        root, out_dir, workload, *keys = sys.argv[2:]
        collect(pathlib.Path(root), pathlib.Path(out_dir), workload, keys)
    else:
        sys.path.insert(0, str(ROOT / "perfbench"))
        sys.exit(main())
