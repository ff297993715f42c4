#!/usr/bin/env python3
"""decaybounds benchmark: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload quad-column --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Every job is one documented
``decay`` command, called in-process through ``decaybounds.cli.main(argv)``
with ``--out`` set to a file under ``.perfbench-out/`` (closed loop, one
job at a time, BLAS pinned to one thread).  Jobs run in passes; a pass is
one variant of every job template of the workload (see workloads.py), and
passes repeat until the next one would end after ``--seconds``.  Every job
output is checked after the timed region (see check.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs half the
time untraced and then replays the same passes under the span tracer
(tracer.py) and prints the per-layer metrics.  The last line of standard
output is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
sys.dont_write_bytecode = True      # leave the checkout as it was

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.io  # noqa: E402

import check  # noqa: E402
from workloads import (EXCLUDED, TEMPLATES, WHY, grid_matrix,  # noqa: E402
                       plan, warmup_jobs)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_PROBES = 3

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "ok_frac": "frac", "bound_cells": "count",
                    "ratio_median": "ratio"}


def _import_program():
    """Import decaybounds from this checkout's ``src/``; None if absent."""
    src = ROOT / "src"
    if not (src / "decaybounds" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import decaybounds
    from decaybounds import cli
    if Path(decaybounds.__file__).resolve().parent != src / "decaybounds":
        return None
    return cli


class Runner:
    """Per-run state: the program entry point and the run directory."""

    def __init__(self, cli, run_dir):
        self.run_dir = run_dir
        self.call = cli.main

    def write_files(self, jobs):
        for job in jobs:
            for name, m, seed in job.files:
                path = self.run_dir / name
                if not path.exists():
                    scipy.io.mmwrite(str(path),
                                     grid_matrix(np.random.default_rng(seed), m),
                                     symmetry="symmetric")

    def argv(self, job, out):
        names = {f[0] for f in job.files}
        return [str(self.run_dir / a) if a in names else a
                for a in job.argv] + ["--out", str(out)]

    def run_job(self, job, out):
        """Run one command; returns (exit code or None, captured text,
        seconds).  An exception counts as a failed job."""
        argv = self.argv(job, out)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            t0 = time.perf_counter()
            try:
                rc = self.call(argv)
            except Exception as exc:    # counted like a non-zero exit
                rc = None
                print(f"{type(exc).__name__}: {exc}", file=buf)
            dt = time.perf_counter() - t0
        return rc, buf.getvalue(), dt


def setup(cli, passes):
    """Inputs for every pass plus warm-up of every code path."""
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    runner = Runner(cli, run_dir)
    runner.write_files([j for jobs in passes for j in jobs])
    warm = warmup_jobs()
    runner.write_files(warm)
    for job in warm:
        rc, text, _ = runner.run_job(job, run_dir / "warm.csv")
        if rc != 0:
            raise RuntimeError(f"warm-up {' '.join(job.argv)} failed: {text}")
    return runner


def probe_setup(workload, seed):
    """Wall time of a fresh process from spawn until its first job is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline().strip()
        ready = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready" or rc != 0:
        raise RuntimeError(f"setup probe failed (exit {rc}, said {line!r})")
    return ready


def check_job(job, out, refs):
    """Return (failure reason or None, bound cells, ratios)."""
    if job.layout == "surface":
        return check.check_surface(out, job), 0, []
    ref = refs.get(job.key)
    if ref is None:
        return f"no reference for {job.key}", 0, []
    return check.check_bounds(out, job, ref)


def run_passes(runner, passes, seconds, refs, tracer=None):
    """Run whole passes until the next one would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    for p, jobs in enumerate(passes):
        if results:
            spent = time.perf_counter() - start
            if spent + statistics.mean(r["span_s"] for r in results) > seconds:
                break
        t_pass = time.perf_counter()
        if tracer is not None:
            tracer.begin_pass(p)
        times, outcomes = [], []
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.job = job.key
            out = runner.run_dir / f"pass{p}-{i}.csv"
            rc, text, dt = runner.run_job(job, out)
            times.append(dt)
            outcomes.append((job, out, rc, text))
        layers = tracer.end_pass() if tracer is not None else None
        jobs_out, cells, ratios = [], 0, []
        for (job, out, rc, text), dt in zip(outcomes, times):
            reason = None if rc == 0 else f"exit {rc}: {text.strip()[-400:]}"
            if reason is None:
                reason, n_cells, job_ratios = check_job(job, out, refs)
                cells += n_cells
                ratios += job_ratios
            if out.exists():
                out.unlink()
            jobs_out.append({"job": job.key, "argv": list(job.argv),
                             "seconds": dt, "failure": reason})
        results.append({
            "pass": p, "wall_s": sum(times),
            "bound_cells": cells, "ratios": ratios, "jobs": jobs_out,
            "layers": layers, "span_s": time.perf_counter() - t_pass})
    return results


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TEMPLATES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = _import_program()
    if cli is None:
        print(f"run.py: no decaybounds sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    passes = plan(args.workload, args.seed)
    runner = setup(cli, passes)
    try:
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        refs_path = HERE / "reference" / f"{args.workload}.npz"
        with np.load(refs_path, allow_pickle=False) as npz:
            refs = {}
            for name in npz.files:
                key, _, field = name.rpartition(":")
                refs.setdefault(key, {})[field] = npz[name]
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]

        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_passes(runner, passes, budget, refs)
        traced = []
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer("decaybounds")
            tracer.install()
            runner.call = tracer.wrap("cli.main", "cli", cli.main)
            try:
                traced = run_passes(runner, passes[:len(untraced)], budget,
                                    refs, tracer)
            finally:
                tracer.uninstall()
                runner.call = cli.main
    finally:
        shutil.rmtree(runner.run_dir, ignore_errors=True)

    all_passes = untraced + traced
    jobs = [j for r in all_passes for j in r["jobs"]]
    failed = [j for j in jobs if j["failure"] is not None]
    for j in failed:
        print(f"FAILED {j['job']}: decay {' '.join(j['argv'])}\n  {j['failure']}",
              file=sys.stderr)
    if args.trace:
        n = len(traced)
        layer = {name: _median(r["layers"][name] for r in traced)
                 for name in tracing.METRICS}
        layer["trace.overhead_ratio"] = (
            sum(r["wall_s"] for r in traced) / sum(r["wall_s"] for r in untraced[:n]))
        layer["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
        units = {name: unit for name, (_, unit) in tracing.METRICS.items()}
        units.update({"trace.overhead_ratio": "ratio", "trace.wall_s": "s"})
        metrics = {k: {"value": v, "unit": units[k]} for k, v in layer.items()}
        for lay, names in tracer.unmeasured.items():
            print(f"layer {lay} unmeasured: missing {', '.join(names)}",
                  file=sys.stderr)
    else:
        ratios = [x for r in untraced for x in r["ratios"]]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (len(jobs) - len(failed)) / len(jobs),
            "bound_cells": statistics.median(r["bound_cells"] for r in untraced),
            "ratio_median": statistics.median(ratios) if ratios else None,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                   for k, v in values.items()}

    env = environment()
    record = {
        "workload": args.workload, "why": WHY[args.workload],
        "excluded": EXCLUDED if args.workload == "figures-kron" else None,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, "setup_probes_s": setups,
        "metrics": metrics,
        "passes": [{k: v for k, v in r.items() if k != "ratios"}
                   for r in all_passes],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.csv.gz", _START)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failed, "attempted": len(jobs),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
