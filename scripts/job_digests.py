#!/usr/bin/env python3
"""Print one digest line per benchmark job, for byte-identity checks.

Runs every job of ``perfbench.workloads.all_variants`` with the
benchmark's own job runner (``perfbench/run.py``: in-process through
``decaybounds.cli.main``, BLAS pinned to one thread) and prints one line
per job:

    <workload> <key> <exit code> <CSV sha256> <stdout+stderr sha256>

The exit code is ``None`` for a job that raised; the captured text names
the exception.  The run directory in that text is replaced by ``<run>``,
so paths do not enter its digest; ``-`` stands for a CSV that was not
written.  Run it from the root of two source checkouts and ``diff`` the
outputs: equal lines mean the same CSV bytes, messages and exit codes.

    python3 scripts/job_digests.py

It reads ``perfbench/`` and writes only under a temporary directory.
"""

import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
if __name__ == "__main__":
    sys.dont_write_bytecode = True      # leave perfbench/ as it was
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

from decaybounds import cli  # noqa: E402


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def digest_lines(workload, jobs):
    """Digest lines of ``jobs``, which belong to ``workload``."""
    lines = []
    with tempfile.TemporaryDirectory(prefix="job-digests-") as tmp:
        runner = run.Runner(cli, pathlib.Path(tmp))
        runner.write_files(jobs)
        out = runner.run_dir / "out.csv"
        for job in jobs:
            rc, text, _ = runner.run_job(job, out)
            csv = "-"
            if out.exists():
                csv = _sha(out.read_bytes())
                out.unlink()
            text = text.replace(str(runner.run_dir), "<run>")
            lines.append(f"{workload} {job.key} {rc} {csv} {_sha(text.encode())}")
    return lines


def main():
    for workload in workloads.TEMPLATES:
        for line in digest_lines(workload, workloads.all_variants(workload)):
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
