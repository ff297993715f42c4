"""Seeded job lists for the three benchmark workloads.

Every job is one documented ``decay`` command line.  Each job template has
a pool of ``POOL`` variants; variant ``v`` of a template is drawn from a
generator seeded by (template, v) alone, so its inputs, and hence the
committed reference cells in ``reference/``, never depend on the run seed.
The run seed only chooses which variant of each template every pass uses
(an independent permutation per template), so every seed is covered by
the references and no two jobs of one run share a matrix.  The figure
presets take no parameters and run as they ship.
"""

from __future__ import annotations

import dataclasses
import zlib

import numpy as np

POOL = 4

WHY = {
    "quad-column": (
        "Per-row adaptive quadrature is about 90% of its time: in a prototype "
        "trace quadrature self time was 5.3 s and exp_envelope 3.9 s of "
        "10.1 s, while eigendecompositions took under 10%.  ROADMAP items 2 "
        "(column-at-once) and 4b (outward bound) show up here."),
    "dense-oracle": (
        "Quadrature does no work here.  The enclosure eigvalsh (3.0 s) and "
        "the oracle eigh (5.9 s) are about 90% of 9.8 s.  It is where "
        "'skip the repeated O(n^3) pass' shows, and where a quadrature "
        "change must show no movement."),
    "figures-kron": (
        "Many short jobs go through the figure and Kronecker drivers.  The "
        "product-envelope evaluation is about 57% (13.7 s of 24.1 s), and "
        "distance tuples repeat heavily.  The one-engine merge (ROADMAP "
        "item 3) must not slow this path, and the surface dumps give the "
        "CSV layer real work."),
}

# The one documented command left out of figures-kron: at the commit that
# defined this benchmark it ran for 73 s to 103 s on a 2-core Xeon and then
# exited 2 ("Laplace transform of expsqrt:1 did not converge", ROADMAP item
# 4a).  One such job would be several times the rest of the workload.
EXCLUDED = ("decay kron --factors tridiag,tridiag --n 20 --class cauchy "
            "--function expsqrt:1 --column 94")

FIGURE_IDS = ("fig1-exp", "fig2-ls-invsqrt", "fig3-ls-phi1",
              "fig4-cs-invsqrt", "fig6-kron-phi1", "fig7-kron-invsqrt")
_FIGURE_CLOSED = ("fig1-exp", "fig4-cs-invsqrt")
_FIGURE_QUAD_TOL = 1e-10   # `decay figure` default
_QUAD_TOL = 1e-8           # `decay compare` / `decay kron` default


@dataclasses.dataclass(frozen=True)
class Job:
    """One command line plus what the output check needs to know.

    ``layout`` names the CSV columns the command writes (compare, figure,
    kron or surface).  ``quad_tol`` is the job's quadrature tolerance when
    its bound cells come from adaptive quadrature, None when they are
    closed-form.  ``files`` lists the Matrix Market inputs the command
    reads as (name in the run directory, grid side, generator seed).
    ``key`` names the job's reference cells: ``<template>/<variant>``.
    """

    argv: tuple
    layout: str
    quad_tol: float | None = None
    files: tuple = ()
    surface: tuple = ()     # (function, tau, grid_n) for surface dumps
    key: str = ""


def _rng(template, variant):
    return np.random.default_rng([zlib.crc32(template.encode()), variant])


def _jitter(rng, base, width=8):
    return int(base + rng.integers(-width, width + 1))


def _stencil(rng, kind):
    """Perturbed standard stencil as a generator string (kept diagonally
    dominant, so the matrix stays positive definite)."""
    if kind == "tridiag":
        off, diag = -1.0 * rng.uniform(0.9, 1.1), 4.0 * rng.uniform(0.95, 1.05)
        return f"tridiag:{off:.4f},{diag:.4f},{off:.4f}"
    o2, o1 = -0.5 * rng.uniform(0.9, 1.1), -1.0 * rng.uniform(0.9, 1.1)
    diag = 4.0 * rng.uniform(0.95, 1.05)
    return f"pentadiag:{o2:.4f},{o1:.4f},{diag:.4f},{o1:.4f},{o2:.4f}"


def grid_matrix(rng, m):
    """Perturbed 5-point operator on an m x m grid: edge weights in
    [0.9, 1.1] and a diagonal that dominates by a margin in [0.3, 0.6]."""
    import scipy.sparse as sp

    n = m * m
    idx = np.arange(n).reshape(m, m)
    rows = np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()])
    cols = np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()])
    w = rng.uniform(0.9, 1.1, rows.size)
    off = sp.coo_matrix((-w, (rows, cols)), shape=(n, n))
    off = off + off.T
    diag = -np.asarray(off.sum(axis=1)).ravel() + rng.uniform(0.3, 0.6, n)
    return (off + sp.diags(diag)).tocsr()


def _compare(matrix, n, klass, function=None, column=None, distance=None,
             extra=(), files=()):
    argv = ["compare", "--matrix", matrix]
    if n is not None:
        argv += ["--n", str(n)]
    argv += ["--class", klass]
    if function is not None:
        argv += ["--function", function]
    argv += ["--column", str(column)]
    if distance is not None:
        argv += ["--distance", distance]
    argv += [*extra, "--self-check"]
    quad = klass == "laplace" or (klass == "cauchy" and function != "inv")
    return Job(tuple(argv), "compare", _QUAD_TOL if quad else None,
               tuple(files))


def _band_column(kind, base_n, klass, function=None, param=None):
    def make(rng):
        n = _jitter(rng, base_n)
        fn = function(rng) if callable(function) else function
        col = int(rng.integers(9 * n // 20, 11 * n // 20 + 1))
        extra = param(rng) if param else ()
        return _compare(_stencil(rng, kind), n, klass, fn, col, extra=extra)
    return make


def _central_index(rng, sides):
    """Linear index (first component fastest) of a seeded multi-index
    near the centre; off-centre columns have longer rows of distances,
    so keeping near the centre keeps the work per variant alike."""
    lin, stride = 1, 1
    for side in sides:
        half = max(1, side // 20)
        lin += (int(rng.integers(side // 2 - half, side // 2 + half + 1)) - 1) * stride
        stride *= side
    return lin


def _grid_column(m, klass, function):
    def make(rng):
        seed = int(rng.integers(2 ** 32))
        name = f"grid{m}-{seed}.mtx"
        col = _central_index(rng, (m, m))
        return _compare(name, None, klass, function, col, "graph",
                        files=((name, m, seed),))
    return make


def _kron(kinds, n, klass, function):
    # `decay kron` splits --factors at commas, so the factors are the plain
    # generators and only the column is seeded.
    def make(rng):
        factors = ",".join(kinds)
        col = _central_index(rng, (n,) * len(kinds))
        argv = ("kron", "--factors", factors, "--n", str(n), "--class", klass,
                "--function", function, "--column", str(col))
        return Job(argv, "kron", _QUAD_TOL)
    return make


def _surface_exp(rng):
    tau = round(float(rng.uniform(4.5, 5.5)), 3)
    return Job(("surface", "--function", "exp", "--tau", str(tau),
                "--grid-n", "20"), "surface", surface=("exp", tau, 20))


def _surface_inv_sqrt(rng):
    return Job(("surface", "--function", "inv_sqrt", "--grid-n", "20"),
               "surface", surface=("inv_sqrt", 0.0, 20))


def _round(lo, hi, digits=3):
    return lambda rng: round(float(rng.uniform(lo, hi)), digits)


TEMPLATES = {
    "quad-column": {
        "lap-inv_sqrt": _band_column("tridiag", 560, "laplace", "inv_sqrt"),
        "lap-phi1": _band_column("pentadiag", 900, "laplace", "phi1"),
        "lap-log1p_inv": _band_column("tridiag", 520, "laplace", "log1p_inv"),
        "lap-inv_pow": _band_column(
            "pentadiag", 500, "laplace",
            lambda rng: f"inv_pow:{_round(0.5, 0.6)(rng)}"),
        "cau-expsqrt": _band_column(
            "tridiag", 620, "cauchy",
            lambda rng: f"expsqrt:{_round(1.1, 1.3)(rng)}"),
        "cau-log1p_over_z": _band_column("pentadiag", 640, "cauchy",
                                         "log1p_over_z"),
        "cau-inv_sqrt": _band_column("tridiag", 1000, "cauchy", "inv_sqrt"),
        "graph-lap-inv_sqrt": _grid_column(30, "laplace", "inv_sqrt"),
    },
    "dense-oracle": {
        "exp": _band_column(
            "tridiag", 2000, "exp",
            param=lambda rng: ("--tau", str(_round(3.0, 4.0)(rng)))),
        "resolvent-0": _band_column("pentadiag", 2000, "resolvent",
                                    param=lambda rng: ("--zeta", "0")),
        "resolvent-zeta": _band_column(
            "tridiag", 2000, "resolvent",
            param=lambda rng: ("--zeta", str(_round(0.6, 1.0)(rng)))),
        "graph-cau-inv": _grid_column(45, "cauchy", "inv"),
    },
    "figures-kron": {
        "surface-exp": _surface_exp,
        "surface-inv_sqrt": _surface_inv_sqrt,
        "kron3-lap-inv_sqrt": _kron(("tridiag",) * 3, 10, "laplace",
                                    "inv_sqrt"),
        "kron2-cau-log1p_over_z": _kron(("tridiag", "pentadiag"), 20,
                                        "cauchy", "log1p_over_z"),
    },
}


def figure_jobs():
    """The 12 bundled presets; they take no parameters."""
    jobs = []
    for fid in FIGURE_IDS:
        for kind in ("tridiag", "pentadiag"):
            tol = None if fid in _FIGURE_CLOSED else _FIGURE_QUAD_TOL
            jobs.append(Job(("figure", fid, "--matrix-kind", kind), "figure",
                            tol, key=f"{fid}-{kind}/fixed"))
    return jobs


def variant(workload, template, v):
    """Variant ``v`` of one job template, with its reference key."""
    job = TEMPLATES[workload][template](_rng(template, v))
    return dataclasses.replace(job, key=f"{template}/{v}")


def all_variants(workload):
    """Every job the pool can hand out, for reference generation."""
    jobs = [variant(workload, t, v) for t in TEMPLATES[workload]
            for v in range(POOL)]
    if workload == "figures-kron":
        jobs += figure_jobs()
    return jobs


def plan(workload, seed):
    """Pass list for a run: pass p takes variant perm[t][p] of template t.
    At most POOL passes, so no seeded matrix is used twice; the figure
    presets, which have no parameters, run unchanged in every pass."""
    rng = np.random.default_rng(seed)
    perms = {t: rng.permutation(POOL) for t in TEMPLATES[workload]}
    passes = []
    for p in range(POOL):
        jobs = [variant(workload, t, int(perms[t][p])) for t in TEMPLATES[workload]]
        if workload == "figures-kron":
            jobs = figure_jobs() + jobs
        order = rng.permutation(len(jobs))
        passes.append([jobs[i] for i in order])
    return passes


def warmup_jobs():
    """Small commands that touch every code path once before timing."""
    small = [
        ("compare", "--matrix", "tridiag", "--n", "40", "--class", "laplace",
         "--function", "inv_sqrt", "--column", "20", "--self-check"),
        ("compare", "--matrix", "pentadiag", "--n", "40", "--class", "cauchy",
         "--function", "log1p_over_z", "--column", "20", "--self-check"),
        ("compare", "--matrix", "tridiag", "--n", "40", "--class", "exp",
         "--tau", "3", "--column", "20", "--self-check"),
        ("compare", "--matrix", "tridiag", "--n", "40", "--class", "resolvent",
         "--zeta", "0.5", "--column", "20", "--self-check"),
        ("kron", "--factors", "tridiag,tridiag", "--n", "6", "--class",
         "laplace", "--function", "phi1", "--column", "8"),
        ("figure", "fig1-exp"),
        ("surface", "--function", "exp", "--grid-n", "4"),
    ]
    grid = Job(("compare", "--matrix", "warm-grid.mtx", "--class", "cauchy",
                "--function", "inv", "--column", "5", "--distance", "graph"),
               "compare", files=(("warm-grid.mtx", 5, 0),))
    return [Job(argv, "") for argv in small] + [grid]
