"""Chebyshev coefficients of f on the spectral enclosure, and their tail.

f(x_1 + ... + x_L), one x_L per factor of a Kronecker sum (L = 1: a
single matrix), is sampled on the tensor grid of the factors' Chebyshev
points, and one ``np.fft.fftn`` of its even extension, a DCT-I, gives
the coefficients c_J of prod_L T_{j_L}, each enclosure mapped onto [-1,
1].  The tail S(m), the sum over J >= m of |c_J|, bounds what m Lanczos
steps miss (by 2 S(m): Saad, SIAM J. Numer. Anal. 29, 1992) and, up to
aliasing and rounding, an entry of f(A) at per-factor distances d_L (by
S(ceil(d_L)): Benzi and Golub, BIT 39, 1999).
"""

from __future__ import annotations

import functools
import math

import numpy as np


def grid_size(factors):
    """N per axis: the largest power of two up to 1024 with (2N)^L <= 2^22
    samples of the even extension, L = ``factors`` (1024, 1024, 64)."""
    return min(1024, 2 ** (22 // factors - 1))


def transform(f, intervals):
    """(fx, |c_J|): fx is f(x_1 + ... + x_L), x_L on the N + 1 points c +
    h cos(pi k / N), k = N..0, of ``intervals[L]`` = [c - h, c + h],
    ascending along axis L; |c_J| is one FFT of fx's even extension over
    N per axis (twice the coefficient where some j_L is 0 or N), None
    where f is not finite at a grid point (f singular inside an
    indefinite enclosure).  ``ValueError`` where f is not finite at an
    end of the enclosure."""
    n = grid_size(len(intervals))
    # cos(pi k / N) as a sine: the grid is symmetric and its midpoint exact
    y = np.sin(0.5 * np.pi * np.arange(-n, n + 1, 2) / n)
    axes = []
    for iv in intervals:
        lo, hi = iv.lambda_min, iv.lambda_max
        axes.append(np.clip((0.5 * lo + 0.5 * hi) + (0.5 * hi - 0.5 * lo) * y,
                            lo, hi))
        axes[-1][[0, -1]] = lo, hi
    with np.errstate(all="ignore"):
        fx = np.asarray(f(functools.reduce(np.add.outer, axes)))
    if not (np.isfinite(fx.flat[0]) and np.isfinite(fx.flat[-1])):
        raise ValueError("function is undefined or non-finite on the spectrum")
    if not np.all(np.isfinite(fx)):
        return fx, None
    ext = fx
    for axis in range(fx.ndim):
        inner = (slice(None),) * axis + (slice(-2, 0, -1),)
        ext = np.concatenate([ext, ext[inner]], axis=axis)
    c = np.abs(np.fft.fftn(ext)[(slice(n + 1),) * fx.ndim])
    c /= n ** fx.ndim
    return fx, c


def tail(f, intervals):
    """(max|f| on ``transform``'s grid, S with S[m] = sum over J >= m of
    |c_J|), coefficients at the transform's rounding level, 8 eps max|f|,
    counting as zero.  S is None where the grid does not resolve f (along
    some axis the upper half of the coefficients is above that level);
    max|f| is inf and S None where f is not finite at a grid point."""
    fx, c = transform(f, intervals)
    if c is None:
        return math.inf, None
    fmax = float(np.max(np.abs(fx)))
    noise = 8.0 * np.finfo(float).eps * fmax
    if any(np.max(np.moveaxis(c, axis, 0)[len(c) // 2:]) > noise
           for axis in range(c.ndim)):
        return fmax, None
    c[c <= noise] = 0.0
    for axis in range(c.ndim):
        c = np.flip(np.cumsum(np.flip(c, axis), axis=axis), axis)
    return fmax, c
