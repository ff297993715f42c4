"""The paper's two claims on its Kronecker figures (fig6, fig7): the
Kronecker-sum bounds are much tighter than the earlier estimate that
treats A as one banded matrix, and they follow the non-monotonic decay
of the exact entries, where the banded estimate, a function of |k - t|
alone, cannot.  Each claim is checked on the printed envelope bound and
on the Chebyshev tail S that is to replace it."""

import numpy as np
import pytest
import scipy.stats

from decaybounds import (KroneckerSum, cauchy_catalog, function_column,
                         laplace_catalog, make_test_matrix)
from decaybounds.figures import (_DRIVER_PRESETS, _FACTOR_N, _T_KRON,
                                 resolve_function, run_kron_compare)
from reference import banded_kron_estimate, chebyshev_tail_bound

_QUAD_TOL = 1e-10    # the presets' --quad-tol


def _measure(function, klass):
    if klass == "cauchy":
        return cauchy_catalog(function).as_laplace()
    return laplace_catalog(function)


def _column(a, function, klass, bound):
    """(bound, |oracle| entry, oracle floor) of every row of the column."""
    if bound == "envelope":
        # every cell `decay kron` prints
        summary, _, rows = run_kron_compare(a, _T_KRON, function, klass,
                                            quad_tol=_QUAD_TOL)
        return [r[-2] for r in rows], [r[-1] for r in rows], \
            summary["oracle_floor"]
    f, _, _ = resolve_function(function, klass, None, 0.0)
    col, floor = function_column(a, f, _T_KRON)
    return chebyshev_tail_bound(a, f, _T_KRON), np.abs(col).tolist(), floor


# the envelope cases keep the ids they had before S was checked too
_CASES = [(figure_id, bound) for bound in ("envelope", "chebyshev_tail")
          for figure_id in ("fig6-kron-phi1", "fig7-kron-invsqrt")]


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
@pytest.mark.parametrize("figure_id, bound", _CASES, ids=[
    f if b == "envelope" else f"{f}-{b}" for f, b in _CASES])
def test_kronecker_bound_beats_the_banded_estimate(figure_id, bound, kind):
    _, function, klass = _DRIVER_PRESETS[figure_id]
    m = make_test_matrix(kind, _FACTOR_N)
    a = KroneckerSum(factors=(m, m))
    bounds, exact, floor = _column(a, function, klass, bound)
    banded = banded_kron_estimate(a, _T_KRON, _measure(function, klass),
                                  _QUAD_TOL)
    # every row with its oracle entry resolved
    cells = np.array([(b, o, e) for b, o, e in zip(bounds, exact, banded)
                      if o >= floor])
    kron, exact, band = cells.T
    assert len(cells) > 200 and np.all(kron >= exact * (1 - 1e-10))
    # tighter: the median ratio at least 4 times below (measured 5.1-128
    # for the envelope)
    assert np.median(band / exact) >= 4 * np.median(kron / exact)
    # the decay's shape: rank correlation of the bound with the exact
    # entry (measured 0.979-0.986 for the envelope against 0.56-0.74 for
    # the estimate)
    kron_rank = scipy.stats.spearmanr(np.log(kron), np.log(exact))[0]
    band_rank = scipy.stats.spearmanr(np.log(band), np.log(exact))[0]
    assert kron_rank >= 0.95
    assert kron_rank >= band_rank + 0.15
