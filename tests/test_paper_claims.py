"""The paper's two claims on its Kronecker figures (fig6, fig7): the
Kronecker-sum bounds are much tighter than the earlier estimate that
treats A as one banded matrix, and they follow the non-monotonic decay
of the exact entries, where the banded estimate, a function of |k - t|
alone, cannot."""

import numpy as np
import pytest
import scipy.stats

from decaybounds import (KroneckerSum, cauchy_catalog, laplace_catalog,
                         make_test_matrix)
from decaybounds.figures import (_DRIVER_PRESETS, _FACTOR_N, _T_KRON,
                                 run_kron_compare)
from reference import banded_kron_estimate

_QUAD_TOL = 1e-10    # the presets' --quad-tol


def _measure(function, klass):
    if klass == "cauchy":
        return cauchy_catalog(function).as_laplace()
    return laplace_catalog(function)


@pytest.mark.parametrize("kind", ["tridiag", "pentadiag"])
@pytest.mark.parametrize("figure_id", ["fig6-kron-phi1", "fig7-kron-invsqrt"])
def test_kronecker_bound_beats_the_banded_estimate(figure_id, kind):
    _, function, klass = _DRIVER_PRESETS[figure_id]
    m = make_test_matrix(kind, _FACTOR_N)
    a = KroneckerSum(factors=(m, m))
    summary, _, rows = run_kron_compare(a, _T_KRON, function, klass,
                                        quad_tol=_QUAD_TOL)
    banded = banded_kron_estimate(a, _T_KRON, _measure(function, klass),
                                  _QUAD_TOL)
    # every cell `decay kron` prints with its oracle entry resolved
    cells = np.array([(b, o, e) for (*_, b, o), e in zip(rows, banded)
                      if o >= summary["oracle_floor"]])
    kron, exact, band = cells.T
    assert len(cells) > 200 and np.all(kron >= exact * (1 - 1e-10))
    # tighter: the median ratio at least 4 times below (measured 5.1-128)
    assert np.median(band / exact) >= 4 * np.median(kron / exact)
    # the decay's shape: rank correlation of the bound with the exact
    # entry (measured 0.979-0.986 against 0.56-0.74 for the estimate)
    kron_rank = scipy.stats.spearmanr(np.log(kron), np.log(exact))[0]
    band_rank = scipy.stats.spearmanr(np.log(band), np.log(exact))[0]
    assert kron_rank >= 0.95
    assert kron_rank >= band_rank + 0.15
