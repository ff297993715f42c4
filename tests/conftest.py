import contextlib
import warnings

import pytest
from hypothesis import HealthCheck, settings

from decaybounds import KroneckerSum, make_test_matrix, spectral_interval

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

# On a failing example hypothesis imports this module, and through libcst
# mypy_extensions, which warns on import.  Under filterwarnings = error
# that warning is raised inside the plugin's report hook and ends the
# whole session.  Imported once here, with warnings silenced, it has
# nothing left to warn about later.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401


@pytest.fixture(scope="session")
def tridiag200():
    m = make_test_matrix("tridiag", 200)
    return m, spectral_interval(m)


@pytest.fixture(scope="session")
def pentadiag200():
    m = make_test_matrix("pentadiag", 200)
    return m, spectral_interval(m)


@pytest.fixture(scope="session", params=["tridiag", "pentadiag"])
def test_matrix_200(request, tridiag200, pentadiag200):
    return {"tridiag": tridiag200, "pentadiag": pentadiag200}[request.param]


@pytest.fixture(scope="session")
def kron_tridiag20():
    m = make_test_matrix("tridiag", 20)
    return KroneckerSum(factors=(m, m))
