"""Rigorous entrywise decay bounds for Hermitian matrix functions.

Bounds for |f(M)|_{kt}, M banded (or sparse) Hermitian positive definite
and f completely monotonic, Markov-type or exp(-tau x), and for f(A), A a
Kronecker sum, each beside an exact oracle column to check it against.
"""

from .bounds import (DecayBoundReport, demko_bound, demko_constant,
                     exp_envelope, freund_resolvent_bound,
                     invsqrt_closed_bound)
from .graphdist import geodesic_from
from .matrices import (KroneckerSum, MatrixFormatError, SparseHermitianMatrix,
                       SpectralInterval, banded_from_stencil,
                       load_matrix_market, make_test_matrix, parse_matrix_spec,
                       spectral_interval)
from .measures import (CauchyMeasure, LaplaceMeasure, cauchy_catalog,
                       laplace_catalog)
from .oracle import (EigenDecomposition, eigendecomposition, function_column,
                     matrix_function, resolvent_column)
from .quadrature import QuadratureResult

__version__ = "0.1.0"

__all__ = [
    "CauchyMeasure", "DecayBoundReport", "EigenDecomposition",
    "KroneckerSum", "LaplaceMeasure", "MatrixFormatError",
    "QuadratureResult", "SparseHermitianMatrix", "SpectralInterval",
    "banded_from_stencil", "cauchy_catalog", "demko_bound",
    "demko_constant", "eigendecomposition", "exp_envelope",
    "freund_resolvent_bound", "function_column", "geodesic_from",
    "invsqrt_closed_bound", "laplace_catalog", "load_matrix_market",
    "make_test_matrix", "matrix_function", "parse_matrix_spec",
    "resolvent_column", "spectral_interval",
]
