"""Rigorous entrywise decay bounds for Hermitian matrix functions.

Bounds for |f(M)|_{kt} with M banded (or sparse) Hermitian positive
definite and f completely monotonic or Markov-type, for the matrix
exponential, and for f(A) with A a Kronecker sum of Hermitian factors.
Every bound ships next to an exact dense-oracle path so dominance can be
checked entry by entry.
"""

from .bounds import (DecayBoundReport, cauchy_entry_bound, cauchy_shifted_bound,
                     demko_bound, demko_constant, exp_entry_bound, exp_envelope,
                     freund_resolvent_bound, invsqrt_closed_bound,
                     laplace_entry_bound)
from .graphdist import geodesic_from
from .kron import cauchy_kron_bound, exp_kron_bound, laplace_kron_bound
from .matrices import (KroneckerSum, MatrixFormatError, SparseHermitianMatrix,
                       SpectralInterval, banded_from_stencil,
                       load_matrix_market, make_test_matrix, parse_matrix_spec,
                       spectral_interval)
from .measures import (CauchyMeasure, LaplaceMeasure, cauchy_catalog,
                       laplace_catalog)
from .oracle import (EigenDecomposition, eigendecomposition, function_column,
                     matrix_function, oracle_floor, resolvent_column)
from .quadrature import QuadratureResult, integrate, integrate_semi_infinite

__version__ = "0.1.0"

__all__ = [
    "CauchyMeasure", "DecayBoundReport",
    "EigenDecomposition", "KroneckerSum", "LaplaceMeasure",
    "MatrixFormatError", "QuadratureResult", "SparseHermitianMatrix",
    "SpectralInterval", "banded_from_stencil", "cauchy_catalog",
    "cauchy_entry_bound", "cauchy_kron_bound", "cauchy_shifted_bound",
    "demko_bound", "demko_constant", "eigendecomposition", "exp_entry_bound",
    "exp_envelope", "exp_kron_bound", "freund_resolvent_bound",
    "function_column", "geodesic_from", "integrate",
    "integrate_semi_infinite", "invsqrt_closed_bound", "laplace_catalog",
    "laplace_entry_bound", "laplace_kron_bound", "load_matrix_market",
    "make_test_matrix", "matrix_function", "oracle_floor",
    "parse_matrix_spec", "resolvent_column", "spectral_interval",
]
