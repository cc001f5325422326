"""Traces of singular moduli for the genus-zero Fricke groups of prime level.

Supported levels are the primes p with p-1 | 24, i.e. p in {2, 3, 5, 7, 13},
where the Hauptmodul of Gamma_0(p)* is built from a single eta quotient.
"""

from .arith import PrimeLevel, kronecker, sqrt_classes, is_admissible, splits
from .qseries import TruncatedLaurentSeries, euler_product, eta_quotient_f
from .hauptmodul import Hauptmodul, build_hauptmodul
from .qforms import HeegnerClass, enumerate_classes, class_reps
from .cm_eval import PrecisionContext, RoundedValue, PrecisionFailure
from .traces import TraceRecord, CoeffTable, trace, b_coeff, a_coeff, hecke_apply

__all__ = [
    "PrimeLevel",
    "kronecker",
    "sqrt_classes",
    "is_admissible",
    "splits",
    "TruncatedLaurentSeries",
    "euler_product",
    "eta_quotient_f",
    "Hauptmodul",
    "build_hauptmodul",
    "HeegnerClass",
    "enumerate_classes",
    "class_reps",
    "PrecisionContext",
    "RoundedValue",
    "PrecisionFailure",
    "TraceRecord",
    "CoeffTable",
    "trace",
    "b_coeff",
    "a_coeff",
    "hecke_apply",
]

__version__ = "0.1.0"
