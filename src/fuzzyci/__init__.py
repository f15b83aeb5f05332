"""Optimal fuzzy (randomized) confidence intervals.

Built around a single construction: the membership minimizing objective
mass subject to a coverage constraint, obtained from the quantile partition
of the density ratio of two measures.  Closed-form families for binomial,
Poisson and bounded-mean normal data sit on top of it, together with an
expected-length engine, the equivalent fractional knapsack solver and a CLI
that emits everything as CSV/JSON.
"""

from .binomial import BinomialFamily
from .core import DiscreteMeasure, PsiStar, construct_psi_star
from .knapsack import KnapsackInstance, KnapsackSolution, solve_fractional, solve_01_dp
from .length import QuadratureSpec, el_curve
from .normal import NormalFamily
from .poisson import PoissonFamily
from .specfun import ConvergenceError

__version__ = "0.1.0"

__all__ = [
    "BinomialFamily",
    "ConvergenceError",
    "DiscreteMeasure",
    "KnapsackInstance",
    "KnapsackSolution",
    "NormalFamily",
    "PoissonFamily",
    "PsiStar",
    "QuadratureSpec",
    "construct_psi_star",
    "el_curve",
    "solve_01_dp",
    "solve_fractional",
    "__version__",
]
