"""Rankings from paired-comparison count matrices.

Count convention: entry (i, j) of a count matrix is the number of wins of i
over j (endorsements flowing from j to i). The package covers the
eigenvector family (damped/undamped pagerank, influence weights, total
influence, influence per publication), Bradley-Terry maximum likelihood,
quasi-symmetry structure tests with the reversibility equivalence, and
first-order sampling theory for log influence weights.
"""

from types import ModuleType as _ModuleType

from .asymptotics import (circular_covariance, delta_method_covariance,
                          lexicographic_pairs, log_iw_jacobian,
                          round_robin_covariance, stationary_derivative)
from .bradley_terry import (AbilityVector, FitReport, bt_covariance,
                            bt_deviance, fit_bt, predict_prob)
from .counts import CountMatrix, as_count_matrix, default_labels
from .errors import (ConnectivityError, ConsistencyError, ConvergenceError,
                     DanglingNodeError, DecompositionError,
                     DegenerateSampleError, DimensionError, DomainError,
                     NotQuasiSymmetricError, ParseError, RankingError,
                     ReducibilityError, SeparationError)
from .generators import (MonteCarloResult, SimulationConfig, circular,
                         monte_carlo_covariance, random_quasi_symmetric,
                         round_robin, simulate_tournament, structure_matrix)
from .io import matrix_to_csv, parse_articles, parse_input
from .linalg import StationaryResult, is_irreducible, stationary_vector
from .quasisym import (QSDecomposition, ReversibilityReport, TripletReport,
                       TripletViolation, check_triplets, decompose_qs,
                       is_reversible, verify_equivalence)
from .rankings import (RankingVector, influence_per_publication,
                       influence_weight, iw_from_pagerank, pagerank,
                       pagerank_from_iw, total_influence, transition_matrix)
from .report import MatrixBlock, RunReport, ScoreEntry, load_schema

__version__ = "0.1.0"

# the submodules are bound here too, but a star import leaves them out:
# pairrank.io would shadow the standard library's io
__all__ = [name for name in dir() if not name.startswith("_")
           and not isinstance(globals()[name], _ModuleType)]
