"""Rankings from paired-comparison count matrices.

Count convention: entry (i, j) of a count matrix is the number of wins of i
over j (endorsements flowing from j to i). The package covers the
eigenvector family (damped/undamped pagerank, influence weights, total
influence, influence per publication), Bradley-Terry maximum likelihood,
quasi-symmetry structure tests with the reversibility equivalence, and
first-order sampling theory for log influence weights.

``import pairrank`` loads none of the submodules: each public name below is
imported from its submodule on first access (PEP 562), so a ``pairrank``
command pays only for the modules its subcommand runs.
"""

import importlib as _importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "asymptotics": ("circular_covariance", "delta_method_covariance",
                    "lexicographic_pairs", "log_iw_jacobian",
                    "round_robin_covariance", "stationary_derivative"),
    "bradley_terry": ("AbilityVector", "FitReport", "bt_covariance",
                      "bt_deviance", "fit_bt", "predict_prob"),
    "counts": ("CountMatrix", "as_count_matrix", "default_labels"),
    "errors": ("ConnectivityError", "ConsistencyError", "ConvergenceError",
               "DanglingNodeError", "DecompositionError",
               "DegenerateSampleError", "DimensionError", "DomainError",
               "NotQuasiSymmetricError", "ParseError", "RankingError",
               "ReducibilityError", "SeparationError"),
    "generators": ("MonteCarloResult", "SimulationConfig", "circular",
                   "monte_carlo_covariance", "random_quasi_symmetric",
                   "round_robin", "simulate_tournament", "structure_matrix"),
    "io": ("matrix_to_csv", "parse_articles", "parse_input"),
    "linalg": ("StationaryResult", "is_irreducible", "stationary_vector"),
    "quasisym": ("QSDecomposition", "ReversibilityReport", "TripletReport",
                 "TripletViolation", "check_triplets", "decompose_qs",
                 "is_reversible", "verify_equivalence"),
    "rankings": ("RankingVector", "influence_per_publication",
                 "influence_weight", "iw_from_pagerank", "pagerank",
                 "pagerank_from_iw", "total_influence", "transition_matrix"),
    "report": ("MatrixBlock", "RunReport", "ScoreEntry", "load_schema"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

# a star import binds no submodule: pairrank.io would shadow the standard
# library's io
__all__ = sorted(_SOURCE)


def __getattr__(name):
    if name in _EXPORTS:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_SOURCE[name]}"),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
