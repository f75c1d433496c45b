"""Command line interface.

Subcommands:

* rank: score the players in a CSV file by one of the five methods.
* check-qs: triplet test, diagonal-times-symmetric decomposition,
  fixed-point equivalence, and reversibility of the undamped chain.
* asymptotics: closed-form covariance of centered log influence weights for
  a structure, optionally cross-checked against the delta-method and
  Bradley-Terry routes.
* simulate: Monte Carlo covariance on a structure with z-scores against the
  closed form.

Exit codes: 0 success, 2 input/parse/domain error, 3 a solver's result
missed its residual bound (--tol) or the Bradley-Terry line search found no
ascent, 4 a requested check failed (non-quasi-symmetric input or a --check
discrepancy, relative to the closed form, beyond tolerance). Reports go to
stdout, errors to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

import numpy as np

from .asymptotics import (circular_covariance, delta_method_covariance,
                          round_robin_covariance)
from .bradley_terry import AbilityVector, bt_covariance, fit_bt
from .counts import CountMatrix, default_labels
from .errors import (ConnectivityError, ConsistencyError, ConvergenceError,
                     DomainError, NotQuasiSymmetricError, RankingError)
from .generators import (SimulationConfig, monte_carlo_covariance,
                         structure_matrix)
from .io import parse_articles, parse_input
from .quasisym import check_triplets, decompose_qs, is_reversible, \
    verify_equivalence
from .rankings import (RankingVector, influence_per_publication,
                       influence_weight, pagerank, total_influence)
from .report import MatrixBlock, RunReport, sort_scores

METHOD_NAMES = {
    "pagerank": "pagerank",
    "iw": "influence_weight",
    "total": "total_influence",
    "ipp": "influence_per_publication",
    "bt": "bradley_terry",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairrank",
        description="Rankings and diagnostics for paired-comparison counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format")

    p_rank = sub.add_parser("rank", help="score players from a CSV file")
    p_rank.add_argument("input", help="CSV file (edges or matrix layout)")
    p_rank.add_argument("--method", choices=sorted(METHOD_NAMES),
                        default="pagerank",
                        help="pagerank, iw (influence weight), total "
                             "(total influence), ipp (influence per "
                             "publication), bt (Bradley-Terry)")
    p_rank.add_argument("--alpha", type=float, default=None,
                        help="damping in [0, 1] for every eigenvector "
                             "method; default 0.85 for pagerank, 1 "
                             "(undamped) for iw/total/ipp, whose alpha < 1 "
                             "is the damped analogue")
    p_rank.add_argument("--tol", type=float, default=1e-10,
                        help="residual bound checked after the solve: "
                             "max|Px - x| for the stationary vector, the "
                             "relative score residual for bt")
    p_rank.add_argument("--articles", default=None,
                        help="CSV of per-player sizes (label,articles); "
                             "required for --method ipp")
    p_rank.add_argument("--input-format", choices=("auto", "edges", "matrix"),
                        default="auto")
    add_format(p_rank)
    p_rank.set_defaults(handler=cmd_rank)

    p_qs = sub.add_parser("check-qs",
                          help="quasi-symmetry and reversibility checks")
    p_qs.add_argument("input", help="CSV file (edges or matrix layout)")
    p_qs.add_argument("--tol", type=float, default=1e-8,
                      help="relative tolerance for the triplet test and "
                           "decomposition")
    p_qs.add_argument("--input-format", choices=("auto", "edges", "matrix"),
                      default="auto")
    add_format(p_qs)
    p_qs.set_defaults(handler=cmd_check_qs)

    p_asy = sub.add_parser("asymptotics",
                           help="closed-form log-influence covariance")
    p_asy.add_argument("--structure", choices=("round-robin", "circular"),
                       required=True)
    p_asy.add_argument("--n", type=int, required=True, help="players")
    p_asy.add_argument("--k", type=int, required=True,
                       help="wins per direction per playing pair (2k games)")
    p_asy.add_argument("--check", action="store_true",
                       help="cross-check against the delta-method and "
                            "Bradley-Terry covariances; exit 4 on "
                            "discrepancy beyond --tol")
    p_asy.add_argument("--tol", type=float, default=1e-10,
                       help="bound on the --check discrepancies, relative "
                            "to the largest closed-form entry: "
                            "max|difference| / max|closed form|")
    add_format(p_asy)
    p_asy.set_defaults(handler=cmd_asymptotics)

    p_sim = sub.add_parser("simulate",
                           help="Monte Carlo covariance vs the closed form")
    p_sim.add_argument("--structure", choices=("round-robin", "circular"),
                       required=True)
    p_sim.add_argument("--n", type=int, required=True, help="players")
    p_sim.add_argument("--k", type=int, required=True,
                       help="wins per direction per playing pair (2k games)")
    p_sim.add_argument("--reps", type=int, default=1000,
                       help="replications")
    p_sim.add_argument("--seed", type=int, default=0)
    add_format(p_sim)
    p_sim.set_defaults(handler=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RankingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return code


def run() -> None:
    sys.exit(main(sys.argv[1:]))


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def cmd_rank(args) -> tuple[RunReport, int]:
    C = parse_input(args.input, args.input_format)
    method = METHOD_NAMES[args.method]
    tol = args.tol
    diagnostics: dict = {}
    metadata: dict = {"input_sha256": _digest(args.input), "tol": tol}
    alpha_out = None

    if args.method == "bt":
        if args.alpha is not None:
            diagnostics["note"] = "alpha is ignored for bradley_terry"
        fit = fit_bt(C, tol=tol)
        stderrs = np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))
        scores = sort_scores(C.labels, fit.abilities.mu, stderrs)
        diagnostics.update(deviance=fit.deviance, iterations=fit.iterations,
                           converged=fit.converged)
    else:
        vector, alpha = _eigen_scores(C, args, tol)
        if args.method == "pagerank":
            alpha_out = alpha
        elif alpha < 1.0:
            alpha_out = alpha
            diagnostics["damped_variant"] = True
            diagnostics["note"] = ("damped analogue of an undamped "
                                   "quantity (alpha < 1)")
        if args.method == "ipp":
            metadata["articles_sha256"] = _digest(args.articles)
        scores = sort_scores(vector.labels, vector.scores)

    report = RunReport(command="rank", scores=scores, method=method,
                       alpha=alpha_out, diagnostics=diagnostics,
                       metadata=metadata)
    return report, 0


def _eigen_scores(C: CountMatrix, args,
                  tol: float) -> tuple[RankingVector, float]:
    """Score C by an eigenvector method at the resolved alpha (default 0.85
    for pagerank, 1 for iw/total/ipp). Returns (vector, alpha)."""
    alpha = args.alpha
    if alpha is None:
        alpha = 0.85 if args.method == "pagerank" else 1.0
    if args.method == "pagerank":
        return pagerank(C, alpha, tol=tol), alpha
    if args.method == "iw":
        return influence_weight(C, alpha, tol=tol), alpha
    if args.method == "total":
        return total_influence(C, alpha, tol=tol), alpha
    if args.articles is None:
        raise DomainError("--method ipp requires --articles (per-player sizes)")
    articles = parse_articles(args.articles, C.labels)
    return influence_per_publication(C, articles, alpha, tol=tol), alpha


def cmd_check_qs(args) -> tuple[RunReport, int]:
    C = parse_input(args.input, args.input_format)
    metadata = {"input_sha256": _digest(args.input), "tol": args.tol}
    triplets = check_triplets(C, tol=args.tol)
    diagnostics: dict = {
        "quasi_symmetric": triplets.is_quasi_symmetric,
        "triplet_max_gap": triplets.max_relative_gap,
        "triplet_violations": triplets.violation_count,
    }
    if not triplets.is_quasi_symmetric:
        worst = triplets.worst
        diagnostics["worst_triplet"] = "|".join(
            C.labels[idx] for idx in (worst.i, worst.j, worst.k))
        return (RunReport(command="check-qs", diagnostics=diagnostics,
                          metadata=metadata), 4)

    try:
        dec = decompose_qs(C, tol=args.tol)
    except (NotQuasiSymmetricError, ConnectivityError) as exc:
        diagnostics["quasi_symmetric"] = False
        diagnostics["decomposition_error"] = str(exc)
        return (RunReport(command="check-qs", diagnostics=diagnostics,
                          metadata=metadata), 4)
    diagnostics["decomposition_residual"] = dec.residual
    try:
        diagnostics["equivalence_residual"] = verify_equivalence(C, dec=dec)
    except ConsistencyError as exc:
        diagnostics["equivalence_error"] = str(exc)
        return (RunReport(command="check-qs", diagnostics=diagnostics,
                          metadata=metadata), 4)
    rev = is_reversible(C, tol=args.tol)
    diagnostics["reversible"] = rev.reversible
    diagnostics["detailed_balance_gap"] = rev.max_gap
    scores = sort_scores(C.labels, dec.d)
    return (RunReport(command="check-qs", scores=scores,
                      diagnostics=diagnostics, metadata=metadata), 0)


def _closed_covariance(structure: str, n: int, k: int) -> np.ndarray:
    """Closed-form reference covariance of the design."""
    if structure == "round-robin":
        return round_robin_covariance(n, k)
    return circular_covariance(n, k)


def cmd_asymptotics(args) -> tuple[RunReport, int]:
    n, k = args.n, args.k
    labels = default_labels(n)
    target = _closed_covariance(args.structure, n, k)
    diagnostics: dict = {"structure": args.structure, "n": n, "k": k,
                         "games_per_pair": 2 * k,
                         "covariance_source": "closed-form"}
    code = 0
    if args.check:
        C = structure_matrix(args.structure, n, k)
        delta = delta_method_covariance(C)
        bt = bt_covariance(C, np.zeros(n))
        scale = float(np.max(np.abs(target)))
        d_delta = float(np.max(np.abs(delta - target))) / scale
        d_bt = float(np.max(np.abs(bt - target))) / scale
        diagnostics["max_discrepancy_delta"] = d_delta
        diagnostics["max_discrepancy_bt"] = d_bt
        diagnostics["check_tol"] = args.tol
        if max(d_delta, d_bt) > args.tol:
            code = 4
    report = RunReport(
        command="asymptotics",
        matrices={"covariance": MatrixBlock(labels, target)},
        diagnostics=diagnostics,
        metadata={},
    )
    return report, code


def cmd_simulate(args) -> tuple[RunReport, int]:
    n, k = args.n, args.k
    labels = default_labels(n)
    abilities = AbilityVector(np.zeros(n), labels)
    config = SimulationConfig(abilities=abilities, games_per_pair=2 * k,
                              replications=args.reps, seed=args.seed)
    result = monte_carlo_covariance(config, args.structure)
    target = _closed_covariance(args.structure, n, k)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(result.standard_errors > 0,
                     (result.covariance - target) / result.standard_errors,
                     0.0)
    report = RunReport(
        command="simulate",
        matrices={
            "empirical": MatrixBlock(labels, result.covariance),
            "target": MatrixBlock(labels, target),
            "zscores": MatrixBlock(labels, z),
        },
        diagnostics={
            "structure": args.structure,
            "n": n,
            "k": k,
            "games_per_pair": 2 * k,
            "replications": result.replications,
            "rejections": result.rejections,
            "max_abs_z": float(np.max(np.abs(z))),
            "target_source": "closed-form",
        },
        metadata={"seed": args.seed},
    )
    return report, 0
