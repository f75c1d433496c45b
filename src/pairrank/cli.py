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
missed its residual bound (--tol) or a Bradley-Terry Newton step found no
ascent or a singular system, 4 a requested check failed
(non-quasi-symmetric input or a --check discrepancy, relative to the closed
form, beyond tolerance). Reports go to stdout, errors to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from .errors import (ConnectivityError, ConsistencyError, ConvergenceError,
                     DomainError, NotQuasiSymmetricError, RankingError)

if TYPE_CHECKING:
    from .report import RunReport

# A handler imports what it runs when it is called, so a call loads only its
# own subcommand's modules, and each name is read from its defining module at
# call time: a rebinding there (bench/spans.py wraps each public function in
# a span, tests patch them) reaches the CLI. Each choice below names the
# library function it runs. ipp (needs --articles) and bt (a fit) branch on
# their own.
_EIGEN_METHODS = {"pagerank": "pagerank", "iw": "influence_weight",
                  "total": "total_influence"}
_DESIGNS = {"round-robin": "round_robin_covariance",
            "circular": "circular_covariance"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairrank",
        description="Rankings and diagnostics for paired-comparison counts.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("table", "json", "csv"),
                       default="table", help="output format")

    def add_design(p):
        p.add_argument("--structure", choices=list(_DESIGNS), required=True)
        p.add_argument("--n", type=int, required=True, help="players")
        p.add_argument("--k", type=int, required=True,
                       help="wins per direction per playing pair (2k games)")

    p_rank = sub.add_parser("rank", help="score players from a CSV file")
    p_rank.add_argument("input", help="CSV file (edges or matrix layout)")
    p_rank.add_argument("--method", choices=sorted([*_EIGEN_METHODS, "ipp",
                                                    "bt"]),
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
    add_format(p_rank)
    p_rank.set_defaults(handler=cmd_rank)

    p_qs = sub.add_parser("check-qs",
                          help="quasi-symmetry and reversibility checks")
    p_qs.add_argument("input", help="CSV file (edges or matrix layout)")
    p_qs.add_argument("--tol", type=float, default=1e-8,
                      help="bound on the triplet test's and the "
                           "decomposition's relative gaps and on the "
                           "reversibility check's detailed-balance gap; the "
                           "equivalence residuals keep their own 1e-10")
    add_format(p_qs)
    p_qs.set_defaults(handler=cmd_check_qs)

    p_asy = sub.add_parser("asymptotics",
                           help="closed-form log-influence covariance")
    add_design(p_asy)
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
    add_design(p_sim)
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
    except (RankingError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(report.render(args.format))
    return code


def run() -> None:
    code = main(sys.argv[1:])
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)  # a closed pipe is reported at the usual teardown
    # the report is out: skip the interpreter's teardown, which costs about
    # 25 ms a call and does nothing this process needs
    os._exit(code)


def cmd_rank(args) -> tuple[RunReport, int]:
    from . import rankings
    from .io import load_articles, load_input
    from .report import RunReport, sort_scores

    C, digest = load_input(args.input)
    diagnostics: dict = {}
    metadata: dict = {"input_sha256": digest, "tol": args.tol}
    alpha = args.alpha
    if args.method == "bt":
        if alpha is not None:
            diagnostics["note"] = "alpha is ignored for bradley_terry"
        from .bradley_terry import fit_bt

        fit = fit_bt(C, tol=args.tol)
        stderrs = np.sqrt(np.clip(np.diag(fit.covariance), 0.0, None))
        scores = sort_scores(C.labels, fit.abilities.mu, stderrs)
        method, alpha = "bradley_terry", None
        diagnostics.update(deviance=fit.deviance, iterations=fit.iterations,
                           converged=fit.converged)
    else:
        if alpha is None:
            alpha = 0.85 if args.method == "pagerank" else 1.0
        if args.method == "ipp":
            if args.articles is None:
                raise DomainError(
                    "--method ipp requires --articles (per-player sizes)")
            articles, metadata["articles_sha256"] = load_articles(
                args.articles, C.labels)
            vector = rankings.influence_per_publication(C, articles, alpha,
                                                        tol=args.tol)
        else:
            score = getattr(rankings, _EIGEN_METHODS[args.method])
            vector = score(C, alpha, tol=args.tol)
        scores = sort_scores(vector.labels, vector.scores)
        method = vector.method
        if args.method != "pagerank":
            if alpha < 1.0:
                diagnostics["damped_variant"] = True
                diagnostics["note"] = ("damped analogue of an undamped "
                                       "quantity (alpha < 1)")
            else:
                alpha = None
    return (RunReport(command="rank", scores=scores, method=method,
                      alpha=alpha, diagnostics=diagnostics,
                      metadata=metadata), 0)


def cmd_check_qs(args) -> tuple[RunReport, int]:
    from .io import load_input
    from .quasisym import (check_triplets, decompose_qs, is_reversible,
                           verify_equivalence)
    from .report import RunReport, sort_scores

    C, digest = load_input(args.input)
    metadata = {"input_sha256": digest, "tol": args.tol}
    diagnostics: dict = {}

    def report(scores=(), code=4) -> tuple[RunReport, int]:
        return (RunReport(command="check-qs", scores=scores,
                          diagnostics=diagnostics, metadata=metadata), code)

    triplets = check_triplets(C, tol=args.tol)
    diagnostics.update(quasi_symmetric=triplets.is_quasi_symmetric,
                       triplet_max_gap=triplets.max_relative_gap,
                       triplet_violations=triplets.violation_count)
    if not triplets.is_quasi_symmetric:
        diagnostics["worst_triplet"] = "|".join(
            C.labels[idx] for idx in triplets.worst[:3])
        return report()
    try:
        dec = decompose_qs(C, tol=args.tol)
    except (NotQuasiSymmetricError, ConnectivityError) as exc:
        diagnostics.update(quasi_symmetric=False,
                           decomposition_error=str(exc))
        return report()
    diagnostics["decomposition_residual"] = dec.residual
    try:
        diagnostics["equivalence_residual"] = verify_equivalence(C, dec=dec)
    except ConsistencyError as exc:
        diagnostics["equivalence_error"] = str(exc)
        return report()
    rev = is_reversible(C, tol=args.tol)
    diagnostics.update(reversible=rev.reversible,
                       detailed_balance_gap=rev.max_gap)
    return report(sort_scores(C.labels, dec.d), 0)


def _design(args) -> dict:
    """The --structure/--n/--k design, as the head of the diagnostics."""
    return {"structure": args.structure, "n": args.n, "k": args.k,
            "games_per_pair": 2 * args.k}


def _closed_form(args) -> np.ndarray:
    """Closed-form covariance of the design's centered log weights."""
    from . import asymptotics

    return getattr(asymptotics, _DESIGNS[args.structure])(args.n, args.k)


def cmd_asymptotics(args) -> tuple[RunReport, int]:
    from .counts import default_labels
    from .report import MatrixBlock, RunReport

    target = _closed_form(args)
    diagnostics = {**_design(args), "covariance_source": "closed-form"}
    code = 0
    if args.check:
        from .asymptotics import delta_method_covariance
        from .bradley_terry import bt_covariance
        from .generators import structure_matrix
        from .linalg import _check_tol

        _check_tol(args.tol)
        C = structure_matrix(args.structure, args.n, args.k)
        scale = float(np.max(np.abs(target)))
        delta, bt = (float(np.max(np.abs(cov - target))) / scale
                     for cov in (delta_method_covariance(C),
                                 bt_covariance(C, np.zeros(args.n))))
        diagnostics.update(max_discrepancy_delta=delta,
                           max_discrepancy_bt=bt, check_tol=args.tol)
        code = 4 if max(delta, bt) > args.tol else 0
    matrices = {"covariance": MatrixBlock(default_labels(args.n), target)}
    return (RunReport(command="asymptotics", matrices=matrices,
                      diagnostics=diagnostics), code)


def cmd_simulate(args) -> tuple[RunReport, int]:
    from .bradley_terry import AbilityVector
    from .counts import default_labels
    from .generators import (SimulationConfig, _check_players,
                             monte_carlo_covariance)
    from .report import MatrixBlock, RunReport

    _check_players(args.n)  # before the n-sized labels and abilities
    labels = default_labels(args.n)
    abilities = AbilityVector(np.zeros(len(labels)), labels)
    config = SimulationConfig(abilities=abilities, games_per_pair=2 * args.k,
                              replications=args.reps, seed=args.seed)
    result = monte_carlo_covariance(config, args.structure)
    target = _closed_form(args)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(result.standard_errors > 0,
                     (result.covariance - target) / result.standard_errors,
                     0.0)
    diagnostics = {**_design(args), "replications": result.replications,
                   "rejections": result.rejections,
                   "max_abs_z": float(np.max(np.abs(z))),
                   "target_source": "closed-form"}
    return (RunReport(
        command="simulate", diagnostics=diagnostics,
        matrices={"empirical": MatrixBlock(labels, result.covariance),
                  "target": MatrixBlock(labels, target),
                  "zscores": MatrixBlock(labels, z)},
        metadata={"seed": args.seed}), 0)
