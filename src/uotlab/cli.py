"""Command-line surface: gen / solve / exact / sweep / plot / check."""

from __future__ import annotations

import argparse
import dataclasses
import sys
import types

import numpy as np

from . import io
from .core import InvalidInput
from .datasets import DATASET_KINDS, DatasetSpec, gen_dataset
from .divergence import DIVERGENCE_KINDS, F_conj
from .exact_solver import solve_exact
from .reg_solver import RegSolveConfig, primal_objective, solve_dual_t
from .sweep import SweepConfig, diagnostics_dict, emit_csv, read_csv, run_sweep
from .plots import emit_svg

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NONCONVERGED = 2


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="uotlab",
        description="Entropic-regularization laboratory for discrete unbalanced transport",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a benchmark problem")
    p_gen.add_argument("--dataset", choices=DATASET_KINDS, required=True)
    p_gen.add_argument("--seed", type=int, default=DatasetSpec.seed)
    p_gen.add_argument(
        "--divergence", choices=DIVERGENCE_KINDS, default=DatasetSpec.divergence
    )
    p_gen.add_argument("-o", "--out", required=True)

    p_solve = sub.add_parser("solve", help="solve the regularized dual at one t")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--t", type=float, required=True)
    p_solve.add_argument("--divergence", choices=DIVERGENCE_KINDS)
    p_solve.add_argument("--tol", type=float, default=RegSolveConfig.grad_tol)
    p_solve.add_argument("--out")

    p_exact = sub.add_parser("exact", help="solve the unregularized reference problem")
    p_exact.add_argument("--problem", required=True)
    p_exact.add_argument("--out", required=True)

    p_sweep = sub.add_parser("sweep", help="run a warm-started t-sweep")
    p_sweep.add_argument("--problem", required=True)
    p_sweep.add_argument("--t-min", type=float, default=SweepConfig.t_min)
    p_sweep.add_argument("--t-max", type=float, default=SweepConfig.t_max)
    p_sweep.add_argument("--n-points", type=int, default=SweepConfig.n_points)
    p_sweep.add_argument("--divergence", choices=DIVERGENCE_KINDS)
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--diagnostics")
    p_sweep.add_argument("--svg")

    p_plot = sub.add_parser("plot", help="render the two-panel figure from a sweep CSV")
    p_plot.add_argument("--csv", required=True)
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--title", default="")

    p_check = sub.add_parser("check", help="run the invariant suite on a problem")
    p_check.add_argument("--problem", required=True)
    p_check.add_argument("--n-points", type=int, default=40)
    p_check.add_argument("--t-max", type=float, default=SweepConfig.t_max)
    return parser


def _override_divergence(problem, kind):
    if kind is None or kind == problem.divergence.kind:
        return problem
    div = dataclasses.replace(problem.divergence, kind=kind)
    return dataclasses.replace(problem, divergence=div)


def _cmd_gen(args):
    spec = DatasetSpec(kind=args.dataset, seed=args.seed, divergence=args.divergence)
    io.save_problem(gen_dataset(spec), args.out)
    return EXIT_OK


def _cmd_solve(args):
    problem = _override_divergence(io.load_problem(args.problem), args.divergence)
    sol = solve_dual_t(problem, args.t, RegSolveConfig(grad_tol=args.tol))
    if args.out:
        io.save_json(io.solution_to_dict(sol), args.out)
    print(
        f"t={sol.t:g} iters={sol.iters} grad_norm={sol.grad_norm:.3e} "
        f"converged={sol.converged}"
    )
    return EXIT_OK if sol.converged else EXIT_NONCONVERGED


def _cmd_exact(args):
    problem = io.load_problem(args.problem)
    exact = solve_exact(problem)
    io.save_json(io.exact_to_dict(exact), args.out)
    print(
        f"saturated={len(exact.I0)} kappa_star={exact.kappa_star:.6g} "
        f"pivots={exact.pivots} flags={'|'.join(exact.flags) or 'ok'}"
    )
    return EXIT_OK


def _cmd_sweep(args):
    problem = _override_divergence(io.load_problem(args.problem), args.divergence)
    config = SweepConfig(t_min=args.t_min, t_max=args.t_max, n_points=args.n_points)
    result = run_sweep(problem, config)
    if args.out:
        emit_csv(result.points, args.out)
    if args.diagnostics:
        io.save_json(diagnostics_dict(result), args.diagnostics)
    if args.svg:
        emit_svg(result.points, args.svg)
    print(
        f"dual_slope={result.dual_fit.slope:.4f} "
        f"primal_slope={result.primal_fit.slope:.4f} "
        f"r2=({result.dual_fit.r2:.4f}, {result.primal_fit.r2:.4f})"
    )
    if any(not p.converged for p in result.points):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _cmd_plot(args):
    rows = [types.SimpleNamespace(**row) for row in read_csv(args.csv)]
    emit_svg(rows, args.out, title=args.title)
    return EXIT_OK


def _cmd_check(args):
    problem = io.load_problem(args.problem)
    config = SweepConfig(t_max=args.t_max, n_points=args.n_points)
    result = run_sweep(problem, config)
    exact = result.exact
    failures = []

    feas = float(np.min(exact.kappa))
    if feas < -1e-8:
        failures.append(f"feasibility violated: min slack {feas:.3e}")
    primal_val = primal_objective(exact.gamma_star, problem)
    gap = abs(primal_val + F_conj(-exact.xi_star.stacked, problem.penalty))
    if gap > 1e-8:
        failures.append(f"duality gap {gap:.3e}")
    comp = float(np.max(np.abs(exact.gamma_star * exact.kappa)))
    if comp > 1e-10:
        failures.append(f"complementary slackness {comp:.3e}")

    if not (-1.6 <= result.dual_fit.slope <= -0.9):
        failures.append(f"dual slope {result.dual_fit.slope:.3f} outside [-1.6, -0.9]")
    if result.primal_fit.slope > -0.5:
        failures.append(f"primal slope {result.primal_fit.slope:.3f} > -0.5")

    for line in failures:
        print("FAIL:", line)
    if not failures:
        print(
            f"check passed: gap={gap:.2e} dual_slope={result.dual_fit.slope:.3f} "
            f"primal_slope={result.primal_fit.slope:.3f}"
        )
    return EXIT_OK if not failures else EXIT_NONCONVERGED


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "exact": _cmd_exact,
    "sweep": _cmd_sweep,
    "plot": _cmd_plot,
    "check": _cmd_check,
}


def cli_main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap to the invalid-input code
        return EXIT_OK if exc.code == 0 else EXIT_INVALID
    try:
        return _COMMANDS[args.command](args)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        # CrossoverFailed, TangentFailed, ...; first, as a LinAlgError is a ValueError
        print(f"non-convergence: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGED
    except (InvalidInput, FileNotFoundError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def main():
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
