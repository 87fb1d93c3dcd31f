"""The benchmark's workloads: the problems each one builds, its operations
("ops") and the output check of every op.

Each workload is a closed loop with one client: a pass runs its ops one after
another, each op starting when the previous one has returned.

Two seeds shape the inputs:

* the data seed picks the instances: the rng seed of the random batch, the
  point-cloud seed of the size ladder, the first seed of the seed ladder.
  The shipped combos are fixed; a data seed relabels their points, the one
  change of instance that keeps their rate gates meaningful.  Without a data
  seed every workload runs the lab's own instances;
* the run seed (the benchmark's ``--seed``) shuffles the order of the
  independent ops of a pass (seed 0 keeps the lab's order), so every run seed
  does the same work.

The checks use only library calls that stay in the package
(``primal_objective``, ``F_conj``, ``emit_csv``), never the test oracle.
"""

from __future__ import annotations

import os

import numpy as np

from uotlab import exact_solver, reg_solver, sweep
from uotlab.core import DivergenceSpec, Problem
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import F_conj, divergence_for

# the four shipped combinations of scripts/reproduce_figures.py
SHIPPED = (
    ("point-clouds", 4, "kl"),
    ("point-clouds", 4, "quadratic"),
    ("gaussians-1d", 0, "kl"),
    ("gaussians-1d", 0, "quadratic"),
)
LADDER_SIZES = (60, 120, 240)
LADDER_T = np.geomspace(1.0, 1e4, 20)
SEED_LADDER_LEN = 40

# tolerances of the output checks; the exact ones are acceptance criterion 5/6
PLAN_AGREEMENT_TOL = 1e-4
DUALITY_GAP_TOL = 1e-8
COMPLEMENTARITY_TOL = 1e-10
REG_GAP_RTOL = 1e-9
DUAL_SLOPE_RANGE = (-1.6, -0.9)
PRIMAL_SLOPE_MAX = -0.5

DEFAULT_DATA_SEEDS = {
    "shipped-sweeps": None,  # the shipped seeds are fixed by definition
    "oracle-batch": 101,
    "size-ladder": 4,
    "seed-ladder": 0,
}


class CheckFailed(Exception):
    """An op returned, but its output failed the benchmark's check."""


def relabel(problem, rng):
    """The same problem with its source and target points permuted."""
    ix = rng.permutation(problem.n_x)
    iy = rng.permutation(problem.n_y)
    div = problem.divergence
    if div.mu_ref is not None or div.nu_ref is not None:
        raise ValueError("relabel supports default reference weights only")
    return Problem(
        problem.points_x[ix],
        problem.points_y[iy],
        problem.mu[ix],
        problem.nu[iy],
        problem.cost[np.ix_(ix, iy)],
        divergence=DivergenceSpec(kind=div.kind),
        cost_kind=problem.cost_kind,
    )


def random_problem(rng, kind):
    """A random instance of at most 3x3 points, drawn as in acceptance criterion 5."""
    n_x = int(rng.integers(1, 4))
    n_y = int(rng.integers(1, 4))
    px = rng.random((n_x, 2))
    py = rng.random((n_y, 2))
    mu = rng.uniform(0.3, 2.0, n_x)
    nu = rng.uniform(0.3, 2.0, n_y)
    cost = rng.uniform(0.1, 2.0, (n_x, n_y))
    return Problem(
        px, py, mu, nu, cost,
        divergence=DivergenceSpec(kind=kind),
        cost_kind="explicit",
    )


def build_problems(workload, data_seed, run_seed):
    """(label, problem) pairs of one pass, in the order the pass runs them."""
    if data_seed is None:
        data_seed = DEFAULT_DATA_SEEDS[workload]
    if workload == "shipped-sweeps":
        items = [
            (f"{kind}:{seed}:{div}",
             gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div)))
            for kind, seed, div in SHIPPED
        ]
        if data_seed is not None:
            rng = np.random.default_rng(data_seed)
            items = [(f"{label}:relabel{data_seed}", relabel(p, rng)) for label, p in items]
    elif workload == "oracle-batch":
        data_rng = np.random.default_rng(data_seed)
        items = [
            (f"rng{data_seed}#{i}",
             random_problem(data_rng, "kl" if i % 2 == 0 else "quadratic"))
            for i in range(50)
        ]
    elif workload == "size-ladder":
        items = [
            (f"point-clouds:{data_seed}:n{n}",
             gen_dataset(DatasetSpec(
                 kind="point-clouds", seed=data_seed, n_x=n, n_y=n + 2,
                 mass_x=float(n), mass_y=float(n + 2),
             )))
            for n in LADDER_SIZES
        ]
    elif workload == "seed-ladder":
        items = [
            (f"point-clouds:{seed}:{div}",
             gen_dataset(DatasetSpec(kind="point-clouds", seed=seed, divergence=div)))
            for seed in range(data_seed, data_seed + SEED_LADDER_LEN)
            for div in ("kl", "quadratic")
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if run_seed != 0:
        # each size-ladder problem is one warm-started chain; the chains
        # are independent, the solves within a chain are not
        order = np.random.default_rng(run_seed).permutation(len(items))
        items = [items[k] for k in order]
    return items


def _require(ok, message):
    if not ok:
        raise CheckFailed(message)


def check_exact(problem, ex):
    """Converged, duality gap and complementary slackness of a reference."""
    _require(ex.converged, f"exact solve not converged (flags {ex.flags})")
    div = divergence_for(problem)
    gap = abs(reg_solver.primal_objective(ex.gamma_star, problem)
              + F_conj(-ex.xi_star.stacked, div))
    _require(gap <= DUALITY_GAP_TOL, f"duality gap {gap:.3e}")
    comp = float(np.max(np.abs(ex.gamma_star * ex.kappa)))
    _require(comp <= COMPLEMENTARITY_TOL, f"complementary slackness {comp:.3e}")


def rate_gate(result):
    """Acceptance criteria 2 and 3 on one sweep."""
    lo, hi = DUAL_SLOPE_RANGE
    return (lo <= result.dual_fit.slope <= hi
            and result.primal_fit.slope <= PRIMAL_SLOPE_MAX)


def check_sweep(result):
    bad = [p.t for p in result.points if not p.converged]
    _require(not bad, f"{len(bad)} sweep points not converged")


def check_regularized(problem, t, sol):
    """Converged, and primal and dual values agree at the returned point."""
    _require(sol.converged, f"not converged at t={t:g} (grad {sol.grad_norm:.2e})")
    div = divergence_for(problem)
    primal = reg_solver.primal_objective(sol.gamma, problem, t)
    dual = -(F_conj(-sol.xi.stacked, div) + float(sol.gamma.sum()) / t)
    gap = abs(primal - dual)
    _require(gap <= REG_GAP_RTOL * max(1.0, abs(primal)),
             f"regularized duality gap {gap:.3e} at t={t:g}")


def run_pass(workload, problems, rec, csv_dir):
    """One pass over the workload; every op goes through ``rec.op``."""
    if workload == "shipped-sweeps":
        for label, p in problems:
            def op(p=p):
                ex = exact_solver.solve_exact(p)
                return ex, sweep.run_sweep(p, sweep.SweepConfig(), exact=ex)

            rec.op(label, op, lambda out, label=label, p=p:
                   _check_shipped(label, p, out, rec, csv_dir))
    elif workload == "oracle-batch":
        for label, p in problems:
            def op(p=p):
                gamma_t = reg_solver.solve_primal_t(p, 1e6)
                ex = exact_solver.solve_exact(p)
                plan = exact_solver.minimal_entropy_plan(ex.I0, ex.m_star, (p.n_x, p.n_y))
                return gamma_t, ex, plan

            rec.op(label, op, lambda out, p=p: _check_oracle(p, out))
    elif workload == "size-ladder":
        cfg = reg_solver.RegSolveConfig(grad_tol=1e-12)
        for label, p in problems:
            init = None
            for t in LADDER_T:
                t = float(t)
                sol = rec.op(
                    f"{label}:t={t:.6g}",
                    lambda p=p, t=t, init=init: reg_solver.solve_dual_t(p, t, cfg, init=init),
                    lambda out, p=p, t=t: check_regularized(p, t, out),
                )
                if sol is None:  # the op failed; the rest of this chain is skipped
                    break
                init = sol.xi
    elif workload == "seed-ladder":
        cfg = sweep.SweepConfig(n_points=20)
        for label, p in problems:
            def op(p=p):
                ex = exact_solver.solve_exact(p)
                return ex, sweep.run_sweep(p, cfg, exact=ex)

            rec.op(label, op, lambda out, label=label, p=p:
                   _check_seed_ladder(label, p, out, rec))
    else:
        raise ValueError(f"unknown workload {workload!r}")


def _check_shipped(label, problem, out, rec, csv_dir):
    ex, result = out
    check_exact(problem, ex)
    check_sweep(result)
    _require(rate_gate(result),
             f"rate gate: dual slope {result.dual_fit.slope:.3f}, "
             f"primal slope {result.primal_fit.slope:.3f}")
    rec.count("rate_gate_pass")
    path = os.path.join(csv_dir, label.replace(":", "_") + ".csv")
    sweep.emit_csv(result.points, path)
    with open(path, "rb") as fh:
        data = fh.read()
    first = rec.csv_bytes.setdefault(label, data)
    _require(data == first, "sweep CSV differs from the first repeat in this run")


def _check_oracle(problem, out):
    gamma_t, ex, plan = out
    check_exact(problem, ex)
    agree = float(np.max(np.abs(plan - gamma_t)))
    _require(agree <= PLAN_AGREEMENT_TOL, f"plan agreement {agree:.3e}")


def _check_seed_ladder(label, problem, out, rec):
    ex, result = out
    check_exact(problem, ex)
    check_sweep(result)
    passed = rate_gate(result)
    if passed:
        rec.count("rate_gate_pass")
    # rate-gate misses are recorded, not failed: the gate is a claim about
    # the shipped seeds only
    rec.note(label, kappa_star=ex.kappa_star, rate_gate=passed,
             dual_slope=result.dual_fit.slope)
