"""JSON (de)serialization of problems and solver outputs."""

from __future__ import annotations

import json

import numpy as np

from .core import DivergenceSpec, InvalidInput, Problem, build_cost


def problem_to_dict(problem):
    out = {
        "points_x": problem.points_x.tolist(),
        "points_y": problem.points_y.tolist(),
        "mu": problem.mu.tolist(),
        "nu": problem.nu.tolist(),
        "cost": {"kind": problem.cost_kind},
        "divergence": {"kind": problem.divergence.kind},
    }
    if problem.cost_kind == "explicit":
        out["cost"]["matrix"] = problem.cost.tolist()
    div = problem.divergence
    if div.mu_ref is not None or div.nu_ref is not None:
        # a weight left unset defaults to the problem's own; write both
        mu_ref, nu_ref = np.split(problem.q, [problem.n_x])
        out["divergence"]["q"] = {"mu_ref": mu_ref.tolist(), "nu_ref": nu_ref.tolist()}
    return out


def _object(data, key, default, name):
    spec = data.get(key, default)
    if not isinstance(spec, dict):
        raise InvalidInput(f"{name} must be an object, got {type(spec).__name__}")
    return spec


def problem_from_dict(data):
    try:
        points_x = data["points_x"]
        points_y = data["points_y"]
        mu = data["mu"]
        nu = data["nu"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed problem document: missing {exc}") from None
    cost_spec = _object(data, "cost", {"kind": "sqeuclidean"}, "cost")
    kind = cost_spec.get("kind", "sqeuclidean")
    cost = build_cost(points_x, points_y, kind, matrix=cost_spec.get("matrix"))
    div_spec = _object(data, "divergence", {"kind": "kl"}, "divergence")
    qref = div_spec.get("q")
    if qref is not None:
        qref = _object(div_spec, "q", None, "divergence.q")
        for key in ("mu_ref", "nu_ref"):
            if key not in qref:
                raise InvalidInput(f"divergence.q is missing {key!r}")
    div = DivergenceSpec(
        kind=div_spec.get("kind", "kl"),
        mu_ref=None if qref is None else np.asarray(qref["mu_ref"], float),
        nu_ref=None if qref is None else np.asarray(qref["nu_ref"], float),
    )
    return Problem(points_x, points_y, mu, nu, cost, divergence=div, cost_kind=kind)


def save_problem(problem, path):
    save_json(problem_to_dict(problem), path)


def load_problem(path):
    with open(path, encoding="utf-8") as fh:
        return problem_from_dict(json.load(fh))


def solution_to_dict(sol):
    return {
        "t": sol.t,
        "phi": sol.xi.phi.tolist(),
        "psi": sol.xi.psi.tolist(),
        "gamma": sol.gamma.tolist(),
        "iters": sol.iters,
        "grad_norm": sol.grad_norm,
        "converged": sol.converged,
        "flags": sol.flags,
    }


def exact_to_dict(exact):
    n_x = exact.xi_star.phi.size
    return {
        "xi_star": {"phi": exact.xi_star.phi.tolist(), "psi": exact.xi_star.psi.tolist()},
        "kappa": exact.kappa.tolist(),
        "I0": [[int(i), int(j)] for i, j in exact.I0],
        "kappa_star_min": None if np.isinf(exact.kappa_star) else exact.kappa_star,
        "m_star": {"row": exact.m_star[:n_x].tolist(), "col": exact.m_star[n_x:].tolist()},
        "gamma_star": exact.gamma_star.tolist(),
        "converged": exact.converged,
        "pivots": exact.pivots,
        "flags": exact.flags,
    }


def save_json(obj, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
