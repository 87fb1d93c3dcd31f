"""Problem JSON round-trips, sweep CSV emission/parsing, SVG structure."""

import json
import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from uotlab.core import DivergenceSpec, InvalidInput, Problem
from uotlab.io import (
    exact_to_dict,
    load_problem,
    problem_from_dict,
    problem_to_dict,
    save_problem,
    solution_to_dict,
)
from uotlab.exact_solver import solve_exact
from uotlab.plots import emit_svg
from uotlab.reg_solver import solve_dual_t
from uotlab.sweep import CSV_HEADER, emit_csv, read_csv

from conftest import make_1x1, random_problem


class Row:
    def __init__(self, t, dual_err, primal_err, **kw):
        self.t = t
        self.dual_err = dual_err
        self.primal_err = primal_err
        self.ode_residual = kw.get("ode_residual", float("nan"))
        self.entropy_val = kw.get("entropy_val", -1.0)
        self.iters = kw.get("iters", 3)
        self.converged = kw.get("converged", True)
        self.flags = kw.get("flags", [])


def synthetic_rows(n=12):
    ts = np.geomspace(1.0, 1e3, n)
    return [Row(t, 1.0 / t, 2.0 / math.sqrt(t)) for t in ts]


def test_problem_json_round_trip(tmp_path, rng):
    for kind in ("kl", "quadratic"):
        p = random_problem(rng, kind=kind)
        path = tmp_path / "p.json"
        save_problem(p, path)
        q = load_problem(path)
        assert np.array_equal(p.cost, q.cost)
        assert np.array_equal(p.mu, q.mu)
        assert q.divergence.kind == kind


def test_problem_json_schema_fields(rng):
    p = random_problem(rng)
    d = problem_to_dict(p)
    assert set(d) == {"points_x", "points_y", "mu", "nu", "cost", "divergence"}
    assert d["cost"]["kind"] == "explicit"
    assert "matrix" in d["cost"]
    # document is plain JSON
    json.dumps(d)


def test_problem_json_reference_weights_round_trip():
    p = Problem(
        [[0.0]], [[1.0]], [1.0], [2.0], [[1.0]],
        divergence=DivergenceSpec(kind="kl", mu_ref=np.array([0.5]),
                                  nu_ref=np.array([0.25])),
        cost_kind="explicit",
    )
    q = problem_from_dict(problem_to_dict(p))
    assert np.allclose(q.q, [0.5, 0.25])


def test_problem_json_defaults_and_errors():
    base = {
        "points_x": [[0.0]], "points_y": [[0.0]],
        "mu": [1.0], "nu": [1.0],
    }
    p = problem_from_dict(base)  # default sqeuclidean cost, kl divergence
    assert p.divergence.kind == "kl"
    with pytest.raises(InvalidInput):
        problem_from_dict({"points_x": [[0.0]]})
    with pytest.raises(InvalidInput):
        problem_from_dict({**base, "divergence": {"kind": "js"}})
    with pytest.raises(InvalidInput, match="divergence kind"):
        problem_from_dict({**base, "divergence": {"kind": ["kl"]}})
    with pytest.raises(InvalidInput):
        problem_from_dict({**base, "cost": {"kind": "manhattan"}})
    with pytest.raises(InvalidInput, match="cost"):
        problem_from_dict({**base, "cost": "sqeuclidean"})
    with pytest.raises(InvalidInput, match="divergence"):
        problem_from_dict({**base, "divergence": "kl"})
    with pytest.raises(InvalidInput, match="divergence.q.*nu_ref"):
        problem_from_dict(
            {**base, "divergence": {"kind": "kl", "q": {"mu_ref": [1.0]}}}
        )
    with pytest.raises(InvalidInput, match="divergence.q"):
        problem_from_dict({**base, "divergence": {"kind": "kl", "q": [1.0, 1.0]}})
    two = {
        "points_x": [[0.0], [1.0]], "points_y": [[0.0], [1.0]],
        "mu": [1.0, 1.0], "nu": [1.0, 1.0],
    }
    for nu_ref in ([1.0], [1.0, 1.0]):
        q = {"mu_ref": [1.0, 1.0, 1.0], "nu_ref": nu_ref}
        with pytest.raises(InvalidInput, match="mu_ref"):
            problem_from_dict({**two, "divergence": {"kind": "kl", "q": q}})


def test_solution_and_exact_dicts():
    p = make_1x1(c=1.0)
    sol = solve_dual_t(p, 10.0)
    d = solution_to_dict(sol)
    assert d["t"] == 10.0 and d["converged"]
    ex = solve_exact(p)
    dd = exact_to_dict(ex)
    assert dd["I0"] == [[0, 0]]
    json.dumps(dd)


def test_csv_line_count_and_header(tmp_path):
    path = tmp_path / "s.csv"
    emit_csv(synthetic_rows(3), path)
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[0] == CSV_HEADER


def test_csv_round_trip_floats(tmp_path):
    rows = synthetic_rows(12)
    path = tmp_path / "s.csv"
    emit_csv(rows, path)
    back = read_csv(path)
    for r, b in zip(rows, back):
        assert b["t"] == r.t  # exact: shortest round-trip repr
        assert b["dual_err"] == r.dual_err
        assert b["primal_err"] == r.primal_err
        assert b["flags"] == "ok"


def test_csv_flags_nonconverged(tmp_path):
    rows = synthetic_rows(3)
    rows[1].converged = False
    rows[1].flags = ["ridge"]
    path = tmp_path / "s.csv"
    emit_csv(rows, path)
    back = read_csv(path)
    assert back[1]["flags"] == "ridge|nonconverged"


def test_csv_rejects_empty_and_bad_header(tmp_path):
    with pytest.raises(InvalidInput):
        emit_csv([], tmp_path / "e.csv")
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(InvalidInput):
        read_csv(bad)


def test_svg_structure(tmp_path):
    path = tmp_path / "fig.svg"
    emit_svg(synthetic_rows(12), path, title="demo")
    root = ET.parse(path).getroot()  # well-formed XML
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    paths = root.findall(f".//{ns}path")
    assert len(paths) == 4  # curve + guide line in each of the two panels
    text = path.read_text()
    assert "stroke-dasharray" in text  # the guide lines are dashed
    assert "<image" not in text and "href" not in text  # self-contained


def test_svg_needs_two_points(tmp_path):
    with pytest.raises(InvalidInput):
        emit_svg(synthetic_rows(1), tmp_path / "f.svg")
