"""Command-line surface: exit codes, artifact generation, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from uotlab import exact_solver, io
from uotlab.cli import EXIT_INVALID, EXIT_NONCONVERGED, EXIT_OK, cli_main
from uotlab.datasets import DatasetSpec, gen_dataset


def test_gen_then_sweep_exit_zero(tmp_path):
    prob = tmp_path / "p.json"
    assert cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)]) == EXIT_OK
    assert cli_main(["sweep", "--problem", str(prob), "--n-points", "12"]) == EXIT_OK


def test_gen_gaussians_rejects_a_seed(tmp_path, capsys):
    # the gaussians have no random draw; a seed is refused, not ignored
    prob = tmp_path / "p.json"
    argv = ["gen", "--dataset", "gaussians-1d", "--seed", "4", "-o", str(prob)]
    assert cli_main(argv) == EXIT_INVALID
    assert "seed" in capsys.readouterr().err
    assert not prob.exists()


def test_sweep_requires_problem():
    assert cli_main(["sweep"]) == EXIT_INVALID


def test_solve_negative_t_rejected(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    assert cli_main(["solve", "--problem", str(prob), "--t", "-5"]) == EXIT_INVALID


def test_solve_infinite_tol_rejected(tmp_path):
    # an infinite tolerance would accept the zero start as converged
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "point-clouds", "--seed", "4", "-o", str(prob)])
    argv = ["solve", "--problem", str(prob), "--t", "100", "--tol", "inf"]
    assert cli_main(argv) == EXIT_INVALID


def test_unknown_flag_rejected():
    assert cli_main(["sweep", "--frobnicate"]) == EXIT_INVALID


def test_missing_problem_file():
    assert cli_main(["exact", "--problem", "/nonexistent.json", "--out", "/tmp/x"]) \
        == EXIT_INVALID


def test_exact_rejects_malformed_cost(tmp_path, capsys):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "points_x": [[0.0]], "points_y": [[1.0]], "mu": [1.0], "nu": [1.0],
        "cost": "sqeuclidean",
    }))
    out = tmp_path / "exact.json"
    assert cli_main(["exact", "--problem", str(prob), "--out", str(out)]) \
        == EXIT_INVALID
    assert "cost" in capsys.readouterr().err


def test_exact_names_a_crossover_failure(tmp_path, capsys, monkeypatch):
    # the hand instance needs one pivot; with none allowed the CLI reports
    # the named error and exits as non-converged
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "points_x": [[0.0], [1.0]], "points_y": [[0.0], [1.0]],
        "mu": [1.0, 1.0], "nu": [1.0, 1.0],
        "cost": {"kind": "explicit", "matrix": [[1.0, 2.0], [2.0, 1.0]]},
    }))
    monkeypatch.setattr(exact_solver, "MAX_PIVOTS", 0)
    out = tmp_path / "exact.json"
    assert cli_main(["exact", "--problem", str(prob), "--out", str(out)]) \
        == EXIT_NONCONVERGED
    assert "CrossoverFailed" in capsys.readouterr().err


def test_exact_names_a_numerical_failure(tmp_path, capsys):
    # masses of 1e-49 make the seed solve's tangent singular; TangentFailed
    # is a LinAlgError, hence a ValueError, yet it is a failed reference
    # rather than invalid input
    prob = tmp_path / "p.json"
    io.save_problem(gen_dataset(DatasetSpec(kind="point-clouds", seed=4,
                                            mass_x=13e-50, mass_y=15e-50)), prob)
    out = tmp_path / "exact.json"
    assert cli_main(["exact", "--problem", str(prob), "--out", str(out)]) \
        == EXIT_NONCONVERGED
    assert "TangentFailed" in capsys.readouterr().err


def test_solve_writes_solution(tmp_path):
    prob = tmp_path / "p.json"
    out = tmp_path / "sol.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    assert cli_main(
        ["solve", "--problem", str(prob), "--t", "50", "--out", str(out)]
    ) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["t"] == 50.0 and doc["converged"]
    assert len(doc["phi"]) == 12 and len(doc["gamma"]) == 12


def test_exact_writes_reference(tmp_path):
    prob = tmp_path / "p.json"
    out = tmp_path / "exact.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    assert cli_main(["exact", "--problem", str(prob), "--out", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert {"xi_star", "kappa", "I0", "kappa_star_min", "m_star", "gamma_star"} \
        <= set(doc)
    assert doc["converged"] and doc["pivots"] == 0
    assert len(doc["m_star"]["row"]) == len(doc["xi_star"]["phi"]) == 12
    assert len(doc["m_star"]["col"]) == len(doc["xi_star"]["psi"]) == 12


def test_sweep_csv_determinism_and_plot(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    csv1, csv2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--problem", str(prob), "--n-points", "12"]
    assert cli_main(args + ["--out", str(csv1)]) == EXIT_OK
    assert cli_main(args + ["--out", str(csv2)]) == EXIT_OK
    assert csv1.read_bytes() == csv2.read_bytes()
    svg = tmp_path / "fig.svg"
    assert cli_main(["plot", "--csv", str(csv1), "--out", str(svg)]) == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_sweep_divergence_override(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    diag = tmp_path / "d.json"
    assert cli_main(
        ["sweep", "--problem", str(prob), "--n-points", "12",
         "--divergence", "quadratic", "--diagnostics", str(diag)]
    ) == EXIT_OK
    doc = json.loads(diag.read_text())
    assert doc["n_converged"] == doc["n_points"]


def _python(*args, timeout=None):
    """Run a Python process with the package's source tree on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is only for the test oracle and costs a large share of
    # the import time, so the package and the CLI must not pull it in
    code = "import sys, uotlab, uotlab.cli; print('scipy.optimize' in sys.modules)"
    out = _python("-c", code)
    assert out.returncode == 0
    assert out.stdout.strip() == "False"


def _cli_exit(*argv):
    # in a child process under a timeout, so that a solver that never ends
    # on the input fails the test instead of hanging the suite
    out = _python("-c", "from uotlab.cli import main; main()", *argv, timeout=60)
    return out.returncode, out.stderr


def test_solve_nan_t_rejected(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    code, err = _cli_exit("solve", "--problem", str(prob), "--t", "nan")
    assert code == EXIT_INVALID and "finite" in err


def test_sweep_infinite_t_max_rejected(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    code, err = _cli_exit("sweep", "--problem", str(prob), "--t-max", "inf")
    assert code == EXIT_INVALID and "t_max" in err


def test_exact_rejects_nan_weight(tmp_path):
    prob = tmp_path / "p.json"
    prob.write_text(json.dumps({
        "points_x": [[0.0], [1.0]], "points_y": [[0.0]],
        "mu": [math.nan, 1.0], "nu": [1.0],
    }))
    code, err = _cli_exit("exact", "--problem", str(prob), "--out", str(tmp_path / "x"))
    assert code == EXIT_INVALID and "weights" in err
