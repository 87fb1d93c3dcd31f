"""Command-line surface: exit codes, artifact generation, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

from uotlab import exact_solver, io
from uotlab.cli import EXIT_INVALID, EXIT_NONCONVERGED, EXIT_OK, _build_parser, cli_main
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.divergence import DIVERGENCE_KINDS
from uotlab.reg_solver import RegSolveConfig
from uotlab.sweep import SweepConfig

from conftest import make_1x1


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


def test_parser_defaults_are_the_config_defaults():
    # each default the CLI shares with a config dataclass is read from it;
    # check --n-points keeps its own, shorter sweep
    parse = _build_parser().parse_args
    gen = parse(["gen", "--dataset", "point-clouds", "-o", "p.json"])
    assert (gen.seed, gen.divergence) == (DatasetSpec().seed, DatasetSpec().divergence)
    solve = parse(["solve", "--problem", "p.json", "--t", "1"])
    assert solve.tol == RegSolveConfig().grad_tol
    sweep = parse(["sweep", "--problem", "p.json"])
    sweep_cfg = SweepConfig()
    assert (sweep.t_min, sweep.t_max, sweep.n_points) == (
        sweep_cfg.t_min, sweep_cfg.t_max, sweep_cfg.n_points)
    check = parse(["check", "--problem", "p.json"])
    assert (check.t_max, check.n_points) == (sweep_cfg.t_max, 40)


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


def test_sweep_with_too_few_converged_points_is_nonconverged(tmp_path, capsys):
    # at t_max = 1e6 the top two of 8 points stop at the t-growing gradient
    # floor, so 6 converged points are left for fits that need 8: a failed
    # sweep, not invalid input, and no CSV is written
    prob = tmp_path / "p.json"
    csv = tmp_path / "s.csv"
    cli_main(["gen", "--dataset", "point-clouds", "--seed", "4", "-o", str(prob)])
    for argv in (["sweep", "--out", str(csv)], ["check"]):
        argv += ["--problem", str(prob), "--n-points", "8", "--t-max", "1e6"]
        assert cli_main(argv) == EXIT_NONCONVERGED
        assert "TooFewConverged: 6 sweep points converged, and the rate fit needs 8" \
            in capsys.readouterr().err
    assert not csv.exists()


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


def test_check_passes_on_a_saturated_instance(tmp_path, capsys):
    # every entry of the 1x1 plan is saturated: kappa* is infinite, and the
    # sweep's reference is the one check's verdicts read
    prob = tmp_path / "one.json"
    io.save_problem(make_1x1(c=1.0), prob)
    assert cli_main(["check", "--problem", str(prob), "--n-points", "20"]) == EXIT_OK
    assert "check passed" in capsys.readouterr().out


def test_exact_writes_reference(tmp_path, capsys):
    prob = tmp_path / "p.json"
    out = tmp_path / "exact.json"
    cli_main(["gen", "--dataset", "gaussians-1d", "-o", str(prob)])
    assert cli_main(["exact", "--problem", str(prob), "--out", str(out)]) == EXIT_OK
    assert "pivots=0 flags=" in capsys.readouterr().out
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
    for kind in ("quadratic", "kl-normalized"):
        assert cli_main(
            ["sweep", "--problem", str(prob), "--n-points", "12",
             "--divergence", kind, "--diagnostics", str(diag)]
        ) == EXIT_OK, kind
        doc = json.loads(diag.read_text())
        assert doc["n_converged"] == doc["n_points"], kind


def test_gen_writes_every_divergence_kind(tmp_path):
    # the CLI offers each kind a problem file can name, kl-normalized too
    for kind in DIVERGENCE_KINDS:
        prob = tmp_path / f"{kind}.json"
        argv = ["gen", "--dataset", "point-clouds", "--divergence", kind, "-o", str(prob)]
        assert cli_main(argv) == EXIT_OK
        assert io.load_problem(prob).divergence.kind == kind


def _python(*args, timeout=None):
    """Run a Python process with the package's source tree on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


_LOADED_SCIPY = "sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    # scipy is most of the import time: the factorization binds it at its
    # first call, and scipy.optimize serves only the test oracle
    out = _python("-c", f"import sys, uotlab, uotlab.cli; print({_LOADED_SCIPY})")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _scipy_after_cli(*argv):
    """Exit code of cli_main(argv) in a fresh process, and the scipy modules it loaded."""
    script = ("import sys; from uotlab.cli import cli_main; "
              f"code = cli_main(sys.argv[1:]); print(code, {_LOADED_SCIPY})")
    out = _python("-c", script, *argv, timeout=60)
    assert out.returncode == 0, out.stderr
    code, loaded = out.stdout.strip().splitlines()[-1].split(" ", 1)
    return int(code), loaded


def test_commands_that_never_factor_load_no_scipy(tmp_path):
    prob, csv = tmp_path / "p.json", tmp_path / "s.csv"
    assert _scipy_after_cli("gen", "--dataset", "point-clouds", "-o", str(prob)) \
        == (EXIT_OK, "[]")
    cli_main(["sweep", "--problem", str(prob), "--n-points", "12", "--out", str(csv)])
    plot = ("plot", "--csv", str(csv), "--out", str(tmp_path / "f.svg"))
    assert _scipy_after_cli(*plot) == (EXIT_OK, "[]")
    assert _scipy_after_cli("--help") == (EXIT_OK, "[]")


def test_solve_loads_scipy_linalg(tmp_path):
    prob = tmp_path / "p.json"
    cli_main(["gen", "--dataset", "point-clouds", "-o", str(prob)])
    code, loaded = _scipy_after_cli("solve", "--problem", str(prob), "--t", "10")
    assert code == EXIT_OK and "'scipy.linalg'" in loaded


def test_dposv_patched_before_the_first_factorization_stays_patched():
    # the first factorization binds scipy's dposv only where the name still
    # holds the stand-in, so a patch made before it sees every call
    code = f"""
import sys
import numpy as np
from uotlab import core
dposv = core.dposv
calls = []
def counting(*args, **kwargs):
    calls.append(args[0].shape)
    return dposv(*args, **kwargs)
core.dposv = counting
assert {_LOADED_SCIPY} == []
rng = np.random.default_rng(3)
G = rng.uniform(0.1, 1.0, (5, 4))
for _ in range(2):
    core.bipartite_solve(G, core.apply_A(G) + 1.0, rng.standard_normal(9))
assert core.dposv is counting
print(calls)
"""
    out = _python("-c", code, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[(4, 4), (4, 4)]"


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
