#!/usr/bin/env python3
"""Reproduce the four rate figures: dataset family x divergence.

One command per figure, or all four at once (the default).  Each job runs a
full t-sweep against the exact reference and writes the sweep CSV, a
diagnostics JSON and the two-panel log-log SVG into the output directory.
"""

import argparse
import os
import sys

# importing uotlab pins BLAS to one thread before numpy loads, unless the
# environment sets a thread count
from uotlab.datasets import DatasetSpec, gen_dataset
from uotlab.io import save_json
from uotlab.plots import emit_svg
from uotlab.sweep import SweepConfig, diagnostics_dict, emit_csv, run_sweep

# shipped benchmark seeds; the point-cloud seed is chosen for a
# well-conditioned saturated set (see README)
JOBS = [
    ("point-clouds", 4, "kl"),
    ("point-clouds", 4, "quadratic"),
    ("gaussians-1d", 0, "kl"),
    ("gaussians-1d", 0, "quadratic"),
]


def run_job(job, outdir):
    kind, seed, div = job
    problem = gen_dataset(DatasetSpec(kind=kind, seed=seed, divergence=div))
    result = run_sweep(problem, SweepConfig())
    stem = os.path.join(outdir, f"{kind}_{div}")
    emit_csv(result.points, stem + ".csv")
    emit_svg(result.points, stem + ".svg", title=f"{kind} / {div}")
    save_json(diagnostics_dict(result), stem + ".json")
    return (
        f"{kind}/{div}: dual slope {result.dual_fit.slope:.3f}, "
        f"primal slope {result.primal_fit.slope:.3f}, "
        f"r2 {result.dual_fit.r2:.4f}"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="results")
    parser.add_argument(
        "--only", choices=[f"{k}:{d}" for k, _, d in JOBS], default=None,
        help="run a single dataset:divergence combination",
    )
    args = parser.parse_args(argv)
    os.makedirs(args.outdir, exist_ok=True)
    jobs = [
        j for j in JOBS
        if args.only is None or f"{j[0]}:{j[2]}" == args.only
    ]
    for job in jobs:
        print(run_job(job, args.outdir))
    return 0


if __name__ == "__main__":
    sys.exit(main())
