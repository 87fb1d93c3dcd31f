#!/usr/bin/env python3
"""Benchmark of the uotlab laboratory: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload size-ladder --seed 3 --seconds 20 --trace 0

Runs one workload as a closed loop with one client in this process, with BLAS
pinned to one thread, checks every op's output, and prints a table followed by
one JSON line with ``correct``, ``attempted``, ``failed`` and ``metrics``.

* ``--trace 0``: the end-to-end metrics: set-up time, peak memory, and the
  pass wall time and op latency median and tail in units of a reference
  kernel timed before each pass (see Reference); the same times in seconds
  are printed too.  Failures are ``failed/attempted``.
* ``--trace 1``: the per-layer metrics.  Passes alternate untraced and
  traced; the traced ones time the calls into each module's public functions
  (see tracer.py), and the pair gives the tracing overhead.

``--workload all`` runs every workload, each in its own process.  See
README.md in this directory for the workloads and what each metric predicts.
"""

import os

# pin BLAS before numpy loads; the set-up probes inherit this environment
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")

WORKLOADS = ("shipped-sweeps", "oracle-batch", "size-ladder", "seed-ladder")
SETUP_PROBES = 5
# reference kernel whose time is the unit of the *_ref metrics (see Reference)
REFERENCE_KIND = {"size-ladder": "dense"}
PROBE_TIMEOUT_S = 120

PER_LAYER = (
    ("setup.import_s", "s"), ("setup.gen_s", "s"),
    ("reg_solver.solves", "count"), ("reg_solver.newton_iters", "count"),
    ("reg_solver.self_s", "s"),
    ("reg_solver.hess_calls", "count"), ("reg_solver.hess_s", "s"),
    ("reg_solver.eval_calls", "count"), ("reg_solver.eval_s", "s"),
    ("reg_solver.grad_calls", "count"), ("reg_solver.grad_s", "s"),
    ("reg_solver.factor_calls", "count"), ("reg_solver.factor_s", "s"),
    ("reg_solver.factor_gflop_computed", "GFLOP"),
    ("reg_solver.evals_per_iter", "ratio"),
    ("reg_solver.nonconverged", "count"), ("reg_solver.ridge", "count"),
    ("exact_solver.solves", "count"), ("exact_solver.self_s", "s"),
    ("exact_solver.factor_calls", "count"), ("exact_solver.lstsq_calls", "count"),
    ("exact_solver.projection_calls", "count"), ("exact_solver.projection_s", "s"),
    ("exact_solver.failures", "count"), ("exact_solver.polish_failed", "count"),
    ("asymptotics.self_s", "s"), ("asymptotics.d_star_s", "s"),
    ("asymptotics.d_star_failures", "count"),
    ("asymptotics.ode_calls", "count"), ("asymptotics.ode_s", "s"),
    ("asymptotics.rate_gate_pass", "count"),
    ("sweep.self_s", "s"), ("sweep.cold_check_iters", "count"),
    ("sweep.cold_check_s", "s"),
    ("bench.check_s", "s"), ("trace.accounted_frac", "ratio"),
    ("trace.wall_s_untraced", "s"), ("trace.wall_s_traced", "s"),
    ("trace.overhead_frac", "ratio"),
)


class _PassCut(Exception):
    """Raised by PassRecord.op once a pass has run its allowed ops."""


class Reference:
    """A fixed numpy/scipy kernel, timed right before each pass.

    On a shared 2-vCPU guest the speed of identical work drifts by up to 1.4x
    over minutes, so raw pass times of one build spread by 20-30% between
    runs.  The ``*_ref`` metrics divide by this kernel's time, taken in the
    same minute, which cancels most of that drift.  The drift is not the same
    for every kind of work, so the kernel matches the workload: ``small``
    makes many numpy calls on 13x15 arrays (per-call overhead, as in the
    shipped sweeps), ``dense`` assembles and Cholesky-factors a 482x482
    transport-shaped Hessian (as in the size ladder).  It never calls uotlab,
    so no change to the library can move it.
    """

    def __init__(self, kind):
        import numpy as np

        self.np = np
        self.kind = kind
        rng = np.random.default_rng(0)
        self.small = rng.random((13, 15))
        m = rng.random((28, 28))
        self.spd_small = m @ m.T + 28.0 * np.eye(28)
        self.dense = rng.random((240, 242))

    def _once(self):
        import scipy.linalg

        np = self.np
        start = time.perf_counter()
        if self.kind == "small":
            for _ in range(400):
                e = np.exp(np.minimum(0.5 * self.small, 690.0))
                s = np.concatenate([e.sum(axis=1), e.sum(axis=0)])
                cf = scipy.linalg.cho_factor(self.spd_small, check_finite=False)
                scipy.linalg.cho_solve(cf, s, check_finite=False)
                float(np.max(np.abs(s)))
        else:
            n_x, n_y = self.dense.shape
            for _ in range(4):
                g = np.exp(np.minimum(self.dense - 0.5, 690.0))
                h = np.zeros((n_x + n_y, n_x + n_y))
                h[:n_x, :n_x] = np.diag(g.sum(axis=1))
                h[n_x:, n_x:] = np.diag(g.sum(axis=0))
                h[:n_x, n_x:] = g
                h[n_x:, :n_x] = g.T
                h[np.diag_indices_from(h)] += 1.0
                cf = scipy.linalg.cho_factor(h, check_finite=False)
                scipy.linalg.cho_solve(cf, np.ones(n_x + n_y), check_finite=False)
        return time.perf_counter() - start

    def seconds(self):
        """Median of three timings of the kernel."""
        return statistics.median(self._once() for _ in range(3))


class PassRecord:
    """Latencies, failures and counts of one pass over a workload."""

    def __init__(self, workload, csv_bytes, tracer=None, max_ops=None):
        self.workload = workload
        self.csv_bytes = csv_bytes  # first sweep CSV per op label, kept across passes
        self.tracer = tracer
        self.max_ops = max_ops
        self.latencies = []
        self.failures = []
        self.notes = []
        self.counts = Counter()
        self.attempted = 0
        self.wrong = 0
        self.check_s = 0.0

    def op(self, label, fn, check):
        """Time fn(), then check its output; returns the output or None on failure."""
        if self.max_ops is not None and self.attempted >= self.max_ops:
            raise _PassCut
        self.attempted += 1
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = fn()
            else:
                with self.tracer.op_span():
                    out = fn()
        except Exception as exc:  # a library error is a failed op, not a crash
            self.latencies.append((label, time.perf_counter() - start))
            self._fail(label, "raised", exc)
            return None
        self.latencies.append((label, time.perf_counter() - start))
        start = time.perf_counter()
        try:
            check(out)
        except workloads.CheckFailed as exc:
            self.wrong += 1
            self._fail(label, "check", exc)
            return None
        finally:
            self.check_s += time.perf_counter() - start
        return out

    def _fail(self, label, stage, exc):
        self.failures.append({
            "workload": self.workload, "op": label, "stage": stage,
            "type": type(exc).__name__, "message": str(exc)[:60],
        })

    def count(self, key):
        self.counts[key] += 1

    def note(self, label, **values):
        self.notes.append({"op": label, **values})


def run_one_pass(args, problems, csv_dir, csv_bytes, tracer=None, max_ops=None):
    rec = PassRecord(args.workload, csv_bytes, tracer, max_ops)
    start = time.perf_counter()
    try:
        workloads.run_pass(args.workload, problems, rec, csv_dir)
    except _PassCut:
        pass
    # the benchmark's own output checks are not the lab's time
    return time.perf_counter() - start - rec.check_s, rec


def setup_probes(args):
    """Wall time of fresh interpreters that import uotlab and build the problems."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), args.workload,
           "-" if args.data_seed is None else str(args.data_seed), str(args.seed)]
    walls, inner = [], []
    for k in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        if k == 0:
            continue  # the first probe may still be writing bytecode caches
        walls.append(wall)
        inner.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(walls),
        "setup.import_s": statistics.median(p["import_s"] for p in inner),
        "setup.gen_s": statistics.median(p["gen_s"] for p in inner),
    }


def op_latencies(recs, units):
    """Latency of each distinct op, in its pass's unit: its median over the passes.

    Every pass runs the same ops, so taking the median per op first keeps the
    sample count (ops per pass) independent of how many passes fit in a run.
    """
    by_op = {}
    for rec, unit in zip(recs, units):
        for label, seconds in rec.latencies:
            by_op.setdefault(label, []).append(seconds / unit)
    return sorted(statistics.median(xs) for xs in by_op.values())


def tail(xs):
    """Highest order statistic of sorted xs with ten samples beyond it, and its percentile."""
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def blas_info():
    import ctypes

    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = {}
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "blas" in ln.rsplit("/", 1)[-1]})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads[os.path.basename(path)] = getattr(lib, sym)()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads_requested": int(BLAS_THREADS), "threads_measured": threads}


def environment():
    import numpy as np
    import scipy

    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                    if ln.startswith("model name")), "")
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure(args, problems, csv_dir):
    """Untraced passes until --seconds have elapsed: the end-to-end metrics.

    Returns the bounded metrics (times in reference units) and the same times
    in seconds, which are printed but spread with the machine's speed.
    """
    csv_bytes = {}
    reference = Reference(REFERENCE_KIND.get(args.workload, "small"))
    reference.seconds()  # warm-up
    run_one_pass(args, problems, csv_dir, csv_bytes, max_ops=1)  # warm-up op
    walls, refs, recs = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        refs.append(reference.seconds())
        wall, rec = run_one_pass(args, problems, csv_dir, csv_bytes)
        walls.append(wall)
        recs.append(rec)
    scaled = op_latencies(recs, refs)
    seconds = op_latencies(recs, [1.0] * len(recs))
    tail_ref, tail_pct = tail(scaled)
    metrics = {
        "wall_ref": (statistics.median(w / r for w, r in zip(walls, refs)), "ref"),
        "op_ref.p50": (statistics.median(scaled), "ref"),
        "op_ref.tail": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "wall_s": (statistics.median(walls), "s"),
        "op_s.p50": (statistics.median(seconds), "s"),
        "op_s.tail": (tail(seconds)[0], "s"),
        "ref_s": (statistics.median(refs), "s"),
    }
    info = {"passes": len(walls), "ops_per_pass": len(scaled),
            "tail_percentile": round(tail_pct, 1)}
    return metrics, raw, recs, info


def measure_traced(args, problems, csv_dir):
    """Alternating untraced/traced passes: the per-layer metrics and the overhead."""
    from tracer import ROOT_BUCKET, Tracer

    csv_bytes = {}
    run_one_pass(args, problems, csv_dir, csv_bytes, max_ops=1)  # warm-up op
    tracer = Tracer()
    plain, traced, per_pass, recs = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        wall, rec = run_one_pass(args, problems, csv_dir, csv_bytes)
        plain.append(wall)
        recs.append(rec)
        tracer.reset()
        tracer.install()
        try:
            wall, rec = run_one_pass(args, problems, csv_dir, csv_bytes, tracer=tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        recs.append(rec)
        values = dict(tracer.counts)
        values.update(tracer.self_s)
        values.update(tracer.extra_s)
        values["asymptotics.rate_gate_pass"] = rec.counts["rate_gate_pass"]
        values["bench.check_s"] = rec.check_s
        total = sum(tracer.self_s.values())
        values["trace.accounted_frac"] = (
            1.0 - tracer.self_s[ROOT_BUCKET] / total if total else 1.0)
        iters = values.get("reg_solver.newton_iters", 0)
        values["reg_solver.evals_per_iter"] = (
            values.get("reg_solver.eval_calls", 0) / iters if iters else 0.0)
        per_pass.append((values, list(tracer.failures)))
    metrics, notes = {}, []
    for name, unit in PER_LAYER:
        if name.startswith(("setup.", "trace.wall", "trace.overhead")):
            continue
        series = [v.get(name, 0) for v, _ in per_pass]
        if unit == "count" and len(set(series)) > 1:
            notes.append(f"count {name} varies across traced passes: {series}")
        metrics[name] = (statistics.median(series), unit)
    metrics["trace.wall_s_untraced"] = (statistics.median(plain), "s")
    metrics["trace.wall_s_traced"] = (statistics.median(traced), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    layer_failures = sorted({f for _, fails in per_pass for f in fails})
    info = {"passes_traced": len(traced), "passes_untraced": len(plain),
            "layer_failures": layer_failures, "notes": notes}
    return metrics, recs, info


def run_workload(args):
    problems = workloads.build_problems(args.workload, args.data_seed, args.seed)
    setup = setup_probes(args)
    csv_dir = tempfile.mkdtemp(prefix=".scratch-", dir=BENCH_DIR)
    try:
        raw = {}
        if args.trace:
            metrics, recs, info = measure_traced(args, problems, csv_dir)
            metrics["setup.import_s"] = (setup["setup.import_s"], "s")
            metrics["setup.gen_s"] = (setup["setup.gen_s"], "s")
            order = [name for name, _ in PER_LAYER]
        else:
            metrics, raw, recs, info = measure(args, problems, csv_dir)
            metrics["setup_s"] = (setup["setup_s"], "s")
            order = ["setup_s", "wall_ref", "op_ref.p50", "op_ref.tail", "peak_rss_mb"]
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(len(r.failures) for r in recs)
    wrong = sum(r.wrong for r in recs)
    print(f"workload {args.workload}  seed {args.seed}  data-seed "
          f"{args.data_seed if args.data_seed is not None else 'default'}  "
          f"trace {args.trace}  {json.dumps(info)}")
    for name in order:
        value, unit = metrics[name]
        print(f"  {name:36s} {value:14.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"  {name:36s} {value:14.6g} {unit}  (not bounded: moves with the machine)")
    print(f"  {'fail_frac':36s} {failed / attempted:14.6g} ratio  ({failed}/{attempted})")
    # a deterministic pass fails the same ops every time: list each op once
    seen = set()
    for f in (f for r in recs for f in r.failures):
        key = (f["op"], f["stage"], f["type"], f["message"])
        if key not in seen:
            seen.add(key)
            print("  failure " + json.dumps(f))
    for n in recs[0].notes:
        print("  op " + json.dumps(n))
    return {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in order},
    }


def run_all(args):
    """Every workload in its own process, so each peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.data_seed is not None:
            cmd += ["--data-seed", str(args.data_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} failed: {proc.stderr.strip()[-300:]}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = metric
    return total


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0,
                        help="run seed: relabels the points and orders the ops")
    parser.add_argument("--data-seed", type=int, default=None,
                        help="instance seed; defaults to the lab's seed for the workload")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    print("env " + json.dumps(environment()), flush=True)
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "uotlab", "__init__.py")):
        print(f"error: no uotlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import uotlab

    if not os.path.abspath(uotlab.__file__).startswith(SRC + os.sep):
        print(f"error: uotlab imported from {uotlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    sys.exit(main())
