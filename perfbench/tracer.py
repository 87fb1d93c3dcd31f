"""Per-layer tracing from outside the library.

The tracer replaces public functions of the ``uotlab`` modules (and the
``scipy.linalg`` factor/solve calls they make) with wrappers that open a span
per call.  Spans nest; a span's self time is its duration minus the time its
child spans cover, and it is charged to one bucket of its layer.  The self
times of all spans under an op therefore add up to the op's wall time.

Counters come from the same boundaries: the results of the wrapped calls
(Newton iterations, flags) and the exceptions that leave them.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

import scipy.linalg

# (module, function) -> bucket its self time is charged to
SPANS = {
    ("uotlab.reg_solver", "solve_dual_t"): "reg_solver.self_s",
    ("uotlab.reg_solver", "solve_primal_t"): "reg_solver.self_s",
    ("uotlab.reg_solver", "_newton_solve"): "reg_solver.self_s",
    ("uotlab.reg_solver", "kantorovich_eval"): "reg_solver.eval_s",
    ("uotlab.reg_solver", "kantorovich_grad"): "reg_solver.grad_s",
    ("uotlab.reg_solver", "kantorovich_hess"): "reg_solver.hess_s",
    ("uotlab.exact_solver", "solve_exact"): "exact_solver.self_s",
    ("uotlab.exact_solver", "minimal_entropy_plan"): "exact_solver.projection_s",
    ("uotlab.asymptotics", "solve_d_star"): "asymptotics.d_star_s",
    ("uotlab.asymptotics", "ode_residual"): "asymptotics.ode_s",
    ("uotlab.asymptotics", "compute_d"): "asymptotics.self_s",
    ("uotlab.asymptotics", "e0_diagnostics"): "asymptotics.self_s",
    ("uotlab.asymptotics", "xi_dot_log_grid"): "asymptotics.self_s",
    ("uotlab.asymptotics", "fit_rate"): "asymptotics.self_s",
    ("uotlab.asymptotics", "fit_linear_decay"): "asymptotics.self_s",
    ("uotlab.sweep", "run_sweep"): "sweep.self_s",
}
# dense factor/solve calls; timed as reg_solver.factor_s when a regularized
# solve makes them, counted as barrier or polish steps inside solve_exact
LINALG = ("cho_factor", "cho_solve", "lstsq")

CALL_COUNTS = {
    "solve_dual_t": "reg_solver.solves",
    "kantorovich_eval": "reg_solver.eval_calls",
    "kantorovich_grad": "reg_solver.grad_calls",
    "kantorovich_hess": "reg_solver.hess_calls",
    "solve_exact": "exact_solver.solves",
    "minimal_entropy_plan": "exact_solver.projection_calls",
    "ode_residual": "asymptotics.ode_calls",
}

ROOT_BUCKET = "bench.unattributed_s"


class _Frame:
    __slots__ = ("bucket", "name", "start", "child", "cold", "solves")

    def __init__(self, bucket, name, cold):
        self.bucket = bucket
        self.name = name
        self.start = time.perf_counter()
        self.child = 0.0
        self.cold = cold
        self.solves = 0


class Tracer:
    """Span stack plus per-bucket self times and counters for one pass."""

    def __init__(self):
        self.stack = []
        self.self_s = Counter()
        self.counts = Counter()
        self.extra_s = Counter()
        self.failures = []  # (function, exception type, message prefix)
        self._patches = []

    # -- spans ---------------------------------------------------------
    def _push(self, bucket, name):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(bucket, name, parent.cold if parent else False)
        self.stack.append(frame)
        return frame

    def _pop(self, frame):
        dur = time.perf_counter() - frame.start
        self.stack.pop()
        self.self_s[frame.bucket] += dur - frame.child
        if self.stack:
            self.stack[-1].child += dur
        return dur

    def op_span(self):
        """Context manager for the root span of one op."""
        return _RootSpan(self)

    def reset(self):
        self.self_s.clear()
        self.counts.clear()
        self.extra_s.clear()
        self.failures.clear()

    def inside(self, name):
        return any(f.name == name for f in self.stack)

    # -- wrappers ------------------------------------------------------
    def _wrap(self, name, bucket, fn):
        tracer = self
        count_key = CALL_COUNTS.get(name)

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            nested_exact = tracer.inside("solve_exact")
            frame = tracer._push(bucket, name)
            if name == "solve_dual_t" and parent is not None and parent.name == "run_sweep":
                parent.solves += 1
                init = kwargs.get("init", args[3] if len(args) > 3 else None)
                # run_sweep's last call is a cold solve at t_max, made only
                # to compare iteration counts with the warm-started sweep
                frame.cold = init is None and parent.solves > 1
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._on_error(name, exc, nested_exact)
                raise
            finally:
                dur = tracer._pop(frame)
                if count_key:
                    tracer.counts[count_key] += 1
                if name == "solve_dual_t" and frame.cold:
                    tracer.extra_s["sweep.cold_check_s"] += dur
            tracer._on_result(name, result, frame)
            return result

        return wrapper

    def _wrap_linalg(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            top = tracer.stack[-1] if tracer.stack else None
            if top is None or not top.bucket.startswith("reg_solver"):
                if tracer.inside("solve_exact"):
                    key = "lstsq_calls" if name == "lstsq" else "factor_calls"
                    if name != "cho_solve":
                        tracer.counts["exact_solver." + key] += 1
                return fn(*args, **kwargs)
            frame = tracer._push("reg_solver.factor_s", name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
                if name == "cho_factor":
                    n = args[0].shape[0]
                    tracer.counts["reg_solver.factor_calls"] += 1
                    tracer.extra_s["reg_solver.factor_gflop_computed"] += n ** 3 / 3e9

        return wrapper

    def _on_result(self, name, result, frame):
        if name == "_newton_solve":
            self.counts["reg_solver.newton_iters"] += result.iters
            self.counts["reg_solver.nonconverged"] += not result.converged
            self.counts["reg_solver.ridge"] += "ridge" in result.flags
            if frame.cold:
                self.counts["sweep.cold_check_iters"] += result.iters
        elif name == "solve_exact":
            self.counts["exact_solver.polish_failed"] += "polish-failed" in result.flags

    def _on_error(self, name, exc, nested_exact):
        if name == "solve_d_star":
            self.counts["asymptotics.d_star_failures"] += 1
        elif name in ("solve_exact", "minimal_entropy_plan") and not nested_exact:
            self.counts["exact_solver.failures"] += 1
        else:
            return
        self.failures.append((name, type(exc).__name__, str(exc)[:60]))

    # -- installation --------------------------------------------------
    def install(self):
        """Replace every binding of the traced functions in uotlab's modules."""
        if self._patches:
            return
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "uotlab" or n.startswith("uotlab."))]
        for (modname, name), bucket in SPANS.items():
            original = getattr(sys.modules[modname], name)
            self._patch_everywhere(modules, original, self._wrap(name, bucket, original))
        for name in LINALG:
            original = getattr(scipy.linalg, name)
            self._patches.append((scipy.linalg, name, original))
            setattr(scipy.linalg, name, self._wrap_linalg(name, original))

    def _patch_everywhere(self, modules, original, wrapper):
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()


class _RootSpan:
    def __init__(self, tracer):
        self.tracer = tracer

    def __enter__(self):
        self.frame = self.tracer._push(ROOT_BUCKET, "op")
        return self

    def __exit__(self, *exc):
        self.tracer._pop(self.frame)
        return False
