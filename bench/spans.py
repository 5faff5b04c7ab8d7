"""Span tracing of gupnlse's layers from outside the package.

``Tracer.install`` wraps the functions named in ``TARGETS`` under every
binding that a ``gupnlse`` module holds for them, because callers look a
function up in their own module (``gupnlse.evolution.field_stats`` and
``gupnlse.fields.field_stats`` are separate names for one function).  Each
call inside a pass records a span ``[name, start_ns, end_ns, parent]``; the
spans stay in memory until ``layer_metrics`` reduces them.  A span's self
time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

TARGETS = {
    "stationary.ground_state": ("gupnlse.stationary", "ground_state"),
    "stationary.solve_consistent": ("gupnlse.stationary", "solve_consistent"),
    "fields.fisher_per_dim": ("gupnlse.fields", "fisher_per_dim"),
    "fields.field_stats": ("gupnlse.fields", "field_stats"),
    "fields.abs_curvature_ratio": ("gupnlse.fields", "abs_curvature_ratio"),
    "fields.save_wavefield": ("gupnlse.fields", "save_wavefield"),
    "evolution.evolve": ("gupnlse.evolution", "evolve"),
    "deformation.W_eval": ("gupnlse.deformation", "W_eval"),
    "checks.run_all": ("gupnlse.checks", "run_all"),
    "cli.run": ("gupnlse.cli", "run"),
}
ROOT = "bench.pass"

# counts read off a traced call's result: closure iterations and steps taken
_OBSERVERS = {
    "stationary.solve_consistent": ("stationary.closure_iterations", lambda r: r.iterations),
    "evolution.evolve": ("evolution.steps", lambda r: len(r.times) - 1),
}

# per-pass counts that must repeat exactly between passes and runs
EXACT_COUNTS = (
    "stationary.ground_state.calls",
    "stationary.closure_iterations",
    "fields.fisher_per_step",
    "evolution.steps",
    "cli.output_bytes",
    "cli.files",
)


def _metric_units():
    units = {}
    for name in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "stationary.closure_iterations": "count",
        "stationary.eigensolves_per_solve": "1",
        "stationary.nu_rel_err_max": "1",
        "fields.fisher_per_step": "1",
        "evolution.steps": "count",
        "evolution.self_us_per_step": "us",
        "checks.reports": "count",
        "checks.failed": "count",
        "cli.output_bytes": "bytes",
        "cli.files": "count",
        "trace.wall_s_untraced": "s",
        "trace.wall_s_traced": "s",
        "trace.overhead_s": "s",
        "trace.outside_s": "s",
        "trace.spans_per_pass": "count",
    })
    return units


UNITS = _metric_units()


class Tracer:
    def __init__(self):
        self.spans = []
        self.roots = []
        self.counts = []  # one dict per traced pass
        self._stack = []
        self._saved = []

    def install(self) -> None:
        gup_modules = [m for k, m in list(sys.modules.items())
                       if k == "gupnlse" or k.startswith("gupnlse.")]
        for name, (module, attr) in TARGETS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original)
            for mod in gup_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observer = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a traced pass (e.g. verification)
                return fn(*args, **kwargs)
            span = [name, time.perf_counter_ns(), 0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter_ns()
            if observer is not None:
                key, read = observer
                counts = self.counts[-1]
                counts[key] = counts.get(key, 0) + read(result)
            return result

        return wrapper

    def begin_pass(self) -> None:
        self.roots.append(len(self.spans))
        self.counts.append({})
        self._stack.append(len(self.spans))
        self.spans.append([ROOT, time.perf_counter_ns(), 0, None])

    def end_pass(self) -> None:
        root = self._stack.pop()
        self.spans[root][2] = time.perf_counter_ns()

    def _pass_metrics(self, lo: int, hi: int, counts: dict) -> dict:
        spans = self.spans[lo:hi]
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_ns[parent - lo] += end - start
        out = {f"{name}.{kind}": 0 for name in TARGETS for kind in ("calls", "self_s")}
        for (name, start, end, _), kids in zip(spans, child_ns):
            self_s = (end - start - kids) * 1e-9
            if name == ROOT:
                out["trace.wall_s_traced"] = (end - start) * 1e-9
                out["trace.outside_s"] = self_s
            else:
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += self_s
        out["trace.spans_per_pass"] = len(spans)
        for key in ("stationary.closure_iterations", "evolution.steps", "checks.reports",
                    "checks.failed", "cli.output_bytes", "cli.files",
                    "stationary.nu_rel_err_max"):
            out[key] = counts.get(key, 0)
        solves = out["stationary.solve_consistent.calls"]
        steps = out["evolution.steps"]
        out["stationary.eigensolves_per_solve"] = (
            out["stationary.ground_state.calls"] / solves if solves else 0.0)
        out["fields.fisher_per_step"] = out["fields.fisher_per_dim.calls"] / steps if steps else 0.0
        out["evolution.self_us_per_step"] = (
            out["evolution.evolve.self_s"] / steps * 1e6 if steps else 0.0)
        return out

    def layer_metrics(self, untraced_walls: list):
        """Per-layer metrics averaged over the traced passes, and the list
        of exact counts that differed between passes."""
        bounds = self.roots + [len(self.spans)]
        per_pass = [self._pass_metrics(bounds[i], bounds[i + 1], c)
                    for i, c in enumerate(self.counts)]
        metrics = {k: statistics.fmean(p[k] for p in per_pass) for k in per_pass[0]}
        unsteady = [k for k in EXACT_COUNTS if len({p[k] for p in per_pass}) > 1]
        metrics["trace.wall_s_untraced"] = statistics.fmean(untraced_walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s_traced"] - metrics["trace.wall_s_untraced"]
        return metrics, unsteady
