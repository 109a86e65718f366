"""Tracing of cdfreg's public functions from outside the package.

The tracer never edits the package's files. It replaces a function by a timing
wrapper in every cdfreg module namespace that binds it, so calls made
through ``cdfreg.engine.regress`` or ``cdfreg.regression.project_to_C``
land in the wrapper, and it gives timed copies of the frozen ``CdfBasis``
and ``UtilityFunctional`` through ``dataclasses.replace``. Spans (name,
start, end, parent) are kept in memory and written out once, after the
measurement.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from collections import Counter

import numpy as np

# (defining module, attribute, span name). Span names follow the layer the
# call belongs to; design_operator is named for its caller, the oracle.
TRACED_FUNCTIONS = (
    ("numerics", "sym_eig", "numerics.sym_eig"),
    ("operators", "point_kernel", "operators.point_kernel"),
    ("operators", "spectral_decompose", "operators.spectral_decompose"),
    ("operators", "design_operator", "regression.design_operator"),
    ("regression", "regress", "regression.regress"),
    ("regression", "empirical_target", "regression.empirical_target"),
    ("regression", "pseudo_inverse_apply", "regression.pseudo_inverse_apply"),
    ("regression", "project_to_C", "regression.project_to_C"),
    ("regression", "loss", "regression.loss"),
    ("environments", "sample_context", "environments.sample_context"),
    ("environments", "sample_outcomes", "environments.sample_outcomes"),
    ("engine", "igw_distribution", "engine.igw_distribution"),
    ("engine", "run_episode", "engine.run_episode"),
    ("harness", "resolve_gamma", "harness.resolve_gamma"),
    ("harness", "generate_dataset", "harness.generate_dataset"),
)
BASIS_SPAN = "operators.basis_eval"
FUNCTIONAL_SPAN = "functionals.eval"
SPAN_NAMES = tuple(n for _, _, n in TRACED_FUNCTIONS) + (BASIS_SPAN, FUNCTIONAL_SPAN)


def _observe_projection(estimate):
    diag = estimate.diagnostics
    return {"iterations": diag.projection_iterations, "converged": int(diag.converged)}


OBSERVERS = {"regression.project_to_C": _observe_projection}


class Tracer:
    """Span recorder with install/uninstall of module-level wrappers."""

    def __init__(self, package):
        self.package = package
        self.names = list(SPAN_NAMES)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.spans: list = []  # (name id, start, end, parent index)
        self.counters: Counter = Counter()
        self._stack: list = []
        self._restore: list = []

    def wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        name_id = self._ids[name]
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx] = (name_id, start, clock(), parent)
                stack.pop()
            if observe is not None:
                for key, value in observe(result).items():
                    counters[name + "." + key] += value
            return result

        return traced

    def install(self):
        """Bind a wrapper wherever a cdfreg module binds a traced function."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [self.package] + [getattr(self.package, m) for m in
                                    sorted({m for m, _, _ in TRACED_FUNCTIONS})]
        for module_name, attr, span in TRACED_FUNCTIONS:
            original = getattr(getattr(self.package, module_name), attr)
            wrapper = self.wrap(span, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def environment(self, env):
        basis = dataclasses.replace(
            env.basis, eval_matrix=self.wrap(BASIS_SPAN, env.basis.eval_matrix))
        return dataclasses.replace(env, basis=basis)

    def functional(self, fn):
        return dataclasses.replace(fn, evaluator=self.wrap(FUNCTIONAL_SPAN, fn.evaluator))

    def mark(self):
        """Phase boundary (set-up, passes): the span count and a copy of the
        counters."""
        if self._stack:
            raise RuntimeError("phase boundary inside an open span")
        return len(self.spans), Counter(self.counters)

    @staticmethod
    def counters_between(a, b) -> Counter:
        return b[1] - a[1]

    def layer_totals(self, a, b) -> dict:
        """Calls and self time per span name between two marks.

        Self time is a span's duration minus the time its direct children
        cover; children of a span always lie in the same phase.
        """
        lo, hi = a[0], b[0]
        rows = self.spans[lo:hi]
        totals = {n: {"calls": 0, "self_s": 0.0} for n in self.names}
        if not rows:
            return totals
        arr = np.array(rows, dtype=float)
        name_id = arr[:, 0].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        parent = arr[:, 3].astype(int) - lo
        child = np.zeros(len(rows))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        for i, n in enumerate(self.names):
            totals[n] = {"calls": int(calls[i]), "self_s": float(self_s[i])}
        return totals

    def write_spans(self, path):
        """CSV of every span: name, start and end in seconds from the first
        span, and the row index of the parent span (-1 at the top)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            names = self.names
            for name_id, start, end, parent in self.spans:
                fh.write("%s,%.9f,%.9f,%d\n" % (names[name_id], start - t0, end - t0, parent))

