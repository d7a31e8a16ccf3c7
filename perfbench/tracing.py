"""Spans around the calls into each hankelscope layer, recorded from here.

The tracer replaces a layer's public function at the name the calling module
binds (for example `hankelscope.cli.eigen_sym`), so calls made inside the
package are seen too. Spans stay in memory; `write` saves them at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# (module that binds the name, name). A layer's function is wrapped at every
# binding its callers use.
WRAPS = (
    ("hankelscope.cli", "main"),
    ("hankelscope.cli", "p_to_q"),
    ("hankelscope.cli", "q_to_p"),
    ("hankelscope.cli", "is_nonnegative_on_reals"),
    ("hankelscope.cli", "build_hankel_matrix"),
    ("hankelscope.cli", "build_a_matrix"),
    ("hankelscope.cli", "eigen_sym"),
    ("hankelscope.cli", "spectral_rules"),
    ("hankelscope.cli", "form_identity_check"),
    ("hankelscope.cli", "delta_spectrum"),
    ("hankelscope.coeff_map", "build_map_matrix"),
    ("hankelscope.coeff_map", "build_gamma_jet"),
    ("hankelscope.discretization", "p_to_q"),
    ("hankelscope.discretization", "is_nonnegative_on_reals"),
    ("hankelscope.discretization", "build_hankel_matrix"),
    ("hankelscope.discretization", "u_map"),
    ("hankelscope.discretization", "f_transform"),
    ("hankelscope.transforms", "u_map"),
    ("hankelscope.delta_spectra", "build_reflection_operator"),
    ("hankelscope.delta_spectra", "dense_eig"),
)

# Span names, as <module>.<function> of the defining module (or of the
# binding module for a function from outside the package).
SPANS = (
    "cli.main", "coeff_map.p_to_q", "coeff_map.q_to_p", "coeff_map.build_map_matrix",
    "special_functions.build_gamma_jet", "polynomials.is_nonnegative_on_reals",
    "discretization.build_hankel_matrix", "discretization.build_a_matrix",
    "discretization.eigen_sym", "discretization.spectral_rules",
    "discretization.form_identity_check", "transforms.u_map", "transforms.f_transform",
    "delta_spectra.delta_spectrum", "delta_spectra.build_reflection_operator",
    "delta_spectra.dense_eig",
)


def _span_name(module: str, attr: str, fn) -> str:
    home = getattr(fn, "__module__", "") or ""
    if home.startswith("hankelscope."):
        return f"{home.split('.', 1)[1]}.{fn.__name__}"
    return f"{module.split('.', 1)[1]}.{attr}"


class Tracer:
    """Records (name, job, parent, start, end, ok) spans and layer counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.missing: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        for module, attr in WRAPS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._patches.append((mod, attr, fn, self._wrap(_span_name(module, attr, fn), fn)))

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.job, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None, False]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
                span[5] = True
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                try:
                    observe(self, args, kwargs, result)
                except (AttributeError, IndexError, TypeError, ValueError):
                    # a changed signature or result must not fail the job
                    self.count(f"{name}.observe_errors", 1)
            return result
        return traced

    def __enter__(self):
        for mod, attr, _, traced in self._patches:
            setattr(mod, attr, traced)
        return self

    def __exit__(self, *exc):
        for mod, attr, fn, _ in self._patches:
            setattr(mod, attr, fn)
        return False

    def layer_metrics(self) -> dict[str, float]:
        """calls, busy_s, self_s and errors per span name; self_s is busy time
        minus the time covered by direct child spans."""
        child = [0.0] * len(self.spans)
        for name, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for name in SPANS:
            for key in ("calls", "busy_s", "self_s", "errors"):
                out[f"{name}.{key}"] = 0.0
        for (name, _, _, t0, t1, ok), inner in zip(self.spans, child):
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0.0) + 1
            out[f"{name}.busy_s"] = out.get(f"{name}.busy_s", 0.0) + (t1 - t0)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (t1 - t0 - inner)
            out[f"{name}.errors"] = out.get(f"{name}.errors", 0.0) + (not ok)
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "job", "parent", "start", "end", "ok"],
                       "spans": self.spans, "counters": self.counters,
                       "missing": self.missing}, fh)


def _sturm(tracer, args, kwargs, cert):
    tracer.count("polynomials.sturm_verdicts", cert.method == "sturm")


def _matrix(tracer, args, kwargs, op):
    tracer.count("discretization.matrix_bytes", op.matrix.nbytes)


def _eigen(tracer, args, kwargs, report):
    tracer.count("discretization.eig_computed", report.eigenvalues.size)


def _delta(tracer, args, kwargs, report):
    kernel, n, n_max = args[:3]
    tracer.count("delta_spectra.trusted", 2 * n_max)
    tracer.count("delta_spectra.computed", n - kernel.order)


_OBSERVERS = {
    "polynomials.is_nonnegative_on_reals": _sturm,
    "discretization.build_hankel_matrix": _matrix,
    "discretization.build_a_matrix": _matrix,
    "discretization.eigen_sym": _eigen,
    "delta_spectra.delta_spectrum": _delta,
}
