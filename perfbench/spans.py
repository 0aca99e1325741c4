"""Span recorder for traced benchmark ops, and the per-layer report built from it.

A traced op runs the normal CLI in a fresh interpreter through
`bootstrap.py`, which wraps chaoscope's public functions (see `_wraps`)
before calling `console_main`.  Each wrapped call records a span: its name, start,
end and the span that was open when it began.  Spans stay in memory until
the process exits and are then written out in one file.  Per-path functions
(`_gillespie_run`, `_fpp_run`) are never wrapped; path and event counts are
derived from the values the wrapped functions return, so tracing does not
distort the samplers.

A layer's self time is its span's duration minus the part of that interval
covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """Collects spans and counters; one per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []       # [name, start, end, parent span or None]
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_span(self) -> str | None:
        """Name of the innermost span open in this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def count(self, name: str, value: float = 1.0):
        self.counts[name] += value

    def maximum(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def wrap(self, name, fn, before=None, after=None):
        """fn wrapped in a span.

        name is a string or name(args, kwargs) -> str.  before(args, kwargs)
        may return replacement (args, kwargs); after(args, kwargs, result)
        records facts derived from the returned value.
        """
        clock, spans = self.clock, self.spans

        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = self._stack()
            span = [name(args, kwargs) if callable(name) else name, clock(), 0.0,
                    stack[-1] if stack else None]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                try:
                    after(args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError, KeyError):
                    self.count("trace.fact_errors")  # the returned value changed shape
            return result

        traced.__wrapped__ = fn
        return traced

    def to_json(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        names = sorted({s[0] for s in self.spans})
        code = {n: i for i, n in enumerate(names)}
        rows = [[code[s[0]], s[1], s[2], -1 if s[3] is None else index[id(s[3])]]
                for s in self.spans]
        return {"names": names, "spans": rows, "counts": dict(self.counts),
                "maxima": dict(self.maxima)}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh)


# ---------------------------------------------------------------------------
# Self time

def self_times(spans) -> list[float]:
    """Self time of every span; spans are (name, start, end, parent index).

    Children of one parent may overlap (threads), so the covered part is the
    union of their intervals, clipped to the parent's.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def summarize(doc: dict) -> dict[str, dict[str, float]]:
    """name -> {"calls", "s" (self seconds), "total" (inclusive seconds)}."""
    names = doc["names"]
    spans = [(names[c], s, e, p) for c, s, e, p in doc["spans"]]
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "total": 0.0})
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = out[name]
        row["calls"] += 1
        row["s"] += own
        row["total"] += end - start
    return out


# ---------------------------------------------------------------------------
# What is wrapped

def _arg(args, kwargs, pos: int, key: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _with_arg(args, kwargs, pos: int, key: str, value):
    if len(args) > pos:
        return args[:pos] + (value,) + args[pos + 1:], kwargs
    return args, dict(kwargs, **{key: value})


def _functional_name(args, kwargs) -> str:
    spec = _arg(args, kwargs, 0, "spec")
    name = spec if isinstance(spec, str) else \
        spec[0] if isinstance(spec, tuple) else "custom"
    return f"percolation.functional_table.{name}"


def _wraps(rec: Recorder):
    """(span name, module, attribute, before, after) for every wrapped function."""

    def chunks(args, kwargs, result):
        rec.count("rng.run_chunked.chunks", len(result))

    def paths(args, kwargs, masks):
        from chaoscope.matrix import SubsetState
        model = _arg(args, kwargs, 0, "model")
        start = SubsetState.of(_arg(args, kwargs, 1, "v"), model.n).size
        masks = np.asarray(masks, dtype=np.int64)
        rec.count("percolation.paths", masks.size)
        rec.count("percolation.jump_events",
                  int(np.bitwise_count(masks).sum()) - masks.size * start)

    def curve(args, kwargs, result):
        rec.count("percolation.kernel_steps", result.coeffs.shape[0] - 1)
        rec.maximum("percolation.states", result.coeffs.shape[1])

    def kmax(args, kwargs, result):
        rec.maximum("linalg.poisson_truncation.kmax", result)

    def count_evals(args, kwargs):
        f = _arg(args, kwargs, 0, "f")

        def integrand(x):
            rec.count("linalg.simpson.evals")
            return f(x)
        return _with_arg(args, kwargs, 0, "f", integrand)

    def owned_work(args, kwargs):
        # chunk work belongs to the layer that called run_chunked, not to rng
        owner = rec.open_span() or "rng.run_chunked.work"
        return _with_arg(args, kwargs, 0, "work",
                         rec.wrap(owner, _arg(args, kwargs, 0, "work")))

    def order(args, kwargs, result):
        rec.maximum("gaussian.series_order", result.series_order)

    def noise_bytes(args, kwargs, result):
        xi, drift, cfg = (_arg(args, kwargs, i, k) for i, k in
                          enumerate(("xi", "drift", "cfg")))
        rec.count("sde.noise_bytes_computed", cfg.samples * cfg.steps * xi.n * drift.d * 8)

    def masks_name(args, kwargs):
        return "percolation.terminal_masks." + _arg(args, kwargs, 5, "method", "gillespie")

    return [
        ("rng.stream", "rng", "stream", None, None),
        ("rng.run_chunked", "rng", "run_chunked", owned_work, chunks),
        (masks_name, "percolation", "terminal_masks", None, paths),
        ("percolation.expectation_curve", "percolation", "expectation_curve", None, curve),
        (_functional_name, "percolation", "functional_table", None, None),
        ("percolation.generator_apply", "percolation", "generator_apply", None, None),
        ("percolation.expectation_bound_all", "percolation", "expectation_bound_all", None, None),
        ("linalg.expm_action", "linalg", "expm_action", None, None),
        ("linalg.simpson_adaptive", "linalg", "simpson_adaptive", count_evals, None),
        ("linalg.op_norm", "linalg", "op_norm", None, None),
        ("linalg.poisson_truncation", "linalg", "poisson_truncation", None, kmax),
        ("gaussian.sigma_T", "gaussian", "sigma_T", None, order),
        ("gaussian.sigma_T_quadrature", "gaussian", "sigma_T_quadrature", None, None),
        ("gaussian.d_T", "gaussian", "d_T", None, None),
        ("gaussian.d_T_quadrature", "gaussian", "d_T_quadrature", None, None),
        ("gaussian.avg_entropy_sandwich", "gaussian", "avg_entropy_sandwich", None, None),
        # the batched subset-eigenvalue layer, while verify keeps it
        ("gaussian.subset_tables", "verify", "_entropy_table", None, None),
        ("bounds.percolation_entropy_bound", "bounds", "percolation_entropy_bound", None, None),
        ("bounds.percolation_entropy_bound_all", "bounds", "percolation_entropy_bound_all",
         None, None),
        ("bounds.structural", "bounds", "max_entropy_bound", None, None),
        ("bounds.structural", "bounds", "avg_entropy_bound", None, None),
        ("bounds.structural", "bounds", "sharper_avg_bound", None, None),
        ("bounds.structural", "bounds", "weighted_avg_bound", None, None),
        ("sde.simulate_particles", "sde", "simulate_particles", None, noise_bytes),
        ("sde.noise", "sde", "_draw_noise", None, None),
        ("sde.step", "sde", "_step_block", None, None),
        ("matrix.C_of_v", "matrix", "C_of_v", None, None),
        ("matrix.load_matrix", "matrix", "load_matrix", None, None),
        ("verify.generator_suite", "verify", "generator_suite", None, None),
        ("verify.expectations_suite", "verify", "expectations_suite", None, None),
        ("verify.gaussian_suite", "verify", "gaussian_suite", None, None),
        ("verify.bounds_suite", "verify", "bounds_suite", None, None),
    ]


def install(rec: Recorder, package: str = "chaoscope") -> list[str]:
    """Wrap every function in WRAPS wherever the package binds it.

    The defining module's attribute is replaced, and so is every other
    module global, or value in a module-level dict, that is the same
    function object (direct imports such as `percolation.stream`, and
    dispatch tables such as `verify._SUITE_FN`).  A function that no longer
    exists is skipped, so its spans record zero.  Returns what was skipped.
    """
    import importlib
    importlib.import_module(f"{package}.cli")
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    skipped = []
    for name, mod_name, attr, before, after in _wraps(rec):
        home = sys.modules.get(f"{package}.{mod_name}")
        original = getattr(home, attr, None)
        if original is None:
            skipped.append(f"{mod_name}.{attr}")
            continue
        traced = rec.wrap(name, original, before, after)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, traced)
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if v is original:
                            val[k] = traced
    return skipped
