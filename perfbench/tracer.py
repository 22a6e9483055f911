"""Outside-in tracer: spans around vnlab's layer-boundary functions.

Each target is a (module, attribute) pair naming the place where a caller
looks the function up, e.g. ``vnlab.bounds.check_row_condition`` for the
call inside ``lower_bound_D``.  The tracer replaces that binding with a
wrapper that records one span per call (name, start, end, parent span,
thread) plus optional counts taken from the call's arguments and return
value, and restores the original on ``uninstall``.  A target that no longer
exists is listed in ``absent`` instead of failing the run.

Spans stay in memory until ``write`` dumps them.  A span opened on a thread
with no open span of its own (a sweep pool worker) takes as parent the
innermost span open on the thread that installed the tracer, so cells run
by the pool still nest under the sweep that submitted them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time


def _count_power_iteration(args, kwargs, result, counts):
    counts["iterations"] = result.iterations
    counts["unconverged"] = 0 if result.converged else 1


def _count_build_tuple(args, kwargs, result, counts):
    counts["dimension"] = result.basis.dimension


def _count_estimate_norm(args, kwargs, result, counts):
    counts["iterations"] = result.iterations
    counts["restarts"] = result.restarts
    counts["converged_restarts"] = result.converged_restarts


def _count_eval(args, kwargs, result, counts):
    coef, _idx, points = args[:3]
    counts["points"] = points.shape[0]
    counts["term_points"] = points.shape[0] * coef.shape[0]


def _count_blocks(args, kwargs, result, counts):
    counts["blocks"] = result.cardinality


def _count_terms(args, kwargs, result, counts):
    counts["terms"] = result.term_count


def _count_bytes(args, kwargs, result, counts):
    counts["bytes"] = len(result.encode("utf-8"))


# (module, attribute path, span name, counter); several bindings of one
# function share a span name so its calls aggregate whoever makes them.
TARGETS = (
    ("vnlab.bounds", "scaling_sweep", "bounds.scaling_sweep", None),
    ("vnlab.bounds", "lower_bound_D", "bounds.cell", None),
    ("vnlab.bounds", "lower_bound_C", "bounds.cell", None),
    ("vnlab.bounds", "greedy_generate", "steiner.greedy_generate", _count_blocks),
    ("vnlab.steiner", "greedy_generate", "steiner.greedy_generate", _count_blocks),
    (
        "vnlab.bounds",
        "random_steiner_polynomial",
        "polynomials.random_steiner_polynomial",
        _count_terms,
    ),
    ("vnlab.bounds", "flattening_upper_bound", "norms.flattening_upper_bound", None),
    ("vnlab.norms", "flattening_upper_bound", "norms.flattening_upper_bound", None),
    ("vnlab.bounds", "estimate_norm", "norms.estimate_norm", _count_estimate_norm),
    ("vnlab.rademacher", "estimate_norm", "norms.estimate_norm", _count_estimate_norm),
    ("vnlab.bounds", "build_tuple", "dixon.build_tuple", _count_build_tuple),
    ("vnlab.bounds", "check_commuting", "dixon.check_commuting", None),
    ("vnlab.bounds", "operator_norms", "dixon.operator_norms", None),
    ("vnlab.bounds", "pte_coefficient", "dixon.pte_coefficient", None),
    ("vnlab.bounds", "check_row_condition", "dixon.check_row_condition", None),
    ("vnlab.bounds", "polynomial_operator", "dixon.polynomial_operator", None),
    ("vnlab.bounds", "operator_norm", "dixon.operator_norm", None),
    ("vnlab.dixon", "operator_norm", "dixon.operator_norm", None),
    ("vnlab.dixon", "power_iteration", "dixon.power_iteration", _count_power_iteration),
    ("vnlab.kernels", "poly_eval_batch", "kernels.poly_eval_batch", _count_eval),
    ("vnlab.kernels", "poly_eval_grad_batch", "kernels.poly_eval_grad_batch", _count_eval),
    ("vnlab.rademacher", "sample_sup", "rademacher.sample_sup", None),
    ("vnlab.rademacher", "lipschitz_check", "rademacher.lipschitz_check", None),
    ("vnlab.rademacher", "mc_increment_std", "rademacher.mc_increment_std", None),
    ("vnlab.rademacher", "psi2_norm_mc", "rademacher.psi2_norm_mc", None),
    ("vnlab.report", "ExperimentReport.to_json", "report.serialize", _count_bytes),
)


class Span:
    __slots__ = ("id", "parent", "thread", "name", "start", "end", "error", "counts")

    def __init__(self, id, parent, thread, name):
        self.id = id
        self.parent = parent
        self.thread = thread
        self.name = name
        self.start = self.end = 0.0
        self.error = None
        self.counts = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "thread": self.thread,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "error": self.error,
            "counts": self.counts,
        }


def _resolve(module_name: str, attr_path: str):
    """(owner object, attribute name) for a dotted attribute of a module."""
    owner = importlib.import_module(module_name)
    *parents, leaf = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    getattr(owner, leaf)  # AttributeError marks the target absent
    return owner, leaf


class Tracer:
    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans = []
        self.absent = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = None
        self._patched = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            else:
                main = self._main_stack
                parent = main[-1].id if main else None
            span = Span(next(self._ids), parent, threading.get_ident(), name)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                try:
                    counter(args, kwargs, result, span.counts)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # a later signature the counter does not know: keep the span
                    span.counts["uncounted"] = 1
            return result

        return traced

    def install(self):
        self._main_stack = self._stack()
        for module_name, attr_path, name, counter in self.targets:
            try:
                owner, leaf = _resolve(module_name, attr_path)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr_path}")
                continue
            original = getattr(owner, leaf)
            setattr(owner, leaf, self._wrap(original, name, counter))
            self._patched.append((owner, leaf, original))
        return self

    def uninstall(self):
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"absent": self.absent, "spans": [s.to_json() for s in self.spans]},
                fh,
                separators=(",", ":"),
            )


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s.id)
        if not kids:
            out[s.id] = s.duration
            continue
        clipped = [
            (max(k.start, s.start), min(k.end, s.end))
            for k in kids
            if k.end > s.start and k.start < s.end
        ]
        out[s.id] = max(s.duration - _covered(clipped), 0.0)
    return out


class SpanStats:
    """Per-name aggregates over a list of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        selfs = self_times(self.spans)
        self._by_name = {}
        for s in self.spans:
            agg = self._by_name.setdefault(
                s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": 0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_s"] += s.duration
            agg["self_s"] += selfs[s.id]
            agg["errors"] += s.error is not None
            for key, value in s.counts.items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value

    def calls(self, name) -> int:
        return self._by_name.get(name, {}).get("calls", 0)

    def total_s(self, name) -> float:
        return self._by_name.get(name, {}).get("total_s", 0.0)

    def self_s(self, name) -> float:
        return self._by_name.get(name, {}).get("self_s", 0.0)

    def errors(self, name) -> int:
        return self._by_name.get(name, {}).get("errors", 0)

    def count(self, name, key):
        return self._by_name.get(name, {}).get("counts", {}).get(key, 0)

    def durations(self, name) -> list:
        return [s.duration for s in self.spans if s.name == name]
