"""In-memory spans around bischro's public functions, and their analysis.

The benchmark never edits library code.  A traced pass instead replaces,
for its duration, every package-exported function in the namespace of
each module that calls it (``bischro.cli.solve_spectrum``,
``bischro.control.gram``, ``bischro.control.evolve_controlled``, ...) and
in the package namespace the benchmark itself calls through.  Each
replacement records one span: name, layer, start, end, the span that
caused it, and a few counts read off the arguments and the result.
Spans stay in memory; the runner writes them out when the run ends.

The layer of a function is the module that defines it; ``bischro.config``
belongs to the ``cli`` layer.  A span's self time is its duration minus
the union of its children's intervals, so children running on the CLI's
worker threads are not counted twice.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field

LAYERS = ("coefficients", "operator", "spectrum", "asymptotics",
          "dynamics", "observability", "control", "cli")

_LAYER_OF_MODULE = {"config": "cli"}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans; parents come from a per-thread stack of open spans.

    A span opened on a worker thread with nothing open on that thread is
    parented to the innermost span open on the main thread, which is the
    call that started the worker.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, layer, fn, hook, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        span = Span(id=next(self._ids), name=name, layer=layer, parent=parent,
                    thread=threading.current_thread().name, start=0.0)
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.end = time.perf_counter()
            span.error = type(exc).__name__
            raise
        else:
            span.end = time.perf_counter()
            if hook is not None:
                hook(span.counts, args, kwargs, result)
            return result
        finally:
            stack.pop()
            self.spans.append(span)


# ---- counts read at the layer boundaries ------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_assemble(counts, args, kwargs, op):
    counts["dof"] = op.n_dof


def _count_solve(counts, args, kwargs, sd):
    n = _arg(args, kwargs, 0, "op").n_dof
    counts["modes"] = sd.count
    # the dense path materializes K and M as n x n float64 arrays
    counts["dense_mb"] = 2 * n * n * 8 / 1e6


def _count_gram(counts, args, kwargs, gs):
    counts["cond"] = gs.condition_estimate


def _count_observability(counts, args, kwargs, rep):
    counts["cond"] = rep.gram_condition


def _count_control(counts, args, kwargs, sol):
    counts["cond"] = sol.gram_condition
    counts["fallback"] = int(sol.method not in ("moment", "hum-cg"))


def _count_evolve(counts, args, kwargs, state):
    f = _arg(args, kwargs, 3, "f")
    if isinstance(f, tuple):
        counts["filon_points"] = len(f[0]) * len(state.coefficients)


HOOKS = {
    "assemble": _count_assemble,
    "solve_spectrum": _count_solve,
    "gram": _count_gram,
    "observability_constants": _count_observability,
    "synthesize_moment_control": _count_control,
    "synthesize_hum_control": _count_control,
    "evolve_controlled": _count_evolve,
}


def _layer(fn):
    module = fn.__module__.rsplit(".", 1)[-1]
    return _LAYER_OF_MODULE.get(module, module)


def install(tracer, bischro):
    """Wrap the package's public functions where they are looked up.

    Returns the list of (namespace, name, original) needed by
    :func:`uninstall`.
    """
    import bischro.cli  # noqa: F401  (the CLI entry point is wrapped too)

    publics = {id(f): (n, f) for n, f in vars(bischro).items()
               if inspect.isfunction(f) and f.__module__.startswith("bischro.")}
    publics[id(bischro.cli.main)] = ("main", bischro.cli.main)
    namespaces = [bischro] + [m for n, m in sorted(vars(bischro).items())
                              if inspect.ismodule(m) and m.__name__.startswith("bischro.")]
    wrapped = {}
    restore = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            entry = publics.get(id(value))
            if entry is None:
                continue
            name, fn = entry
            if ns is not bischro and ns.__name__ == fn.__module__ and name != "main":
                continue  # calls inside the defining module stay inside the layer
            if id(fn) not in wrapped:
                layer = _layer(fn)
                wrapped[id(fn)] = _wrapper(tracer, f"{layer}.{name}", layer, fn, HOOKS.get(name))
            setattr(ns, attr, wrapped[id(fn)])
            restore.append((ns, attr, fn))
    return restore


def _wrapper(tracer, name, layer, fn, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, layer, fn, hook, args, kwargs)
    return traced


def uninstall(restore):
    for ns, attr, fn in reversed(restore):
        setattr(ns, attr, fn)


# ---- analysis ---------------------------------------------------------------

def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.id, ())]
        out[s.id] = (s.end - s.start) - _union_length([k for k in kids if k[1] > k[0]])
    return out


def uncovered(spans, start, end):
    """Part of [start, end] that no root span covers: the benchmark's own time."""
    roots = [(max(s.start, start), min(s.end, end)) for s in spans if s.parent is None]
    return (end - start) - _union_length([r for r in roots if r[1] > r[0]])


def layer_metrics(spans):
    """Per-layer calls, self times and counts of one traced pass."""
    own = self_times(spans)

    def self_of(*names):
        return sum(own[s.id] for s in spans if s.name in names)

    def total(key):
        return sum(s.counts.get(key, 0) for s in spans)

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = sum(1 for s in spans if s.layer == layer)
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    m["operator.dof"] = total("dof")
    m["spectrum.modes"] = total("modes")
    m["spectrum.validate_s"] = self_of("spectrum.validate_spectrum")
    m["spectrum.dense_mb_computed"] = total("dense_mb")
    m["dynamics.filon_s"] = sum(own[s.id] for s in spans if s.counts.get("filon_points"))
    m["dynamics.filon_points"] = total("filon_points")
    m["dynamics.project_s"] = self_of("dynamics.project_initial")
    m["observability.gram_cond_max"] = max(
        (s.counts["cond"] for s in spans if "cond" in s.counts), default=0.0)
    m["control.moment_s"] = self_of("control.moments_for_null", "control.synthesize_moment_control")
    m["control.hum_s"] = self_of("control.synthesize_hum_control", "control.hum_operator")
    m["control.hum_attempts"] = sum(1 for s in spans if s.name == "control.synthesize_hum_control")
    m["control.hum_fallbacks"] = total("fallback")
    m["control.refusals"] = sum(1 for s in spans if s.error == "ConditioningError")
    m["cli.parse_s"] = self_of("cli.parse_config")
    m["cli.calls"] = sum(1 for s in spans if s.name == "cli.main")  # entry-point calls only
    # counted by the workload from the artifacts each call left behind
    m["cli.files_written"] = 0
    m["cli.bytes_written"] = 0
    return m
