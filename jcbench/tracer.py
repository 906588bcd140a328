"""Outside-in span tracing of jcdiss for the benchmark's traced mode.

Tracer.install() replaces call sites with timing wrappers. Every site is
one the program looks up at call time (a module global, a class
attribute or an OBSERVABLES entry), so the wrapper sees every call. A
site that no longer exists is recorded as missing and the metrics that
depend on it are reported as null; installation never fails.

A span records its name, start, end, parent span, thread and command.
Spans stay in memory and are written out once, by dump(). A span opened
on a thread with no open span (a _fan_out worker) takes the command's
root span as its parent. layer_metrics() turns a dump into the per-layer
metrics: every "_s" metric is self time, the span's duration minus the
union of the intervals its child spans cover, summed over spans.
"""

import importlib
import json
import os
import threading
import time

# span name -> call sites (owner, attribute); owner is "module" or "module:Class"
SITES = {
    "lindblad.build": [("jcdiss.cli", "build_liouvillian")],
    "propagate.evolve": [("jcdiss.cli", "evolve")],
    "propagate.steady": [("jcdiss.cli", "steady_state")],
    "propagate.analytic": [
        ("jcdiss.cli", "analytic_microscopic"),
        ("jcdiss.cli", "analytic_phenomenological"),
    ],
    "propagate.trace_distance": [("jcdiss.cli", "trace_distance")],
    "observables.husimi": [("jcdiss.cli", "husimi_q")],
    "cli.write": [("jcdiss.cli", "_write_csv"), ("jcdiss.cli", "_write_json")],
    "cli.audit": [("jcdiss.cli:_StateAudit", "inspect")],
    "propagate.decompose": [("jcdiss.propagate", "spectral_decomposition")],
    "propagate.propagate_vec": [("jcdiss.propagate:SpectralDecomposition", "propagate_vec")],
    "kernels.rk4": [("jcdiss._kernels", "rk4_advance")],
}

# observables the workloads write; each gets observables.<name>_s and _calls
OBSERVABLE_NAMES = (
    "ground_population", "inversion", "mean_photon", "purity",
    "field_entropy", "concurrence", "q_var", "p_var",
)

ROOT = "cli.main"


def _resolve(owner):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = {"dim_super": 0, "states": 0, "blocks": 0,
                         "largest_block": 0, "rk4_steps": 0, "write_bytes": 0}
        self.missing = []
        self.broken = set()
        self._local = threading.local()
        self._root = None
        self._command = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        span = [name, time.perf_counter(), None, parent,
                threading.get_ident(), self._command]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._local.stack.pop()

    def command(self):
        """Open the root span of one jcdiss.cli.main call."""
        self._command += 1
        self._root = self._open(ROOT)
        return self._root

    def end_command(self, span):
        self._close(span)
        self._root = None

    def _wrap(self, name, fn, count=None):
        tracer = self
        probe = _BEFORE.get(name)

        def wrapper(*args, **kwargs):
            before = probe(args) if probe else None
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if count:
                try:
                    count(tracer.counters, args, result, before)
                except (AttributeError, IndexError, TypeError, ValueError, OSError):
                    tracer.broken.add(name)
            return result

        return wrapper

    def install(self):
        for name, sites in SITES.items():
            for owner, attr in sites:
                try:
                    target = _resolve(owner)
                    fn = getattr(target, attr)
                except (ImportError, AttributeError):
                    self.missing.append(name)
                    continue
                setattr(target, attr, self._wrap(name, fn, _COUNTS.get(name)))
        try:
            table = _resolve("jcdiss.observables").OBSERVABLES
        except (ImportError, AttributeError):
            table = {}
        for obs in OBSERVABLE_NAMES:
            if obs in table:
                table[obs] = self._wrap(f"observables.{obs}", table[obs])
            else:
                self.missing.append(f"observables.{obs}")

    def dump(self, path):
        index = {id(span): i for i, span in enumerate(self.spans)}
        rows = [[name, start, end, index[id(parent)] if parent else None, thread, cmd]
                for name, start, end, parent, thread, cmd in self.spans]
        payload = {"spans": rows, "counters": self.counters,
                   "missing": sorted(set(self.missing)),
                   "broken": sorted(self.broken),
                   "main_thread": threading.main_thread().ident}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


# -- counters taken at the wrapped call sites ------------------------------


def _count_build(counters, args, result, before):
    counters["dim_super"] = max(counters["dim_super"], result.dim_super)


def _count_evolve(counters, args, result, before):
    counters["states"] += len(result.times)


def _count_decompose(counters, args, result, before):
    if before:
        sizes = [block[0].size for block in result.blocks]
        counters["blocks"] += len(sizes)
        counters["largest_block"] = max(counters["largest_block"], max(sizes))


def _count_rk4(counters, args, result, before):
    counters["rk4_steps"] += int(args[3])


def _count_write(counters, args, result, before):
    counters["write_bytes"] += os.path.getsize(args[0])


_COUNTS = {
    "lindblad.build": _count_build,
    "propagate.evolve": _count_evolve,
    "propagate.decompose": _count_decompose,
    "kernels.rk4": _count_rk4,
    "cli.write": _count_write,
}

# the decomposition is cached on the Liouvillian: count blocks on misses only
_BEFORE = {
    "propagate.decompose": lambda args: getattr(args[0], "_decomp", None) is None,
}


# -- aggregation -----------------------------------------------------------


def _covered(interval, children):
    """Length of the union of the child intervals inside interval."""
    lo, hi = interval
    total = 0.0
    cur_lo = cur_hi = None
    for c_lo, c_hi in sorted(children):
        c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
        if c_hi <= c_lo:
            continue
        if cur_hi is None or c_lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = c_lo, c_hi
        else:
            cur_hi = max(cur_hi, c_hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# per-layer metric -> (span name or counter, kind); kind is "self", "calls"
# or "counter"
LAYER_METRICS = {
    "cli.audit_s": ("cli.audit", "self"),
    "cli.write_s": ("cli.write", "self"),
    "cli.write_bytes": ("write_bytes", "counter"),
    "cli.other_s": (ROOT, "self"),
    "propagate.evolve_self_s": ("propagate.evolve", "self"),
    "propagate.propagate_vec_s": ("propagate.propagate_vec", "self"),
    "propagate.states": ("states", "counter"),
    "propagate.decompose_s": ("propagate.decompose", "self"),
    "propagate.blocks": ("blocks", "counter"),
    "propagate.largest_block": ("largest_block", "counter"),
    "propagate.steady_s": ("propagate.steady", "self"),
    "propagate.analytic_s": ("propagate.analytic", "self"),
    "propagate.trace_distance_s": ("propagate.trace_distance", "self"),
    "lindblad.build_s": ("lindblad.build", "self"),
    "lindblad.builds": ("lindblad.build", "calls"),
    "lindblad.dim_super": ("dim_super", "counter"),
    "observables.husimi_s": ("observables.husimi", "self"),
    "kernels.rk4_s": ("kernels.rk4", "self"),
    "kernels.rk4_steps": ("rk4_steps", "counter"),
}
for _obs in OBSERVABLE_NAMES:
    LAYER_METRICS[f"observables.{_obs}_s"] = (f"observables.{_obs}", "self")
    LAYER_METRICS[f"observables.{_obs}_calls"] = (f"observables.{_obs}", "calls")

# counters that need the span named here to be installed
_COUNTER_SITE = {
    "write_bytes": "cli.write",
    "states": "propagate.evolve",
    "blocks": "propagate.decompose",
    "largest_block": "propagate.decompose",
    "dim_super": "lindblad.build",
    "rk4_steps": "kernels.rk4",
}


def layer_metrics(trace):
    """Per-layer metrics of one traced round (see LAYER_METRICS), plus
    cli.workers and trace.self_sum_s; a metric whose site is missing is
    None."""
    spans = trace["spans"]
    children = [[] for _ in spans]
    for name, start, end, parent, thread, cmd in spans:
        if parent is not None:
            children[parent].append((start, end))
    self_time = {}
    calls = {}
    for i, (name, start, end, parent, thread, cmd) in enumerate(spans):
        own = (end - start) - _covered((start, end), children[i])
        self_time[name] = self_time.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1

    missing = set(trace["missing"])
    broken = set(trace["broken"])
    out = {}
    for metric, (source, kind) in LAYER_METRICS.items():
        site = _COUNTER_SITE.get(source, source) if kind == "counter" else source
        if site in missing or (kind == "counter" and site in broken):
            out[metric] = None
        elif kind == "self":
            out[metric] = self_time.get(source, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(source, 0)
        else:
            out[metric] = trace["counters"][source]

    # threads other than the main one that ran spans, per command
    threads = {}
    for name, start, end, parent, thread, cmd in spans:
        if thread != trace["main_thread"]:
            threads.setdefault(cmd, set()).add(thread)
    out["cli.workers"] = max([1] + [len(t) for t in threads.values()])
    out["trace.self_sum_s"] = sum(self_time.values())
    return out
