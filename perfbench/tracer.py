"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public plurigeo functions by timing wrappers at the
name each caller actually looks up: ``flow`` binds ``degree`` from
``grid`` at import, so ``plurigeo.flow.degree`` is wrapped as well as
``plurigeo.grid.degree``; ``flow``, ``statics`` and ``cli`` reach the
pointwise kernels through the module object, so wrapping the attribute of
``plurigeo.hermitian`` covers them and the kernels' calls to each other.

Every wrapped call records a span ``(id, name, start, end, parent)``.
Spans stay in memory and are written out once, at the end of the run.
A call into a layer that is already open on the stack (a writer calling
the atomic text writer, say) is merged into the outer span, so busy time
is never counted twice.  Self time is busy time minus the time of the
child spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager

from plurigeo import cli, families, flow, grid, hermitian, statics

ROOT = "bench.rep"

_KERNELS = (
    "gflow_rhs",
    "chern_curvature",
    "torsion_quadratics",
    "curvature_norm",
    "pluriclosed_residual",
    "hodge_operators",
)

# layer name -> the (owner, attribute) pairs through which callers reach it
SPAN_TARGETS = (
    ("cli", ((cli, "main"),)),
    ("families.jet_at", ((families, "jet_at"), (cli, "jet_at"))),
    ("grid.jets", ((grid.MetricField, "jets"),)),
    ("grid.integrate", ((grid.TorusGrid, "integrate"),)),
    ("grid.degree", ((grid, "degree"), (flow, "degree"), (statics, "degree"))),
    ("grid.io", ((grid, "save_field"), (grid, "load_field"), (cli, "load_field"))),
    *((f"hermitian.{k}", ((hermitian, k),)) for k in _KERNELS),
    ("hermitian.identity_suite", ((hermitian, "identity_suite"),)),
    ("hermitian.random_jet_batch", ((hermitian, "random_jet_batch"),)),
    ("flow.run", ((flow, "run"),)),
    ("flow.step", ((flow, "step"),)),
    ("flow.diagnostics", ((flow, "diagnostics"),)),
    ("flow.cfl_dt", ((flow, "cfl_dt"),)),
    (
        "flow.io",
        (
            (flow, "write_diagnostics_csv"),
            (flow, "write_summary_json"),
            (statics, "write_static_report"),
            (flow, "_atomic_write_text"),
            (cli, "_atomic_write_text"),
        ),
    ),
    ("statics.static_report", ((statics, "static_report"),)),
)

# called too often for a span each; only counted
COUNT_TARGETS = (("hermitian.inverse_metric", ((hermitian, "inverse_metric"),)),)

_LAYERS = {name for name, _ in SPAN_TARGETS + COUNT_TARGETS} | {"trace"}

_HEADER_BYTES = 24  # magic, version and four uint32 dims of a field file


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._open: dict[str, int] = defaultdict(int)
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []
        self._jet_inputs: set[bytes] = set()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        self._open[name] += 1
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open[name] -= 1
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent))

    @contextmanager
    def repetition(self):
        """Trace one repetition of the workload body: the wrappers are
        installed, its span is the root of its calls, and jet inputs are
        deduplicated within it."""
        self._jet_inputs.clear()
        self.install()
        try:
            with self.span(ROOT):
                yield
        finally:
            self.uninstall()

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                result = fn(*args, **kwargs)
            else:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_jets(self, args, result):
        values = args[0].values
        buf = values if values.flags.c_contiguous else values.tobytes()
        digest = hashlib.blake2b(buf, digest_size=16).digest()
        if digest not in self._jet_inputs:
            self._jet_inputs.add(digest)
            self.counts["grid.jets.distinct"] += 1
        jet = result[0]
        self.counts["grid.jets.bytes_computed"] += jet.d1.nbytes + jet.d2m.nbytes + jet.d2h.nbytes

    def _after_field_io(self, args, result):
        field = result if result is not None else args[1]
        self.counts["grid.io.bytes"] += field.values.nbytes + _HEADER_BYTES

    def _after_text_write(self, args, result):
        self.counts["flow.io.bytes"] += len(args[1].encode())

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Replace every target by its wrapper; :meth:`uninstall` restores them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        after = {
            "grid.jets": self._after_jets,
            "grid.io": self._after_field_io,
        }
        for name, sites in SPAN_TARGETS:
            for owner, attr in sites:
                original = owner.__dict__[attr]
                hook = after.get(name)
                if attr == "_atomic_write_text":
                    hook = self._after_text_write
                self._patch(owner, attr, self._wrap(name, original, hook))
        for name, sites in COUNT_TARGETS:
            for owner, attr in sites:
                self._patch(owner, attr, self._counter(name, owner.__dict__[attr]))

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def layer_stats(self) -> dict[str, dict]:
        """Per span name: calls, busy and self seconds, and the durations."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        stats: dict[str, dict] = {}
        for sid, name, start, end, _ in self.spans:
            s = stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["busy_s"] += end - start
            s["self_s"] += end - start - child_time[sid]
            s["durations"].append(end - start)
        return stats

    def coverage(self) -> float:
        """Share of the repetitions' wall time that their direct child spans cover."""
        roots = {sid: end - start for sid, name, start, end, _ in self.spans if name == ROOT}
        covered = sum(end - start for _, _, start, end, parent in self.spans if parent in roots)
        total = sum(roots.values())
        return covered / total if total > 0 else 0.0

    def write(self, path) -> None:
        spans = [
            {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
            for sid, name, start, end, parent in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts)}, fh)


def _p50_ms(durations) -> float:
    return 1e3 * statistics.median(durations) if durations else 0.0


def _p90_ms(durations) -> float:
    # reported only when at least ten samples lie beyond the 90th percentile
    if len(durations) < 100:
        return 0.0
    return 1e3 * statistics.quantiles(durations, n=10)[8]


def per_layer_metrics(
    tracer: Tracer, entries: list[dict], reps: int, traced_run_s: float, untraced_run_s: float
) -> dict[str, dict]:
    """The per-layer metrics named in ``entries`` (BENCHMARK.json's
    ``per_layer``), per repetition, from ``reps`` traced repetitions.

    The layer and the kind of value are read from each name.  A layer the
    workload never calls reads 0; a name this tracer cannot compute raises
    KeyError.
    """
    stats = tracer.layer_stats()
    counts = tracer.counts
    out = {}
    for entry in entries:
        metric, unit = entry["name"], entry["unit"]
        layer, kind = metric.rsplit(".", 1)
        if layer not in _LAYERS:
            raise KeyError(metric)
        s = stats.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        if metric == "trace.run_s":
            value = traced_run_s
        elif metric == "trace.overhead_s":
            value = traced_run_s - untraced_run_s
        elif metric == "trace.coverage":
            value = tracer.coverage()
        elif metric == "grid.jets.useful_frac":
            value = counts["grid.jets.distinct"] / s["calls"] if s["calls"] else 0.0
        elif layer in dict(COUNT_TARGETS):
            value = counts[layer] / reps
        elif kind in ("calls", "busy_s", "self_s"):
            value = s[kind] / reps
        elif kind in ("bytes", "bytes_computed"):
            value = counts[metric] / reps
        elif kind == "p50_ms":
            value = _p50_ms(s["durations"])
        elif kind == "p90_ms":
            value = _p90_ms(s["durations"])
        else:
            raise KeyError(metric)
        out[metric] = {"value": value, "unit": unit}
    return out
