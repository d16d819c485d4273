"""Span tracing for the benchmark's traced run.

A ``Tracer`` replaces public functions of ``admmlsmr`` at the module (or
class) attributes they are called through with wrappers that record one span
per call: name, thread, start, end, the span that caused it, and a few counts
read from the call's arguments.  Nothing inside the package changes, and
``Tracer.installed()`` puts every original attribute back when it exits.

Self time is apportioned by wall clock, not summed over threads: at every
instant inside a root span, the spans that are running and not covered by a
running child of their own share that instant equally.  The self times of a
span tree therefore add up to the root's wall time at any worker count, by
construction.  What can still go wrong is the grouping of spans into
published metrics, which ``partition_errors`` checks.
"""
from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from dataclasses import dataclass
from typing import Callable

from admmlsmr import admm, data, lsmr, matrix
from admmlsmr.fixedpoint import RoundingMode


class Span:
    """One timed call: ``name`` is ``"<layer>.<function>"``."""

    __slots__ = ("name", "thread", "parent", "start", "end", "attrs")

    def __init__(self, name: str, parent: "Span | None", attrs: dict | None) -> None:
        self.name = name
        self.thread = threading.get_ident()
        self.parent = parent
        self.attrs = attrs if attrs is not None else {}
        self.start = 0.0
        self.end = 0.0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# A probe reads counts from a call's arguments into the span before the call;
# it may return a function that sees (and may replace) the call's result.
Probe = Callable[[Span, tuple, dict], "Callable[[object], object] | None"]


@dataclass(frozen=True)
class Target:
    """A function to wrap: ``owner.attr`` is where callers look it up."""

    owner: object
    attr: str
    name: str
    probe: Probe | None = None


class Tracer:
    """Records spans from wrapped functions; parents follow the call stack.

    A span opened on a thread with no open span of its own (a pool worker)
    takes as parent the innermost open span of the thread that installed the
    tracer, which is the span waiting for that work.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack: list[Span] | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def claim_root_thread(self) -> None:
        """Make the calling thread the one whose open spans adopt workers' spans."""
        self._root_stack = self._stack()

    def open(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._root_stack:
            parent = self._root_stack[-1]
        else:
            parent = None
        span = Span(name, parent, attrs)
        self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        stack.pop()

    def wrap(self, fn: Callable, name: str, probe: Probe | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                after = probe(span, args, kwargs) if probe is not None else None
                result = fn(*args, **kwargs)
                return after(result) if after is not None else result
            finally:
                tracer.close(span)

        return traced

    @contextlib.contextmanager
    def installed(self, targets: "list[Target] | None" = None):
        """Wrap every target for the duration of the block, then restore."""
        targets = default_targets(self) if targets is None else targets
        saved: list[tuple[object, str, object]] = []
        self.claim_root_thread()
        try:
            for t in targets:
                original = t.owner.__dict__[t.attr]
                saved.append((t.owner, t.attr, original))
                setattr(t.owner, t.attr, self.wrap(original, t.name, t.probe))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _arg(args: tuple, kwargs: dict, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


# -- probes: counts read from the arguments of each wrapped call ---------------

def _probe_lsmr_multi(span: Span, args: tuple, kwargs: dict):
    job = _arg(args, kwargs, 0, "job")
    span.attrs["columns"] = job.col_count
    span.attrs["column_iters"] = job.col_count * job.iter_count
    return None


def _probe_mac(span: Span, args: tuple, kwargs: dict):
    a = _arg(args, kwargs, 0, "a")
    b = _arg(args, kwargs, 1, "b")
    span.attrs["macs"] = a.shape[0] * a.shape[1] * b.shape[1]
    return None


def _cast_probe(stats_pos: int, stochastic: bool):
    def probe(span: Span, args: tuple, kwargs: dict):
        t = _arg(args, kwargs, 0, "t")
        stats = _arg(args, kwargs, stats_pos, "stats")
        span.attrs["cells"] = t.size
        if stochastic and _arg(args, kwargs, 2, "mode") is RoundingMode.STOCHASTIC:
            span.attrs["stochastic"] = True
            if _arg(args, kwargs, 4, "col_rngs") is not None:
                span.attrs["stream_draws"] = t.size
        if stats is None:
            return None
        before = stats.events

        def after(result):
            span.attrs["saturation"] = stats.events - before
            return result

        return after

    return probe


def _chunk_probe(tracer: Tracer) -> Probe:
    """Wrap the chunk tasks ``SolveEngine.prepare`` returns in spans.

    Activation solves use the square system (gamma I + beta W^T W); weight
    solves use the tall samples-by-features data matrix.
    """

    def probe(span: Span, args: tuple, kwargs: dict):
        a = _arg(args, kwargs, 1, "a")
        kind = "activation" if a.shape[0] == a.shape[1] else "weight"

        def chunk_span(task):
            def chunk():
                s = tracer.open("admm.chunk", {"kind": kind})
                try:
                    return task()
                finally:
                    tracer.close(s)

            return chunk

        def after(result):
            tasks, collect, finish, seconds = result
            return [chunk_span(t) for t in tasks], collect, finish, seconds

        return after

    return probe


def default_targets(tracer: Tracer) -> list[Target]:
    """Every traced boundary, keyed by the attribute its caller looks up."""
    cast = _cast_probe(5, stochastic=True)
    cast_simple = _cast_probe(2, stochastic=False)
    return [
        Target(data, "load_csv", "data.load_csv"),
        Target(data, "synthetic_blobs", "data.synthetic_blobs"),
        Target(data, "split", "data.split"),
        Target(data, "standardize", "data.standardize"),
        Target(admm, "train", "admm.train"),
        Target(admm.SolveEngine, "prepare", "admm.prepare", _chunk_probe(tracer)),
        Target(admm.SolveEngine, "run_wave", "admm.run_wave"),
        Target(admm, "weight_update", "admm.weight_update"),
        Target(admm, "z_update_hidden", "admm.z_update_hidden"),
        Target(admm, "z_update_output", "admm.z_update_output"),
        Target(admm, "lagrangian_update", "admm.lagrangian_update"),
        Target(admm, "lsmr_solve_multi", "lsmr.lsmr_solve_multi", _probe_lsmr_multi),
        Target(lsmr, "lsmr_solve", "lsmr.lsmr_solve"),
        Target(admm, "quantize_matrix", "matrix.quantize_matrix"),
        Target(matrix.FixedMatrix, "to_real", "matrix.to_real"),
        Target(lsmr, "accumulate_product_wide", "matrix.accumulate_product_wide", _probe_mac),
        Target(lsmr, "sum_squares_wide", "matrix.sum_squares_wide"),
        Target(lsmr, "cast_wide_array", "fixedpoint.cast_wide_array", cast),
        Target(lsmr, "cast_wide_simple_array", "fixedpoint.cast_wide_simple_array", cast_simple),
        Target(lsmr, "trunc_div_array", "fixedpoint.trunc_div_array"),
        Target(lsmr, "float_sqrt_array", "fixedpoint.float_sqrt_array"),
        Target(lsmr, "integer_sqrt_array", "fixedpoint.integer_sqrt_array"),
    ]


# -- self-time arithmetic -----------------------------------------------------

def self_times(spans: list[Span]) -> dict[Span, float]:
    """Wall-clock self time of each span.

    Sweeps the span boundaries in time order.  Between two boundaries, the
    running spans with no running child (the frontier) split the interval
    equally, so the results sum to the wall-clock union of all spans.
    ``spans`` must list each parent before its children; a parent outside
    the list is treated as absent.
    """
    members = set(spans)
    depth: dict[Span, int] = {}
    for s in spans:
        depth[s] = depth[s.parent] + 1 if s.parent in members else 0
    events = []
    for i, s in enumerate(spans):
        events.append((s.start, 1, depth[s], i, s))
        events.append((s.end, 0, -depth[s], i, s))
    # at equal times: ends before starts, deeper spans end first and
    # shallower spans start first
    events.sort(key=lambda e: e[:4])
    out = dict.fromkeys(spans, 0.0)
    running: set[Span] = set()
    busy_children: dict[Span, int] = dict.fromkeys(spans, 0)
    frontier: dict[Span, None] = {}
    last = None
    for t, is_start, _, _, s in events:
        if frontier and t > last:
            share = (t - last) / len(frontier)
            for f in frontier:
                out[f] += share
        last = t
        parent = s.parent if s.parent in members else None
        if is_start:
            running.add(s)
            frontier[s] = None
            if parent in running:
                busy_children[parent] += 1
                frontier.pop(parent, None)
        else:
            running.discard(s)
            frontier.pop(s, None)
            if parent in running:
                busy_children[parent] -= 1
                if busy_children[parent] == 0:
                    frontier[parent] = None
    return out


def nesting_errors(spans: list[Span]) -> list[str]:
    """Spans that end before they start or stick out of their parent."""
    members = set(spans)
    errors = []
    for s in spans:
        if s.end < s.start:
            errors.append(f"{s.name} ends before it starts")
        p = s.parent
        if p in members and (s.start < p.start or s.end > p.end):
            errors.append(f"{s.name} is not inside its parent {p.name}")
    return errors


# -- per-layer metrics --------------------------------------------------------

UNITS = {
    "admm.wave_s": "s",
    "admm.prepare_s": "s",
    "admm.weight_busy_s": "s",
    "admm.activation_busy_s": "s",
    "admm.wave_parallelism": "ratio",
    "admm.chunk_wait_s": "s",
    "admm.closed_form_s": "s",
    "admm.schedule_s": "s",
    "admm.self_s": "s",
    "admm.reported_over_wall": "ratio",
    "admm.saturation_events": "events",
    "lsmr.calls": "count",
    "lsmr.columns": "count",
    "lsmr.column_iters": "count",
    "lsmr.busy_s": "s",
    "lsmr.self_s": "s",
    "lsmr.us_per_column_iter": "us",
    "lsmr.real_column_calls": "count",
    "matrix.mac_calls": "count",
    "matrix.mac_count": "count",
    "matrix.mac_s": "s",
    "matrix.mac_rate_mmacs": "MMAC/s",
    "matrix.sum_squares_s": "s",
    "matrix.quantize_s": "s",
    "matrix.dequantize_s": "s",
    "matrix.self_s": "s",
    "fixedpoint.cast_calls": "count",
    "fixedpoint.cast_cells": "count",
    "fixedpoint.cast_s": "s",
    "fixedpoint.div_s": "s",
    "fixedpoint.sqrt_s": "s",
    "fixedpoint.stream_draws": "count",
    "fixedpoint.stochastic_cast_s": "s",
    "fixedpoint.saturation_per_mcell": "events/Mcell",
    "fixedpoint.self_s": "s",
    "data.load_s": "s",
    "data.prep_s": "s",
    "trace.sweep_s": "s",
    "trace.overhead_s": "s",
}
"""Unit of every per-layer metric; all but the ratios and ``data.*`` are per sweep."""

CLOSED_FORM = ("admm.z_update_hidden", "admm.z_update_output", "admm.lagrangian_update")
SCHEDULING = ("admm.run_wave", "admm.weight_update", "admm.chunk")
CASTS = ("fixedpoint.cast_wide_array", "fixedpoint.cast_wide_simple_array")
SQRTS = ("fixedpoint.float_sqrt_array", "fixedpoint.integer_sqrt_array")
# Published metrics that split the wall time of ``train`` between them; every
# span inside ``train`` must fall in exactly one.
PARTITION = ("admm.self_s", "admm.prepare_s", "admm.schedule_s", "admm.closed_form_s",
             "lsmr.self_s", "matrix.self_s", "fixedpoint.self_s")


def train_metrics(spans: list[Span], sweeps: int) -> dict[str, float]:
    """Per-sweep layer metrics of one traced ``train`` call."""
    roots = [s for s in spans if s.name == "admm.train"]
    if len(roots) != 1:
        raise ValueError(f"expected one admm.train span, got {len(roots)}")
    own = self_times(spans)

    def busy(*names: str) -> float:
        return sum(s.duration for s in spans if s.name in names)

    def count(*names: str) -> int:
        return sum(1 for s in spans if s.name in names)

    def total(attr: str, *names: str) -> float:
        return sum(s.attrs.get(attr, 0) for s in spans if s.name in names)

    def self_of(pred: Callable[[Span], bool]) -> float:
        return sum(v for s, v in own.items() if pred(s))

    chunks = [s for s in spans if s.name == "admm.chunk"]
    waves = busy("admm.run_wave")
    # weight_update issues its own wave; count that wall time once
    outer_waves = sum(
        s.duration for s in spans
        if s.name == "admm.run_wave" and s.parent is not None
        and s.parent.name != "admm.weight_update"
    )
    mac_s = busy("matrix.accumulate_product_wide")
    macs = total("macs", "matrix.accumulate_product_wide")
    cells = total("cells", *CASTS)
    column_iters = total("column_iters", "lsmr.lsmr_solve_multi")
    lsmr_busy = busy("lsmr.lsmr_solve_multi")
    m = {
        "admm.wave_s": outer_waves + busy("admm.weight_update"),
        "admm.prepare_s": self_of(lambda s: s.name == "admm.prepare"),
        "admm.weight_busy_s": sum(c.duration for c in chunks if c.attrs["kind"] == "weight"),
        "admm.activation_busy_s": sum(
            c.duration for c in chunks if c.attrs["kind"] == "activation"
        ),
        "admm.chunk_wait_s": sum(c.start - c.parent.start for c in chunks),
        "admm.closed_form_s": busy(*CLOSED_FORM),
        "admm.schedule_s": self_of(lambda s: s.name in SCHEDULING),
        "admm.self_s": self_of(lambda s: s.name == "admm.train"),
        "lsmr.calls": count("lsmr.lsmr_solve_multi"),
        "lsmr.columns": total("columns", "lsmr.lsmr_solve_multi"),
        "lsmr.column_iters": column_iters,
        "lsmr.busy_s": lsmr_busy,
        "lsmr.self_s": self_of(lambda s: s.layer == "lsmr"),
        "lsmr.real_column_calls": count("lsmr.lsmr_solve"),
        "matrix.mac_calls": count("matrix.accumulate_product_wide"),
        "matrix.mac_count": macs,
        "matrix.mac_s": mac_s,
        "matrix.sum_squares_s": busy("matrix.sum_squares_wide"),
        "matrix.quantize_s": busy("matrix.quantize_matrix"),
        "matrix.dequantize_s": busy("matrix.to_real"),
        "matrix.self_s": self_of(lambda s: s.layer == "matrix"),
        "fixedpoint.cast_calls": count(*CASTS),
        "fixedpoint.cast_cells": cells,
        "fixedpoint.cast_s": busy(*CASTS),
        "fixedpoint.div_s": busy("fixedpoint.trunc_div_array"),
        "fixedpoint.sqrt_s": busy(*SQRTS),
        "fixedpoint.stream_draws": total("stream_draws", "fixedpoint.cast_wide_array"),
        "fixedpoint.stochastic_cast_s": sum(
            s.duration for s in spans
            if s.name == "fixedpoint.cast_wide_array" and s.attrs.get("stochastic")
        ),
        "fixedpoint.self_s": self_of(lambda s: s.layer == "fixedpoint"),
    }
    m = {k: v / sweeps for k, v in m.items()}
    # ratios are per call, not per sweep
    m["admm.wave_parallelism"] = sum(c.duration for c in chunks) / waves if waves else 0.0
    m["lsmr.us_per_column_iter"] = 1e6 * lsmr_busy / column_iters if column_iters else 0.0
    m["matrix.mac_rate_mmacs"] = macs / mac_s / 1e6 if mac_s else 0.0
    m["fixedpoint.saturation_per_mcell"] = (
        1e6 * total("saturation", *CASTS) / cells if cells else 0.0
    )
    return m


def partition_errors(spans: list[Span], metrics: dict[str, float], sweeps: int) -> list[str]:
    """Whether the ``PARTITION`` metrics add up to the wall time of ``train``.

    They miss it when a span falls in no metric, or when a busy-time metric
    among them also covers a traced child.
    """
    wall = next(s for s in spans if s.name == "admm.train").duration
    parts = sum(metrics[k] for k in PARTITION) * sweeps
    if abs(parts - wall) > 1e-9 * wall:
        return [f"the layers' self times sum to {parts} s, train took {wall} s"]
    return []


def setup_metrics(spans: list[Span]) -> dict[str, float]:
    """Data-layer time of one traced setup."""
    return {
        "data.load_s": sum(
            s.duration for s in spans if s.name in ("data.load_csv", "data.synthetic_blobs")
        ),
        "data.prep_s": sum(
            s.duration for s in spans if s.name in ("data.split", "data.standardize")
        ),
    }


def medians(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced calls."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}

