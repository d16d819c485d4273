"""Tests for the benchmark's own code: span arithmetic, wrapper removal,
metric names, and output checks."""
from __future__ import annotations

import json
import random
import re
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, nesting_errors, self_times  # noqa: E402


def span(name, start, end, parent=None):
    s = Span(name, parent, None)
    s.start, s.end = start, end
    return s


def test_self_time_of_nested_spans():
    root = span("admm.train", 0.0, 10.0)
    a = span("lsmr.a", 1.0, 4.0, root)
    inner = span("matrix.b", 2.0, 3.0, a)
    b = span("fixedpoint.c", 5.0, 9.0, root)
    own = self_times([root, a, inner, b])
    assert own[root] == pytest.approx(3.0)
    assert own[a] == pytest.approx(2.0)
    assert own[inner] == pytest.approx(1.0)
    assert own[b] == pytest.approx(4.0)
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_splits_concurrent_children_by_wall_clock():
    root = span("admm.train", 0.0, 10.0)
    wave = span("admm.run_wave", 1.0, 9.0, root)
    first = span("admm.chunk", 2.0, 6.0, wave)   # on one worker thread
    second = span("admm.chunk", 3.0, 8.0, wave)  # on another
    own = self_times([root, wave, first, second])
    assert own[root] == pytest.approx(2.0)
    assert own[wave] == pytest.approx(2.0)
    # 3..6 is shared by both chunks
    assert own[first] == pytest.approx(1.0 + 1.5)
    assert own[second] == pytest.approx(1.5 + 2.0)
    # summed thread time would exceed the wall clock; self time does not
    assert first.duration + second.duration > wave.duration
    assert sum(own.values()) == pytest.approx(root.duration)


def test_spans_touching_at_one_instant():
    root = span("admm.train", 0.0, 4.0)
    a = span("lsmr.a", 0.0, 2.0, root)
    b = span("lsmr.b", 2.0, 4.0, root)
    own = self_times([root, a, b])
    assert own == {root: 0.0, a: 2.0, b: 2.0}


def brute_force_self_times(spans, step):
    """Self time by sampling every ``step`` seconds: at each instant, the
    running spans with no running child split it equally."""
    out = dict.fromkeys(spans, 0.0)
    end = max(s.end for s in spans)
    for i in range(round(end / step)):
        t = (i + 0.5) * step
        running = [s for s in spans if s.start <= t < s.end]
        busy = {s.parent for s in running}
        frontier = [s for s in running if s not in busy]
        for s in frontier:
            out[s] += step / len(frontier)
    return out


def test_self_time_matches_a_sampled_count_on_random_span_trees():
    rng = random.Random(7)
    for _ in range(20):
        # times on a grid of 1/8 so that sampling at 1/64 is exact
        root = span("admm.train", 0.0, 16.0)
        spans = [root]
        for _ in range(12):
            parent = rng.choice(spans)
            lo = rng.randrange(round(parent.start * 8), round(parent.end * 8))
            hi = rng.randrange(lo + 1, round(parent.end * 8) + 1)
            spans.append(span("lsmr.x", lo / 8, hi / 8, parent))
        assert nesting_errors(spans) == []
        want = brute_force_self_times(spans, 1 / 64)
        got = self_times(spans)
        assert all(got[s] == pytest.approx(want[s], abs=1e-9) for s in spans)


def test_nesting_errors_flag_a_child_outliving_its_parent():
    root = span("admm.train", 0.0, 5.0)
    late = span("lsmr.a", 1.0, 6.0, root)
    assert nesting_errors([root, late]) == ["lsmr.a is not inside its parent admm.train"]
    assert nesting_errors([root, span("lsmr.b", 1.0, 2.0, root)]) == []


def test_worker_spans_are_adopted_by_the_waiting_span():
    fake = types.SimpleNamespace(work=lambda x: x * 2, wave=None)
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def task(x):
        barrier.wait()  # both workers run at the same time
        return fake.work(x)

    def wave():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return [f.result(timeout=10) for f in [pool.submit(task, i) for i in (1, 2)]]

    fake.wave = wave
    targets = [tracing.Target(fake, "wave", "admm.run_wave"),
               tracing.Target(fake, "work", "lsmr.work")]
    with tracer.installed(targets):
        assert fake.wave() == [2, 4]
    waves = [s for s in tracer.spans if s.name == "admm.run_wave"]
    works = [s for s in tracer.spans if s.name == "lsmr.work"]
    assert len(waves) == 1 and len(works) == 2
    assert all(s.parent is waves[0] for s in works)
    assert len({s.thread for s in works} | {waves[0].thread}) == 3
    assert nesting_errors(tracer.spans) == []
    assert sum(self_times(tracer.spans).values()) == pytest.approx(waves[0].duration)


def _attributes(tracer):
    return [(t.owner, t.attr, t.owner.__dict__[t.attr]) for t in tracing.default_targets(tracer)]


def test_wrappers_are_removed_after_a_traced_run():
    tracer = Tracer()
    before = _attributes(tracer)
    with tracer.installed():
        during = _attributes(tracer)
    assert all(b[2] is not d[2] for b, d in zip(before, during))
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_wrappers_are_removed_when_the_traced_call_raises():
    tracer = Tracer()
    before = _attributes(tracer)
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            1 / 0
    assert all(getattr(owner, attr) is original for owner, attr, original in before)


def test_traced_training_adds_up_and_keeps_the_output():
    from admmlsmr import admm

    w = workloads.WORKLOADS["iris-stochastic-w2"]
    cfg, train_set, test_set = workloads.setup(w, 3)
    cfg.iterations = 2
    state, report = admm.train(cfg, train_set, test_set)
    tracer = Tracer()
    with tracer.installed():
        traced_state, traced_report = admm.train(cfg, train_set, test_set)
    # untraced calls after the traced one record nothing
    admm.train(cfg, train_set, test_set)
    assert workloads.digest(traced_state) == workloads.digest(state)
    assert nesting_errors(tracer.spans) == []
    metrics = tracing.train_metrics(tracer.spans, cfg.iterations)
    assert tracing.partition_errors(tracer.spans, metrics, cfg.iterations) == []
    assert metrics["lsmr.calls"] == 6  # two hidden waves of 2 jobs, 2 output chunks
    assert metrics["lsmr.real_column_calls"] == 0
    assert metrics["fixedpoint.stream_draws"] > 0
    assert set(metrics) | {"admm.reported_over_wall", "admm.saturation_events"} | set(
        tracing.setup_metrics([])
    ) | {"trace.sweep_s", "trace.overhead_s"} == set(tracing.UNITS)


def test_metric_names_and_units_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9_.-]+")
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(entry["name"]), entry["name"]
    assert {e["name"]: e["unit"] for e in spec["end_to_end"]} == run.END_TO_END
    assert {e["name"]: e["unit"] for e in spec["per_layer"]} == tracing.UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_check_flags_outputs_that_differ():
    w = workloads.WORKLOADS["synth-fixed32"]
    lam = np.zeros((2, 3))
    state = types.SimpleNamespace(weights=[lam + 1.0], z=[lam], x=[], lam=lam)
    report = types.SimpleNamespace(train_accuracy=0.9, test_accuracy=0.8)
    good = workloads.summary(w, state, report)
    assert workloads.check(w, state, report, good, good) == []
    bad = dict(good, digest="0" * 64)
    assert workloads.check(w, state, report, good, bad) == ["output differs from the reference"]

    real = workloads.WORKLOADS["synth-real"]
    ref = workloads.summary(real, state, report)
    state.weights[0][0, 0] += 1e-9
    assert workloads.check(real, state, report, None, ref) == []
    state.weights[0][0, 0] += 1e-3
    assert workloads.check(real, state, report, None, ref) == ["output differs from the reference"]
    state.lam[0, 0] = float("nan")
    assert "non-finite final state" in workloads.check(real, state, report, None, None)



def test_partition_errors_flag_a_span_that_no_metric_counts():
    root = span("admm.train", 0.0, 10.0)
    spans = [root, span("lsmr.lsmr_solve", 1.0, 4.0, root),
             span("admm.z_update_output", 5.0, 6.0, root)]
    metrics = tracing.train_metrics(spans, 1)
    assert tracing.partition_errors(spans, metrics, 1) == []
    # a span of a layer that no metric in the partition covers
    stray = spans + [span("other.work", 6.0, 8.0, root)]
    assert tracing.partition_errors(stray, tracing.train_metrics(stray, 1), 1)
    # a closed-form call with a traced child is counted twice by busy time
    nested = spans + [span("matrix.to_real", 5.2, 5.4, spans[2])]
    assert tracing.partition_errors(nested, tracing.train_metrics(nested, 1), 1)
