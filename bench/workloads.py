"""Benchmark workloads: inputs made from a seed, and checks on each run's output.

Setup makes the same public calls as ``admmlsmr train``: load or generate the
data, split it, standardize it and build a ``NetworkConfig``.  Every call goes
through the ``admmlsmr.data`` and ``admmlsmr.admm`` module attributes, so the
traced run sees them.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from admmlsmr import admm, data
from admmlsmr.fixedpoint import RoundingMode

REFERENCE_PATH = Path(__file__).with_name("reference.json")
TEST_FRACTION = 0.2
# Real arithmetic may round differently after a change to the solver, so its
# final state is compared within tolerances rather than bit for bit.
REAL_RTOL = 1e-6
REAL_ACCURACY_TOL = 0.005


@dataclass(frozen=True)
class Workload:
    name: str
    arch: tuple[int, ...]
    arithmetic: str
    rounding: str
    workers: int
    sweeps: int
    beta: float = 1.0
    gamma: float = 1.0
    synthetic: tuple[int, int, int] | None = None  # D, N, K; None means iris


# The synthetic workloads have c08's architecture at 1/25 of its samples, so
# that a 45 s run holds several calls.  They run 3 sweeps: accuracy is at
# chance after 1-2 sweeps of this configuration and well above it from the
# third sweep on.  synth-real is run by hand only and is not in
# BENCHMARK.json: its per-run time spread across seeds (IQR over median)
# exceeded the benchmark's 0.25 bound in two of four ten-seed sets on a
# shared 2-vCPU machine, where the CPU speed drifts by up to 2x.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-real", (28, 28, 28, 28, 2), "real", "nearest", 1, 3,
                 synthetic=(28, 500, 2)),
        Workload("synth-fixed32", (28, 28, 28, 28, 2), "fixed32", "nearest", 1, 3,
                 synthetic=(28, 500, 2)),
        Workload("iris-stochastic-w2", (4, 8, 8, 3), "fixed32", "stochastic", 2, 30,
                 beta=0.1, gamma=30.0),
    )
}


def setup(w: Workload, seed: int):
    """Inputs and config for one run: (config, train split, test split)."""
    if w.synthetic is None:
        ds = data.load_csv(data.iris_path(), -1, True)
    else:
        ds = data.synthetic_blobs(*w.synthetic, seed)
    sp = data.split(ds, TEST_FRACTION, seed)
    train_set, test_set, _ = data.standardize(sp.train, sp.test)
    cfg = admm.NetworkConfig(
        layer_dims=list(w.arch),
        iterations=w.sweeps,
        arithmetic=w.arithmetic,
        rounding=RoundingMode(w.rounding),
        beta=w.beta,
        gamma=w.gamma,
        seed=seed,
        workers=w.workers,
    )
    return cfg, train_set, test_set


def digest(state: admm.NetworkState) -> str:
    """SHA-256 of the final weights and multiplier, shapes included."""
    h = hashlib.sha256()
    for arr in (*state.weights, state.lam):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def sketch(state: admm.NetworkState) -> list[float]:
    """Norm and three fixed projections of each weight matrix."""
    out = []
    for l, w in enumerate(state.weights):
        probes = np.random.default_rng(l).standard_normal((3, w.size))
        out.append(float(np.linalg.norm(w)))
        out.extend(float(v) for v in probes @ w.ravel())
    return out


def summary(w: Workload, state: admm.NetworkState, report: admm.TrainReport) -> dict:
    """The part of a run's output that the checks compare."""
    out = {"train_accuracy": report.train_accuracy, "test_accuracy": report.test_accuracy}
    if w.arithmetic == "real":
        out["sketch"] = sketch(state)
    else:
        out["digest"] = digest(state)
    return out


def load_reference() -> dict:
    """Recorded summaries: {workload: {seed: summary}}."""
    return json.loads(REFERENCE_PATH.read_text())


def _finite(state: admm.NetworkState) -> bool:
    arrays = [*state.weights, *state.z, *state.x, state.lam]
    return all(np.isfinite(a).all() for a in arrays)


def _real_close(got: dict, want: dict) -> bool:
    if abs(got["train_accuracy"] - want["train_accuracy"]) > REAL_ACCURACY_TOL:
        return False
    if abs(got["test_accuracy"] - want["test_accuracy"]) > REAL_ACCURACY_TOL:
        return False
    # each block is a norm followed by three projections of one matrix
    g, r = np.array(got["sketch"]), np.array(want["sketch"])
    scale = np.repeat(r[::4], 4)
    return bool(np.all(np.abs(g - r) <= REAL_RTOL * scale))


def check(w: Workload, state, report, first: dict | None, reference: dict | None) -> list[str]:
    """Problems with one run's output; empty when it is correct.

    ``first`` is the first run of the same inputs in this process, which
    every later run must reproduce; ``reference`` is the recorded summary for
    this seed (``record_reference.py`` covers seeds 0-31).  Other seeds are
    checked for finiteness and reproducibility only.
    """
    problems = []
    if not _finite(state):
        problems.append("non-finite final state")
    got = summary(w, state, report)
    for label, want in (("first run", first), ("reference", reference)):
        if want is None:
            continue
        same = _real_close(got, want) if w.arithmetic == "real" else got == want
        if not same:
            problems.append(f"output differs from the {label}")
    return problems
