"""Gradient-free training of feed-forward ReLU networks.

Each sweep alternates exact per-variable minimisations: weights and
activations are least-squares solves handled by the LSMR solver, the
pre-activations have elementwise closed forms, and a running multiplier
enforces the output constraint.  Each sweep runs two waves of mutually
independent solves, the hidden activations and then the weights, and every
column of a solve is independent too; each solve runs as one block of
columns on the calling thread, except the output-layer weight solve, which
is split into at most ``workers`` column ranges that run in order.

The network state itself lives in doubles.  Fixed-point arithmetic, when
selected, applies to the least-squares solves: each solve's inputs are
quantized, the solver runs entirely on words, and the solution columns are
dequantized back.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .data import Dataset, one_hot
from .fixedpoint import (
    FIXED16,
    FIXED32,
    FixedFormat,
    RoundingMode,
    SaturationStats,
    _integer,
    make_stream,
    rekey,
    stream_keys,
)
from .lsmr import SQRT_PATHS, LsmrJob, lsmr_solve_multi
from .matrix import FixedMatrix, quantize_matrix

# each arithmetic's word format; None is float64
FORMATS: dict[str, FixedFormat | None] = {"real": None, "fixed16": FIXED16, "fixed32": FIXED32}
ARITHMETICS = tuple(FORMATS)

# spawn-key tags for the derived random streams
_TAG_INIT = 1
_TAG_QUANTIZE = 2
_TAG_ROUND = 3


class TrainingDivergedError(RuntimeError):
    """Raised when a training run's float arithmetic overflows or turns invalid."""


@dataclass
class NetworkConfig:
    """Architecture and run parameters for one training session.

    ``layer_dims`` lists the feature count, each hidden width, and the output
    width; ``beta``/``gamma`` may be scalars (broadcast to every layer) or
    per-layer sequences, and once built the config holds one float per
    weight layer in ``beta`` and one per hidden layer in ``gamma``.
    ``workers`` only sets how many column ranges the output-layer weight
    solve is split into (at most the output width); every other solve is one
    block, and no split changes a bit of the result.
    """

    layer_dims: Sequence[int]
    iterations: int = 100
    arithmetic: str = "real"
    rounding: RoundingMode = RoundingMode.NEAREST
    beta: float | Sequence[float] = 1.0
    gamma: float | Sequence[float] = 1.0
    seed: int = 0
    workers: int = 1
    lsmr_iterations: int | None = None
    sqrt_path: str = "float"

    def __post_init__(self) -> None:
        dims = [_integer("layer width", d, low=1) for d in self.layer_dims]
        self.iterations = _integer("iterations", self.iterations, low=0)
        self.workers = _integer("workers", self.workers, low=1)
        self.seed = _integer("seed", self.seed, low=0)
        if self.lsmr_iterations is not None:
            self.lsmr_iterations = _integer("lsmr_iterations", self.lsmr_iterations, low=1)
        if len(dims) < 3:
            raise ValueError("need at least input, one hidden and output widths")
        if self.arithmetic not in ARITHMETICS:
            raise ValueError(f"arithmetic must be one of {ARITHMETICS}")
        if not isinstance(self.rounding, RoundingMode):
            raise ValueError(f"rounding must be a RoundingMode, got {self.rounding!r}")
        if self.sqrt_path not in SQRT_PATHS:
            raise ValueError(f"sqrt_path must be one of {SQRT_PATHS}")
        self.layer_dims = dims
        self.beta = self._expand(self.beta, self.layer_count)
        self.gamma = self._expand(self.gamma, self.layer_count - 1)

    @property
    def layer_count(self) -> int:
        """Number of weight layers."""
        return len(self.layer_dims) - 1

    @staticmethod
    def _expand(value, n: int) -> list[float]:
        values = [value] * n if np.ndim(value) == 0 else list(value)
        # float() would parse a string and read a bool as 0 or 1
        if any(isinstance(v, (str, bytes)) or np.asarray(v).dtype == bool for v in values):
            raise ValueError(f"penalty parameters must be numbers, got {value!r}")
        out = [float(v) for v in values]
        if len(out) != n:
            raise ValueError(f"expected {n} penalty values, got {len(out)}")
        if not all(np.isfinite(out)):
            raise ValueError(f"penalty parameters must be finite, got {out}")
        if any(v <= 0 for v in out):
            raise ValueError("penalty parameters must be positive")
        return out

    def fixed_format(self) -> FixedFormat | None:
        return FORMATS[self.arithmetic]


@dataclass
class NetworkState:
    """Weights, pre-activations, activations and the output multiplier."""

    weights: list[np.ndarray]       # W_l, one per weight layer
    z: list[np.ndarray]             # pre-activations, one per weight layer
    x: list[np.ndarray]             # hidden activations (len = layers - 1)
    lam: np.ndarray                 # multiplier, shaped like the output z


@dataclass
class IterationTimings:
    """One sweep's seconds per procedure: the weight and activation solves,
    each with its quantize hop; ``output``, both closed-form z updates
    (hidden and output layers); ``lagrangian``, the multiplier step."""

    weight: float = 0.0
    activation: float = 0.0
    output: float = 0.0
    lagrangian: float = 0.0

    def total(self) -> float:
        return sum(getattr(self, f.name) for f in fields(self))


@dataclass
class TrainReport:
    """Everything measurable about one training run."""

    config: dict
    timings: list[IterationTimings] = field(default_factory=list)
    saturation_per_iteration: list[int] = field(default_factory=list)
    train_accuracy: float | None = None
    test_accuracy: float | None = None
    wall_seconds: float = 0.0

    @property
    def saturation_total(self) -> int:
        return sum(self.saturation_per_iteration)

    def totals(self) -> dict[str, float]:
        out = dict.fromkeys((f.name for f in fields(IterationTimings)), 0.0)
        for t in self.timings:
            for name in out:
                out[name] += getattr(t, name)
        return out

    def percentages(self) -> dict[str, float]:
        totals = self.totals()
        grand = sum(totals.values())
        if grand == 0.0:
            return {k: 0.0 for k in totals}
        return {k: 100.0 * v / grand for k, v in totals.items()}

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "results": {
                "train_accuracy": self.train_accuracy,
                "test_accuracy": self.test_accuracy,
            },
            "timing": {
                "per_iteration": [vars(t).copy() for t in self.timings],
                "totals": self.totals(),
                "percentages": self.percentages(),
                "wall_seconds": self.wall_seconds,
            },
            "saturation": {
                "total_events": self.saturation_total,
                "per_iteration": list(self.saturation_per_iteration),
            },
        }


def relu(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def init_network(cfg: NetworkConfig, x0: np.ndarray, rng: np.random.Generator) -> NetworkState:
    """Uniform weights in [-0.1, 0.1], state populated by a forward pass,
    multiplier zeroed."""
    dims = cfg.layer_dims
    if x0.shape[0] != dims[0]:
        raise ValueError(f"inputs have {x0.shape[0]} features, expected {dims[0]}")
    weights = [
        rng.uniform(-0.1, 0.1, size=(dims[l + 1], dims[l]))
        for l in range(cfg.layer_count)
    ]
    z, x = _forward(weights, x0)
    return NetworkState(weights, z, x, np.zeros_like(z[-1]))


def _forward(
    weights: Sequence[np.ndarray], inputs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The feed-forward rule: every layer's pre-activation ``z`` and every
    hidden layer's activation ``x``, with ReLU after every layer except the
    last (linear) one."""
    z: list[np.ndarray] = []
    x: list[np.ndarray] = []
    cur = inputs
    for l, w in enumerate(weights):
        if w.shape[1] != cur.shape[0]:
            raise ValueError(f"layer {l}: weights {w.shape} cannot take {cur.shape}")
        z.append(w @ cur)
        if l < len(weights) - 1:
            cur = relu(z[-1])
            x.append(cur)
    return z, x


# -- closed-form updates -------------------------------------------------------

def z_update_hidden(
    a_target: np.ndarray, b_target: np.ndarray, gamma: float, beta: float
) -> np.ndarray:
    """Elementwise exact minimiser of gamma*(a - relu(z))^2 + beta*(z - b)^2.

    Two candidates: the clamped quadratic minimum on z >= 0, and min(0, b)
    on z < 0 where the activation contributes a constant.  Ties go to the
    non-negative candidate.
    """
    if a_target.shape != b_target.shape:
        raise ValueError(f"shape mismatch: {a_target.shape} vs {b_target.shape}")
    z_pos = np.maximum(0.0, (gamma * a_target + beta * b_target) / (gamma + beta))
    obj_pos = gamma * (a_target - z_pos) ** 2 + beta * (z_pos - b_target) ** 2
    z_neg = np.minimum(0.0, b_target)
    obj_neg = gamma * a_target**2 + beta * (z_neg - b_target) ** 2
    return np.where(obj_pos <= obj_neg, z_pos, z_neg)


def z_update_output(
    y: np.ndarray, b_target: np.ndarray, lam: np.ndarray, beta: float
) -> np.ndarray:
    """Closed form for the squared-loss output pre-activation."""
    if not (y.shape == b_target.shape == lam.shape):
        raise ValueError("output update operands must share one shape")
    return (2.0 * y + 2.0 * beta * b_target - lam) / (2.0 + 2.0 * beta)


def lagrangian_update(
    lam: np.ndarray, beta: float, z_out: np.ndarray, b_target: np.ndarray
) -> np.ndarray:
    return lam + beta * (z_out - b_target)


# -- solver-backed updates -------------------------------------------------------

class SolveEngine:
    """Runs batched multi-column least-squares jobs for the trainer.

    Owns the quantize/dequantize hop for fixed arithmetic, the random
    streams of stochastic rounding, the saturation count and the column
    split: a solve runs as one job, or as jobs over column ranges in order,
    on the calling thread, each handed its columns of ``b`` and their
    streams.  Every column's solve is independent of the others, so its
    result, saturation count and stream position are those of a standalone
    one-column solve.

    A stochastic solve with the caller's job id ``job`` draws from one
    stream for its quantize hop, ``make_stream(seed, 2, job)``, and one per
    column ``j``, that of ``make_stream(seed, 3, job, j)``.  These are not
    built: the engine keeps a pool of generators and restarts them under
    those streams' keys (``rekey``).  A solve derives all its column keys in
    one ``stream_keys`` pass, and pooled generator ``j`` serves column ``j``
    of every solve.
    """

    def __init__(self, cfg: NetworkConfig) -> None:
        self.cfg = cfg
        self.fmt = cfg.fixed_format()
        self.mode = cfg.rounding
        self.saturation = SaturationStats()
        # the column pool: every generator is re-keyed before each use, so
        # how it was first seeded never shows
        self._column_streams: list[np.random.Generator] = []

    def prepare(self, a: np.ndarray, b: np.ndarray, job_id: int, chunks: int = 1):
        """Split solve ``job_id`` of ``a X ~= b`` (all columns) into at most
        ``chunks`` jobs over contiguous, non-empty column ranges; the default
        is one job.  ``job_id`` keys the solve's random streams.

        Returns (tasks, collect, finish, prep_seconds): each task is a
        zero-argument callable that solves one range and returns its
        columns of the solution, ``collect`` keeps a task's result, and
        ``finish()`` joins the results, collected in task order, into the
        full solution.  ``prep_seconds`` covers the quantization hop so it
        lands in the owning procedure's time bucket.  The whole of ``b`` is
        quantized before the split, so the quantize stream's draws do not
        depend on it.
        """
        prep_start = time.perf_counter()
        p = b.shape[1]
        keys = None
        if self.fmt is not None:
            q_rng = None
            if self.mode is RoundingMode.STOCHASTIC:
                q_rng = make_stream(self.cfg.seed, _TAG_QUANTIZE, job_id)
                keys = stream_keys(self.cfg.seed, (_TAG_ROUND, job_id), np.arange(p)).tolist()
            a = quantize_matrix(a, self.fmt, self.mode, q_rng, self.saturation)
            b = quantize_matrix(b, self.fmt, self.mode, q_rng, self.saturation)
        ranges = np.array_split(np.arange(p), max(1, min(chunks, p)))
        tasks = [functools.partial(self._solve_cols, a, b, keys, cols) for cols in ranges]
        parts: list[np.ndarray] = []
        return tasks, parts.append, lambda: np.hstack(parts), time.perf_counter() - prep_start

    def _solve_cols(self, a, b, keys: list | None, cols: np.ndarray) -> np.ndarray:
        """Columns ``cols`` of the solution of ``a X ~= b`` (quantized in a
        fixed solve) in doubles; ``keys`` are a stochastic solve's column keys."""
        fixed = self.fmt is not None
        res = lsmr_solve_multi(
            LsmrJob(a, FixedMatrix(b.data[:, cols], self.fmt) if fixed else b[:, cols],
                    self.cfg.lsmr_iterations),
            self.mode,
            None if keys is None else self._round_streams(keys, cols),
            sqrt_path=self.cfg.sqrt_path,
            stats=self.saturation,
        )
        return res.to_real() if fixed else res

    def _round_streams(self, keys: list, cols: np.ndarray) -> list[np.random.Generator]:
        """The column streams of ``cols`` in a stochastic solve whose column
        keys are ``keys``: pooled generator ``j``, re-keyed to ``keys[j]``,
        serves column ``j``.  Each task re-keys its streams just before its
        solve, so they start at zero whichever solve used the pool last.
        """
        pool = self._column_streams
        pool.extend(np.random.Generator(np.random.Philox()) for _ in range(len(keys) - len(pool)))
        return [rekey(pool[j], keys[j]) for j in cols]

    def run_wave(self, prepared) -> tuple[np.ndarray, float]:
        """Run one prepared job's tasks in order.

        Returns the solution and the job's seconds: its preparation time plus
        the time its tasks took.
        """
        start = time.perf_counter()
        tasks, collect, finish, prep_seconds = prepared
        for task in tasks:
            collect(task())
        solution = finish()
        return solution, prep_seconds + time.perf_counter() - start


def weight_update(
    z_l: np.ndarray, x_prev: np.ndarray, engine: SolveEngine, job_id: int, chunks: int = 1
) -> tuple[np.ndarray, float]:
    """Least-squares weights: solve x_prev^T W^T ~= z_l^T as job ``job_id``."""
    t0 = time.perf_counter()
    a, b = np.ascontiguousarray(x_prev.T), np.ascontiguousarray(z_l.T)
    prep = time.perf_counter() - t0
    solution, seconds = engine.run_wave(engine.prepare(a, b, job_id, chunks))
    return np.ascontiguousarray(solution.T), prep + seconds


def activation_update(
    w_next: np.ndarray,
    z_next: np.ndarray,
    z_l: np.ndarray,
    beta_next: float,
    gamma_l: float,
    engine: SolveEngine,
    job_id: int,
) -> tuple[np.ndarray, float]:
    """Solve (gamma I + beta W^T W) x = gamma relu(z) + beta W^T z_next, job ``job_id``."""
    t0 = time.perf_counter()
    part1 = gamma_l * np.eye(w_next.shape[1]) + beta_next * (w_next.T @ w_next)
    part2 = gamma_l * relu(z_l) + beta_next * (w_next.T @ z_next)
    prep = time.perf_counter() - t0
    solution, seconds = engine.run_wave(engine.prepare(part1, part2, job_id))
    return solution, prep + seconds


# -- inference -------------------------------------------------------------------

def predict(weights: Sequence[np.ndarray], inputs: np.ndarray) -> np.ndarray:
    """Forward pass: ReLU after every layer except the last (linear) one."""
    return _forward(weights, inputs)[0][-1]


def accuracy(outputs: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of argmax predictions (ties to the lowest index) that match."""
    if outputs.shape[1] != len(labels):
        raise ValueError(f"{outputs.shape[1]} predictions vs {len(labels)} labels")
    return float(np.mean(np.argmax(outputs, axis=0) == np.asarray(labels)))


# -- the trainer ------------------------------------------------------------------

def train(
    cfg: NetworkConfig,
    train_set: Dataset,
    test_set: Dataset | None = None,
) -> tuple[NetworkState, TrainReport]:
    """Run the full training loop and measure it.

    A sweep is two waves of mutually independent solves, then the closed
    forms.  Wave A solves every hidden activation: activation ``l`` reads
    ``W[l+1]``, ``z[l+1]`` and ``z[l]``, which only a later step writes.
    Wave B solves every layer's weights: weight ``l`` reads ``z[l]`` and its
    input from wave A, and writes only ``W[l]``.  In sweep ``k`` of ``L``
    weight layers, weight ``l`` is job ``(2L-1)k + 2l + 1`` and activation
    ``l`` job ``(2L-1)k + 2l + 2``, so the order within a wave changes no
    bit.  Per-procedure times accumulate into the report.
    """
    x0 = train_set.features
    y = one_hot(train_set.labels, train_set.class_count)
    if cfg.layer_dims[-1] != train_set.class_count:
        raise ValueError(
            f"output width {cfg.layer_dims[-1]} != class count {train_set.class_count}"
        )
    rng = make_stream(cfg.seed, _TAG_INIT)
    report = TrainReport(config=_config_echo(cfg))
    n_layers = cfg.layer_count
    engine = SolveEngine(cfg)

    # An overflow or an invalid operation anywhere, from the first forward
    # pass on, ends the run: the state it leaves can look finite (a column
    # norm that overflows to inf zeroes its solution) and be no solution.
    with _diverge_on_fp_error(cfg.arithmetic):
        state = init_network(cfg, x0, rng)
        wall_start = time.perf_counter()
        for k in range(cfg.iterations):
            timings = IterationTimings()
            sat_before = engine.saturation.events
            jobs = (2 * n_layers - 1) * k
            for l in range(n_layers - 1):
                state.x[l], secs = activation_update(
                    state.weights[l + 1], state.z[l + 1], state.z[l],
                    cfg.beta[l + 1], cfg.gamma[l], engine, jobs + 2 * l + 2,
                )
                timings.activation += secs

            inputs = [x0, *state.x]
            for l in range(n_layers):
                chunks = cfg.workers if l == n_layers - 1 else 1
                state.weights[l], secs = weight_update(
                    state.z[l], inputs[l], engine, jobs + 2 * l + 1, chunks
                )
                timings.weight += secs

            t0 = time.perf_counter()
            for l in range(n_layers - 1):
                state.z[l] = z_update_hidden(
                    state.x[l], state.weights[l] @ inputs[l], cfg.gamma[l], cfg.beta[l]
                )
            b_out = state.weights[-1] @ inputs[-1]
            state.z[-1] = z_update_output(y, b_out, state.lam, cfg.beta[-1])
            timings.output += time.perf_counter() - t0

            t0 = time.perf_counter()
            state.lam = lagrangian_update(state.lam, cfg.beta[-1], state.z[-1], b_out)
            timings.lagrangian += time.perf_counter() - t0

            report.timings.append(timings)
            report.saturation_per_iteration.append(engine.saturation.events - sat_before)
        report.wall_seconds = time.perf_counter() - wall_start
        outputs = predict(state.weights, x0)
        report.train_accuracy = accuracy(outputs, train_set.labels)
        if test_set is not None:
            report.test_accuracy = accuracy(
                predict(state.weights, test_set.features), test_set.labels
            )
    return state, report


@contextlib.contextmanager
def _diverge_on_fp_error(arithmetic: str):
    """Raise numpy's floating-point errors, the solver's included, and end
    the run on one as ``TrainingDivergedError`` naming ``arithmetic``.

    It is the run's only divergence check; a scan for inf or NaN after each
    sweep could find none:

    - Every state array and prediction is written by numpy inside the
      errstate, from finite data and finite initial weights, so any new inf
      or NaN raises.  The fixed kernels set no float flag, and the quantize
      hop clamps before it scales.
    - The one operand made outside numpy is Python-float arithmetic on the
      penalties (``gamma + beta``, ``2.0 * beta``).  It either raises at its
      first numpy use (in ``z_update_output``, inf times ``b`` over inf is
      ``invalid``) or stays finite (in ``z_update_hidden``, x / inf = 0).
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        kind = str(exc).split(" encountered")[0]  # "overflow", "divide by zero", ...
        raise TrainingDivergedError(
            f"floating-point {kind} in {arithmetic} arithmetic; "
            "try smaller penalties or fewer iterations"
        ) from exc


def _config_echo(cfg: NetworkConfig) -> dict:
    fmt = cfg.fixed_format()
    return {
        "arch": list(cfg.layer_dims),
        "iterations": cfg.iterations,
        "arithmetic": cfg.arithmetic,
        "rounding": cfg.rounding.value,
        "beta": list(cfg.beta),
        "gamma": list(cfg.gamma),
        "seed": cfg.seed,
        "workers": cfg.workers,
        "lsmr_iterations": cfg.lsmr_iterations,
        "sqrt_path": cfg.sqrt_path,
        "fixed_format": None
        if fmt is None
        else {"word_length": fmt.word_length, "fraction_length": fmt.fraction_length},
    }
