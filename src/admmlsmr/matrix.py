"""Dense row-major matrices of fixed-point words, quantized from doubles.

A matrix stores an int64 rep array.  The kernels implement multiply-accumulate
the way a narrow datapath would: exact wide products, a saturation-checked
wide accumulator, and a single rounding when the finished cell is narrowed
back to the word format.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fixedpoint import (
    FixedFormat,
    RoundingMode,
    SaturationStats,
    _check_fmt,
    cast_wide_array,
    convert_array,
    saturating_acc_add,
)


@dataclass(frozen=True)
class FixedMatrix:
    """Row-major matrix of fixed-point reps sharing one format.

    Every rep lies in ``[fmt.lbound, fmt.ubound]``; the constructor raises
    ``ValueError`` otherwise.  This is where fixed-point operands are
    checked, once: an in-range rep's square fits int64, so sums of squares
    are never negative, and a rep shifted by FL stays below 2**49, so the
    square roots and the truncating division check nothing per call.
    """

    data: np.ndarray  # int64, 2-D, C-order
    fmt: FixedFormat

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self.data.shape}")
        lo, hi = self.fmt.lbound, self.fmt.ubound
        if self.data.size and (self.data.min() < lo or self.data.max() > hi):
            raise ValueError(f"rep outside the format's range [{lo}, {hi}]")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @classmethod
    def zeros(cls, rows: int, cols: int, fmt: FixedFormat) -> "FixedMatrix":
        return cls(np.zeros((rows, cols), dtype=np.int64), fmt)

    def to_real(self) -> np.ndarray:
        return self.data.astype(np.float64) * self.fmt.epsilon


# -- quantization ------------------------------------------------------------

def quantize_matrix(
    m: np.ndarray,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    stats: SaturationStats | None = None,
) -> FixedMatrix:
    """Cellwise conversion of a real matrix into reps."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return FixedMatrix(convert_array(m, fmt, mode, rng, stats), fmt)


def dequantize_matrix(f: FixedMatrix) -> np.ndarray:
    """Exact real values of all cells."""
    return f.to_real()


# -- fixed kernels -----------------------------------------------------------

class PreparedOperand:
    """A constant rep matrix prepared once for many wide products: its
    float64 copy and its largest rep magnitude."""

    __slots__ = ("reps", "floats", "max_abs")

    def __init__(self, reps: np.ndarray) -> None:
        self.reps = reps
        self.floats = reps.astype(np.float64)
        self.max_abs = int(np.abs(reps).max(initial=0))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.reps.shape


def accumulate_product_wide(
    a: PreparedOperand | np.ndarray,
    b: np.ndarray,
    fmt: FixedFormat,
    stats: SaturationStats | None = None,
) -> np.ndarray:
    """Wide accumulator for reps(a) @ reps(b): exact int64 products, with the
    running sum saturation-checked after every addition.

    Returns the (m, p) wide sums carrying 2*FL fraction bits, before any
    rounding.  When ``n * max|a| * max|b| <= min(2**53, wide_ubound)`` one
    float64 GEMM gives the result: every product and every partial sum is
    then an integer of magnitude at most 2**53, so each BLAS operation is
    exact in any summation order, and no partial sum can reach the
    container's bounds, so there is nothing to saturate or count.  Otherwise
    a k-loop accumulates in a fixed per-cell order with a saturation check
    after every addition.  Either way the result for a given output column
    never depends on which other columns are present.

    ``a`` is a rep array or, when the same matrix meets many ``b``, a
    ``PreparedOperand`` whose float64 copy and ``max|a|`` are reused.
    """
    if not isinstance(a, PreparedOperand):
        a = PreparedOperand(a)
    m, n = a.shape
    p = b.shape[1]
    bound = n * a.max_abs * int(np.abs(b).max(initial=0))
    if bound <= min(1 << 53, fmt.wide_ubound):
        return (a.floats @ b.astype(np.float64)).astype(np.int64)
    acc = np.zeros((m, p), dtype=np.int64)
    for k in range(n):
        term = a.reps[:, k : k + 1] * b[k : k + 1, :]
        acc = saturating_acc_add(acc, term, fmt, stats)
    return acc


def mat_mul_fixed(
    a: FixedMatrix,
    b: FixedMatrix,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    stats: SaturationStats | None = None,
) -> FixedMatrix:
    """Matrix product with exactly one rounding per output cell."""
    fmt = _check_fmt(a, b)
    if a.cols != b.rows:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    acc = accumulate_product_wide(a.data, b.data, fmt, stats)
    return FixedMatrix(cast_wide_array(acc, fmt, mode, rng, stats=stats), fmt)


def sum_squares_wide(
    reps: np.ndarray,
    fmt: FixedFormat,
    stats: SaturationStats | None = None,
) -> np.ndarray:
    """Column-wise sum of squared reps in the wide container.

    Squares are non-negative, so the running saturating sum equals the exact
    big-integer sum clamped at the container bound; the fast int64 path is
    taken whenever overflow is provably impossible.
    """
    m = reps.shape[0]
    sq = reps * reps  # exact: |rep| < 2**31 -> square < 2**62
    max_sq = int(sq.max(initial=0))
    if m * max_sq <= fmt.wide_ubound:
        return sq.sum(axis=0)
    exact = [int(s) for s in sq.astype(object).sum(axis=0)]
    if stats is not None:
        stats.count(sum(s > fmt.wide_ubound for s in exact))
    return np.array([min(s, fmt.wide_ubound) for s in exact], dtype=np.int64)


def transpose_fixed(m: FixedMatrix) -> FixedMatrix:
    return FixedMatrix(np.ascontiguousarray(m.data.T), m.fmt)
