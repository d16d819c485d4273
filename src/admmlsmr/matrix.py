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
    FixedWord,
    RoundingMode,
    SaturationStats,
    _check_fmt,
    cast_wide_array,
    cast_wide_simple_array,
    convert_array,
    float_sqrt_array,
    integer_sqrt_array,
    saturating_acc_add,
)


@dataclass(frozen=True)
class FixedMatrix:
    """Row-major matrix of fixed-point reps sharing one format."""

    data: np.ndarray  # int64, 2-D, C-order
    fmt: FixedFormat

    def __post_init__(self) -> None:
        if self.data.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {self.data.shape}")

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

    @classmethod
    def from_reps(cls, reps, fmt: FixedFormat) -> "FixedMatrix":
        arr = np.ascontiguousarray(np.asarray(reps, dtype=np.int64))
        if (arr > fmt.ubound).any() or (arr < fmt.lbound).any():
            raise ValueError("rep outside the format's representable range")
        return cls(arr, fmt)

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

def accumulate_product_wide(
    a: np.ndarray,
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
    """
    m, n = a.shape
    p = b.shape[1]
    bound = n * int(np.abs(a).max(initial=0)) * int(np.abs(b).max(initial=0))
    if bound <= min(1 << 53, fmt.wide_ubound):
        return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    acc = np.zeros((m, p), dtype=np.int64)
    for k in range(n):
        term = a[:, k : k + 1] * b[k : k + 1, :]
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


def dot_fixed(
    u: FixedMatrix,
    v: FixedMatrix,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    stats: SaturationStats | None = None,
) -> FixedWord:
    """Inner product of a 1 x m row with an m x 1 column."""
    if u.rows != 1 or v.cols != 1 or u.cols != v.rows:
        raise ValueError(f"expected 1xm . mx1, got {u.shape} . {v.shape}")
    return FixedWord(int(mat_mul_fixed(u, v, mode, rng, stats).data[0, 0]), u.fmt)


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


def norm_fixed(
    v: FixedMatrix,
    sqrt_path: str = "float",
    stats: SaturationStats | None = None,
) -> FixedWord:
    """Euclidean norm of a fixed-point vector (m x 1 or 1 x m).

    Squares accumulate exactly in the wide container with saturation checks;
    the configured square-root path then produces the word-format result.
    """
    data = v.data
    if v.rows == 1:
        data = data.T
    elif v.cols != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    total = sum_squares_wide(data, v.fmt, stats)
    if sqrt_path == "float":
        rep = float_sqrt_array(total, v.fmt, stats)
    elif sqrt_path == "integer":
        rep = integer_sqrt_array(total, v.fmt, stats)
    else:
        raise ValueError(f"unknown sqrt_path {sqrt_path!r}")
    return FixedWord(int(rep[0]), v.fmt)


def add_fixed(
    a: FixedMatrix, b: FixedMatrix, stats: SaturationStats | None = None
) -> FixedMatrix:
    fmt = _check_fmt(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return FixedMatrix(cast_wide_simple_array(a.data + b.data, fmt, stats), fmt)


def sub_fixed(
    a: FixedMatrix, b: FixedMatrix, stats: SaturationStats | None = None
) -> FixedMatrix:
    fmt = _check_fmt(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return FixedMatrix(cast_wide_simple_array(a.data - b.data, fmt, stats), fmt)


def scale_fixed(
    m: FixedMatrix,
    s: FixedWord,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    stats: SaturationStats | None = None,
) -> FixedMatrix:
    """Cellwise multiplication by a scalar word."""
    fmt = _check_fmt(m, s)
    wide = m.data * np.int64(s.rep)
    return FixedMatrix(cast_wide_array(wide, fmt, mode, rng, stats=stats), fmt)


def transpose_fixed(m: FixedMatrix) -> FixedMatrix:
    return FixedMatrix(np.ascontiguousarray(m.data.T), m.fmt)
