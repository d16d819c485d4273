"""Dense row-major matrices of fixed-point words, quantized from doubles.

A matrix stores an int64 rep array.  The kernels implement multiply-accumulate
the way a narrow datapath would: exact wide products, a saturation-checked
wide accumulator, and a single rounding when the finished cell is narrowed
back to the word format.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fixedpoint import (
    ColumnStreams,
    FixedFormat,
    FixedFormatError,
    RoundingMode,
    SaturationStats,
    cast_wide_array,
    convert_array,
    saturating_acc_add,
)


@dataclass(frozen=True)
class FixedMatrix:
    """Row-major matrix of fixed-point reps sharing one format.

    The constructor checks its operand once, where it enters, and raises
    ``ValueError`` unless ``data`` is a 2-D int64 array whose every rep lies
    in ``[fmt.lbound, fmt.ubound]``.  It keeps a private C-contiguous copy
    and makes it read-only, so neither an in-place write nor the caller's
    array can change it later.  An in-range rep's square fits int64, so sums
    of squares are never negative, and a rep shifted by FL stays at most
    2**52 in magnitude (``FixedFormat`` keeps the word length plus FL at
    most 53), so the square roots and the truncating division check nothing
    per call.

    Because the reps never change, what the wide MAC prepares from them is
    computed once per matrix and cached: the float64 copy (``floats``), the
    largest rep magnitude (``max_abs``) and the transpose (``T``).
    """

    data: np.ndarray  # int64, 2-D, C-order, read-only
    fmt: FixedFormat

    def __post_init__(self) -> None:
        data = self.data
        if data.ndim != 2 or data.dtype != np.int64:
            raise ValueError(f"expected a 2-D int64 array, got {data.dtype} {data.shape}")
        lo, hi = self.fmt.lbound, self.fmt.ubound
        if data.size and (data.min() < lo or data.max() > hi):
            raise ValueError(f"rep outside the format's range [{lo}, {hi}]")
        data = np.array(data, order="C")
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @cached_property
    def floats(self) -> np.ndarray:
        return self.data.astype(np.float64)

    @cached_property
    def max_abs(self) -> int:
        return int(np.abs(self.data).max(initial=0))

    @cached_property
    def T(self) -> "FixedMatrix":
        return FixedMatrix(self.data.T, self.fmt)

    def to_real(self) -> np.ndarray:
        return self.data.astype(np.float64) * self.fmt.epsilon


def _check_fmt(a: FixedMatrix, b: FixedMatrix) -> FixedFormat:
    """The format two fixed operands share."""
    if a.fmt != b.fmt:
        raise FixedFormatError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return a.fmt


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
    a: FixedMatrix,
    b: np.ndarray,
    stats: SaturationStats | None = None,
    *,
    b_max: int | None = None,
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

    ``b`` is a rep array in ``a``'s format.  The float64 copy and ``max|a|``
    are ``a``'s cached properties, so a matrix that meets many ``b`` prepares
    them once.  ``b_max``, if given, is an upper bound on ``max|b|`` (``one``
    for unit columns): the GEMM is chosen from it alone when it qualifies,
    and ``max|b|`` is computed only when it does not.  A bound that admits
    the GEMM admits every smaller ``max|b|``, so the path is always the one
    ``max|b|`` alone would choose.
    """
    fmt = a.fmt
    m, n = a.shape
    p = b.shape[1]
    limit = min(1 << 53, fmt.wide_ubound)
    if b_max is None or n * a.max_abs * b_max > limit:
        b_max = int(np.abs(b).max(initial=0))
    if n * a.max_abs * b_max <= limit:
        return (a.floats @ b.astype(np.float64)).astype(np.int64)
    acc = np.zeros((m, p), dtype=np.int64)
    for k in range(n):
        term = a.data[:, k : k + 1] * b[k : k + 1, :]
        acc = saturating_acc_add(acc, term, fmt, stats)
    return acc


def mat_mul_fixed(
    a: FixedMatrix,
    b: FixedMatrix,
    mode: RoundingMode = RoundingMode.NEAREST,
    col_rngs: ColumnStreams | None = None,
    stats: SaturationStats | None = None,
) -> FixedMatrix:
    """Matrix product with exactly one rounding per output cell; stochastic
    rounding draws from ``col_rngs``, one stream per output column."""
    fmt = _check_fmt(a, b)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} x {b.shape}")
    acc = accumulate_product_wide(a, b.data, stats)
    return FixedMatrix(cast_wide_array(acc, fmt, mode, col_rngs, stats), fmt)


def sum_squares_wide(
    reps: np.ndarray,
    fmt: FixedFormat,
    stats: SaturationStats | None = None,
    *,
    bound: int | None = None,
) -> np.ndarray:
    """Column-wise sum of squared reps in the wide container.

    Squares are non-negative, so the running saturating sum equals the exact
    big-integer sum clamped at the container bound; the fast int64 path is
    taken whenever overflow is provably impossible.  ``bound``, if given, is
    an upper bound on every ``|rep|``: when ``m * bound**2`` fits the
    container the largest square is not computed, since the path it would
    choose is then the fast one.
    """
    m = reps.shape[0]
    sq = reps * reps  # exact: |rep| < 2**31 -> square < 2**62
    fits = bound is not None and m * bound * bound <= fmt.wide_ubound
    if fits or m * int(sq.max(initial=0)) <= fmt.wide_ubound:
        return sq.sum(axis=0)
    exact = [int(s) for s in sq.astype(object).sum(axis=0)]
    if stats is not None:
        stats.count(sum(s > fmt.wide_ubound for s in exact))
    return np.array([min(s, fmt.wide_ubound) for s in exact], dtype=np.int64)
