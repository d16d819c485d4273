"""Truncated LSMR least-squares solver with real and fixed-point arithmetic.

The solver runs a fixed iteration budget (default ``min(m, n)``) with no
stopping rules.  One recurrence serves both arithmetics: it advances a block
of right-hand-side columns together against an ops object that supplies the
arithmetic, and keeps every column independent of the others, so any split
of the columns into blocks gives bit-identical results, saturation counts
and stream positions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fixedpoint import (
    ColumnStreams,
    FixedFormat,
    FixedWord,
    RoundingMode,
    SaturationStats,
    _check_fmt,
    cast_wide_array,
    cast_wide_simple_array,
    float_sqrt_array,
    integer_sqrt_array,
    trunc_div_array,
)
from .matrix import FixedMatrix, accumulate_product_wide, sum_squares_wide, transpose_fixed

StreamFactory = Callable[[int], np.random.Generator]
SQRT_PATHS = ("float", "integer")


# -- arithmetics ---------------------------------------------------------------

class _RealOps:
    """Float64 arithmetic, column by column.

    Products and norms make one BLAS call per column (gemv and dot), never a
    GEMM over the block: GEMM may round differently from gemv depending on
    the block shape, which would tie each column's result to its block.
    """

    zero = 0.0
    one = 1.0
    minus_one = -1.0
    col_rngs = None

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a * b

    def div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """``num / den``, with a zero denominator read as one."""
        return num / np.where(den == 0, self.one, den)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b

    def neg(self, a: np.ndarray) -> np.ndarray:
        return -a

    def matmul(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.matmul(a, rows[..., None])[..., 0].T

    def norm_cols(self, cols: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])

    def hypot1(self, tau: np.ndarray) -> np.ndarray:
        """``sqrt(1 + tau**2)``."""
        return np.sqrt(1.0 + tau * tau)


class _FixedOps:
    """Column-vectorised fixed arithmetic shared by all block solves.

    Every helper applies exactly the scalar operation cellwise, so a block of
    columns computes bit-identical results to solving each column alone.
    """

    zero = np.int64(0)

    def __init__(
        self,
        fmt: FixedFormat,
        mode: RoundingMode,
        col_rngs: ColumnStreams | None,
        sqrt_path: str,
        stats: SaturationStats | None,
    ) -> None:
        if sqrt_path not in SQRT_PATHS:
            raise ValueError(f"sqrt_path must be one of {SQRT_PATHS}, got {sqrt_path!r}")
        self.fmt = fmt
        self.mode = mode
        self.col_rngs = col_rngs
        self.sqrt_path = sqrt_path
        self.stats = stats
        self.one = np.int64(fmt.one)
        self.minus_one = np.int64(fmt.minus_one)

    def cast(self, wide: np.ndarray) -> np.ndarray:
        return cast_wide_array(
            wide, self.fmt, self.mode, col_rngs=self.col_rngs, stats=self.stats
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.cast(a * b)

    def div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Truncating ``num / den``, with a zero denominator read as one."""
        den = np.where(den == 0, self.one, den)
        q = trunc_div_array(num << self.fmt.fraction_length, den)
        return cast_wide_simple_array(q, self.fmt, self.stats)

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a - b, self.fmt, self.stats)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a + b, self.fmt, self.stats)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(-a, self.fmt, self.stats)

    def matmul(self, a_reps: np.ndarray, b_reps: np.ndarray) -> np.ndarray:
        return self.cast(accumulate_product_wide(a_reps, b_reps, self.fmt, self.stats))

    def norm_cols(self, reps: np.ndarray) -> np.ndarray:
        return self._sqrt_wide(sum_squares_wide(reps, self.fmt, self.stats))

    def hypot1(self, tau: np.ndarray) -> np.ndarray:
        """``sqrt(1 + tau**2)``, with ``1 + tau**2`` held exactly in the wide
        container (2*FL fraction bits)."""
        return self._sqrt_wide((1 << (2 * self.fmt.fraction_length)) + tau * tau)

    def _sqrt_wide(self, wide: np.ndarray) -> np.ndarray:
        if self.sqrt_path == "float":
            return float_sqrt_array(wide, self.fmt, self.stats)
        return integer_sqrt_array(wide, self.fmt, self.stats)


Ops = _RealOps | _FixedOps


# -- Givens rotations ----------------------------------------------------------

def _sym_cols(
    ops: Ops, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable Givens rotations (c, s, r) zeroing ``b``, one per lane.

    Divides by the larger-magnitude argument so the ratio stays in [-1, 1].
    The degenerate (0, 0) input returns the identity rotation.
    """
    take_b = np.abs(b) > np.abs(a)
    big = np.where(take_b, b, a)
    small = np.where(take_b, a, b)
    tau = ops.div(small, big)
    sign = np.where(big >= 0, ops.one, ops.minus_one)
    lead = ops.div(sign, ops.hypot1(tau))
    other = ops.mul(lead, tau)
    r = ops.div(big, lead)
    degenerate = (a == 0) & (b == 0)
    c = np.where(degenerate, ops.one, np.where(take_b, other, lead))
    s = np.where(degenerate, ops.zero, np.where(take_b, lead, other))
    r = np.where(degenerate, ops.zero, r)
    return c, s, r


def sym(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation (c, s, r) zeroing the second component."""
    c, s, r = _sym_cols(_RealOps(), np.array([float(a)]), np.array([float(b)]))
    return float(c[0]), float(s[0]), float(r[0])


def sym_fixed(
    a: FixedWord,
    b: FixedWord,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    sqrt_path: str = "float",
) -> tuple[FixedWord, FixedWord, FixedWord]:
    """Fixed-point Givens rotation: the same rotation in word arithmetic."""
    fmt = _check_fmt(a, b)
    streams = None if rng is None else ColumnStreams([rng], 1)
    ops = _FixedOps(fmt, mode, streams, sqrt_path, None)
    reps = np.array([[a.rep], [b.rep]], dtype=np.int64)
    c, s, r = _sym_cols(ops, reps[0], reps[1])
    return tuple(FixedWord(int(v[0]), fmt) for v in (c, s, r))


# -- the recurrence --------------------------------------------------------------

def _solve_block(
    ops: Ops, a: np.ndarray, at: np.ndarray, b: np.ndarray, iters: int
) -> np.ndarray:
    """Run the solver recurrences on a block of right-hand-side columns.

    ``at`` is ``a`` transposed.  Every reduction keeps a fixed per-column
    order, so each lane computes what solving its column alone computes.  A
    column stops one way only: once it breaks down (a zero norm, or a
    quotient denominator that is zero) it leaves the block at the top of the
    next iteration, with its current iterate as its solution, and takes no
    further arithmetic, saturations or draws.  So a column's solution,
    saturation count and stream position never depend on its block.  A zero
    input column yields a zero solution column.
    """
    p = b.shape[1]

    beta = ops.norm_cols(b)
    active = beta != 0
    u = ops.div(b, beta)
    w = ops.matmul(at, u)
    alpha = ops.norm_cols(w)
    active &= alpha != 0
    v = ops.div(w, alpha)

    zetabar = ops.mul(alpha, beta)
    alphabar = alpha.copy()
    rho = np.full(p, ops.one)
    rhobar = np.full(p, ops.one)
    cbar = np.full(p, ops.one)
    sbar = np.full(p, ops.zero)
    h = v.copy()
    hbar = np.zeros_like(v)
    x = np.zeros_like(v)
    out = np.zeros_like(v)
    lanes = np.arange(p)

    for _ in range(iters):
        if not active.all():
            out[:, lanes[~active]] = x[:, ~active]
            lanes = lanes[active]
            u, v, h, hbar, x, alpha, alphabar, zetabar, rho, rhobar, cbar, sbar = (
                var[..., active]
                for var in (u, v, h, hbar, x, alpha, alphabar, zetabar, rho, rhobar, cbar, sbar)
            )
            if ops.col_rngs is not None:
                ops.col_rngs.keep(active)
        if not lanes.size:
            break
        s_vec = ops.sub(ops.matmul(a, v), ops.mul(u, alpha))
        beta = ops.norm_cols(s_vec)
        # A zero norm means the vector itself is all zeros, so the guarded
        # division below already yields the zero vector on breakdown lanes.
        u = ops.div(s_vec, beta)
        t_vec = ops.sub(ops.matmul(at, u), ops.mul(v, beta))
        alpha = ops.norm_cols(t_vec)
        v = ops.div(t_vec, alpha)

        c, s, rho_new = _sym_cols(ops, alphabar, beta)
        alphabar = ops.mul(c, alpha)
        theta = ops.mul(s, alpha)
        cbar, sbar_new, rhobar_new = _sym_cols(ops, ops.mul(cbar, rho_new), theta)
        zeta = ops.mul(cbar, zetabar)
        zetabar = ops.neg(ops.mul(sbar_new, zetabar))

        den_prev = ops.mul(rho, rhobar)
        den_cur = ops.mul(rho_new, rhobar_new)
        # A lane whose quotient denominators are (or round to) zero cannot
        # complete this iteration: it keeps its iterate and leaves.
        commit = (den_prev != 0) & (den_cur != 0) & (rho_new != 0)
        coef_hbar = ops.div(ops.mul(ops.mul(sbar, rho_new), rho_new), den_prev)
        hbar = ops.sub(h, ops.mul(hbar, coef_hbar))
        coef_x = ops.div(zeta, den_cur)
        x = np.where(commit, ops.add(x, ops.mul(hbar, coef_x)), x)
        coef_h = ops.div(theta, rho_new)
        h = ops.sub(v, ops.mul(h, coef_h))
        rho, rhobar, sbar = rho_new, rhobar_new, sbar_new
        # An exhausted lane (zero beta or alpha) keeps this iteration's
        # update -- the rotation already folded in the final step -- and
        # then leaves.
        active = commit & (beta != 0) & (alpha != 0)
    out[:, lanes] = x
    return out


def lsmr_solve(a: np.ndarray, b: np.ndarray, iters: int | None = None) -> np.ndarray:
    """Approximate ``argmin_x ||a x - b||_2`` by running the bidiagonalization
    recurrences for exactly ``iters`` iterations (default ``min(m, n)``): a
    one-column ``lsmr_solve_multi`` job.

    A zero right-hand side returns the zero vector; an exactly zero alpha or
    beta mid-loop (an exhausted Krylov space) stops early with the current
    iterate.
    """
    if b.shape != (a.shape[0],):
        raise ValueError(f"shape mismatch: a is {a.shape}, b is {b.shape}")
    return lsmr_solve_multi(LsmrJob.full(a, b[:, None], iters))[:, 0]


def lsmr_solve_fixed(
    a: FixedMatrix,
    b: FixedMatrix,
    iters: int | None = None,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    sqrt_path: str = "float",
    stats: SaturationStats | None = None,
) -> FixedMatrix:
    """Fixed-point solve of ``a x ~= b`` for a single right-hand side: a
    one-column ``lsmr_solve_multi`` job whose column draws from ``rng``."""
    if b.cols != 1:
        raise ValueError(f"expected an {a.rows}x1 right-hand side, got {b.shape}")
    if mode is RoundingMode.STOCHASTIC and rng is None:
        raise ValueError("stochastic rounding requires a random stream")
    job = LsmrJob.full(a, b, iters)
    return lsmr_solve_multi(job, mode, lambda _: rng, sqrt_path, stats)


# -- multi-right-hand-side jobs --------------------------------------------------

@dataclass
class LsmrJob:
    """One multi-column solve ``a X ~= b[:, col_start : col_start+col_count]``."""

    a: np.ndarray | FixedMatrix
    b: np.ndarray | FixedMatrix
    col_start: int
    col_count: int
    iter_count: int

    def __post_init__(self) -> None:
        a_shape = self.a.shape
        b_shape = self.b.shape
        if a_shape[0] != b_shape[0]:
            raise ValueError(f"row mismatch: a is {a_shape}, b is {b_shape}")
        if isinstance(self.a, FixedMatrix) != isinstance(self.b, FixedMatrix):
            raise ValueError("a and b must both be real or both fixed")
        if isinstance(self.a, FixedMatrix):
            _check_fmt(self.a, self.b)
        if self.col_start < 0 or self.col_start + self.col_count > b_shape[1]:
            raise ValueError(
                f"column range [{self.col_start}, {self.col_start + self.col_count}) "
                f"outside 0..{b_shape[1]}"
            )
        if self.iter_count < 1:
            raise ValueError("iter_count must be at least 1")

    @classmethod
    def full(
        cls,
        a: np.ndarray | FixedMatrix,
        b: np.ndarray | FixedMatrix,
        iter_count: int | None = None,
    ) -> "LsmrJob":
        m, n = a.shape
        if iter_count is None:
            iter_count = min(m, n)
        return cls(a, b, 0, b.shape[1], iter_count)


def split_ranges(start: int, count: int, parts: int) -> list[tuple[int, int]]:
    """Split a column range into at most ``parts`` contiguous non-empty chunks."""
    parts = max(1, min(parts, count))
    base, extra = divmod(count, parts)
    ranges = []
    at = start
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        if size:
            ranges.append((at, size))
        at += size
    return ranges


def lsmr_solve_multi(
    job: LsmrJob,
    mode: RoundingMode = RoundingMode.NEAREST,
    stream_factory: StreamFactory | None = None,
    sqrt_path: str = "float",
    stats: SaturationStats | None = None,
) -> np.ndarray | FixedMatrix:
    """Solve the job's column range as one block.

    Column ``j`` of the result, its saturation count and its stream position
    equal those of a standalone solve against ``b[:, j]``, so splitting a
    solve into jobs over disjoint column ranges never changes them.  For
    stochastic rounding each absolute column index draws from its own
    stream.  For an ``m x n`` system each column draws ``n + 1`` uniforms
    before the loop and exactly ``2m + 5n + 11`` per iteration it runs, so
    the streams are drawn in those blocks and end just past the uniforms the
    column used.
    """
    cols = slice(job.col_start, job.col_start + job.col_count)
    if not isinstance(job.a, FixedMatrix):
        at = np.ascontiguousarray(job.a.T)
        return _solve_block(_RealOps(), job.a, at, job.b[:, cols], job.iter_count)
    streams = None
    if mode is RoundingMode.STOCHASTIC:
        if stream_factory is None:
            raise ValueError("stochastic rounding requires a stream factory")
        m, n = job.a.shape
        gens = [stream_factory(j) for j in range(cols.start, cols.stop)]
        streams = ColumnStreams(gens, 2 * m + 5 * n + 11, first=n + 1)
    ops = _FixedOps(job.a.fmt, mode, streams, sqrt_path, stats)
    at = transpose_fixed(job.a)
    x = _solve_block(ops, job.a.data, at.data, job.b.data[:, cols], job.iter_count)
    return FixedMatrix(x, job.a.fmt)
