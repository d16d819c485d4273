"""Truncated LSMR least-squares solver with real and fixed-point arithmetic.

The solver runs a fixed iteration budget (default ``min(m, n)``) with no
stopping rules.  One recurrence serves both arithmetics: it advances a block
of right-hand-side columns together against an ops object that supplies the
arithmetic, and keeps every column independent of the others, so any split
of the columns into blocks gives bit-identical results, saturation counts
and stream positions.  Each ops object also supplies the recurrence's two
Givens rotations per iteration (``rotate``), its unit normalisations
(``unit``) and its two residual steps (``step``).  The fixed ones run the
word operations of the real ones in the same order, and skip only the
clamps and guards that their ranges make dead, so they compute the bits the
generic word operations would.  Fixed operands are checked once, where they
enter: a ``FixedMatrix`` holds in-range reps only.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fixedpoint import (
    ColumnStreams,
    FixedFormat,
    RoundingMode,
    SaturationStats,
    _integer,
    _isqrt_array,
    _round_root,
    cast_wide_array,
    cast_wide_simple_array,
    float_sqrt_array,
    integer_sqrt_array,
    trunc_div_array,
)
from .matrix import FixedMatrix, _check_fmt, accumulate_product_wide, sum_squares_wide

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

    unit = div

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b

    def neg(self, a: np.ndarray) -> np.ndarray:
        return -a

    def matmul(self, a: np.ndarray, cols: np.ndarray) -> np.ndarray:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.matmul(a, rows[..., None])[..., 0].T

    def step(
        self, a: np.ndarray, v: np.ndarray, u: np.ndarray, alpha: np.ndarray
    ) -> tuple[np.ndarray, None]:
        """The residual ``a v - u alpha`` of one bidiagonalization step, and
        no bound on it."""
        return self.sub(self.matmul(a, v), self.mul(u, alpha)), None

    def norm_cols(self, cols: np.ndarray, bound: None = None) -> np.ndarray:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0])

    def rotate(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable Givens rotations (c, s, r) zeroing ``b``, one per lane.

        Divides by the larger-magnitude argument so the ratio stays in
        [-1, 1].  ``div`` reads a (0, 0) lane's zero divisor as one, so that
        lane gets ``c = 1`` and zero ``s`` and ``r`` with no mask.
        """
        take_b = np.abs(b) > np.abs(a)
        big = np.where(take_b, b, a)
        small = np.where(take_b, a, b)
        tau = self.div(small, big)
        sign = np.where(big >= 0, self.one, self.minus_one)
        lead = self.div(sign, np.sqrt(1.0 + tau * tau))
        other = self.mul(lead, tau)
        r = self.div(big, lead)
        return np.where(take_b, other, lead), np.where(take_b, lead, other), r


class _FixedOps:
    """Column-vectorised fixed arithmetic shared by all block solves.

    Every helper applies one word operation cellwise, so a block of columns
    computes bit-identical results to solving each column alone.
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
        self.fmt = fmt
        self.mode = mode
        self.col_rngs = col_rngs
        self.sqrt_path = sqrt_path
        self.stats = stats
        # 0-d arrays: numpy combines them with arrays faster than scalars
        self.one = np.array(fmt.one)
        self._fl = np.array(fmt.fraction_length)
        self._one_wide = np.array(fmt.one << fmt.fraction_length)
        self._minus_one_wide = -self._one_wide

    def cast(self, wide: np.ndarray, checked: bool = True) -> np.ndarray:
        return cast_wide_array(
            wide, self.fmt, self.mode, col_rngs=self.col_rngs, stats=self.stats,
            checked=checked,
        )

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.cast(a * b)

    def div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Truncating ``num / den``, with a zero denominator read as one."""
        den = np.where(den == 0, self.one, den)
        q = trunc_div_array(num << self._fl, den)
        return cast_wide_simple_array(q, self.fmt, self.stats)

    def unit(self, vec: np.ndarray, norm: np.ndarray) -> np.ndarray:
        """``div(vec, norm)`` for a column ``norm`` of ``vec`` itself, which
        skips the narrowing check: no quotient can reach a bound.

        ``norm`` is the rounded or clamped root of a sum of squares that is
        at least ``vec_i**2`` (the sum only grows, and a saturated one sits
        at the wide bound, above every square of a rep).  The integer root
        is monotone.  The float root is at least ``|vec_i| (1 - 2**-52)``,
        since converting the sum and taking the root each lose a relative
        2**-53 at most, and that is above ``|vec_i| - 1/2``, so rounding it
        to nearest gives at least ``|vec_i|``.  The clamp at the upper bound
        keeps that, since ``|vec_i|`` is itself a rep.  So
        ``norm >= |vec_i|`` and the truncated quotient has magnitude at most
        ``one``, strictly inside the bounds when the format has an integer
        bit beside the sign.  A zero norm means a zero vector, whose
        quotient by one is zero.
        """
        return trunc_div_array(vec << self._fl, np.where(norm == 0, self.one, norm))

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a - b, self.fmt, self.stats)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a + b, self.fmt, self.stats)

    def neg(self, a: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(-a, self.fmt, self.stats)

    def matmul(self, a: FixedMatrix, units: np.ndarray) -> np.ndarray:
        """``a @ units`` for unit columns ``units``: see ``_product``."""
        return self._product(a, units)[0]

    def _product(self, a: FixedMatrix, units: np.ndarray) -> tuple[np.ndarray, int]:
        """The narrowed ``a @ units`` for columns with every ``|cell| <= one``
        (the solver multiplies only its unit vectors ``u`` and ``v``), and
        ``B = n max|a|``, a bound on every narrowed cell.

        Each wide cell sums ``n`` products of magnitude at most ``max|a|
        one``, so ``|t| <= B one``; a saturating wide sum keeps this, since a
        clamp only moves a sum toward zero.  When ``B < ubound`` no cell
        reaches ``ubound << FL`` or ``lbound << FL``, below ``-ubound << FL``,
        so the cast skips its check.  In every mode ``|cast(t)| <= B``:
        ``B one`` is a multiple of ``one`` and every bias lies in
        ``[0, one)``, so ``(t + bias) >> FL`` stays in ``[-B, B]``, and a
        checked cast's clamp only moves ``t`` toward zero.  ``one`` bounds
        ``max|units|`` for the GEMM choice of ``accumulate_product_wide``.
        """
        bound = a.shape[1] * a.max_abs
        wide = accumulate_product_wide(a, units, self.stats, b_max=self.fmt.one)
        return self.cast(wide, checked=bound >= self.fmt.ubound), bound

    def step(
        self, a: FixedMatrix, v: np.ndarray, u: np.ndarray, alpha: np.ndarray
    ) -> tuple[np.ndarray, int | None]:
        """The residual ``sub(matmul(a, v), mul(u, alpha))`` of one
        bidiagonalization step, for unit columns ``v`` and ``u`` and their
        norms ``alpha``, in that draw order; and a bound ``S`` on every
        cell, or None if the difference had to be checked.

        - A norm is the clamped root of a sum of squares, so ``0 <= alpha_j
          <= ubound`` and ``|u_ij alpha_j| <= alpha_j one``.  That reaches a
          shifted bound only if ``max(alpha) >= ubound`` (a cell at exactly
          ``ubound << FL`` counts), so only then is the product checked.  As
          in ``_product``, ``|cast(u alpha)| <= alpha_j``.
        - So ``|cast(a v) - cast(u alpha)| <= B + max(alpha) = S``.  When
          ``S < ubound`` every difference is a rep (``lbound < -ubound``), so
          ``cast_wide_simple_array`` would return it unchanged and is not
          called, and ``S`` is returned for the next norm.
        """
        av, bound = self._product(a, v)
        alpha_max = int(alpha.max())
        ualpha = self.cast(u * alpha, checked=alpha_max >= self.fmt.ubound)
        bound += alpha_max
        if bound < self.fmt.ubound:
            return av - ualpha, bound
        return self.sub(av, ualpha), None

    def norm_cols(self, reps: np.ndarray, bound: int | None = None) -> np.ndarray:
        """Column norms of ``reps``; ``bound``, if given, bounds every
        ``|rep|`` (``sum_squares_wide``)."""
        return self._sqrt_wide(sum_squares_wide(reps, self.fmt, self.stats, bound=bound))

    def _sqrt_wide(self, wide: np.ndarray) -> np.ndarray:
        if self.sqrt_path == "float":
            return float_sqrt_array(wide, self.fmt, self.stats)
        return integer_sqrt_array(wide, self.fmt, self.stats)

    def rotate(
        self, a: np.ndarray, b: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stable Givens rotations (c, s, r) zeroing ``b``, one per lane: the
        word operations of ``_RealOps.rotate`` in its order (``tau = small /
        big``, ``h = sqrt(1 + tau**2)``, ``lead = sign / h``, ``other = lead *
        tau``, ``r = big / lead``) with the rounding of ``div``,
        ``_sqrt_wide`` and ``mul``.  It skips only the guards and clamps
        that these ranges make dead, so every bit, saturation count and draw
        equals the generic operations'.  ``other`` keeps its
        ``cast_wide_array`` call, through which it draws, but unchecked:

        - ``|small| <= |big|``, so ``|tau| <= one``: its narrowing cannot
          saturate.  Its zero guard is live: ``big`` is 0 on a (0, 0) lane.
        - ``one**2 <= one**2 + tau**2 <= 2 one**2`` (held exactly with 2*FL
          fraction bits), so ``one <= h <= sqrt(2) one``: the root is never
          negative, NaN or saturated, since ``sqrt(2) one`` is below the
          upper bound when the format has an integer bit beside the sign.
          The float root rounds to nearest by ``_round_root``, as in
          ``float_sqrt_array``.
        - ``h >= one``, so ``lead``'s divisor is never zero and
          ``|lead| <= one`` cannot saturate; ``|lead|`` is about
          ``one/sqrt(2)`` or more, so ``r``'s divisor is never zero either.
        - ``|lead tau| <= one << FL``, far inside the shifted bounds, so
          ``other``'s cast skips its check.
        - Every numerator is a rep shifted by FL, below 2**49, which meets
          ``trunc_div_array``'s precondition ``|num| < 2**53``.
        - ``|r|`` reaches about ``sqrt(2) |big|``: its clamp and count stay.
        - A (0, 0) lane gets ``tau = 0``, ``h = lead = one`` and
          ``other = r = 0``, the identity rotation, with no mask.
        """
        fl = self._fl
        take_b = np.abs(b) > np.abs(a)
        big = np.where(take_b, b, a)
        small = np.where(take_b, a, b)
        tau = trunc_div_array(small << fl, np.where(big == 0, self.one, big))
        wide = self._one_wide + tau * tau
        if self.sqrt_path == "float":
            h = _round_root(np.sqrt(wide))
        else:
            h = _isqrt_array(wide)
        lead = trunc_div_array(np.where(big >= 0, self._one_wide, self._minus_one_wide), h)
        other = self.cast(lead * tau, checked=False)
        r = cast_wide_simple_array(trunc_div_array(big << fl, lead), self.fmt, self.stats)
        return np.where(take_b, other, lead), np.where(take_b, lead, other), r


Ops = _RealOps | _FixedOps


# -- the recurrence --------------------------------------------------------------

def _solve_block(
    ops: Ops,
    a: np.ndarray | FixedMatrix,
    at: np.ndarray | FixedMatrix,
    b: np.ndarray,
    iters: int,
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
    u = ops.unit(b, beta)
    w = ops.matmul(at, u)
    alpha = ops.norm_cols(w)
    v = ops.unit(w, alpha)

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
    # the lanes that go on at the top of the next iteration; None while
    # every lane does, so an iteration with no breakdown builds no mask
    active = None if beta.all() and alpha.all() else (beta != 0) & (alpha != 0)

    for _ in range(iters):
        if active is not None:
            out[:, lanes[~active]] = x[:, ~active]
            lanes = lanes[active]
            u, v, h, hbar, x, alpha, alphabar, zetabar, rho, rhobar, cbar, sbar = (
                var[..., active]
                for var in (u, v, h, hbar, x, alpha, alphabar, zetabar, rho, rhobar, cbar, sbar)
            )
            if ops.col_rngs is not None:
                ops.col_rngs.keep(active)
            active = None
        if not lanes.size:
            break
        s_vec, bound = ops.step(a, v, u, alpha)
        beta = ops.norm_cols(s_vec, bound)
        # A zero norm means the vector itself is all zeros, so the guarded
        # division below already yields the zero vector on breakdown lanes.
        u = ops.unit(s_vec, beta)
        t_vec, bound = ops.step(at, u, v, beta)
        alpha = ops.norm_cols(t_vec, bound)
        v = ops.unit(t_vec, alpha)

        # Per-lane word operations that sit next to each other run as one
        # call over stacked rows, in the order they draw (neg draws nothing).
        c, s, rho_new = ops.rotate(alphabar, beta)
        alphabar, theta, cbar_rho = ops.mul(
            np.array((c, s, cbar)), np.array((alpha, alpha, rho_new))
        )
        cbar, sbar_new, rhobar_new = ops.rotate(cbar_rho, theta)
        zeta, zetabar, den_prev, den_cur, sbar_rho = ops.mul(
            np.array((cbar, sbar_new, rho, rho_new, sbar)),
            np.array((zetabar, zetabar, rhobar, rhobar_new, rho_new)),
        )
        zetabar = ops.neg(zetabar)

        dens = np.array((den_prev, den_cur, rho_new))
        coef_hbar, coef_x, coef_h = ops.div(
            np.array((ops.mul(sbar_rho, rho_new), zeta, theta)), dens
        )
        hbar = ops.sub(h, ops.mul(hbar, coef_hbar))
        x_new = ops.add(x, ops.mul(hbar, coef_x))
        if dens.all() and beta.all() and alpha.all():
            x = x_new
        else:
            # A lane whose quotient denominators are (or round to) zero
            # cannot complete this iteration: it keeps its iterate and
            # leaves.  An exhausted lane (zero beta or alpha) keeps this
            # iteration's update -- the rotation already folded in the final
            # step -- and then leaves.
            commit = dens.all(axis=0)
            x = np.where(commit, x_new, x)
            active = commit & (beta != 0) & (alpha != 0)
        h = ops.sub(v, ops.mul(h, coef_h))
        rho, rhobar, sbar = rho_new, rhobar_new, sbar_new
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
    return lsmr_solve_multi(LsmrJob(a, b[:, None], iters))[:, 0]


# -- multi-right-hand-side jobs --------------------------------------------------

@dataclass
class LsmrJob:
    """One multi-column solve ``a X ~= b`` over every column of ``b``, for
    ``iter_count`` iterations; None means ``min(m, n)`` for an ``m x n``
    system.  Which columns share a job is the caller's choice: it changes
    no column's result."""

    a: np.ndarray | FixedMatrix
    b: np.ndarray | FixedMatrix
    iter_count: int | None = None

    def __post_init__(self) -> None:
        a_shape, b_shape = self.a.shape, self.b.shape
        if len(a_shape) != 2 or len(b_shape) != 2:
            raise ValueError(f"a and b must be 2-D, got shapes {a_shape} and {b_shape}")
        if a_shape[0] != b_shape[0]:
            raise ValueError(f"row mismatch: a is {a_shape}, b is {b_shape}")
        if isinstance(self.a, FixedMatrix) != isinstance(self.b, FixedMatrix):
            raise ValueError("a and b must both be real or both fixed")
        if isinstance(self.a, FixedMatrix):
            _check_fmt(self.a, self.b)
        if self.iter_count is None:
            self.iter_count = min(a_shape)
        self.iter_count = _integer("iter_count", self.iter_count, low=1)

    @property
    def col_count(self) -> int:
        return self.b.shape[1]


def lsmr_solve_multi(
    job: LsmrJob,
    mode: RoundingMode = RoundingMode.NEAREST,
    streams: Sequence[np.random.Generator] | None = None,
    sqrt_path: str = "float",
    stats: SaturationStats | None = None,
) -> np.ndarray | FixedMatrix:
    """Solve every column of the job as one block.

    A column's result, saturation count and stream position depend only on
    ``a``, that column of ``b`` and its generator, never on which other
    columns share the job: column ``j`` equals a standalone one-column solve
    against ``b[:, j]``.  Stochastic rounding draws column ``j``'s uniforms
    from ``streams[j]``, so ``streams`` holds one generator per column, in
    column order.  For an ``m x n`` system each column draws ``n + 1``
    uniforms before the loop and exactly ``2m + 5n + 11`` per iteration it
    runs, so the streams are drawn in those blocks and end just past the
    uniforms the column used.  A fixed system's transpose and float64
    copies are cached on its ``FixedMatrix``, so every job over one system
    shares them.  A real solve raises ``FloatingPointError`` on overflow,
    division by zero or an invalid operation, rather than return the zeros
    an overflowed norm leaves.  ``mode`` and ``sqrt_path`` are checked in
    either arithmetic.
    """
    if not isinstance(mode, RoundingMode):
        raise ValueError(f"mode must be a RoundingMode, got {mode!r}")
    if sqrt_path not in SQRT_PATHS:
        raise ValueError(f"sqrt_path must be one of {SQRT_PATHS}, got {sqrt_path!r}")
    if not isinstance(job.a, FixedMatrix):
        at = np.ascontiguousarray(job.a.T)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return _solve_block(_RealOps(), job.a, at, job.b, job.iter_count)
    col_rngs = None
    if mode is RoundingMode.STOCHASTIC:
        if streams is None or len(streams) != job.col_count:
            raise ValueError("stochastic rounding needs one stream per column of b")
        m, n = job.a.shape
        col_rngs = ColumnStreams(list(streams), job.a.fmt, 2 * m + 5 * n + 11, first=n + 1)
    ops = _FixedOps(job.a.fmt, mode, col_rngs, sqrt_path, stats)
    x = _solve_block(ops, job.a, job.a.T, job.b.data, job.iter_count)
    return FixedMatrix(x, job.a.fmt)
