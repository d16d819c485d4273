"""Truncated LSMR least-squares solver with real and fixed-point arithmetic.

The solver runs a fixed iteration budget (default ``min(m, n)``) with no
stopping rules.  One recurrence serves both arithmetics: it advances a block
of right-hand-side columns together against an ops object that supplies the
arithmetic, and keeps every column independent of the others, so any split
of the columns into blocks gives bit-identical results, saturation counts
and stream positions.  Each ops object also supplies the recurrence's two
Givens rotations per iteration (``rotate``), its unit normalisations
(``unit``), its two residual steps (``step``) and its three iterate updates
(``update``).  The fixed ones run the word operations of the real ones in
the same order, and skip only the clamps and guards that their ranges make
dead, so they compute the bits, saturation counts and draws the generic
word operations would; the ranges are bounds that flow through the
recurrence (see *arithmetics*).  Fixed operands are checked once, where
they enter: a ``FixedMatrix`` holds in-range reps only.
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
    cast_wide_array,
    cast_wide_simple_array,
    float_sqrt_array,
    integer_sqrt_array,
    trunc_div_array,
)
from .matrix import FixedMatrix, _check_fmt, accumulate_product_wide, sum_squares_wide

SQRT_PATHS = ("float", "integer")


# -- arithmetics ---------------------------------------------------------------
#
# A bound is an upper bound on the magnitude of every cell of an operand,
# over the lanes still in the block (a lane leaving lowers no bound).  Ops
# methods take the bounds of their operands and return those of their
# results, so the bounds flow through one recurrence: the fixed arithmetic's
# are Python ints, or None where no bound is known; the real arithmetic
# ignores every bound and returns None.

class _RealOps:
    """Float64 arithmetic, column by column.

    Products and norms make one BLAS call per column (gemv and dot), never a
    GEMM over the block: GEMM may round differently from gemv depending on
    the block shape, which would tie each column's result to its block.
    """

    zero = 0.0
    one = 1.0
    minus_one = -1.0
    zero_bound = None
    col_rngs = None

    def mul(self, a: np.ndarray, b: np.ndarray, b_bounds: None = None) -> np.ndarray:
        return a * b

    def div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """``num / den``, with a zero denominator read as one."""
        return num / np.where(den == 0, self.one, den)

    def unit(self, vec: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, None]:
        return self.div(vec, norm), None

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b

    def neg(self, a: np.ndarray, bound: None = None) -> np.ndarray:
        return -a

    def matmul(self, a: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, None]:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.matmul(a, rows[..., None])[..., 0].T, None

    def step(
        self, a: np.ndarray, v: np.ndarray, u: np.ndarray, alpha: np.ndarray, alpha_bound: None
    ) -> tuple[np.ndarray, None]:
        """The residual ``a v - u alpha`` of one bidiagonalization step."""
        return self.sub(self.matmul(a, v)[0], self.mul(u, alpha)), None

    def update(
        self, y: np.ndarray, x: np.ndarray, coef: np.ndarray, bounds: tuple, plus: bool = False
    ) -> tuple[np.ndarray, None]:
        """``y + x coef`` if ``plus``, else ``y - x coef``."""
        prod = self.mul(x, coef)
        return (self.add(y, prod) if plus else self.sub(y, prod)), None

    def norm_cols(self, cols: np.ndarray, bound: None = None) -> tuple[np.ndarray, None]:
        rows = np.ascontiguousarray(cols.T, dtype=np.float64)
        return np.sqrt(np.matmul(rows[:, None, :], rows[:, :, None])[:, 0, 0]), None

    def bounds(self, rows: np.ndarray) -> list[None]:
        return [None] * len(rows)

    def rotate(
        self, a: np.ndarray, b: np.ndarray, a_bound: None = None, b_bound: None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, None]:
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
        return np.where(take_b, other, lead), np.where(take_b, lead, other), r, None


class _FixedOps:
    """Column-vectorised fixed arithmetic shared by all block solves.

    Every helper applies one word operation cellwise, so a block of columns
    computes bit-identical results to solving each column alone.  A
    narrowing is checked (``_saturate``) unless a bound proves every cell
    strictly inside the format's bounds; a cell exactly at a bound counts as
    a saturation, so every skip needs its bound strictly below.  An
    unchecked narrowing gives the bits, the (zero) count and the draws of
    the checked one.  Each skip's proof is in its method's docstring, and
    most rest on one rule for casts: wide cells ``|t| <= T one``, for an
    integer ``T < ubound``, lie strictly inside the shifted bounds
    (``lbound < -ubound``), and their cast lies in ``[-T, T]`` in every
    mode, since ``T one`` is a multiple of ``one`` and every bias lies in
    ``[0, one)``.  A checked cast keeps that bound, since its clamp only
    moves a cell toward zero.  The root kernel, ``float_sqrt_array`` or
    ``integer_sqrt_array`` by ``sqrt_path``, is picked once: the norms and
    the rotations both take their roots through it.
    """

    zero = np.int64(0)
    zero_bound = 0

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
        self.stats = stats
        self._sqrt = float_sqrt_array if sqrt_path == "float" else integer_sqrt_array
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

    def _narrow(self, t: np.ndarray, bound: int | None) -> tuple[np.ndarray, int]:
        """Word reps of the sums ``t`` (FL fraction bits), and a bound on
        them.

        ``bound``, if given, bounds every ``|t|``.  Below ``ubound`` every
        cell is a rep strictly inside the format's bounds, which
        ``cast_wide_simple_array`` would return unchanged, so it is not
        called and ``bound`` is returned.  Otherwise the cells are narrowed
        (checked), and the bound is re-read as their largest magnitude.
        """
        if bound is not None and bound < self.fmt.ubound:
            return t, bound
        t = cast_wide_simple_array(t, self.fmt, self.stats)
        return t, int(np.abs(t).max(initial=0))

    def mul(
        self, a: np.ndarray, b: np.ndarray, b_bounds: Sequence[int] | None = None
    ) -> np.ndarray:
        """The rounded products ``a * b``.

        ``b_bounds``, if given, is for factors ``|a| <= one``: bounds of the
        rows of ``b`` that together cover every ``|b|``, the largest being
        ``M``.  Then ``|a b| <= M one``, so by the cast rule the narrowing is
        checked only if ``M >= ubound``, and each product keeps the bound of
        its factor in ``b``.
        """
        checked = b_bounds is None or max(b_bounds) >= self.fmt.ubound
        return self.cast(a * b, checked=checked)

    def div(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """Truncating ``num / den``, with a zero denominator read as one."""
        den = np.where(den == 0, self.one, den)
        q = trunc_div_array(num << self._fl, den)
        return cast_wide_simple_array(q, self.fmt, self.stats)

    def unit(self, vec: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, int]:
        """``div(vec, norm)`` for a divisor ``norm`` at least its dividend
        in magnitude, cell by cell, or zero, which skips the narrowing check:
        no quotient can reach a bound; and the bound ``one`` of every
        quotient.

        The truncated quotient then has magnitude at most ``one``, strictly
        inside the bounds when the format has an integer bit beside the
        sign; a zero divisor has a zero dividend, whose quotient by one is
        zero.  A rotation's larger input meets this for its smaller one, and
        a column norm of ``vec`` for ``vec`` itself: the rounded or clamped
        root of a sum of squares that is at least ``vec_i**2`` (the sum only
        grows, and a saturated one sits at the wide bound, above every
        square of a rep).  The integer root is monotone.  The float root is
        at least ``|vec_i| (1 - 2**-52)``, since converting the sum and
        taking the root each lose a relative 2**-53 at most, and that is
        above ``|vec_i| - 1/2``, so rounding it to nearest gives at least
        ``|vec_i|``.  The clamp at the upper bound keeps that, since
        ``|vec_i|`` is itself a rep.
        """
        quotient = trunc_div_array(vec << self._fl, np.where(norm == 0, self.one, norm))
        return quotient, self.fmt.one

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a - b, self.fmt, self.stats)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return cast_wide_simple_array(a + b, self.fmt, self.stats)

    def neg(self, a: np.ndarray, bound: int | None = None) -> np.ndarray:
        """``-a``, narrowed as in ``_narrow``; ``bound``, if given, bounds
        ``|a|``.

        The solver negates only ``zetabar``, and passes the lane maximum of
        its first value for the whole solve: ``zetabar`` starts as ``alpha
        beta`` and each iteration sets it to ``-(sbar zetabar)``, for a
        rotation's ``|sbar| <= one``, so by the cast rule its magnitude
        never grows.
        """
        return self._narrow(-a, bound)[0]

    def matmul(self, a: FixedMatrix, units: np.ndarray) -> tuple[np.ndarray, int]:
        """The narrowed ``a @ units`` for columns with every ``|cell| <= one``
        (the solver multiplies only its unit vectors ``u`` and ``v``), and
        ``B = n max|a|``, a bound on every narrowed cell.

        Each wide cell sums ``n`` products of magnitude at most ``max|a|
        one``, so ``|t| <= B one``; a saturating wide sum keeps this, since a
        clamp only moves a sum toward zero.  So by the cast rule the cast is
        checked only if ``B >= ubound``, and its cells are bounded by ``B``.
        ``one`` bounds ``max|units|`` for the GEMM choice of
        ``accumulate_product_wide``.
        """
        bound = a.shape[1] * a.max_abs
        wide = accumulate_product_wide(a, units, self.stats, b_max=self.fmt.one)
        return self.cast(wide, checked=bound >= self.fmt.ubound), bound

    def step(
        self, a: FixedMatrix, v: np.ndarray, u: np.ndarray, alpha: np.ndarray, alpha_bound: int
    ) -> tuple[np.ndarray, int]:
        """The residual ``sub(matmul(a, v), mul(u, alpha))`` of one
        bidiagonalization step, for unit columns ``v`` and ``u`` and their
        norms ``alpha``, in that draw order, and a bound ``S`` on every
        cell.  ``alpha_bound`` bounds ``alpha``; the solver passes the lane
        maximum of the norms.

        - ``|u_ij alpha_j| <= alpha_bound one``, so by the cast rule the
          product is checked only if ``alpha_bound >= ubound``, and its
          cells are bounded by ``alpha_bound``.
        - So ``|cast(a v) - cast(u alpha)| <= B + alpha_bound = S``, which
          ``_narrow`` takes.
        """
        av, bound = self.matmul(a, v)
        ualpha = self.cast(u * alpha, checked=alpha_bound >= self.fmt.ubound)
        return self._narrow(av - ualpha, bound + alpha_bound)

    def update(
        self,
        y: np.ndarray,
        x: np.ndarray,
        coef: np.ndarray,
        bounds: tuple[int, int, int],
        plus: bool = False,
    ) -> tuple[np.ndarray, int]:
        """``add(y, mul(x, coef))`` if ``plus``, else ``sub(y, mul(x,
        coef))``: one of the solver's ``hbar``, ``x`` and ``h`` updates, and
        a bound on every cell.  ``bounds`` holds the bounds ``Y``, ``X`` and
        ``Q`` of ``y``, ``x`` and ``coef``.

        - ``|x coef| <= X Q <= T one`` for ``T = ceil(X Q / one)``, so by the
          cast rule the product is checked only if ``T >= ubound``, and its
          cells are bounded by ``T``.
        - So ``|y +- cast(x coef)| <= Y + T``, which ``_narrow`` takes.
        """
        y_bound, x_bound, coef_bound = bounds
        prod_bound = -(-x_bound * coef_bound // self.fmt.one)
        prod = self.cast(x * coef, checked=prod_bound >= self.fmt.ubound)
        return self._narrow(y + prod if plus else y - prod, y_bound + prod_bound)

    def norm_cols(
        self, reps: np.ndarray, bound: int | None = None
    ) -> tuple[np.ndarray, int]:
        """Column norms of ``reps``, and their largest, which bounds them.
        ``bound``, if given, bounds every ``|rep|``.

        - ``sum_squares_wide`` skips finding its largest square when ``m
          bound**2`` fits the wide container.
        - The root is checked only if ``m bound**2 > (ubound - 1)**2``.
          Otherwise every sum of squares is at most ``(ubound - 1)**2``.  Its
          integer root is at most ``ubound - 1``.  Its float root is at most
          ``(ubound - 1) (1 + 2**-52)``, below ``ubound``: converting the sum
          and taking the root are monotone and each costs a relative 2**-53
          at most.  A root is never negative, so no root reaches a bound.
        """
        wide = sum_squares_wide(reps, self.fmt, self.stats, bound=bound)
        ubound = self.fmt.ubound
        checked = bound is None or reps.shape[0] * bound * bound > (ubound - 1) ** 2
        norms = self._sqrt(wide, self.fmt, self.stats, checked=checked)
        return norms, int(norms.max(initial=0))

    def bounds(self, rows: np.ndarray) -> list[int]:
        """The bounds of the rows of a ``(k, p)`` per-lane array: each row's
        largest magnitude, from one reduce."""
        return np.abs(rows).max(axis=1, initial=0).tolist()

    def rotate(
        self, a: np.ndarray, b: np.ndarray, a_bound: int | None = None, b_bound: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Stable Givens rotations (c, s, r) zeroing ``b``, one per lane, and
        a bound on ``r``: the word operations of ``_RealOps.rotate`` in its
        order (``tau = small / big``, ``h = sqrt(1 + tau**2)``, ``lead =
        sign / h``, ``other = lead * tau``, ``r = big / lead``) with the
        rounding of ``div``, the norms' roots and ``mul``.  It skips only the
        guards and clamps that these ranges make dead, so every bit,
        saturation count and draw equals the generic operations'.  ``other``
        keeps its ``cast_wide_array`` call, through which it draws, but
        unchecked:

        - ``|small| <= |big|``, so ``tau`` is a ``unit`` quotient:
          ``|tau| <= one``, and its narrowing cannot saturate.  Its zero
          guard is live: ``big`` is 0 on a (0, 0) lane.
        - ``one**2 <= one**2 + tau**2 <= 2 one**2`` (held exactly with 2*FL
          fraction bits), so ``one <= h <= sqrt(2) one + 1/2``: the root is
          never negative, NaN or saturated, since ``sqrt(2) one`` is below
          the upper bound when the format has an integer bit beside the
          sign.  So ``h`` comes from the norms' root kernel, unchecked.
        - ``h >= one``, so ``lead``'s divisor is never zero and ``|lead| <=
          one`` cannot saturate.  ``h <= 2 one``, so ``|lead| >= one/2``
          (``one/2`` is an integer, which truncation keeps), and ``r``'s
          divisor is never zero either.
        - ``|lead tau| <= one << FL``, far inside the shifted bounds, so
          ``other``'s cast skips its check.
        - Every numerator is a rep or ``+-one`` shifted by FL, at most
          2**52 in magnitude (``FixedFormat`` keeps the word length plus FL
          at most 53), which meets ``trunc_div_array``'s precondition
          ``|num| < 2**53``.
        - ``|r| <= |big| one / |lead| <= 2 |big|``.  With bounds on ``|a|``
          and ``|b|`` whose largest is ``M``, ``r`` is bounded by ``2 M`` and
          narrowed by ``_narrow``, so it is checked only if ``2 M >=
          ubound``.  Without them ``r`` is always checked.
        - A (0, 0) lane gets ``tau = 0``, ``h = lead = one`` and
          ``other = r = 0``, the identity rotation, with no mask.
        """
        take_b = np.abs(b) > np.abs(a)
        big = np.where(take_b, b, a)
        small = np.where(take_b, a, b)
        tau, _ = self.unit(small, big)
        h = self._sqrt(self._one_wide + tau * tau, self.fmt, self.stats, checked=False)
        lead = trunc_div_array(np.where(big >= 0, self._one_wide, self._minus_one_wide), h)
        other = self.cast(lead * tau, checked=False)
        bound = None if a_bound is None or b_bound is None else 2 * max(a_bound, b_bound)
        r, bound = self._narrow(trunc_div_array(big << self._fl, lead), bound)
        return np.where(take_b, other, lead), np.where(take_b, lead, other), r, bound


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
    input column yields a zero solution column.  Each ``*_bound`` bounds
    its quantity on the lanes in the block (see *arithmetics*).
    """
    p = b.shape[1]

    beta, _ = ops.norm_cols(b)
    u, _ = ops.unit(b, beta)
    w, bound = ops.matmul(at, u)
    alpha, alpha_bound = ops.norm_cols(w, bound)
    v, v_bound = ops.unit(w, alpha)

    zetabar = ops.mul(alpha, beta)
    (zetabar_bound,) = ops.bounds(zetabar[None])
    alphabar, alphabar_bound = alpha.copy(), alpha_bound
    rho = np.full(p, ops.one)
    rhobar = np.full(p, ops.one)
    cbar = np.full(p, ops.one)
    sbar = np.full(p, ops.zero)
    h, h_bound = v.copy(), v_bound
    hbar = np.zeros_like(v)
    x = np.zeros_like(v)
    hbar_bound = x_bound = ops.zero_bound
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
        s_vec, bound = ops.step(a, v, u, alpha, alpha_bound)
        beta, beta_bound = ops.norm_cols(s_vec, bound)
        # A zero norm means the vector itself is all zeros, so the guarded
        # division below already yields the zero vector on breakdown lanes.
        u, _ = ops.unit(s_vec, beta)
        t_vec, bound = ops.step(at, u, v, beta, beta_bound)
        alpha, alpha_bound = ops.norm_cols(t_vec, bound)
        v, v_bound = ops.unit(t_vec, alpha)

        # Per-lane word operations that sit next to each other run as one
        # call over stacked rows, in the order they draw (neg draws nothing).
        # A rotation's c and s, and so cbar and sbar, are at most one in
        # magnitude, so each product of one keeps its other factor's bound.
        c, s, rho_new, rho_bound = ops.rotate(alphabar, beta, alphabar_bound, beta_bound)
        alphabar, theta, cbar_rho = ops.mul(
            np.array((c, s, cbar)), np.array((alpha, alpha, rho_new)), (alpha_bound, rho_bound)
        )
        alphabar_bound = alpha_bound
        cbar, sbar_new, rhobar_new, _ = ops.rotate(cbar_rho, theta, rho_bound, alpha_bound)
        zeta, zetabar, den_prev, den_cur, sbar_rho = ops.mul(
            np.array((cbar, sbar_new, rho, rho_new, sbar)),
            np.array((zetabar, zetabar, rhobar, rhobar_new, rho_new)),
        )
        zetabar = ops.neg(zetabar, zetabar_bound)

        dens = np.array((den_prev, den_cur, rho_new))
        coefs = ops.div(np.array((ops.mul(sbar_rho, rho_new), zeta, theta)), dens)
        (coef_hbar, coef_x, coef_h), (q_hbar, q_x, q_h) = coefs, ops.bounds(coefs)
        hbar, hbar_bound = ops.update(h, hbar, coef_hbar, (h_bound, hbar_bound, q_hbar))
        # x_bound bounds x_new, which every lane that goes on keeps
        x_new, x_bound = ops.update(x, hbar, coef_x, (x_bound, hbar_bound, q_x), plus=True)
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
        h, h_bound = ops.update(v, h, coef_h, (v_bound, h_bound, q_h))
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
