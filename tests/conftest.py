"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own code paths: rounding is
re-derived with exact rational arithmetic, least-squares solutions come from
dense normal equations, and scalar minimisers from brute-force grids.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from admmlsmr import RoundingMode, load_csv, iris_path
from admmlsmr.fixedpoint import FixedFormat


# -- exact rounding oracles ------------------------------------------------------

def oracle_convert(x: float, fmt: FixedFormat, mode: RoundingMode) -> int:
    """Expected rep for a deterministic conversion, via exact rationals."""
    fx = Fraction(x)
    ub = Fraction(fmt.ubound, 1 << fmt.fraction_length)
    lb = Fraction(fmt.lbound, 1 << fmt.fraction_length)
    if fx >= ub:
        return fmt.ubound
    if fx <= lb:
        return fmt.lbound
    scaled = fx * (1 << fmt.fraction_length)
    low = math.floor(scaled)
    frac = scaled - low
    if mode is RoundingMode.DOWN:
        return low
    if mode is RoundingMode.UP:
        return low + (1 if frac > 0 else 0)
    if mode is RoundingMode.NEAREST:
        return low + (1 if frac >= Fraction(1, 2) else 0)
    raise ValueError("stochastic has no deterministic oracle")


def oracle_cast_wide(t: int, fmt: FixedFormat, mode: RoundingMode) -> int:
    """Expected rep when narrowing a wide 2*FL-fraction value."""
    scale = 1 << fmt.fraction_length
    if t >= fmt.ubound * scale:
        return fmt.ubound
    if t <= fmt.lbound * scale:
        return fmt.lbound
    low, diff = divmod(t, scale)  # divmod floors, matching an arithmetic shift
    if mode is RoundingMode.DOWN:
        return low
    if mode is RoundingMode.UP:
        return low + (1 if diff else 0)
    if mode is RoundingMode.NEAREST:
        return low + (1 if 2 * diff >= scale else 0)
    raise ValueError("stochastic has no deterministic oracle")


def oracle_trunc_div(num: int, den: int) -> int:
    """Integer quotient truncated toward zero, as C divides, in Python ints."""
    q = abs(num) // abs(den)
    return q if (num < 0) == (den < 0) else -q


def oracle_mac(
    a: np.ndarray, b: np.ndarray, fmt: FixedFormat
) -> tuple[list[list[int]], int]:
    """Wide sums of reps(a) @ reps(b) and the saturation count, accumulating
    each cell in k order in Python ints and clamping at the wide bounds after
    every addition."""
    (m, n), p = a.shape, b.shape[1]
    sums = [[0] * p for _ in range(m)]
    events = 0
    for i in range(m):
        for j in range(p):
            acc = 0
            for k in range(n):
                acc += int(a[i, k]) * int(b[k, j])
                if not fmt.wide_lbound <= acc <= fmt.wide_ubound:
                    acc = min(max(acc, fmt.wide_lbound), fmt.wide_ubound)
                    events += 1
            sums[i][j] = acc
    return sums, events


def oracle_stochastic_cast(
    t: np.ndarray, fmt: FixedFormat, gens: list, stats=None
) -> np.ndarray:
    """Stochastic narrowing of a (..., p) wide array, column j drawing from
    ``gens[j]``.

    Each cast draws every column's uniforms with its own generator call, in
    C order of the leading axes; a cell rounds up when its uniform exceeds
    one minus the discarded fraction, compared as exact rationals.
    Saturated cells consume their uniform too.  Adds the saturation count
    to ``stats``.
    """
    u = np.empty(t.shape, dtype=np.float64)
    for j, gen in enumerate(gens):
        u[..., j] = gen.random(t.shape[:-1])
    scale = 1 << fmt.fraction_length
    out = np.empty(t.shape, dtype=np.int64)
    events = 0
    for idx in np.ndindex(*t.shape):
        v = int(t[idx])
        if v >= fmt.ubound * scale:
            out[idx], events = fmt.ubound, events + 1
        elif v <= fmt.lbound * scale:
            out[idx], events = fmt.lbound, events + 1
        else:
            low, diff = divmod(v, scale)
            out[idx] = low + (Fraction(float(u[idx])) > 1 - Fraction(diff, scale))
    if stats is not None:
        stats.count(events)
    return out


class ScriptedStream:
    """A stand-in for a generator whose ``random`` returns preset uniforms
    in order, so a test can put a draw exactly on a rounding threshold,
    where random uniforms almost never land."""

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=np.float64).ravel()
        self.pos = 0

    def random(self, size=None, out=None):
        if out is None:
            out = np.empty(() if size is None else size)
        end = self.pos + out.size
        if end > self.values.size:
            raise IndexError("the scripted uniforms are used up")
        out[...] = self.values[self.pos : end].reshape(out.shape)
        self.pos = end
        return out


# -- the fixed-point solver, one column in Python ints ------------------------------

class OracleWords:
    """One column's fixed arithmetic in Python ints, with its saturation
    count and, for stochastic rounding, the column's generator.

    Each method is one word operation of the solver: narrowing a wide
    product draws one uniform (stochastic) and rounds it as
    ``oracle_cast_wide`` does; sums, negations, quotients and integer roots
    saturate at the word bounds; a cell at or beyond a bound counts as one
    event.
    """

    def __init__(self, fmt: FixedFormat, mode: RoundingMode, sqrt_path: str, gen=None):
        if (mode is RoundingMode.STOCHASTIC) != (gen is not None):
            raise ValueError("stochastic rounding, and only it, takes a generator")
        self.fmt, self.mode, self.sqrt_path, self.gen = fmt, mode, sqrt_path, gen
        self.events = 0

    def _saturated(self, v: int, scale: int) -> bool:
        hit = v >= self.fmt.ubound * scale or v <= self.fmt.lbound * scale
        self.events += hit
        return hit

    def word(self, v: int) -> int:
        """A sum at the word's own resolution, saturated."""
        self._saturated(v, 1)
        return min(max(v, self.fmt.lbound), self.fmt.ubound)

    def cast(self, t: int) -> int:
        """A wide value (2*FL fraction bits) narrowed to a word."""
        fmt, scale = self.fmt, 1 << self.fmt.fraction_length
        if self.mode is not RoundingMode.STOCHASTIC:
            self._saturated(t, scale)
            return oracle_cast_wide(t, fmt, self.mode)
        u = Fraction(self.gen.random())  # drawn whether the cell saturates or not
        if self._saturated(t, scale):
            return fmt.ubound if t > 0 else fmt.lbound
        low, diff = divmod(t, scale)
        return low + (u > 1 - Fraction(diff, scale))

    def mul(self, a: int, b: int) -> int:
        return self.cast(a * b)

    def add(self, a: int, b: int) -> int:
        return self.word(a + b)

    def sub(self, a: int, b: int) -> int:
        return self.word(a - b)

    def neg(self, a: int) -> int:
        return self.word(-a)

    def div(self, num: int, den: int) -> int:
        """Truncating ``num / den``, with a zero denominator read as one."""
        shifted = num << self.fmt.fraction_length
        assert abs(shifted) < 1 << 53
        return self.word(oracle_trunc_div(shifted, den or self.fmt.one))

    def sqrt(self, t: int) -> int:
        """The root of a non-negative wide value: the floor root, or the
        double root of its value rounded to nearest."""
        assert t >= 0
        if self.sqrt_path == "integer":
            return self.word(math.isqrt(t))
        root = math.sqrt(float(t) * self.fmt.epsilon**2)
        self.events += root >= self.fmt.ubound_value
        return oracle_convert(root, self.fmt, RoundingMode.NEAREST)

    def norm(self, vec: list[int]) -> int:
        """The root of a column's sum of squares, clamped at the wide bound."""
        total = sum(v * v for v in vec)
        if total > self.fmt.wide_ubound:
            total, self.events = self.fmt.wide_ubound, self.events + 1
        return self.sqrt(total)

    def matvec(self, a: np.ndarray, vec: list[int]) -> list[int]:
        """``a @ vec``: saturating wide sums, then one cast per row in order."""
        sums, events = oracle_mac(a, np.array([vec]).T, self.fmt)
        self.events += events
        return [self.cast(row[0]) for row in sums]


def oracle_rotation(ar: OracleWords, a: int, b: int) -> tuple[int, int, int]:
    """One lane's Givens rotation (c, s, r) zeroing ``b``, in the solver's
    operation order.

    It divides by the larger-magnitude argument, so the ratio lies in
    [-1, 1]; the root is that of ``1 + tau**2`` held exactly with 2*FL
    fraction bits.  The (0, 0) lane runs every operation and then returns
    the identity rotation.
    """
    fmt = ar.fmt
    take_b = abs(b) > abs(a)
    big, small = (b, a) if take_b else (a, b)
    tau = ar.div(small, big)
    sign = fmt.one if big >= 0 else fmt.minus_one
    lead = ar.div(sign, ar.sqrt((1 << 2 * fmt.fraction_length) + tau * tau))
    other = ar.mul(lead, tau)
    r = ar.div(big, lead)
    if a == 0 and b == 0:
        return fmt.one, 0, 0
    return (other, lead, r) if take_b else (lead, other, r)


def oracle_lsmr_fixed(
    a: np.ndarray, b: list[int], iters: int, ar: OracleWords
) -> list[int]:
    """The fixed-point solution of ``a x ~= b`` for one column ``b`` of reps.

    Fong & Saunders, "LSMR: An iterative algorithm for sparse least-squares
    problems" (SIAM J. Sci. Comput. 33(5), 2011), Algorithm 1, truncated at
    ``iters`` iterations, in the solver's operation order.  Its stopping
    rule: the column leaves at the top of the iteration after a breakdown (a
    zero beta or alpha, or a zero ``rho_new`` or quotient denominator), and
    an iteration with a zero ``rho_new`` or denominator keeps ``x``.  So a
    stochastic column draws ``n + 1`` uniforms before the loop and
    ``2m + 5n + 11`` per iteration it runs.  ``ar`` carries the saturation
    count and the generator.
    """
    one = ar.fmt.one
    at = a.T
    beta = ar.norm(b)
    active = beta != 0
    u = [ar.div(v, beta) for v in b]
    w = ar.matvec(at, u)
    alpha = ar.norm(w)
    active = active and alpha != 0
    v = [ar.div(t, alpha) for t in w]
    zetabar = ar.mul(alpha, beta)
    alphabar = alpha
    rho = rhobar = cbar = one
    sbar = 0
    h = list(v)
    hbar = [0] * len(v)
    x = [0] * len(v)
    for _ in range(iters):
        if not active:
            break
        av = ar.matvec(a, v)
        s_vec = [ar.sub(p, ar.mul(q, alpha)) for p, q in zip(av, u)]
        beta = ar.norm(s_vec)
        u = [ar.div(t, beta) for t in s_vec]
        atu = ar.matvec(at, u)
        t_vec = [ar.sub(p, ar.mul(q, beta)) for p, q in zip(atu, v)]
        alpha = ar.norm(t_vec)
        v = [ar.div(t, alpha) for t in t_vec]

        c, s, rho_new = oracle_rotation(ar, alphabar, beta)
        alphabar = ar.mul(c, alpha)
        theta = ar.mul(s, alpha)
        cbar, sbar_new, rhobar_new = oracle_rotation(ar, ar.mul(cbar, rho_new), theta)
        zeta = ar.mul(cbar, zetabar)
        zetabar = ar.neg(ar.mul(sbar_new, zetabar))

        den_prev = ar.mul(rho, rhobar)
        den_cur = ar.mul(rho_new, rhobar_new)
        commit = den_prev != 0 and den_cur != 0 and rho_new != 0
        coef_hbar = ar.div(ar.mul(ar.mul(sbar, rho_new), rho_new), den_prev)
        hbar = [ar.sub(p, ar.mul(q, coef_hbar)) for p, q in zip(h, hbar)]
        coef_x = ar.div(zeta, den_cur)
        moved = [ar.add(p, ar.mul(q, coef_x)) for p, q in zip(x, hbar)]
        x = moved if commit else x
        coef_h = ar.div(theta, rho_new)
        h = [ar.sub(p, ar.mul(q, coef_h)) for p, q in zip(v, h)]
        rho, rhobar, sbar = rho_new, rhobar_new, sbar_new
        active = commit and beta != 0 and alpha != 0
    return x


# -- the real solver, one column in Python floats ----------------------------------

def oracle_rotation_real(a: float, b: float) -> tuple[float, float, float]:
    """Stable Givens rotation (c, s, r) zeroing ``b``.

    Divides by the larger-magnitude argument so the ratio stays in [-1, 1].
    The degenerate (0, 0) input returns the identity rotation.
    """
    if a == 0.0 and b == 0.0:
        return 1.0, 0.0, 0.0
    if abs(b) > abs(a):
        tau = a / b
        s = (1.0 if b >= 0 else -1.0) / math.sqrt(1.0 + tau * tau)
        return s * tau, s, b / s
    tau = b / a
    c = (1.0 if a >= 0 else -1.0) / math.sqrt(1.0 + tau * tau)
    return c, c * tau, a / c


def oracle_lsmr_real(a: np.ndarray, b: np.ndarray, iters: int) -> np.ndarray:
    """The float64 solution of ``a x ~= b`` for one column ``b``.

    Fong & Saunders' LSMR (Algorithm 1), truncated at ``iters`` iterations,
    written one column at a time with scalar rotations and branches instead
    of the solver's lane masks.  It stops as the solver does: a zero ``b``
    or initial alpha returns zero, an iteration whose ``rho_new`` or
    quotient denominator is zero stops with the previous iterate, and an
    iteration that exhausts the Krylov space (a zero beta or alpha) keeps
    its update and then stops.
    """
    x = np.zeros(a.shape[1])
    beta = float(np.linalg.norm(b))
    if beta == 0.0:
        return x
    u = b / beta
    w = a.T @ u
    alpha = float(np.linalg.norm(w))
    if alpha == 0.0:
        return x
    v = w / alpha
    zetabar = alpha * beta
    alphabar = alpha
    rho = rhobar = cbar = 1.0
    sbar = 0.0
    h = v.copy()
    hbar = np.zeros_like(v)
    for _ in range(iters):
        s_vec = a @ v - alpha * u
        beta = float(np.linalg.norm(s_vec))
        u = s_vec / beta if beta > 0.0 else s_vec
        t_vec = a.T @ u - beta * v
        alpha = float(np.linalg.norm(t_vec))
        if alpha > 0.0:
            v = t_vec / alpha
        c, s, rho_new = oracle_rotation_real(alphabar, beta)
        alphabar = c * alpha
        theta = s * alpha
        cbar, sbar_new, rhobar_new = oracle_rotation_real(cbar * rho_new, theta)
        zeta = cbar * zetabar
        zetabar = -sbar_new * zetabar
        if rho_new == 0.0 or rho * rhobar == 0.0 or rho_new * rhobar_new == 0.0:
            break
        hbar = h - (sbar * rho_new * rho_new) / (rho * rhobar) * hbar
        x = x + zeta / (rho_new * rhobar_new) * hbar
        h = v - theta / rho_new * h
        rho, rhobar, sbar = rho_new, rhobar_new, sbar_new
        if beta == 0.0 or alpha == 0.0:
            break
    return x


# -- linear-algebra oracles --------------------------------------------------------

def normal_equations_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense least-squares via (A^T A) x = A^T b, direct elimination."""
    return np.linalg.solve(a.T @ a, a.T @ b)


def normal_eq_relative_residual(a: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    g = a.T @ (a @ x - b)
    denom = np.linalg.norm(a) * np.linalg.norm(a.T @ b)
    return float(np.linalg.norm(g) / denom)


def conditioned_system(
    rng: np.random.Generator, m: int, n: int, cond: float
) -> np.ndarray:
    """Random m x n matrix with singular values spanning [1, cond]."""
    u, _ = np.linalg.qr(rng.standard_normal((m, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    svals = np.linspace(1.0, cond, n)
    return u @ np.diag(svals) @ v.T


# -- scalar minimiser oracles -------------------------------------------------------

def grid_min_hidden(a: float, b: float, gamma: float, beta: float,
                    step: float = 1e-4, lo: float = -10.0, hi: float = 10.0) -> float:
    """Brute-force minimum of gamma*(a - relu(z))^2 + beta*(z - b)^2."""
    z = np.arange(lo, hi + step, step)
    obj = gamma * (a - np.maximum(z, 0.0)) ** 2 + beta * (z - b) ** 2
    return float(obj.min())


def grid_min_output(y: float, b: float, lam: float, beta: float,
                    step: float = 1e-4, lo: float = -10.0, hi: float = 10.0) -> float:
    """Brute-force minimum of (z - y)^2 + beta*(z - b)^2 + lam*(z - b)."""
    z = np.arange(lo, hi + step, step)
    obj = (z - y) ** 2 + beta * (z - b) ** 2 + lam * (z - b)
    return float(obj.min())


def hidden_objective(z, a, gamma, beta, b):
    return gamma * (a - np.maximum(z, 0.0)) ** 2 + beta * (z - b) ** 2


def output_objective(z, y, lam, beta, b):
    return (z - y) ** 2 + beta * (z - b) ** 2 + lam * (z - b)


# -- fixtures -------------------------------------------------------------------------

@pytest.fixture(scope="session")
def iris():
    return load_csv(iris_path(), label_column=-1, has_header=True)
