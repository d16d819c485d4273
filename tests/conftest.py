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
