"""Bit-exact fixed-point scalars: formats, rounding conversions, saturating ops.

A value is stored as a two's-complement integer representation (a "rep"); a rep
``r`` in a format with ``FL`` fraction bits denotes the real number
``r * 2**-FL``.  Intermediate products and sums live in a "wide" container of
twice the word length.  Every operation saturates to the format bounds instead
of wrapping.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np


class RoundingMode(Enum):
    DOWN = "down"
    UP = "up"
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"


DETERMINISTIC_MODES = (RoundingMode.DOWN, RoundingMode.UP, RoundingMode.NEAREST)

_INT64_MAX = (1 << 63) - 1
_INT64_MIN = -(1 << 63)


class FixedFormatError(ValueError):
    """Invalid word-length / fraction-length combination."""


@dataclass(frozen=True)
class FixedFormat:
    """A two's-complement word of ``word_length`` bits, ``fraction_length`` of
    which sit right of the binary point.

    Only 16- and 32-bit words are supported; the fraction length must leave at
    least one integer bit beside the sign.
    """

    word_length: int
    fraction_length: int

    def __post_init__(self) -> None:
        if self.word_length not in (16, 32):
            raise FixedFormatError(f"word_length must be 16 or 32, got {self.word_length}")
        if not 0 < self.fraction_length < self.word_length:
            raise FixedFormatError(
                f"fraction_length must lie in (0, {self.word_length}), got {self.fraction_length}"
            )

    @property
    def integer_length(self) -> int:
        return self.word_length - self.fraction_length

    @cached_property
    def epsilon(self) -> float:
        """Smallest representable positive value, 2**-FL."""
        return 2.0 ** -self.fraction_length

    @cached_property
    def ubound(self) -> int:
        """Rep of the largest value: all bits set except the sign bit."""
        return (1 << (self.word_length - 1)) - 1

    @cached_property
    def lbound(self) -> int:
        """Rep of the smallest value: only the sign bit set."""
        return -(1 << (self.word_length - 1))

    @cached_property
    def ubound_value(self) -> float:
        return self.ubound * self.epsilon

    @cached_property
    def lbound_value(self) -> float:
        return self.lbound * self.epsilon

    @cached_property
    def one(self) -> int:
        return 1 << self.fraction_length

    @cached_property
    def minus_one(self) -> int:
        return -(1 << self.fraction_length)

    @cached_property
    def wide_ubound(self) -> int:
        """Upper bound of the 2x-word-length accumulator container."""
        return (1 << (2 * self.word_length - 1)) - 1

    @cached_property
    def wide_lbound(self) -> int:
        return -(1 << (2 * self.word_length - 1))

    def word(self, rep: int) -> "FixedWord":
        if not self.lbound <= rep <= self.ubound:
            raise ValueError(f"rep {rep} outside [{self.lbound}, {self.ubound}]")
        return FixedWord(int(rep), self)


FIXED16 = FixedFormat(16, 10)
FIXED32 = FixedFormat(32, 18)


class FixedWord(NamedTuple):
    """A rep bundled with its format."""

    rep: int
    fmt: FixedFormat

    @property
    def value(self) -> float:
        return self.rep * self.fmt.epsilon


def value_of(w: FixedWord) -> float:
    """Exact real value of a word: rep * 2**-FL."""
    return w.rep * w.fmt.epsilon


def make_stream(seed: int, *key: int) -> np.random.Generator:
    """Counter-based random stream derived from a global seed and a call-site key.

    Distinct keys give statistically independent streams, so concurrent
    consumers stay reproducible regardless of scheduling.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _require_rng(mode: RoundingMode, rng: np.random.Generator | None) -> None:
    if mode is RoundingMode.STOCHASTIC and rng is None:
        raise ValueError("stochastic rounding requires a random stream")


# -- conversions -------------------------------------------------------------

def convert(
    x: float,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
) -> FixedWord:
    """Quantize a real number, saturating at the format bounds.

    Down rounds toward -inf, up toward +inf, nearest rounds halves toward
    +inf; stochastic rounds up with probability proportional to the distance
    from the lower neighbour.  This is the one-element case of
    ``convert_array``.
    """
    return FixedWord(int(convert_array(x, fmt, mode, rng)), fmt)


def convert_array(
    x: np.ndarray,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """Vectorised ``convert``: float64 array in, int64 rep array out.

    Stochastic rounding draws exactly one uniform per cell, saturated or not.
    """
    _require_rng(mode, rng)
    x = np.asarray(x, dtype=np.float64)
    if np.isnan(x).any():
        raise ValueError("cannot convert NaN")
    _count_saturated(x, fmt.ubound_value, fmt.lbound_value, stats)
    # Clamp before scaling so inf and huge values never reach the int cast.
    # Scaling by a power of two is exact for in-range doubles, so floor and
    # the fractional remainder are computed without rounding error.  A
    # clamped cell is a bound's rep with a zero fraction, which no mode
    # rounds away from.
    y = _clamp(x, fmt.lbound_value, fmt.ubound_value, np.empty_like(x))
    y *= float(1 << fmt.fraction_length)
    low = np.floor(y, out=np.empty_like(y))  # out= keeps a 0-d result an array
    frac = y - low
    rep = low.astype(np.int64)
    if mode is RoundingMode.UP:
        rep += frac > 0.0
    elif mode is RoundingMode.NEAREST:
        rep += frac >= 0.5
    elif mode is RoundingMode.STOCHASTIC:
        rep += rng.random(x.shape) > 1.0 - frac
    return rep


# -- wide-container casts ----------------------------------------------------

def _wide(t: int) -> np.ndarray:
    """A wide scalar as a 0-d int64 array; values beyond int64 raise
    ``OverflowError``."""
    return np.asarray(t, dtype=np.int64)


def cast_wide_simple(t: int, fmt: FixedFormat) -> FixedWord:
    """Narrow an int64 wide sum (format-resolution fraction bits) back to a
    word.

    Saturates out-of-range sums; in-range sums pass through unchanged.  This
    is the one-element case of ``cast_wide_simple_array``.
    """
    return FixedWord(int(cast_wide_simple_array(_wide(t), fmt)), fmt)


def cast_wide(
    t: int,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
) -> FixedWord:
    """Narrow an int64 wide product (2*FL fraction bits) back to a word.

    The wide value is first checked against the format bounds shifted up by
    FL; otherwise the low FL bits are dropped with the requested rounding
    applied to the discarded fraction.  The shift is arithmetic, so
    truncation is toward -inf on the rep.  This is the one-element case of
    ``cast_wide_array``.
    """
    return FixedWord(int(cast_wide_array(_wide(t), fmt, mode, rng)), fmt)


class ColumnStreams:
    """One counter-based stream per column, drawn in exact blocks.

    A stochastic cast over a ``(..., p)`` array takes the next
    ``prod(shape[:-1])`` uniforms of each of the ``p`` column streams.  A
    stream yields its values strictly in order however they are requested,
    so drawing a block of uniforms per column into one ``(p, width)`` buffer
    gives every cast exactly the values that drawing from each column per
    cast would give, with one generator call per column per block instead of
    one per column per cast.  The generators must be distinct objects.

    The caller states its draw schedule: ``first`` uniforms per column
    (default ``block``), then ``block`` at a time.  A block is drawn only
    when the last one is used up and a non-empty cast needs more, and a cast
    that would run past the end of a block raises ``RuntimeError``, so no
    generator ever moves past a uniform that no cast took.  A column that
    stops leaves through ``keep`` and draws nothing more.
    """

    def __init__(
        self, gens: list[np.random.Generator], block: int, first: int | None = None
    ) -> None:
        if len({id(g) for g in gens}) != len(gens):
            raise ValueError("each column needs its own random stream")
        self._gens = gens
        self._block = block
        self._next = block if first is None else first  # width of the next block
        self._buf = np.empty((len(gens), 0))
        self._pos = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The next uniforms of every column as a view of ``shape``, valid
        until the next call."""
        k = math.prod(shape[:-1])
        if k and self._pos == self._buf.shape[1]:
            if self._buf.shape[1] != self._next:
                self._buf = np.empty((len(self._gens), self._next))
            for gen, row in zip(self._gens, self._buf):
                gen.random(out=row)
            self._pos = 0
            self._next = self._block
        if self._pos + k > self._buf.shape[1]:
            raise RuntimeError(f"a cast of {k} uniforms runs past the end of a block")
        block = self._buf[:, self._pos : self._pos + k]
        self._pos += k
        return block.T.reshape(shape)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the columns where ``mask`` is false, with their buffer rows."""
        self._gens = [gen for gen, kept in zip(self._gens, mask) if kept]
        self._buf = self._buf[mask]


def _count_saturated(
    t: np.ndarray, hi: float, lo: float, stats: "SaturationStats | None"
) -> None:
    """Count the cells at or beyond ``hi`` and ``lo``; the full count runs
    only when the extremes show there is one."""
    if stats is not None and t.size and (t.max() >= hi or t.min() <= lo):
        stats.count(int(np.count_nonzero(t >= hi)) + int(np.count_nonzero(t <= lo)))


def _clamp(t: np.ndarray, lo: float, hi: float, out: np.ndarray) -> np.ndarray:
    """``clip(t, lo, hi)`` into ``out``, without ``np.clip``'s per-call
    overhead."""
    np.maximum(t, lo, out=out)
    return np.minimum(out, hi, out=out)


def cast_wide_array(
    t: np.ndarray,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
    col_rngs: ColumnStreams | None = None,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """Vectorised ``cast_wide`` over an int64 array of wide products.

    Down, up and nearest add a bias of 0, ``2**FL - 1`` or ``2**(FL-1)`` to
    the sum clamped at the shifted bounds, then shift: the clamp saturates,
    and the bias cannot overflow a clamped sum.  Stochastic rounding draws
    exactly one uniform per cell, saturated or not, from ``rng`` or from
    column ``j``'s stream in ``col_rngs``, and clamps the rounded rep.
    """
    if mode is RoundingMode.STOCHASTIC and rng is None and col_rngs is None:
        raise ValueError("stochastic rounding requires a random stream")
    fl = fmt.fraction_length
    hi = fmt.ubound << fl
    lo = fmt.lbound << fl
    _count_saturated(t, hi, lo, stats)
    rep = np.empty_like(t)  # the out= arrays keep 0-d results arrays
    if mode is RoundingMode.STOCHASTIC:
        # Round up when u > 1 - (discarded fraction); both sides are exact.
        keep = (t & ((1 << fl) - 1)) * -fmt.epsilon
        keep += 1.0
        u = rng.random(t.shape) if col_rngs is None else col_rngs.take(t.shape)
        np.right_shift(t, fl, out=rep)
        rep += u > keep
        return _clamp(rep, fmt.lbound, fmt.ubound, rep)
    _clamp(t, lo, hi, rep)
    if mode is RoundingMode.UP:
        rep += (1 << fl) - 1
    elif mode is RoundingMode.NEAREST:
        rep += 1 << (fl - 1)
    rep >>= fl
    return rep


def cast_wide_simple_array(
    t: np.ndarray,
    fmt: FixedFormat,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """Vectorised ``cast_wide_simple``."""
    _count_saturated(t, fmt.ubound, fmt.lbound, stats)
    return _clamp(t, fmt.lbound, fmt.ubound, np.empty_like(t))


def saturating_acc_add(
    acc: np.ndarray,
    term: np.ndarray,
    fmt: FixedFormat,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """One accumulation step of the wide MAC: ``acc + term`` with saturation
    at the wide-container bounds instead of wrap-around.

    For 32-bit words the container is int64 and overflow is detected with the
    two's-complement sign trick; for 16-bit words the container is int32 and
    the int64 sum is simply clamped.
    """
    if fmt.word_length == 16:
        s = acc + term  # |values| < 2**31 + 2**30, no int64 overflow possible
        clipped = np.clip(s, fmt.wide_lbound, fmt.wide_ubound)
        if stats is not None:
            stats.count(int((s != clipped).sum()))
        return clipped
    s = acc + term  # may wrap
    ovf = ((acc ^ s) & (term ^ s)) < 0
    if ovf.any():
        s = np.where(ovf, np.where(term > 0, _INT64_MAX, _INT64_MIN), s)
        if stats is not None:
            stats.count(int(ovf.sum()))
    return s


# -- primitive arithmetic ----------------------------------------------------

def _check_fmt(a, b) -> FixedFormat:
    """The format two fixed operands (words or matrices) share."""
    if a.fmt != b.fmt:
        raise FixedFormatError(f"format mismatch: {a.fmt} vs {b.fmt}")
    return a.fmt


def add_f(a: FixedWord, b: FixedWord) -> FixedWord:
    """Saturating addition: exact wide sum, then narrow."""
    fmt = _check_fmt(a, b)
    return cast_wide_simple(a.rep + b.rep, fmt)


def sub_f(a: FixedWord, b: FixedWord) -> FixedWord:
    fmt = _check_fmt(a, b)
    return cast_wide_simple(a.rep - b.rep, fmt)


def neg_f(a: FixedWord) -> FixedWord:
    return cast_wide_simple(-a.rep, a.fmt)


def multiply_f(
    a: FixedWord,
    b: FixedWord,
    mode: RoundingMode = RoundingMode.NEAREST,
    rng: np.random.Generator | None = None,
) -> FixedWord:
    """Multiply via the exact wide product (2*FL fraction bits), then narrow
    with the given rounding mode."""
    fmt = _check_fmt(a, b)
    return cast_wide(a.rep * b.rep, fmt, mode, rng)


def trunc_div_array(num: np.ndarray, den: np.ndarray | int) -> np.ndarray:
    """C-style integer division: truncates toward zero."""
    q = np.abs(num) // np.abs(den)
    neg = (num < 0) != (np.asarray(den) < 0)
    return np.where(neg, -q, q)


def divide_f(a: FixedWord, b: FixedWord) -> FixedWord:
    """Saturating division: shift the dividend left by FL, integer-divide
    (truncating toward zero), then narrow the FL-fraction quotient."""
    fmt = _check_fmt(a, b)
    if b.rep == 0:
        raise ZeroDivisionError("fixed-point division by zero")
    q = trunc_div_array(_wide(a.rep << fmt.fraction_length), b.rep)
    return cast_wide_simple(q, fmt)


# -- square roots ------------------------------------------------------------

def integer_sqrt(t: int, fmt: FixedFormat) -> FixedWord:
    """Floor square root of an int64 wide sum of squares (2*FL fraction bits).

    Because sqrt(v * 2**-2FL) = sqrt(v) * 2**-FL, the integer square root of
    the wide rep is directly the FL-fraction result.  This is the one-element
    case of ``integer_sqrt_array``.
    """
    return FixedWord(int(integer_sqrt_array(_wide(t), fmt)), fmt)


def float_sqrt(t: int, fmt: FixedFormat) -> FixedWord:
    """Square root of an int64 wide sum of squares via double arithmetic.

    Converts the wide value to a double, takes the IEEE sqrt and quantizes
    back with nearest rounding.  This is the default norm path, and the
    one-element case of ``float_sqrt_array``.
    """
    return FixedWord(int(float_sqrt_array(_wide(t), fmt)), fmt)


def float_sqrt_array(
    t: np.ndarray, fmt: FixedFormat, stats: "SaturationStats | None" = None
) -> np.ndarray:
    """Vectorised ``float_sqrt`` over int64 wide values (must be >= 0)."""
    if (t < 0).any():
        raise ValueError("square root of a negative value")
    value = t.astype(np.float64) * (fmt.epsilon * fmt.epsilon)
    return convert_array(np.sqrt(value), fmt, RoundingMode.NEAREST, stats=stats)


_ISQRT_INT64_MAX = math.isqrt(_INT64_MAX)  # 3037000499


def _isqrt_array(t: np.ndarray) -> np.ndarray:
    """Floor square root of non-negative int64 values.

    The float64 root is within one of the exact floor root over the whole
    int64 range (the conversion of ``t`` rounds above 2**53, and the root
    rounds once), so one integer fix-up step in each direction makes it
    exact.  ``float64(t) <= 2**63``, whose root is below isqrt(2**63 - 1) + 1,
    so ``r * r`` fits int64; ``(r + 1)**2`` is only formed below that root.
    """
    r = np.floor(np.sqrt(t.astype(np.float64))).astype(np.int64)
    r -= r * r > t
    r1 = np.minimum(r + 1, _ISQRT_INT64_MAX)
    r += (r < _ISQRT_INT64_MAX) & (r1 * r1 <= t)
    return r


def integer_sqrt_array(
    t: np.ndarray, fmt: FixedFormat, stats: "SaturationStats | None" = None
) -> np.ndarray:
    """Vectorised ``integer_sqrt`` over int64 wide values (must be >= 0)."""
    if (t < 0).any():
        raise ValueError("square root of a negative value")
    return cast_wide_simple_array(_isqrt_array(t), fmt, stats)


class SaturationStats:
    """Mutable counter of saturation events observed by the kernels."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events = 0

    def count(self, n: int = 1) -> None:
        self.events += n

    def __repr__(self) -> str:
        return f"SaturationStats(events={self.events})"
