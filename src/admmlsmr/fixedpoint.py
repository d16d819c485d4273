"""Bit-exact fixed-point array kernels: formats, rounding conversions,
narrowing casts, truncating division and square roots; and the random
streams that stochastic rounding draws from.

A value is stored as a two's-complement integer representation (a "rep"); a rep
``r`` in a format with ``FL`` fraction bits denotes the real number
``r * 2**-FL``.  The kernels work cellwise on int64 rep arrays of any shape,
0-d included, but a stochastic cast's last axis is its columns, one random
stream each.  Intermediate products and sums live in a "wide" container of
twice the word length.  Every kernel saturates to the format bounds instead
of wrapping.  ``convert`` is the one scalar entry point: it quantizes one real
number into a ``FixedWord``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np


class RoundingMode(Enum):
    DOWN = "down"
    UP = "up"
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"


DETERMINISTIC_MODES = (RoundingMode.DOWN, RoundingMode.UP, RoundingMode.NEAREST)

_INT64_MAX = (1 << 63) - 1


class FixedFormatError(ValueError):
    """Invalid word-length / fraction-length combination."""


def _integer(name: str, value, low=None, high=None, error=ValueError) -> int:
    """``value`` as a Python int in ``[low, high]``; numpy integers pass,
    bools, other types and values out of range raise ``error``.  ``high``
    needs ``low``; ``low`` alone may be None, 0 or 1."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or low is not None and value < low or high is not None and value > high):
        if high is None:
            want = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}[low]
        else:
            want = f"an integer in [{low}, {high}]"
        raise error(f"{name} must be {want}, got {value!r}")
    return int(value)


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
        wl = _integer("word_length", self.word_length, error=FixedFormatError)
        if wl not in (16, 32):
            raise FixedFormatError(f"word_length must be 16 or 32, got {wl}")
        fl = _integer("fraction_length", self.fraction_length, 1, wl - 2, FixedFormatError)
        # stored as ints: an int64 word length would overflow the wide bounds
        object.__setattr__(self, "word_length", wl)
        object.__setattr__(self, "fraction_length", fl)

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
        return FixedWord(_integer("rep", rep, self.lbound, self.ubound), self)


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
    return w.value


# -- random streams ----------------------------------------------------------
#
# A stream is numpy's Philox generator under a 128-bit key, from counter zero
# (Salmon et al., "Parallel Random Numbers: As Easy as 1, 2, 3", SC 2011), so
# the key is all of a stream's state worth deriving.  The key of a seed and a
# spawn key is the one ``SeedSequence(entropy=seed, spawn_key=key)
# .generate_state(2, np.uint64)`` gives.  numpy hashes 32-bit entropy words
# into a pool of four, and its hash constant advances with the number of
# hash calls alone, never with the data; so keys that differ only in their
# last word share the pool of every word before it, and the last words of
# many keys mix as one uint32 array.  numpy's constants:
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MASK32 = 0xFFFFFFFF
_ZEROS = (0, 0, 0, 0)


def _words(name: str, value) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer, as numpy
    splits entropy; zero is one word.  Anything else raises ``ValueError``
    naming ``name``."""
    value = _integer(name, value, low=0)
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, start: int) -> np.ndarray:
    """Hash constants ``start`` to ``start + 4``, ``init * mult**k mod
    2**32``, as a read-only ``(5, 1)`` uint32 array."""
    consts = np.array(
        [init * pow(mult, k, 1 << 32) & _MASK32 for k in range(start, start + _POOL + 1)],
        np.uint32,
    )[:, None]
    consts.flags.writeable = False
    return consts


# Both hashes take uint32 arrays, whose products wrap modulo 2**32 as numpy's
# C code does; the mask then changes nothing.

def _hashmix(value, const, next_const):
    """numpy's hash of one word, entered with constant ``const``, which it
    advances to ``next_const``."""
    value = (value ^ const) * next_const & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_L * x - _MIX_R * y) & _MASK32
    return r ^ r >> 16


def stream_keys(seed: int, key: Sequence[int], cols) -> np.ndarray:
    """Philox keys of ``SeedSequence(entropy=seed, spawn_key=(*key, c))`` for
    every ``c`` in ``cols``, as a ``(len(cols), 2)`` uint64 array.

    numpy mixes the seed and the key words into the pool of
    ``SeedSequence(entropy=seed, spawn_key=key)``; only the column words are
    mixed here, as one array, and hashed out.  The seed and each key value
    must be non-negative integers, and each column an integer below 2**32
    (one word); anything else raises ``ValueError``.
    """
    # numpy pads a seed of fewer than four words with zeros before a spawn
    # key, and hashes zeros into the pool words a seed alone leaves empty;
    # each word before the column's took four hash calls either way
    n_words = max(len(_words("seed", seed)), _POOL) + sum(len(_words("key word", k)) for k in key)
    col_words = np.asarray(cols)
    if col_words.ndim != 1 or col_words.size and (
        col_words.dtype.kind not in "iu" or col_words.min() < 0
        or col_words.max() > _MASK32
    ):
        raise ValueError(f"columns must be integers in [0, 2**32), got {cols!r}")
    pool = np.random.SeedSequence(seed, spawn_key=key).pool[:, None]
    # the column word's four hashes, one row each, over all columns
    hc = _hash_constants(_INIT_A, _MULT_A, _POOL * n_words)
    pool = _mix(pool, _hashmix(col_words.astype(np.uint32), hc[:-1], hc[1:]))
    hc = _hash_constants(_INIT_B, _MULT_B, 0)
    state = _hashmix(pool, hc[:-1], hc[1:])
    # numpy joins the words into uint64s little-endian on every platform
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64)


def rekey(gen: np.random.Generator, key: Sequence[int]) -> np.random.Generator:
    """Restart ``gen``'s Philox bit generator under ``key`` at counter zero
    with an empty buffer: the state a new generator under that key starts
    in.  ``key`` is two ints; a Python list sets them fastest."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": key},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return gen


def make_stream(seed: int, *key: int) -> np.random.Generator:
    """The counter-based random stream of a global seed and a call-site key:
    ``Generator(Philox(SeedSequence(entropy=seed, spawn_key=key)))``.

    Distinct keys give statistically independent streams, so each consumer
    of randomness draws from a stream that no other consumer touches.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))


def _require_rng(
    mode: RoundingMode, rng: "np.random.Generator | ColumnStreams | None"
) -> None:
    if not isinstance(mode, RoundingMode):
        raise ValueError(f"mode must be a RoundingMode, got {mode!r}")
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
    # Clamp before scaling so inf and huge values never reach the int cast.
    # Scaling by a power of two is exact for in-range doubles, so floor and
    # the fractional remainder are computed without rounding error.  A
    # clamped cell is a bound's rep with a zero fraction, which no mode
    # rounds away from.
    y = np.empty_like(x)  # the out= arrays keep 0-d results arrays
    x = _saturate(x, fmt.lbound_value, fmt.ubound_value, stats, y)
    y = np.multiply(x, float(1 << fmt.fraction_length), out=y)
    low = np.floor(y, out=np.empty_like(y))
    rep = low.astype(np.int64)
    if mode is RoundingMode.DOWN:
        return rep
    frac = np.subtract(y, low, out=y)
    if mode is RoundingMode.UP:
        rep += frac > 0.0
    elif mode is RoundingMode.NEAREST:
        rep += frac >= 0.5
    else:
        rep += rng.random(y.shape) > 1.0 - frac
    return rep


# -- wide-container casts ----------------------------------------------------

class ColumnStreams:
    """One counter-based stream per column, drawn in exact blocks and turned
    into stochastic-rounding biases.

    A stochastic cast over a ``(..., p)`` array takes the biases of the next
    ``prod(shape[:-1])`` uniforms of each of the ``p`` column streams.  A
    stream yields its values strictly in order however they are requested,
    so drawing a block of uniforms per column gives every cast exactly the
    values that drawing from each column per cast would give, with one
    generator call per column per block instead of one per column per cast.
    Each block becomes an int64 ``(width, p)`` array of biases for ``fmt``
    (``_stochastic_bias``) once, so a cast takes a contiguous slice.  The
    generators must be distinct objects.

    The caller states its draw schedule: ``first`` uniforms per column
    (default ``block``), then ``block`` at a time.  A block is drawn only
    when the last one is used up and a non-empty cast needs more, and a cast
    that would run past the end of a block raises ``RuntimeError``, so no
    generator ever moves past a uniform that no cast took.  A column that
    stops leaves through ``keep`` and draws nothing more.
    """

    def __init__(
        self,
        gens: list[np.random.Generator],
        fmt: FixedFormat,
        block: int,
        first: int | None = None,
    ) -> None:
        if len({id(g) for g in gens}) != len(gens):
            raise ValueError("each column needs its own random stream")
        self._gens = gens
        self._fl = fmt.fraction_length
        self._block = block
        self._next = block if first is None else first  # width of the next block
        self._bias = np.empty((0, len(gens)), dtype=np.int64)
        self._pos = 0

    def take(self, shape: tuple[int, ...]) -> np.ndarray:
        """The biases of every column's next uniforms as a view of
        ``shape``, valid until the next call.  The last axis of ``shape``
        is the columns, one per stream, so it needs one."""
        if not shape:
            raise ValueError("a stochastic cast needs a last axis of columns, got a 0-d array")
        if shape[-1] != len(self._gens):
            raise ValueError(
                f"a stochastic cast of {shape[-1]} columns needs as many streams, "
                f"got {len(self._gens)}"
            )
        k = math.prod(shape[:-1])
        if k and self._pos == len(self._bias):
            buf = np.empty((len(self._gens), self._next))
            for gen, row in zip(self._gens, buf):
                gen.random(out=row)
            self._bias = _stochastic_bias(buf.T, self._fl)
            self._pos = 0
            self._next = self._block
        if self._pos + k > len(self._bias):
            raise RuntimeError(f"a cast of {k} uniforms runs past the end of a block")
        block = self._bias[self._pos : self._pos + k]
        self._pos += k
        return block.reshape(shape)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the columns where ``mask`` is false, with their biases."""
        self._gens = [gen for gen, kept in zip(self._gens, mask) if kept]
        self._bias = self._bias[:, mask]


def _stochastic_bias(u: np.ndarray, fl: int) -> np.ndarray:
    """The stochastic-rounding bias of each uniform ``u`` in [0, 1), as a
    C-ordered int64 array: ``d = max(ceil(u * 2**fl), 1) - 1``, which lies
    in ``[0, 2**fl - 1]``.  ``u`` is overwritten.

    Adding ``d`` to a wide value ``t`` with discarded fraction ``f`` (its
    low ``fl`` bits) and shifting right by ``fl`` rounds up exactly when
    ``u > 1 - f * 2**-fl``, the rule of Gupta et al., "Deep Learning with
    Limited Numerical Precision" (ICML 2015): ``u * 2**fl`` is exact, so
    ``u > 1 - f * 2**-fl`` holds exactly when ``ceil(u * 2**fl) + f >
    2**fl``, that is when ``f + d >= 2**fl``, and since ``d < 2**fl``,
    ``(t + d) >> fl = (t >> fl) + [f + d >= 2**fl]``.  The ``max`` maps
    ``u = 0``, whose ceiling is 0, to ``d = 0``: ceilings 0 and 1 both mean
    never rounding up.
    """
    d = np.ceil(np.multiply(u, float(1 << fl), out=u), out=u)
    np.maximum(d, 1.0, out=d)
    d -= 1.0
    return d.astype(np.int64, order="C")


def _saturate(
    t: np.ndarray,
    lo: float,
    hi: float,
    stats: "SaturationStats | None",
    out: np.ndarray | None = None,
) -> np.ndarray:
    """``t`` with every cell at or beyond ``lo`` or ``hi`` clamped to that
    bound, each such cell counted as one event into ``stats``, if given.

    Only the two extremes are computed when no cell is at or beyond a bound,
    and then ``t`` itself is returned.  Otherwise the clamp goes into
    ``out``, or into a new array if ``out`` is None; a 0-d ``t`` gives a
    0-d array.
    """
    # the ufuncs' own reduce skips numpy's Python wrappers, and the initial
    # values give an empty array extremes strictly inside the bounds
    if (np.maximum.reduce(t, axis=None, initial=lo) < hi
            and np.minimum.reduce(t, axis=None, initial=hi) > lo):
        return t
    if stats is not None:
        stats.count(int(np.count_nonzero(t >= hi)) + int(np.count_nonzero(t <= lo)))
    # np.clip costs more per call; out= keeps a 0-d result an array
    out = np.maximum(t, lo, out=np.empty_like(t) if out is None else out)
    return np.minimum(out, hi, out=out)


def cast_wide_array(
    t: np.ndarray,
    fmt: FixedFormat,
    mode: RoundingMode = RoundingMode.NEAREST,
    col_rngs: ColumnStreams | None = None,
    stats: "SaturationStats | None" = None,
    *,
    checked: bool = True,
) -> np.ndarray:
    """Narrow an int64 array of wide products (2*FL fraction bits) back to
    word reps.

    Every mode takes the same three steps.  A sum at or beyond the format
    bounds shifted up by FL saturates: it is clamped to the shifted bound,
    only when some cell reached one.  Then a bias is added and the low FL
    bits are dropped by an arithmetic shift, which truncates toward -inf on
    the rep.  The bias is 0 for down, ``2**FL - 1`` for up and
    ``2**(FL-1)`` for nearest; stochastic rounding draws one bias per cell,
    saturated or not, from ``col_rngs``: the last axis of ``t`` is its
    columns, so a stochastic cast needs one, while the other modes take any
    shape.  A clamped sum is a bound's rep with a zero fraction, and a bias
    below ``2**FL`` neither rounds it away from the bound nor overflows it.

    ``checked=False`` skips the saturation step, for a caller that has
    proved every cell strictly inside the shifted bounds; the result, the
    draws and the (zero) count are then those of the checked cast.
    """
    _require_rng(mode, col_rngs)
    fl = fmt.fraction_length
    rep = np.empty_like(t)  # the out= arrays keep 0-d results arrays
    if checked:
        t = _saturate(t, fmt.lbound << fl, fmt.ubound << fl, stats, rep)
    if mode is RoundingMode.DOWN:
        return np.right_shift(t, fl, out=rep)
    if mode is RoundingMode.STOCHASTIC:
        bias = col_rngs.take(t.shape)
    else:
        bias = (1 << fl) - 1 if mode is RoundingMode.UP else 1 << (fl - 1)
    return np.right_shift(np.add(t, bias, out=rep), fl, out=rep)


def cast_wide_simple_array(
    t: np.ndarray,
    fmt: FixedFormat,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """Narrow an int64 array of wide sums (FL fraction bits, the format's own
    resolution) back to word reps.

    Cells beyond the format bounds saturate; in-range cells pass through
    unchanged.  When every cell is already a rep of the format, the result
    is ``t`` itself.
    """
    return _saturate(t, fmt.lbound, fmt.ubound, stats)


def saturating_acc_add(
    acc: np.ndarray,
    term: np.ndarray,
    fmt: FixedFormat,
    stats: "SaturationStats | None" = None,
) -> np.ndarray:
    """One accumulation step of the wide MAC: ``acc + term`` with saturation
    at the wide-container bounds instead of wrap-around.

    ``acc`` holds wide values, within the bounds; ``term`` any int64 values.
    A sum strictly beyond a bound is replaced by that bound and counts as
    one event; a sum exactly at a bound does not count.  Each cell compares
    ``acc`` with the bound less the part of ``term`` that pushes toward it,
    which stays in int64 for any int64 term, so one step serves both word
    lengths, and the int64 sum may wrap only in the cells it replaces.
    """
    hi, lo = fmt.wide_ubound, fmt.wide_lbound
    over = acc > hi - np.maximum(term, 0)
    under = acc < lo - np.minimum(term, 0)
    s = acc + term
    if over.any() or under.any():
        s = np.where(over, hi, np.where(under, lo, s))
        if stats is not None:
            stats.count(int(np.count_nonzero(over)) + int(np.count_nonzero(under)))
    return s


# -- division ----------------------------------------------------------------

def trunc_div_array(num: np.ndarray, den: np.ndarray | int) -> np.ndarray:
    """C-style integer division: truncates toward zero.  Preconditions,
    unchecked: ``den`` is non-zero and ``|num| < 2**53``.  Its callers are
    ``_FixedOps.div`` and ``_FixedOps.unit``, which read a zero divisor as
    one, and the fixed Givens rotation, whose ranges keep its divisors
    non-zero; each numerator there is a word rep shifted by FL, below 2**49
    in FIXED32 and 2**25 in FIXED16.

    The int64 result is ``trunc(float64(num) / float64(den))``, which is
    exact.  ``num`` converts exactly, and so does ``den`` when
    ``|den| < 2**53``.  An integer quotient then has magnitude at most
    ``|num|``, so the correctly rounded division returns it exactly.  A
    non-integer quotient lies at least ``1/|den|`` from every integer, while
    the rounding error is at most ``|num|/|den| * 2**-53 < 1/|den|``, so the
    rounded quotient stays strictly between the same two integers.  When
    ``|den| >= 2**53 > |num|`` the quotient, exact or rounded, is below one
    in magnitude and truncates to zero.
    """
    return np.asarray(num / den).astype(np.int64)


# -- square roots ------------------------------------------------------------

def float_sqrt_array(
    t: np.ndarray, fmt: FixedFormat, stats: "SaturationStats | None" = None
) -> np.ndarray:
    """Square roots of int64 wide sums of squares (2*FL fraction bits, >= 0
    unchecked) via double arithmetic.

    Takes the IEEE sqrt of each wide value, saturates it at the upper bound
    and rounds it to the nearest rep with ``_round_root``.  In units of
    2**-FL the root is ``sqrt(t * 2**-2FL) * 2**FL``, which is exactly
    ``sqrt(t)``, since scaling by an even power of two commutes with a
    correctly rounded root; and since scaling by 2**-FL is exact, checking
    ``sqrt(t)`` against the upper bound's rep is exact too.  A root is never
    negative or NaN, so only that bound can be reached.  This is the default
    norm path.
    """
    root = np.sqrt(t, out=np.empty(t.shape))
    return _round_root(_saturate(root, fmt.lbound, fmt.ubound, stats, root))


def _round_root(root: np.ndarray) -> np.ndarray:
    """Round float64 roots to the nearest int64, halves up, overwriting
    ``root``.  Each root must be 0 or lie in ``[1, 2**52)``, as the root of
    a non-negative int64 does.

    Truncating the float sum ``root + 1/2`` gives ``floor(root + 1/2)``
    exactly.  At 0 the sum is exact.  A root in ``[2**(e-1), 2**e)``, with
    ``e <= 52``, and 1/2 are multiples of the root's ulp, so a sum below
    ``2**e`` is exact; a sum at or above ``2**e`` lies below ``2**e + 1/2``
    and rounds to a double in ``[2**e, 2**e + 1)``, whose floor is the exact
    sum's.
    """
    return np.add(root, 0.5, out=root).astype(np.int64)


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
    """Floor square roots of int64 wide sums of squares (2*FL fraction bits,
    >= 0 unchecked).

    Because sqrt(v * 2**-2FL) = sqrt(v) * 2**-FL, the integer square root of
    a wide rep is directly the FL-fraction result; roots beyond the upper
    bound saturate.
    """
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
