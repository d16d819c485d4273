"""Bit-level tests of formats, rounding conversion and saturating arithmetic."""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmlsmr.fixedpoint import (
    DETERMINISTIC_MODES,
    FIXED16,
    FIXED32,
    ColumnStreams,
    FixedFormat,
    FixedFormatError,
    FixedWord,
    RoundingMode,
    SaturationStats,
    _isqrt_array,
    cast_wide_array,
    cast_wide_simple_array,
    convert,
    convert_array,
    float_sqrt_array,
    integer_sqrt_array,
    make_stream,
    rekey,
    saturating_acc_add,
    stream_keys,
    trunc_div_array,
    value_of,
)
from admmlsmr.lsmr import _FixedOps
from conftest import (
    ScriptedStream,
    oracle_cast_wide,
    oracle_convert,
    oracle_stochastic_cast,
    oracle_trunc_div,
)

ALL_MODES = list(RoundingMode)
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def rng_for(mode, seed=0):
    return make_stream(seed, 99) if mode is RoundingMode.STOCHASTIC else None


def fixed_ops(fmt, mode=RoundingMode.NEAREST, rng=None):
    """The solver's word arithmetic; a stochastic cast of one column draws
    from ``rng``."""
    streams = None if rng is None else ColumnStreams([rng], fmt, 1)
    return _FixedOps(fmt, mode, streams, "float", None)


def wide_cells(fmt):
    """Wide values: the shifted bounds, the word bounds and their neighbours,
    zero, the int64 extremes, a rep near the bounds with a discarded fraction of zero, one
    unit, just under, at or over a half, or all ones, or anything within
    twice the shifted bounds."""
    fl = fmt.fraction_length
    hi = fmt.ubound << fl
    lo = fmt.lbound << fl
    ub, lb = fmt.ubound, fmt.lbound
    edges = [hi, hi - 1, hi + 1, lo, lo - 1, lo + 1, ub, ub - 1, ub + 1, lb, lb - 1, lb + 1,
             0, INT64_MIN, INT64_MAX]
    half = 1 << (fl - 1)
    fractions = st.sampled_from([0, 1, half - 1, half, half + 1, (1 << fl) - 1])
    reps = st.sampled_from([lb - 1, lb, -1, 0, 1, ub - 1, ub])
    return st.one_of(
        st.sampled_from(edges),
        st.builds(lambda r, f: (r << fl) + f, reps | st.integers(lb, ub), fractions),
        st.integers(2 * lo, 2 * hi),
    )


def wide_array(draw, fmt, shape):
    cells = draw(st.lists(wide_cells(fmt), min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(cells, dtype=np.int64).reshape(shape)


@st.composite
def wide_operands(draw):
    """A format and a wide array of it, 0-d and empty shapes included."""
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    shape = draw(st.sampled_from([(), (0,), (1,), (7,), (0, 3), (3, 4)]))
    return fmt, wide_array(draw, fmt, shape)


EXACT = 1 << 53  # trunc_div_array's precondition on numerator magnitudes
SHAPES = [(), (0,), (1,), (7,), (0, 3), (3, 4)]


def int_array(cells: list[int], shape: tuple[int, ...]) -> np.ndarray:
    return np.array(cells, dtype=np.int64).reshape(shape)


def denominators(fmt):
    """Word reps used as divisors: one, the bounds, zero, or any rep."""
    edges = [1, -1, fmt.ubound, -fmt.ubound, fmt.lbound, 0]
    return st.sampled_from(edges) | st.integers(fmt.lbound, fmt.ubound)


def near_multiple(draw, den, limit):
    """``k * den + d`` with ``d`` in {-1, 0, 1} and magnitude below ``limit``."""
    k_max = (limit - 2) // max(abs(den), 1)
    k = draw(st.sampled_from([0, min(1, k_max), k_max, -k_max]) | st.integers(-k_max, k_max))
    return k * den + draw(st.sampled_from([-1, 0, 1]))


@st.composite
def raw_divisions(draw):
    """``trunc_div_array`` operands: numerators anywhere below 2**53 in
    magnitude, rep numerators shifted by FL, and near multiples of the
    denominator; denominators are non-zero word reps or huge values."""
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    shape = draw(st.sampled_from(SHAPES))
    nums, dens = [], []
    for _ in range(math.prod(shape)):
        den = draw(denominators(fmt).filter(bool) | st.sampled_from([EXACT, -EXACT, 1 << 62]))
        num = draw(st.one_of(
            st.sampled_from([EXACT - 1, 1 - EXACT, 0]),
            st.integers(1 - EXACT, EXACT - 1),
            st.integers(fmt.lbound, fmt.ubound).map(lambda r: r << fmt.fraction_length),
            st.just(None),
        ))
        nums.append(near_multiple(draw, den, EXACT) if num is None else num)
        dens.append(den)
    return fmt, int_array(nums, shape), int_array(dens, shape)


@st.composite
def word_divisions(draw):
    """Rep numerators and denominators of one format, shaped alike; a
    numerator is anything in range, a bound, or a near multiple of its
    denominator."""
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    shape = draw(st.sampled_from(SHAPES))
    nums, dens = [], []
    for _ in range(math.prod(shape)):
        den = draw(denominators(fmt))
        edges = st.sampled_from([fmt.lbound, fmt.ubound, 0, None])
        num = draw(edges | st.integers(fmt.lbound, fmt.ubound))
        if num is None:
            num = near_multiple(draw, den, fmt.ubound + 1)
        nums.append(num)
        dens.append(den)
    return fmt, int_array(nums, shape), int_array(dens, shape)


@st.composite
def stochastic_cast_runs(draw):
    """A format, a draw schedule (``first``, then ``block`` uniforms per
    column), a run of 1-D (p,) and 2-D (k, p) casts over p columns that fills
    the first block and then whole blocks, with empty casts anywhere,
    boundaries included, and a seed."""
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    p = draw(st.integers(1, 4))
    first = draw(st.integers(1, 8))
    block = draw(st.integers(1, 8))
    shapes = []
    for width in [first] + [block] * draw(st.integers(0, 3)):
        while width:
            if draw(st.booleans()):
                shapes.append((0, p))
            k = draw(st.integers(1, width))
            shapes.append((p,) if k == 1 and draw(st.booleans()) else (k, p))
            width -= k
    if draw(st.booleans()):
        shapes.append((0, p))
    casts = [wide_array(draw, fmt, s) for s in shapes]
    return fmt, casts, first, block, draw(st.integers(0, 2**32 - 1))


class TestFormat:
    def test_fixed16_constants(self):
        assert FIXED16.integer_length == 6
        assert FIXED16.epsilon == 2.0**-10
        assert FIXED16.ubound == 0x7FFF
        assert FIXED16.lbound == -(2**15)
        assert FIXED16.one == 1 << 10

    def test_fixed32_bit_patterns(self):
        assert FIXED32.ubound & 0xFFFFFFFF == 0x7FFFFFFF
        assert FIXED32.lbound & 0xFFFFFFFF == 0x80000000
        assert FIXED32.one & 0xFFFFFFFF == 0x00040000
        assert FIXED32.minus_one & 0xFFFFFFFF == 0xFFFC0000

    def test_fixed32_range(self):
        assert FIXED32.ubound_value == 2.0**13 - 2.0**-18
        assert FIXED32.lbound_value == -(2.0**13)

    # a word of sign and fraction bits only cannot hold one: (16, 15), (32, 31);
    # FL above 53 - WL shifts reps past trunc_div_array's exact range: (32, 22)
    @pytest.mark.parametrize(
        "wl,fl", [(16, 0), (16, 15), (16, 16), (32, 22), (32, 30), (32, 31), (32, 40), (8, 4),
                  (64, 18), (16.0, 10), (32, True)]
    )
    def test_invalid_formats_rejected(self, wl, fl):
        with pytest.raises(FixedFormatError):
            FixedFormat(wl, fl)

    def test_numpy_integer_lengths_become_ints(self):
        # an int64 word length would wrap the wide bound's shift
        fmt = FixedFormat(np.int64(32), np.int32(18))
        assert fmt == FIXED32 and type(fmt.word_length) is type(fmt.fraction_length) is int

    def test_word_range_check(self):
        with pytest.raises(ValueError):
            FIXED16.word(2**15)
        # int() would truncate a float rep to a word silently
        for rep in (1.5, True, FIXED16.lbound - 1):
            with pytest.raises(ValueError, match=r"^rep must be an integer in \[-32768, 32767\], got "):
                FIXED16.word(rep)
        assert FIXED16.word(np.int64(-28254)) == (-28254, FIXED16)


class TestConvert:
    def test_worked_example_16bit(self):
        # 23.1337890625 is exactly 23689 * 2^-10, so every mode agrees.
        for mode in ALL_MODES:
            w = convert(23.1337890625, FIXED16, mode, rng_for(mode))
            assert w.rep == 23689
            assert w.rep & 0xFFFF == 0b0101_1100_1000_1001

    def test_negative_value_roundtrip(self):
        w = FIXED16.word(-28254)
        assert value_of(w) == -27.591796875
        assert w.rep & 0xFFFF == 0b1001_0001_1010_0010

    def test_zero_exact_all_modes(self):
        for mode in ALL_MODES:
            for fmt in (FIXED16, FIXED32):
                assert convert(0.0, fmt, mode, rng_for(mode)).rep == 0

    def test_saturates_large_input(self):
        for mode in ALL_MODES:
            assert convert(1e10, FIXED32, mode, rng_for(mode)).rep == 0x7FFFFFFF
            assert convert(-1e10, FIXED32, mode, rng_for(mode)).rep == FIXED32.lbound
        assert convert(math.inf, FIXED16).rep == FIXED16.ubound
        assert convert(-math.inf, FIXED16).rep == FIXED16.lbound

    def test_point_three_fixtures(self):
        # 0.3 * 1024 = 307.2, checked against the rational oracle as well.
        assert convert(0.3, FIXED16, RoundingMode.DOWN).rep == 307
        assert convert(0.3, FIXED16, RoundingMode.UP).rep == 308
        assert convert(0.3, FIXED16, RoundingMode.NEAREST).rep == 307
        for mode in DETERMINISTIC_MODES:
            assert convert(0.3, FIXED16, mode).rep == oracle_convert(0.3, FIXED16, mode)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            convert(math.nan, FIXED32)

    def test_stochastic_needs_stream(self):
        with pytest.raises(ValueError):
            convert(0.3, FIXED16, RoundingMode.STOCHASTIC)

    def test_mode_must_be_a_rounding_mode(self):
        # a mode's name matches no mode and would reach the stochastic branch
        with pytest.raises(ValueError, match="^mode must be a RoundingMode, got 'nearest'$"):
            convert_array(np.array([0.3]), FIXED32, "nearest")

    def test_matches_rational_oracle(self):
        rng = np.random.default_rng(5)
        xs = rng.uniform(-40.0, 40.0, size=2000)
        for fmt in (FIXED16, FIXED32):
            for mode in DETERMINISTIC_MODES:
                for x in xs[:400]:
                    assert convert(float(x), fmt, mode).rep == oracle_convert(
                        float(x), fmt, mode
                    )

    def test_array_path_matches_scalar(self):
        rng = np.random.default_rng(6)
        xs = np.concatenate([rng.uniform(-1e5, 1e5, 500), rng.uniform(-30, 30, 500)])
        for fmt in (FIXED16, FIXED32):
            for mode in DETERMINISTIC_MODES:
                want = [oracle_convert(float(x), fmt, mode) for x in xs]
                assert convert_array(xs, fmt, mode).tolist() == want
                assert [convert(float(x), fmt, mode).rep for x in xs] == want

    def test_monotone_in_input(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(-25.0, 25.0, size=5000))
        for mode in DETERMINISTIC_MODES:
            reps = convert_array(xs, FIXED16, mode)
            assert (np.diff(reps) >= 0).all()

    def test_mode_ordering(self):
        rng = np.random.default_rng(8)
        xs = rng.uniform(FIXED16.lbound_value, FIXED16.ubound_value, size=10000)
        down = convert_array(xs, FIXED16, RoundingMode.DOWN)
        near = convert_array(xs, FIXED16, RoundingMode.NEAREST)
        up = convert_array(xs, FIXED16, RoundingMode.UP)
        assert (down <= near).all() and (near <= up).all()

    def test_error_within_epsilon(self):
        rng = np.random.default_rng(9)
        for fmt in (FIXED16, FIXED32):
            xs = rng.uniform(fmt.lbound_value, fmt.ubound_value, size=5000)
            for mode in DETERMINISTIC_MODES:
                reps = convert_array(xs, fmt, mode)
                err = np.abs(reps * fmt.epsilon - xs)
                assert err.max() <= fmt.epsilon

    def test_roundtrip_exact_on_grid(self):
        rng = np.random.default_rng(10)
        reps = rng.integers(FIXED16.lbound, FIXED16.ubound + 1, size=300)
        values = reps * FIXED16.epsilon
        for mode in ALL_MODES:
            got = convert_array(values, FIXED16, mode, rng_for(mode))
            assert got.tolist() == reps.tolist()

    def test_stochastic_unbiased(self):
        n = 100_000
        gen = make_stream(123, 1)
        for x in (0.37, -4.821, 7.0009):
            reps = convert_array(np.full(n, x), FIXED16, RoundingMode.STOCHASTIC, gen)
            mean = (reps * FIXED16.epsilon).mean()
            assert abs(mean - x) <= 4 * FIXED16.epsilon / math.sqrt(n)

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    @pytest.mark.parametrize("mode", ALL_MODES, ids=[m.value for m in ALL_MODES])
    def test_saturation_counted(self, fmt, mode):
        # A cell at or beyond a bound is one saturation event and holds the
        # bound's rep; one ulp inside a bound is neither.
        hi, lo = fmt.ubound_value, fmt.lbound_value
        edges = [math.inf, -math.inf, hi, lo, np.nextafter(hi, 0), np.nextafter(lo, 0),
                 np.nextafter(hi, math.inf), np.nextafter(lo, -math.inf), 0.0, 1e300, -1e300]
        rng = np.random.default_rng(11)
        xs = np.concatenate([edges, rng.uniform(2 * lo, 2 * hi, 200), rng.uniform(lo, hi, 200)])
        stats = SaturationStats()
        reps = convert_array(xs, fmt, mode, rng_for(mode), stats)
        high, low = xs >= hi, xs <= lo
        assert stats.events == int(np.count_nonzero(high | low))
        assert (reps[high] == fmt.ubound).all() and (reps[low] == fmt.lbound).all()


class TestCastWide:
    def test_exact_when_no_discarded_bits(self):
        t = np.int64(23689 << FIXED16.fraction_length)
        for mode in DETERMINISTIC_MODES:
            assert cast_wide_array(t, FIXED16, mode) == 23689
        # a stochastic cast's last axis is its columns
        streams = ColumnStreams([make_stream(0, 99)], FIXED16, 1)
        got = cast_wide_array(np.full((1, 1), t), FIXED16, RoundingMode.STOCHASTIC, streams)
        assert got.tolist() == [[23689]]

    def test_mode_must_be_a_rounding_mode(self):
        # a mode's name matches no mode and would round to nearest
        with pytest.raises(ValueError, match="^mode must be a RoundingMode, got 'up'$"):
            cast_wide_array(np.array([[5]]), FIXED32, "up")

    @pytest.mark.parametrize("n_streams", [1, 2])
    def test_stochastic_cast_needs_a_column_axis(self, n_streams):
        # a 0-d array has no column axis: one stream would cast it silently,
        # two would fail in a reshape
        streams = ColumnStreams([make_stream(0, j) for j in range(n_streams)], FIXED16, 1)
        with pytest.raises(ValueError, match="needs a last axis of columns"):
            cast_wide_array(np.array(5), FIXED16, RoundingMode.STOCHASTIC, streams)

    @pytest.mark.parametrize("n_streams, shape", [(2, (2, 3)), (3, (2, 2))])
    def test_stochastic_cast_needs_one_stream_per_column(self, n_streams, shape):
        # the check comes before any draw, so no stream moves
        gens = [make_stream(0, j) for j in range(n_streams)]
        streams = ColumnStreams(gens, FIXED16, 1)
        with pytest.raises(
            ValueError, match=f"cast of {shape[-1]} columns needs as many streams, got {n_streams}$"
        ):
            cast_wide_array(np.zeros(shape, np.int64), FIXED16, RoundingMode.STOCHASTIC, streams)
        assert [g.random() for g in gens] == [make_stream(0, j).random() for j in range(n_streams)]

    def test_simple_cast_cases(self):
        t = np.array([2**40, 5, FIXED32.lbound - 1])
        assert cast_wide_simple_array(t, FIXED32).tolist() == [FIXED32.ubound, 5, FIXED32.lbound]

    def test_rounding_against_oracle(self):
        rng = np.random.default_rng(11)
        for fmt in (FIXED16, FIXED32):
            wide = rng.integers(fmt.wide_lbound, fmt.wide_ubound, size=20000)
            for mode in DETERMINISTIC_MODES:
                got = cast_wide_array(wide, fmt, mode)
                want = [oracle_cast_wide(int(t), fmt, mode) for t in wide]
                assert got.tolist() == want

    def test_scalar_matches_array(self):
        rng = np.random.default_rng(12)
        wide = rng.integers(FIXED32.wide_lbound, FIXED32.wide_ubound, size=2000)
        for mode in DETERMINISTIC_MODES:
            want = [oracle_cast_wide(int(t), FIXED32, mode) for t in wide]
            assert cast_wide_array(wide, FIXED32, mode).tolist() == want
            assert [int(cast_wide_array(t, FIXED32, mode)) for t in wide] == want

    def test_stochastic_up_probability(self):
        # A discarded fraction of 0.75 eps must round up about 75% of the time.
        fl = FIXED32.fraction_length
        n = 100_000
        t = np.full((n, 1), (100 << fl) + (3 << (fl - 2)))
        streams = ColumnStreams([make_stream(3, 44)], FIXED32, n)
        got = cast_wide_array(t, FIXED32, RoundingMode.STOCHASTIC, streams)
        ups = np.count_nonzero(got == 101)
        assert abs(ups / n - 0.75) < 0.01

    def test_saturation_counted(self):
        stats = SaturationStats()
        wide = np.array([FIXED16.ubound << 10, 0, (FIXED16.lbound - 5) << 10])
        out = cast_wide_array(wide, FIXED16, RoundingMode.NEAREST, stats=stats)
        assert out.tolist() == [FIXED16.ubound, 0, FIXED16.lbound]
        assert stats.events == 2

    @settings(max_examples=300, deadline=None)
    @given(wide_operands())
    def test_fused_rounding_matches_oracle(self, operands):
        fmt, t = operands
        hi = fmt.ubound << fmt.fraction_length
        lo = fmt.lbound << fmt.fraction_length
        cells = [int(v) for v in t.ravel()]
        for mode in DETERMINISTIC_MODES:
            stats = SaturationStats()
            got = cast_wide_array(t, fmt, mode, stats=stats)
            assert got.shape == t.shape
            assert got.ravel().tolist() == [oracle_cast_wide(v, fmt, mode) for v in cells]
            assert stats.events == sum(v >= hi or v <= lo for v in cells)
        stats = SaturationStats()
        got = cast_wide_simple_array(t, fmt, stats)
        assert got.shape == t.shape
        assert got.ravel().tolist() == [min(max(v, fmt.lbound), fmt.ubound) for v in cells]
        assert stats.events == sum(v >= fmt.ubound or v <= fmt.lbound for v in cells)


def oracle_stochastic_convert(x: np.ndarray, fmt, u: np.ndarray) -> list[int]:
    """Stochastic conversion of each cell with its uniform, in exact
    rationals: saturated cells take the bound, others round up when
    ``u > 1 - frac``."""
    out = []
    for v, r in zip(x.ravel().tolist(), u.ravel().tolist()):
        if v >= fmt.ubound_value or v <= fmt.lbound_value:
            out.append(oracle_convert(v, fmt, RoundingMode.NEAREST))
            continue
        scaled = Fraction(v) * fmt.one
        low = math.floor(scaled)
        out.append(low + (Fraction(r) > 1 - (scaled - low)))
    return out


STEPS = ("inside", "on", "beyond", "far")


def outward(step: str, unit: int) -> int:
    """Offset past a bound: one step inside, on it, one step or two format
    units beyond."""
    return {"inside": -1, "on": 0, "beyond": 1, "far": 2 * unit}[step]


@pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
@pytest.mark.parametrize(
    "top, bottom",
    [(s, s) for s in STEPS]
    + [(s, "inside") for s in STEPS[1:]]
    + [("inside", s) for s in STEPS[1:]],
)
class TestExtremesAtTheBounds:
    """Arrays whose largest and smallest cells sit one step inside, exactly
    on, one step beyond or far beyond the upper and lower bounds, the rest
    strictly inside: a cell at or beyond a bound saturates and is counted,
    and the clamp, which runs only then, must leave no trace on the result
    or the input."""

    P = 3

    def cells(self, hi, lo, top, bottom, unit, seed):
        t = np.random.default_rng(seed).integers(lo + 1, hi, (4, self.P))
        t[0, 0] = hi + outward(top, unit)
        t[3, self.P - 1] = lo - outward(bottom, unit)
        return t

    @staticmethod
    def runs(modes=(None,)):
        """Each kernel runs in each mode once without and once with a fresh
        counter."""
        for mode in modes:
            yield mode, None
            yield mode, SaturationStats()

    def test_cast_wide_array(self, fmt, top, bottom):
        fl = fmt.fraction_length
        hi, lo = fmt.ubound << fl, fmt.lbound << fl
        t = self.cells(hi, lo, top, bottom, 1 << fl, 31)
        saturated = int(np.count_nonzero((t >= hi) | (t <= lo)))
        before = t.copy()
        for mode, stats in self.runs(ALL_MODES):
            if mode is RoundingMode.STOCHASTIC:
                gens = [make_stream(5, j) for j in range(self.P)]
                streams = ColumnStreams(gens, fmt, t.shape[0])
                got = cast_wide_array(t, fmt, mode, col_rngs=streams, stats=stats)
                want = oracle_stochastic_cast(t, fmt, [make_stream(5, j) for j in range(self.P)])
            else:
                got = cast_wide_array(t, fmt, mode, stats=stats)
                want = [[oracle_cast_wide(int(v), fmt, mode) for v in row] for row in t]
            assert got.tolist() == np.asarray(want).tolist()
            assert stats is None or stats.events == saturated
            assert np.array_equal(t, before)

    def test_cast_wide_simple_array(self, fmt, top, bottom):
        t = self.cells(fmt.ubound, fmt.lbound, top, bottom, 1, 32)
        before = t.copy()
        for _, stats in self.runs():
            got = cast_wide_simple_array(t, fmt, stats)
            assert got.tolist() == np.clip(before, fmt.lbound, fmt.ubound).tolist()
            assert stats is None or stats.events == int(
                np.count_nonzero((before >= fmt.ubound) | (before <= fmt.lbound)))
            assert np.array_equal(t, before)

    def test_convert_array(self, fmt, top, bottom):
        hi, lo = fmt.ubound_value, fmt.lbound_value
        # A step is one ulp of the double; far is two epsilons.
        x = np.random.default_rng(33).uniform(lo, hi, (4, self.P))
        x[0, 0] = {"inside": np.nextafter(hi, 0.0), "on": hi,
                   "beyond": np.nextafter(hi, math.inf), "far": hi + 2 * fmt.epsilon}[top]
        x[3, self.P - 1] = {"inside": np.nextafter(lo, 0.0), "on": lo,
                            "beyond": np.nextafter(lo, -math.inf),
                            "far": lo - 2 * fmt.epsilon}[bottom]
        saturated = int(np.count_nonzero((x >= hi) | (x <= lo)))
        before = x.copy()
        for mode, stats in self.runs(ALL_MODES):
            got = convert_array(x, fmt, mode, rng_for(mode, 7), stats)
            if mode is RoundingMode.STOCHASTIC:
                want = oracle_stochastic_convert(x, fmt, rng_for(mode, 7).random(x.shape))
            else:
                want = [oracle_convert(float(v), fmt, mode) for v in x.ravel()]
            assert got.ravel().tolist() == want
            assert stats is None or stats.events == saturated
            assert np.array_equal(x, before)


class TestArithmetic:
    def test_add_trivial(self):
        ops = fixed_ops(FIXED32)
        one = np.array([FIXED32.one])
        assert ops.add(one, one).tolist() == [2 * FIXED32.one]
        assert ops.add(np.array([FIXED32.ubound]), np.array([1])).tolist() == [FIXED32.ubound]

    def test_add_random_against_clamped_reals(self):
        rng = np.random.default_rng(13)
        for fmt in (FIXED16, FIXED32):
            a = rng.integers(fmt.lbound, fmt.ubound + 1, size=100_000)
            b = rng.integers(fmt.lbound, fmt.ubound + 1, size=100_000)
            got = cast_wide_simple_array(a + b, fmt)
            want = np.clip(a + b, fmt.lbound, fmt.ubound)
            assert np.array_equal(got, want)
            assert np.array_equal(fixed_ops(fmt).add(a, b), want)

    def test_sub_and_neg(self):
        ops = fixed_ops(FIXED32)
        one = np.array([FIXED32.one])
        assert ops.sub(ops.add(one, one), one).tolist() == [FIXED32.one]
        assert ops.neg(np.array([FIXED32.lbound])).tolist() == [FIXED32.ubound]

    def test_multiply_identity_and_zero(self):
        rng = np.random.default_rng(14)
        reps = rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=200)
        one = np.full_like(reps, FIXED32.one)
        for mode in DETERMINISTIC_MODES:
            assert fixed_ops(FIXED32, mode).mul(one, reps).tolist() == reps.tolist()
        assert not fixed_ops(FIXED32).mul(np.zeros_like(reps), reps).any()

    def test_multiply_exact_fraction(self):
        # 1.5 * 2.25 = 3.375; every factor and the product sit on the grid.
        a = convert(1.5, FIXED32)
        b = convert(2.25, FIXED32)
        assert a.rep == 3 << 17 and b.rep == 9 << 16
        for mode in ALL_MODES:
            ops = fixed_ops(FIXED32, mode, rng_for(mode))
            got = ops.mul(np.array([a.rep]), np.array([b.rep]))
            assert (got * FIXED32.epsilon).tolist() == [3.375]

    def test_multiply_against_oracle(self):
        rng = np.random.default_rng(15)
        reps = rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=(3000, 2))
        a, b = reps[:800, 0], reps[:800, 1]
        for mode in DETERMINISTIC_MODES:
            got = fixed_ops(FIXED32, mode).mul(a, b)
            want = [oracle_cast_wide(int(x) * int(y), FIXED32, mode) for x, y in zip(a, b)]
            assert got.tolist() == want

    def test_divide_identity_and_half(self):
        ops = fixed_ops(FIXED32)
        rng = np.random.default_rng(16)
        reps = rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=300)
        assert ops.div(reps, np.full_like(reps, FIXED32.one)).tolist() == reps.tolist()
        two = convert(2.0, FIXED32).rep
        assert ops.div(np.array([FIXED32.one]), np.array([two])).tolist() == [FIXED32.one // 2]

    def test_divide_within_epsilon_of_real(self):
        rng = np.random.default_rng(17)
        for fmt in (FIXED16, FIXED32):
            a, b = [], []
            while len(a) < 20000:
                a.append(int(rng.integers(fmt.lbound, fmt.ubound + 1)))
                b.append(int(rng.integers(fmt.one // 4, fmt.ubound)))
                if rng.random() < 0.5:
                    b[-1] = -b[-1]
            a, b = np.array(a), np.array(b)
            got = fixed_ops(fmt).div(a, b) * fmt.epsilon
            real = (a * fmt.epsilon) / (b * fmt.epsilon)
            clamped = np.clip(real, fmt.lbound_value, fmt.ubound_value)
            assert np.abs(got - clamped).max() <= fmt.epsilon

    @settings(max_examples=300, deadline=None)
    @given(raw_divisions())
    @example((FIXED32, np.array([EXACT - 1, 1 - EXACT, 3 * FIXED32.ubound + 1]),
              np.array([3, -FIXED32.ubound, FIXED32.ubound])))
    @example((FIXED32, np.array([-7, 7, -(EXACT - 1)]), np.array([2, -2, FIXED32.lbound])))
    def test_trunc_div_matches_exact_oracle(self, operands):
        _, num, den = operands
        got = trunc_div_array(num, den)
        assert got.dtype == np.int64 and got.shape == num.shape
        want = [oracle_trunc_div(int(n), int(d)) for n, d in zip(num.ravel(), den.ravel())]
        assert got.ravel().tolist() == want

    @pytest.mark.parametrize("wl,fl", [(16, 14), (32, 21)])
    def test_trunc_div_exact_at_widest_fraction_length(self, wl, fl):
        # The widest admitted FL shifts reps up to 2**(WL - 1 + FL) <= 2**52.
        # Each numerator falls 1 to 3 short of a multiple of its odd divisor,
        # a quotient just below an integer, which a rounded division of a
        # numerator past 2**53 would carry up (as at FL 24 in 32 bits).
        fmt = FixedFormat(wl, fl)
        assert -(fmt.lbound << fl) == 1 << (wl - 1 + fl) <= 1 << 52
        rng = np.random.default_rng(21)
        dens = rng.integers(fmt.one, fmt.ubound, 2000) | 1
        reps = np.array([(-int(k) * pow(fmt.one, -1, int(d))) % int(d)
                         for d, k in zip(dens, rng.integers(1, 4, dens.size))])
        num = np.where(rng.random(dens.size) < 0.5, -reps, reps) << fl
        want = [oracle_trunc_div(int(n), int(d)) for n, d in zip(num, dens)]
        assert trunc_div_array(num, dens).tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(word_divisions())
    @example((FIXED32, np.array([FIXED32.ubound, FIXED32.lbound, 5, -9]),
              np.array([FIXED32.lbound, -1, 0, FIXED32.ubound])))
    @example((FIXED16, np.array(FIXED16.lbound), np.array(FIXED16.ubound)))
    def test_fixed_division_matches_exact_oracle(self, operands):
        # Shift by FL, divide truncating, clamp to the word; a cell at or
        # beyond a bound is one saturation, and ops read a zero divisor as
        # the word one.
        fmt, num, den = operands
        fl = fmt.fraction_length
        quotients = [oracle_trunc_div(int(n) << fl, int(d) or fmt.one)
                     for n, d in zip(num.ravel(), den.ravel())]
        want = [min(max(q, fmt.lbound), fmt.ubound) for q in quotients]
        stats = SaturationStats()
        ops = _FixedOps(fmt, RoundingMode.NEAREST, None, "float", stats)
        got = ops.div(num, den)
        assert got.shape == num.shape
        assert got.ravel().tolist() == want
        assert stats.events == sum(q >= fmt.ubound or q <= fmt.lbound for q in quotients)


class TestSqrt:
    def test_integer_sqrt_fixtures(self):
        one_sq = FIXED32.one * FIXED32.one
        assert integer_sqrt_array(np.array([one_sq, 0]), FIXED32).tolist() == [FIXED32.one, 0]

    def test_integer_sqrt_is_floor_root(self):
        rng = np.random.default_rng(18)
        ts = rng.integers(0, FIXED32.wide_ubound, size=3000)
        for t, n in zip(ts.tolist(), integer_sqrt_array(ts, FIXED32).tolist()):
            if n < FIXED32.ubound:
                assert n * n <= t < (n + 1) * (n + 1)
            else:
                assert FIXED32.ubound * FIXED32.ubound <= t

    def test_vectorised_root_matches_math_isqrt(self):
        # squares and their neighbours where float64 stops holding them
        # exactly (k near 2**26.5) and at the top of int64 (k near
        # isqrt(2**63 - 1) = 3037000499), plus random values
        int64_max = (1 << 63) - 1
        ts = [0, 1, 2, int64_max]
        for centre in (1 << 26, 94906265, 1 << 31, 3037000499):
            for k in range(centre - 4, centre + 5):
                ts += [t for t in (k * k - 1, k * k, k * k + 1) if 0 <= t <= int64_max]
        rng = np.random.default_rng(20)
        ts += [int(t) for t in rng.integers(0, int64_max, size=2000, dtype=np.int64)]
        ts += [int(t) for t in rng.integers(0, 1 << 56, size=2000, dtype=np.int64)]
        roots = [math.isqrt(t) for t in ts]
        t = np.array(ts, dtype=np.int64)
        assert _isqrt_array(t).tolist() == roots
        stats = SaturationStats()
        got = integer_sqrt_array(t, FIXED32, stats)
        assert got.tolist() == [min(r, FIXED32.ubound) for r in roots]
        assert stats.events == sum(r >= FIXED32.ubound for r in roots)

    def test_float_path_fixtures(self):
        t25 = 25 << (2 * FIXED32.fraction_length)
        got = float_sqrt_array(np.array([FIXED32.one * FIXED32.one, t25]), FIXED32)
        assert got.tolist() == [FIXED32.one, 5 * FIXED32.one]

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_float_root_edges_match_oracle(self, fmt):
        # Roots at and next to a half (k**2 + k, k**2 + k + 1) and at squares,
        # powers of two and their neighbours, and sums past ubound**2.  Above
        # about 2**44, sqrt(k**2 + k) rounds to exactly k + 1/2, which must
        # round up: ties to even or a plain floor fail here.
        top = fmt.wide_ubound
        ks = list(range(50)) + [fmt.ubound + d for d in range(-3, 3)]
        for centre in (1 << 8, 1 << 13, 1 << 20, 1 << 26, 94906265, 1 << 30):
            ks += range(centre - 3, centre + 4)
        rng = np.random.default_rng(23)
        ks += rng.integers(1, math.isqrt(top), size=300).tolist()
        ts = [t for k in ks for t in (k * k, k * k + k, k * k + k + 1)]
        ts += [(1 << e) + d for e in range(2 * fmt.word_length - 1) for d in (-1, 0, 1)]
        ub2 = fmt.ubound * fmt.ubound
        ts += [ub2, ub2 + 1, ub2 + fmt.ubound, ub2 + fmt.ubound + 1, top - 1, top]
        ts = [t for t in ts if 0 <= t <= top]
        roots = [math.sqrt(float(t) * fmt.epsilon**2) for t in ts]
        stats = SaturationStats()
        got = float_sqrt_array(np.array(ts, dtype=np.int64), fmt, stats)
        assert got.tolist() == [oracle_convert(r, fmt, RoundingMode.NEAREST) for r in roots]
        assert stats.events == sum(r >= fmt.ubound_value for r in roots)

    def test_paths_agree_within_epsilon(self):
        rng = np.random.default_rng(19)
        max_t = (FIXED32.ubound * FIXED32.ubound)  # keep true root in range
        ts = rng.integers(0, max_t, size=100_000, dtype=np.int64)[:5000]
        a = integer_sqrt_array(ts, FIXED32)
        b = float_sqrt_array(ts, FIXED32)
        assert np.abs(a - b).max() <= 1


class TestAccumulator:
    def test_int64_saturation_positive(self):
        stats = SaturationStats()
        big = np.array([(1 << 62)], dtype=np.int64)
        acc = np.array([(1 << 62)], dtype=np.int64)
        out = saturating_acc_add(acc, big, FIXED32, stats)
        assert out[0] == (1 << 63) - 1
        assert stats.events == 1
        # saturate-and-proceed: a later negative term pulls back down
        out2 = saturating_acc_add(out, np.array([-5], dtype=np.int64), FIXED32)
        assert out2[0] == (1 << 63) - 6

    def test_int64_saturation_negative(self):
        out = saturating_acc_add(
            np.array([-(1 << 62)], dtype=np.int64),
            np.array([-(1 << 62) - 7], dtype=np.int64),
            FIXED32,
        )
        assert out[0] == -(1 << 63)

    def test_int32_clamp_for_16bit_words(self):
        stats = SaturationStats()
        acc = np.array([2**30], dtype=np.int64)
        term = np.array([2**30 + 12], dtype=np.int64)
        out = saturating_acc_add(acc, term, FIXED16, stats)
        assert out[0] == 2**31 - 1
        assert stats.events == 1

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_matches_python_int_clamp(self, fmt, data):
        # Cells summing exactly to a wide bound (no event), one past it (one
        # event) and one inside it, at both bounds, always, then random
        # cells and more such cells.  An event is a sum strictly beyond a
        # bound.
        lo, hi = fmt.wide_lbound, fmt.wide_ubound
        wide = st.integers(lo, hi)
        edge = st.tuples(st.integers(1, hi), st.sampled_from([-1, 0, 1]), st.booleans())

        def at_bound(cell):
            # a pair whose sum lies ``step`` beyond the upper or lower bound
            term, step, upper = cell
            return (hi + step - term, term) if upper else (lo - step + term, -term)

        pairs = [at_bound((hi // 3, step, upper)) for step in (-1, 0, 1) for upper in (True, False)]
        pairs += data.draw(st.lists(
            st.one_of(st.tuples(wide, wide), edge.map(at_bound)), max_size=33,
        ))
        acc = np.array([a for a, _ in pairs], dtype=np.int64)
        term = np.array([t for _, t in pairs], dtype=np.int64)
        sums = [a + t for a, t in pairs]
        stats = SaturationStats()
        got = saturating_acc_add(acc, term, fmt, stats)
        assert got.tolist() == [min(max(s, lo), hi) for s in sums]
        assert stats.events == sum(s > hi or s < lo for s in sums)


class TestStreams:
    def test_same_key_same_draws(self):
        a = make_stream(42, 1, 2, 3).random(8)
        b = make_stream(42, 1, 2, 3).random(8)
        assert a.tolist() == b.tolist()

    def test_distinct_keys_differ(self):
        a = make_stream(42, 1).random(8)
        b = make_stream(42, 2).random(8)
        assert a.tolist() != b.tolist()

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_scalar_calls_draw_like_one_array_call(self, fmt):
        # One uniform per value, saturated or not: a run of ``convert``
        # calls on one stream consumes it exactly as one array call does.
        rng = np.random.default_rng(20)
        mode = RoundingMode.STOCHASTIC
        xs = rng.uniform(2 * fmt.lbound_value, 2 * fmt.ubound_value, 400)
        xs[::9] = math.inf
        xs[1::9] = -math.inf
        xs[2::9] = fmt.ubound_value
        gen = make_stream(7, fmt.word_length)
        scalars = [convert(float(x), fmt, mode, gen).rep for x in xs]
        array = convert_array(xs, fmt, mode, make_stream(7, fmt.word_length))
        assert scalars == array.tolist()

    @settings(max_examples=200, deadline=None)
    @given(stochastic_cast_runs())
    @example((FIXED32, [np.array([[1, 2], [3, 4], [5, 6]])], 3, 1, 0))
    @example((FIXED16, [np.zeros((2, 1), np.int64), np.zeros((0, 1), np.int64),
                        np.zeros((3, 1), np.int64), np.zeros((0, 1), np.int64)], 2, 3, 5))
    def test_block_draws_match_per_cast_draws(self, run):
        # Column streams drawn in the casts' exact schedule give every cast,
        # saturation count and final stream position of drawing from each
        # column per cast; an empty cast at a boundary draws nothing.
        fmt, casts, first, block, seed = run
        p = casts[0].shape[-1]
        mine = [make_stream(seed, j) for j in range(p)]
        theirs = [make_stream(seed, j) for j in range(p)]
        streams = ColumnStreams(mine, fmt, block, first)
        got_stats, want_stats = SaturationStats(), SaturationStats()
        for t in casts:
            got = cast_wide_array(t, fmt, RoundingMode.STOCHASTIC, col_rngs=streams, stats=got_stats)
            want = oracle_stochastic_cast(t, fmt, theirs, want_stats)
            assert got.shape == t.shape
            assert got.tolist() == want.tolist()
        assert got_stats.events == want_stats.events
        assert [g.random() for g in mine] == [g.random() for g in theirs]
        # A cast that runs past the end of the first block raises.
        straddle = ColumnStreams([make_stream(seed, p)], fmt, block, first)
        straddle.take((first - 1, 1))
        with pytest.raises(RuntimeError):
            straddle.take((2, 1))

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_stochastic_rounding_edges(self, fmt):
        # Uniforms at, just around and far from each cell's threshold
        # 1 - f * 2**-FL (exactly on it must not round up), for cells inside,
        # on and beyond both bounds, through the column streams.
        fl, one = fmt.fraction_length, fmt.one
        cells, uniforms = [], []
        for f in (1, one // 2 - 1, one // 2, one - 1):
            threshold = 1.0 - f * fmt.epsilon
            us = (0.0, 2.0**-53, threshold, np.nextafter(threshold, 1.0),
                  np.nextafter(threshold, 0.0), 1.0 - 2.0**-53)
            # rep parts inside the bounds (one at the top rounds onto the
            # upper bound), then just beyond each bound
            for k in (0, -1, 3, fmt.ubound - 1, fmt.lbound, fmt.ubound, fmt.lbound - 1):
                cells += [(k << fl) + f] * len(us)
                uniforms += us
        for t in (fmt.ubound << fl, fmt.lbound << fl):  # on a bound
            us = (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53)
            cells += [t] * len(us)
            uniforms += us
        p = 3
        pad = -len(cells) % p
        t = np.array(cells + [0] * pad, dtype=np.int64).reshape(-1, p)
        u = np.array(uniforms + [0.0] * pad).reshape(-1, p)
        want_stats = SaturationStats()
        want = oracle_stochastic_cast(
            t, fmt, [ScriptedStream(u[:, j]) for j in range(p)], want_stats
        )
        # two rep parts beyond a bound x 4 fractions x 6 uniforms, and the
        # 8 cells on a bound
        assert want_stats.events == 2 * 4 * 6 + 8

        gens = [ScriptedStream(u[:, j]) for j in range(p)]
        streams = ColumnStreams(gens, fmt, len(t))
        stats = SaturationStats()
        got = cast_wide_array(t, fmt, RoundingMode.STOCHASTIC, col_rngs=streams, stats=stats)
        assert got.tolist() == want.tolist()
        assert stats.events == want_stats.events
        assert all(gen.pos == len(t) for gen in gens)

    def test_shared_generator_rejected(self):
        gen = make_stream(1, 2)
        with pytest.raises(ValueError):
            ColumnStreams([gen, gen], FIXED32, 4)

    def test_word_value_property(self):
        w = FixedWord(FIXED16.one, FIXED16)
        assert w.value == 1.0


def seed_sequence_key(seed, key):
    """The oracle: numpy's own key derivation."""
    return np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(2, np.uint64)


def plain(state):
    """A bit generator's state dict with its arrays as lists, for ``==``."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


# seeds of one, two, three and more than four 32-bit words
SEEDS = st.one_of(
    st.just(0),
    st.integers(1, 2**32 - 1),
    st.integers(2**32, 2**64 - 1),
    st.integers(2**64, 2**160),
)
KEY_WORDS = st.one_of(st.integers(0, 9), st.integers(2**32, 2**40), st.integers(0, 2**70))
COLUMNS = st.lists(
    st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1)), max_size=12
)


class TestStreamKeys:
    @settings(max_examples=200, deadline=None)
    @given(SEEDS, st.lists(KEY_WORDS, max_size=3), COLUMNS)
    @example(0, [3, 1], [0, 1, 2**32 - 1])
    @example(2**32 - 1, [3, 2**32 + 5], [])
    @example(2**64 + 3, [2, 2**33], [7])
    @example(2**128 + 9, [], [0, 5])
    @example(2**200 + 3, [3, 2**40], [0, 2**32 - 1])
    def test_keys_match_seed_sequence(self, seed, key, cols):
        # Every column's key equals numpy's SeedSequence with the column as
        # the last spawn-key word.
        got = stream_keys(seed, tuple(key), cols)
        want = [seed_sequence_key(seed, (*key, c)).tolist() for c in cols]
        assert got.dtype == np.uint64 and got.shape == (len(cols), 2)
        assert got.tolist() == want

    @pytest.mark.parametrize("seed, key", [(0, ()), (5, (3, 7, 2)), (2**64 + 1, (2, 2**33))])
    def test_rekeyed_generator_is_a_fresh_stream(self, seed, key):
        # A used generator, restarted under a key, is in the very state of
        # a new stream of that key (counter, key, buffer and the cached
        # half-word alike) and draws the same values.
        gen = make_stream(99, 1)
        gen.random(5)
        gen.integers(0, 10, dtype=np.uint32)  # leaves half a word cached
        assert gen.bit_generator.state["has_uint32"] == 1
        rekey(gen, seed_sequence_key(seed, key).tolist())
        fresh = make_stream(seed, *key)
        oracle = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=key)))
        assert plain(gen.bit_generator.state) == plain(oracle.bit_generator.state)
        assert plain(fresh.bit_generator.state) == plain(oracle.bit_generator.state)
        want = oracle.random(64).tolist()
        assert gen.random(64).tolist() == want
        assert fresh.random(64).tolist() == want

    @pytest.mark.parametrize(
        "seed, key, cols",
        [
            (-1, (), [0]),
            (1.5, (), [0]),
            ("3", (), [0]),
            (True, (3,), [0]),
            (0, (3, True), [0]),
            (0, (3, -1), [0]),
            (0, (3, 2.0), [0]),
            (0, (3,), [-1]),
            (0, (3,), [2**32]),
            (0, (3,), [2**64]),
            (0, (3,), [1.5]),
            (0, (3,), 4),
        ],
        ids=["negative-seed", "float-seed", "str-seed", "bool-seed", "bool-word",
             "negative-word", "float-word",
             "negative-col", "two-word-col", "huge-col", "float-col", "scalar-cols"],
    )
    def test_bad_input_rejected(self, seed, key, cols):
        with pytest.raises(ValueError):
            stream_keys(seed, key, cols)
