"""Bit-level tests of formats, rounding conversion and saturating arithmetic."""
from __future__ import annotations

import math

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
    add_f,
    cast_wide,
    cast_wide_array,
    cast_wide_simple,
    cast_wide_simple_array,
    convert,
    convert_array,
    divide_f,
    float_sqrt,
    integer_sqrt,
    integer_sqrt_array,
    make_stream,
    multiply_f,
    neg_f,
    saturating_acc_add,
    sub_f,
    value_of,
)
from conftest import oracle_cast_wide, oracle_convert, oracle_stochastic_cast

ALL_MODES = list(RoundingMode)
INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1


def rng_for(mode, seed=0):
    return make_stream(seed, 99) if mode is RoundingMode.STOCHASTIC else None


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


@st.composite
def stochastic_cast_runs(draw):
    """A format, a run of 1-D (p,) and 2-D (k, p) casts over p columns, a
    block size below, at or above the largest cast's need, and a seed."""
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    p = draw(st.integers(1, 4))
    shapes = draw(st.lists(
        st.one_of(st.just((p,)), st.integers(0, 6).map(lambda k: (k, p))),
        min_size=1, max_size=8,
    ))
    need = max(math.prod(s[:-1]) for s in shapes)
    block = draw(st.sampled_from([max(need - 1, 1), need, need + draw(st.integers(1, 9))]))
    casts = [wide_array(draw, fmt, s) for s in shapes]
    return fmt, casts, block, draw(st.integers(0, 2**32 - 1))


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

    @pytest.mark.parametrize("wl,fl", [(16, 0), (16, 16), (32, 40), (8, 4), (64, 18)])
    def test_invalid_formats_rejected(self, wl, fl):
        with pytest.raises(FixedFormatError):
            FixedFormat(wl, fl)

    def test_word_range_check(self):
        with pytest.raises(ValueError):
            FIXED16.word(2**15)


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


class TestCastWide:
    def test_exact_when_no_discarded_bits(self):
        t = 23689 << FIXED16.fraction_length
        for mode in ALL_MODES:
            assert cast_wide(t, FIXED16, mode, rng_for(mode)).rep == 23689

    def test_simple_cast_cases(self):
        assert cast_wide_simple(2**40, FIXED32).rep == FIXED32.ubound
        assert cast_wide_simple(5, FIXED32).rep == 5
        assert cast_wide_simple(FIXED32.lbound - 1, FIXED32).rep == FIXED32.lbound

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
            assert [cast_wide(int(t), FIXED32, mode).rep for t in wide] == want

    def test_stochastic_up_probability(self):
        # A discarded fraction of 0.75 eps must round up about 75% of the time.
        fl = FIXED32.fraction_length
        t = (100 << fl) + (3 << (fl - 2))
        gen = make_stream(3, 44)
        n = 100_000
        ups = sum(cast_wide(t, FIXED32, RoundingMode.STOCHASTIC, gen).rep == 101 for _ in range(n))
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


class TestArithmetic:
    def test_add_trivial(self):
        one = FIXED32.word(FIXED32.one)
        assert value_of(add_f(one, one)) == 2.0
        top = FIXED32.word(FIXED32.ubound)
        tiny = FIXED32.word(1)
        assert add_f(top, tiny).rep == FIXED32.ubound

    def test_add_random_against_clamped_reals(self):
        rng = np.random.default_rng(13)
        for fmt in (FIXED16, FIXED32):
            a = rng.integers(fmt.lbound, fmt.ubound + 1, size=100_000)
            b = rng.integers(fmt.lbound, fmt.ubound + 1, size=100_000)
            got = cast_wide_simple_array(a + b, fmt)
            want = np.clip(a + b, fmt.lbound, fmt.ubound)
            assert np.array_equal(got, want)
            # spot-check the scalar entry point agrees
            for i in range(0, 100_000, 9973):
                w = add_f(fmt.word(int(a[i])), fmt.word(int(b[i])), )
                assert w.rep == want[i]

    def test_sub_and_neg(self):
        one = FIXED32.word(FIXED32.one)
        two = add_f(one, one)
        assert value_of(sub_f(two, one)) == 1.0
        assert neg_f(FIXED32.word(FIXED32.lbound)).rep == FIXED32.ubound

    def test_multiply_identity_and_zero(self):
        rng = np.random.default_rng(14)
        one = FIXED32.word(FIXED32.one)
        zero = FIXED32.word(0)
        for rep in rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=200):
            w = FIXED32.word(int(rep))
            for mode in DETERMINISTIC_MODES:
                assert multiply_f(one, w, mode).rep == rep
            assert multiply_f(zero, w).rep == 0

    def test_multiply_exact_fraction(self):
        # 1.5 * 2.25 = 3.375; every factor and the product sit on the grid.
        a = convert(1.5, FIXED32)
        b = convert(2.25, FIXED32)
        assert a.rep == 3 << 17 and b.rep == 9 << 16
        for mode in ALL_MODES:
            assert value_of(multiply_f(a, b, mode, rng_for(mode))) == 3.375

    def test_multiply_against_oracle(self):
        rng = np.random.default_rng(15)
        reps = rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=(3000, 2))
        for mode in DETERMINISTIC_MODES:
            for a_rep, b_rep in reps[:800]:
                got = multiply_f(FIXED32.word(int(a_rep)), FIXED32.word(int(b_rep)), mode)
                assert got.rep == oracle_cast_wide(int(a_rep) * int(b_rep), FIXED32, mode)

    def test_divide_identity_and_half(self):
        one = FIXED32.word(FIXED32.one)
        two = convert(2.0, FIXED32)
        rng = np.random.default_rng(16)
        for rep in rng.integers(FIXED32.lbound, FIXED32.ubound + 1, size=300):
            w = FIXED32.word(int(rep))
            assert divide_f(w, one).rep == rep
        assert value_of(divide_f(one, two)) == 0.5

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_f(FIXED32.word(5), FIXED32.word(0))

    def test_divide_within_epsilon_of_real(self):
        rng = np.random.default_rng(17)
        for fmt in (FIXED16, FIXED32):
            n = 0
            while n < 20000:
                a = int(rng.integers(fmt.lbound, fmt.ubound + 1))
                b = int(rng.integers(fmt.one // 4, fmt.ubound))
                if rng.random() < 0.5:
                    b = -b
                got = value_of(divide_f(fmt.word(a), fmt.word(b)))
                real = (a * fmt.epsilon) / (b * fmt.epsilon)
                clamped = min(max(real, fmt.lbound_value), fmt.ubound_value)
                assert abs(got - clamped) <= fmt.epsilon
                n += 1

    def test_format_mismatch_rejected(self):
        with pytest.raises(FixedFormatError):
            add_f(FIXED16.word(1), FIXED32.word(1))


class TestSqrt:
    def test_integer_sqrt_fixtures(self):
        one_sq = FIXED32.one * FIXED32.one
        assert integer_sqrt(one_sq, FIXED32).rep == FIXED32.one
        assert integer_sqrt(0, FIXED32).rep == 0

    def test_integer_sqrt_is_floor_root(self):
        rng = np.random.default_rng(18)
        for t in rng.integers(0, FIXED32.wide_ubound, size=3000):
            n = integer_sqrt(int(t), FIXED32).rep
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

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            integer_sqrt(-1, FIXED32)
        with pytest.raises(ValueError):
            float_sqrt(-1, FIXED32)

    def test_float_path_fixtures(self):
        assert float_sqrt(FIXED32.one * FIXED32.one, FIXED32).rep == FIXED32.one
        t25 = 25 << (2 * FIXED32.fraction_length)
        assert value_of(float_sqrt(t25, FIXED32)) == 5.0

    def test_paths_agree_within_epsilon(self):
        rng = np.random.default_rng(19)
        max_t = (FIXED32.ubound * FIXED32.ubound)  # keep true root in range
        for t in rng.integers(0, max_t, size=100_000, dtype=np.int64)[:5000]:
            a = integer_sqrt(int(t), FIXED32).rep
            b = float_sqrt(int(t), FIXED32).rep
            assert abs(a - b) <= 1


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
        # One uniform per value, saturated or not: a run of scalar calls on
        # one stream consumes it exactly as one array call does.
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
        edge = fmt.ubound << fmt.fraction_length
        wide = rng.integers(-2 * edge, 2 * edge, 400)
        wide[::9] = fmt.wide_ubound
        wide[1::9] = fmt.wide_lbound
        wide[2::9] = edge
        gen = make_stream(8, fmt.word_length)
        scalars = [cast_wide(int(t), fmt, mode, gen).rep for t in wide]
        array = cast_wide_array(wide, fmt, mode, make_stream(8, fmt.word_length))
        assert scalars == array.tolist()

    @settings(max_examples=200, deadline=None)
    @given(stochastic_cast_runs())
    @example((FIXED32, [np.array([[1, 2], [3, 4], [5, 6]])], 1, 0))
    def test_block_draws_match_per_cast_draws(self, run):
        # Block-drawn column streams give every cast, saturation count and
        # final stream position of drawing from each column per cast.
        fmt, casts, block, seed = run
        p = casts[0].shape[-1]
        mine = [make_stream(seed, j) for j in range(p)]
        theirs = [make_stream(seed, j) for j in range(p)]
        streams = ColumnStreams(mine, block)
        got_stats, want_stats = SaturationStats(), SaturationStats()
        for t in casts:
            got = cast_wide_array(t, fmt, RoundingMode.STOCHASTIC, col_rngs=streams, stats=got_stats)
            want = oracle_stochastic_cast(t, fmt, theirs, want_stats)
            assert got.shape == t.shape
            assert got.tolist() == want.tolist()
        assert got_stats.events == want_stats.events
        streams.settle()
        assert [g.random() for g in mine] == [g.random() for g in theirs]

    def test_shared_generator_rejected(self):
        gen = make_stream(1, 2)
        with pytest.raises(ValueError):
            ColumnStreams([gen, gen], 4)

    def test_word_value_property(self):
        w = FixedWord(FIXED16.one, FIXED16)
        assert w.value == 1.0
