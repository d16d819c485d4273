"""Solver tests: Givens rotations, convergence vs dense oracles, partitioning."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmlsmr import lsmr as lsmr_module
from admmlsmr.fixedpoint import (
    FIXED16,
    FIXED32,
    ColumnStreams,
    RoundingMode,
    SaturationStats,
    make_stream,
)
from admmlsmr.lsmr import (
    SQRT_PATHS,
    LsmrJob,
    _FixedOps,
    _RealOps,
    lsmr_solve,
    lsmr_solve_multi,
)
from admmlsmr.matrix import (
    FixedMatrix,
    accumulate_product_wide,
    dequantize_matrix,
    quantize_matrix,
)
from conftest import (
    OracleWords,
    conditioned_system,
    normal_eq_relative_residual,
    normal_equations_solve,
    oracle_lsmr_fixed,
    oracle_lsmr_real,
    oracle_rotation,
)

EPS32 = FIXED32.epsilon


def rotate(ops, a, b) -> np.ndarray:
    """One ``ops.rotate`` call over the lanes ``a`` and ``b``: a (3, p) array
    of each lane's (c, s, r)."""
    return np.stack(ops.rotate(np.asarray(a), np.asarray(b)))


def rotate_real(a: float, b: float) -> tuple[float, float, float]:
    """The real rotation of one lane."""
    return tuple(rotate(_RealOps(), [a], [b])[:, 0].tolist())


def rotation_lanes(fmt, seed):
    """Rep pairs (a, b) as two lane arrays: the (0, 0) lane, axis lanes,
    equal-magnitude lanes, lanes at the format bounds, a Pythagorean triple,
    the pinned stochastic example and random lanes."""
    one, ub, lb = fmt.one, fmt.ubound, fmt.lbound
    pairs = [
        (0, 0),
        (one, 0), (0, one), (-one, 0), (0, -one), (5, 0), (0, -7),
        (one, one), (-3, 3), (one, -one), (-ub, ub),
        (ub, ub), (lb, lb), (ub, lb), (lb, ub), (lb, 0), (0, ub), (ub, 1), (-1, lb),
        (3 * one, 4 * one), (3 * one // 4, -one // 3),
    ]
    pairs += np.random.default_rng(seed).integers(lb, ub + 1, (24, 2)).tolist()
    return np.array(pairs, dtype=np.int64).T


class TestSym:
    def test_pythagorean_triple(self):
        c, s, r = rotate_real(3.0, 4.0)
        assert (c, s, r) == pytest.approx((0.6, 0.8, 5.0), abs=1e-12)

    def test_axis_cases(self):
        assert rotate_real(1.0, 0.0) == (1.0, 0.0, 1.0)
        c, s, r = rotate_real(0.0, 1.0)
        assert (c, s, r) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)

    def test_degenerate_identity(self):
        assert rotate_real(0.0, 0.0) == (1.0, 0.0, 0.0)

    def test_rotation_contract(self):
        rng = np.random.default_rng(0)
        a, b = rng.uniform(-100, 100, (2000, 2)).T
        for x, y, (c, s, r) in zip(a, b, rotate(_RealOps(), a, b).T):
            assert abs(c * c + s * s - 1.0) < 1e-12
            assert abs(r) == pytest.approx(np.hypot(x, y), rel=1e-12)
            # branch consistency: r reconstructs the dominant component
            if abs(y) > abs(x):
                assert r * s == pytest.approx(y, rel=1e-12)
            else:
                assert r * c == pytest.approx(x, rel=1e-12)

    def test_fixed_matches_real(self):
        rng = np.random.default_rng(1)
        wa, wb = quantize_matrix(rng.uniform(-50, 50, (300, 2)).T, FIXED32).data
        ops = _FixedOps(FIXED32, RoundingMode.NEAREST, None, "float", None)
        fixed = rotate(ops, wa, wb) * EPS32
        for (cf, sf, rf), (c, s, r) in zip(fixed.T, rotate(_RealOps(), wa * EPS32, wb * EPS32).T):
            assert abs(cf - c) <= 4 * EPS32
            assert abs(sf - s) <= 4 * EPS32
            assert abs(rf - r) <= max(8 * EPS32, abs(r) * 1e-4)

    def test_fixed_degenerate(self):
        ops = _FixedOps(FIXED32, RoundingMode.NEAREST, None, "float", None)
        assert rotate(ops, [0], [0])[:, 0].tolist() == [FIXED32.one, 0, 0]

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_real_lanes_equal_one_lane_calls(self, fmt):
        a, b = rotation_lanes(fmt, 2) * fmt.epsilon
        lanes = rotate(_RealOps(), a, b)
        for j in range(a.size):
            alone = rotate(_RealOps(), a[j : j + 1], b[j : j + 1])
            assert lanes[:, j].tobytes() == alone[:, 0].tobytes()

    @pytest.mark.parametrize("sqrt_path", SQRT_PATHS)
    @pytest.mark.parametrize("mode", list(RoundingMode), ids=[m.value for m in RoundingMode])
    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_fixed_lanes_equal_one_lane_calls(self, fmt, mode, sqrt_path):
        # One call over every lane gives each lane the rotation, the
        # saturations and the stream position of rotating it alone.
        a, b = rotation_lanes(fmt, 3)

        def rotate_fixed(a, b, gens, stats):
            streams = ColumnStreams(gens, fmt, 1) if mode is RoundingMode.STOCHASTIC else None
            return rotate(_FixedOps(fmt, mode, streams, sqrt_path, stats), a, b)

        lane_gens = [make_stream(6, j) for j in range(a.size)]
        alone_gens = [make_stream(6, j) for j in range(a.size)]
        lane_stats, alone_stats = SaturationStats(), SaturationStats()
        lanes = rotate_fixed(a, b, lane_gens, lane_stats)
        for j in range(a.size):
            alone = rotate_fixed(a[j : j + 1], b[j : j + 1], alone_gens[j : j + 1], alone_stats)
            assert lanes[:, j].tolist() == alone[:, 0].tolist()
        # the bound-valued lanes saturate
        assert lane_stats.events == alone_stats.events > 0
        assert [g.random() for g in lane_gens] == [g.random() for g in alone_gens]


class TestRealSolve:
    def test_identity_system(self):
        rng = np.random.default_rng(2)
        b = rng.standard_normal(7)
        x = lsmr_solve(np.eye(7), b)
        assert np.abs(x - b).max() < 1e-10

    def test_zero_rhs(self):
        x = lsmr_solve(np.eye(4), np.zeros(4))
        assert np.array_equal(x, np.zeros(4))

    def test_random_systems_against_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            a = rng.uniform(-1, 1, size=(20, 8))
            b = rng.standard_normal(20)
            x = lsmr_solve(a, b)
            assert normal_eq_relative_residual(a, x, b) <= 1e-6
            want = normal_equations_solve(a, b)
            assert np.abs(x - want).max() < 1e-5

    def test_residual_monotone_on_wellconditioned(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            a = conditioned_system(rng, 18, 6, 40.0)
            b = rng.standard_normal(18)
            norms = []
            for k in range(1, 7):
                x = lsmr_solve(a, b, iters=k)
                norms.append(np.linalg.norm(a.T @ (a @ x - b)))
            assert all(n2 <= n1 * (1 + 1e-9) for n1, n2 in zip(norms, norms[1:]))

    def test_nonpositive_iters_rejected(self):
        for iters in (0, -3):
            with pytest.raises(ValueError):
                lsmr_solve(np.eye(2), np.ones(2), iters=iters)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            lsmr_solve(np.eye(3), np.zeros(4))

    def test_overflow_raises(self):
        # the column norm overflows to inf, which would zero the solution
        with pytest.raises(FloatingPointError, match="overflow"):
            lsmr_solve(np.eye(2), np.array([1e200, 2e200]))
        with pytest.raises(FloatingPointError, match="overflow"):
            lsmr_solve_multi(LsmrJob(np.eye(2), np.array([[1.0], [1e300]])))


class TestFixedSolve:
    def test_identity_small_rhs(self):
        rng = np.random.default_rng(6)
        b = rng.uniform(-0.3, 0.3, size=(6, 1))
        bf = quantize_matrix(b, FIXED32)
        x = lsmr_solve_multi(LsmrJob(quantize_matrix(np.eye(6), FIXED32), bf))
        assert np.abs(dequantize_matrix(x) - dequantize_matrix(bf)).max() <= 2 * EPS32

    def test_zero_rhs_bit_exact(self):
        x = lsmr_solve_multi(LsmrJob(
            quantize_matrix(np.eye(5), FIXED32),
            quantize_matrix(np.zeros((5, 1)), FIXED32),
        ))
        assert not x.data.any()

    def test_zero_denominator_keeps_iterate(self):
        # In FIXED16, rho * rhobar rounds to zero in the first iteration, so
        # the column cannot complete it and stops with its zero iterate.
        a = FixedMatrix(np.array([[-14, -17]]), FIXED16)
        b = FixedMatrix(np.array([[-24]]), FIXED16)
        assert not lsmr_solve_multi(LsmrJob(a, b)).data.any()

    def test_against_real_path(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(16, 6))
            b = rng.uniform(-1, 1, size=(16, 1))
            xr = lsmr_solve(a, b.ravel())
            xf = lsmr_solve_multi(
                LsmrJob(quantize_matrix(a, FIXED32), quantize_matrix(b, FIXED32))
            )
            err = np.abs(dequantize_matrix(xf).ravel() - xr).max()
            assert err <= 1000 * EPS32

    def test_block_equals_single_columns(self):
        # The block solver must be bit-identical to one-column solves.
        rng = np.random.default_rng(8)
        a = quantize_matrix(rng.uniform(-1, 1, (12, 5)), FIXED32)
        b = quantize_matrix(rng.uniform(-1, 1, (12, 6)), FIXED32)
        block = lsmr_solve_multi(LsmrJob(a, b))
        for j in range(6):
            single = lsmr_solve_multi(
                LsmrJob(a, quantize_matrix(dequantize_matrix(b)[:, j : j + 1], FIXED32))
            )
            assert np.array_equal(block.data[:, j], single.data[:, 0])

    def test_stochastic_needs_stream(self):
        a = quantize_matrix(np.eye(3), FIXED32)
        b = quantize_matrix(np.ones((3, 1)), FIXED32)
        with pytest.raises(ValueError):
            lsmr_solve_multi(LsmrJob(a, b), RoundingMode.STOCHASTIC)

    @pytest.mark.parametrize(
        "fmt, solution, rotation",
        [
            (FIXED16, [25, 701], [935, -416, 841]),
            (FIXED32, [6391, 179497], [239550, -106467, 215151]),
        ],
        ids=["fixed16", "fixed32"],
    )
    def test_caller_stream_left_past_its_draws(self, fmt, solution, rotation):
        # A caller's generator ends where drawing each cast's uniforms one
        # call at a time leaves it; the values were recorded that way.
        mode = RoundingMode.STOCHASTIC
        a = quantize_matrix(np.array([[1.0, 0.5], [0.25, -1.0], [0.75, 0.125]]), fmt)
        b = quantize_matrix(np.array([[0.3], [-0.7], [0.2]]), fmt)
        gen = make_stream(4, 2)
        x = lsmr_solve_multi(LsmrJob(a, b), mode, [gen])
        assert x.data[:, 0].tolist() == solution
        assert gen.random() == 0.4298379211601343
        gen = make_stream(4, 3)
        ops = _FixedOps(fmt, mode, ColumnStreams([gen], fmt, 1), "float", None)
        assert rotate(ops, [3 * fmt.one // 4], [-fmt.one // 3])[:, 0].tolist() == rotation
        assert gen.random() == 0.2209966912170116


class TestFixedOps:
    @pytest.mark.parametrize("sqrt_path", SQRT_PATHS)
    def test_norm_saturation_counted(self, sqrt_path):
        # 2 * ubound**2 fits the wide container; only the root saturates
        stats = SaturationStats()
        ops = _FixedOps(FIXED32, RoundingMode.NEAREST, None, sqrt_path, stats)
        col = np.full((2, 1), FIXED32.ubound, dtype=np.int64)
        assert ops.norm_cols(col).tolist() == [FIXED32.ubound]
        assert stats.events == 1


@pytest.mark.parametrize("mode", list(RoundingMode), ids=[m.value for m in RoundingMode])
@pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
class TestRangeProofs:
    """Each narrowing check that ``_FixedOps`` skips on a range proof gives
    the values, saturation count and stream position of the checked generic
    operations, at each bound the proof compares with and one below it.  A
    cell exactly at a bound counts as a saturation, so a skip at the bound
    shows as a missing count.  (The unchecked ``other`` of a rotation is
    covered by ``TestOracle.test_rotation``, whose lanes include
    ``|tau| = one``.)"""

    @staticmethod
    def ops_pair(fmt, mode, p, draws):
        """The ops under test and the checked reference, each with its own
        count and with fresh copies of the same ``p`` streams, drawn in
        blocks of ``draws + 1``."""

        def ops():
            streams = None
            if mode is RoundingMode.STOCHASTIC:
                streams = ColumnStreams([make_stream(7, j) for j in range(p)], fmt, draws + 1)
            return _FixedOps(fmt, mode, streams, "float", SaturationStats())

        return ops(), ops()

    @staticmethod
    def assert_same_counts_and_streams(ops, ref, p):
        assert ops.stats.events == ref.stats.events
        if ops.col_rngs is not None:
            assert ops.col_rngs.take((1, p)).tolist() == ref.col_rngs.take((1, p)).tolist()

    @pytest.mark.parametrize(
        "n, max_abs", [(1, 0), (2, 1), (64, 0)], ids=["at-ubound", "below-ubound", "far-above"]
    )
    def test_unit_product(self, fmt, mode, n, max_abs):
        # B = n max|a| is ubound, ubound - 1 (n = 2, max|a| = (ubound - 1) / 2)
        # or 64 ubound, where the wide sum itself may saturate; unit columns
        # of +-one make rows 0 and 1 reach +B.
        one = fmt.one
        m_abs = (fmt.ubound - max_abs) // n if n < 64 else fmt.ubound
        a = FixedMatrix(np.array([[m_abs] * n, [-m_abs] * n, [m_abs // 3] * n]), fmt)
        v = np.array([[one, -one, one // 2], [one, -one, -one // 7]] * (n // 2 or 1))[:n]
        ops, ref = self.ops_pair(fmt, mode, 3, 3)
        got, bound = ops._product(a, v)
        want = ref.cast(accumulate_product_wide(a, v, ref.stats))
        assert bound == n * m_abs
        assert got.tolist() == want.tolist()
        assert np.abs(got).max() <= bound
        assert (ref.stats.events > 0) == (bound >= fmt.ubound)
        self.assert_same_counts_and_streams(ops, ref, 3)

    @pytest.mark.parametrize("slack", [0, 1], ids=["at-ubound", "below-ubound"])
    def test_step_with_a_norm_at_ubound(self, fmt, mode, slack):
        # u alpha reaches ubound << FL where alpha = ubound and u = +one; at
        # u = -one the residual reaches ubound instead (row 1: a v = 0).
        one = fmt.one
        a = FixedMatrix(np.array([[1, 2], [0, 0], [3, 0]]), fmt)
        v = np.array([[one, -one], [one // 2, one]])
        u = np.array([[one, one // 3], [-one, -one], [one // 5, 0]])
        alpha = np.array([fmt.ubound - slack, fmt.ubound // 3])
        ops, ref = self.ops_pair(fmt, mode, 2, 6)
        got, bound = ops.step(a, v, u, alpha)
        want = ref.sub(ref.cast(accumulate_product_wide(a, v, ref.stats)), ref.mul(u, alpha))
        assert bound is None
        assert got.tolist() == want.tolist()
        assert ref.stats.events == (2 if slack == 0 else 0)
        self.assert_same_counts_and_streams(ops, ref, 2)

    @pytest.mark.parametrize("slack", [0, 1], ids=["at-ubound", "below-ubound"])
    def test_step_residual_bound(self, fmt, mode, slack):
        # B + max(alpha) = ubound - slack, reached in row 0 of column 0:
        # a v = B and u alpha = -max(alpha); every product is in range.
        one, m_abs = fmt.one, fmt.ubound // 16
        big = 4 * m_abs  # B
        a = FixedMatrix(np.array([[m_abs] * 4, [-m_abs] * 4, [m_abs // 3, 0, -m_abs, 5]]), fmt)
        v = np.array([[one, -one, one // 2], [one, one, 0], [one, -one, -one], [one, 0, 7]])
        u = np.array([[-one, one, 3], [one, -one, -one], [0, one // 3, one]])
        alpha = np.array([fmt.ubound - slack - big, fmt.ubound // 5, 0])
        ops, ref = self.ops_pair(fmt, mode, 3, 6)
        got, bound = ops.step(a, v, u, alpha)
        want = ref.sub(ref.cast(accumulate_product_wide(a, v, ref.stats)), ref.mul(u, alpha))
        assert got.tolist() == want.tolist()
        assert ref.stats.events == (slack == 0)
        self.assert_same_counts_and_streams(ops, ref, 3)
        if slack:
            assert bound == fmt.ubound - 1 and np.abs(got).max() == bound
            assert ops.norm_cols(got, bound).tolist() == ref.norm_cols(want).tolist()
        else:
            assert bound is None

    @pytest.mark.parametrize("rep", ["ubound", "lbound"])
    def test_norm_bound_at_the_wide_bound(self, fmt, mode, rep):
        # two cells of magnitude S: 2 S**2 fits the wide container for
        # S = ubound and is wide_ubound + 1 for S = |lbound|, which saturates;
        # either root saturates too
        cell = getattr(fmt, rep)
        assert (2 * cell * cell <= fmt.wide_ubound) == (rep == "ubound")
        reps = np.array([[cell, 3], [cell, -fmt.one]])
        ops, ref = self.ops_pair(fmt, mode, 2, 0)
        got = ops.norm_cols(reps, abs(cell))
        assert got.tolist() == ref.norm_cols(reps).tolist()
        assert ops.stats.events == ref.stats.events
        assert ref.stats.events == 1 + (rep == "lbound")


class TestKernelLookups:
    # Calls per fixed solve of a 9 x 4 system, 3 columns, 4 iterations.  Each
    # of the 8 rotations computes its 3 quotients with trunc_div_array (24 of
    # the 38 calls), narrows r (one cast_wide_simple_array call) and rounds
    # other through cast_wide_array; its root is taken inline, which these
    # counts leave out.  The 10 unit normalisations divide unchecked, and
    # each iteration's three coefficient quotients are one div.  Stacked
    # per-lane products make 12 cast_wide_array calls an iteration, after 2
    # before the loop.  This system meets the residual bound (n max|a| plus
    # the largest norm stays below ubound), so neither residual of an
    # iteration calls cast_wide_simple_array: 7 calls an iteration remain.
    EXPECTED = {
        "accumulate_product_wide": 9,
        "trunc_div_array": 38,
        "cast_wide_array": 50,
        "cast_wide_simple_array": 28,
        "sum_squares_wide": 10,
        "float_sqrt_array": 10,
    }

    def test_solve_calls_kernels_through_the_lsmr_module(self, monkeypatch):
        # Per-kernel timings wrap these names where lsmr looks them up; a
        # solve that computed a kernel inline would report it as never called.
        # The timing wrapper of cast_wide_array reads the streams and the
        # counter by name, so every call must pass them as keywords.
        counts = dict.fromkeys(self.EXPECTED, 0)
        cast_keywords = []
        for name in self.EXPECTED:
            def counted(*args, _fn=getattr(lsmr_module, name), _name=name, **kwargs):
                counts[_name] += 1
                if _name == "cast_wide_array":
                    cast_keywords.append(kwargs.keys() >= {"col_rngs", "stats"})
                return _fn(*args, **kwargs)

            monkeypatch.setattr(lsmr_module, name, counted)
        rng = np.random.default_rng(18)
        a = quantize_matrix(conditioned_system(rng, 9, 4, 4.0), FIXED32)
        b = quantize_matrix(rng.uniform(-1, 1, (9, 3)), FIXED32)
        lsmr_solve_multi(LsmrJob(a, b), RoundingMode.NEAREST, stats=SaturationStats())
        assert counts == self.EXPECTED
        assert cast_keywords == [True] * self.EXPECTED["cast_wide_array"]


class TestMulti:
    def test_single_column_reduces_to_solve(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((14, 5))
        b = rng.standard_normal((14, 1))
        out = lsmr_solve_multi(LsmrJob(a, b))
        assert np.array_equal(out[:, 0], lsmr_solve(a, b[:, 0]))

    def test_split_concat_equals_unsplit(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((20, 8))
        whole = lsmr_solve_multi(LsmrJob(a, b))
        left = lsmr_solve_multi(LsmrJob(a, b[:, :4], 8))
        right = lsmr_solve_multi(LsmrJob(a, b[:, 4:], 8))
        assert np.array_equal(np.hstack([left, right]), whole)

    def test_column_splits_identical(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((20, 12))
        whole = lsmr_solve_multi(LsmrJob(a, b))
        for parts in (2, 3, 4, 12):
            chunks = [
                lsmr_solve_multi(LsmrJob(a, b[:, cols], 8))
                for cols in np.array_split(np.arange(12), parts)
            ]
            assert np.array_equal(np.hstack(chunks), whole)

    def test_columns_against_dense_oracle(self):
        rng = np.random.default_rng(12)
        a = conditioned_system(rng, 25, 9, 30.0)
        b = rng.standard_normal((25, 6))
        out = lsmr_solve_multi(LsmrJob(a, b))
        for j in range(6):
            want = normal_equations_solve(a, b[:, j])
            assert np.abs(out[:, j] - want).max() < 1e-6

    def test_zero_column_yields_zero_solution(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 3))
        b[:, 1] = 0.0
        out = lsmr_solve_multi(LsmrJob(a, b))
        assert np.array_equal(out[:, 1], np.zeros(4))

    def test_fixed_stochastic_partition_invariant(self):
        rng = np.random.default_rng(14)
        a = quantize_matrix(rng.uniform(-1, 1, (10, 4)), FIXED32)
        b = quantize_matrix(rng.uniform(-1, 1, (10, 8)), FIXED32)

        runs = []
        for parts in (1, 3, 4):
            chunks = [
                lsmr_solve_multi(
                    LsmrJob(a, FixedMatrix(b.data[:, cols], FIXED32), 4),
                    mode=RoundingMode.STOCHASTIC,
                    streams=[make_stream(77, 5, col) for col in cols],
                ).data
                for cols in np.array_split(np.arange(8), parts)
            ]
            runs.append(np.hstack(chunks))
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    @pytest.mark.parametrize("m, n, p, iters", [(3, 2, 1, 1), (12, 5, 3, 4), (9, 9, 4, 8), (6, 10, 2, 5)])
    def test_stochastic_draw_schedule(self, fmt, m, n, p, iters):
        # A solve that runs all its iterations leaves each column's stream
        # n + 1 uniforms past its start, plus 2m + 5n + 11 per iteration.
        rng = np.random.default_rng(16)
        a = conditioned_system(rng, max(m, n), min(m, n), 4.0)
        a = quantize_matrix(a if m >= n else a.T, fmt)
        b = quantize_matrix(rng.uniform(-1, 1, (m, p)), fmt)
        gens = [make_stream(3, j) for j in range(p)]
        lsmr_solve_multi(LsmrJob(a, b, iters), RoundingMode.STOCHASTIC, gens)
        drawn = (n + 1) + iters * (2 * m + 5 * n + 11)
        for j, gen in enumerate(gens):
            fresh = make_stream(3, j)
            fresh.random(drawn)
            assert gen.random() == fresh.random()

    @pytest.mark.parametrize(
        "fmt, mode",
        [(None, None)] + [(f, m) for f in (FIXED16, FIXED32) for m in RoundingMode],
        ids=["real"] + [f"fixed{w}-{m.value}" for w in (16, 32) for m in RoundingMode],
    )
    def test_empty_column_range(self, fmt, mode):
        rng = np.random.default_rng(15)
        a = rng.uniform(-1, 1, (4, 2))
        b = rng.uniform(-1, 1, (4, 3))
        if fmt is None:
            out = lsmr_solve_multi(LsmrJob(a, b[:, 2:2], 3))
            assert out.shape == (2, 0)
            return
        bf = quantize_matrix(b, fmt)
        job = LsmrJob(quantize_matrix(a, fmt), FixedMatrix(bf.data[:, 2:2], fmt), 3)
        out = lsmr_solve_multi(job, mode, [])
        assert isinstance(out, FixedMatrix)
        assert out.fmt == fmt
        assert out.data.shape == (2, 0)

    def test_job_validation(self):
        a = np.zeros((4, 3))
        b = np.zeros((4, 2))
        with pytest.raises(ValueError):
            LsmrJob(a, np.zeros((5, 2)), 4)
        with pytest.raises(ValueError):
            LsmrJob(a, b, 0)
        for budget in (2.5, "3", True, False):
            with pytest.raises(ValueError, match="iter_count must be a positive integer, got "):
                LsmrJob(a, b, budget)
        assert type(LsmrJob(a, b, np.int64(2)).iter_count) is int
        with pytest.raises(ValueError):  # a FIXED32 system, a FIXED16 right-hand side
            LsmrJob(quantize_matrix(a, FIXED32), quantize_matrix(b, FIXED16))
        with pytest.raises(ValueError, match="must be 2-D"):  # a one-dimensional right-hand side
            LsmrJob(a, np.zeros(4), 2)
        with pytest.raises(ValueError, match="must be 2-D"):  # a one-dimensional system
            LsmrJob(np.zeros(4), b)
        assert LsmrJob(a, b).col_count == 2

    @pytest.mark.parametrize("fmt", [None, FIXED32], ids=["real", "fixed32"])
    def test_mode_and_sqrt_path_checked_in_either_arithmetic(self, fmt):
        # a real solve reads neither argument, and a fixed solve would round
        # to nearest under a mode's name
        a, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([[1.0], [0.3]])
        if fmt is not None:
            a, b = quantize_matrix(a, fmt), quantize_matrix(b, fmt)
        with pytest.raises(ValueError, match="^mode must be a RoundingMode, got 'down'$"):
            lsmr_solve_multi(LsmrJob(a, b), "down")
        with pytest.raises(ValueError, match="^sqrt_path must be one of .*, got 'bogus'$"):
            lsmr_solve_multi(LsmrJob(a, b), sqrt_path="bogus")

    @pytest.mark.parametrize("count", [0, 1, 3])
    def test_stochastic_needs_one_stream_per_column(self, count):
        a = quantize_matrix(np.eye(3), FIXED32)
        b = quantize_matrix(np.ones((3, 2)), FIXED32)
        streams = [make_stream(2, j) for j in range(count)]
        with pytest.raises(ValueError, match="one stream per column"):
            lsmr_solve_multi(LsmrJob(a, b), RoundingMode.STOCHASTIC, streams)


@st.composite
def partitioned_systems(draw):
    """A random system, an iteration budget and a split of its columns.

    Covers rank-deficient matrices, consistent systems and zero right-hand
    side columns.  Returns (a, b, column bounds, iters).
    """
    m = draw(st.integers(1, 10))
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1, 1, (m, n))
    if n > 1 and draw(st.booleans()):
        a[:, -1] = a[:, 0]
    if draw(st.booleans()):
        b = a @ rng.uniform(-1, 1, (n, p))
    else:
        b = rng.uniform(-1, 1, (m, p))
    b[:, sorted(draw(st.sets(st.integers(0, p - 1))))] = 0.0
    cuts = draw(st.sets(st.integers(1, p - 1))) if p > 1 else set()
    iters = draw(st.integers(1, 2 * min(m, n)))
    return a, b, [0, *sorted(cuts), p], iters


class TestPartitionProperty:
    """Any split of the columns into jobs reproduces the one-column solves."""

    @settings(max_examples=60, deadline=None)
    @given(partitioned_systems())
    def test_real(self, system):
        a, b, bounds, iters = system
        parts = [
            lsmr_solve_multi(LsmrJob(a, b[:, lo:hi], iters))
            for lo, hi in zip(bounds, bounds[1:])
        ]
        single = np.stack(
            [lsmr_solve(a, b[:, j], iters) for j in range(b.shape[1])], axis=1
        )
        assert np.hstack(parts).tobytes() == single.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        partitioned_systems(),
        st.sampled_from([FIXED16, FIXED32]),
        st.sampled_from(list(RoundingMode)),
        st.sampled_from(SQRT_PATHS),
    )
    # A lane that stops beside a live one must take no more casts: here the
    # first column stops after one iteration, and holding it in the block
    # through the second would count one saturation more than solving it alone.
    @example(
        (np.array([[-32.0]]), np.array([[35.0, -4.0]]), [0, 2], 2),
        FIXED16, RoundingMode.NEAREST, "float",
    )
    # ... and no more draws: the zero column stops before its first
    # iteration and its stream must stay where solving it alone leaves it.
    @example(
        (
            np.array([[1.0, 0.5], [0.25, -1.0], [0.5, 0.5]]),
            np.array([[0.3, 0.0], [-0.7, 0.0], [0.2, 0.0]]),
            [0, 2],
            2,
        ),
        FIXED32, RoundingMode.STOCHASTIC, "float",
    )
    def test_fixed(self, system, fmt, mode, sqrt_path):
        # Solutions, summed saturation counts and every column stream's
        # next draw all equal those of the one-column solves.
        a, b, bounds, iters = system
        af = quantize_matrix(a, fmt)
        bf = quantize_matrix(b, fmt)
        part_gens = [make_stream(3, 9, j) for j in range(bf.shape[1])]
        single_gens = [make_stream(3, 9, j) for j in range(bf.shape[1])]
        part_stats, single_stats = SaturationStats(), SaturationStats()
        parts = [
            lsmr_solve_multi(
                LsmrJob(af, FixedMatrix(bf.data[:, lo:hi], fmt), iters),
                mode=mode,
                streams=part_gens[lo:hi],
                sqrt_path=sqrt_path,
                stats=part_stats,
            ).data
            for lo, hi in zip(bounds, bounds[1:])
        ]
        single = [
            lsmr_solve_multi(
                LsmrJob(af, FixedMatrix(bf.data[:, j : j + 1], fmt), iters),
                mode=mode,
                streams=[single_gens[j]],
                sqrt_path=sqrt_path,
                stats=single_stats,
            ).data
            for j in range(bf.shape[1])
        ]
        assert np.array_equal(np.hstack(parts), np.hstack(single))
        assert part_stats.events == single_stats.events
        assert [g.random() for g in part_gens] == [g.random() for g in single_gens]


class TestRealOracle:
    """The real solver's columns equal those of ``oracle_lsmr_real``, the
    per-column float64 recurrence of conftest, up to rounding."""

    # Both run the same recurrence in float64 and differ only in rounding
    # (BLAS summation order), which grows with the conditioning and peaks at
    # the step that exhausts the Krylov space.  Over 120,000 random systems
    # of this strategy the largest difference seen was 230 in units of
    # cond(a)**3 * eps * max(1, max|x|): a 5 x 5 system with cond(a) = 3631,
    # at 5 iterations.
    ERROR_UNITS = 1e4

    @settings(max_examples=100, deadline=None)
    @given(partitioned_systems())
    def test_columns_match(self, system):
        a, b, bounds, iters = system
        sv = np.linalg.svd(a, compute_uv=False)
        rank = np.linalg.matrix_rank(a)
        if rank < min(a.shape):
            # Past the rank of a rank-deficient system (a repeated column)
            # both recurrences run on rounding noise, and the two can part
            # without bound along the null space (the solver once gave
            # entries of 1.5e15 where the oracle gave 0.15).  So only
            # budgets up to the rank are compared.
            iters = min(iters, rank)
        unit = (sv[0] / sv[rank - 1]) ** 3 * np.finfo(float).eps
        x = np.hstack([
            lsmr_solve_multi(LsmrJob(a, b[:, lo:hi], iters))
            for lo, hi in zip(bounds, bounds[1:])
        ])
        for j in range(b.shape[1]):
            want = oracle_lsmr_real(a, b[:, j], iters)
            tol = self.ERROR_UNITS * unit * max(1.0, np.abs(want).max())
            assert np.abs(x[:, j] - want).max() <= tol


def oracle_words(fmt, mode, sqrt_path, seed, col) -> OracleWords:
    """The oracle arithmetic of one column, with its own copy of the
    column's stream when rounding is stochastic."""
    gen = make_stream(seed, col) if mode is RoundingMode.STOCHASTIC else None
    return OracleWords(fmt, mode, sqrt_path, gen)


def assert_solve_matches_oracle(a, b, iters, fmt, mode, sqrt_path) -> int:
    """Solve ``a x ~= b`` (real matrices, quantized to ``fmt``) as one block
    and check every column against ``oracle_lsmr_fixed``: its solution, the
    summed saturation count and each stream's next draw.  Returns the count."""
    af, bf = quantize_matrix(a, fmt), quantize_matrix(b, fmt)
    gens = [make_stream(5, j) for j in range(bf.shape[1])]
    stats = SaturationStats()
    x = lsmr_solve_multi(
        LsmrJob(af, bf, iters), mode, gens, sqrt_path, stats
    ).data
    events = 0
    for j, gen in enumerate(gens):
        words = oracle_words(fmt, mode, sqrt_path, 5, j)
        assert x[:, j].tolist() == oracle_lsmr_fixed(af.data, bf.data[:, j].tolist(), iters, words)
        events += words.events
        if words.gen is not None:
            assert gen.random() == words.gen.random()
    assert stats.events == events
    return events


class TestOracle:
    """The fixed solver and its rotations equal the one-column Python-int
    oracles of conftest, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(
        partitioned_systems(),
        st.sampled_from([1.0, 30.0, 3000.0]),
        st.sampled_from([FIXED16, FIXED32]),
        st.sampled_from(list(RoundingMode)),
        st.sampled_from(SQRT_PATHS),
    )
    def test_solve(self, system, scale, fmt, mode, sqrt_path):
        # rank-deficient, consistent and zero columns come from the system
        # strategy; the larger scales saturate quotients, norms and products
        a, b, _, iters = system
        assert_solve_matches_oracle(a * scale, b * scale, iters, fmt, mode, sqrt_path)

    @pytest.mark.parametrize("sqrt_path", SQRT_PATHS)
    @pytest.mark.parametrize("mode", list(RoundingMode), ids=[m.value for m in RoundingMode])
    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    def test_saturating_solve(self, fmt, mode, sqrt_path):
        rng = np.random.default_rng(19)
        scale = fmt.ubound_value / 2
        a = rng.uniform(-scale, scale, (8, 4))
        b = rng.uniform(-scale, scale, (8, 3))
        assert assert_solve_matches_oracle(a, b, 4, fmt, mode, sqrt_path) > 0

    @pytest.mark.parametrize("sqrt_path", SQRT_PATHS)
    @pytest.mark.parametrize("mode", list(RoundingMode), ids=[m.value for m in RoundingMode])
    @pytest.mark.parametrize("fmt", [FIXED16, FIXED32], ids=["fixed16", "fixed32"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_rotation(self, fmt, mode, sqrt_path, seed):
        # every lane of one call: its (c, s, r), the saturation count (the
        # bound-valued lanes saturate) and its stream's next draw
        a, b = rotation_lanes(fmt, seed)
        gens = [make_stream(6, j) for j in range(a.size)]
        streams = ColumnStreams(gens, fmt, 1) if mode is RoundingMode.STOCHASTIC else None
        stats = SaturationStats()
        got = rotate(_FixedOps(fmt, mode, streams, sqrt_path, stats), a, b)
        events = 0
        for j, gen in enumerate(gens):
            words = oracle_words(fmt, mode, sqrt_path, 6, j)
            assert got[:, j].tolist() == list(oracle_rotation(words, int(a[j]), int(b[j])))
            events += words.events
            if words.gen is not None:
                assert gen.random() == words.gen.random()
        assert stats.events == events > 0
