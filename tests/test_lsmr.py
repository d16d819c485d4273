"""Solver tests: Givens rotations, convergence vs dense oracles, partitioning."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmlsmr.fixedpoint import FIXED16, FIXED32, RoundingMode, SaturationStats, make_stream
from admmlsmr.lsmr import (
    SQRT_PATHS,
    LsmrJob,
    _FixedOps,
    lsmr_solve,
    lsmr_solve_fixed,
    lsmr_solve_multi,
    split_ranges,
    sym,
    sym_fixed,
)
from admmlsmr.matrix import FixedMatrix, dequantize_matrix, quantize_matrix
from conftest import (
    conditioned_system,
    normal_eq_relative_residual,
    normal_equations_solve,
)

EPS32 = FIXED32.epsilon


class TestSym:
    def test_pythagorean_triple(self):
        c, s, r = sym(3.0, 4.0)
        assert (c, s, r) == pytest.approx((0.6, 0.8, 5.0), abs=1e-12)

    def test_axis_cases(self):
        assert sym(1.0, 0.0) == (1.0, 0.0, 1.0)
        c, s, r = sym(0.0, 1.0)
        assert (c, s, r) == pytest.approx((0.0, 1.0, 1.0), abs=1e-15)

    def test_degenerate_identity(self):
        assert sym(0.0, 0.0) == (1.0, 0.0, 0.0)

    def test_rotation_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            a, b = rng.uniform(-100, 100, 2)
            c, s, r = sym(a, b)
            assert abs(c * c + s * s - 1.0) < 1e-12
            assert abs(r) == pytest.approx(np.hypot(a, b), rel=1e-12)
            # branch consistency: r reconstructs the dominant component
            if abs(b) > abs(a):
                assert r * s == pytest.approx(b, rel=1e-12)
            else:
                assert r * c == pytest.approx(a, rel=1e-12)

    def test_fixed_matches_real(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = rng.uniform(-50, 50, 2)
            wa = quantize_matrix([[a]], FIXED32).data[0, 0]
            wb = quantize_matrix([[b]], FIXED32).data[0, 0]
            cf, sf, rf = sym_fixed(FIXED32.word(int(wa)), FIXED32.word(int(wb)))
            c, s, r = sym(wa * EPS32, wb * EPS32)
            assert abs(cf.value - c) <= 4 * EPS32
            assert abs(sf.value - s) <= 4 * EPS32
            assert abs(rf.value - r) <= max(8 * EPS32, abs(r) * 1e-4)

    def test_fixed_degenerate(self):
        zero = FIXED32.word(0)
        c, s, r = sym_fixed(zero, zero)
        assert (c.rep, s.rep, r.rep) == (FIXED32.one, 0, 0)


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


class TestFixedSolve:
    def test_identity_small_rhs(self):
        rng = np.random.default_rng(6)
        b = rng.uniform(-0.3, 0.3, size=(6, 1))
        bf = quantize_matrix(b, FIXED32)
        x = lsmr_solve_fixed(quantize_matrix(np.eye(6), FIXED32), bf)
        assert np.abs(dequantize_matrix(x) - dequantize_matrix(bf)).max() <= 2 * EPS32

    def test_zero_rhs_bit_exact(self):
        x = lsmr_solve_fixed(
            quantize_matrix(np.eye(5), FIXED32),
            quantize_matrix(np.zeros((5, 1)), FIXED32),
        )
        assert not x.data.any()

    def test_zero_denominator_keeps_iterate(self):
        # In FIXED16, rho * rhobar rounds to zero in the first iteration, so
        # the column cannot complete it and stops with its zero iterate.
        a = FixedMatrix(np.array([[-14, -17]]), FIXED16)
        b = FixedMatrix(np.array([[-24]]), FIXED16)
        assert not lsmr_solve_fixed(a, b).data.any()

    def test_against_real_path(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a = rng.uniform(-1, 1, size=(16, 6))
            b = rng.uniform(-1, 1, size=(16, 1))
            xr = lsmr_solve(a, b.ravel())
            xf = lsmr_solve_fixed(
                quantize_matrix(a, FIXED32), quantize_matrix(b, FIXED32)
            )
            err = np.abs(dequantize_matrix(xf).ravel() - xr).max()
            assert err <= 1000 * EPS32

    def test_block_equals_single_columns(self):
        # The block solver must be bit-identical to one-column solves.
        rng = np.random.default_rng(8)
        a = quantize_matrix(rng.uniform(-1, 1, (12, 5)), FIXED32)
        b = quantize_matrix(rng.uniform(-1, 1, (12, 6)), FIXED32)
        block = lsmr_solve_multi(LsmrJob.full(a, b))
        for j in range(6):
            single = lsmr_solve_fixed(
                a, quantize_matrix(dequantize_matrix(b)[:, j : j + 1], FIXED32)
            )
            assert np.array_equal(block.data[:, j], single.data[:, 0])

    def test_stochastic_needs_stream(self):
        a = quantize_matrix(np.eye(3), FIXED32)
        b = quantize_matrix(np.ones((3, 1)), FIXED32)
        with pytest.raises(ValueError):
            lsmr_solve_fixed(a, b, mode=RoundingMode.STOCHASTIC)

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
        x = lsmr_solve_fixed(a, b, mode=mode, rng=gen)
        assert x.data[:, 0].tolist() == solution
        assert gen.random() == 0.4298379211601343
        gen = make_stream(4, 3)
        words = sym_fixed(fmt.word(3 * fmt.one // 4), fmt.word(-fmt.one // 3), mode, gen)
        assert [w.rep for w in words] == rotation
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


class TestMulti:
    def test_single_column_reduces_to_solve(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((14, 5))
        b = rng.standard_normal((14, 1))
        out = lsmr_solve_multi(LsmrJob.full(a, b))
        assert np.array_equal(out[:, 0], lsmr_solve(a, b[:, 0]))

    def test_split_concat_equals_unsplit(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((20, 8))
        whole = lsmr_solve_multi(LsmrJob.full(a, b))
        left = lsmr_solve_multi(LsmrJob(a, b, 0, 4, 8))
        right = lsmr_solve_multi(LsmrJob(a, b, 4, 4, 8))
        assert np.array_equal(np.hstack([left, right]), whole)

    def test_column_splits_identical(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((20, 8))
        b = rng.standard_normal((20, 12))
        whole = lsmr_solve_multi(LsmrJob.full(a, b))
        for parts in (2, 3, 4, 12):
            chunks = [
                lsmr_solve_multi(LsmrJob(a, b, start, count, 8))
                for start, count in split_ranges(0, 12, parts)
            ]
            assert np.array_equal(np.hstack(chunks), whole)

    def test_columns_against_dense_oracle(self):
        rng = np.random.default_rng(12)
        a = conditioned_system(rng, 25, 9, 30.0)
        b = rng.standard_normal((25, 6))
        out = lsmr_solve_multi(LsmrJob.full(a, b))
        for j in range(6):
            want = normal_equations_solve(a, b[:, j])
            assert np.abs(out[:, j] - want).max() < 1e-6

    def test_zero_column_yields_zero_solution(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((10, 4))
        b = rng.standard_normal((10, 3))
        b[:, 1] = 0.0
        out = lsmr_solve_multi(LsmrJob.full(a, b))
        assert np.array_equal(out[:, 1], np.zeros(4))

    def test_fixed_stochastic_partition_invariant(self):
        rng = np.random.default_rng(14)
        a = quantize_matrix(rng.uniform(-1, 1, (10, 4)), FIXED32)
        b = quantize_matrix(rng.uniform(-1, 1, (10, 8)), FIXED32)

        def factory(col):
            return make_stream(77, 5, col)

        runs = []
        for parts in (1, 3, 4):
            chunks = [
                lsmr_solve_multi(
                    LsmrJob(a, b, start, count, 4),
                    mode=RoundingMode.STOCHASTIC,
                    stream_factory=factory,
                ).data
                for start, count in split_ranges(0, 8, parts)
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
        lsmr_solve_multi(LsmrJob.full(a, b, iters), RoundingMode.STOCHASTIC, lambda j: gens[j])
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
            out = lsmr_solve_multi(LsmrJob(a, b, 2, 0, 3))
            assert out.shape == (2, 0)
            return
        job = LsmrJob(quantize_matrix(a, fmt), quantize_matrix(b, fmt), 2, 0, 3)
        out = lsmr_solve_multi(job, mode, lambda col: make_stream(1, col))
        assert isinstance(out, FixedMatrix)
        assert out.fmt == fmt
        assert out.data.shape == (2, 0)

    def test_job_validation(self):
        a = np.zeros((4, 3))
        b = np.zeros((4, 2))
        with pytest.raises(ValueError):
            LsmrJob(a, b, 0, 3, 4)  # range beyond the two columns
        with pytest.raises(ValueError):
            LsmrJob(a, np.zeros((5, 2)), 0, 1, 4)
        with pytest.raises(ValueError):
            LsmrJob(a, b, 0, 1, 0)
        with pytest.raises(ValueError):  # a FIXED32 system, a FIXED16 right-hand side
            LsmrJob.full(quantize_matrix(a, FIXED32), quantize_matrix(b, FIXED16))

    def test_split_ranges(self):
        assert split_ranges(0, 8, 2) == [(0, 4), (4, 4)]
        assert split_ranges(3, 5, 2) == [(3, 3), (6, 2)]
        assert split_ranges(0, 2, 5) == [(0, 1), (1, 1)]
        assert split_ranges(0, 7, 3) == [(0, 3), (3, 2), (5, 2)]


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
            lsmr_solve_multi(LsmrJob(a, b, lo, hi - lo, iters))
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
        stochastic = mode is RoundingMode.STOCHASTIC
        part_gens = [make_stream(3, 9, j) for j in range(bf.cols)]
        single_gens = [make_stream(3, 9, j) for j in range(bf.cols)]
        part_stats, single_stats = SaturationStats(), SaturationStats()
        parts = [
            lsmr_solve_multi(
                LsmrJob(af, bf, lo, hi - lo, iters),
                mode=mode,
                stream_factory=part_gens.__getitem__,
                sqrt_path=sqrt_path,
                stats=part_stats,
            ).data
            for lo, hi in zip(bounds, bounds[1:])
        ]
        single = [
            lsmr_solve_fixed(
                af,
                FixedMatrix(bf.data[:, j : j + 1], fmt),
                iters,
                mode=mode,
                rng=single_gens[j] if stochastic else None,
                sqrt_path=sqrt_path,
                stats=single_stats,
            ).data
            for j in range(bf.cols)
        ]
        assert np.array_equal(np.hstack(parts), np.hstack(single))
        assert part_stats.events == single_stats.events
        assert [g.random() for g in part_gens] == [g.random() for g in single_gens]
