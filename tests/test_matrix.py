"""Kernel tests: quantization and the wide-MAC fixed kernels."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmlsmr.fixedpoint import (
    FIXED16,
    FIXED32,
    ColumnStreams,
    FixedFormatError,
    RoundingMode,
    SaturationStats,
    make_stream,
)
from admmlsmr.lsmr import LsmrJob, _FixedOps, lsmr_solve_multi
from admmlsmr.matrix import (
    FixedMatrix,
    accumulate_product_wide,
    dequantize_matrix,
    mat_mul_fixed,
    quantize_matrix,
)
from conftest import oracle_cast_wide, oracle_mac


def q32(m, mode=RoundingMode.NEAREST):
    return quantize_matrix(np.asarray(m, dtype=float), FIXED32, mode)


def ops32(sqrt_path="float", stats=None):
    """The solver's FIXED32 nearest arithmetic."""
    return _FixedOps(FIXED32, RoundingMode.NEAREST, None, sqrt_path, stats)


class TestQuantization:
    def test_roundtrip_on_grid(self):
        rng = np.random.default_rng(4)
        reps = rng.integers(FIXED32.lbound, FIXED32.ubound, size=(5, 5))
        values = reps * FIXED32.epsilon
        f = q32(values)
        assert np.array_equal(f.data, reps)
        assert np.array_equal(dequantize_matrix(f), values)

    def test_out_of_range_saturates(self):
        f = q32([[1e9, -1e9]])
        assert f.data.tolist() == [[FIXED32.ubound, FIXED32.lbound]]

    def test_roundtrip_error_bound(self):
        rng = np.random.default_rng(5)
        m = rng.uniform(-100, 100, size=(20, 20))
        err = np.abs(dequantize_matrix(q32(m)) - m)
        assert err.max() <= FIXED32.epsilon

    def test_rep_validation(self):
        # reps are checked where they enter, at each bound of each format
        for fmt in (FIXED16, FIXED32):
            for rep in (fmt.lbound, fmt.ubound):
                assert FixedMatrix(np.array([[0, rep]], dtype=np.int64), fmt).data[0, 1] == rep
            for rep in (fmt.lbound - 1, fmt.ubound + 1):
                with pytest.raises(ValueError, match="outside"):
                    FixedMatrix(np.array([[0, rep]], dtype=np.int64), fmt)
            assert FixedMatrix(np.empty((0, 3), dtype=np.int64), fmt).shape == (0, 3)

    @pytest.mark.parametrize("rep", [1 << 33, (1 << 32) + 5])
    def test_out_of_range_rhs_rejected_before_a_solve(self, rep):
        # Squared in a solve, these reps wrap int64: 2**33's sum of squares
        # is 0, which would solve to [[0], [0]], and 2**32 + 5 to 398249.
        a = FixedMatrix(np.eye(2, dtype=np.int64) * FIXED32.one, FIXED32)
        with pytest.raises(ValueError, match="outside"):
            lsmr_solve_multi(LsmrJob(a, FixedMatrix(np.array([[rep], [0]]), FIXED32)))


class TestOperandBoundary:
    """A ``FixedMatrix`` holds a private, read-only 2-D int64 rep array."""

    @pytest.mark.parametrize(
        "reps",
        [
            np.array([[3 * FIXED32.one], [0]], dtype=np.int32),
            np.array([[3.0], [0.0]]),
        ],
        ids=["int32", "float64"],
    )
    def test_non_int64_reps_rejected(self, reps):
        # an int32 b once solved to [0, 0], and float reps failed inside the
        # solver with a TypeError
        with pytest.raises(ValueError, match="int64"):
            FixedMatrix(reps, FIXED32)

    def test_data_is_read_only(self):
        m = FixedMatrix(np.array([[1], [0]], dtype=np.int64), FIXED32)
        with pytest.raises(ValueError, match="read-only"):
            m.data[0, 0] = 1 << 33

    def test_caller_array_is_not_aliased(self):
        # writing an out-of-range rep into the caller's array once solved
        # to [0, 0]
        a = FixedMatrix(np.eye(2, dtype=np.int64) * FIXED32.one, FIXED32)
        reps = np.array([[3 * FIXED32.one], [0]], dtype=np.int64)
        b = FixedMatrix(reps, FIXED32)
        reps[0, 0] = 1 << 33
        assert lsmr_solve_multi(LsmrJob(a, b)).data[:, 0].tolist() == [3 * FIXED32.one, 0]


class TestFixedMatmul:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(6)
        b = q32(rng.uniform(-50, 50, size=(4, 3)))
        eye = q32(np.eye(4))
        for mode in RoundingMode:
            rs = (
                ColumnStreams([make_stream(0, 1, j) for j in range(3)], FIXED32, 4)
                if mode is RoundingMode.STOCHASTIC else None
            )
            out = mat_mul_fixed(eye, b, mode, rs)
            assert np.array_equal(out.data, b.data)
        # right identity as well
        eye3 = q32(np.eye(3))
        out = mat_mul_fixed(b, eye3)
        assert np.array_equal(out.data, b.data)

    def test_zero_matrix(self):
        z = FixedMatrix(np.zeros((3, 4), np.int64), FIXED32)
        b = q32(np.random.default_rng(7).uniform(-10, 10, (4, 2)))
        assert np.array_equal(mat_mul_fixed(z, b).data, np.zeros((3, 2), dtype=np.int64))

    def test_against_real_product(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = q32(rng.uniform(-1, 1, size=(5, 4)))
            b = q32(rng.uniform(-1, 1, size=(4, 3)))
            got = dequantize_matrix(mat_mul_fixed(a, b))
            want = dequantize_matrix(a) @ dequantize_matrix(b)
            assert np.abs(got - want).max() <= FIXED32.epsilon

    def test_single_terminal_rounding_matches_scalar_chain(self):
        # One output cell: the wide accumulation then one cast must equal
        # exact rational arithmetic, not a chain of per-term roundings.
        a = q32([[0.1, 0.2, 0.3]])
        b = q32([[0.4], [0.5], [0.6]])
        out = mat_mul_fixed(a, b)
        exact = sum(int(x) * int(y) for x, y in zip(a.data[0], b.data[:, 0]))
        assert out.data[0, 0] == oracle_cast_wide(exact, FIXED32, RoundingMode.NEAREST)

    def test_accumulator_saturation_counted(self):
        stats = SaturationStats()
        top = FIXED32.ubound
        a = FixedMatrix(np.array([[top, top, top]], dtype=np.int64), FIXED32)
        b = FixedMatrix(np.array([[top], [top], [top]], dtype=np.int64), FIXED32)
        out = mat_mul_fixed(a, b, stats=stats)
        assert out.data[0, 0] == FIXED32.ubound
        assert stats.events >= 1

    def test_mismatches_rejected(self):
        a = q32(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_mul_fixed(a, q32(np.zeros((2, 3))))
        b16 = quantize_matrix(np.zeros((3, 2)), FIXED16)
        with pytest.raises(ValueError):
            mat_mul_fixed(a, b16)


def exact_gemm_limit(fmt):
    """Largest ``n * max|a| * max|b|`` that the exact float64 GEMM path takes."""
    return min(1 << 53, fmt.wide_ubound)


@st.composite
def mac_operands(draw):
    """Rep matrices whose bound ``n * max|a| * max|b|`` sits just below, at
    or just above the exact GEMM path's limit, or anywhere in range.

    Covers empty inner and outer dimensions, n = 1, reps at both format
    bounds and saturating sums.  Returns (fmt, a, b).
    """
    fmt = draw(st.sampled_from([FIXED16, FIXED32]))
    dims = [draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 3))]
    if draw(st.sampled_from(range(8))) == 0:
        dims[draw(st.integers(0, 2))] = 0
    m, n, p = dims
    top = -fmt.lbound
    limit = exact_gemm_limit(fmt)
    if draw(st.booleans()):
        # straddle the limit: the least amax for which some bmax reaches it
        least = min(top, -(-limit // (max(n, 1) * top)))
        amax = draw(st.sampled_from([least, top]) | st.integers(least, top))
        step = draw(st.sampled_from([-1, 0, 1]))
        bmax = min(max(limit // (max(n, 1) * amax) + step, 1), top)
    else:
        amax, bmax = (draw(st.just(top) | st.integers(1, top)) for _ in "ab")
    # only extreme cells make long same-sign runs that saturate the container
    extreme = draw(st.booleans())

    def reps(rows, cols, mag):
        cell = st.sampled_from([-mag, min(mag, fmt.ubound)])
        if not extreme:
            cell = st.sampled_from([-mag, min(mag, fmt.ubound), -1, 0, 1]) | st.integers(
                -mag, min(mag, fmt.ubound)
            )
        out = np.array(
            draw(st.lists(cell, min_size=rows * cols, max_size=rows * cols)), dtype=np.int64
        ).reshape(rows, cols)
        if out.size:
            out.flat[draw(st.integers(0, out.size - 1))] = -mag  # pin max|out| to mag
        return out

    return fmt, reps(m, n, amax), reps(n, p, bmax)


def _reps(fmt, rows):
    return fmt, np.array(rows[0], dtype=np.int64), np.array(rows[1], dtype=np.int64)


class TestWideMac:
    """The wide MAC equals k-order saturating accumulation in exact integers,
    on both sides of the exact GEMM path's predicate."""

    @settings(max_examples=300, deadline=None)
    @given(mac_operands())
    # bound == 2**53: one product at the limit, and a sum of two
    @example(_reps(FIXED32, ([[FIXED32.lbound]], [[1 << 22]])))
    @example(_reps(FIXED32, ([[FIXED32.lbound, 1]], [[1 << 21], [1]])))
    # bound == 2**54: the exact sum -(2**53 + 1) is not a float64
    @example(_reps(FIXED32, ([[FIXED32.lbound, -1]], [[1 << 22], [1]])))
    # the 64-bit container saturates in both directions
    @example(_reps(FIXED32, ([[FIXED32.lbound] * 2], [[FIXED32.lbound]] * 2)))
    @example(_reps(FIXED32, ([[FIXED32.lbound] * 3], [[FIXED32.ubound]] * 3)))
    # bound == 2**31 - 2**16 (fast) and 2**31 (saturates the 32-bit container)
    @example(_reps(FIXED16, ([[FIXED16.ubound] * 2], [[FIXED16.lbound]] * 2)))
    @example(_reps(FIXED16, ([[FIXED16.lbound] * 2], [[FIXED16.lbound]] * 2)))
    # empty inner and outer dimensions
    @example((FIXED32, np.zeros((2, 0), np.int64), np.zeros((0, 3), np.int64)))
    @example((FIXED16, np.zeros((0, 2), np.int64), np.ones((2, 3), np.int64)))
    def test_matches_saturating_oracle(self, operands):
        fmt, a, b = operands
        stats = SaturationStats()
        got = accumulate_product_wide(FixedMatrix(a, fmt), b, stats)
        want, events = oracle_mac(a, b, fmt)
        assert got.dtype == np.int64
        assert got.shape == (a.shape[0], b.shape[1])
        assert got.tolist() == want
        assert stats.events == events


class TestDotNorm:
    def test_dot_basis_vector(self):
        v = q32(np.random.default_rng(9).uniform(-5, 5, (6, 1)))
        e2 = np.zeros((1, 6))
        e2[0, 2] = 1.0
        assert mat_mul_fixed(q32(e2), v).data[0, 0] == v.data[2, 0]

    def test_dot_zero(self):
        v = q32(np.random.default_rng(10).uniform(-5, 5, (6, 1)))
        assert mat_mul_fixed(q32(np.zeros((1, 6))), v).data[0, 0] == 0

    def test_dot_against_real(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = q32(rng.uniform(-1, 1, (1, 8)))
            v = q32(rng.uniform(-1, 1, (8, 1)))
            got = dequantize_matrix(mat_mul_fixed(u, v))[0, 0]
            want = float((dequantize_matrix(u) @ dequantize_matrix(v))[0, 0])
            assert abs(got - want) <= FIXED32.epsilon

    def test_norm_fixtures(self):
        zeros = q32(np.zeros((5, 1)))
        assert ops32().norm_cols(zeros.data)[0].tolist() == [0]
        onehot = np.zeros((5, 1))
        onehot[3, 0] = 1.0
        assert ops32().norm_cols(q32(onehot).data)[0].tolist() == [FIXED32.one]

    def test_norm_against_real(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = q32(rng.uniform(-3, 3, (10, 1)))
            want = np.linalg.norm(dequantize_matrix(v))
            for path in ("float", "integer"):
                got = ops32(path).norm_cols(v.data)[0][0] * FIXED32.epsilon
                assert abs(got - want) <= 2 * FIXED32.epsilon

    def test_norm_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(13)
        v = q32(rng.uniform(-3, 3, (12, 1)))
        base = ops32().norm_cols(v.data)[0].tolist()
        perm = FixedMatrix(
            np.random.default_rng(14).permutation(v.data.ravel()).reshape(-1, 1), FIXED32
        )
        flipped = FixedMatrix(-v.data, FIXED32)
        assert ops32().norm_cols(perm.data)[0].tolist() == base
        assert ops32().norm_cols(flipped.data)[0].tolist() == base

    @pytest.mark.parametrize("sqrt_path", ["float", "integer"])
    def test_norm_saturation_counted(self, sqrt_path):
        stats = SaturationStats()
        v = FixedMatrix(np.array([[FIXED32.ubound], [FIXED32.ubound]], dtype=np.int64), FIXED32)
        assert ops32(sqrt_path, stats).norm_cols(v.data)[0].tolist() == [FIXED32.ubound]
        assert stats.events == 1


class TestFixedElementwise:
    def test_add_zero_identity(self):
        m = q32(np.random.default_rng(15).uniform(-9, 9, (4, 4)))
        z = FixedMatrix(np.zeros((4, 4), np.int64), FIXED32)
        assert np.array_equal(ops32().add(m.data, z.data), m.data)

    def test_scale_by_one(self):
        m = q32(np.random.default_rng(16).uniform(-9, 9, (4, 4)))
        assert np.array_equal(ops32().mul(m.data, ops32().one), m.data)

    def test_cellwise_matches_scalar_ops(self):
        rng = np.random.default_rng(17)
        a = q32(rng.uniform(-40, 40, (3, 5)))
        b = q32(rng.uniform(-40, 40, (3, 5)))
        s = np.int64(rng.integers(-FIXED32.one, FIXED32.one))
        added = ops32().add(a.data, b.data)
        scaled = ops32().mul(a.data, s)
        for i in range(3):
            for j in range(5):
                ra, rb = int(a.data[i, j]), int(b.data[i, j])
                assert added[i, j] == min(max(ra + rb, FIXED32.lbound), FIXED32.ubound)
                assert scaled[i, j] == oracle_cast_wide(
                    ra * int(s), FIXED32, RoundingMode.NEAREST
                )

    def test_transpose_fixed(self):
        m = q32(np.random.default_rng(18).uniform(-2, 2, (2, 5)))
        t = m.T
        assert t.shape == (5, 2)
        assert t.fmt == m.fmt
        assert np.array_equal(t.data.T, m.data)
        assert t.data.flags.c_contiguous and not t.data.flags.writeable
        assert m.T is t


_M16, _M32 = (FixedMatrix(np.zeros((1, 1), np.int64), fmt) for fmt in (FIXED16, FIXED32))


@pytest.mark.parametrize(
    "op",
    [lambda: mat_mul_fixed(_M16, _M32), lambda: LsmrJob(_M16, _M32)],
    ids=["mat_mul_fixed", "LsmrJob"],
)
def test_format_mismatch_raises_fixed_format_error(op):
    # Every operation that takes operands of two formats fails the one shared
    # check.
    with pytest.raises(FixedFormatError, match="format mismatch"):
        op()
