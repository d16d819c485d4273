"""Kernel tests: quantization and the wide-MAC fixed kernels."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from admmlsmr.fixedpoint import (
    FIXED16,
    FIXED32,
    FixedFormatError,
    RoundingMode,
    SaturationStats,
    add_f,
    divide_f,
    make_stream,
    multiply_f,
    sub_f,
)
from admmlsmr.lsmr import LsmrJob, sym_fixed
from admmlsmr.matrix import (
    FixedMatrix,
    accumulate_product_wide,
    add_fixed,
    dequantize_matrix,
    dot_fixed,
    mat_mul_fixed,
    norm_fixed,
    quantize_matrix,
    scale_fixed,
    sub_fixed,
    transpose_fixed,
)
from conftest import oracle_cast_wide, oracle_mac


def q32(m, mode=RoundingMode.NEAREST):
    return quantize_matrix(np.asarray(m, dtype=float), FIXED32, mode)


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
        with pytest.raises(ValueError):
            FixedMatrix.from_reps([[FIXED16.ubound + 1]], FIXED16)


class TestFixedMatmul:
    def test_identity_bit_exact(self):
        rng = np.random.default_rng(6)
        b = q32(rng.uniform(-50, 50, size=(4, 3)))
        eye = q32(np.eye(4))
        for mode in RoundingMode:
            rs = make_stream(0, 1) if mode is RoundingMode.STOCHASTIC else None
            out = mat_mul_fixed(eye, b, mode, rs)
            assert np.array_equal(out.data, b.data)
        # right identity as well
        eye3 = q32(np.eye(3))
        out = mat_mul_fixed(b, eye3)
        assert np.array_equal(out.data, b.data)

    def test_zero_matrix(self):
        z = FixedMatrix.zeros(3, 4, FIXED32)
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
        out = dot_fixed(a, b)
        exact = sum(int(x) * int(y) for x, y in zip(a.data[0], b.data[:, 0]))
        assert out.rep == oracle_cast_wide(exact, FIXED32, RoundingMode.NEAREST)

    def test_accumulator_saturation_counted(self):
        stats = SaturationStats()
        top = FIXED32.ubound
        a = FixedMatrix.from_reps([[top, top, top]], FIXED32)
        b = FixedMatrix.from_reps([[top], [top], [top]], FIXED32)
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
        got = accumulate_product_wide(a, b, fmt, stats)
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
        assert dot_fixed(q32(e2), v).rep == v.data[2, 0]

    def test_dot_zero(self):
        v = q32(np.random.default_rng(10).uniform(-5, 5, (6, 1)))
        assert dot_fixed(q32(np.zeros((1, 6))), v).rep == 0

    def test_dot_against_real(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            u = q32(rng.uniform(-1, 1, (1, 8)))
            v = q32(rng.uniform(-1, 1, (8, 1)))
            got = dot_fixed(u, v).value
            want = float((dequantize_matrix(u) @ dequantize_matrix(v))[0, 0])
            assert abs(got - want) <= FIXED32.epsilon

    def test_norm_fixtures(self):
        zeros = q32(np.zeros((5, 1)))
        assert norm_fixed(zeros).rep == 0
        onehot = np.zeros((5, 1))
        onehot[3, 0] = 1.0
        assert norm_fixed(q32(onehot)).value == 1.0

    def test_norm_against_real(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            v = q32(rng.uniform(-3, 3, (10, 1)))
            want = np.linalg.norm(dequantize_matrix(v))
            for path in ("float", "integer"):
                assert abs(norm_fixed(v, path).value - want) <= 2 * FIXED32.epsilon

    def test_norm_permutation_and_sign_invariance(self):
        rng = np.random.default_rng(13)
        v = q32(rng.uniform(-3, 3, (12, 1)))
        base = norm_fixed(v).rep
        perm = FixedMatrix.from_reps(
            np.random.default_rng(14).permutation(v.data.ravel()).reshape(-1, 1), FIXED32
        )
        flipped = FixedMatrix.from_reps(-v.data, FIXED32)
        assert norm_fixed(perm).rep == base
        assert norm_fixed(flipped).rep == base

    @pytest.mark.parametrize("sqrt_path", ["float", "integer"])
    def test_norm_saturation_counted(self, sqrt_path):
        stats = SaturationStats()
        v = FixedMatrix.from_reps([[FIXED32.ubound], [FIXED32.ubound]], FIXED32)
        assert norm_fixed(v, sqrt_path, stats).rep == FIXED32.ubound
        assert stats.events == 1

    def test_norm_accepts_row_vector(self):
        v = q32(np.ones((1, 4)))
        assert norm_fixed(v).value == pytest.approx(2.0, abs=FIXED32.epsilon)


class TestFixedElementwise:
    def test_add_zero_identity(self):
        m = q32(np.random.default_rng(15).uniform(-9, 9, (4, 4)))
        z = FixedMatrix.zeros(4, 4, FIXED32)
        assert np.array_equal(add_fixed(m, z).data, m.data)

    def test_scale_by_one(self):
        m = q32(np.random.default_rng(16).uniform(-9, 9, (4, 4)))
        one = FIXED32.word(FIXED32.one)
        assert np.array_equal(scale_fixed(m, one).data, m.data)

    def test_cellwise_matches_scalar_ops(self):
        rng = np.random.default_rng(17)
        a = q32(rng.uniform(-40, 40, (3, 5)))
        b = q32(rng.uniform(-40, 40, (3, 5)))
        s = FIXED32.word(int(rng.integers(-FIXED32.one, FIXED32.one)))
        added = add_fixed(a, b)
        scaled = scale_fixed(a, s)
        for i in range(3):
            for j in range(5):
                ra, rb = int(a.data[i, j]), int(b.data[i, j])
                assert added.data[i, j] == min(max(ra + rb, FIXED32.lbound), FIXED32.ubound)
                assert scaled.data[i, j] == oracle_cast_wide(
                    ra * s.rep, FIXED32, RoundingMode.NEAREST
                )

    def test_sub_shape_check(self):
        with pytest.raises(ValueError):
            sub_fixed(q32(np.zeros((2, 2))), q32(np.zeros((3, 2))))

    def test_transpose_fixed(self):
        m = q32(np.random.default_rng(18).uniform(-2, 2, (2, 5)))
        t = transpose_fixed(m)
        assert t.shape == (5, 2)
        assert np.array_equal(t.data.T, m.data)


_W16, _W32 = FIXED16.word(FIXED16.one), FIXED32.word(FIXED32.one)
_M16, _M32 = FixedMatrix.zeros(1, 1, FIXED16), FixedMatrix.zeros(1, 1, FIXED32)


@pytest.mark.parametrize(
    "op",
    [
        lambda: add_f(_W16, _W32),
        lambda: sub_f(_W16, _W32),
        lambda: multiply_f(_W16, _W32),
        lambda: divide_f(_W16, _W32),
        lambda: mat_mul_fixed(_M16, _M32),
        lambda: dot_fixed(_M16, _M32),
        lambda: add_fixed(_M16, _M32),
        lambda: sub_fixed(_M16, _M32),
        lambda: scale_fixed(_M16, _W32),
        lambda: sym_fixed(_W16, _W32),
        lambda: LsmrJob.full(_M16, _M32),
    ],
    ids=["add_f", "sub_f", "multiply_f", "divide_f", "mat_mul_fixed", "dot_fixed",
         "add_fixed", "sub_fixed", "scale_fixed", "sym_fixed", "LsmrJob"],
)
def test_format_mismatch_raises_fixed_format_error(op):
    # Every operation on operands of two formats fails the one shared check.
    with pytest.raises(FixedFormatError, match="format mismatch"):
        op()
