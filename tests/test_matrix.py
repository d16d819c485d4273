"""Kernel tests: quantization and the wide-MAC fixed kernels."""
from __future__ import annotations

import numpy as np
import pytest

from admmlsmr.fixedpoint import (
    FIXED16,
    FIXED32,
    RoundingMode,
    SaturationStats,
    make_stream,
)
from admmlsmr.matrix import (
    FixedMatrix,
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
from conftest import oracle_cast_wide


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
