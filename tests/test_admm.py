"""Trainer tests: closed-form updates, solver-backed procedures, full sweeps."""
from __future__ import annotations

import dataclasses
import hashlib
import threading
import warnings

import numpy as np
import pytest

from admmlsmr import admm, fixedpoint
from admmlsmr.admm import (
    IterationTimings,
    NetworkConfig,
    SolveEngine,
    TrainReport,
    TrainingDivergedError,
    accuracy,
    activation_update,
    init_network,
    lagrangian_update,
    predict,
    train,
    weight_update,
    z_update_hidden,
    z_update_output,
)
from admmlsmr.data import Dataset, one_hot
from admmlsmr.fixedpoint import FIXED32, RoundingMode, SaturationStats, make_stream
from admmlsmr.lsmr import SQRT_PATHS, LsmrJob, lsmr_solve_multi
from admmlsmr.matrix import quantize_matrix
from conftest import (
    grid_min_hidden,
    grid_min_output,
    hidden_objective,
    output_objective,
)


def tiny_dataset(n=40, seed=0, d=4, classes=3):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, classes, size=n)
    centers = rng.normal(0, 2, size=(classes, d))
    feats = centers[labels].T + rng.normal(0, 0.5, size=(d, n))
    return Dataset(feats, labels.astype(np.int64), classes)


def state_digest(state):
    """SHA-256 of the final weights and multiplier, shapes included."""
    h = hashlib.sha256()
    for arr in (*state.weights, state.lam):
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def state_bytes(state):
    parts = [w.tobytes() for w in state.weights]
    parts += [z.tobytes() for z in state.z]
    parts += [x.tobytes() for x in state.x]
    parts.append(state.lam.tobytes())
    return b"".join(parts)


class TestHiddenZUpdate:
    def test_consistent_point_is_fixed(self):
        rng = np.random.default_rng(0)
        b = rng.uniform(-3, 3, size=(4, 6))
        a = np.maximum(b, 0.0)
        z = z_update_hidden(a, b, 2.0, 3.0)
        assert np.allclose(z, b)
        assert np.allclose(hidden_objective(z, a, 2.0, 3.0, b), 0.0)

    def test_interior_candidate(self):
        z = z_update_hidden(np.array([[1.0]]), np.array([[1.0]]), 1.0, 1.0)
        assert z[0, 0] == 1.0

    def test_matches_grid_search(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            a, b = rng.uniform(-8, 8, 2)
            gamma, beta = 10.0 ** rng.uniform(-1, 1, 2)
            z = z_update_hidden(np.array([[a]]), np.array([[b]]), gamma, beta)[0, 0]
            got = hidden_objective(z, a, gamma, beta, b)
            want = grid_min_hidden(a, b, gamma, beta, step=1e-3)
            assert got <= want + 1e-5

    def test_objective_beats_dense_grid(self):
        rng = np.random.default_rng(2)
        grid = np.arange(-10.0, 10.0 + 1e-4, 1e-4)
        for _ in range(20):
            a, b = rng.uniform(-8, 8, 2)
            gamma, beta = 10.0 ** rng.uniform(-1, 1, 2)
            z = z_update_hidden(np.array([[a]]), np.array([[b]]), gamma, beta)[0, 0]
            got = hidden_objective(z, a, gamma, beta, b)
            assert got <= hidden_objective(grid, a, gamma, beta, b).min() + 1e-12

    def test_shape_check(self):
        with pytest.raises(ValueError):
            z_update_hidden(np.zeros((2, 2)), np.zeros((2, 3)), 1.0, 1.0)


class TestOutputZUpdate:
    def test_consistent_point(self):
        y = np.random.default_rng(3).uniform(-2, 2, (3, 5))
        z = z_update_output(y, y, np.zeros_like(y), 1.0)
        assert np.allclose(z, y)

    def test_large_penalty_tracks_target(self):
        rng = np.random.default_rng(4)
        y = rng.uniform(-1, 1, (2, 4))
        b = rng.uniform(-1, 1, (2, 4))
        lam = rng.uniform(-1, 1, (2, 4))
        z = z_update_output(y, b, lam, 1e6)
        assert np.abs(z - b).max() < 1e-3

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            y, b, lam = rng.uniform(-5, 5, 3)
            beta = 10.0 ** rng.uniform(-1, 1)
            z = z_update_output(
                np.array([[y]]), np.array([[b]]), np.array([[lam]]), beta
            )[0, 0]
            got = output_objective(z, y, lam, beta, b)
            want = grid_min_output(y, b, lam, beta, step=1e-3)
            assert got <= want + 1e-5


class TestLagrangian:
    def test_no_gap_no_change(self):
        z = np.random.default_rng(6).uniform(-1, 1, (3, 4))
        lam = np.random.default_rng(7).uniform(-1, 1, (3, 4))
        assert np.array_equal(lagrangian_update(lam, 2.5, z, z), lam)

    def test_unit_step(self):
        gap = np.random.default_rng(8).uniform(-1, 1, (2, 2))
        out = lagrangian_update(np.zeros((2, 2)), 1.0, gap, np.zeros((2, 2)))
        assert np.array_equal(out, gap)

    def test_random_recompute(self):
        rng = np.random.default_rng(9)
        lam, z, b = (rng.uniform(-2, 2, (3, 3)) for _ in range(3))
        beta = 0.7
        assert np.allclose(lagrangian_update(lam, beta, z, b), lam + beta * (z - b))


class TestInit:
    def test_multiplier_zero_and_forward_consistency(self):
        ds = tiny_dataset()
        cfg = NetworkConfig([4, 6, 3], seed=1)
        st = init_network(cfg, ds.features, make_stream(1, 0))
        assert not st.lam.any()
        assert np.array_equal(st.z[0], st.weights[0] @ ds.features)
        assert np.array_equal(st.x[0], np.maximum(st.z[0], 0.0))

    def test_seed_determinism(self):
        ds = tiny_dataset()
        cfg = NetworkConfig([4, 6, 3], seed=5)
        a = init_network(cfg, ds.features, make_stream(5, 0))
        b = init_network(cfg, ds.features, make_stream(5, 0))
        assert state_bytes(a) == state_bytes(b)

    def test_shape_mismatch(self):
        ds = tiny_dataset()
        cfg = NetworkConfig([5, 6, 3])
        with pytest.raises(ValueError):
            init_network(cfg, ds.features, make_stream(0, 0))

    def test_predict_matches_the_initial_forward_pass(self):
        ds = tiny_dataset()
        cfg = NetworkConfig([4, 6, 5, 3], seed=3)
        st = init_network(cfg, ds.features, make_stream(3, 0))
        assert predict(st.weights, ds.features).tobytes() == st.z[-1].tobytes()
        assert len(st.x) == 2
        for z, x in zip(st.z, st.x):
            assert x.tobytes() == np.maximum(z, 0.0).tobytes()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NetworkConfig([4, 3])  # no hidden layer
        with pytest.raises(ValueError):
            NetworkConfig([4, 8, 3], arithmetic="fixed64")
        with pytest.raises(ValueError):
            NetworkConfig([4, 8, 3], beta=[1.0])  # wrong penalty count
        with pytest.raises(ValueError):
            NetworkConfig([4, 8, 3], gamma=-1.0)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                NetworkConfig([4, 8, 3], beta=bad)
            with pytest.raises(ValueError, match="finite"):
                NetworkConfig([4, 8, 3], gamma=[bad])
        for bad in (
            dict(beta="0.5"), dict(gamma=True), dict(beta=[True, "2"]),
            dict(beta=np.True_), dict(gamma=[np.bool_(True)]), dict(beta=b"1"),
            dict(beta=np.array(True)), dict(beta=[np.array(True), 1.0]),
            dict(gamma=np.array(True)), dict(gamma=[np.array(True)]),
        ):
            with pytest.raises(ValueError, match="numbers"):
                NetworkConfig(**{"layer_dims": [4, 8, 3], **bad})
        with pytest.raises(ValueError):
            NetworkConfig([4, 8, 3], sqrt_path="newton")
        with pytest.raises(ValueError):
            NetworkConfig([4, 8, 3], lsmr_iterations=0)
        assert NetworkConfig([4, 8, 3], lsmr_iterations=1).lsmr_iterations == 1
        for bad in (
            dict(iterations=2.5), dict(workers=2.5), dict(lsmr_iterations=2.5),
            dict(layer_dims=[4, 8.5, 3]), dict(iterations="2"),
            dict(iterations=True), dict(workers=True), dict(layer_dims=[4, True, 3]),
        ):
            with pytest.raises(ValueError, match="integer"):
                NetworkConfig(**{"layer_dims": [4, 8, 3], **bad})
        cfg = NetworkConfig(
            np.array([4, 8, 3]), iterations=np.int64(2), workers=np.int32(2),
            lsmr_iterations=np.int64(3),
        )
        assert (cfg.layer_dims, cfg.iterations, cfg.workers, cfg.lsmr_iterations) == (
            [4, 8, 3], 2, 2, 3
        )
        # the seed and the rounding mode are checked here, not first in train
        for bad in (1.5, "3", None, True):
            with pytest.raises(ValueError, match="seed must be a non-negative integer, got "):
                NetworkConfig([4, 8, 3], seed=bad)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            NetworkConfig([4, 8, 3], seed=-1)
        for bad in ("nearest", None):
            with pytest.raises(ValueError, match="rounding must be a RoundingMode"):
                NetworkConfig([4, 8, 3], arithmetic="fixed32", rounding=bad)
        assert NetworkConfig([4, 8, 3], seed=np.uint64(7)).seed == 7
        # a 0-d array is one penalty for every layer, like a scalar
        cfg = NetworkConfig([4, 8, 3], beta=np.array(2.0), gamma=np.float32(0.5))
        assert (cfg.beta, cfg.gamma) == ([2.0, 2.0], [0.5])
        assert NetworkConfig([4, 8, 3], seed=2**70).seed == 2**70

    def test_config_resolves_penalties_once(self, monkeypatch):
        # a scalar penalty and its per-layer list make equal configs
        assert NetworkConfig([4, 8, 3], beta=2.0) == NetworkConfig([4, 8, 3], beta=[2.0, 2.0])
        expand, widths = NetworkConfig._expand, []
        monkeypatch.setattr(
            NetworkConfig, "_expand", staticmethod(lambda v, n: widths.append(n) or expand(v, n))
        )
        cfg = NetworkConfig([4, 8, 3], iterations=1, beta=[1.0, 2.0], gamma=0.5)
        assert (cfg.beta, cfg.gamma, widths) == ([1.0, 2.0], [0.5], [2, 1])
        moved = dataclasses.replace(cfg, iterations=5)
        assert (moved.beta, moved.gamma, moved.iterations) == ([1.0, 2.0], [0.5], 5)
        # training reads the resolved lists and expands nothing again
        widths.clear()
        _, report = train(cfg, tiny_dataset())
        assert (report.config["beta"], report.config["gamma"], widths) == ([1.0, 2.0], [0.5], [])


def make_engine(workers=1, **kw):
    cfg = NetworkConfig([4, 8, 3], workers=workers, **kw)
    return SolveEngine(cfg)


class TestWeightUpdate:
    def test_recovers_planted_weights(self):
        rng = np.random.default_rng(10)
        w0 = rng.uniform(-1, 1, (5, 3))
        x_prev = rng.standard_normal((3, 40))  # full row rank
        z = w0 @ x_prev
        engine = make_engine()
        w, _ = weight_update(z, x_prev, engine, 1)
        assert np.abs(w - w0).max() < 1e-6

    def test_zero_targets_give_zero_weights(self):
        rng = np.random.default_rng(11)
        engine = make_engine()
        w, _ = weight_update(np.zeros((4, 20)), rng.standard_normal((3, 20)), engine, 1)
        assert not w.any()

    def test_square_invertible_case(self):
        rng = np.random.default_rng(12)
        x_prev = rng.uniform(-1, 1, (6, 6)) + 2 * np.eye(6)
        w0 = rng.uniform(-1, 1, (4, 6))
        z = w0 @ x_prev
        engine = make_engine()
        w, _ = weight_update(z, x_prev, engine, 1)
        want = z @ np.linalg.inv(x_prev)
        assert np.abs(w - want).max() < 1e-6


class TestActivationUpdate:
    def test_zero_next_weights_returns_relu(self):
        rng = np.random.default_rng(13)
        z_l = rng.standard_normal((6, 15))
        engine = make_engine()
        x, _ = activation_update(
            np.zeros((4, 6)), np.zeros((4, 15)), z_l, 1.0, 2.0, engine, 1
        )
        assert np.abs(x - np.maximum(z_l, 0.0)).max() < 1e-9

    def test_dominant_gamma_limit(self):
        rng = np.random.default_rng(14)
        w_next = rng.uniform(-1, 1, (5, 6))
        z_next = rng.standard_normal((5, 10))
        z_l = rng.standard_normal((6, 10))
        engine = make_engine()
        x, _ = activation_update(w_next, z_next, z_l, 1.0, 1e6, engine, 1)
        assert np.abs(x - np.maximum(z_l, 0.0)).max() < 1e-3

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(15)
        w_next = rng.uniform(-1, 1, (5, 6))
        z_next = rng.standard_normal((5, 12))
        z_l = rng.standard_normal((6, 12))
        beta, gamma = 0.7, 1.3
        engine = make_engine()
        x, _ = activation_update(w_next, z_next, z_l, beta, gamma, engine, 1)
        part1 = gamma * np.eye(6) + beta * w_next.T @ w_next
        part2 = gamma * np.maximum(z_l, 0) + beta * w_next.T @ z_next
        assert np.abs(x - np.linalg.solve(part1, part2)).max() < 1e-6


class TestStreamPool:
    def test_pooled_streams_equal_fresh_streams(self):
        # One engine's pooled generators serve solves that grow the pool,
        # shrink back and split into column ranges.  Every solve must equal
        # a direct one whose quantize stream and column streams are new
        # generators of the same keys (tag 2 quantizes, tag 3 rounds), in its
        # solution, its saturation count and each column stream's next draw.
        seed, mode = 21, RoundingMode.STOCHASTIC
        engine = SolveEngine(
            NetworkConfig([4, 8, 3], arithmetic="fixed32", rounding=mode, seed=seed)
        )
        rng = np.random.default_rng(22)
        cases = [((30, 4), 8, 1), ((8, 8), 120, 1), ((30, 8), 3, 1)]
        cases += [((30, 8), 3, workers) for workers in (1, 2, 4)]
        saturated = 0
        for job_id, ((m, n), p, chunks) in enumerate(cases, 1):
            a = rng.uniform(-1, 1, (m, n)) * 40.0
            b = rng.uniform(-1, 1, (m, p)) * 40.0
            before = engine.saturation.events
            got, _ = engine.run_wave(engine.prepare(a, b, job_id, chunks))

            stats = SaturationStats()
            q_rng = make_stream(seed, 2, job_id)
            aq = quantize_matrix(a, FIXED32, mode, q_rng, stats)
            bq = quantize_matrix(b, FIXED32, mode, q_rng, stats)
            gens = [make_stream(seed, 3, job_id, j) for j in range(p)]
            want = lsmr_solve_multi(LsmrJob(aq, bq), mode, gens, stats=stats)

            assert np.array_equal(got, want.to_real())
            assert engine.saturation.events - before == stats.events
            pooled = engine._column_streams[:p]
            assert [g.random() for g in pooled] == [g.random() for g in gens]
            saturated += stats.events
        assert len(engine._column_streams) == 120
        assert saturated > 0


class TestInference:
    def test_identity_network(self):
        eye_net = [np.eye(3), np.eye(3)]
        inputs = one_hot(np.array([0, 1, 2, 1]), 3)
        assert np.array_equal(predict(eye_net, inputs), inputs)

    def test_perfect_accuracy(self):
        outputs = one_hot(np.array([2, 0, 1]), 3)
        assert accuracy(outputs, np.array([2, 0, 1])) == 1.0

    def test_hand_counted_fixture(self):
        # 10 samples scored by hand: columns 0-6 and 8 hit, 7 and 9 miss.
        scores = np.array(
            [
                [9, 1, 1, 9, 0, 5, 2, 8, 1, 0],
                [1, 9, 2, 1, 9, 4, 9, 1, 2, 9],
                [0, 0, 9, 2, 1, 6, 1, 0, 9, 1],
            ],
            dtype=float,
        )
        labels = np.array([0, 1, 2, 0, 1, 2, 1, 1, 2, 0])
        assert accuracy(scores, labels) == 0.8

    def test_tie_goes_to_lowest_index(self):
        out = np.array([[1.0], [1.0], [0.5]])
        assert accuracy(out, np.array([0])) == 1.0
        assert accuracy(out, np.array([1])) == 0.0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            predict([np.eye(3)], np.zeros((4, 2)))
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 3)), np.array([0, 1]))


def test_report_totals_follow_the_timing_fields():
    timings = [IterationTimings(0.5, 0.25, 0.125, 2.0), IterationTimings(1.0, 3.0, 0.5, 0.75)]
    report = TrainReport({}, timings)
    assert report.totals() == {
        "weight": 1.5, "activation": 3.25, "output": 0.625, "lagrangian": 2.75
    }
    assert list(report.totals()) == ["weight", "activation", "output", "lagrangian"]
    assert [t.total() for t in timings] == [2.875, 5.25]


class TestTrain:
    def test_zero_iterations_is_init(self):
        ds = tiny_dataset()
        cfg = NetworkConfig([4, 6, 3], iterations=0, seed=9, workers=1)
        state, report = train(cfg, ds)
        ref = init_network(cfg, ds.features, make_stream(9, 1))
        assert state_bytes(state) == state_bytes(ref)
        assert report.timings == []
        assert report.train_accuracy is not None

    def test_worker_count_invariance_real(self, iris):
        from admmlsmr.data import split, standardize

        sp = split(iris, 0.2, 1)
        tr, te, _ = standardize(sp.train, sp.test)
        blobs = []
        for workers in (1, 3):
            cfg = NetworkConfig(
                [4, 8, 8, 3], iterations=4, beta=0.1, gamma=30.0, seed=2, workers=workers
            )
            st, _ = train(cfg, tr, te)
            blobs.append(state_bytes(st))
        assert blobs[0] == blobs[1]

    def test_fixed_mode_reports_saturation_and_format(self):
        ds = tiny_dataset(n=30)
        cfg = NetworkConfig(
            [4, 6, 3], iterations=3, arithmetic="fixed32", seed=0, workers=1
        )
        state, report = train(cfg, ds)
        assert len(report.saturation_per_iteration) == 3
        assert report.config["fixed_format"] == {"word_length": 32, "fraction_length": 18}
        assert np.isfinite(state.weights[0]).all()

    @pytest.mark.parametrize("arithmetic, checks", [("fixed32", 180), ("fixed16", 303)])
    def test_narrowing_checks_per_training(self, monkeypatch, arithmetic, checks):
        # The full-array saturation checks (_saturate calls) of one small
        # training: an exact cost count that no machine speed moves.  It
        # changes when a narrowing is added, removed or proved in range.
        calls = 0
        saturate = fixedpoint._saturate

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return saturate(*args, **kwargs)

        monkeypatch.setattr(fixedpoint, "_saturate", counted)
        cfg = NetworkConfig([4, 6, 3], iterations=3, arithmetic=arithmetic, seed=0, workers=1)
        train(cfg, tiny_dataset(n=30))
        assert calls == checks

    def test_saturation_regression_baseline(self, iris):
        # 32-bit words on standardized iris: observed worst per-sweep count is
        # ~1.9k; a blow-up past this margin signals a range regression.
        from admmlsmr.data import split, standardize

        sp = split(iris, 0.2, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        cfg = NetworkConfig(
            [4, 8, 8, 3], iterations=5, beta=0.03, gamma=10.0,
            seed=0, workers=1, arithmetic="fixed32",
        )
        _, report = train(cfg, tr, te)
        assert max(report.saturation_per_iteration) < 6000

    def test_stochastic_training_reproducible(self):
        ds = tiny_dataset(n=25)
        cfg = dict(
            layer_dims=[4, 5, 3], iterations=2, arithmetic="fixed32",
            rounding=RoundingMode.STOCHASTIC, seed=11,
        )
        a, _ = train(NetworkConfig(**cfg, workers=1), ds)
        b, _ = train(NetworkConfig(**cfg, workers=4), ds)
        assert state_bytes(a) == state_bytes(b)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "arithmetic, digest, saturation",
        [
            ("fixed32", "3993ad8edf0998e38f68438bcafa40a2e5864ccee0b10f3b2ab670ca33a3736f", 1949),
            ("fixed16", "fa872757a3238cffb3bdb13d328af3eda54f4e58a1ba43bf66c6d29998df3dfb", 21513),
        ],
    )
    def test_stochastic_training_matches_recorded_state(
        self, iris, arithmetic, digest, saturation, workers
    ):
        # Recorded with each column's uniforms drawn one generator call per
        # cast; drawing them in blocks must leave every bit as it was.
        from admmlsmr.data import split, standardize

        sp = split(iris, 0.2, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        cfg = NetworkConfig(
            [4, 8, 8, 3], iterations=5, beta=0.1, gamma=30.0, seed=0, workers=workers,
            arithmetic=arithmetic, rounding=RoundingMode.STOCHASTIC,
        )
        state, report = train(cfg, tr, te)
        assert state_digest(state) == digest
        assert sum(report.saturation_per_iteration) == saturation

    @pytest.mark.parametrize(
        "arithmetic, rounding, sqrt_path, digest, saturation",
        [
            ("fixed16", "down", "float", "fc95ac0a17f614222b4fbec9791ccef7bcee436bd5f0b36a284f5bc1f6137372", 20039),
            ("fixed16", "down", "integer", "cc4e75e8a14bbf5baa230e93907a4590dee33f40fe7c2e4fe5ecb9d943b5526c", 20289),
            ("fixed16", "up", "float", "bf7d007c3bb8df19c67128512eb5d1ce22c5bd3f65c1ff5c45090f696ba68a2d", 20068),
            ("fixed16", "up", "integer", "33b6a63f4a2de6aef30ceb5e99b7f403756dcbaf6c162234fa94d2e3533df763", 20504),
            ("fixed16", "nearest", "float", "1b13a82eb994a69ed578cf325e4ed4ee359b27e8de15ce35c1ea16954e1bca48", 20010),
            ("fixed16", "nearest", "integer", "4d172fa10b0f76f582d8b76ea449fc2efc503bdf3aa9eb7b8838ef3063c6120d", 20727),
            ("fixed16", "stochastic", "float", "fd3d2a116dec7abe14d86f90b2160389cbd526778992bb950ea4c628d2563458", 20063),
            ("fixed16", "stochastic", "integer", "7c7c48a95a08e767c308ae449a59200e886a50d9cb64511691e51e893aecd214", 20622),
            ("fixed32", "down", "float", "93dfb73e62f6cdcd318bca56c0e0abf4569c85f1b9ba4b0ca15822c4006605ef", 1302),
            ("fixed32", "down", "integer", "8fceeba2ba5b25931a2e76adff1b119762a6a83cb13ade03a36d2e805d527292", 890),
            ("fixed32", "up", "float", "137dd2d9b0442391730873726d0bf06401f069cc0e77415a302fa488861a6681", 966),
            ("fixed32", "up", "integer", "c4f7d6a7e1dbee28037008f1bdde0d5fac3142795d80c2563e465b5261c98b0d", 930),
            ("fixed32", "nearest", "float", "9fd7b49cdc57a8d786c588fe8b4a3d024cdeb919a56b1174940517e0bdeb7e39", 954),
            ("fixed32", "nearest", "integer", "1a2a2c107eae8e58f9d460d8b7b6f66af1f2cbfc0af553fbaa447e2e8be505e3", 891),
            ("fixed32", "stochastic", "float", "8fc69b35202820dbcec040c1ef6417a96df58e145573c23dde94337d423f98d9", 896),
            ("fixed32", "stochastic", "integer", "cc49be311bf829e3d2b70251b6690020410034c71842a7ebc9cf6383b84a4356", 893),
        ],
    )
    def test_fixed_training_matches_recorded_state(
        self, iris, arithmetic, rounding, sqrt_path, digest, saturation
    ):
        # The c10 config in every fixed mode and sqrt path, recorded before
        # the narrowing casts took their rounding as an added bias; fixed16
        # saturates thousands of times, so the clamps are pinned too.
        from admmlsmr.data import split, standardize

        sp = split(iris, 0.2, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        cfg = NetworkConfig(
            [4, 8, 8, 3], iterations=5, beta=0.03, gamma=10.0, seed=0, workers=1,
            arithmetic=arithmetic, rounding=RoundingMode(rounding), sqrt_path=sqrt_path,
        )
        state, report = train(cfg, tr, te)
        assert state_digest(state) == digest
        assert sum(report.saturation_per_iteration) == saturation

    @pytest.mark.parametrize(
        "arithmetic, workers",
        [("real", 1), ("fixed32", 1), ("real", 2), ("fixed32", 2)],
        ids=["real", "fixed32", "real-w2", "fixed32-w2"],
    )
    def test_timings_cover_wall_time(self, arithmetic, workers):
        ds = tiny_dataset(n=300, d=6, classes=3)
        cfg = NetworkConfig(
            [6, 16, 3], iterations=3, seed=0, workers=workers, arithmetic=arithmetic
        )
        _, report = train(cfg, ds)
        tracked = sum(t.total() for t in report.timings)
        assert tracked >= 0.95 * report.wall_seconds
        # each solve is timed once, whatever its column split
        assert tracked <= 1.05 * report.wall_seconds

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_solves_run_on_the_calling_thread(self, monkeypatch, workers):
        threads = []
        solve = admm.lsmr_solve_multi

        def recording(*args, **kwargs):
            threads.append(threading.get_ident())
            return solve(*args, **kwargs)

        monkeypatch.setattr(admm, "lsmr_solve_multi", recording)
        ds = tiny_dataset(n=40)
        train(NetworkConfig([4, 6, 6, 3], iterations=2, seed=3, workers=workers), ds)
        # two hidden layers' weight and activation solves run as one block
        # each; the output weight solve runs as min(workers, 3) column ranges
        assert len(threads) == 2 * (4 + min(workers, 3))
        assert set(threads) == {threading.get_ident()}

    def test_sweep_is_two_waves_of_independent_solves(self):
        # One sweep rebuilt by hand from the job-id rule, with each wave's
        # solves in reverse layer order: no bit, stream or count may move.
        ds = tiny_dataset(n=30)
        cfg = NetworkConfig(
            [4, 6, 5, 4, 3], iterations=1, arithmetic="fixed32",
            rounding=RoundingMode.STOCHASTIC, beta=0.5, gamma=100.0, seed=1, workers=2,
        )
        trained, report = train(cfg, ds)

        state = init_network(cfg, ds.features, make_stream(cfg.seed, 1))
        engine = SolveEngine(cfg)
        betas, gammas, n = cfg.beta, cfg.gamma, cfg.layer_count
        for l in reversed(range(n - 1)):
            state.x[l], _ = activation_update(
                state.weights[l + 1], state.z[l + 1], state.z[l],
                betas[l + 1], gammas[l], engine, 2 * l + 2,
            )
        inputs = [ds.features, *state.x]
        for l in reversed(range(n)):
            chunks = cfg.workers if l == n - 1 else 1
            state.weights[l], _ = weight_update(state.z[l], inputs[l], engine, 2 * l + 1, chunks)
        for l in range(n - 1):
            state.z[l] = z_update_hidden(
                state.x[l], state.weights[l] @ inputs[l], gammas[l], betas[l]
            )
        b_out = state.weights[-1] @ inputs[-1]
        state.z[-1] = z_update_output(one_hot(ds.labels, 3), b_out, state.lam, betas[-1])
        state.lam = lagrangian_update(state.lam, betas[-1], state.z[-1], b_out)

        assert state_bytes(state) == state_bytes(trained)
        assert report.saturation_per_iteration == [engine.saturation.events]
        assert engine.saturation.events > 0

    def test_output_width_must_match_classes(self):
        ds = tiny_dataset()
        with pytest.raises(ValueError):
            train(NetworkConfig([4, 6, 5], iterations=1), ds)

    @pytest.mark.parametrize("penalty", [1e200, 1e300])
    def test_overflowing_real_run_diverges(self, penalty):
        # A column norm overflows to inf, which would zero its solution and
        # leave a finite state: the overflow itself must end the run.
        ds = tiny_dataset(n=30, classes=2)
        cfg = NetworkConfig([4, 3, 2], iterations=2, beta=penalty, gamma=penalty)
        with pytest.raises(TrainingDivergedError, match="overflow"):
            train(cfg, ds)

    @pytest.mark.parametrize("arithmetic", ["real", "fixed32", "fixed16"])
    @pytest.mark.parametrize("case", ["penalty", "forward-pass"])
    def test_diverging_run_raises_one_error(self, arithmetic, case):
        # A huge penalty overflows mid-sweep; huge features overflow the
        # first forward pass.  Either way the run ends in one error naming
        # its arithmetic, with no warning first.
        if case == "penalty":
            ds = tiny_dataset(n=30, classes=2)
            cfg = NetworkConfig([4, 3, 2], iterations=3, beta=1e308, arithmetic=arithmetic)
        else:
            ds = Dataset(np.full((200, 30), 1.7e308), np.arange(30) % 2, 2)
            cfg = NetworkConfig([200, 8, 2], iterations=3, arithmetic=arithmetic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                TrainingDivergedError, match=f"^floating-point .* in {arithmetic} arithmetic;"
            ):
                train(cfg, ds)

    def test_fixed_runs_raise_no_float_flag(self, iris):
        # train raises on any numpy float flag, so a fixed run on ordinary
        # data pins that the fixed kernels set none, in every mode and path
        from admmlsmr.data import split, standardize

        sp = split(iris, 0.2, 0)
        tr, te, _ = standardize(sp.train, sp.test)
        for arithmetic in ("fixed16", "fixed32"):
            for rounding in RoundingMode:
                for sqrt_path in SQRT_PATHS:
                    cfg = NetworkConfig(
                        [4, 8, 8, 3], iterations=2, beta=0.03, gamma=10.0, seed=0,
                        arithmetic=arithmetic, rounding=rounding, sqrt_path=sqrt_path,
                    )
                    _, report = train(cfg, tr, te)
                    assert len(report.timings) == 2
