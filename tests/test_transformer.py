import itertools
import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from mfvol import transformer as tf
from mfvol.errors import InputError, NumericalError
from mfvol.transformer import ModelConfig, TrainConfig

from oracles import (
    attention_naive,
    encoder_mse_stacked,
    encoder_naive,
    fd_gradient,
    fd_gradient_stacked,
    rel_err,
)

RNG = np.random.default_rng(11)

TINY = ModelConfig(n_features=3, d_model=6, n_heads=2, n_layers=1, d_ff=8)


def toy_dataset(n=40, n_features=3, window=4, seed=5):
    """Windowed samples whose target is a smooth function of the inputs."""
    rng = np.random.default_rng(seed)
    rows = n + window
    feats = rng.standard_normal((rows, n_features))
    target = 0.8 * feats[:, 0] + 0.3 * np.tanh(feats[:, 1]) \
        + 0.05 * rng.standard_normal(rows) + 2.0
    dates = [f"2020-01-{d + 1:02d}" for d in range(rows)]
    return tf.build_windows(dates, feats, target, window,
                            [f"f{j}" for j in range(n_features)])


class TestConfigs:
    def test_head_split_must_be_exact(self):
        with pytest.raises(InputError, match="not divisible by n_heads=5"):
            ModelConfig(n_features=3, d_model=12, n_heads=5)

    def test_default_geometry(self):
        cfg = ModelConfig(n_features=10)
        assert (cfg.d_model, cfg.n_heads, cfg.d_head, cfg.n_layers,
                cfg.d_ff) == (12, 3, 4, 2, 24)

    def test_bad_optimizer(self):
        with pytest.raises(InputError, match="unknown optimizer 'lbfgs'"):
            TrainConfig(optimizer="lbfgs")

    @pytest.mark.parametrize("field", ["n_heads", "d_ff", "n_layers"])
    def test_zero_dimension(self, field):
        with pytest.raises(InputError, match="dimensions must be positive"):
            ModelConfig(n_features=3, **{field: 0})

    def test_zero_epochs(self):
        with pytest.raises(InputError, match="max_epochs must be positive"):
            TrainConfig(max_epochs=0)

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", math.nan), ("learning_rate", math.inf),
        ("learning_rate", -1.0), ("patience", -1)])
    def test_bad_step_or_patience(self, field, value):
        with pytest.raises(InputError, match=field):
            TrainConfig(**{field: value})
        TrainConfig(**{field: 0})     # a zero rate or patience is legal


class TestWeights:
    def test_shapes_and_init_conventions(self):
        shapes = tf.weight_shapes(TINY)
        weights = tf.init_weights(TINY, seed=3)
        assert set(weights) == set(shapes)
        for name, shape in shapes.items():
            assert weights[name].shape == shape
            if name.endswith(".gain"):
                assert np.array_equal(weights[name], np.ones(shape))
            elif len(shape) == 1:
                assert np.array_equal(weights[name], np.zeros(shape))
            else:
                limit = np.sqrt(6.0 / (shape[0] + shape[1]))
                assert np.all(np.abs(weights[name]) < limit)

    def test_init_is_seeded(self):
        a = tf.init_weights(TINY, seed=9)
        b = tf.init_weights(TINY, seed=9)
        c = tf.init_weights(TINY, seed=10)
        for name in a:
            assert np.array_equal(a[name], b[name])
        assert any(not np.array_equal(a[n], c[n]) for n in a)


class TestAttention:
    def test_matches_loop_oracle(self):
        for _ in range(5):
            q = RNG.standard_normal((6, 4))
            k = RNG.standard_normal((6, 4))
            v = RNG.standard_normal((6, 3))
            assert rel_err(tf._attend(q, k, v)[0],
                           attention_naive(q, k, v)) < 1e-12

    def test_weights_are_convex(self):
        # each output row lies in the convex hull of the value rows
        v = np.array([[0.0], [1.0]])
        q = RNG.standard_normal((3, 2))
        k = RNG.standard_normal((2, 2))
        out = tf._attend(q, k, v)[0]
        assert np.all(out >= 0.0) and np.all(out <= 1.0)


class TestForward:
    def test_batch_agrees_with_single_windows(self):
        weights = tf.init_weights(TINY, seed=1)
        X = RNG.standard_normal((7, 5, TINY.n_features))
        batch = tf.forward_batch(X, weights, TINY)
        singles = [tf.forward_batch(X[i][None], weights, TINY)[0]
                   for i in range(len(X))]
        assert batch.shape == (7,)
        assert rel_err(batch, np.array(singles)) < 1e-12

    @pytest.mark.parametrize("n", [1, tf._BLOCK - 1, tf._BLOCK,
                                   tf._BLOCK + 1, 2 * tf._BLOCK + 3])
    def test_blocks_match_cut_slices_and_single_windows(self, n):
        weights = tf.init_weights(TINY, seed=3)
        X = RNG.standard_normal((n, 4, TINY.n_features))
        whole = tf.forward_batch(X, weights, TINY)
        cuts = range(0, n, tf._BLOCK)
        sliced = np.concatenate([tf.forward_batch(X[lo:lo + tf._BLOCK],
                                                  weights, TINY)
                                 for lo in cuts])
        assert whole.shape == (n,)
        assert whole.tobytes() == sliced.tobytes()
        singles = np.array([tf.forward_batch(x[None], weights, TINY)[0]
                            for x in X])
        assert rel_err(whole, singles) < 1e-12

    def test_full_set_forward_memory_is_bounded(self):
        # unblocked, 2,000 windows of the default geometry keep about
        # 35 MB of activations; one block of them keeps about 1 MB
        cfg = ModelConfig(n_features=5)
        weights = tf.init_weights(cfg, seed=0)
        X = RNG.standard_normal((2000, 5, cfg.n_features))
        tracemalloc.start()
        try:
            tf.forward_batch(X, weights, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_permutation_of_time_steps_is_invisible(self):
        # mean pooling with no positional signal: row order cannot matter
        weights = tf.init_weights(TINY, seed=2)
        x = RNG.standard_normal((4, TINY.n_features))
        base = tf.forward_batch(x[None], weights, TINY)[0]
        for perm in itertools.permutations(range(4)):
            assert tf.forward_batch(x[list(perm)][None], weights, TINY)[0] \
                == pytest.approx(base, abs=1e-10)


def assert_gradient_matches_oracle(weights, cfg, X, y):
    """Central differences of the loop forward in ``oracles``, never of
    the code under test, against every array of ``tf.gradient``."""
    dims = (cfg.n_features, cfg.d_model, cfg.n_heads, cfg.n_layers, cfg.d_ff)
    _, grads = tf.gradient(weights, cfg, X, y)
    assert list(grads) == list(weights)
    for name in weights:
        def loss_of(arr, _name=name):
            trial = dict(weights)
            trial[_name] = arr
            return tf.loss_mse(encoder_naive(trial, dims, X), y)

        fd = fd_gradient(loss_of, weights[name].copy())
        assert grads[name].shape == weights[name].shape
        scale = np.abs(grads[name]).max() + np.abs(fd).max()
        assert np.abs(grads[name] - fd).max() <= 1e-6 * (scale + 1.0), name


class TestGradient:
    def test_matches_finite_differences(self):
        X = RNG.standard_normal((4, 3, TINY.n_features))
        y = RNG.standard_normal(4)
        for seed in range(3):
            assert_gradient_matches_oracle(tf.init_weights(TINY, seed=seed),
                                           TINY, X, y)

    # (n_features, d_model, n_heads, n_layers, d_ff), batch, window
    @pytest.mark.parametrize("dims, n, T", [
        ((3, 4, 1, 1, 5), 4, 3),     # one head, one layer
        ((2, 6, 3, 3, 4), 3, 3),     # three layers
        ((3, 6, 2, 2, 8), 5, 1),     # a window of one day
        ((3, 6, 2, 2, 8), 1, 4),     # a batch of one window
    ], ids=["one-head", "three-layers", "T1", "batch1"])
    def test_geometries_match_oracle(self, dims, n, T):
        cfg = ModelConfig(*dims)
        rng = np.random.default_rng(sum(dims) + 7 * n + T)
        X = rng.standard_normal((n, T, cfg.n_features))
        y = rng.standard_normal(n)
        weights = tf.init_weights(cfg, seed=2)
        for name in weights:
            if len(weights[name].shape) == 1:    # leave no bias at zero
                weights[name] = weights[name] \
                    + 0.1 * rng.standard_normal(weights[name].shape)
        loss, _ = tf.gradient(weights, cfg, X, y)
        assert loss == pytest.approx(
            tf.loss_mse(encoder_naive(weights, dims, X), y), rel=1e-12)
        assert_gradient_matches_oracle(weights, cfg, X, y)

    def test_stacked_differences_equal_the_loop(self):
        # criterion 07's geometry, data and eps on its first seed
        cfg = ModelConfig(n_features=5, d_model=12, n_heads=3, n_layers=2,
                          d_ff=24)
        dims = (5, 12, 3, 2, 24)
        rng = np.random.default_rng(100)
        weights = tf.init_weights(cfg, seed=0)
        X = rng.standard_normal((3, 5, cfg.n_features))
        y = rng.standard_normal(3)
        for name in weights:
            def loss_of(arr, _name=name):
                trial = dict(weights)
                trial[_name] = arr
                return float(np.mean((encoder_naive(trial, dims, X) - y) ** 2))

            loop = fd_gradient(loss_of, weights[name].copy(), eps=1e-5)
            stacked = fd_gradient_stacked(
                partial(encoder_mse_stacked, weights, dims, X, y, name),
                weights[name], eps=1e-5)
            assert np.array_equal(stacked, loop), name

    def test_loss_value_matches_forward(self):
        weights = tf.init_weights(TINY, seed=4)
        X = RNG.standard_normal((6, 2, TINY.n_features))
        y = RNG.standard_normal(6)
        loss, _ = tf.gradient(weights, TINY, X, y)
        assert loss == pytest.approx(
            tf.loss_mse(tf.forward_batch(X, weights, TINY), y), abs=1e-14)

    def test_empty_batch(self):
        weights = tf.init_weights(TINY)
        with pytest.raises(InputError, match="empty batch"):
            tf.gradient(weights, TINY, np.empty((0, 3, TINY.n_features)),
                        np.empty(0))

    def test_every_weight_receives_gradient(self):
        weights = tf.init_weights(TINY, seed=6)
        X = RNG.standard_normal((8, 3, TINY.n_features))
        y = RNG.standard_normal(8)
        _, grads = tf.gradient(weights, TINY, X, y)
        assert set(grads) == set(weights)
        # with random data nothing should be exactly dead
        for name, g in grads.items():
            assert np.any(g != 0.0), name


class TestWindows:
    def test_alignment(self):
        feats = np.arange(18, dtype=float).reshape(6, 3)
        target = np.arange(6, dtype=float) * 10
        dates = [f"d{i}" for i in range(6)]
        ds = tf.build_windows(dates, feats, target, window=2,
                              feature_names=["a", "b", "c"])
        assert len(ds) == 4
        assert ds.dates == ["d2", "d3", "d4", "d5"]
        assert np.array_equal(ds.y, [20.0, 30.0, 40.0, 50.0])
        # sample 1 reads rows 1..2 and predicts row 3
        assert np.array_equal(ds.X[1], feats[1:3])
        assert ds.feature_names == ["a", "b", "c"]

    def test_too_short(self):
        feats = np.ones((3, 2))
        with pytest.raises(InputError,
                           match="3 rows cannot fill a window of 3"):
            tf.build_windows(["a", "b", "c"], feats, np.ones(3), window=3,
                             feature_names=["x", "y"])

    def test_row_mismatch(self):
        with pytest.raises(InputError, match="must align row-wise"):
            tf.build_windows(["a", "b"], np.ones((2, 2)), np.ones(3), 1,
                             ["x", "y"])


class TestTraining:
    def test_loss_decreases_and_prediction_scale(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=60, batch_size=16)
        model, history = tf.train(ds, model_config=TINY, train_config=cfg)
        assert len(history) == 60
        assert history[-1] < 0.5 * history[0]
        preds = tf.predict(model, ds)
        # targets live around 2.0; de-normalized output must too
        assert abs(float(np.mean(preds)) - float(np.mean(ds.y))) < 0.5

    def test_deterministic_rerun(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=5, shuffle=True,
                          seed=3)
        m1, h1 = tf.train(ds, model_config=TINY, train_config=cfg)
        m2, h2 = tf.train(ds, model_config=TINY, train_config=cfg)
        assert h1 == h2
        for name in m1.weights:
            assert np.array_equal(m1.weights[name], m2.weights[name])

    def test_deterministic_rerun_default_geometry(self):
        # the quick-start geometry and batch size, with the adam path
        ds = toy_dataset(n=70, n_features=5, window=5)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3,
                          optimizer="adam", shuffle=True, seed=1)
        m1, h1 = tf.train(ds, train_config=cfg)
        m2, h2 = tf.train(ds, train_config=cfg)
        assert h1 == h2
        assert m1.config == ModelConfig(n_features=5)
        for name in m1.weights:
            assert np.array_equal(m1.weights[name], m2.weights[name]), name

    def test_shuffle_changes_path(self):
        ds = toy_dataset()
        base = TrainConfig(learning_rate=0.01, max_epochs=5)
        shuf = TrainConfig(learning_rate=0.01, max_epochs=5, shuffle=True)
        _, h1 = tf.train(ds, model_config=TINY, train_config=base)
        _, h2 = tf.train(ds, model_config=TINY, train_config=shuf)
        assert h1 != h2

    def test_adam_runs_and_learns(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.01, max_epochs=30,
                          optimizer="adam")
        _, history = tf.train(ds, model_config=TINY, train_config=cfg)
        assert history[-1] < history[0]

    def test_patience_stops_early(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=0.0, max_epochs=50, patience=3)
        _, history = tf.train(ds, model_config=TINY, train_config=cfg)
        # zero learning rate: loss is flat, patience trips immediately
        assert len(history) == 4

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_reported(self):
        ds = toy_dataset()
        cfg = TrainConfig(learning_rate=50.0, max_epochs=50)
        with pytest.raises(NumericalError,
                           match="training loss became|non-finite gradient"):
            tf.train(ds, model_config=TINY, train_config=cfg)

    def test_constant_feature_rejected(self):
        ds = toy_dataset()
        ds.X[:, :, 1] = 7.0
        with pytest.raises(InputError, match="feature 'f1' is constant"):
            tf.train(ds, model_config=TINY)

    def test_constant_target_rejected(self):
        ds = toy_dataset()
        ds.y[:] = 1.0
        with pytest.raises(InputError, match="target is constant"):
            tf.train(ds, model_config=TINY)


    def test_predict_rerun_is_bitwise(self):
        ds = toy_dataset(n=2 * tf._BLOCK + 3)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=2)
        model, _ = tf.train(ds, model_config=TINY, train_config=cfg)
        assert tf.predict(model, ds).tobytes() \
            == tf.predict(model, ds).tobytes()


class TestPersistence:
    def test_roundtrip_is_exact(self, tmp_path):
        ds = toy_dataset(n=20)
        cfg = TrainConfig(learning_rate=0.01, max_epochs=3)
        model, _ = tf.train(ds, model_config=TINY, train_config=cfg)
        path = tmp_path / "model.json"
        tf.save_model(model, str(path))
        loaded = tf.load_model(str(path))
        assert loaded.config == model.config
        assert loaded.train_config == model.train_config
        assert loaded.feature_names == model.feature_names
        for name in model.weights:
            assert np.array_equal(loaded.weights[name], model.weights[name])
        assert np.array_equal(tf.predict(loaded, ds), tf.predict(model, ds))

    def test_reads_per_head_model_file(self, tmp_path):
        # written by the earlier tape-based encoder with toy windows built
        # as below: one W_q/W_k/W_v array per head and layer
        path = Path(__file__).parent / "data" / "model_per_head.json"
        model = tf.load_model(str(path))
        cfg = model.config
        assert (cfg.n_heads, cfg.n_layers) == (2, 2)
        assert "layer1.head1.wv" in model.weights

        rng = np.random.default_rng(5)
        feats = rng.standard_normal((24, 3))
        target = 0.8 * feats[:, 0] + 0.3 * np.tanh(feats[:, 1]) + 2.0
        ds = tf.build_windows([f"d{i:02d}" for i in range(24)], feats,
                              target, 4, ["f0", "f1", "f2"])
        xn = (ds.X - model.feature_mean) / model.feature_std
        dims = (cfg.n_features, cfg.d_model, cfg.n_heads, cfg.n_layers,
                cfg.d_ff)
        want = encoder_naive(model.weights, dims, xn) * model.target_std \
            + model.target_mean
        assert rel_err(tf.predict(model, ds), want) < 1e-12

        # saving writes the same per-head layout, byte for byte
        tf.save_model(model, str(tmp_path / "again.json"))
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()
