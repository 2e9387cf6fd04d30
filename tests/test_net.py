from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from testprio.errors import (
    CorruptModel,
    DimMismatch,
    LengthMismatch,
    NonFiniteLoss,
    SchemaVersionMismatch,
)
from testprio.features import CompactFeatures, FeatureBounds, bounds_from_matrix, feature_matrix
from testprio.history import StatusMatrix, build_status_matrix
from testprio.net import (
    FORWARD_BLOCK_ROWS,
    AdamState,
    Network,
    SavedModel,
    TrainConfig,
    _tanh_softplus,
    adam_step,
    backward,
    forward,
    load_model,
    mish,
    mish_prime,
    mse,
    predict,
    save_model,
    train,
    xavier_init,
)

from datetime import datetime

from conftest import traced_peak
from test_history import random_cycles

# Tests that span several forward blocks allocate 2 * FORWARD_BLOCK_ROWS rows
# and more; past this bound they fail before allocating anything.
MAX_BLOCK_ROWS = 1 << 14


def plain_tanh_softplus(x):
    """tanh(softplus(x)) = n / (n + 2) with e = exp(x), n = e * (e + 2)."""
    e = np.exp(np.minimum(x, 20.0))
    n = e * (e + 2.0)
    return n / (n + 2.0)


def logaddexp_tanh_softplus(x):
    """The previous activation kernel, the accuracy reference."""
    with np.errstate(invalid="ignore"):
        return np.tanh(np.logaddexp(0.0, x))


class TestMish:
    def test_zero(self):
        assert mish(0.0) == 0.0

    def test_one(self):
        assert float(mish(1.0)) == pytest.approx(0.8650983882673103, abs=1e-12)

    def test_large_negative_asymptote(self):
        assert abs(float(mish(-20.0))) < 1e-7

    def test_lower_bound_and_identity_asymptote(self):
        grid = np.linspace(-60.0, 60.0, 20001)
        values = mish(grid)
        assert np.all(values > -0.31)
        assert np.all(np.isfinite(values))
        assert float(mish(30.0)) / 30.0 == pytest.approx(1.0, abs=1e-9)

    def test_derivative_matches_finite_differences(self):
        grid = np.linspace(-8.0, 8.0, 401)
        h = 1e-6
        numeric = (mish(grid + h) - mish(grid - h)) / (2 * h)
        assert np.allclose(mish_prime(grid), numeric, atol=1e-7)

    def test_bit_identical_to_the_plain_formulas(self):
        x = np.random.default_rng(12).normal(scale=6.0, size=5000)
        t = plain_tanh_softplus(x)
        e = np.exp(np.minimum(x, 20.0))
        sigmoid = e / (1.0 + e)
        assert np.array_equal(mish(x), x * t)
        assert np.array_equal(mish_prime(x), t + x * (1.0 - t * t) * sigmoid)

    def test_derivative_within_2_ulp_of_the_tanh_formula(self):
        """mish_prime takes sigmoid from exp, as training does; the tanh
        formula takes it as (1 + tanh(x / 2)) / 2. Both round 1 - t * t to
        an absolute error of about ulp(1), which the factor x scales, so
        ulps are counted at max(1, |x|)."""
        x = np.linspace(-50.0, 50.0, 1_000_001)
        t = plain_tanh_softplus(x)
        tanh_formula = t + x * (1.0 - t * t) * (0.5 * (1.0 + np.tanh(0.5 * x)))
        err = np.abs(mish_prime(x) - tanh_formula)
        assert (err <= 2 * np.spacing(np.maximum(1.0, np.abs(x)))).all()

    def test_derivative_keeps_its_relative_accuracy_for_negative_x(self):
        """Below x = -2 the derivative is about e^x * (1 + x). Against the
        formula in extended precision, with sigmoid as 1 / (1 + e^-x),
        mish_prime stays within 8 ulp of its own value; the float64 tanh
        formula, whose 1 + tanh(x / 2) cancels, is off by up to 2^53 ulp
        near x = -38."""
        x = np.linspace(-50.0, -2.0, 200_001)
        xl = x.astype(np.longdouble)
        sp = np.logaddexp(np.longdouble(0.0), xl)
        ref = (np.tanh(sp) + xl / (1 + np.exp(-xl)) / np.cosh(sp) ** 2).astype(np.float64)
        ulps = np.abs(mish_prime(x) - ref) / np.spacing(np.abs(ref))
        assert ulps.max() <= 8.0, x[ulps.argmax()]

    def test_derivative_is_exactly_one_from_the_clip(self):
        z = np.concatenate([np.linspace(20.0, 60.0, 4001), [1e3, 1e300]])
        assert np.all(mish_prime(z) == 1.0)

    @pytest.mark.parametrize("z", [-760.0, -800.0, -1e300, np.finfo(np.float64).min])
    def test_derivative_tends_to_zero_not_nan(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = mish_prime(np.array([z]))
        assert abs(float(value[0])) <= np.nextafter(0.0, 1.0)

    def test_within_8_ulp_of_the_logaddexp_formula(self):
        x = np.concatenate([np.linspace(-745.0, 60.0, 2_000_001),
                            np.random.default_rng(13).normal(scale=6.0, size=200_000)])
        ref = logaddexp_tanh_softplus(x)
        t = _tanh_softplus(x)
        normal = ref >= np.finfo(np.float64).tiny
        ulps = np.abs(t[normal] - ref[normal]) / np.spacing(ref[normal])
        assert ulps.max() <= 8.0, x[normal][ulps.argmax()]
        # below tiny, where ulps are meaningless, at most one subnormal step
        assert (~normal).any()
        assert np.abs(t[~normal] - ref[~normal]).max() <= np.nextafter(0.0, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0])
    def test_special_values_match_the_logaddexp_formula(self, value):
        x = np.array(value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = _tanh_softplus(x)
        ref = logaddexp_tanh_softplus(x)
        assert np.array_equal(t, ref, equal_nan=True)
        assert np.signbit(t) == np.signbit(ref)
        with np.errstate(invalid="ignore"):
            assert np.array_equal(mish(value), value * ref, equal_nan=True)


class TestXavierInit:
    def test_bound_for_14_by_10(self):
        net = xavier_init((14, 10), np.random.default_rng(0))
        limit = math.sqrt(6 / 24)
        assert limit == 0.5
        assert np.all(np.abs(net.weights[0]) < limit)

    def test_biases_zero(self):
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(0))
        assert all(np.all(b == 0.0) for b in net.biases)

    def test_deterministic(self):
        a = xavier_init((5, 3, 1), np.random.default_rng(9))
        b = xavier_init((5, 3, 1), np.random.default_rng(9))
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))

    def test_parameter_count(self):
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(0))
        assert net.parameter_count == 701


def reference_forward(net: Network, x):
    """Plain-loop re-implementation of the layer chain."""
    a = [float(v) for v in x]
    n_layers = len(net.weights)
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        out = []
        for j in range(w.shape[1]):
            z = b[j]
            for i in range(w.shape[0]):
                z += a[i] * w[i, j]
            if layer < n_layers - 1:
                z = z * math.tanh(math.log1p(math.exp(-abs(z))) + max(z, 0.0))
            out.append(z)
        a = out
    return a[0]


class TestForward:
    def test_zero_network_outputs_zero(self):
        net = Network((3, 2, 1), [np.zeros((3, 2)), np.zeros((2, 1))],
                      [np.zeros(2), np.zeros(1)])
        preds, _ = forward(net, np.ones((4, 3)))
        assert np.all(preds == 0.0)

    def test_one_by_one_identity(self):
        net = Network((1, 1), [np.ones((1, 1))], [np.zeros(1)])
        for value in (-2.0, 0.0, 0.7, 3.5):
            assert predict(net, np.array([value])) == pytest.approx(value)

    def test_matches_reference_evaluator(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            dims = (int(rng.integers(1, 8)), int(rng.integers(1, 8)),
                    int(rng.integers(1, 8)), 1)
            net = xavier_init(dims, rng)
            x = rng.normal(size=dims[0])
            assert predict(net, x) == pytest.approx(reference_forward(net, x), rel=1e-12)

    def test_dim_mismatch(self):
        net = xavier_init((4, 2, 1), np.random.default_rng(0))
        with pytest.raises(DimMismatch):
            forward(net, np.ones((3, 5)))

    def test_predict_keeps_no_cache(self):
        """predict holds one layer at a time; forward keeps every layer."""
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(0))
        X = np.random.default_rng(1).uniform(-1, 1, (20_000, 14))
        predict_peak, forward_peak = traced_peak(predict, net, X)[0], traced_peak(forward, net, X)[0]
        assert predict_peak < 0.5 * forward_peak, (predict_peak, forward_peak)

    def test_predict_memory_is_the_output_plus_block_buffers(self):
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(0))
        n = 200_000
        X = np.random.default_rng(2).uniform(-1, 1, (n, 14))
        # Measured: the 1.6 MB output plus 0.66 MB of block buffers. A
        # layer-sized buffer alone, n x 20 float64, is 32 MB.
        assert traced_peak(predict, net, X)[0] < n * 8 + 2_000_000

    def test_predict_equals_forward_across_a_partial_block(self):
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(5))
        assert FORWARD_BLOCK_ROWS <= MAX_BLOCK_ROWS
        X = np.random.default_rng(6).normal(scale=3.0, size=(2 * FORWARD_BLOCK_ROWS + 77, 14))
        assert np.array_equal(predict(net, X), forward(net, X)[0])


class TestMse:
    def test_identical(self):
        assert mse([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_unit_error(self):
        assert mse([0.0], [1.0]) == 1.0

    def test_half(self):
        assert mse([0.0, 1.0], [1.0, 1.0]) == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse([0.0], [1.0, 2.0])


def finite_difference_grads(net, X, y, h=1e-5):
    grads_w = [np.zeros_like(w) for w in net.weights]
    grads_b = [np.zeros_like(b) for b in net.biases]
    def loss():
        return mse(forward(net, X)[0], y)
    for w, g in zip(net.weights, grads_w):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            hi = loss()
            w[idx] = orig - h
            lo = loss()
            w[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
    for b, g in zip(net.biases, grads_b):
        for idx in range(b.size):
            orig = b[idx]
            b[idx] = orig + h
            hi = loss()
            b[idx] = orig - h
            lo = loss()
            b[idx] = orig
            g[idx] = (hi - lo) / (2 * h)
    return grads_w, grads_b


def max_rel_err(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestBackward:
    def test_zero_residual_zero_gradients(self):
        net = Network((2, 2, 1), [np.zeros((2, 2)), np.zeros((2, 1))],
                      [np.zeros(2), np.zeros(1)])
        _, cache = forward(net, np.ones((3, 2)))
        grads_w, grads_b = backward(net, cache, np.zeros(3))
        assert all(np.all(g == 0.0) for g in grads_w + grads_b)

    def test_output_bias_gradient_is_twice_mean_residual(self):
        rng = np.random.default_rng(44)
        net = xavier_init((5, 4, 1), rng)
        X = rng.normal(size=(8, 5))
        y = rng.uniform(size=8)
        preds, cache = forward(net, X)
        _, grads_b = backward(net, cache, y)
        assert grads_b[-1][0] == pytest.approx(2.0 * float(np.mean(preds - y)), rel=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(45)
        for _ in range(10):
            depth = int(rng.integers(1, 4))
            dims = (int(rng.integers(1, 6)),
                    *(int(rng.integers(1, 7)) for _ in range(depth)), 1)
            net = xavier_init(dims, rng)
            X = rng.normal(size=(int(rng.integers(1, 6)), dims[0]))
            y = rng.uniform(size=X.shape[0])
            _, cache = forward(net, X)
            analytic = backward(net, cache, y)
            numeric = finite_difference_grads(net, X, y)
            assert max_rel_err(analytic[0] + analytic[1],
                               numeric[0] + numeric[1]) <= 1e-4


class TestAdam:
    def test_zero_gradient_no_change(self):
        net = xavier_init((3, 2, 1), np.random.default_rng(0))
        before = [w.copy() for w in net.weights]
        grads = ([np.zeros_like(w) for w in net.weights],
                 [np.zeros_like(b) for b in net.biases])
        adam_step(net, grads, AdamState.zeros(net), TrainConfig())
        assert all(np.array_equal(a, b) for a, b in zip(before, net.weights))

    def test_first_step_closed_form(self):
        """Step 1 moves each parameter by lr * g / (|g| + eps)."""
        net = Network((1, 1), [np.array([[0.5]])], [np.array([0.2])])
        g = 0.37
        cfg = TrainConfig()
        grads = ([np.array([[g]])], [np.array([0.0])])
        adam_step(net, grads, AdamState.zeros(net), cfg)
        expected = 0.5 - cfg.learning_rate * g / (abs(g) + cfg.adam_eps)
        assert net.weights[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_training_deterministic(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(-1, 1, (30, 4))
        y = rng.uniform(size=30)
        runs = []
        for _ in range(2):
            net = xavier_init((4, 5, 1), np.random.default_rng(3))
            result = train(net, X, y, TrainConfig(epochs_max=40, rng_seed=5))
            runs.append(result)
        assert runs[0].epoch_mse == runs[1].epoch_mse
        assert all(np.array_equal(a, b) for a, b in
                   zip(runs[0].net.weights, runs[1].net.weights))


class TestTrain:
    def test_single_point_memorization(self):
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(0))
        X = np.random.default_rng(1).uniform(-1, 1, (1, 14))
        result = train(net, X, np.array([0.7]), TrainConfig(mse_stop=1e-6))
        assert result.stopped_epoch <= 1000
        assert result.final_mse < 1e-6

    def test_losses_always_finite_and_improving(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, (50, 6))
        y = rng.uniform(size=50)
        net = xavier_init((6, 8, 1), rng)
        result = train(net, X, y, TrainConfig(epochs_max=200))
        assert all(math.isfinite(m) for m in result.epoch_mse)
        assert min(result.epoch_mse) <= result.epoch_mse[0]

    def test_label_range_enforced(self):
        net = xavier_init((2, 1), np.random.default_rng(0))
        with pytest.raises(ValueError):
            train(net, np.ones((2, 2)), np.array([0.5, 1.5]), TrainConfig())

    def test_non_finite_loss_aborts(self):
        net = xavier_init((2, 2, 1), np.random.default_rng(0))
        net.weights[0][0, 0] = np.nan
        with pytest.raises(NonFiniteLoss):
            train(net, np.ones((2, 2)), np.array([0.5, 0.5]), TrainConfig())

    @pytest.mark.parametrize("batch_size", [None, 0, 2.0])
    def test_batch_size_must_be_a_positive_integer(self, batch_size):
        with pytest.raises(ValueError, match="batch_size must be an integer >= 1"):
            TrainConfig(batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [2])
    def test_divergence_diagnostic_sees_a_blown_up_bias(self, batch_size):
        net = xavier_init((2, 3, 1), np.random.default_rng(0))
        net.biases[-1][0] = 1e300
        with pytest.raises(NonFiniteLoss, match=r"epoch 1: .*max \|param\| = 1e\+300"):
            train(net, np.ones((4, 2)), np.full(4, 0.5), TrainConfig(batch_size=batch_size))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("row", [0, 3, 6])
    def test_non_finite_feature_is_rejected_naming_its_row(self, value, row):
        X = np.random.default_rng(4).uniform(-1, 1, (7, 3))
        X[row, 1] = value
        X[6, 2] = value  # a later bad row must not be the one named
        net = xavier_init((3, 2, 1), np.random.default_rng(0))
        before = net.params.copy()
        with pytest.raises(ValueError, match=rf"features must be finite; row {row} is not"):
            train(net, X, np.full(7, 0.5), TrainConfig(batch_size=4))
        assert np.array_equal(net.params, before)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.1, 1.1])
    def test_bad_label_is_rejected(self, value):
        y = np.full(5, 0.5)
        y[2] = value
        net = xavier_init((3, 2, 1), np.random.default_rng(0))
        with pytest.raises(ValueError, match="labels must be finite and within"):
            train(net, np.zeros((5, 3)), y, TrainConfig())

    def test_input_width_mismatch(self):
        net = xavier_init((3, 2, 1), np.random.default_rng(0))
        with pytest.raises(DimMismatch):
            train(net, np.zeros((5, 4)), np.full(5, 0.5), TrainConfig(batch_size=2))

    def test_mini_batch_memory_is_bounded_beyond_the_data(self):
        """Training peaks in the epoch-top loss pass: predict's output
        vector plus its block buffers. The residual is formed in that
        vector, the shuffle order is allocated after it is freed, and the
        128-row step buffers do not grow with n. Measured: 1.01 MB beyond
        X, y and one n-float vector; a second n-float vector in the loss
        (1.6 MB at this n) read 1.94 MB. One n x 20 layer buffer would be
        32 MB."""
        n = 200_000
        rng = np.random.default_rng(21)
        X = rng.uniform(-1, 1, (n, 14))
        y = rng.uniform(size=n)
        net = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(22))
        peak, _ = traced_peak(train, net, X, y,
                              TrainConfig(epochs_max=2, mse_stop=1e-9, batch_size=128))
        assert peak - n * 8 < 1_500_000, peak - n * 8

    def test_mini_batch_mode(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, (64, 4))
        y = rng.uniform(size=64)
        net = xavier_init((4, 6, 1), rng)
        result = train(net, X, y, TrainConfig(epochs_max=50, batch_size=16))
        assert len(result.epoch_mse) <= 50


@pytest.mark.parametrize("rows", [128, 37, 1], ids=["batch", "short-last-batch", "one-row"])
def test_a_training_step_gives_the_same_bits_through_dot_as_through_matmul(monkeypatch, rows):
    """The step's products go through np.dot, which costs less per call than
    np.matmul at these sizes; both must give the same bits wherever this runs."""
    rng = np.random.default_rng(rows)
    net = xavier_init((14, 10, 20, 15, 1), rng)
    X, y = rng.uniform(-1, 1, (rows, 14)), rng.uniform(size=rows)

    def step():
        preds, cache = forward(net, X)
        grads_w, grads_b = backward(net, cache, y)
        return [a.tobytes() for a in (preds, *grads_w, *grads_b)]

    through_dot = step()
    monkeypatch.setattr(np, "dot", np.matmul)
    assert step() == through_dot


def feature_rows(rng, n, window):
    """feature_matrix rows of random windows; the first row alternates pass
    and fail, so it carries the most flips a window can hold."""
    statuses = rng.integers(-1, 2, (n, window)).astype(np.int8)
    statuses[0] = np.arange(window) % 2
    matrix = StatusMatrix(tuple(range(n)), window, statuses, rng.uniform(0, 9, n),
                          rng.integers(0, 10**12, n))
    return feature_matrix(matrix, expected_window=window)


def compact(X, window):
    vectors = CompactFeatures(len(X), window)
    vectors.put(0, X)
    return vectors


@pytest.mark.parametrize("window, n, batch_size", [
    (10, 2 * FORWARD_BLOCK_ROWS + 300, 128),  # two whole gathers, a part one, a short batch
    (10, 50, 128),  # fewer rows than one batch
    (255, 90, 32),  # the largest window int8 holds, and a short last batch
], ids=["short-last-batch", "n-below-batch", "window-255"])
def test_compact_vectors_train_to_the_bits_of_the_dense_matrix(window, n, batch_size):
    rng = np.random.default_rng(window + n)
    X, y = feature_rows(rng, n, window), rng.uniform(size=n)
    config = TrainConfig(epochs_max=4, mse_stop=1e-9, batch_size=batch_size, rng_seed=3)
    dims = (window + 4, 10, 20, 15, 1)
    nets = [xavier_init(dims, np.random.default_rng(4)) for _ in range(2)]
    dense, packed = train(nets[0], X, y, config), train(nets[1], compact(X, window), y, config)
    assert nets[0].params.tobytes() == nets[1].params.tobytes()
    assert dense.epoch_mse == packed.epoch_mse and len(dense.epoch_mse) == 4


@pytest.mark.parametrize("window, dtype", [(10, np.int8), (255, np.int8), (256, np.int16)])
def test_compact_vectors_hold_the_dense_rows_exactly(window, dtype):
    X = feature_rows(np.random.default_rng(window), 40, window)
    assert X[0, -1] == window // 2  # the most flips a window of this length holds
    vectors = compact(X, window)
    assert vectors.small.dtype == dtype and vectors.shape == X.shape == (40, window + 4)
    assert np.array_equal(vectors.dense(), X)
    per_vector = (vectors.small.nbytes + vectors.real.nbytes) / len(vectors)
    assert per_vector == (window + 2) * np.dtype(dtype).itemsize + 16  # 28 B at window 10


BOUNDS = FeatureBounds(0.5, 12.0, datetime(2016, 1, 1), datetime(2016, 6, 1))


class TestSerialization:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        net = xavier_init((14, 10, 20, 15, 1), rng)
        train(net, rng.uniform(-1, 1, (20, 14)), rng.uniform(size=20),
              TrainConfig(epochs_max=30))
        model = SavedModel(net, BOUNDS, weight_scheme="linear", rng_seed=8)
        path = tmp_path / "model.txt"
        save_model(model, path)
        loaded = load_model(path)
        X = rng.uniform(-3, 3, (100, 14))
        assert np.array_equal(predict(net, X), predict(loaded.net, X))
        assert loaded.bounds == BOUNDS
        assert loaded.weight_scheme == "linear"
        assert loaded.rng_seed == 8

    def test_lastrun_bounds_line_survives_save_load_save(self, tmp_path):
        cycles = random_cycles(random.Random(17))
        bounds = bounds_from_matrix(build_status_matrix(cycles, 10))
        model = SavedModel(xavier_init((14, 10, 1), np.random.default_rng(0)), bounds)
        first, second = tmp_path / "a.txt", tmp_path / "b.txt"
        save_model(model, first)
        save_model(load_model(first), second)
        line = [ln for ln in first.read_text().splitlines() if ln.startswith("lastrun_bounds")]
        assert line and line[0] in second.read_text().splitlines()
        assert first.read_bytes() == second.read_bytes()

    def test_none_bounds_round_trip(self, tmp_path):
        net = xavier_init((14, 10, 1), np.random.default_rng(0))
        model = SavedModel(net, FeatureBounds(0.0, 0.0, None, None))
        save_model(model, tmp_path / "m.txt")
        loaded = load_model(tmp_path / "m.txt")
        assert loaded.bounds.lastrun_earliest is None

    def test_truncated_file(self, tmp_path):
        net = xavier_init((4, 3, 1), np.random.default_rng(0))
        path = tmp_path / "model.txt"
        save_model(SavedModel(net, BOUNDS), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]))
        with pytest.raises(CorruptModel):
            load_model(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("prefix, below, token", [
        ("layer 0 weights", 1, 1), ("layer 0 biases", 1, 2), ("duration_bounds", 0, 2)],
        ids=["weight", "bias", "duration-bound"])
    def test_a_number_that_is_not_finite_is_corrupt(self, tmp_path, prefix, below, token,
                                                    value):
        """save_model writes only finite numbers, so a file with another in a
        weight, a bias or a duration bound is corrupt. ``token`` of the line
        ``below`` lines under the one starting with ``prefix`` is replaced."""
        path = tmp_path / "model.txt"
        save_model(SavedModel(xavier_init((4, 3, 1), np.random.default_rng(0)), BOUNDS), path)
        lines = path.read_text().splitlines()
        at = below + next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        tokens = lines[at].split()
        tokens[token] = value
        lines[at] = " ".join(tokens)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptModel, match="not finite"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        net = xavier_init((4, 3, 1), np.random.default_rng(0))
        path = tmp_path / "model.txt"
        save_model(SavedModel(net, BOUNDS), path)
        text = path.read_text().replace("tpmodel 1", "tpmodel 2", 1)
        path.write_text(text)
        with pytest.raises(SchemaVersionMismatch):
            load_model(path)

    def test_not_a_model(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("hello world\n")
        with pytest.raises(CorruptModel):
            load_model(path)

    def test_window_len_property(self):
        net = xavier_init((14, 10, 1), np.random.default_rng(0))
        assert SavedModel(net, BOUNDS).window_len == 10


# --- bit-identity against the plain training step ---------------------------

def plain_forward(weights, biases, x):
    """The folded layer chain written out, feature-major as train() stores
    it: column j is row j of ``x``. Each layer input gains a row of ones
    and meets the block [W; b], z = [W; b].T @ [a | 1].T, the transposed
    [a | 1] @ [W; b]. Keeps every such input and, per hidden layer, z,
    e = exp(min(z, 20)) and t = tanh(softplus(z))."""
    inputs, hidden = [], []
    a = x.T.copy()  # C order, as train() stores it: BLAS rounds by layout
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = np.vstack([a, np.ones((1, a.shape[1]))])
        inputs.append(a)
        z = np.vstack([w, b]).T @ a
        if i == last:
            return z[0], inputs, hidden
        e = np.exp(np.minimum(z, 20.0))
        n = e * (e + 2.0)
        t = n / (n + 2.0)
        hidden.append((z, e, t))
        a = z * t


def plain_backward(weights, preds, inputs, hidden, labels):
    """[a | 1].T @ delta gives each layer's weight and bias gradients in one
    product; the Mish derivative takes sigmoid(z) = e / (1 + e) from the
    forward's e. Deltas are feature-major like the forward's buffers."""
    n = inputs[0].shape[1]
    delta = (2.0 / n) * (preds - labels)[None, :]
    grads = [None] * len(weights)
    for i in reversed(range(len(weights))):
        grads[i] = inputs[i] @ delta.T
        if i > 0:
            z, e, t = hidden[i - 1]
            sigmoid = e / (1.0 + e)
            delta = (weights[i] @ delta) * (t + z * (1.0 - t * t) * sigmoid)
    return [g[:-1] for g in grads], [g[-1] for g in grads]


def unfolded_forward(weights, biases, x):
    """The layer chain before folding: a @ W, then + b."""
    activations, pre = [x], []
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        a = z if i == last else z * plain_tanh_softplus(z)
        activations.append(a)
    return a[:, 0], activations, pre


def unfolded_backward(weights, activations, pre, labels):
    """Bias gradients as column sums, and sigmoid(z) from its own tanh."""
    n = activations[0].shape[0]
    delta = (2.0 / n) * (activations[-1][:, 0] - labels)[:, None]
    grads_w, grads_b = [None] * len(weights), [None] * len(weights)
    for i in reversed(range(len(weights))):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            z = pre[i - 1]
            t = plain_tanh_softplus(z)
            sigmoid = 0.5 * (1.0 + np.tanh(0.5 * z))
            delta = (delta @ weights[i].T) * (t + z * (1.0 - t * t) * sigmoid)
    return grads_w, grads_b


def plain_train(net, X, y, config, folded=True):
    """Adam on MSE with one update loop per parameter array, written out.

    The loss is taken at the top of every epoch from a forward pass over
    the whole set, then one shuffled pass of mini-batch updates follows.
    ``folded=False`` runs the unfolded chain instead.
    """
    weights = [w.copy() for w in net.weights]
    biases = [b.copy() for b in net.biases]
    params = weights + biases
    ms = [np.zeros_like(p) for p in params]
    vs = [np.zeros_like(p) for p in params]
    b1, b2, eps, lr = (config.adam_beta1, config.adam_beta2,
                       config.adam_eps, config.learning_rate)
    step = 0

    def update(grads_w, grads_b):
        nonlocal step
        step += 1
        corr1 = 1.0 - b1 ** step
        corr2 = 1.0 - b2 ** step
        for p, g, m, v in zip(params, grads_w + grads_b, ms, vs):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= lr * (m / corr1) / (np.sqrt(v / corr2) + eps)

    def gradients(x, labels):
        if folded:
            preds, inputs, hidden = plain_forward(weights, biases, x)
            return preds, lambda: plain_backward(weights, preds, inputs, hidden, labels)
        preds, activations, pre = unfolded_forward(weights, biases, x)
        return preds, lambda: unfolded_backward(weights, activations, pre, labels)

    rng = np.random.default_rng(config.rng_seed)
    epoch_mse = []
    for _ in range(config.epochs_max):
        preds, _ = gradients(X, y)
        diff = preds - y
        loss = float(diff @ diff / diff.size)
        epoch_mse.append(loss)
        if loss < config.mse_stop:
            break
        order = rng.permutation(X.shape[0])
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            update(*gradients(X[idx], y[idx])[1]())
    return weights, biases, epoch_mse


def unfolded_train(net, X, y, config):
    """The training step as it was before the bias was folded into the
    matrix product and sigmoid(z) taken from the forward's exp."""
    return plain_train(net, X, y, config, folded=False)


class TestBitIdentity:
    """train() must do the same arithmetic as the plain step, bit for bit."""

    @pytest.mark.parametrize("dims", [(6, 5, 1), (14, 10, 20, 15, 1), (3, 7, 4, 1)])
    # 90 rows: one row per batch, a last batch of 10, one batch of exactly
    # n, and a batch size above n
    @pytest.mark.parametrize("batch_size", [1, 16, 90, 128])
    def test_train_matches_plain_training_step(self, dims, batch_size):
        rng = np.random.default_rng(sum(dims) + batch_size)
        X = rng.uniform(-1, 1, (90, dims[0]))
        y = rng.uniform(size=90)
        epochs = 3 if batch_size == 1 else 25
        config = TrainConfig(epochs_max=epochs, batch_size=batch_size, rng_seed=11)
        start = xavier_init(dims, np.random.default_rng(4))
        weights, biases, epoch_mse = plain_train(start, X, y, config)
        result = train(start.copy(), X, y, config)
        assert result.epoch_mse == epoch_mse
        assert all(np.array_equal(a, b) for a, b in zip(result.net.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(result.net.biases, biases))

    def test_mini_batch_loss_over_several_blocks_matches_plain_forward(self):
        """The epoch-top loss runs block by block. At this n it equals the
        loss of one plain full-set forward pass; at some larger n the two
        differ in the last bits, since BLAS may round the tail columns of
        a wider product differently."""
        rng = np.random.default_rng(47)
        assert FORWARD_BLOCK_ROWS <= MAX_BLOCK_ROWS
        n = 2 * FORWARD_BLOCK_ROWS + 123
        X = rng.uniform(-1, 1, (n, 14))
        y = rng.uniform(size=n)
        config = TrainConfig(epochs_max=3, batch_size=1024, rng_seed=12)
        start = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(8))
        weights, biases, epoch_mse = plain_train(start, X, y, config)
        result = train(start.copy(), X, y, config)
        assert result.epoch_mse == epoch_mse
        assert all(np.array_equal(a, b) for a, b in zip(result.net.weights, weights))
        assert all(np.array_equal(a, b) for a, b in zip(result.net.biases, biases))

    def test_backward_matches_plain_backward(self):
        rng = np.random.default_rng(46)
        net = xavier_init((14, 10, 20, 15, 1), rng)
        X = rng.normal(scale=3.0, size=(200, 14))
        y = rng.uniform(size=200)
        _, cache = forward(net, X)
        preds, inputs, hidden = plain_forward(net.weights, net.biases, X)
        grads_w, grads_b = backward(net, cache, y)
        plain_w, plain_b = plain_backward(net.weights, preds, inputs, hidden, y)
        assert all(np.array_equal(a, b) for a, b in zip(grads_w, plain_w))
        assert all(np.array_equal(a, b) for a, b in zip(grads_b, plain_b))

    def test_backward_twice_on_one_cache_gives_the_same_gradients(self):
        rng = np.random.default_rng(48)
        net = xavier_init((6, 5, 4, 1), rng)
        _, cache = forward(net, rng.normal(size=(30, 6)))
        y = rng.uniform(size=30)
        first, second = backward(net, cache, y), backward(net, cache, y)
        assert all(np.array_equal(a, b) for a, b in zip(first[0] + first[1],
                                                        second[0] + second[1]))

    def test_unfolded_step_reaches_the_same_epoch_and_parameters(self):
        """Folding the bias and deriving sigmoid from exp moves parameters
        only in their last bits: the same stop epoch, parameters within
        1e-12 of the unfolded step's."""
        rng = np.random.default_rng(49)
        X = rng.uniform(0, 1, (600, 14))
        y = X[:, :10] @ np.linspace(0.1, 0.0, 10) / 0.55
        config = TrainConfig(mse_stop=2e-3, batch_size=128, rng_seed=13)
        start = xavier_init((14, 10, 20, 15, 1), np.random.default_rng(9))
        weights, biases, epoch_mse = unfolded_train(start, X, y, config)
        result = train(start.copy(), X, y, config)
        assert result.reason == "mse_stop"
        assert result.stopped_epoch == len(epoch_mse)
        unfolded = np.concatenate([p.ravel() for w, b in zip(weights, biases) for p in (w, b)])
        assert np.abs(result.net.params - unfolded).max() <= 1e-12
