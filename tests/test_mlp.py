"""Network tests: forward algebra, loss, gradient oracle, training, posteriors."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from irlv.dataset import Dataset
from irlv.evaluation import empirical_roc
from irlv.mlp import (
    MLP,
    TrainConfig,
    TrainingDivergedError,
    backward,
    ce_loss,
    default_layer_sizes,
    forward,
    init_mlp,
    posterior_from_llr,
    train,
)


def _as_dataset(x, t):
    return Dataset(np.asarray(x, float), np.asarray(t, np.int64))


def _one(x):
    """(n, d) rows as the features of a stack of one, (n, 1, d)."""
    return np.asarray(x, float)[:, None, :]


class TestInit:
    def test_default_architecture(self):
        assert default_layer_sizes(5, 8, 3) == [5, 8, 8, 1]
        assert default_layer_sizes(3, n_hidden=4, n_layers=2) == [3, 4, 1]

    def test_deterministic(self):
        a = init_mlp([5, 8, 8, 1], seed=3)
        b = init_mlp([5, 8, 8, 1], seed=3)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        c = init_mlp([5, 8, 8, 1], seed=4)
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_biases_zero_and_weights_bounded(self):
        mlp = init_mlp([5, 8, 8, 1], seed=0)
        sizes = [5, 8, 8, 1]
        for l, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
            assert np.all(b == 0.0)
            s = math.sqrt(6.0 / (sizes[l] + sizes[l + 1]))
            assert np.all(np.abs(w) <= s)

    def test_shapes(self):
        mlp = init_mlp([5, 8, 8, 1], seed=0)
        assert [w.shape for w in mlp.weights] == [(1, 8, 5), (1, 8, 8), (1, 1, 8)]
        assert [b.shape for b in mlp.biases] == [(1, 8), (1, 8), (1, 1)]
        assert (mlp.n_layers, mlp.n_networks) == (3, 1)
        stack = init_mlp([5, 8, 8, 1], seed=0, copies=4)
        assert [w.shape for w in stack.weights] == [(4, 8, 5), (4, 8, 8), (4, 1, 8)]
        assert stack.n_networks == 4
        for w, w1 in zip(stack.weights, mlp.weights):
            assert np.array_equal(w, np.repeat(w1, 4, axis=0))

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            init_mlp([5], seed=0)
        with pytest.raises(ValueError):
            init_mlp([5, 0, 1], seed=0)
        with pytest.raises(ValueError):
            init_mlp([5, 8, 2], seed=0)
        with pytest.raises(ValueError, match="at least one network"):
            init_mlp([5, 8, 1], seed=0, copies=0)

    def test_inconsistent_mlp_rejected(self):
        with pytest.raises(ValueError, match="input width"):
            MLP([np.zeros((1, 8, 5)), np.zeros((1, 1, 7))], [np.zeros((1, 8)), np.zeros((1, 1))])
        with pytest.raises(ValueError, match="non-finite"):
            MLP([np.full((1, 1, 2), np.nan)], [np.zeros((1, 1))])
        with pytest.raises(ValueError, match="bias shape"):  # a network is a stack of one
            MLP([np.zeros((1, 2))], [np.zeros(1)])


class TestForward:
    def test_zero_parameters_give_half(self):
        mlp = MLP([np.zeros((1, 8, 5)), np.zeros((1, 1, 8))], [np.zeros((1, 8)), np.zeros((1, 1))])
        out = forward(mlp, _one([np.zeros(5), np.ones(5)]))
        assert out.shape == (2, 1) and np.all(out == 0.5)

    def test_single_weight_is_plain_sigmoid(self):
        """A [1, 1] network computes sigma(w*a + b)."""
        w = 0.73
        mlp = MLP([np.array([[[w]]])], [np.array([[0.0]])])
        for a in (-2.0, 0.0, 1.5):
            expected = 1.0 / (1.0 + math.exp(-w * a))
            np.testing.assert_allclose(forward(mlp, [[[a]]]), [[expected]], rtol=1e-12)

    def test_two_layer_hand_composition(self):
        """[1, 1, 1] network equals sigma(w2*sigma(w1*a + b1) + b2)."""
        mlp = MLP(
            [np.array([[[2.0]]]), np.array([[[-1.5]]])],
            [np.array([[0.25]]), np.array([[0.5]])],
        )
        a = 0.8
        h = 1.0 / (1.0 + math.exp(-(2.0 * a + 0.25)))
        expected = 1.0 / (1.0 + math.exp(-(-1.5 * h + 0.5)))
        np.testing.assert_allclose(forward(mlp, [[[a]]]), [[expected]], rtol=1e-12)

    def test_output_in_open_interval(self):
        rng = np.random.default_rng(42)
        mlp = init_mlp([5, 8, 8, 1], seed=1)
        x = rng.normal(size=(500, 1, 5))
        s = forward(mlp, x)
        assert np.all((s > 0.0) & (s < 1.0))

    def test_batch_matches_single(self):
        mlp = init_mlp([4, 6, 1], seed=2)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(10, 1, 4))
        batch = forward(mlp, x)
        assert batch.shape == (10, 1)
        np.testing.assert_allclose(batch, [forward(mlp, row[None])[0] for row in x], rtol=1e-12)

    def test_dimension_mismatch(self):
        mlp = init_mlp([4, 6, 1], seed=2)
        with pytest.raises(ValueError):
            forward(mlp, np.zeros((3, 1, 5)))
        with pytest.raises(ValueError, match="shape"):
            forward(mlp, np.zeros((3, 4)))  # rows must name the network: (3, 1, 4)
        with pytest.raises(ValueError, match="shape"):
            forward(mlp, np.zeros(4))  # a single vector must come as a (1, 1, 4) batch

    def test_holds_one_layer_at_a_time(self):
        """forward drops each layer once the next is computed, so on four
        hidden layers its peak stays below three layers' worth of memory."""
        mlp = init_mlp([5, 8, 8, 8, 8, 1], seed=0, copies=4)
        x = np.random.default_rng(0).standard_normal((2000, 4, 5))
        forward(mlp, x)
        tracemalloc.start()
        try:
            forward(mlp, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * x[..., 0].size * 8 * 8  # (P, n, 8) float64 layers


def _identity_net() -> MLP:
    """One sigmoid neuron with weight 1 and bias 0: forward is the sigmoid."""
    return MLP([np.ones((1, 1, 1))], [np.zeros((1, 1))])


class TestSigmoid:
    def test_saturates_exactly_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = forward(_identity_net(), [[[-800.0]], [[800.0]], [[-709.0]], [[0.0]]])[:, 0]
        assert out[0] == 0.0 and out[1] == 1.0
        assert 0.0 < out[2] < 1e-300 and out[3] == 0.5

    def test_training_on_saturated_rows_raises_no_warning(self):
        data = _as_dataset([[[-800.0]], [[800.0]]], [0, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ce = train(_identity_net(), data, TrainConfig(epochs=2, batch_size=2))
        assert ce.shape == (1,) and np.isfinite(ce[0])

    def test_matches_scipy_expit(self):
        expit = pytest.importorskip("scipy.special").expit
        z = np.linspace(-40.0, 40.0, 20_001)
        np.testing.assert_allclose(forward(_identity_net(), z[:, None, None])[:, 0], expit(z),
                                   rtol=4 * np.finfo(float).eps, atol=0.0)


class TestCeLoss:
    def test_uninformative_scores_cost_one_bit(self):
        assert ce_loss(np.full(10, 0.5), np.array([0, 1] * 5)) == 1.0

    def test_perfect_prediction_is_free(self):
        t = np.array([0, 1, 1, 0])
        assert ce_loss(t.astype(float), t) < 1e-10

    def test_quarter_score_costs_two_bits(self):
        np.testing.assert_allclose(ce_loss([0.25], [1]), 2.0, rtol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0, 1, 100)
        t = rng.integers(0, 2, 100)
        assert ce_loss(s, t) >= 0.0

    def test_constant_mean_score_equals_label_entropy(self):
        rng = np.random.default_rng(6)
        t = rng.integers(0, 2, 400)
        p = t.mean()
        entropy = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        np.testing.assert_allclose(ce_loss(np.full(t.shape, p), t), entropy, rtol=1e-12)

    def test_extreme_scores_clamped(self):
        assert math.isfinite(ce_loss([0.0, 1.0], [1, 0]))
        np.testing.assert_allclose(ce_loss([0.0], [1]), -math.log2(1e-12))


def _fd_gradients(mlp, x, t, h=1e-5):
    """Central finite differences of the batch loss per parameter."""
    def loss():
        return ce_loss(forward(mlp, x)[:, 0], t)

    grads = []
    for arr in list(mlp.weights) + list(mlp.biases):
        g = np.zeros_like(arr)
        for idx in np.ndindex(arr.shape):
            orig = arr[idx]
            arr[idx] = orig + h
            lp = loss()
            arr[idx] = orig - h
            lm = loss()
            arr[idx] = orig
            g[idx] = (lp - lm) / (2 * h)
        grads.append(g)
    n = len(mlp.weights)
    return grads[:n], grads[n:]


def _max_rel_err(analytic, numeric):
    worst = 0.0
    for a, f in zip(analytic, numeric):
        denom = np.maximum(np.abs(a) + np.abs(f), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst


class TestBackward:
    def test_matches_finite_differences(self):
        """Analytic gradients agree with central differences on random nets."""
        rng = np.random.default_rng(42)
        for sizes in ([3, 1], [4, 6, 1], [5, 8, 8, 1]):
            mlp = init_mlp(sizes, seed=int(rng.integers(1000)))
            x = rng.normal(size=(12, 1, sizes[0]))
            t = rng.integers(0, 2, 12)
            gw, gb = backward(mlp, x, t)
            fw, fb = _fd_gradients(mlp, x, t)
            assert _max_rel_err(gw, fw) < 1e-5, sizes
            assert _max_rel_err(gb, fb) < 1e-5, sizes

    def test_saturated_correct_scores_have_tiny_gradient(self):
        mlp = MLP([np.array([[[30.0]]])], [np.array([[0.0]])])
        x = np.array([[[1.0]], [[-1.0]]])
        t = np.array([1, 0])
        gw, gb = backward(mlp, x, t)
        assert abs(gw[0][0, 0, 0]) < 1e-10 and abs(gb[0][0, 0]) < 1e-10

    def test_linear_in_batch_union(self):
        """grad(A u B) is the size-weighted mean of grad(A) and grad(B)."""
        rng = np.random.default_rng(9)
        mlp = init_mlp([4, 5, 1], seed=1)
        xa, ta = rng.normal(size=(6, 1, 4)), rng.integers(0, 2, 6)
        xb, tb = rng.normal(size=(10, 1, 4)), rng.integers(0, 2, 10)
        ga = backward(mlp, xa, ta)
        gb = backward(mlp, xb, tb)
        gu = backward(mlp, np.vstack([xa, xb]), np.concatenate([ta, tb]))
        for layer in range(mlp.n_layers):
            np.testing.assert_allclose(
                gu[0][layer], (6 * ga[0][layer] + 10 * gb[0][layer]) / 16, rtol=1e-10
            )
            np.testing.assert_allclose(
                gu[1][layer], (6 * ga[1][layer] + 10 * gb[1][layer]) / 16, rtol=1e-10
            )

    def test_empty_batch_rejected(self):
        mlp = init_mlp([4, 5, 1], seed=1)
        with pytest.raises(ValueError):
            backward(mlp, np.empty((0, 1, 4)), np.empty(0))


def _separable_toy(n=400, seed=0):
    """Two features, label = sign of their sum, margin 0.3 kept clear."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3 * n, 2))
    keep = np.abs(x.sum(axis=1)) > 0.3
    x = x[keep][:n]
    t = (x.sum(axis=1) > 0).astype(np.int64)
    return _as_dataset(_one(x), t)


class TestTrain:
    def test_loss_decreases_from_init(self):
        ds = _separable_toy()
        mlp = init_mlp([2, 8, 1], seed=0)
        ce0 = ce_loss(forward(mlp, ds.features)[:, 0], ds.labels)
        _, ce1 = train(mlp, ds, TrainConfig(epochs=50, batch_size=64, seed=1))
        assert ce1.shape == (1,) and ce1[0] <= ce0

    def test_separable_toy_accuracy(self):
        ds = _separable_toy()
        mlp = init_mlp([2, 8, 1], seed=0)
        train(mlp, ds, TrainConfig(learning_rate=0.5, epochs=200, batch_size=64, seed=1))
        acc = np.mean((forward(mlp, ds.features)[:, 0] > 0.5) == ds.labels)
        assert acc >= 0.99

    def test_zero_epochs_is_a_no_op(self):
        ds = _separable_toy(n=50)
        mlp = init_mlp([2, 4, 1], seed=7)
        before = [w.copy() for w in mlp.weights]
        train(mlp, ds, TrainConfig(epochs=0, batch_size=16))
        for w, b in zip(mlp.weights, before):
            np.testing.assert_array_equal(w, b)

    def test_deterministic(self):
        ds = _separable_toy(n=100)
        runs = []
        for _ in range(2):
            mlp = init_mlp([2, 4, 1], seed=3)
            train(mlp, ds, TrainConfig(epochs=10, batch_size=16, seed=5))
            runs.append([w.copy() for w in mlp.weights])
        for wa, wb in zip(*runs):
            np.testing.assert_array_equal(wa, wb)

    def test_non_finite_training_raises(self):
        bad = _as_dataset(_one([[np.nan, 1.0], [0.0, 1.0]]), [0, 1])
        mlp = init_mlp([2, 4, 1], seed=0)
        with pytest.raises(TrainingDivergedError, match="diverged"):
            train(mlp, bad, TrainConfig(epochs=1, batch_size=2))

    def test_batch_larger_than_set_rejected(self):
        ds = _separable_toy(n=10)
        mlp = init_mlp([2, 4, 1], seed=0)
        with pytest.raises(ValueError):
            train(mlp, ds, TrainConfig(batch_size=11))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)


class TestStackedTrain:
    """P networks train in lockstep on (n, P, d) features with shared
    labels, initial weights and mini-batch order."""

    @pytest.mark.parametrize("n", [256, 301], ids=["whole-batches", "short-last-batch"])
    @pytest.mark.parametrize("p", [1, 3, 6])
    def test_matches_sequential_training(self, p, n):
        """Each network of the stack ends bit-identical to training it
        alone: weights, biases, final CE and scores."""
        rng = np.random.default_rng(10 * p + n)
        t = rng.integers(0, 2, n)
        x = rng.normal(size=(n, p, 5)) + rng.normal(size=(1, p, 5)) * t[:, None, None]
        cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=32, seed=7)
        stack, ce = train(init_mlp([5, 8, 8, 1], seed=3, copies=p), _as_dataset(x, t), cfg)
        assert ce.shape == (p,)
        scores = forward(stack, x)
        assert scores.shape == (n, p)
        for k in range(p):
            alone, ce_k = train(init_mlp([5, 8, 8, 1], seed=3), _as_dataset(x[:, k:k + 1], t), cfg)
            for stacked, single in zip(stack.weights + stack.biases, alone.weights + alone.biases):
                assert np.array_equal(stacked[k], single[0])
            assert ce[k] == ce_k[0]
            assert np.array_equal(scores[:, k], forward(alone, x[:, k:k + 1])[:, 0])

    def test_divergence_names_networks_and_epoch(self):
        """A huge learning rate overflows the weight of the network whose
        constant input is large: labels alternate, so whatever the weight's
        sign half the rows are misclassified, the gradient is about 700 and
        one step of 1e308 times it is infinite.  The networks on small
        inputs stay finite, and the error names the diverged network and
        the epoch."""
        t = np.arange(64) % 2
        x = np.ones((64, 3, 1)) * np.array([1e-3, 1e3, 1e-3])[None, :, None]
        cfg = TrainConfig(learning_rate=1e308, epochs=3, batch_size=16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError,
                               match=r"^training diverged: networks \[1\] of 3 not finite after epoch 1$"):
                train(init_mlp([1, 1], seed=0, copies=3), _as_dataset(x, t), cfg)
            with pytest.raises(TrainingDivergedError,
                               match=r"^training diverged: networks \[0\] of 1 not finite after epoch 1$"):
                train(init_mlp([1, 1], seed=0), _as_dataset(x[:, 1:2], t), cfg)
            _, ce = train(init_mlp([1, 1], seed=0, copies=2), _as_dataset(x[:, ::2], t), cfg)
        assert np.all(np.isfinite(ce))

    def test_mismatched_stack_rejected(self):
        mlp = init_mlp([2, 4, 1], seed=0, copies=3)
        with pytest.raises(ValueError, match="shape"):
            forward(mlp, np.zeros((10, 2, 2)))
        with pytest.raises(ValueError, match="shape"):
            backward(mlp, np.zeros((10, 2)), np.zeros(10))
        with pytest.raises(ValueError, match="stack size"):
            MLP([np.zeros((3, 4, 2)), np.zeros((2, 1, 4))], [np.zeros((3, 4)), np.zeros((2, 1))])


class TestBiasGradient:
    @pytest.mark.parametrize("rows", [97, 128, 1000])
    @pytest.mark.parametrize("p", [1, 6, 12, 30])
    def test_hidden_layer_einsum_matches_sum(self, p, rows):
        """backward sums a hidden layer's (P, rows, 8) deltas by einsum,
        which adds in row order as numpy's sum does there, so the bias
        gradients are sum's bit for bit; a stack's networks still get the
        gradients they get alone."""
        rng = np.random.default_rng(p * rows)
        delta = rng.normal(size=(p, rows, 8))
        assert np.array_equal(np.einsum("pbo->po", delta), delta.sum(axis=1))
        assert np.array_equal(np.einsum("pbo->po", delta[:1])[0], delta[0].sum(axis=0))
        x = rng.normal(size=(rows, p, 5))
        t = rng.integers(0, 2, rows)
        grads_w, grads_b = backward(init_mlp([5, 8, 8, 1], seed=1, copies=p), x, t)
        for k in range(p):
            alone_w, alone_b = backward(init_mlp([5, 8, 8, 1], seed=1), x[:, k:k + 1], t)
            for stacked, single in zip(grads_w + grads_b, alone_w + alone_b):
                assert np.array_equal(stacked[k], single[0])


class TestDecide:
    """The verifier's decision rule (1 where the score exceeds lambda, ties
    decide 0), as empirical_roc applies it at every distinct score."""

    def test_strictly_above_threshold(self):
        roc = empirical_roc(np.array([0.5, 0.7]), np.array([0, 1]))
        assert roc.thresholds[0] == 0.5
        assert (roc.p_fa[0], roc.p_md[0]) == (0.0, 0.0)

    def test_tie_goes_to_zero(self):
        roc = empirical_roc(np.array([0.5, 0.5]), np.array([0, 1]))
        assert roc.thresholds[0] == 0.5
        assert (roc.p_fa[0], roc.p_md[0]) == (0.0, 1.0)

    def test_lambda_one_never_accepts(self):
        rng = np.random.default_rng(2)
        s = rng.uniform(0, 1, 100)
        t = np.arange(100) % 2
        s[0] = 1.0  # a label-0 score at the top keeps the lambda = 1 point
        roc = empirical_roc(s, t)
        assert roc.thresholds[0] == 1.0
        assert (roc.p_fa[0], roc.p_md[0]) == (0.0, 1.0)

    def test_monotone_in_lambda(self):
        """Raising lambda never flips a decision from 0 to 1: along the curve
        p_fa grows as lambda falls."""
        rng = np.random.default_rng(3)
        s = rng.uniform(0, 1, 200)
        roc = empirical_roc(s, (s + rng.normal(0, 0.3, 200) > 0.5).astype(np.int64))
        assert np.all(np.diff(roc.thresholds) < 0)

    def test_lambda_range_checked(self):
        rng = np.random.default_rng(4)
        s = rng.uniform(0, 1, 200)
        roc = empirical_roc(s, np.arange(200) % 2)
        assert roc.thresholds[-1] == 0.0
        assert np.all((roc.thresholds >= 0.0) & (roc.thresholds <= 1.0))


class TestThresholdConversions:
    """A score threshold lambda on p(H1 | a) is the LLR threshold
    log2((1 - lambda) / lambda * prior1 / prior0) bits: there the H1
    posterior is exactly lambda."""

    @staticmethod
    def _h1(llr_bits, prior0=0.5, prior1=0.5):
        return 1.0 - posterior_from_llr(llr_bits, prior0, prior1)

    def test_balanced_point(self):
        assert self._h1(0.0) == 0.5

    def test_quarter_lambda(self):
        np.testing.assert_allclose(self._h1(math.log2(3.0)), 0.25, rtol=1e-12)

    def test_lambda_near_one_shrinks_theta(self):
        # lambda = 0.999 sits below a likelihood ratio of 1e-2
        assert self._h1(math.log2(1e-2)) < 0.999
        np.testing.assert_allclose(self._h1(math.log2(1.0 / 999.0)), 0.999, rtol=1e-12)

    def test_prior_ratio_scales(self):
        # priors 0.8 / 0.2 move the lambda = 0.5 threshold by log2(0.2 / 0.8) bits
        np.testing.assert_allclose(self._h1(-2.0, 0.8, 0.2), 0.5, rtol=1e-12)

    def test_degenerate_lambda_rejected(self):
        """lambda = 0 and 1 have no finite threshold: only infinite evidence reaches them."""
        h1 = self._h1(np.linspace(-40, 40, 161))
        assert np.all((h1 > 0.0) & (h1 < 1.0))
        assert self._h1(np.inf) == 0.0 and self._h1(-np.inf) == 1.0

    def test_bad_priors_rejected(self):
        with pytest.raises(ValueError):
            posterior_from_llr(0.0, 0.7, 0.2)
        with pytest.raises(ValueError):
            posterior_from_llr(0.0, 0.0, 1.0)


class TestPosteriorFromLlr:
    def test_neutral_evidence(self):
        assert posterior_from_llr(0.0, 0.5, 0.5) == 0.5

    def test_one_bit_equal_priors(self):
        np.testing.assert_allclose(posterior_from_llr(1.0, 0.5, 0.5), 2.0 / 3.0, rtol=1e-12)

    def test_saturates_at_sentinels(self):
        assert posterior_from_llr(1024.0, 0.5, 0.5) == 1.0
        assert posterior_from_llr(-1024.0, 0.5, 0.5) == 0.0

    def test_monotone_in_llr(self):
        llr = np.linspace(-30, 30, 101)
        p = posterior_from_llr(llr, 0.5, 0.5)
        assert np.all(np.diff(p) > 0)

    def test_prior_shift(self):
        # prior odds 1:3 against H0 need log2(3) bits to even out
        np.testing.assert_allclose(
            posterior_from_llr(math.log2(3.0), 0.25, 0.75), 0.5, rtol=1e-12
        )
