"""Bit-identity guards for the cheap forms of the training kernels.

Each test keeps the former formula as its reference and asserts that the
kernel returns the same bits. Report bytes depend on every one of these
values, so a future numpy that changes one of the equivalences fails here
before it moves a report hash.
"""

from __future__ import annotations

import numpy as np
import pytest

import udakit.adversarial as adversarial
from udakit import AdversarialConfig, TrainConfig, train_adda, train_dann
from udakit.data import class_balanced_probabilities
from udakit.nn import (
    DivergenceError,
    NonFiniteInputError,
    _all_finite,
    backward,
    cross_entropy,
    epoch_batches,
    forward,
    index_draws,
    init_mlp,
    init_sgd,
    multi_source_batches,
    seed_streams,
    sgd_step,
    softmax,
)
from conftest import make_blobs


def softmax_reference(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy_reference(logits, labels):
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1)
    rows = np.arange(n)
    loss = float((np.log(norm) - z[rows, labels]).sum() / n)
    grad = e / norm[:, None]
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


def forward_reference(mlp, x):
    acts = [x]
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        h = acts[-1] @ w.T
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts


def backward_reference(mlp, acts, grad_out):
    grad = np.empty_like(mlp.params)
    dws, dbs = mlp.layer_views(grad)
    g = grad_out
    for i in range(len(mlp.weights) - 1, -1, -1):
        if mlp.activations[i] == "relu":
            g = g * (acts[i + 1] > 0.0)
        g.sum(axis=0, out=dbs[i])
        np.matmul(g.T, acts[i], out=dws[i])
        g = g @ mlp.weights[i]
    return grad, g


def multi_source_batches_reference(sources, target, cfg, n_classes, rng_batch, rng_tgt):
    """The former per-step draws: Generator.choice with and without p."""
    probs = [class_balanced_probabilities(s.labels, n_classes) if cfg.resample else None
             for s in sources]
    for _ in range(-(-max(s.n_samples for s in sources) // cfg.batch_size)):
        xt = target.features[rng_tgt.choice(target.n_samples, size=cfg.batch_size)]
        batches = []
        for s, p in zip(sources, probs):
            idx = rng_batch.choice(s.n_samples, size=cfg.batch_size, replace=True, p=p)
            batches.append((s.features[idx], s.labels[idx]))
        yield batches, xt


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def logit_cases(m, seed):
    """Rows of very different scales, ties, and both memory orders."""
    rng = np.random.default_rng(seed)
    for n in (1, 5, 64, 300):
        logits = rng.normal(size=(n, m)) * rng.choice([1e-3, 1.0, 30.0, 1e3], size=(n, 1))
        logits[: max(1, n // 5)] = np.round(logits[: max(1, n // 5)])
        yield logits, rng.integers(0, m, size=n)
        yield np.asfortranarray(logits), rng.integers(0, m, size=n)


class TestSoftmaxAndCrossEntropy:
    @pytest.mark.parametrize("m", [2, 3, 4, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_column_wise_softmax(self, m, seed):
        for logits, _ in logit_cases(m, seed):
            assert same_bits(softmax(logits), softmax_reference(logits))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_column_wise_cross_entropy(self, m, seed):
        for logits, labels in logit_cases(m, seed):
            loss, grad = cross_entropy(logits, labels)
            ref_loss, ref_grad = cross_entropy_reference(logits, labels)
            assert same_bits(loss, ref_loss) and same_bits(grad, ref_grad)

    @pytest.mark.parametrize("m", [8, 9, 12])
    @pytest.mark.parametrize("seed", range(3))
    def test_eight_or_more_classes_keep_the_axis_sum(self, m, seed):
        for logits, labels in logit_cases(m, seed):
            assert same_bits(softmax(logits), softmax_reference(logits))
            loss, grad = cross_entropy(logits, labels)
            ref_loss, ref_grad = cross_entropy_reference(logits, labels)
            assert same_bits(loss, ref_loss) and same_bits(grad, ref_grad)


    @pytest.mark.parametrize("labels", [[0, -1, 1], [0, 3, 1], [0, 1], [[0, 1, 2]],
                                        [0, -2 ** 63, 1], [2 ** 62, 0, 0]],
                             ids=["negative", "too-large", "short", "2-D", "int64-min", "huge"])
    def test_out_of_range_labels_rejected(self, labels):
        with pytest.raises(ValueError, match="one id in"):
            cross_entropy(np.zeros((3, 3)), np.array(labels))


class TestBackwardWithoutInputGradient:
    @pytest.mark.parametrize("sizes, final", [([2, 32, 32], "relu"), ([32, 2], "identity"),
                                              ([5, 7, 3, 2], "identity"), ([3, 6], "relu")])
    def test_same_parameter_gradient_bits(self, sizes, final):
        rng = np.random.default_rng(len(sizes))
        mlp = init_mlp(sizes, rng, final=final)
        mlp.params += rng.normal(scale=0.1, size=mlp.params.size)
        for n in (1, 44, 64):
            _, acts = forward(mlp, rng.normal(size=(n, sizes[0])))
            grad_out = rng.normal(size=(n, sizes[-1]))
            full, dx = backward(mlp, acts, grad_out)
            params_only, none = backward(mlp, acts, grad_out, input_grad=False)
            assert none is None and dx.shape == (n, sizes[0])
            assert same_bits(params_only, full)


class TestBackwardWithoutParameterGradient:
    @pytest.mark.parametrize("sizes, final", [([32, 16, 2], "identity"), ([2, 32, 32], "relu"),
                                              ([5, 7, 3, 2], "identity"), ([3, 6], "relu")])
    def test_same_input_gradient_bits(self, sizes, final):
        rng = np.random.default_rng(10 + len(sizes))
        mlp = init_mlp(sizes, rng, final=final)
        mlp.params += rng.normal(scale=0.1, size=mlp.params.size)
        for n in (1, 44, 64):
            _, acts = forward(mlp, rng.normal(size=(n, sizes[0])))
            grad_out = rng.normal(size=(n, sizes[-1]))
            _, dx = backward(mlp, acts, grad_out)
            none, input_only = backward(mlp, acts, grad_out, param_grad=False)
            assert none is None
            assert same_bits(input_only, dx)


class TestForwardAndBackward:
    """forward and backward against the former formulas, in every layer shape
    a trainer builds and in degenerate ones."""

    @pytest.mark.parametrize("sizes, final", [([2, 32, 32], "relu"), ([32, 2], "identity"),
                                              ([32, 16, 2], "identity"), ([5, 7, 3, 4], "identity"),
                                              ([1, 1], "relu")])
    def test_same_bits_as_the_former_formulas(self, sizes, final):
        rng = np.random.default_rng(sum(sizes))
        mlp = init_mlp(sizes, rng, final=final)
        for n in (1, 2, 3, 48, 64, 128, 300):
            x = rng.normal(size=(n, sizes[0])) * rng.choice([1e-3, 1.0, 1e3])
            for inputs in (x, np.asfortranarray(x)):
                _, acts = forward(mlp, inputs)
                ref_acts = forward_reference(mlp, inputs)
                assert all(same_bits(a, r) for a, r in zip(acts, ref_acts))
                grad_out = rng.normal(size=(n, sizes[-1]))
                for got, ref in zip(backward(mlp, acts, grad_out),
                                    backward_reference(mlp, ref_acts, grad_out)):
                    assert same_bits(got, ref)


class TestFiniteCheck:
    """_all_finite(a) == np.isfinite(a).all(), through its sum-of-squares shortcut."""

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (64, 32), (3, 0)])
    def test_agrees_with_isfinite(self, shape):
        rng = np.random.default_rng(len(shape))
        base = rng.normal(size=shape)
        cases = [base, np.asfortranarray(base) if base.ndim == 2 else base[::-1]]
        if base.size:
            for bad in (np.nan, np.inf, -np.inf, 1e200, -1e300, 5e-324):
                for pos in {0, base.size // 2, base.size - 1}:
                    a = base.copy()
                    a.reshape(-1)[pos] = bad
                    cases.append(a)
            huge = base * 1e200     # finite entries whose squares overflow
            cases += [huge, np.where(np.arange(base.size).reshape(shape) == 0, np.nan, huge)]
        for a in cases:
            assert _all_finite(a) == bool(np.isfinite(a).all())

    def test_forward_and_sgd_step_accept_huge_finite_values(self):
        mlp = init_mlp([2, 3], np.random.default_rng(0))
        forward(mlp, np.array([[1e200, -1e300]]))
        with pytest.raises(NonFiniteInputError):
            forward(mlp, np.array([[1e200, np.inf]]))
        blocks = [("net", mlp.params)]
        opt = init_sgd(blocks, 1e-300, 0.5)
        sgd_step(blocks, [np.full(mlp.params.size, 1e200)], opt)
        with pytest.raises(DivergenceError, match="non-finite gradient in net"):
            sgd_step(blocks, [np.full(mlp.params.size, -np.inf)], opt)


class TestIndexStreams:
    """Every batch draw must be the draw Generator.choice makes."""

    SIZES = (64, 64, 44, 1, 7, 300)

    @pytest.mark.parametrize("seed", [0, 1, 7, 12345])
    @pytest.mark.parametrize("n", [1, 2, 60, 300, 1001])
    def test_uniform_draws_follow_choice(self, seed, n):
        draw = index_draws(np.random.default_rng(seed), n)
        ref = np.random.default_rng(seed)
        for size in self.SIZES:
            assert same_bits(draw(size), ref.choice(n, size=size))

    @pytest.mark.parametrize("seed", [0, 3, 99])
    @pytest.mark.parametrize("n", [1, 3, 240, 1000])
    def test_weighted_draws_follow_choice(self, seed, n):
        rng = np.random.default_rng(seed + 1000)
        for p in (class_balanced_probabilities(rng.integers(0, 3, size=n), 3),
                  rng.dirichlet(np.full(n, 0.3)), np.full(n, 1.0 / n)):
            draw = index_draws(np.random.default_rng(seed), n, p)
            ref = np.random.default_rng(seed)
            for size in self.SIZES:
                assert same_bits(draw(size), ref.choice(n, size=size, replace=True, p=p))

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("resample", [False, True])
    def test_epoch_batches_follow_choice(self, seed, resample):
        labels = np.random.default_rng(seed).choice(3, size=150, p=[0.7, 0.2, 0.1])
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(4):
            batches = epoch_batches(rng, labels, 32, resample, 3)
            assert [b.size for b in batches] == [32, 32, 32, 32, 22]
            want = (ref.choice(150, size=150, replace=True,
                               p=class_balanced_probabilities(labels, 3))
                    if resample else ref.permutation(150))
            assert same_bits(np.concatenate(batches), want)

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("resample", [False, True])
    def test_multi_source_batches_follow_choice(self, seed, resample):
        sources = [make_blobs(f"s{k}", seed + k, n=n, mix=(0.8, 0.2))
                   for k, n in enumerate((70, 130, 41))]
        target = make_blobs("t", seed + 9, n=90).unlabeled()
        cfg = TrainConfig(batch_size=32, resample=resample)
        epochs = multi_source_batches(sources, target, cfg, 2, *seed_streams(seed)[1:3])
        ref_streams = seed_streams(seed)[1:3]
        for _ in range(3):
            got = list(epochs())
            want = list(multi_source_batches_reference(sources, target, cfg, 2, *ref_streams))
            assert len(got) == len(want) == 5
            for (batches, xt), (ref_batches, ref_xt) in zip(got, want):
                assert same_bits(xt, ref_xt)
                for (x, y), (ref_x, ref_y) in zip(batches, ref_batches):
                    assert same_bits(x, ref_x) and same_bits(y, ref_y)

    @pytest.mark.parametrize("trainer, stream", [(train_dann, (4, 2)), (train_adda, (8, 6))])
    def test_dann_and_adda_target_draws_follow_choice(self, monkeypatch, trainer, stream):
        drawn = []

        def recording(rng, n, p=None):
            draw = index_draws(rng, n, p)

            def recorded(size):
                drawn.append((n, size, draw(size)))
                return drawn[-1][2]
            return recorded

        monkeypatch.setattr(adversarial, "index_draws", recording)
        source = make_blobs("s", 3, n=100)
        target = make_blobs("t", 4, n=70).unlabeled()
        cfg = AdversarialConfig(train=TrainConfig(epochs=2, batch_size=32, seed=21))
        trainer(source, target, cfg)
        ref = seed_streams(21, n=stream[0])[stream[1]]
        assert [size for _, size, _ in drawn] == [32, 32, 32, 4] * 2
        for n, size, idx in drawn:
            assert n == 70 and same_bits(idx, ref.choice(n, size=size))
