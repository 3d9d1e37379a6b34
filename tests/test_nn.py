from __future__ import annotations

import numpy as np
import pytest

from udakit import (
    AdversarialConfig,
    DivergenceError,
    MomentConfig,
    Mlp,
    ModelBundle,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    init_sgd,
    load_model,
    predict,
    save_model,
    sgd_step,
    softmax,
    train_adda,
    train_dann,
    train_erm,
    train_m3sda,
    train_mdan,
)
from udakit.harness import trainer_config
from udakit.nn import NonFiniteInputError, RunRecord, build_model, run_epochs
from conftest import make_blobs
from oracles import finite_difference, mlp_by_hand, relative_error
from test_harness import quick_config


class TestForward:
    def test_zero_weights_give_bias(self):
        mlp = Mlp([np.zeros((3, 2))], [np.array([1.0, -2.0, 0.5])], ["identity"])
        out, _ = forward(mlp, np.random.default_rng(0).normal(size=(4, 2)))
        assert np.allclose(out, [1.0, -2.0, 0.5])

    def test_identity_layer_passes_input_through(self):
        mlp = Mlp([np.eye(2)], [np.zeros(2)], ["identity"])
        x = np.array([[1.5, -2.5], [0.0, 3.0]])
        out, _ = forward(mlp, x)
        assert np.array_equal(out, x)

    def test_matches_straight_line_recompute(self, rng):
        mlp = init_mlp([2, 3, 2], rng)
        x = rng.normal(size=(5, 2))
        out, _ = forward(mlp, x)
        expected = mlp_by_hand(mlp.weights, mlp.biases, mlp.activations, x)
        assert np.allclose(out, expected, atol=1e-12)

    def test_activations_trace_exposes_intermediates(self, rng):
        mlp = init_mlp([2, 4, 3], rng)
        x = rng.normal(size=(6, 2))
        out, acts = forward(mlp, x)
        assert len(acts) == 3
        assert acts[0] is not None and acts[1].shape == (6, 4)
        assert np.array_equal(acts[-1], out)

    def test_shape_mismatch_rejected(self, rng):
        mlp = init_mlp([3, 2], rng)
        with pytest.raises(ValueError, match="does not match"):
            forward(mlp, np.zeros((4, 2)))

    def test_non_finite_input_rejected(self, rng):
        mlp = init_mlp([2, 2], rng)
        with pytest.raises(ValueError, match="non-finite"):
            forward(mlp, np.array([[np.nan, 0.0]]))

    def test_non_finite_input_is_a_divergence(self, rng):
        mlp = init_mlp([2, 2], rng)
        with pytest.raises(NonFiniteInputError) as exc:
            forward(mlp, np.array([[np.inf, 0.0]]))
        assert isinstance(exc.value, DivergenceError) and isinstance(exc.value, ValueError)


def _packed(mlp):
    """weights/biases are views laid out w0, b0, w1, b1, ... in mlp.params."""
    assert mlp.params.dtype == np.float64 and mlp.params.flags.c_contiguous
    start = 0
    for w, b in zip(mlp.weights, mlp.biases):
        for arr in (w, b):
            assert arr.base is mlp.params
            assert np.shares_memory(arr, mlp.params[start:start + arr.size])
            start += arr.size
    return start == mlp.params.size


class TestFlatParams:
    def test_layout_and_views(self, rng):
        mlp = init_mlp([3, 5, 2], rng)
        assert _packed(mlp)
        expected = np.concatenate([mlp.weights[0].ravel(), mlp.biases[0],
                                   mlp.weights[1].ravel(), mlp.biases[1]])
        assert np.array_equal(mlp.params, expected)

    def test_construction_copies_its_inputs(self):
        w = np.ones((2, 2))
        mlp = Mlp([w], [np.zeros(2)], ["identity"])
        w[0, 0] = 5.0
        assert mlp.weights[0][0, 0] == 1.0

    def test_sgd_step_visible_through_layer_views(self, rng):
        mlp = init_mlp([2, 3, 2], rng)
        blocks = [("net", mlp.params)]
        before = [w.copy() for w in mlp.weights] + [b.copy() for b in mlp.biases]
        grad = rng.normal(size=mlp.params.shape)
        state = init_sgd(blocks, learning_rate=0.1, momentum=0.0)
        sgd_step(blocks, [grad], state)
        dws, dbs = mlp.layer_views(grad)
        for old, new, g in zip(before, mlp.weights + mlp.biases, dws + dbs):
            assert np.array_equal(new, old - 0.1 * g)
        assert _packed(mlp)

    def test_copy_is_independent_and_packed(self, rng):
        mlp = init_mlp([2, 4, 2], rng)
        twin = mlp.copy()
        assert _packed(twin)
        assert not np.shares_memory(twin.params, mlp.params)
        assert np.array_equal(twin.params, mlp.params)
        twin.params += 1.0
        assert not np.array_equal(twin.weights[0], mlp.weights[0])

    def test_load_model_packs_independent_vectors(self, tmp_path, rng):
        ext = init_mlp([2, 4], rng, final="relu")
        heads = [init_mlp([4, 2], rng) for _ in range(2)]
        save_model(ModelBundle(ext, heads, None, {}, 0), tmp_path / "m.json")
        back = load_model(tmp_path / "m.json")
        nets = [back.extractor, *back.classifiers]
        assert all(_packed(m) for m in nets)
        for i, a in enumerate(nets):
            for b in nets[i + 1:]:
                assert not np.shares_memory(a.params, b.params)
        for orig, loaded in zip([ext, *heads], nets):
            assert np.array_equal(orig.params, loaded.params)

    def test_non_finite_anywhere_names_the_network(self, rng):
        ext = init_mlp([2, 3], rng, final="relu")
        head = init_mlp([3, 4, 2], rng)
        blocks = [("extractor", ext.params), ("classifier", head.params)]
        for bad in (np.nan, np.inf, -np.inf):
            for pos in range(head.params.size):
                grads = [np.zeros_like(ext.params), np.zeros_like(head.params)]
                grads[1][pos] = bad
                state = init_sgd(blocks, 0.1, 0.0)
                with pytest.raises(DivergenceError, match="classifier"):
                    sgd_step(blocks, grads, state)
                assert state.step == 0
        grads = [np.zeros_like(ext.params), np.zeros_like(head.params)]
        grads[0][-1] = np.nan
        with pytest.raises(DivergenceError, match="extractor"):
            sgd_step(blocks, grads, init_sgd(blocks, 0.1, 0.0))


def _two_pass_cross_entropy(logits, labels):
    """The former formula: exponentials and softmax computed separately."""
    n = logits.shape[0]
    z = logits - logits.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(n), labels]))
    grad = softmax(logits)
    grad[np.arange(n), labels] -= 1.0
    return loss, grad / n


class TestBuildModel:
    @pytest.mark.parametrize("heads", [1, 3])
    def test_draws_the_extractor_then_each_head(self, heads):
        cfg = TrainConfig(hidden_sizes=(5, 4))
        extractor, classifiers = build_model(3, 2, cfg, np.random.default_rng(11), heads=heads)
        rng = np.random.default_rng(11)
        expected = [init_mlp([3, 5, 4], rng, final="relu"),
                    *[init_mlp([4, 2], rng) for _ in range(heads)]]
        assert len(classifiers) == heads
        for got, want in zip([extractor, *classifiers], expected, strict=True):
            assert [w.shape for w in got.weights] == [w.shape for w in want.weights]
            assert got.activations == want.activations
            assert np.array_equal(got.params, want.params)


class TestCrossEntropy:
    @pytest.mark.parametrize("seed", range(4))
    def test_bit_identical_to_two_pass_formula(self, seed):
        rng = np.random.default_rng(seed)
        for n, m in ((1, 2), (64, 2), (37, 4), (128, 7)):
            logits = rng.normal(size=(n, m)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1))
            logits[: max(1, n // 4)] *= 1e3          # rows of magnitude 1e3
            labels = rng.integers(0, m, size=n)
            loss, grad = cross_entropy(logits, labels)
            ref_loss, ref_grad = _two_pass_cross_entropy(logits, labels)
            assert np.array_equal(loss, ref_loss)
            assert np.array_equal(grad, ref_grad)


    def test_saturated_correct_is_near_zero(self):
        logits = np.array([[1e6, 0.0], [0.0, 1e6]])
        loss, _ = cross_entropy(logits, np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_logits_equal_log_m(self):
        for m in (2, 3, 7):
            logits = np.zeros((4, m))
            loss, _ = cross_entropy(logits, np.zeros(4, dtype=int))
            assert loss == pytest.approx(np.log(m), abs=1e-12)

    def test_shift_invariance(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = rng.integers(0, 3, size=5)
        base, _ = cross_entropy(logits, labels)
        shifted, _ = cross_entropy(logits + 1234.5, labels)
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = cross_entropy(logits, labels)
        fd = finite_difference(lambda: cross_entropy(logits, labels)[0], [logits])
        assert relative_error([grad], fd) < 1e-4

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(50, 5)) * 10)
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-9


class TestSgd:
    def test_plain_step(self):
        p = np.array([1.0, 2.0])
        blocks = [("p", p)]
        state = init_sgd(blocks, learning_rate=0.1, momentum=0.0)
        sgd_step(blocks, [np.array([1.0, -1.0])], state)
        assert np.allclose(p, [0.9, 2.1])
        assert state.step == 1

    def test_zero_gradient_fixed_point(self):
        p = np.array([3.0, -4.0])
        blocks = [("p", p)]
        state = init_sgd(blocks, 0.5, 0.9)
        for _ in range(10):
            sgd_step(blocks, [np.zeros(2)], state)
        assert np.array_equal(p, [3.0, -4.0])

    def test_quadratic_bowl_contraction(self):
        # f(w) = 0.5 ||w||^2, gradient w: each step multiplies w by 0.9
        w = np.array([2.0, -1.0, 0.5])
        blocks = [("w", w)]
        state = init_sgd(blocks, 0.1, 0.0)
        prev = w.copy()
        for _ in range(5):
            sgd_step(blocks, [w.copy()], state)
            assert np.allclose(w, prev * 0.9)
            prev = w.copy()

    def test_momentum_accumulates_velocity(self):
        w = np.array([0.0])
        blocks = [("w", w)]
        state = init_sgd(blocks, 1.0, 0.5)
        sgd_step(blocks, [np.array([1.0])], state)   # v=1, w=-1
        sgd_step(blocks, [np.array([1.0])], state)   # v=1.5, w=-2.5
        assert w[0] == pytest.approx(-2.5)

    def test_non_finite_gradient_names_block(self):
        w = np.array([0.0])
        blocks = [("classifier.w0", w)]
        state = init_sgd(blocks, 0.1, 0.0)
        with pytest.raises(DivergenceError, match="classifier.w0"):
            sgd_step(blocks, [np.array([np.inf])], state)


class TestBackward:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_network_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        mlp = init_mlp([3, 5, 4, 2], rng)
        x = rng.normal(size=(7, 3))
        labels = rng.integers(0, 2, size=7)

        def loss_fn():
            out, _ = forward(mlp, x)
            return cross_entropy(out, labels)[0]

        out, acts = forward(mlp, x)
        _, dlogits = cross_entropy(out, labels)
        grad, _ = backward(mlp, acts, dlogits)
        # perturbing the flat vector perturbs every layer's weight and bias view
        fd = finite_difference(loss_fn, [mlp.params])
        assert grad.shape == mlp.params.shape
        assert relative_error([grad], fd) < 1e-4

    def test_input_gradient(self, rng):
        mlp = init_mlp([2, 4, 3], rng)
        x = rng.normal(size=(5, 2))
        labels = rng.integers(0, 3, size=5)
        out, acts = forward(mlp, x)
        _, dlogits = cross_entropy(out, labels)
        _, dx = backward(mlp, acts, dlogits)
        fd = finite_difference(
            lambda: cross_entropy(forward(mlp, x)[0], labels)[0], [x])
        assert relative_error([dx], fd) < 1e-4


class TestTrainErm:
    def test_separable_blobs_reach_high_accuracy(self):
        data = make_blobs("d", 0, n=300, sigma=0.3)
        cfg = TrainConfig(n_classes=2, epochs=200, hidden_sizes=(16,), seed=1)
        res = train_erm(data, cfg)
        _, labels = predict(res, data.features)
        assert np.mean(labels == data.labels) >= 0.99

    def test_single_sample_memorized_monotonically(self):
        data = make_blobs("d", 2, n=1)
        cfg = TrainConfig(n_classes=2, epochs=150, hidden_sizes=(8,),
                          learning_rate=0.03, seed=0)
        res = train_erm(data, cfg)
        trace = res.record.epoch_losses["classification"]
        tail = trace[len(trace) // 2:]
        assert all(b <= a + 1e-9 for a, b in zip(tail, tail[1:]))
        assert tail[-1] < 0.01

    def test_deterministic_same_seed(self):
        data = make_blobs("d", 3, n=120)
        cfg = TrainConfig(n_classes=2, epochs=12, seed=9)
        r1 = train_erm(data, cfg)
        r2 = train_erm(data, cfg)
        for a, b in zip(r1.extractor.weights + r1.classifiers[0].weights,
                        r2.extractor.weights + r2.classifiers[0].weights):
            assert np.array_equal(a, b)

    def test_resample_flag_changes_batching(self):
        data = make_blobs("d", 4, n=150, mix=[0.9, 0.1])
        plain = train_erm(data, TrainConfig(n_classes=2, epochs=5, seed=7))
        balanced = train_erm(data, TrainConfig(n_classes=2, epochs=5, seed=7, resample=True))
        assert not np.array_equal(plain.classifiers[0].weights[0],
                                  balanced.classifiers[0].weights[0])

    def test_empty_source_rejected(self):
        data = make_blobs("d", 0, n=5)
        with pytest.raises(ValueError, match="empty"):
            train_erm(data.subset(np.array([], dtype=int)), TrainConfig(n_classes=2))


class TestLayerSizes:
    @pytest.mark.parametrize("entry", [0, -1, 8.5, float("nan"), float("inf"), "8", True])
    def test_entries_that_are_not_whole_numbers_of_at_least_one_rejected(self, entry):
        with pytest.raises(ValueError, match=rf"hidden_sizes entries .* got {entry!r}"):
            TrainConfig(hidden_sizes=(8, entry))
        with pytest.raises(ValueError, match=rf"disc_hidden entries .* got {entry!r}"):
            AdversarialConfig(disc_hidden=(entry,))

    def test_whole_floats_become_ints(self):
        for sizes, want in [(TrainConfig(hidden_sizes=[8.0, np.int64(4)]).hidden_sizes, (8, 4)),
                            (trainer_config(quick_config(["combined-erm"],
                                                         train={"hidden_sizes": [8.0]}),
                                            "combined-erm", 2, 0).hidden_sizes, (8,)),
                            (AdversarialConfig(disc_hidden=[16.0]).disc_hidden, (16,))]:
            assert sizes == want and all(type(h) is int for h in sizes)


class TestRunEpochs:
    """The shared training loop, driven by a fake step on a one-weight,
    one-bias network: three batches per epoch, gradient 1 on both
    parameters, learning rate 1, no momentum."""

    def setup_method(self):
        self.net = Mlp([np.zeros((1, 1))], [np.zeros(1)], ["identity"])
        self.record = RunRecord("fake", 0, {})
        self.seen = []      # (batch, steps taken before it) per step call

    def _run(self, epochs, losses_at, final=(), grad_at=lambda i: 1.0):
        def step(batch, t):
            self.seen.append((batch, t))
            i = len(self.seen) - 1
            return losses_at(i, batch), [np.full(2, grad_at(i))]

        run_epochs(self.record, {"w": self.net}, 1.0, 0.0, epochs, lambda: [1.0, 2.0, 6.0],
                   step, final)

    def moved_by(self, steps):
        return self.net.params.tolist() == [-float(steps)] * 2

    def test_records_epoch_means_and_steps_every_batch(self):
        self._run(2, lambda i, b: {"a": b, "b": b + i}, final=("b",))
        assert self.seen == list(zip([1.0, 2.0, 6.0] * 2, range(6)))
        assert self.record.epoch_losses == {"a": [3.0, 3.0], "b": [4.0, 7.0]}
        assert self.record.final == {"b_loss": 7.0}
        assert self.moved_by(6)

    def test_appends_to_existing_traces(self):
        self.record.epoch_losses = {"a": [9.0], "kept": [1.0]}
        self._run(1, lambda i, b: {"a": b})
        assert self.record.epoch_losses == {"a": [9.0, 3.0], "kept": [1.0]}

    def test_rate_momentum_and_network_order_reach_the_update(self):
        nets = {"first": Mlp([np.zeros((1, 1))], [np.zeros(1)], ["identity"]), "second": self.net}

        def step(batch, t):
            return {"a": batch}, [np.ones(2), np.full(2, 2.0)]

        run_epochs(self.record, nets, 0.5, 0.5, 1, lambda: [1.0, 2.0], step, ())
        # v = 1, 1.5 times the gradient; p = -0.5 v, so p = -0.5, then -1.25
        assert nets["first"].params.tolist() == [-1.25, -1.25]
        assert self.net.params.tolist() == [-2.5, -2.5]

    @pytest.mark.parametrize("name", ["a", "b"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_loss_raises_before_its_update(self, name, bad):
        def losses(i, b):
            # the fifth step is epoch 1's second batch
            return {"a": b, "b": b, name: bad} if i == 4 else {"a": b, "b": b}

        with pytest.raises(DivergenceError, match=f"non-finite {name} loss at epoch 1"):
            self._run(3, losses, final=("a", "b"))
        assert len(self.seen) == 5 and self.seen[-1][1] == 4 and self.moved_by(4)
        assert self.record.epoch_losses == {"a": [3.0], "b": [3.0]}
        assert self.record.final == {}

    def test_divergence_inside_a_step_keeps_its_type_and_names_its_epoch(self):
        def losses(i, b):
            if i == 4:
                raise NonFiniteInputError("non-finite network input")
            return {"a": b}

        with pytest.raises(NonFiniteInputError) as exc:
            self._run(3, losses)
        assert str(exc.value) == "non-finite network input at epoch 1"
        assert len(self.seen) == 5 and self.seen[-1][1] == 4 and self.moved_by(4)

    @pytest.mark.parametrize("trains, text", [(True, "non-finite w input at epoch 0"),
                                              (False, "non-finite network input at epoch 0")])
    def test_non_finite_input_names_the_network_when_it_trains(self, trains, text):
        net = self.net if trains else Mlp([np.zeros((1, 1))], [np.zeros(1)], ["identity"])

        def losses(i, b):
            forward(net, np.array([[np.inf]]))

        with pytest.raises(NonFiniteInputError) as exc:
            self._run(1, losses)
        assert str(exc.value) == text

    def test_non_finite_gradient_names_its_epoch(self):
        with pytest.raises(DivergenceError) as exc:
            self._run(3, lambda i, b: {"a": b}, grad_at=lambda i: np.nan if i == 7 else 1.0)
        assert str(exc.value) == "non-finite gradient in w at epoch 2"
        assert len(self.seen) == 8 and self.seen[-1][1] == 7 and self.moved_by(7)

    def test_zero_epochs_never_draws(self):
        self._run(0, lambda i, b: {"a": b}, final=("a",))
        assert self.seen == [] and self.record.epoch_losses == {}
        assert self.record.final == {} and self.moved_by(0)

    @pytest.mark.parametrize("trainer", ["erm", "dann", "adda", "mdan", "m3sda"])
    def test_zero_epoch_records_keep_empty_loss_keys(self, trainer):
        s1, s2 = make_blobs("s1", 1, n=40), make_blobs("s2", 2, n=40)
        tgt = make_blobs("t", 3, n=40).unlabeled()
        train = TrainConfig(n_classes=2, epochs=0, hidden_sizes=(4,))
        if trainer == "erm":
            record, keys = train_erm(s1, train).record, ["classification"]
        elif trainer == "dann":
            record = train_dann(s1, tgt, AdversarialConfig(train=train)).record
            keys = ["classification", "domain"]
        elif trainer == "adda":
            record = train_adda(s1, tgt, AdversarialConfig(train=train)).record
            keys = ["classification", "domain", "alignment", "discriminator_accuracy"]
        elif trainer == "mdan":
            record = train_mdan([s1, s2], tgt, AdversarialConfig(train=train)).record
            keys = ["classification", "total", "domain_0", "domain_1"]
        else:
            record = train_m3sda([s1, s2], tgt, MomentConfig(train=train)).record
            keys = ["classification", "moment", "discrepancy", "total",
                    "moment:src0|target", "moment:src0|src1", "moment:src1|target"]
        assert list(record.epoch_losses) == keys
        assert all(v == [] for v in record.epoch_losses.values())
        assert record.warnings == []


class TestOverflow:
    """A learning rate that overflows the parameters: the gradients stay
    finite, the next forward pass sees infinite features."""

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("momentum", [0.0, 0.5, 0.9])
    def test_train_erm_raises_divergence(self, momentum):
        cfg = TrainConfig(learning_rate=1e100, momentum=momentum, epochs=20)
        with pytest.raises(DivergenceError):
            train_erm(make_blobs("s", 0, n=120), cfg)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_train_dann_raises_divergence(self):
        cfg = AdversarialConfig(train=TrainConfig(learning_rate=1e200, epochs=20))
        with pytest.raises(DivergenceError):
            train_dann(make_blobs("s", 0, n=120), make_blobs("t", 1, n=120).unlabeled(), cfg)


class TestPredict:
    def test_tie_breaks_to_lowest_index(self, rng):
        ext = Mlp([np.eye(2)], [np.zeros(2)], ["relu"])
        head = Mlp([np.zeros((2, 2))], [np.zeros(2)], ["identity"])
        scores, labels = predict(ModelBundle(ext, [head]), rng.normal(size=(6, 2)))
        assert np.allclose(scores, 0.5)
        assert np.all(labels == 0)

    def test_saturated_scores(self):
        ext = Mlp([np.eye(1)], [np.zeros(1)], ["relu"])
        head = Mlp([np.array([[1e4], [-1e4]])], [np.zeros(2)], ["identity"])
        scores, labels = predict(ModelBundle(ext, [head]), np.array([[1.0]]))
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert labels[0] == 0

    def test_rows_sum_to_one(self, rng):
        ext = init_mlp([3, 8], rng, final="relu")
        head = init_mlp([8, 4], rng)
        scores, _ = predict(ModelBundle(ext, [head]), rng.normal(size=(40, 3)))
        assert np.abs(scores.sum(axis=1) - 1.0).max() < 1e-9


class TestModelFiles:
    def test_round_trip_exact(self, tmp_path, rng):
        ext = init_mlp([2, 16, 8], rng, final="relu")
        head = init_mlp([8, 3], rng)
        cfg = TrainConfig(n_classes=3, seed=17)
        bundle = ModelBundle(ext, [head], None, cfg.to_dict(), 17)
        path = tmp_path / "model.json"
        save_model(bundle, path)
        back = load_model(path)
        assert back.seed == 17
        assert back.train_config["n_classes"] == 3
        for a, b in zip(ext.weights + [ext.biases[0]],
                        back.extractor.weights + [back.extractor.biases[0]]):
            assert np.array_equal(a, b)
        x = rng.normal(size=(9, 2))
        assert np.array_equal(predict(bundle, x)[0], predict(back, x)[0])

    def test_bundle_scores_apply_the_stored_weights_as_they_are(self, rng):
        ext = init_mlp([2, 8], rng, final="relu")
        heads = [init_mlp([8, 3], rng) for _ in range(3)]
        weights = [0.2, 0.3, 0.5 + 4e-10]
        x = rng.normal(size=(7, 2))
        feats = forward(ext, x)[0]
        expected = sum(w * softmax(forward(h, feats)[0]) for w, h in zip(weights, heads))
        assert np.array_equal(ModelBundle(ext, heads, weights).scores(x), expected)
        equal = sum((1.0 / 3) * softmax(forward(h, feats)[0]) for h in heads)
        assert np.array_equal(ModelBundle(ext, heads).scores(x), equal)
        assert np.array_equal(ModelBundle(ext, heads[:1]).scores(x),
                              softmax(forward(heads[0], feats)[0]))

    def test_ensemble_bundle_round_trip(self, tmp_path, rng):
        ext = init_mlp([2, 8], rng, final="relu")
        heads = [init_mlp([8, 2], rng) for _ in range(3)]
        bundle = ModelBundle(ext, heads, [0.5, 0.3, 0.2], {}, 0)
        path = tmp_path / "model.json"
        save_model(bundle, path)
        back = load_model(path)
        assert len(back.classifiers) == 3
        assert back.ensemble_weights == [0.5, 0.3, 0.2]
