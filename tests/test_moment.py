from __future__ import annotations

import numpy as np
import pytest

from udakit import (
    Mlp,
    ModelBundle,
    MomentConfig,
    TrainConfig,
    moment_distance_grads,
    predict,
    train_m3sda,
)
from udakit.moment import _m3sda_step_grads
from udakit.nn import cross_entropy, forward, init_mlp, softmax
from conftest import make_blobs
from gradcheck_cases import m3sda_case, moment_case


def mom_cfg(seed=0, epochs=10, **kw):
    train = TrainConfig(n_classes=2, epochs=epochs, hidden_sizes=(16,), seed=seed)
    return MomentConfig(train=train, **kw)


class TestMomentDistance:
    def test_identical_batches_zero(self, rng):
        a = rng.normal(size=(6, 3))
        assert moment_distance_grads(a, a.copy())[0] == 0.0

    def test_hand_computed_value(self):
        a = np.zeros((4, 2))
        b = np.ones((3, 2))
        # mean gap (-1,-1) and squared-mean gap (-1,-1): each norm sqrt(2)
        assert moment_distance_grads(a, b)[0] == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_permutation_invariant(self, rng):
        a = rng.normal(size=(8, 4))
        b = rng.normal(size=(5, 4))
        shuffled = a[rng.permutation(8)]
        assert moment_distance_grads(a, b)[0] == pytest.approx(
            moment_distance_grads(shuffled, b)[0], abs=1e-12)

    def test_symmetric_and_nonnegative(self, rng):
        for _ in range(5):
            a = rng.normal(size=(6, 3))
            b = rng.normal(size=(9, 3))
            d = moment_distance_grads(a, b)[0]
            assert d >= 0.0
            assert d == pytest.approx(moment_distance_grads(b, a)[0], abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="equal width"):
            moment_distance_grads(rng.normal(size=(3, 2)), rng.normal(size=(3, 3)))

    @pytest.mark.parametrize("seed", range(3))
    def test_bit_identical_to_mean_norm_formula(self, seed):
        rng = np.random.default_rng(seed)
        for na, nb, d in ((1, 1, 1), (64, 64, 32), (37, 5, 8)):
            a = rng.normal(size=(na, d)) * rng.choice([1e-3, 1.0, 1e3])
            b = rng.normal(size=(nb, d)) + 0.5
            # the former formula, through the mean/norm wrappers
            diff1 = a.mean(axis=0) - b.mean(axis=0)
            diff2 = (a ** 2).mean(axis=0) - (b ** 2).mean(axis=0)
            n1, n2 = float(np.linalg.norm(diff1)), float(np.linalg.norm(diff2))
            ref_da = diff1 / (n1 * na) + (diff2 / n2) * (2.0 * a / na)
            ref_db = -diff1 / (n1 * nb) - (diff2 / n2) * (2.0 * b / nb)
            dist, da, db = moment_distance_grads(a, b)
            assert dist == n1 + n2
            assert np.array_equal(da, ref_da) and np.array_equal(db, ref_db)

    def test_gradients_match_finite_differences(self):
        assert moment_case(5) < 1e-4


class TestTrainM3sda:
    def test_needs_two_sources(self):
        src = make_blobs("s", 0, n=50)
        tgt = make_blobs("t", 1, n=50)
        with pytest.raises(ValueError, match="at least 2"):
            train_m3sda([src], tgt.unlabeled(), mom_cfg())

    def test_labeled_target_rejected(self):
        srcs = [make_blobs(f"s{i}", i, n=50) for i in range(2)]
        tgt = make_blobs("t", 9, n=50)
        with pytest.raises(TypeError, match="UnlabeledDomain"):
            train_m3sda(srcs, tgt, mom_cfg())

    def test_zero_weights_loss_decomposes_per_source(self, rng):
        # at step 0 the total must equal the sum of per-source head losses
        ext = init_mlp([2, 8], rng, final="relu")
        heads = [init_mlp([8, 2], rng) for _ in range(3)]
        batches = [(rng.normal(size=(6, 2)), rng.integers(0, 2, size=6)) for _ in range(3)]
        xt = rng.normal(size=(6, 2))
        parts, _ = _m3sda_step_grads(ext, heads, batches, xt, 0.0, 0.0)
        per_source = []
        for (xs, ys), head in zip(batches, heads):
            feats, _ = forward(ext, xs)
            per_source.append(cross_entropy(forward(head, feats)[0], ys)[0])
        assert parts["total"] == float(np.sum(per_source))
        assert parts["classification"] == parts["total"]

    def test_matched_sources_keep_moment_term_small(self):
        srcs = [make_blobs(f"s{i}", 30 + i, n=250, sigma=0.5) for i in range(2)]
        tgt = make_blobs("t", 40, n=250, sigma=0.5)
        cfg = MomentConfig(train=TrainConfig(n_classes=2, epochs=100, learning_rate=3e-3,
                                             momentum=0.5, seed=1), align_weight=2.0)
        res = train_m3sda(srcs, tgt.unlabeled(), cfg)
        pair_trace = res.record.epoch_losses["moment:src0|src1"]
        assert np.mean(pair_trace[len(pair_trace) // 2:]) <= 0.1

    def test_moment_term_trends_down_with_strong_alignment(self):
        srcs = [make_blobs(f"s{i}", 50 + i, n=250, sigma=0.5) for i in range(2)]
        tgt = make_blobs("t", 60, n=250, sigma=0.5)
        cfg = MomentConfig(train=TrainConfig(n_classes=2, epochs=60, learning_rate=3e-3,
                                             momentum=0.5, seed=2), align_weight=5.0)
        res = train_m3sda(srcs, tgt.unlabeled(), cfg)
        trace = res.record.epoch_losses["moment:src0|src1"]
        tail = trace[len(trace) // 2:]
        for prev, nxt in zip(tail, tail[1:]):
            assert nxt <= prev * 1.05

    def test_pair_traces_cover_all_pairs(self):
        srcs = [make_blobs(f"s{i}", i, n=60) for i in range(3)]
        tgt = make_blobs("t", 8, n=60)
        res = train_m3sda(srcs, tgt.unlabeled(), mom_cfg(epochs=2))
        keys = set(res.record.epoch_losses)
        assert {"moment:src0|target", "moment:src1|target", "moment:src2|target",
                "moment:src0|src1", "moment:src0|src2", "moment:src1|src2"} <= keys

    def test_deterministic(self):
        srcs = [make_blobs(f"s{i}", i, n=80) for i in range(2)]
        tgt = make_blobs("t", 5, n=80)
        a = train_m3sda(srcs, tgt.unlabeled(), mom_cfg(seed=3, epochs=4))
        b = train_m3sda(srcs, tgt.unlabeled(), mom_cfg(seed=3, epochs=4))
        assert np.array_equal(a.extractor.weights[0], b.extractor.weights[0])
        assert np.array_equal(a.classifiers[1].weights[0], b.classifiers[1].weights[0])

    def test_accuracy_rule_reports_holdout_accuracies(self):
        srcs = [make_blobs(f"s{i}", 70 + i, n=200, sigma=0.4) for i in range(2)]
        tgt = make_blobs("t", 80, n=100, sigma=0.4)
        cfg = mom_cfg(seed=4, epochs=40, holdout_ratio=0.2)
        res = train_m3sda(srcs, tgt.unlabeled(), cfg)
        accuracies = res.record.final["source_accuracies"]
        assert len(accuracies) == 2
        assert all(0.0 <= a <= 1.0 for a in accuracies)
        assert res.ensemble_weights == (np.array(accuracies) / sum(accuracies)).tolist()

    def test_no_holdout_weights_heads_equally(self):
        srcs = [make_blobs(f"s{i}", 70 + i, n=80) for i in range(2)]
        res = train_m3sda(srcs, make_blobs("t", 80, n=80).unlabeled(), mom_cfg(epochs=2))
        assert res.ensemble_weights == [0.5, 0.5]
        assert "source_accuracies" not in res.record.final

    def test_full_objective_gradcheck(self):
        assert m3sda_case(31) < 1e-4


class TestEnsemblePredict:
    """predict on hand-built multi-head bundles."""

    def test_single_classifier_equals_predict(self, rng):
        ext = init_mlp([2, 8], rng, final="relu")
        head = init_mlp([8, 3], rng)
        x = rng.normal(size=(10, 2))
        scores_e, labels_e = predict(ModelBundle(ext, [head], [1.0]), x)
        scores_p, labels_p = predict(ModelBundle(ext, [head]), x)
        assert np.array_equal(scores_e, scores_p)
        assert np.array_equal(labels_e, labels_p)
        assert np.array_equal(scores_p, softmax(forward(head, forward(ext, x)[0])[0]))

    def test_opposed_heads_tie_to_class_zero(self):
        ext = Mlp([np.eye(2)], [np.zeros(2)], ["relu"])
        up = Mlp([np.zeros((2, 2))], [np.array([50.0, -50.0])], ["identity"])
        down = Mlp([np.zeros((2, 2))], [np.array([-50.0, 50.0])], ["identity"])
        scores, labels = predict(ModelBundle(ext, [up, down]), np.ones((4, 2)))
        assert np.allclose(scores, 0.5)
        assert np.all(labels == 0)

    def test_accuracy_weights_match_hand_computation(self):
        ext = Mlp([np.eye(2)], [np.zeros(2)], ["relu"])
        a = Mlp([np.zeros((2, 2))], [np.log(np.array([0.8, 0.2]))], ["identity"])
        b = Mlp([np.zeros((2, 2))], [np.log(np.array([0.3, 0.7]))], ["identity"])
        scores, _ = predict(ModelBundle(ext, [a, b], [0.9, 0.1]), np.ones((1, 2)))
        expected = 0.9 * np.array([0.8, 0.2]) + 0.1 * np.array([0.3, 0.7])
        assert np.allclose(scores[0], expected, atol=1e-12)

    def test_scores_are_probability_rows(self, rng):
        ext = init_mlp([3, 6], rng, final="relu")
        heads = [init_mlp([6, 4], rng) for _ in range(3)]
        scores, _ = predict(ModelBundle(ext, heads), rng.normal(size=(20, 3)))
        assert np.abs(scores.sum(axis=1) - 1.0).max() < 1e-9

    @pytest.mark.parametrize("ratio", [-0.1, 1.0])
    def test_holdout_ratio_outside_zero_to_one_rejected(self, ratio):
        with pytest.raises(ValueError, match=r"holdout_ratio must be in \[0, 1\)"):
            MomentConfig(holdout_ratio=ratio)

    def test_bad_weights(self, rng):
        ext = init_mlp([2, 4], rng, final="relu")
        heads = [init_mlp([4, 2], rng)]
        with pytest.raises(ValueError, match="one ensemble weight per classifier"):
            ModelBundle(ext, heads, [0.5, 0.5])
        with pytest.raises(ValueError, match="at least one"):
            ModelBundle(ext, [])
