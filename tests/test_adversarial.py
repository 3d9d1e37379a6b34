from __future__ import annotations

import numpy as np
import pytest

from udakit import (
    AdversarialConfig,
    TrainConfig,
    predict,
    soft_aggregate,
    train_adda,
    train_dann,
    train_erm,
    train_mdan,
)
from udakit.nn import save_run_record
from conftest import make_blobs
from gradcheck_cases import dann_case, mdan_case


def adv_cfg(seed=0, epochs=10, **kw):
    train = TrainConfig(n_classes=2, epochs=epochs, hidden_sizes=(16,), seed=seed)
    return AdversarialConfig(train=train, **kw)


class TestGradReverse:
    """DANN's reversal is a sign and scale on the discriminator's input
    gradient; the composite step gradient must match the branch oracle."""

    def test_composite_gradient_matches_branch_oracle(self):
        assert dann_case(17, lam=1.3) < 1e-4


class TestTrainDann:
    def test_labeled_target_rejected(self):
        src = make_blobs("s", 0, n=60)
        tgt = make_blobs("t", 1, n=60)
        with pytest.raises(TypeError, match="UnlabeledDomain"):
            train_dann(src, tgt, adv_cfg())

    def test_empty_target_rejected(self):
        src = make_blobs("s", 0, n=60)
        tgt = make_blobs("t", 1, n=60)
        empty = tgt.subset(np.array([], dtype=int)).unlabeled()
        with pytest.raises(ValueError, match="empty"):
            train_dann(src, empty, adv_cfg())

    def test_zero_weight_reduces_to_erm_exactly(self):
        src = make_blobs("s", 3, n=150, mix=[0.6, 0.4])
        tgt = make_blobs("t", 4, n=90)
        cfg = adv_cfg(seed=11, epochs=8, domain_weight=0.0)
        res = train_dann(src, tgt.unlabeled(), cfg)
        erm = train_erm(src, cfg.train)
        for a, b in zip(res.extractor.weights + res.classifier.weights,
                        erm.extractor.weights + erm.classifier.weights):
            assert np.array_equal(a, b)
        for a, b in zip(res.extractor.biases + res.classifier.biases,
                        erm.extractor.biases + erm.classifier.biases):
            assert np.array_equal(a, b)

    def test_zero_weight_resampled_also_matches(self):
        src = make_blobs("s", 5, n=120, mix=[0.8, 0.2])
        tgt = make_blobs("t", 6, n=80)
        train = TrainConfig(n_classes=2, epochs=6, hidden_sizes=(8,), seed=2, resample=True)
        res = train_dann(src, tgt.unlabeled(), AdversarialConfig(train=train, domain_weight=0.0))
        erm = train_erm(src, train)
        assert np.array_equal(res.classifier.weights[0], erm.classifier.weights[0])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_shift_within_two_points_of_erm(self, seed):
        # same generating distribution for source and target
        src = make_blobs("s", 40 + seed, n=400, sigma=0.6)
        tgt = make_blobs("t", 80 + seed, n=400, sigma=0.6)
        train = TrainConfig(n_classes=2, epochs=150, learning_rate=3e-3,
                            momentum=0.5, seed=seed)
        erm = train_erm(src, train)
        dann = train_dann(src, tgt.unlabeled(), AdversarialConfig(train=train))
        _, y_erm = predict(erm.extractor, erm.classifier, tgt.features)
        _, y_dann = predict(dann.extractor, dann.classifier, tgt.features)
        acc_erm = np.mean(y_erm == tgt.labels)
        acc_dann = np.mean(y_dann == tgt.labels)
        assert acc_dann >= acc_erm - 0.02

    def test_deterministic(self):
        src = make_blobs("s", 7, n=100)
        tgt = make_blobs("t", 8, n=100)
        a = train_dann(src, tgt.unlabeled(), adv_cfg(seed=3, epochs=5))
        b = train_dann(src, tgt.unlabeled(), adv_cfg(seed=3, epochs=5))
        assert np.array_equal(a.extractor.weights[0], b.extractor.weights[0])
        assert a.record.epoch_losses == b.record.epoch_losses

    def test_record_has_loss_traces(self, tmp_path):
        src = make_blobs("s", 9, n=80)
        tgt = make_blobs("t", 10, n=80)
        res = train_dann(src, tgt.unlabeled(), adv_cfg(epochs=4))
        assert len(res.record.epoch_losses["classification"]) == 4
        assert len(res.record.epoch_losses["domain"]) == 4
        save_run_record(res.record, tmp_path / "run.json")
        assert (tmp_path / "run.json").read_text().startswith("{")


class TestTrainAdda:
    def test_zero_adaptation_equals_source_model(self):
        src = make_blobs("s", 11, n=150)
        tgt = make_blobs("t", 12, n=100, means=((1.0, 0.0), (4.0, 0.0)))
        cfg = adv_cfg(seed=5, epochs=30, adapt_epochs=0)
        res = train_adda(src, tgt.unlabeled(), cfg)
        erm = train_erm(src, cfg.train)
        _, y_adda = predict(res.extractor, res.classifier, tgt.features)
        _, y_erm = predict(erm.extractor, erm.classifier, tgt.features)
        assert np.array_equal(y_adda, y_erm)

    def test_identical_feature_sets_confuse_discriminator(self):
        # target extractor effectively frozen: the discriminator trains on two
        # literally identical point sets and cannot beat chance
        shared = make_blobs("s", 13, n=300, sigma=0.6)
        cfg = adv_cfg(seed=6, epochs=40, adapt_epochs=40, adapt_learning_rate=1e-12)
        res = train_adda(shared, shared.unlabeled(), cfg)
        final_acc = res.record.epoch_losses["discriminator_accuracy"][-1]
        assert final_acc == pytest.approx(0.5, abs=0.05)

    def test_collapse_warning_when_discriminator_wins(self):
        src = make_blobs("s", 14, n=200)
        tgt = make_blobs("t", 15, n=200, means=((40.0, 40.0), (43.0, 40.0)))
        cfg = adv_cfg(seed=7, epochs=20, adapt_epochs=80, adapt_learning_rate=1e-12)
        res = train_adda(src, tgt.unlabeled(), cfg)
        assert any("> 0.99" in w for w in res.record.warnings)

    def test_stage_one_trace_preserved(self):
        src = make_blobs("s", 16, n=100)
        tgt = make_blobs("t", 17, n=100)
        res = train_adda(src, tgt.unlabeled(), adv_cfg(epochs=6, adapt_epochs=3))
        assert len(res.record.epoch_losses["classification"]) == 6
        assert len(res.record.epoch_losses["domain"]) == 3
        assert res.source_extractor is not None


class TestTrainMdan:
    def test_needs_two_sources(self):
        src = make_blobs("s", 18, n=60)
        tgt = make_blobs("t", 19, n=60)
        with pytest.raises(ValueError, match="train_dann"):
            train_mdan([src], tgt.unlabeled(), adv_cfg())

    def test_identical_sources_match_dann_accuracy(self):
        src = make_blobs("s", 20, n=300, sigma=0.6)
        tgt = make_blobs("t", 21, n=300, sigma=0.6,
                         means=((0.8, 0.0), (3.8, 0.0)))
        train = TrainConfig(n_classes=2, epochs=120, learning_rate=3e-3,
                            momentum=0.5, seed=4)
        cfg = AdversarialConfig(train=train, domain_weight=1.0)
        dann = train_dann(src, tgt.unlabeled(), cfg)
        mdan = train_mdan([src, src, src], tgt.unlabeled(), cfg)
        _, y_dann = predict(dann.extractor, dann.classifier, tgt.features)
        _, y_mdan = predict(mdan.extractor, mdan.classifier, tgt.features)
        acc_dann = np.mean(y_dann == tgt.labels)
        acc_mdan = np.mean(y_mdan == tgt.labels)
        assert abs(acc_dann - acc_mdan) <= 0.01 + 1e-12

    def test_zero_weight_classifier_ignores_target(self):
        s1 = make_blobs("s1", 22, n=100)
        s2 = make_blobs("s2", 23, n=100)
        t1 = make_blobs("t1", 24, n=100)
        t2 = make_blobs("t2", 25, n=100, means=((9.0, 9.0), (12.0, 9.0)))
        cfg = adv_cfg(seed=8, epochs=6, domain_weight=0.0)
        a = train_mdan([s1, s2], t1.unlabeled(), cfg)
        b = train_mdan([s1, s2], t2.unlabeled(), cfg)
        assert np.array_equal(a.classifier.weights[0], b.classifier.weights[0])
        assert np.array_equal(a.extractor.weights[0], b.extractor.weights[0])

    def test_per_discriminator_traces(self):
        s1 = make_blobs("s1", 26, n=80)
        s2 = make_blobs("s2", 27, n=80)
        tgt = make_blobs("t", 28, n=80)
        res = train_mdan([s1, s2], tgt.unlabeled(), adv_cfg(epochs=3))
        assert "domain_0" in res.record.epoch_losses
        assert "domain_1" in res.record.epoch_losses
        assert len(res.discriminators) == 2

    def test_aggregate_gradient_matches_scalar(self):
        assert mdan_case(23) < 1e-4


class TestSoftAggregate:
    def test_large_gamma_approaches_max(self):
        assert soft_aggregate([3.0, 1.0], 1e4) == pytest.approx(3.0, abs=1e-3)

    def test_small_gamma_approaches_mean(self):
        assert soft_aggregate([3.0, 1.0], 1e-9) == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.normal(size=rng.integers(2, 6))
        gamma = float(rng.uniform(0.05, 50.0))
        soft = soft_aggregate(e, gamma)
        assert e.mean() - 1e-12 <= soft <= e.max() + np.log(e.size) / gamma + 1e-12

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            soft_aggregate([1.0, 2.0], 0.0)
