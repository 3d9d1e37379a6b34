from __future__ import annotations

import json

import numpy as np
import pytest

from udakit import (
    PredictionSet,
    accuracy,
    auroc,
    dpm,
    eom,
    fairness_report,
    group_partition,
    pqd,
    save_predictions,
)
from oracles import (
    accuracy_counting,
    auroc_pairs,
    balanced_accuracy,
    dpm_counting,
    eom_counting,
    load_predictions,
    pqd_counting,
)


def pset(y_true, y_pred, sensitive=None, scores=None, n_classes=None, n_groups=None):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    sensitive = np.zeros_like(y_true) if sensitive is None else np.asarray(sensitive)
    m = n_classes or int(max(y_true.max(), y_pred.max())) + 1
    g = n_groups or int(sensitive.max()) + 1
    return PredictionSet(y_true, y_pred, sensitive, m, g, scores)


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(pset([0, 1, 1], [0, 1, 1])) == 1.0

    def test_all_wrong(self):
        assert accuracy(pset([0, 1, 1], [1, 0, 0])) == 0.0

    def test_hand_count(self):
        assert accuracy(pset([0, 1, 1, 0], [0, 1, 0, 0])) == 0.75

    def test_balanced_accuracy_mean_of_recalls(self):
        p = pset([0, 0, 0, 1], [0, 0, 0, 0])
        assert balanced_accuracy(p.y_true, p.y_pred) == pytest.approx(0.5)


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_single_class_undefined(self):
        with pytest.raises(ValueError, match="AUROC undefined"):
            auroc([0.1, 0.9], [1, 1])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_pair_counting_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 200))
        scores = rng.choice([0.1, 0.25, 0.5, 0.75, 0.9], size=n)  # force ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(auroc_pairs(scores, labels), abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.uniform(size=60)
        labels = (rng.uniform(size=60) < 0.4).astype(int)
        labels[:2] = [0, 1]
        base = auroc(scores, labels)
        squashed = 1.0 / (1.0 + np.exp(-7.0 * scores))
        assert auroc(squashed, labels) == pytest.approx(base, abs=1e-12)


class TestPqd:
    def test_equal_groups(self):
        p = pset([0, 1, 0, 1], [0, 0, 0, 0], sensitive=[0, 0, 1, 1])
        assert pqd(p, basis="accuracy") == 1.0

    def test_half_versus_perfect(self):
        # group 0 accuracy 0.5, group 1 accuracy 1.0
        p = pset([0, 1, 0, 1], [0, 0, 0, 1], sensitive=[0, 0, 1, 1])
        assert pqd(p, basis="accuracy") == 0.5

    def test_single_group_is_one(self):
        p = pset([0, 1, 1], [1, 0, 0])
        with pytest.raises(ValueError, match="quality is 0"):
            pqd(p, basis="accuracy")
        p = pset([0, 1, 1], [0, 1, 0])
        assert pqd(p, basis="accuracy") == 1.0

    def test_empty_group_named(self):
        p = pset([0, 1], [0, 1], sensitive=[0, 0], n_groups=2)
        with pytest.raises(ValueError, match="group 1 is empty"):
            pqd(p, basis="accuracy")

    def test_auroc_basis(self):
        y = np.array([0, 1, 0, 1, 0, 1])
        s = np.array([0, 0, 0, 1, 1, 1])
        scores = np.array([0.2, 0.9, 0.4, 0.6, 0.7, 0.3])
        p = pset(y, y, sensitive=s, scores=scores)
        # group 0 auroc 1.0; group 1 positives both score below its negative
        assert pqd(p, basis="auroc") == 0.0
        scores2 = np.array([0.2, 0.9, 0.4, 0.75, 0.7, 0.6])
        p2 = pset(y, y, sensitive=s, scores=scores2)
        assert pqd(p2, basis="auroc") == pytest.approx(0.5)

    def test_auto_basis_prefers_auroc_for_binary(self):
        y = np.array([0, 1, 0, 1])
        scores = np.array([0.1, 0.9, 0.2, 0.8])
        p = pset(y, y, sensitive=[0, 0, 1, 1], scores=scores)
        assert pqd(p) == 1.0


class TestDpm:
    def test_identical_rates(self):
        p = pset([0, 1, 0, 1], [0, 1, 0, 1], sensitive=[0, 0, 1, 1])
        assert dpm(p) == 1.0

    def test_hand_fixture(self):
        # group A predicts class 1 at 0.6, group B at 0.3
        pred_a = [1] * 6 + [0] * 4
        pred_b = [1] * 3 + [0] * 7
        p = pset([0] * 20, pred_a + pred_b, sensitive=[0] * 10 + [1] * 10, n_classes=2)
        expected = (0.5 + (0.4 / 0.7)) / 2
        assert dpm(p) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5357142857142857, abs=1e-12)

    def test_unpredicted_class_by_one_group_pulls_down(self):
        pred_a = [1, 1, 0, 0]
        pred_b = [0, 0, 0, 0]
        p = pset([0] * 8, pred_a + pred_b, sensitive=[0] * 4 + [1] * 4, n_classes=2)
        # class 1 ratio 0, class 0 ratio 0.5
        assert dpm(p) == pytest.approx(0.25)

    def test_class_predicted_by_no_group_counts_as_one(self):
        p = pset([0, 0], [0, 0], sensitive=[0, 1], n_classes=2)
        assert dpm(p) == 1.0


class TestEom:
    def test_perfect_classification(self):
        p = pset([0, 1, 0, 1], [0, 1, 0, 1], sensitive=[0, 0, 1, 1])
        assert eom(p) == 1.0

    def test_mirror_recalls(self):
        # group A recalls (1.0, 0.5); group B recalls (0.5, 1.0)
        y_a = [0, 0, 1, 1]
        p_a = [0, 0, 1, 0]
        y_b = [0, 0, 1, 1]
        p_b = [0, 1, 1, 1]
        p = pset(y_a + y_b, p_a + p_b, sensitive=[0] * 4 + [1] * 4)
        assert eom(p) == pytest.approx(0.5)

    def test_class_absent_everywhere_contributes_one_and_flags(self):
        # class 1 never occurs in y_true: ratio 1 by convention; class 0
        # recalls are 1.0 and 0.5, so EOM = (0.5 + 1.0) / 2
        p = pset([0, 0, 0, 0], [0, 0, 0, 1], sensitive=[0, 0, 1, 1], n_classes=2)
        assert eom(p) == pytest.approx(0.75)
        report = fairness_report(p)     # no scores: the basis is accuracy
        assert report.quality_basis == "accuracy"
        assert any("absent from every group" in f for f in report.flags)

    def test_partial_absence_skipped_by_default(self):
        # class 1 present only in group 0; it is skipped, class 0 ratio stays
        y = [0, 1, 0, 0]
        yh = [0, 1, 0, 0]
        p = pset(y, yh, sensitive=[0, 0, 1, 1])
        assert eom(p) == 1.0

    def test_partial_absence_errors_in_strict_mode(self):
        p = pset([0, 1, 0, 0], [0, 1, 0, 0], sensitive=[0, 0, 1, 1])
        with pytest.raises(ValueError, match="no true instances"):
            eom(p, strict=True)


class TestGroupIndependence:
    def test_all_metrics_equal_one_on_identical_group_tables(self):
        # duplicate the same (y, yh) block across two groups: per-group
        # empirical tables coincide, so every ratio metric is exactly 1
        y_block = [0, 0, 1, 1, 2]
        yh_block = [0, 1, 1, 2, 2]
        p = pset(y_block * 2, yh_block * 2, sensitive=[0] * 5 + [1] * 5,
                 n_classes=3, n_groups=2)
        assert pqd(p, basis="accuracy") == 1.0
        assert dpm(p) == 1.0
        assert eom(p) == 1.0


class TestPermutationInvariance:
    @pytest.mark.parametrize("seed", range(5))
    def test_metrics_invariant_under_id_renaming(self, seed):
        rng = np.random.default_rng(seed)
        n, m, g = 40, 3, 3
        y = rng.integers(0, m, size=n)
        yh = rng.integers(0, m, size=n)
        s = np.concatenate([np.arange(g), rng.integers(0, g, size=n - g)])
        y[:m] = np.arange(m)  # every class present somewhere
        p = pset(y, yh, sensitive=s, n_classes=m, n_groups=g)

        class_perm = rng.permutation(m)
        group_perm = rng.permutation(g)
        p2 = pset(class_perm[y], class_perm[yh], sensitive=group_perm[s],
                  n_classes=m, n_groups=g)
        assert pqd(p2, basis="accuracy") == pytest.approx(pqd(p, basis="accuracy"), abs=1e-12)
        assert dpm(p2) == pytest.approx(dpm(p), abs=1e-12)
        e1, e2 = _eom_or_none(p), _eom_or_none(p2)
        if e1 is not None and e2 is not None:
            assert e2 == pytest.approx(e1, abs=1e-12)


def _eom_or_none(p):
    try:
        return eom(p)
    except ValueError:
        return None


class TestOracleEquality:
    @pytest.mark.parametrize("m,g", [(2, 2), (2, 3), (3, 2), (3, 3), (1, 1), (2, 1)])
    def test_exhaustive_small_cases(self, m, g):
        rng = np.random.default_rng(m * 10 + g)
        for trial in range(60):
            n = int(rng.integers(g, 31))
            y = rng.integers(0, m, size=n)
            yh = rng.integers(0, m, size=n)
            s = np.concatenate([np.arange(g), rng.integers(0, g, size=n - g)])
            p = pset(y, yh, sensitive=s, n_classes=m, n_groups=g)
            assert accuracy(p) == accuracy_counting(list(y), list(yh))
            expected_pqd = pqd_counting(list(y), list(yh), list(s), g)
            if expected_pqd is None:
                with pytest.raises(ValueError, match="quality is 0"):
                    pqd(p, basis="accuracy")
            else:
                assert pqd(p, basis="accuracy") == expected_pqd
            assert dpm(p) == dpm_counting(list(y), list(yh), list(s), m, g)
            expected_eom = eom_counting(list(y), list(yh), list(s), m, g)
            if expected_eom is None:
                with pytest.raises(ValueError):
                    eom(p)
            else:
                assert eom(p) == expected_eom


class TestGroupPartition:
    def test_skin_type_banding(self):
        groups = group_partition([1, 2, 3, 4, 5, 6], "fst")
        assert list(groups) == [0, 0, 1, 1, 2, 2]

    def test_age_threshold(self):
        groups = group_partition([30, 31, 18, 64], "age")
        assert list(groups) == [0, 1, 0, 1]

    def test_value_outside_bins(self):
        with pytest.raises(ValueError, match="outside every group bin"):
            group_partition([7], "fst")

    def test_custom_bins(self):
        groups = group_partition([0.5, 1.5, 2.5], ((0, 1), (1, 2), (2, 3)))
        assert list(groups) == [0, 1, 2]

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown group preset"):
            group_partition([1], "zodiac")


class TestPredictionFiles:
    def test_round_trip_with_scores(self, tmp_path):
        p = pset([0, 1, 1], [0, 1, 0], sensitive=[0, 1, 0],
                 scores=np.array([0.25, 0.75, 0.5]))
        ids = ("a", "b", "c")
        path = tmp_path / "pred.csv"
        save_predictions(p, ids, path)
        back = load_predictions(path)
        assert back["id"] == ids
        assert np.array_equal(back["y_true"], p.y_true)
        assert np.array_equal(back["y_pred"], p.y_pred)
        assert np.array_equal(back["score"], p.scores)

    def test_round_trip_without_scores(self, tmp_path):
        p = pset([0, 1], [1, 1], sensitive=[0, 1])
        path = tmp_path / "pred.csv"
        save_predictions(p, ("x", "y"), path)
        assert load_predictions(path)["score"] is None

    def test_report_round_trip(self, tmp_path):
        p = pset([0, 1, 0, 1], [0, 1, 0, 0], sensitive=[0, 0, 1, 1],
                 scores=np.array([0.2, 0.9, 0.3, 0.4]))
        report = fairness_report(p)
        assert report.quality_basis == "auroc"
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
        assert '"pqd"' in text and '"recall_table"' in text
