from __future__ import annotations

import numpy as np
import pytest

from udakit import (
    build_shift_matrix,
    chi_square_label_divergence,
    load_error_table,
    pearson,
    save_shift_csv,
    save_shift_summary,
    wasserstein_feature_distance,
)
from conftest import make_blobs
from oracles import transport_cost_lp


class TestWasserstein:
    def test_identity_is_zero(self, rng):
        a = rng.normal(size=(20, 3))
        assert wasserstein_feature_distance(a, a.copy(), projections=16, seed=0) == 0.0

    def test_1d_point_mass_translation(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        assert wasserstein_feature_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_1d_is_exact_regardless_of_projections(self, rng):
        a = rng.normal(size=(23, 1))
        b = rng.normal(size=(41, 1)) + 1.3
        exact = transport_cost_lp(a, b)
        for projections in (1, 4, 256):
            got = wasserstein_feature_distance(a, b, projections=projections, seed=5)
            assert got == pytest.approx(exact, rel=1e-9)

    def test_equal_sizes_reduce_to_matched_order_statistics(self, rng):
        a = rng.normal(size=(30, 1))
        b = rng.normal(size=(30, 1)) * 2 + 0.5
        expected = np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0])))
        assert wasserstein_feature_distance(a, b) == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(25, 2)) + 1.0
        d1 = wasserstein_feature_distance(a, b, projections=64, seed=3)
        d2 = wasserstein_feature_distance(b, a, projections=64, seed=3)
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_1d_translation_covariance_disjoint_supports(self, rng):
        a = rng.uniform(0.0, 1.0, size=(17, 1))
        b = rng.uniform(0.0, 1.0, size=(11, 1)) + 5.0
        base = wasserstein_feature_distance(a, b)
        shifted = wasserstein_feature_distance(a, b + 2.0)
        assert shifted - base == pytest.approx(2.0, abs=1e-9)

    def test_translating_identical_cloud_gives_shift_norm(self, rng):
        a = rng.normal(size=(40, 3))
        shift = np.array([1.0, -2.0, 2.0])
        d = wasserstein_feature_distance(a, a + shift, projections=512, seed=1)
        assert d == pytest.approx(np.linalg.norm(shift), rel=0.05)

    def test_deterministic_given_seed(self, rng):
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2)) + 0.5
        d1 = wasserstein_feature_distance(a, b, projections=32, seed=9)
        d2 = wasserstein_feature_distance(a, b, projections=32, seed=9)
        assert d1 == d2

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_within_15_percent_of_lp_oracle(self, dim):
        # separated instance families: translations, scalings, and both;
        # near-identical clouds sit at the sampling-noise floor where the
        # point-matching cost is not comparable to any projection average
        rng = np.random.default_rng(100 + dim)
        for kind in ("translate", "scale", "mixed"):
            for _ in range(4):
                n, m = int(rng.integers(40, 65)), int(rng.integers(40, 65))
                a = rng.normal(size=(n, dim))
                if kind == "translate":
                    b = a + rng.normal(size=dim) * 2.0
                elif kind == "scale":
                    b = rng.normal(size=(m, dim)) * 2.5
                else:
                    shift = rng.uniform(1.5, 3.0, size=dim) * rng.choice([-1, 1], size=dim)
                    b = rng.normal(size=(m, dim)) * 1.5 + shift
                est = wasserstein_feature_distance(a, b, projections=512, seed=7)
                exact = transport_cost_lp(a, b)
                assert abs(est - exact) / exact < 0.15

    def test_doubling_projections_does_not_hurt(self, rng):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3)) * 1.4 + np.array([1.5, 0.0, -1.0])
        exact = transport_cost_lp(a, b)
        devs = {p: [] for p in (64, 128)}
        for trial in range(20):
            for p in devs:
                est = wasserstein_feature_distance(a, b, projections=p, seed=trial)
                devs[p].append(abs(est - exact))
        assert np.mean(devs[128]) <= np.mean(devs[64]) + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            wasserstein_feature_distance(rng.normal(size=(5, 2)), rng.normal(size=(5, 3)))

    def test_empty_dataset(self, rng):
        with pytest.raises(ValueError, match="empty"):
            wasserstein_feature_distance(np.zeros((0, 2)), rng.normal(size=(5, 2)))


class TestChiSquare:
    def test_identical_distributions_zero(self):
        a = make_blobs("a", 0, n=100, mix=[0.5, 0.5])
        assert chi_square_label_divergence(a, a) == 0.0

    def test_hand_fixture_one_third(self):
        a = make_blobs("a", 1, n=400)
        b = make_blobs("b", 2, n=400)
        a.labels[:] = [0, 1] * 200                    # p = (0.5, 0.5)
        b.labels[:] = [0] * 100 + [1] * 300           # q = (0.25, 0.75)
        got = chi_square_label_divergence(a, b, epsilon=1e-15)
        assert got == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_asymmetric(self):
        a = make_blobs("a", 3, n=300, mix=[0.9, 0.1])
        b = make_blobs("b", 4, n=300, mix=[0.3, 0.7])
        assert chi_square_label_divergence(a, b) != pytest.approx(
            chi_square_label_divergence(b, a))

    def test_missing_target_class_large_but_finite(self):
        a = make_blobs("a", 5, n=200, mix=[0.5, 0.5])
        b = make_blobs("b", 6, n=200, mix=[1.0, 0.0])
        eps = 1e-6
        got = chi_square_label_divergence(a, b, epsilon=eps, n_classes=2)
        p1 = np.mean(a.labels == 1)
        assert got > p1 ** 2 / (2 * eps)  # dominated by the missing-class term
        assert np.isfinite(got)

    def test_nonnegative_random(self, rng):
        for seed in range(5):
            a = make_blobs("a", seed, n=150, mix=[0.6, 0.4])
            b = make_blobs("b", seed + 50, n=150, mix=[0.2, 0.8])
            assert chi_square_label_divergence(a, b) >= 0.0

    def test_epsilon_must_be_positive(self):
        a = make_blobs("a", 0, n=10)
        with pytest.raises(ValueError, match="epsilon"):
            chi_square_label_divergence(a, a, epsilon=0.0)


class TestPearson:
    def test_perfect_linear(self):
        xs = np.array([1.0, 2.0, 5.0, 9.0])
        assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_negative(self):
        xs = np.array([0.0, 1.0, 4.0])
        assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_fixture(self):
        got = pearson(np.array([1, 2, 3, 4]), np.array([2, 1, 4, 3]))
        assert got == pytest.approx(0.6, abs=1e-9)

    def test_affine_invariance(self, rng):
        xs = rng.normal(size=30)
        ys = rng.normal(size=30)
        base = pearson(xs, ys)
        assert pearson(3.0 * xs + 7.0, ys) == pytest.approx(base, abs=1e-9)
        assert pearson(xs, 0.1 * ys - 4.0) == pytest.approx(base, abs=1e-9)

    def test_constant_series_undefined(self):
        with pytest.raises(ValueError, match="correlation undefined"):
            pearson(np.ones(5), np.arange(5.0))


class TestBuildShiftMatrix:
    def test_identical_domains_all_zero(self):
        a = make_blobs("a", 7, n=80)
        b = make_blobs("b", 7, n=80)
        b.features[:] = a.features
        b.labels[:] = a.labels
        report = build_shift_matrix([a, b], projections=16, seed=0)
        for pair in report.pairs.values():
            assert pair.feature_distance == 0.0
            assert pair.label_distance == 0.0

    def test_six_domains_thirty_pairs(self):
        domains = [make_blobs(f"d{i}", i, n=40) for i in range(6)]
        report = build_shift_matrix(domains, projections=8, seed=0)
        assert len(report.pairs) == 30
        assert all(s != t for s, t in report.pairs)

    def test_w1_measured_once_per_unordered_pair(self, monkeypatch):
        import udakit.shift as shift

        # unequal sizes take the merged-breakpoint path; two equal sizes the other
        domains = [make_blobs(f"d{i}", 30 + i, n=n) for i, n in enumerate((40, 55, 55, 70))]
        calls = []

        def counting(a, b, projections=256, seed=0):
            calls.append((a.domain_id, b.domain_id))
            return wasserstein_feature_distance(a, b, projections, seed)

        monkeypatch.setattr(shift, "wasserstein_feature_distance", counting)
        report = build_shift_matrix(domains, projections=16, seed=2)
        n = len(domains)
        assert len(calls) == n * (n - 1) // 2
        assert len({frozenset(c) for c in calls}) == len(calls)
        for s in domains:
            for t in domains:
                if s is t:
                    continue
                d = report.pairs[(s.domain_id, t.domain_id)].feature_distance
                assert d == report.pairs[(t.domain_id, s.domain_id)].feature_distance
                # the stored value is what measuring this order would give, bit for bit
                assert d == wasserstein_feature_distance(s, t, 16, 2)

    def test_missing_error_pairs_listed(self):
        domains = [make_blobs(f"d{i}", i, n=40) for i in range(3)]
        table = {("d0", "d1"): 0.2}
        with pytest.raises(ValueError, match=r"d0->d2"):
            build_shift_matrix(domains, table, projections=8, seed=0)

    def test_error_join_and_correlations(self, rng):
        domains = [make_blobs(f"d{i}", 20 + i, n=60, mix=[0.5 + 0.08 * i, 0.5 - 0.08 * i])
                   for i in range(3)]
        table = {}
        for s in domains:
            for t in domains:
                if s.domain_id != t.domain_id:
                    table[(s.domain_id, t.domain_id)] = rng.uniform(0.1, 0.5)
        report = build_shift_matrix(domains, table, projections=16, seed=1)
        assert report.pearson_feature_error is not None
        assert -1.0 <= report.pearson_feature_error <= 1.0
        assert -1.0 <= report.pearson_label_error <= 1.0

    def test_fewer_than_two_domains(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_shift_matrix([make_blobs("a", 0, n=10)])

    def test_save_and_error_table_round_trip(self, tmp_path):
        domains = [make_blobs(f"d{i}", i, n=40) for i in range(2)]
        table = {("d0", "d1"): 0.25, ("d1", "d0"): 0.4}
        report = build_shift_matrix(domains, table, projections=8, seed=0)
        # two domains: feature distances are symmetric, so that column is
        # constant and its correlation undefined
        assert report.pearson_feature_error is None
        save_shift_csv(report, tmp_path / "shift.csv")
        save_shift_summary(report, tmp_path / "shift.json")
        lines = (tmp_path / "shift.csv").read_text().splitlines()
        assert lines[0] == "source,target,feature_distance,label_distance,test_error"
        assert len(lines) == 3
        assert '"pearson_label_error"' in (tmp_path / "shift.json").read_text()

        (tmp_path / "errors.csv").write_text(
            "source,target,test_error\nd0,d1,0.25\nd1,d0,0.4\n")
        back = load_error_table(tmp_path / "errors.csv")
        assert back == {("d0", "d1"): 0.25, ("d1", "d0"): 0.4}
