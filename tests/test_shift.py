from __future__ import annotations

import contextlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from udakit import (
    build_shift_matrix,
    chi_square_label_divergence,
    load_error_table,
    pearson,
    save_shift_csv,
    save_shift_summary,
    wasserstein_feature_distances,
)
from udakit import DomainDataset, shift
from conftest import make_blobs
from oracles import sliced_w1_per_pair, transport_cost_lp, w1_exact_rational


def w1_exact_1d_reference(u, v):
    """The former per-projection kernel: sort both samples, sort their
    concatenation, and read both CDFs off two searchsorted passes."""
    u = np.sort(u)
    v = np.sort(v)
    if u.size == v.size:
        return float(np.mean(np.abs(u - v)))
    merged = np.sort(np.concatenate([u, v]))
    deltas = np.diff(merged)
    cdf_u = np.searchsorted(u, merged[:-1], side="right") / u.size
    cdf_v = np.searchsorted(v, merged[:-1], side="right") / v.size
    return float(np.sum(np.abs(cdf_u - cdf_v) * deltas))


def sliced_w1_reference(a, b, projections, seed):
    """The former sliced W1: one reference kernel call per projection column.
    Returns the per-projection values and the distance."""
    a = np.asarray(getattr(a, "features", a), dtype=np.float64)
    b = np.asarray(getattr(b, "features", b), dtype=np.float64)
    dim = a.shape[1]
    if dim == 1:
        value = w1_exact_1d_reference(a[:, 0], b[:, 0])
        return [value], value
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = a @ directions.T
    proj_b = b @ directions.T
    values = [w1_exact_1d_reference(proj_a[:, k], proj_b[:, k]) for k in range(projections)]
    return values, sum(values) / projections / (math.gamma(dim / 2.0)
                                                / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0)))


@contextlib.contextmanager
def recorded_w1_rows():
    """Route shift._w1_rows through a recorder: each call appends its two
    blocks of sorted projections and its per-projection values."""
    calls, w1_rows = [], shift._w1_rows

    def recording(u, v, *rest):
        got = w1_rows(u, v, *rest)
        calls.append((u.copy(), v.copy(), [float(x) for x in got]))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(shift, "_w1_rows", recording)
        yield calls


def assert_close(got, want, rel):
    """|got - want| <= rel * |want| in exact arithmetic; want may be a Fraction."""
    assert abs(Fraction(got) - Fraction(want)) <= Fraction(rel) * abs(Fraction(want)), \
        (got, float(want))


def assert_exact_per_projection(calls):
    """Every recorded per-projection value is within 1e-13 of the exact W1 of
    the sorted projections it was measured from."""
    assert calls
    for u, v, values in calls:
        assert len(values) == len(u) == len(v)
        for k, value in enumerate(values):
            assert_close(value, w1_exact_rational(u[k], v[k]), 1e-13)


class TestWasserstein:
    def test_identity_is_zero(self, rng):
        a = rng.normal(size=(20, 3))
        assert wasserstein_feature_distances([a, a.copy()], projections=16, seed=0)[0, 1] == 0.0

    def test_1d_point_mass_translation(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[1.0], [1.0]])
        assert wasserstein_feature_distances([a, b])[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_1d_is_exact_regardless_of_projections(self, rng):
        a = rng.normal(size=(23, 1))
        b = rng.normal(size=(41, 1)) + 1.3
        exact = transport_cost_lp(a, b)
        for projections in (1, 4, 256):
            got = wasserstein_feature_distances([a, b], projections=projections, seed=5)[0, 1]
            assert got == pytest.approx(exact, rel=1e-9)

    def test_equal_sizes_reduce_to_matched_order_statistics(self, rng):
        a = rng.normal(size=(30, 1))
        b = rng.normal(size=(30, 1)) * 2 + 0.5
        expected = np.mean(np.abs(np.sort(a[:, 0]) - np.sort(b[:, 0])))
        assert wasserstein_feature_distances([a, b])[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_symmetric(self, rng):
        a = rng.normal(size=(15, 2))
        b = rng.normal(size=(25, 2)) + 1.0
        d1 = wasserstein_feature_distances([a, b], projections=64, seed=3)[0, 1]
        d2 = wasserstein_feature_distances([b, a], projections=64, seed=3)[0, 1]
        assert d1 == pytest.approx(d2, abs=1e-12)

    def test_1d_translation_covariance_disjoint_supports(self, rng):
        a = rng.uniform(0.0, 1.0, size=(17, 1))
        b = rng.uniform(0.0, 1.0, size=(11, 1)) + 5.0
        base = wasserstein_feature_distances([a, b])[0, 1]
        shifted = wasserstein_feature_distances([a, b + 2.0])[0, 1]
        assert shifted - base == pytest.approx(2.0, abs=1e-9)

    def test_translating_identical_cloud_gives_shift_norm(self, rng):
        a = rng.normal(size=(40, 3))
        shift = np.array([1.0, -2.0, 2.0])
        d = wasserstein_feature_distances([a, a + shift], projections=512, seed=1)[0, 1]
        assert d == pytest.approx(np.linalg.norm(shift), rel=0.05)

    def test_deterministic_given_seed(self, rng):
        a = rng.normal(size=(20, 2))
        b = rng.normal(size=(20, 2)) + 0.5
        d1 = wasserstein_feature_distances([a, b], projections=32, seed=9)[0, 1]
        d2 = wasserstein_feature_distances([a, b], projections=32, seed=9)[0, 1]
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
                est = wasserstein_feature_distances([a, b], projections=512, seed=7)[0, 1]
                exact = transport_cost_lp(a, b)
                assert abs(est - exact) / exact < 0.15

    def test_doubling_projections_does_not_hurt(self, rng):
        a = rng.normal(size=(40, 3))
        b = rng.normal(size=(40, 3)) * 1.4 + np.array([1.5, 0.0, -1.0])
        exact = transport_cost_lp(a, b)
        devs = {p: [] for p in (64, 128)}
        for trial in range(20):
            for p in devs:
                est = wasserstein_feature_distances([a, b], projections=p, seed=trial)[0, 1]
                devs[p].append(abs(est - exact))
        assert np.mean(devs[128]) <= np.mean(devs[64]) + 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension mismatch"):
            wasserstein_feature_distances([rng.normal(size=(5, 2)), rng.normal(size=(5, 3))])[0, 1]

    def test_empty_dataset(self, rng):
        with pytest.raises(ValueError, match="empty"):
            wasserstein_feature_distances([np.zeros((0, 2)), rng.normal(size=(5, 2))])[0, 1]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_non_finite_features_rejected_in_either_position(self, rng, bad, dim):
        clean = rng.normal(size=(6, dim))
        dirty = rng.normal(size=(5, dim))
        dirty[2, dim - 1] = bad
        with pytest.raises(ValueError, match="features must be finite"):
            wasserstein_feature_distances([dirty, clean])[0, 1]
        with pytest.raises(ValueError, match="features must be finite"):
            wasserstein_feature_distances([clean, dirty])[0, 1]


class TestWassersteinPerProjection:
    """Every per-projection value is within 1e-13 of the exact W1 of its
    sorted projections and within 1e-12 of the former per-projection
    kernel's, the distance is within 1e-12 of the former one, and swapping
    the pair changes no bit."""

    BLOCK = shift._PROJECTION_BLOCK

    def assert_same(self, a, b, projections, seed):
        with recorded_w1_rows() as calls:
            got = wasserstein_feature_distances([a, b], projections, seed)[0, 1]
        assert_exact_per_projection(calls)
        values, distance = sliced_w1_reference(a, b, projections, seed)
        measured = [value for *_, block in calls for value in block]
        assert len(measured) == len(values)
        for value, former in zip(measured, values):
            assert_close(value, former, 1e-12)
        assert_close(got, distance, 1e-12)
        assert got == wasserstein_feature_distances([b, a], projections, seed)[0, 1]

    @pytest.mark.parametrize("sizes", [(37, 61), (61, 37), (50, 50), (1, 9), (1, 1), (300, 299)])
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    def test_random_clouds(self, sizes, dim):
        rng = np.random.default_rng(sizes[0] * 1000 + sizes[1] + dim)
        a = rng.normal(size=(sizes[0], dim)) * 2.0
        b = rng.normal(size=(sizes[1], dim)) * 0.7 + rng.normal(size=dim)
        self.assert_same(a, b, projections=48, seed=dim)

    @pytest.mark.parametrize("equal_sizes", [False, True])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_ties(self, equal_sizes, dim):
        rng = np.random.default_rng(11 + dim)
        a = np.round(rng.normal(size=(80, dim)), 1)
        b = np.round(rng.normal(size=(80 if equal_sizes else 130, dim)) + 0.2, 1)
        # shared values across and within samples
        b[:10] = a[:10]
        self.assert_same(a, b, projections=40, seed=4)
        if dim == 1:
            # the projected values themselves tie in 1-D
            assert len(np.unique(np.concatenate([a, b]))) < len(a) + len(b)

    @pytest.mark.parametrize("u, v", [
        (np.arange(5.0), np.arange(10.0, 17.0)),
        (np.arange(10.0, 17.0), np.arange(5.0)),
        (np.array([2.5]), np.linspace(0.0, 5.0, 9)),
        (np.linspace(0.0, 5.0, 9), np.array([-1.0])),
        (np.full(6, 1.5), np.full(11, 1.5)),
        (np.r_[np.zeros(40), np.ones(25), [3.0]], np.r_[[-1.0], np.zeros(30), np.ones(70)]),
        (np.arange(6.0), np.arange(4.0)[::-1] * 1.5),
    ], ids=["disjoint-below", "disjoint-above", "size-1-first", "size-1-second",
            "all-equal", "tied-runs-split-across-both", "sizes-sharing-a-breakpoint"])
    def test_1d_edge_cases(self, u, v):
        for a, b in ((u, v), (v, u)):
            got = wasserstein_feature_distances([a[:, None], b[:, None]])[0, 1]
            assert_close(got, w1_exact_rational(a, b), 1e-13)
            assert_close(got, w1_exact_1d_reference(a, b), 1e-12)
            assert got == wasserstein_feature_distances([b[:, None], a[:, None]])[0, 1]

    def test_projection_counts_off_the_block_size(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(90, 4))
        b = rng.normal(size=(70, 4)) + 0.5
        for projections in (1, self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, 3 * self.BLOCK + 5):
            self.assert_same(a, b, projections, seed=projections)

    def test_domain_datasets_of_several_hundred_rows(self):
        a = make_blobs("a", 21, n=293)
        b = make_blobs("b", 22, n=513, mix=[0.3, 0.7])
        self.assert_same(a, b, projections=20, seed=3)
        self.assert_same(a.features, a.features[::-1].copy(), projections=20, seed=3)


class TestWassersteinMatrix:
    """Every per-projection value of every pair is within 1e-13 of the exact
    W1 of its sorted projections and within 1e-12 of the former per-pair
    algorithm's, and so is each distance; the matrix is symmetric with a
    zero diagonal, bit for bit."""

    @pytest.mark.parametrize("projections", [1, 2, 7, 8, 9, 16, 17, 257])
    @pytest.mark.parametrize("dim", [1, 2, 16])
    def test_every_pair_matches_the_per_pair_oracle(self, dim, projections):
        rng = np.random.default_rng(100 * dim + projections)
        # unequal sizes, two equal ones, and a single row
        sizes = (37, 150, 150, 401, 1)
        clouds = [rng.normal(size=(n, dim)) * rng.uniform(0.5, 2.0) + rng.normal(size=dim)
                  for n in sizes]
        # an error in one projection can vanish in the distance's rounding,
        # so the per-projection values are compared too
        with recorded_w1_rows() as calls:
            got = wasserstein_feature_distances(clouds, projections, seed=projections)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        assert_exact_per_projection(calls)
        pairs = list(itertools.combinations(range(len(clouds)), 2))
        for k, (i, j) in enumerate(pairs):
            values, distance = sliced_w1_per_pair(clouds[i], clouds[j], projections, projections)
            # one call per pair per block, pairs in this order within a block
            measured = [value for *_, block in calls[k::len(pairs)] for value in block]
            assert len(measured) == len(values), (i, j)
            for value, former in zip(measured, values):
                assert_close(value, former, 1e-12)
            assert_close(got[i, j], distance, 1e-12)

    @pytest.mark.parametrize("dim, projections", [(1, 1), (3, 20), (16, 33)])
    def test_permuting_the_clouds_permutes_the_matrix(self, dim, projections):
        rng = np.random.default_rng(7 * dim + projections)
        clouds = [rng.normal(size=(n, dim)) + rng.normal(size=dim) for n in (23, 40, 40, 57, 1)]
        base = wasserstein_feature_distances(clouds, projections, seed=4)
        for order in ([4, 3, 2, 1, 0], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3]):
            got = wasserstein_feature_distances([clouds[k] for k in order], projections, seed=4)
            assert np.array_equal(got, base[np.ix_(order, order)]), order

    def test_a_later_cloud_is_checked_like_the_first_two(self, rng):
        clean = [rng.normal(size=(6, 3)), rng.normal(size=(7, 3))]
        with pytest.raises(ValueError, match="^cloud 2: dimension mismatch: 3 vs 2$"):
            wasserstein_feature_distances([*clean, rng.normal(size=(5, 2))])
        with pytest.raises(ValueError, match="^cloud 2: empty dataset$"):
            wasserstein_feature_distances([*clean, np.zeros((0, 3))])
        dirty = rng.normal(size=(5, 3))
        dirty[4, 0] = np.nan
        with pytest.raises(ValueError, match="^cloud 2: features must be finite$"):
            wasserstein_feature_distances([*clean, dirty])
        with pytest.raises(ValueError, match="projections must be >= 1"):
            wasserstein_feature_distances(clean, projections=0)

    def test_fewer_than_two_clouds_are_refused(self, rng):
        with pytest.raises(ValueError, match="^need at least 2 feature clouds, got 0$"):
            wasserstein_feature_distances([])
        with pytest.raises(ValueError, match="^need at least 2 feature clouds, got 1$"):
            wasserstein_feature_distances([rng.normal(size=(3, 2))])

    def test_a_bad_domain_is_named_by_index_and_id(self):
        a, b = make_blobs("a", 1, n=20), make_blobs("b", 2, n=30)
        b.features[3, 1] = np.inf
        with pytest.raises(ValueError, match="^cloud 1, domain 'b': features must be finite$"):
            wasserstein_feature_distances([a, b])
        wide = DomainDataset("w", np.zeros((4, 3)), [0, 1, 0, 1], [0, 0, 0, 0], "0123")
        with pytest.raises(ValueError,
                           match="^cloud 2, domain 'w': dimension mismatch: 2 vs 3$"):
            wasserstein_feature_distances([a, a, wide])


class TestChiSquare:
    def test_identical_distributions_zero(self):
        a = make_blobs("a", 0, n=100, mix=[0.5, 0.5])
        assert chi_square_label_divergence(a, a) == 0.0

    def test_hand_fixture_one_third(self):
        a = make_blobs("a", 1, n=400)
        b = make_blobs("b", 2, n=400)
        a.labels[:] = [0, 1] * 200                    # p = (0.5, 0.5)
        b.labels[:] = [0] * 100 + [1] * 300           # q = (0.25, 0.75)
        got = chi_square_label_divergence(a, b)
        eps = shift.CHI_SQUARE_EPSILON
        assert got == pytest.approx(0.25 ** 2 / (0.25 + eps) + 0.25 ** 2 / (0.75 + eps), abs=1e-9)

    def test_asymmetric(self):
        a = make_blobs("a", 3, n=300, mix=[0.9, 0.1])
        b = make_blobs("b", 4, n=300, mix=[0.3, 0.7])
        assert chi_square_label_divergence(a, b) != pytest.approx(
            chi_square_label_divergence(b, a))

    def test_missing_target_class_large_but_finite(self):
        a = make_blobs("a", 5, n=200, mix=[0.5, 0.5])
        b = make_blobs("b", 6, n=200, mix=[1.0, 0.0])
        got = chi_square_label_divergence(a, b, n_classes=2)
        p1 = np.mean(a.labels == 1)
        # dominated by the missing-class term
        assert got > p1 ** 2 / (2 * shift.CHI_SQUARE_EPSILON)
        assert np.isfinite(got)

    def test_nonnegative_random(self, rng):
        for seed in range(5):
            a = make_blobs("a", seed, n=150, mix=[0.6, 0.4])
            b = make_blobs("b", seed + 50, n=150, mix=[0.2, 0.8])
            assert chi_square_label_divergence(a, b) >= 0.0


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

    @pytest.mark.parametrize("projections, widths", [(16, [8, 8]), (20, [8, 8, 4])])
    def test_w1_projects_and_sorts_each_domain_once_per_block(self, monkeypatch, projections,
                                                              widths):
        class CountingFeatures(np.ndarray):
            def __matmul__(self, other):
                products.append((id(self), other.shape[1]))
                return np.asarray(self) @ other

        # unequal sizes, and two equal ones
        domains = [make_blobs(f"d{i}", 30 + i, n=n) for i, n in enumerate((40, 55, 55, 70))]
        for d in domains:
            d.features = d.features.view(CountingFeatures)
        products, plans, merges = [], [], []
        quantile_plan, w1_rows = shift._quantile_plan, shift._w1_rows
        monkeypatch.setattr(shift, "_quantile_plan",
                            lambda na, nb: plans.append((na, nb)) or quantile_plan(na, nb))
        monkeypatch.setattr(shift, "_w1_rows",
                            lambda u, v, plan: merges.append((u, v)) or w1_rows(u, v, plan))
        report = build_shift_matrix(domains, projections=projections, seed=2)
        n, blocks = len(domains), len(widths)
        # one product per domain per block, the last block holding only the
        # directions left over
        assert sorted(products) == sorted((id(d.features), w) for d in domains for w in widths)
        # one plan per unordered pair, whatever the number of blocks
        assert plans == [(len(s.labels), len(t.labels))
                         for s, t in itertools.combinations(domains, 2)]
        pairs = list(itertools.combinations(range(n), 2))
        assert len(merges) == len(pairs) * blocks
        # within a block every pair reads one sorted array per domain: each
        # domain is sorted once per block
        for b, width in enumerate(widths):
            read = [[] for _ in domains]
            for (i, j), (u, v) in zip(pairs, merges[b * len(pairs):(b + 1) * len(pairs)]):
                read[i].append(u)
                read[j].append(v)
            for d, runs in zip(domains, read):
                assert all(run is runs[0] for run in runs)
                assert runs[0].shape == (width, len(d.labels))
            assert len({id(runs[0]) for runs in read}) == n
        for s in domains:
            for t in domains:
                if s is t:
                    continue
                d = report.pairs[(s.domain_id, t.domain_id)].feature_distance
                assert d == report.pairs[(t.domain_id, s.domain_id)].feature_distance
                # the stored value is what measuring this order would give, bit for bit
                assert d == wasserstein_feature_distances([s, t], projections, 2)[0, 1]

    def test_an_empty_domain_is_named_before_any_label_is_read(self):
        a = make_blobs("a", 1, n=20)
        empty = DomainDataset("e", np.zeros((0, 2)), [], [], ())
        for domains, index in (([a, empty], 1), ([empty, a], 0)):
            with pytest.raises(ValueError, match=f"^cloud {index}, domain 'e': empty dataset$"):
                build_shift_matrix(domains)

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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_error_value_names_its_pair(self, value):
        domains = [make_blobs(f"d{i}", i, n=40) for i in range(3)]
        table = {(s.domain_id, t.domain_id): 0.2 for s in domains for t in domains
                 if s is not t}
        table[("d2", "d0")] = value
        with pytest.raises(ValueError, match=r"d2->d0 is not finite"):
            build_shift_matrix(domains, table, projections=8, seed=0)

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


class TestLoadErrorTable:
    def write(self, tmp_path, *rows):
        path = tmp_path / "errors.csv"
        path.write_text("\n".join(["source,target,test_error", *rows]) + "\n")
        return path

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "d0,d1,0.25", "", "d1,d0,0.5")
        assert load_error_table(path) == {("d0", "d1"): 0.25, ("d1", "d0"): 0.5}

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "errors.csv"
        path.write_text("source,target,error\nd0,d1,0.25\n")
        with pytest.raises(ValueError, match="malformed error-table header"):
            load_error_table(path)

    @pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "1e999"])
    def test_non_finite_error_names_its_line(self, tmp_path, value):
        path = self.write(tmp_path, "d0,d1,0.25", f"d1,d0,{value}")
        with pytest.raises(ValueError, match=rf"line 3: test error '{value}' is not finite"):
            load_error_table(path)

    def test_non_numeric_error_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "d0,d1,high")
        with pytest.raises(ValueError, match=r"line 2: non-numeric test error 'high'"):
            load_error_table(path)

    def test_duplicate_pair_names_its_line(self, tmp_path):
        path = self.write(tmp_path, "d0,d1,0.25", "d1,d0,0.4", "d0,d1,0.3")
        with pytest.raises(ValueError, match=r"line 4: duplicate pair d0->d1"):
            load_error_table(path)

    @pytest.mark.parametrize("row, n_fields", [("d0,d1", 2), ("d0,d1,0.2,0.3", 4), ("d0", 1)])
    def test_wrong_field_count_names_its_line(self, tmp_path, row, n_fields):
        path = self.write(tmp_path, "d1,d0,0.4", row)
        with pytest.raises(ValueError, match=rf"line 3: {n_fields} fields, expected 3"):
            load_error_table(path)
