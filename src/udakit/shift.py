"""Domain-shift diagnostics.

Feature-level shift is a sliced Wasserstein-1 distance between raw feature
clouds, label-level shift a chi-square divergence between empirical class
distributions. Pairwise matrices over a domain set can be joined with
single-source test errors to correlate each kind of shift with difficulty.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DomainDataset

__all__ = [
    "PairShift",
    "ShiftReport",
    "wasserstein_feature_distance",
    "chi_square_label_divergence",
    "pearson",
    "build_shift_matrix",
    "save_shift_csv",
    "save_shift_summary",
    "load_error_table",
]


def _features_of(data) -> np.ndarray:
    feats = data.features if isinstance(data, DomainDataset) else np.asarray(data, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-D matrix")
    if feats.shape[0] == 0:
        raise ValueError("empty dataset")
    return feats


def _w1_exact_1d(u: np.ndarray, v: np.ndarray) -> float:
    """Exact W1 between two 1-D empirical distributions.

    Equal sizes reduce to the mean absolute difference of matched order
    statistics; unequal sizes integrate the CDF gap over merged breakpoints.
    """
    u = np.sort(u)
    v = np.sort(v)
    if u.size == v.size:
        return float(np.mean(np.abs(u - v)))
    merged = np.sort(np.concatenate([u, v]))
    deltas = np.diff(merged)
    cdf_u = np.searchsorted(u, merged[:-1], side="right") / u.size
    cdf_v = np.searchsorted(v, merged[:-1], side="right") / v.size
    return float(np.sum(np.abs(cdf_u - cdf_v) * deltas))


def _mean_abs_projection(dim: int) -> float:
    """E|<u, e>| for a uniform unit vector u: 1 in 1-D, 2/pi in 2-D, 1/2 in 3-D.

    Dividing the projection average by this constant calibrates the sliced
    estimate against the full-dimensional transport cost (exact whenever one
    cloud is a translate of the other).
    """
    return math.gamma(dim / 2.0) / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0))


def wasserstein_feature_distance(a, b, projections: int = 256, seed: int = 0) -> float:
    """Sliced Wasserstein-1 between two feature clouds.

    Averages the exact 1-D W1 over `projections` random unit directions and
    rescales by the mean absolute projection of a unit vector; in 1-D this is
    the exact W1 regardless of the projection count. Deterministic given seed.
    """
    fa, fb = _features_of(a), _features_of(b)
    if fa.shape[1] != fb.shape[1]:
        raise ValueError(f"dimension mismatch: {fa.shape[1]} vs {fb.shape[1]}")
    if projections < 1:
        raise ValueError("projections must be >= 1")
    dim = fa.shape[1]
    if dim == 1:
        return _w1_exact_1d(fa[:, 0], fb[:, 0])
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    proj_a = fa @ directions.T
    proj_b = fb @ directions.T
    total = sum(_w1_exact_1d(proj_a[:, k], proj_b[:, k]) for k in range(projections))
    return total / projections / _mean_abs_projection(dim)


def chi_square_label_divergence(a: DomainDataset, b: DomainDataset,
                                epsilon: float = 1e-6,
                                n_classes: int | None = None) -> float:
    """Chi-square divergence between class distributions, source vs target.

    Asymmetric by construction: the target's empirical distribution sits in
    the denominator, so source mass on target-rare classes is penalized;
    epsilon keeps the statistic finite when the target lacks a class.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    if a.n_samples == 0 or b.n_samples == 0:
        raise ValueError("empty dataset")
    if n_classes is None:
        n_classes = int(max(a.labels.max(), b.labels.max())) + 1
    p = np.bincount(a.labels, minlength=n_classes) / a.n_samples
    q = np.bincount(b.labels, minlength=n_classes) / b.n_samples
    if p.size > n_classes or q.size > n_classes:
        raise ValueError(f"labels exceed the shared universe of {n_classes} classes")
    return float(np.sum((p - q) ** 2 / (q + epsilon)))


def pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sample Pearson correlation; errors out on constant series."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length series with at least 2 points")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = math.sqrt(float((dx ** 2).sum()))
    sy = math.sqrt(float((dy ** 2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("correlation undefined: constant series")
    return float((dx * dy).sum() / (sx * sy))


@dataclass
class PairShift:
    feature_distance: float
    label_distance: float
    test_error: float | None = None


@dataclass
class ShiftReport:
    """Pairwise distances over every ordered (source, target) pair, plus the
    correlations of each distance with test error once an error table joins."""

    domain_ids: list[str]
    pairs: dict[tuple[str, str], PairShift]
    pearson_feature_error: float | None = None
    pearson_label_error: float | None = None

    def to_dict(self) -> dict:
        return {
            "domain_ids": self.domain_ids,
            "pairs": {
                f"{s}->{t}": {
                    "feature_distance": p.feature_distance,
                    "label_distance": p.label_distance,
                    "test_error": p.test_error,
                }
                for (s, t), p in sorted(self.pairs.items())
            },
            "pearson_feature_error": self.pearson_feature_error,
            "pearson_label_error": self.pearson_label_error,
        }


def build_shift_matrix(domains: list[DomainDataset],
                       error_table: dict[tuple[str, str], float] | None = None,
                       projections: int = 256, seed: int = 0,
                       epsilon: float = 1e-6,
                       n_classes: int | None = None) -> ShiftReport:
    """Distances for every ordered pair of distinct domains.

    When an error table (from single-source runs) is supplied, test errors
    are joined onto the pairs and both Pearson coefficients computed.
    """
    if len(domains) < 2:
        raise ValueError("need at least 2 domains")
    ids = [d.domain_id for d in domains]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate domain ids in {ids}")
    if n_classes is None:
        n_classes = int(max(d.labels.max() for d in domains)) + 1

    # sliced W1 is bit-for-bit symmetric (both orders project onto the same
    # directions and integrate over the same merged breakpoints), so each
    # unordered pair is measured once; chi-square is asymmetric
    w1: dict[tuple[int, int], float] = {}
    for i in range(len(domains)):
        for j in range(i + 1, len(domains)):
            w1[(i, j)] = w1[(j, i)] = wasserstein_feature_distance(
                domains[i], domains[j], projections, seed)
    pairs: dict[tuple[str, str], PairShift] = {}
    for i, src in enumerate(domains):
        for j, tgt in enumerate(domains):
            if i == j:
                continue
            pairs[(src.domain_id, tgt.domain_id)] = PairShift(
                feature_distance=w1[(i, j)],
                label_distance=chi_square_label_divergence(src, tgt, epsilon, n_classes),
            )

    report = ShiftReport(ids, pairs)
    if error_table is not None:
        missing = sorted(key for key in pairs if key not in error_table)
        if missing:
            pretty = [f"{s}->{t}" for s, t in missing]
            raise ValueError(f"error table is missing pairs: {pretty}")
        for key in pairs:
            pairs[key].test_error = float(error_table[key])
        ordered = sorted(pairs)
        errors = np.array([pairs[k].test_error for k in ordered])
        # a constant column (e.g. symmetric feature distances over 2 domains)
        # leaves that coefficient undefined rather than failing the report
        report.pearson_feature_error = _pearson_or_none(
            np.array([pairs[k].feature_distance for k in ordered]), errors)
        report.pearson_label_error = _pearson_or_none(
            np.array([pairs[k].label_distance for k in ordered]), errors)
    return report


def _pearson_or_none(xs: np.ndarray, ys: np.ndarray) -> float | None:
    try:
        return pearson(xs, ys)
    except ValueError:
        return None


def save_shift_csv(report: ShiftReport, path: str | Path) -> None:
    lines = ["source,target,feature_distance,label_distance,test_error"]
    for (s, t), p in sorted(report.pairs.items()):
        err = "" if p.test_error is None else repr(p.test_error)
        lines.append(f"{s},{t},{p.feature_distance!r},{p.label_distance!r},{err}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_shift_summary(report: ShiftReport, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_error_table(path: str | Path) -> dict[tuple[str, str], float]:
    """Read `source,target,test_error` rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "source,target,test_error":
        raise ValueError(f"{path}: malformed error-table header")
    table: dict[tuple[str, str], float] = {}
    for ln in lines[1:]:
        if not ln:
            continue
        s, t, e = ln.split(",")
        table[(s, t)] = float(e)
    return table
