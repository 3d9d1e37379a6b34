"""Domain-shift diagnostics.

Feature-level shift is a sliced Wasserstein-1 distance between raw feature
clouds, label-level shift a chi-square divergence between empirical class
distributions. Pairwise matrices over a domain set can be joined with
single-source test errors to correlate each kind of shift with difficulty.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import DomainDataset


def _checked_features(clouds) -> list[np.ndarray]:
    """Each cloud's features, checked; a bad cloud is named by index, and domain id if any."""
    feats: list[np.ndarray] = []
    for k, data in enumerate(clouds):
        if isinstance(data, DomainDataset):
            name, f = f"cloud {k}, domain {data.domain_id!r}", data.features
        else:
            name, f = f"cloud {k}", np.asarray(data, dtype=np.float64)
        if f.ndim != 2:
            raise ValueError(f"{name}: features must be a 2-D matrix")
        if f.shape[0] == 0:
            raise ValueError(f"{name}: empty dataset")
        if feats and f.shape[1] != feats[0].shape[1]:
            raise ValueError(f"{name}: dimension mismatch: {feats[0].shape[1]} vs {f.shape[1]}")
        if not np.isfinite(f).all():
            raise ValueError(f"{name}: features must be finite")
        feats.append(f)
    return feats


# directions per block: each cloud holds this many sorted projections at a time
_PROJECTION_BLOCK = 8


def _quantile_plan(na: int, nb: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """How the 1-D W1 of an na-sample and an nb-sample reads their sorted values.

    W1 is the L1 distance between the two quantile functions, step functions
    with breakpoints i/na and j/nb. Merged, and kept as exact integers over
    na*nb, the breakpoints give each interval its order statistic of each
    sample (iu, iv) and its width. Swapping na and nb swaps iu and iv and
    keeps the widths, so a pair's W1 has the same bits in either order.
    """
    total = na * nb
    # np.union1d gives the same starts, but on numpy 2.4 its first call alone
    # adds about 1.6 MB to the process's resident memory
    starts = np.sort(np.concatenate((np.arange(na) * nb, np.arange(nb) * na)))
    starts = starts[np.diff(starts, prepend=-1) != 0]
    return ((starts // nb).astype(np.int32), (starts // na).astype(np.int32),
            np.diff(starts, append=total) / total)


def _w1_rows(u: np.ndarray, v: np.ndarray, plan) -> np.ndarray:
    """Exact 1-D W1 between row k of u and row k of v, both sorted, for every
    k: the sum over the plan's intervals of |u[iu] - v[iv]| times the width."""
    iu, iv, widths = plan
    gaps = u.take(iu, axis=1)
    gaps -= v.take(iv, axis=1)
    np.abs(gaps, out=gaps)
    gaps *= widths
    return np.add.reduce(gaps, axis=1)


def _mean_abs_projection(dim: int) -> float:
    """E|<u, e>| for a uniform unit vector u: 1 in 1-D, 2/pi in 2-D, 1/2 in 3-D.

    Dividing the projection average by this constant calibrates the sliced
    estimate against the full-dimensional transport cost (exact whenever one
    cloud is a translate of the other).
    """
    return math.gamma(dim / 2.0) / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0))


def wasserstein_feature_distances(clouds, projections: int = 256, seed: int = 0) -> np.ndarray:
    """Sliced Wasserstein-1 between every pair of feature clouds, as a
    symmetric matrix with a zero diagonal.

    Averages the exact 1-D W1 over `projections` random unit directions and
    rescales by the mean absolute projection of a unit vector; in 1-D this is
    the exact W1 regardless of the projection count. Deterministic given seed.
    Each cloud is projected and sorted once per block of directions, and
    every pair is measured from those sorted blocks through its quantile
    plan, which depends on the two sample sizes alone and is built once.
    """
    feats = _checked_features(clouds)
    if len(feats) < 2:
        raise ValueError(f"need at least 2 feature clouds, got {len(feats)}")
    dim = feats[0].shape[1]
    if projections < 1:
        raise ValueError("projections must be >= 1")
    if dim > 1:
        rng = np.random.default_rng(seed)
        directions = rng.standard_normal((projections, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    plans = {(i, j): _quantile_plan(len(feats[i]), len(feats[j]))
             for i, j in itertools.combinations(range(len(feats)), 2)}
    values: dict[tuple[int, int], list[float]] = {pair: [] for pair in plans}
    for k0 in range(0, projections if dim > 1 else 1, _PROJECTION_BLOCK):
        block = []
        for f in feats:
            runs = (f if dim == 1 else f @ directions[k0:k0 + _PROJECTION_BLOCK].T).T.copy()
            runs.sort()
            block.append(runs)
        for (i, j), plan in plans.items():
            values[i, j].extend(_w1_rows(block[i], block[j], plan).tolist())
    out = np.zeros((len(feats), len(feats)))
    for (i, j), pair_values in values.items():
        total = sum(pair_values)    # in projection order, as one pair at a time would
        out[i, j] = out[j, i] = (total if dim == 1 else
                                 total / projections / _mean_abs_projection(dim))
    return out


# added to each target class probability in the chi-square denominator
CHI_SQUARE_EPSILON = 1e-6


def chi_square_label_divergence(a: DomainDataset, b: DomainDataset,
                                n_classes: int | None = None) -> float:
    """Chi-square divergence between class distributions, source vs target.

    Asymmetric by construction: the target's empirical distribution sits in
    the denominator, so source mass on target-rare classes is penalized;
    CHI_SQUARE_EPSILON keeps the statistic finite when the target lacks a
    class.
    """
    if a.n_samples == 0 or b.n_samples == 0:
        raise ValueError("empty dataset")
    if n_classes is None:
        n_classes = int(max(a.labels.max(), b.labels.max())) + 1
    p = np.bincount(a.labels, minlength=n_classes) / a.n_samples
    q = np.bincount(b.labels, minlength=n_classes) / b.n_samples
    if p.size > n_classes or q.size > n_classes:
        raise ValueError(f"labels exceed the shared universe of {n_classes} classes")
    return float(np.sum((p - q) ** 2 / (q + CHI_SQUARE_EPSILON)))


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
    # sliced W1 checks every domain, naming a bad one, before any label is
    # read; it is measured once per unordered pair, chi-square is asymmetric
    w1 = wasserstein_feature_distances(domains, projections, seed)
    if n_classes is None:
        n_classes = int(max(d.labels.max() for d in domains)) + 1
    pairs: dict[tuple[str, str], PairShift] = {}
    for i, src in enumerate(domains):
        for j, tgt in enumerate(domains):
            if i == j:
                continue
            pairs[(src.domain_id, tgt.domain_id)] = PairShift(
                feature_distance=float(w1[i, j]),
                label_distance=chi_square_label_divergence(src, tgt, n_classes=n_classes),
            )

    report = ShiftReport(ids, pairs)
    if error_table is not None:
        missing = sorted(key for key in pairs if key not in error_table)
        if missing:
            pretty = [f"{s}->{t}" for s, t in missing]
            raise ValueError(f"error table is missing pairs: {pretty}")
        for (src, tgt), pair in pairs.items():
            pair.test_error = float(error_table[(src, tgt)])
            if not math.isfinite(pair.test_error):
                raise ValueError(f"error table value for {src}->{tgt} is not finite: {pair.test_error}")
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
    """Read `source,target,test_error` rows: one row per pair, finite errors.

    Every rejected row is named by its line number in the file (the header
    is line 1).
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "source,target,test_error":
        raise ValueError(f"{path}: malformed error-table header")
    table: dict[tuple[str, str], float] = {}
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln:
            continue
        fields = ln.split(",")
        if len(fields) != 3:
            raise ValueError(f"{path}: line {lineno}: {len(fields)} fields, expected 3")
        s, t, e = fields
        try:
            err = float(e)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric test error {e!r}") from None
        if not math.isfinite(err):
            raise ValueError(f"{path}: line {lineno}: test error {e!r} is not finite")
        if (s, t) in table:
            raise ValueError(f"{path}: line {lineno}: duplicate pair {s}->{t}")
        table[(s, t)] = err
    return table
