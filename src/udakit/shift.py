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
    if not np.isfinite(feats).all():
        raise ValueError("features must be finite")
    return feats


# projections are sorted _PROJECTION_BLOCK at a time into one reused buffer,
# which stays small next to the projection matrices; each transposing copy
# reads a band of _ROW_BAND rows, which stays in cache, instead of striding
# down whole columns
_PROJECTION_BLOCK = 8
_ROW_BAND = 256


def _sort_columns_into(out: np.ndarray, cols: np.ndarray) -> None:
    """Write each column of `cols` into a row of `out`, then sort the rows."""
    for r0 in range(0, cols.shape[0], _ROW_BAND):
        out[:, r0:r0 + _ROW_BAND] = cols[r0:r0 + _ROW_BAND].T
    out.sort()


def _w1_per_projection(proj_a: np.ndarray, proj_b: np.ndarray) -> list[float]:
    """Exact 1-D W1 between column k of proj_a and column k of proj_b, for every k.

    Equal sizes reduce to the mean absolute difference of matched order
    statistics. Unequal sizes integrate the CDF gap over the merged
    breakpoints: a stable argsort merges the two sorted samples, and the
    count of first-sample entries up to each merged position k gives both
    CDFs. That count has a closed form, since both halves of the buffer are
    ascending and the sort is stable: it is order[k] + 1 when entry k comes
    from the first sample, and k + n_a - order[k] when it comes from the
    second. The smaller of the two is always the right one. For a
    first-sample entry the other is n_a plus the second-sample entries up to
    k, never below the count; for a second-sample entry the other is
    order[k] + 1 > n_a, while the count is at most n_a. The counts are
    integers, exact in float64 below 2**53. Where values tie the breakpoint
    gap is 0, so how ties are counted does not change any term. Each
    projection's terms are summed as one contiguous 1-D array, so the
    pairwise summation order, and with it every bit of the result, is that
    of a one-projection-at-a-time loop.
    """
    na, nb = proj_a.shape[0], proj_b.shape[0]
    n_proj = proj_a.shape[1]
    steps = np.arange(1.0, na + nb)
    past = np.arange(na, 2.0 * na + nb)     # k + n_a at merged position k
    buffer = np.empty((min(_PROJECTION_BLOCK, n_proj), na + nb))
    values: list[float] = []
    for k0 in range(0, n_proj, _PROJECTION_BLOCK):
        k1 = min(k0 + _PROJECTION_BLOCK, n_proj)
        block = buffer[:k1 - k0]
        u, v = block[:, :na], block[:, na:]
        _sort_columns_into(u, proj_a[:, k0:k1])
        _sort_columns_into(v, proj_b[:, k0:k1])
        if na == nb:
            values.extend(float(np.mean(gaps)) for gaps in np.abs(u - v))
            continue
        for runs in block:
            order = np.argsort(runs, kind="stable")
            merged = runs[order]
            first = order.astype(np.float64)
            cnt_u = np.minimum(first + 1.0, past - first)[:-1]
            terms = cnt_u / na
            terms -= (steps - cnt_u) / nb
            np.abs(terms, out=terms)
            terms *= merged[1:] - merged[:-1]
            values.append(float(np.add.reduce(terms)))
    return values


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
        return _w1_per_projection(fa, fb)[0]
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((projections, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    # one product per cloud: products over subsets of directions can round
    # differently in the last bit
    total = sum(_w1_per_projection(fa @ directions.T, fb @ directions.T))
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
