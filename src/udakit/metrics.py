"""Classification quality and group-fairness metrics.

The fairness triplet follows the worst/best-ratio formulation: PQD compares
per-group prediction quality, DPM per-class prediction rates across groups,
and EOM per-class true-positive rates across groups. All three live in
[0, 1] and equal 1 when the per-group tables coincide.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

# Preset group bins: a value v falls in bin (lo, hi] when lo < v <= hi.
# Skin-type bands 1-2 / 3-4 / 5-6; age split at 30 with <=30 in group 0.
GROUP_BINS: dict[str, tuple[tuple[float, float], ...]] = {
    "fst": ((0, 2), (2, 4), (4, 6)),
    "age": ((-math.inf, 30), (30, math.inf)),
}


class UndefinedMetricError(ValueError):
    """Raised when a metric has no value on its input, e.g. AUROC on labels
    of one class. A ValueError, so callers that treat any bad input alike
    still do; the harness catches this one alone to flag a cell."""


@dataclass
class PredictionSet:
    """True labels, predictions, optional positive-class scores, and group ids."""

    y_true: np.ndarray
    y_pred: np.ndarray
    sensitive: np.ndarray
    n_classes: int
    n_groups: int
    scores: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.y_true = np.asarray(self.y_true, dtype=np.int64)
        self.y_pred = np.asarray(self.y_pred, dtype=np.int64)
        self.sensitive = np.asarray(self.sensitive, dtype=np.int64)
        n = self.y_true.shape[0]
        if self.y_pred.shape != (n,) or self.sensitive.shape != (n,):
            raise ValueError("y_true, y_pred, and sensitive must have equal length")
        if n == 0:
            raise ValueError("prediction set is empty")
        for name, arr, bound in (("y_true", self.y_true, self.n_classes),
                                 ("y_pred", self.y_pred, self.n_classes),
                                 ("sensitive", self.sensitive, self.n_groups)):
            if arr.min() < 0 or arr.max() >= bound:
                raise ValueError(f"{name} ids must lie in [0, {bound})")
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=np.float64)
            if self.scores.shape != (n,):
                raise ValueError("scores must have one value per sample")
            if (self.scores < 0).any() or (self.scores > 1).any():
                raise ValueError("scores must lie in [0, 1]")

    @property
    def n_samples(self) -> int:
        return self.y_true.shape[0]


def accuracy(pred: PredictionSet) -> float:
    """Fraction of correct predictions."""
    return float(np.mean(pred.y_pred == pred.y_true))


def auroc(scores: np.ndarray, y_binary: np.ndarray) -> float:
    """Probability a random positive outscores a random negative, ties half.

    Rank-sum formulation with averaged (tie-corrected) ranks.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y_binary, dtype=np.int64)
    if scores.shape != y.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length vectors")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be binary (0/1)")
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUROC undefined: only one class present")
    if np.isnan(scores).any():
        raise UndefinedMetricError("AUROC undefined: NaN scores")
    ranks = _average_ranks(scores)
    u = ranks[y == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks with ties replaced by their group average."""
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.flatnonzero(np.r_[True, sx[1:] != sx[:-1]])
    ends = np.r_[starts[1:], x.size]
    avg = (starts + ends - 1) / 2.0 + 1.0
    ranks = np.empty(x.size, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def _group_indices(pred: PredictionSet) -> list[np.ndarray]:
    groups = []
    for j in range(pred.n_groups):
        idx = np.flatnonzero(pred.sensitive == j)
        if idx.size == 0:
            raise ValueError(f"sensitive group {j} is empty")
        groups.append(idx)
    return groups


def _group_quality(pred: PredictionSet, basis: str) -> list[float]:
    qualities = []
    for j, idx in enumerate(_group_indices(pred)):
        if basis == "accuracy":
            qualities.append(float(np.mean(pred.y_pred[idx] == pred.y_true[idx])))
        else:
            try:
                qualities.append(auroc(pred.scores[idx], pred.y_true[idx]))
            except ValueError as err:       # keeps its class: undefined stays undefined
                raise type(err)(f"group {j}: {err}") from None
    return qualities


def _pqd_of(qualities: list[float]) -> float:
    top = max(qualities)
    if top == 0.0:
        raise UndefinedMetricError("PQD undefined: best group quality is 0")
    return min(qualities) / top


def _rate_ratio(values: list[float]) -> float:
    """min/max with the 0/0 convention: no observations anywhere means no
    observed disparity (ratio 1); max > 0 with min 0 is full disparity."""
    lo, hi = min(values), max(values)
    if hi == 0.0:
        return 1.0
    return lo / hi


def _prediction_rates(pred: PredictionSet) -> list[list[float]]:
    """Fraction of each group predicted as each class, [group][class]."""
    return [[float(np.mean(pred.y_pred[idx] == cls)) for cls in range(pred.n_classes)]
            for idx in _group_indices(pred)]


def _dpm_of(rates: list[list[float]]) -> float:
    ratios = [_rate_ratio(list(column)) for column in zip(*rates)]
    return sum(ratios) / len(ratios)


def _eom_details(pred: PredictionSet) -> tuple[float, list[list[float | None]], list[str]]:
    groups = _group_indices(pred)
    table: list[list[float | None]] = []
    ratios: list[float] = []
    flags: list[str] = []
    for cls in range(pred.n_classes):
        supports = [int(np.sum(pred.y_true[idx] == cls)) for idx in groups]
        recalls: list[float | None] = []
        for idx, support in zip(groups, supports):
            if support == 0:
                recalls.append(None)
            else:
                mask = idx[pred.y_true[idx] == cls]
                recalls.append(float(np.mean(pred.y_pred[mask] == cls)))
        table.append(recalls)
        if all(s == 0 for s in supports):
            ratios.append(1.0)
            flags.append(f"class {cls} absent from every group's true labels")
        elif any(s == 0 for s in supports):
            flags.append(f"class {cls} skipped: no true instances in some group")
        else:
            ratios.append(_rate_ratio([r for r in recalls]))
    if not ratios:
        raise UndefinedMetricError("EOM undefined: every class lacks true instances in some group")
    return sum(ratios) / len(ratios), table, flags


def group_bins(bins: object) -> tuple[tuple[float, float], ...]:
    """The (lo, hi] bins that bins names: a preset name from GROUP_BINS, or a
    non-empty list of [lo, hi] number pairs with lo < hi, where lo may be
    -inf and hi inf. Anything else raises ValueError."""
    if isinstance(bins, str):
        if bins not in GROUP_BINS:
            raise ValueError(f"unknown group preset {bins!r}; have {sorted(GROUP_BINS)}")
        return GROUP_BINS[bins]
    if not isinstance(bins, list | tuple) or not bins:
        raise ValueError(f"group bins must be a preset name in {sorted(GROUP_BINS)} "
                         f"or a non-empty list of [lo, hi] pairs, got {bins!r}")
    for j, pair in enumerate(bins):
        if not (isinstance(pair, list | tuple) and len(pair) == 2
                and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in pair)
                and pair[0] < pair[1]):
            raise ValueError(f"group bin {j} must be a [lo, hi] pair of numbers "
                             f"with lo < hi, got {pair!r}")
    return tuple((lo, hi) for lo, hi in bins)


def group_partition(values: np.ndarray,
                    bins: str | tuple[tuple[float, float], ...]) -> np.ndarray:
    """Map raw attribute values to group ids through (lo, hi] bins.

    bins may be anything group_bins accepts; a value outside every bin is
    an error.
    """
    bins = group_bins(bins)
    values = np.asarray(values, dtype=np.float64)
    out = np.full(values.shape, -1, dtype=np.int64)
    for j, (lo, hi) in enumerate(bins):
        out[(values > lo) & (values <= hi) & (out < 0)] = j
    if (out < 0).any():
        bad = values[out < 0][0]
        raise ValueError(f"attribute value {bad:g} falls outside every group bin")
    return out


@dataclass
class FairnessReport:
    """The fairness triplet plus every intermediate per-group table."""

    pqd: float
    dpm: float
    eom: float
    quality_basis: str
    quality: float
    per_group_quality: list[float]
    prediction_rates: list[list[float]]           # [group][class]
    recall_table: list[list[float | None]]        # [class][group], None = no support
    flags: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def fairness_report(pred: PredictionSet) -> FairnessReport:
    """Compute PQD/DPM/EOM together with the tables behind them."""
    basis = "auroc" if pred.n_classes == 2 and pred.scores is not None else "accuracy"
    per_group = _group_quality(pred, basis)
    rates = _prediction_rates(pred)
    eom_value, recall_table, flags = _eom_details(pred)
    if basis == "accuracy":
        overall = accuracy(pred)
    else:
        overall = auroc(pred.scores, pred.y_true)
    return FairnessReport(
        pqd=_pqd_of(per_group),
        dpm=_dpm_of(rates),
        eom=eom_value,
        quality_basis=basis,
        quality=overall,
        per_group_quality=per_group,
        prediction_rates=rates,
        recall_table=recall_table,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# Predictions files: header id,y_true,y_pred,score,sensitive
# ---------------------------------------------------------------------------

def save_predictions(pred: PredictionSet, sample_ids: tuple[str, ...],
                     path: str | Path) -> None:
    if len(sample_ids) != pred.n_samples:
        raise ValueError("need one sample id per prediction")
    lines = ["id,y_true,y_pred,score,sensitive"]
    for i in range(pred.n_samples):
        score = "" if pred.scores is None else repr(float(pred.scores[i]))
        lines.append(f"{sample_ids[i]},{pred.y_true[i]},{pred.y_pred[i]},{score},{pred.sensitive[i]}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
