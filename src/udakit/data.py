"""Synthetic multi-domain classification datasets.

Domains are Gaussian mixtures: one spherical Gaussian per class plus an
additive offset per sensitive group, so feature shift, label shift, and
group structure can be dialed independently. Datasets round-trip through
a plain CSV format, and this module also provides stratified splitting,
domain concatenation, class-balancing sampler weights, and the config field checks.
"""

from __future__ import annotations

import math
import numbers
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "DomainDataset",
    "UnlabeledDomain",
    "require_unlabeled",
    "DomainSpec",
    "SplitPair",
    "CLASS_NAMES",
    "CLASS_DISTRIBUTIONS",
    "class_distribution",
    "generate_domain",
    "stratified_split",
    "concat_domains",
    "weighted_sampler_weights",
    "class_balanced_probabilities",
    "save_dataset",
    "load_dataset",
    "check_value",
    "check_fields",
]

_PROB_TOL = 1e-9

# Class proportions (percent) of public skin-lesion datasets over the shared
# eight-condition label universe; zeros mark conditions absent from a dataset.
CLASS_NAMES = ("NEV", "MEL", "BCC", "BKL", "AK", "SCC", "DF", "VL")
CLASS_DISTRIBUTIONS: dict[str, tuple[int, ...]] = {
    "isic2018": (69, 12, 5, 11, 0, 0, 1, 2),
    "isic2020": (86, 10, 0, 4, 0, 0, 0, 0),
    "pad": (11, 2, 37, 10, 32, 8, 0, 0),
    "fitz": (9, 20, 28, 4, 7, 27, 5, 0),
    "d7pt": (59, 24, 4, 8, 0, 0, 2, 3),
}


def class_distribution(name: str, classes: tuple[int, ...] | None = None) -> np.ndarray:
    """Class-proportion vector for a named preset.

    When ``classes`` is given, the vector is restricted to those class
    indices and renormalized (e.g. ``(0, 1)`` for the nevus/melanoma
    binary task).
    """
    if name not in CLASS_DISTRIBUTIONS:
        raise KeyError(f"unknown distribution preset {name!r}; have {sorted(CLASS_DISTRIBUTIONS)}")
    raw = np.asarray(CLASS_DISTRIBUTIONS[name], dtype=np.float64)
    if classes is not None:
        raw = raw[list(classes)]
    total = raw.sum()
    if total <= 0:
        raise ValueError(f"preset {name!r} has no mass on classes {classes}")
    return raw / total


@dataclass
class DomainDataset:
    """Labeled samples of one domain.

    features is (n_samples, dim) float64; labels and sensitive are integer
    class / group ids; sample_ids are unique within the dataset.
    """

    domain_id: str
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    sample_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sensitive = np.asarray(self.sensitive, dtype=np.int64)
        self.sample_ids = tuple(str(s) for s in self.sample_ids)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        n, dim = self.features.shape
        if dim < 1:
            raise ValueError("feature dimension must be >= 1")
        if not (self.labels.shape == (n,) and self.sensitive.shape == (n,) and len(self.sample_ids) == n):
            raise ValueError("labels, sensitive, and sample_ids must all have length n_samples")
        if n and (self.labels.min() < 0 or self.sensitive.min() < 0):
            raise ValueError("labels and sensitive ids must be nonnegative")
        if not np.isfinite(self.features).all():
            raise ValueError("features must be finite")
        if len(set(self.sample_ids)) != n:
            raise ValueError(f"sample_ids are not unique within domain {self.domain_id!r}")

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def unlabeled(self) -> "UnlabeledDomain":
        """Label-stripped view used wherever target labels must stay hidden."""
        return UnlabeledDomain(self.domain_id, self.features, self.sample_ids)

    def subset(self, indices: np.ndarray) -> "DomainDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return DomainDataset(
            self.domain_id,
            self.features[idx],
            self.labels[idx],
            self.sensitive[idx],
            tuple(self.sample_ids[i] for i in idx),
        )


@dataclass(frozen=True)
class UnlabeledDomain:
    """A domain with labels structurally removed (the target-label firewall)."""

    domain_id: str
    features: np.ndarray
    sample_ids: tuple[str, ...]

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def require_unlabeled(target: object, sources: list[DomainDataset]) -> UnlabeledDomain:
    """The target as an adaptation trainer may see it: a non-empty
    UnlabeledDomain (never a labeled DomainDataset) of the sources' width."""
    if isinstance(target, DomainDataset):
        raise TypeError(
            "target must be an UnlabeledDomain view; call .unlabeled() on the "
            "dataset so target labels cannot be read"
        )
    if not isinstance(target, UnlabeledDomain):
        raise TypeError(f"target must be an UnlabeledDomain, got {type(target).__name__}")
    if target.n_samples == 0:
        raise ValueError("target domain is empty")
    if any(s.dim != target.dim for s in sources):
        raise ValueError("all sources and the target must share one feature dimension")
    return target


_KIND_NAMES = {int: "a whole number", float: "a finite number", bool: "true or false",
               str: "a string", list: "a list", tuple: "a list", dict: "an object",
               np.ndarray: "finite numbers", type(None): "null"}
_annotations: dict[type, dict[str, object]] = {}     # typing.get_type_hints per dataclass


def check_value(name: str, value: object, annotation: object) -> object:
    """value as a field annotated `annotation` (a type, a generic such as
    list[str], whose origin alone is checked, or an X | Y union) holds it; a
    value that does not fit raises ValueError naming name.

    int takes a whole number and returns an int, float a finite number as
    given; neither takes a bool. np.ndarray takes what numpy reads as finite
    float64 numbers and returns that array; list and tuple take either and
    return their own type; any other class (bool, str, dict, None, a
    dataclass) takes its instances.
    """
    members = (typing.get_args(annotation) if isinstance(annotation, types.UnionType)
               else (annotation,))
    kinds = [typing.get_origin(m) or m for m in members]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    for kind in kinds:
        if kind is int:
            if number and (isinstance(value, numbers.Integral) or float(value).is_integer()):
                return int(value)
        elif kind is float:
            if number and (isinstance(value, numbers.Integral) or math.isfinite(value)):
                return value
        elif kind is np.ndarray:
            try:
                array = np.asarray(value, dtype=np.float64)
            except (TypeError, ValueError):
                continue
            if np.isfinite(array).all():
                return array
        elif kind in (list, tuple):
            if isinstance(value, list | tuple):
                return kind(value)
        elif isinstance(value, kind):
            return value
    expected = " or ".join(_KIND_NAMES.get(k, k.__name__) for k in kinds)
    raise ValueError(f"{name} must be {expected}, got {value!r}")


def check_fields(obj: object) -> None:
    """Replace each field of the dataclass obj by check_value of it against its
    annotation; the config dataclasses call this before their range checks."""
    cls = type(obj)
    if cls not in _annotations:
        _annotations[cls] = typing.get_type_hints(cls)
    for name, annotation in _annotations[cls].items():
        setattr(obj, name, check_value(name, getattr(obj, name), annotation))


@dataclass
class DomainSpec:
    """Recipe for one synthetic domain.

    Sample i draws class c from label_distribution and group g from
    sensitive_distribution; its feature vector is
    class_means[c] + sensitive_mean_offset[g] + Gaussian noise with per
    coordinate standard deviation class_cov_scale.
    """

    domain_id: str
    n_samples: int
    dim: int
    class_means: np.ndarray            # (n_classes, dim)
    class_cov_scale: float
    label_distribution: np.ndarray     # (n_classes,)
    sensitive_distribution: np.ndarray  # (n_groups,)
    sensitive_mean_offset: np.ndarray  # (n_groups, dim)
    seed: int

    def __post_init__(self) -> None:
        check_fields(self)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.class_cov_scale <= 0:
            raise ValueError("class_cov_scale must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.class_means.shape != (self.n_classes, self.dim):
            raise ValueError("class_means must be (n_classes, dim)")
        if self.sensitive_mean_offset.shape != (self.n_groups, self.dim):
            raise ValueError("sensitive_mean_offset must be (n_groups, dim)")
        for name, dist in (("label_distribution", self.label_distribution),
                           ("sensitive_distribution", self.sensitive_distribution)):
            if dist.ndim != 1 or dist.size < 1:
                raise ValueError(f"{name} must be a nonempty vector")
            if (dist < 0).any():
                raise ValueError(f"{name} has negative probabilities")
            if abs(dist.sum() - 1.0) > _PROB_TOL:
                raise ValueError(f"{name} sums to {dist.sum()!r}, not 1")

    @property
    def n_classes(self) -> int:
        return self.label_distribution.shape[0]

    @property
    def n_groups(self) -> int:
        return self.sensitive_distribution.shape[0]


@dataclass
class SplitPair:
    """Disjoint train/test partition of one domain."""

    train: DomainDataset
    test: DomainDataset


def generate_domain(spec: DomainSpec) -> DomainDataset:
    """Draw a dataset from a DomainSpec. Deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    classes = rng.choice(spec.n_classes, size=spec.n_samples, p=spec.label_distribution)
    groups = rng.choice(spec.n_groups, size=spec.n_samples, p=spec.sensitive_distribution)
    noise = rng.standard_normal((spec.n_samples, spec.dim)) * spec.class_cov_scale
    features = spec.class_means[classes] + spec.sensitive_mean_offset[groups] + noise
    ids = tuple(f"{spec.domain_id}-{i:06d}" for i in range(spec.n_samples))
    return DomainDataset(spec.domain_id, features, classes, groups, ids)


def stratified_split(data: DomainDataset, ratio: float, seed: int) -> SplitPair:
    """Class-stratified train/test split.

    Each class c sends round(ratio * n_c) samples to test, clamped to
    [1, n_c - 1] when n_c >= 2; singleton classes stay entirely in train.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"ratio must be in (0, 1), got {ratio}")
    if data.n_samples == 0:
        raise ValueError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    test_mask = np.zeros(data.n_samples, dtype=bool)
    for cls in np.unique(data.labels):
        members = np.flatnonzero(data.labels == cls)
        n_c = members.size
        if n_c < 2:
            continue
        n_test = int(round(ratio * n_c))
        n_test = min(max(n_test, 1), n_c - 1)
        picked = rng.permutation(n_c)[:n_test]
        test_mask[members[picked]] = True
    train_idx = np.flatnonzero(~test_mask)
    test_idx = np.flatnonzero(test_mask)
    return SplitPair(data.subset(train_idx), data.subset(test_idx))


def concat_domains(domains: list[DomainDataset]) -> DomainDataset:
    """Row-wise concatenation into one "combined" domain.

    Sample ids are prefixed with their origin domain_id to stay unique.
    """
    if not domains:
        raise ValueError("concat_domains needs at least one dataset")
    dim = domains[0].dim
    for d in domains[1:]:
        if d.dim != dim:
            raise ValueError(f"dimension mismatch: {d.domain_id!r} has dim {d.dim}, expected {dim}")
    features = np.concatenate([d.features for d in domains], axis=0)
    labels = np.concatenate([d.labels for d in domains])
    sensitive = np.concatenate([d.sensitive for d in domains])
    ids = tuple(f"{d.domain_id}/{s}" for d in domains for s in d.sample_ids)
    return DomainDataset("combined", features, labels, sensitive, ids)


def weighted_sampler_weights(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-sample weights that balance classes under resampling.

    Sample i gets weight 1 / (n_classes * count(label_i)); drawing with
    replacement proportionally to these weights yields a uniform expected
    class mix over the classes actually present.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("labels must be nonempty")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"labels must lie in [0, {n_classes})")
    counts = np.bincount(labels, minlength=n_classes)
    return 1.0 / (n_classes * counts[labels].astype(np.float64))


def class_balanced_probabilities(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """weighted_sampler_weights normalized to sum to 1: the per-sample draw
    probabilities of class-balanced resampling."""
    w = weighted_sampler_weights(labels, n_classes)
    return w / w.sum()


# ---------------------------------------------------------------------------
# CSV dataset files: header id,domain,label,sensitive,f0,...,f{dim-1}
# ---------------------------------------------------------------------------

def save_dataset(data: DomainDataset, path: str | Path) -> None:
    """Write a dataset as CSV with full round-trip float precision."""
    path = Path(path)
    header = ["id", "domain", "label", "sensitive"] + [f"f{j}" for j in range(data.dim)]
    lines = [",".join(header)]
    # load_dataset splits rows at every line boundary str.splitlines knows
    for name in (data.domain_id, *data.sample_ids):
        if "," in name or "".join(name.splitlines()) != name:
            raise ValueError(f"id {name!r} contains a delimiter")
    # tolist() hands back Python ints and floats, so no cell goes through a
    # numpy scalar; features convert a row at a time, which keeps only one
    # row's float objects alive
    for sid, label, group, feats in zip(data.sample_ids, data.labels.tolist(),
                                        data.sensitive.tolist(), data.features):
        lines.append(",".join([sid, data.domain_id, str(label), str(group),
                               *map(repr, feats.tolist())]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(path: str | Path) -> DomainDataset:
    """Read a dataset CSV; inverse of save_dataset. A bad field is named by row and column."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:4] != ["id", "domain", "label", "sensitive"]:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    dim = len(header) - 4
    if dim < 1 or header[4:] != [f"f{j}" for j in range(dim)]:
        raise ValueError(f"{path}: malformed feature columns in header")
    rows = [ln for ln in lines[1:] if ln]
    if not rows:
        raise ValueError(f"{path}: empty dataset (header only)")

    ids: list[str] = []
    domains: set[str] = set()
    labels = np.empty(len(rows), dtype=np.int64)
    sensitive = np.empty(len(rows), dtype=np.int64)
    features = np.empty((len(rows), dim), dtype=np.float64)
    for r, line in enumerate(rows):
        parts = line.split(",")
        if len(parts) != 4 + dim:
            raise ValueError(f"{path}: row {r + 1} has {len(parts)} fields, expected {4 + dim}")
        ids.append(parts[0])
        domains.add(parts[1])
        labels[r] = _parse_id_field(parts[2], "label", r, path)
        sensitive[r] = _parse_id_field(parts[3], "sensitive", r, path)
        try:
            features[r] = [float(t) for t in parts[4:]]
        except ValueError:
            # only a failed row pays for finding its first bad column
            for j, text in enumerate(parts[4:]):
                try:
                    float(text)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric feature {text!r} at row {r + 1}, column f{j}"
                    ) from None
    # float() also reads nan, inf and overflowing text such as 1e999
    if not np.isfinite(features).all():
        r, j = np.argwhere(~np.isfinite(features))[0]
        raise ValueError(f"{path}: non-finite feature {rows[r].split(',')[4 + j]!r} "
                         f"at row {r + 1}, column f{j}")
    if len(domains) != 1:
        raise ValueError(f"{path}: mixed domain ids {sorted(domains)}")
    return DomainDataset(domains.pop(), features, labels, sensitive, tuple(ids))


def _parse_id_field(text: str, column: str, row: int, path: Path) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{path}: non-integer {column} {text!r} at row {row + 1}, column {column}") from None
    if value < 0:
        raise ValueError(
            f"{path}: {column} {value} out of range at row {row + 1}, column {column}"
        )
    return value


# ---------------------------------------------------------------------------
# DomainSpec dicts: JSON objects with exactly the DomainSpec fields
# ---------------------------------------------------------------------------

def spec_to_dict(spec: DomainSpec) -> dict:
    # a float class_cov_scale, so that an experiment's config_hash reads 1 and 1.0 alike
    payload = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(spec).items()}
    return {**payload, "class_cov_scale": float(spec.class_cov_scale)}


def spec_from_dict(payload: dict) -> DomainSpec:
    check_value("domain spec", payload, dict)
    missing = [k for k in DomainSpec.__dataclass_fields__ if k not in payload]
    if missing:
        raise ValueError(f"domain spec is missing fields {missing}")
    extra = [k for k in payload if k not in DomainSpec.__dataclass_fields__]
    if extra:
        raise ValueError(f"domain spec has unknown fields {extra}")
    return DomainSpec(**payload)
