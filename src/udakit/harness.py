"""Config-driven orchestration of the leave-one-domain-out experiment matrix.

Every domain takes a turn as the target; the remaining domains feed the
single-source, combined-source, and multi-source schemes. Cells repeat over
derived seeds and aggregate to mean and standard deviation. Target labels are
hidden from every adaptation trainer by construction: only the unlabeled view
of the target train split ever reaches a UDA operation.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .adversarial import AdversarialConfig, train_adda, train_dann, train_mdan
from .data import (
    DomainDataset,
    DomainSpec,
    SplitPair,
    concat_domains,
    generate_domain,
    load_dataset,
    spec_from_dict,
    stratified_split,
)
from .metrics import (
    PredictionSet,
    UndefinedMetricError,
    accuracy,
    auroc,
    fairness_report,
    group_partition,
)
from .moment import MomentConfig, ensemble_predict, train_m3sda
from .nn import (
    DivergenceError,
    Mlp,
    ModelBundle,
    TrainConfig,
    extract_features,
    predict,
    train_erm,
)

__all__ = [
    "SCHEME_BASES",
    "ExperimentConfig",
    "CellResult",
    "EvalReport",
    "FairnessCell",
    "FairnessMatrix",
    "parse_scheme",
    "load_experiment_config",
    "materialize_domains",
    "cell_seed",
    "train_cell",
    "run_matrix",
    "run_fairness",
    "emit_report",
    "export_features",
]

SCHEME_BASES = (
    "single-erm", "single-dann", "combined-erm", "combined-dann",
    "combined-adda", "multi-mdan", "multi-m3sda",
)

_ADV_KEYS = {"domain_weight", "schedule", "ramp_fraction", "disc_hidden", "gamma",
             "hard_max", "pretrain_epochs", "adapt_epochs", "adapt_learning_rate"}
_MOMENT_KEYS = {"align_weight", "discrepancy_weight", "ensemble", "holdout_ratio"}
_TRAIN_KEYS = set(TrainConfig.__dataclass_fields__)


def parse_scheme(name: str) -> tuple[str, bool]:
    """Split an optional class-rebalancing "rs-" prefix off a scheme name."""
    resample = name.startswith("rs-")
    base = name[3:] if resample else name
    if base not in SCHEME_BASES:
        raise ValueError(f"unknown scheme {name!r}; bases are {list(SCHEME_BASES)}")
    return base, resample


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment grid."""

    task: str                               # "binary" | "multiclass"
    schemes: list[str]
    domains: list[DomainSpec] | None = None
    dataset_paths: list | None = None       # str entries or {"train": .., "test": ..}
    repeats: int = 3
    base_seed: int = 0
    split_ratio: float = 0.2
    n_classes: int | None = None
    train: dict = field(default_factory=dict)
    scheme_overrides: dict = field(default_factory=dict)
    fairness_bins: str | list | None = None
    fairness_schemes: list[str] | None = None

    def __post_init__(self) -> None:
        if self.task not in ("binary", "multiclass"):
            raise ValueError(f"task must be binary or multiclass, got {self.task!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if (self.domains is None) == (self.dataset_paths is None):
            raise ValueError("provide exactly one of domains (specs) or dataset_paths")
        n = len(self.domains) if self.domains is not None else len(self.dataset_paths)
        if n < 2:
            raise ValueError("need at least 2 domains")
        for scheme in self.schemes:
            parse_scheme(scheme)
        for scheme in self.fairness_schemes or []:
            parse_scheme(scheme)
        unknown = set(self.train) - _TRAIN_KEYS
        if unknown:
            raise ValueError(f"unknown train settings {sorted(unknown)}")
        for scheme, over in self.scheme_overrides.items():
            parse_scheme(scheme)
            bad = set(over) - _TRAIN_KEYS - _ADV_KEYS - _MOMENT_KEYS
            if bad:
                raise ValueError(f"unknown override keys {sorted(bad)} for {scheme}")

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        payload = dict(payload)
        if "domains" in payload and payload["domains"] is not None:
            payload["domains"] = [spec_from_dict(d) for d in payload["domains"]]
        known = set(ExperimentConfig.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown experiment config fields {sorted(unknown)}")
        return ExperimentConfig(**payload)

    def to_dict(self) -> dict:
        from .data import spec_to_dict

        return {
            "task": self.task,
            "schemes": list(self.schemes),
            "domains": None if self.domains is None else [spec_to_dict(s) for s in self.domains],
            "dataset_paths": self.dataset_paths,
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "split_ratio": self.split_ratio,
            "n_classes": self.n_classes,
            "train": self.train,
            "scheme_overrides": self.scheme_overrides,
            "fairness_bins": self.fairness_bins,
            "fairness_schemes": self.fairness_schemes,
        }

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _stable_hash(text: str) -> int:
    return zlib.crc32(text.encode())


def cell_seed(base_seed: int, cell_key: str, repeat: int) -> int:
    """base + repeat + hash(cell key), kept in the nonnegative 63-bit range
    so no two cells accidentally share a seed stream."""
    return (base_seed + repeat + _stable_hash(cell_key)) % (2 ** 63)


def materialize_domains(cfg: ExperimentConfig) -> dict[str, SplitPair]:
    """Generate or load every domain and fix its train/test split.

    Splits are keyed on (base_seed, domain id) so repeats reuse them.
    """
    splits: dict[str, SplitPair] = {}
    if cfg.domains is not None:
        datasets = [generate_domain(spec) for spec in cfg.domains]
        for data in datasets:
            seed = cell_seed(cfg.base_seed, f"split:{data.domain_id}", 0)
            splits[data.domain_id] = stratified_split(data, cfg.split_ratio, seed)
    else:
        for entry in cfg.dataset_paths:
            if isinstance(entry, dict):
                train = load_dataset(entry["train"])
                test = load_dataset(entry["test"])
                if train.domain_id != test.domain_id:
                    raise ValueError(
                        f"pre-split pair mixes domains {train.domain_id!r} and {test.domain_id!r}")
                splits[train.domain_id] = SplitPair(train, test, cfg.split_ratio)
            else:
                data = load_dataset(entry)
                seed = cell_seed(cfg.base_seed, f"split:{data.domain_id}", 0)
                splits[data.domain_id] = stratified_split(data, cfg.split_ratio, seed)
    if len(splits) < 2:
        raise ValueError("need at least 2 distinct domains")
    return splits


def _global_classes(cfg: ExperimentConfig, splits: dict[str, SplitPair]) -> int:
    if cfg.n_classes is not None:
        n = int(cfg.n_classes)
    else:
        n = int(max(max(p.train.labels.max(initial=0), p.test.labels.max(initial=0))
                    for p in splits.values())) + 1
    if cfg.task == "binary" and n != 2:
        raise ValueError(f"binary task needs exactly 2 classes, found {n}")
    return n


def _global_groups(splits: dict[str, SplitPair]) -> int:
    return int(max(max(p.train.sensitive.max(initial=0), p.test.sensitive.max(initial=0))
                   for p in splits.values())) + 1


def _check_task_schemes(cfg: ExperimentConfig, schemes: list[str]) -> None:
    if cfg.task != "multiclass":
        return
    for scheme in schemes:
        base, _ = parse_scheme(scheme)
        if base == "single-dann":
            raise ValueError(
                "single-source UDA is rejected for multiclass tasks (target classes "
                "may be absent from a single source); use combined or multi schemes")


# single-source arms default to a gentler rate; any explicit setting wins
SINGLE_SOURCE_LEARNING_RATE = 1e-4


def _build_configs(cfg: ExperimentConfig, scheme: str, n_classes: int,
                   seed: int) -> tuple[TrainConfig, dict, dict]:
    base, resample = parse_scheme(scheme)
    settings = dict(cfg.train)
    if base.startswith("single") and "learning_rate" not in settings:
        settings["learning_rate"] = SINGLE_SOURCE_LEARNING_RATE
    overrides = dict(cfg.scheme_overrides.get(scheme, {}))
    adv = {k: overrides.pop(k) for k in list(overrides) if k in _ADV_KEYS}
    mom = {k: overrides.pop(k) for k in list(overrides) if k in _MOMENT_KEYS}
    settings.update(overrides)
    settings.update({"n_classes": n_classes, "resample": resample, "seed": seed})
    return TrainConfig.from_dict(settings), adv, mom


@dataclass
class TrainedCell:
    """A trained model plus how to predict with it."""

    extractor: Mlp
    classifiers: list[Mlp]
    ensemble_rule: str = "single"
    source_accuracies: list[float] | None = None
    record: object = None

    def scores(self, x: np.ndarray) -> np.ndarray:
        if self.ensemble_rule == "single":
            return predict(self.extractor, self.classifiers[0], x)[0]
        return ensemble_predict(self.extractor, self.classifiers, x,
                                rule=self.ensemble_rule,
                                accuracies=self.source_accuracies)[0]

    def bundle(self, train_config: TrainConfig) -> ModelBundle:
        weights = None
        if self.ensemble_rule == "accuracy" and self.source_accuracies:
            total = sum(self.source_accuracies)
            weights = [a / total for a in self.source_accuracies]
        elif self.ensemble_rule == "uniform":
            weights = [1.0 / len(self.classifiers)] * len(self.classifiers)
        return ModelBundle(self.extractor, self.classifiers, weights,
                           train_config.to_dict(), train_config.seed)


def train_cell(splits: dict[str, SplitPair], target_id: str, scheme: str,
               source_label: str, cfg: ExperimentConfig, n_classes: int,
               seed: int) -> TrainedCell:
    """Train one (target, scheme, source) cell with target labels hidden."""
    base, _ = parse_scheme(scheme)
    tcfg, adv, mom = _build_configs(cfg, scheme, n_classes, seed)
    target_unlabeled = splits[target_id].train.unlabeled()
    source_ids = [d for d in splits if d != target_id]

    if base.startswith("single"):
        source = splits[source_label].train
        if base == "single-erm":
            res = train_erm(source, tcfg)
            return TrainedCell(res.extractor, [res.classifier], record=res.record)
        res = train_dann(source, target_unlabeled, AdversarialConfig(train=tcfg, **adv))
        return TrainedCell(res.extractor, [res.classifier], record=res.record)

    if base.startswith("combined"):
        combined = concat_domains([splits[d].train for d in source_ids])
        if base == "combined-erm":
            res = train_erm(combined, tcfg)
            return TrainedCell(res.extractor, [res.classifier], record=res.record)
        acfg = AdversarialConfig(train=tcfg, **adv)
        res = (train_dann if base == "combined-dann" else train_adda)(
            combined, target_unlabeled, acfg)
        return TrainedCell(res.extractor, [res.classifier], record=res.record)

    sources = [splits[d].train for d in source_ids]
    if base == "multi-mdan":
        res = train_mdan(sources, target_unlabeled, AdversarialConfig(train=tcfg, **adv))
        return TrainedCell(res.extractor, [res.classifier], record=res.record)
    mres = train_m3sda(sources, target_unlabeled, MomentConfig(train=tcfg, **mom))
    return TrainedCell(mres.extractor, mres.classifiers, mres.ensemble_rule,
                       mres.source_accuracies, mres.record)


def _evaluate(model: TrainedCell, data: DomainDataset, task: str, n_classes: int,
              n_groups: int) -> tuple[float, PredictionSet]:
    scores = model.scores(data.features)
    y_pred = np.argmax(scores, axis=1)
    pos = scores[:, 1] if n_classes == 2 else None
    pred = PredictionSet(data.labels, y_pred, data.sensitive, n_classes, n_groups, pos)
    value = auroc(pos, data.labels) if task == "binary" else accuracy(pred)
    return value, pred


@dataclass
class CellResult:
    target: str
    scheme: str
    source: str
    values: list[float]
    seeds: list[int]
    flags: list[str]

    @property
    def mean(self) -> float | None:
        return float(np.mean(self.values)) if self.values else None

    @property
    def std(self) -> float | None:
        return float(np.std(self.values)) if self.values else None

    def to_dict(self) -> dict:
        return {
            "target": self.target, "scheme": self.scheme, "source": self.source,
            "values": self.values, "seeds": self.seeds, "flags": self.flags,
            "mean": self.mean, "std": self.std,
        }


@dataclass
class EvalReport:
    task: str
    metric: str
    domain_ids: list[str]
    schemes: list[str]
    repeats: int
    base_seed: int
    config_hash: str
    cells: list[CellResult]

    def column_averages(self) -> dict[str, dict[str, float]]:
        """Per (scheme, target): average of cell means over sources."""
        out: dict[str, dict[str, float]] = {}
        for scheme in self.schemes:
            out[scheme] = {}
            for target in self.domain_ids:
                means = [c.mean for c in self.cells
                         if c.scheme == scheme and c.target == target and c.mean is not None]
                if means:
                    out[scheme][target] = float(np.mean(means))
        return out

    def row_averages(self) -> dict[str, dict[str, float]]:
        """Per (scheme, source): average of cell means over targets."""
        out: dict[str, dict[str, float]] = {}
        for scheme in self.schemes:
            out[scheme] = {}
            for source in sorted({c.source for c in self.cells if c.scheme == scheme}):
                means = [c.mean for c in self.cells
                         if c.scheme == scheme and c.source == source and c.mean is not None]
                if means:
                    out[scheme][source] = float(np.mean(means))
        return out

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "metric": self.metric,
            "domain_ids": self.domain_ids,
            "schemes": self.schemes,
            "repeats": self.repeats,
            "base_seed": self.base_seed,
            "config_hash": self.config_hash,
            "cells": [c.to_dict() for c in self.cells],
            "column_averages": self.column_averages(),
            "row_averages": self.row_averages(),
        }


def run_matrix(cfg: ExperimentConfig, workers: int = 1) -> EvalReport:
    """Train and evaluate every (target, scheme, source) cell of the grid."""
    _check_task_schemes(cfg, cfg.schemes)
    splits = materialize_domains(cfg)
    n_classes = _global_classes(cfg, splits)
    n_groups = _global_groups(splits)
    ids = sorted(splits)

    jobs: list[tuple[str, str, str]] = []
    for scheme in cfg.schemes:
        base, _ = parse_scheme(scheme)
        for target in ids:
            if base.startswith("single"):
                jobs += [(target, scheme, src) for src in ids if src != target]
            else:
                jobs.append((target, scheme, "combined" if base.startswith("combined") else "all"))

    def run_job(job: tuple[str, str, str]) -> CellResult:
        target, scheme, source = job
        key = f"{target}|{scheme}|{source}"
        values, seeds, flags = [], [], []
        for repeat in range(cfg.repeats):
            seed = cell_seed(cfg.base_seed, key, repeat)
            seeds.append(seed)
            try:
                model = train_cell(splits, target, scheme, source, cfg, n_classes, seed)
                value, _ = _evaluate(model, splits[target].test, cfg.task, n_classes, n_groups)
                values.append(value)
            except DivergenceError as err:
                flags.append(f"repeat {repeat} diverged: {err}")
            except UndefinedMetricError as err:
                flags.append(f"repeat {repeat}: {err} in the target test split")
        if flags and values:
            flags.append(f"aggregated over {len(values)} of {cfg.repeats} repeats")
        return CellResult(target, scheme, source, values, seeds, flags)

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_job, jobs))
    else:
        results = [run_job(job) for job in jobs]
    results.sort(key=lambda c: (c.scheme, c.target, c.source))
    metric = "auroc" if cfg.task == "binary" else "accuracy"
    return EvalReport(cfg.task, metric, ids, list(cfg.schemes), cfg.repeats,
                      cfg.base_seed, cfg.config_hash(), results)


# ---------------------------------------------------------------------------
# Fairness evaluation over the target's full data (train + test together)
# ---------------------------------------------------------------------------

@dataclass
class FairnessCell:
    target: str
    scheme: str
    quality_basis: str
    values: dict[str, list[float]]          # pqd/dpm/eom/quality per repeat
    seeds: list[int]
    sources_averaged: int
    flags: list[str]
    last_report: dict | None = None         # full tables from the last repeat

    def summary(self) -> dict:
        stats = {}
        for key, vals in sorted(self.values.items()):
            stats[key] = {"mean": float(np.mean(vals)), "std": float(np.std(vals))}
        return stats

    def to_dict(self) -> dict:
        return {
            "target": self.target, "scheme": self.scheme,
            "quality_basis": self.quality_basis, "values": self.values,
            "seeds": self.seeds, "sources_averaged": self.sources_averaged,
            "flags": self.flags, "summary": self.summary(),
            "last_report": self.last_report,
        }


@dataclass
class FairnessMatrix:
    task: str
    config_hash: str
    cells: list[FairnessCell]

    def to_dict(self) -> dict:
        return {"task": self.task, "config_hash": self.config_hash,
                "cells": [c.to_dict() for c in self.cells]}


def _full_target(split: SplitPair) -> DomainDataset:
    """Train and test rows back together, for group-level evaluation."""
    full = concat_domains([split.train, split.test])
    return DomainDataset(split.train.domain_id, full.features, full.labels,
                         full.sensitive, full.sample_ids)


def run_fairness(cfg: ExperimentConfig, workers: int = 1) -> FairnessMatrix:
    """Group-fairness evaluation of the configured schemes on each target.

    Single-source schemes report the average over their per-source runs; the
    sensitive attribute is banded through cfg.fairness_bins when given,
    otherwise the stored group ids are used directly.
    """
    schemes = cfg.fairness_schemes if cfg.fairness_schemes is not None else cfg.schemes
    _check_task_schemes(cfg, schemes)
    splits = materialize_domains(cfg)
    n_classes = _global_classes(cfg, splits)
    ids = sorted(splits)

    def run_one(target: str, scheme: str) -> FairnessCell:
        base, _ = parse_scheme(scheme)
        full = _full_target(splits[target])
        groups = (group_partition(full.sensitive, cfg.fairness_bins)
                  if cfg.fairness_bins is not None else full.sensitive)
        n_groups = int(groups.max()) + 1
        sources = [d for d in ids if d != target] if base.startswith("single") else ["-"]
        values: dict[str, list[float]] = {"pqd": [], "dpm": [], "eom": [], "quality": []}
        seeds, flags = [], []
        basis = "auto"
        last: dict | None = None
        for repeat in range(cfg.repeats):
            per_source: dict[str, list[float]] = {k: [] for k in values}
            for source in sources:
                key = f"fairness:{target}|{scheme}|{source}"
                seed = cell_seed(cfg.base_seed, key, repeat)
                seeds.append(seed)
                model = train_cell(splits, target, scheme, source, cfg, n_classes, seed)
                scores = model.scores(full.features)
                pos = scores[:, 1] if n_classes == 2 else None
                pred = PredictionSet(full.labels, np.argmax(scores, axis=1), groups,
                                     n_classes, n_groups, pos)
                report = fairness_report(pred)
                basis = report.quality_basis
                per_source["pqd"].append(report.pqd)
                per_source["dpm"].append(report.dpm)
                per_source["eom"].append(report.eom)
                per_source["quality"].append(report.quality)
                for flag in report.flags:
                    if flag not in flags:
                        flags.append(flag)
                last = report.to_dict()
            for k in values:
                values[k].append(float(np.mean(per_source[k])))
        return FairnessCell(target, scheme, basis, values, seeds, len(sources), flags, last)

    pairs = [(target, scheme) for scheme in schemes for target in ids]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(lambda p: run_one(*p), pairs))
    else:
        cells = [run_one(*p) for p in pairs]
    cells.sort(key=lambda c: (c.scheme, c.target))
    return FairnessMatrix(cfg.task, cfg.config_hash(), cells)


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _format_cell(mean: float | None, std: float | None) -> str:
    if mean is None:
        return "--"
    return f"{100 * mean:.1f}±{100 * (std or 0.0):.1f}"


def emit_report(report: EvalReport, fmt: str = "canonical") -> str:
    """Render an EvalReport.

    "canonical" is stable-key-order JSON (byte-identical for equal inputs);
    "table" is a human grid of percent mean±std cells, one row per source or
    scheme, with * marking every cell within 0.05 points of its column best.
    """
    if fmt == "canonical":
        return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"
    if fmt != "table":
        raise ValueError(f"unknown report format {fmt!r}")

    targets = report.domain_ids
    rows: list[tuple[str, dict[str, CellResult]]] = []
    for scheme in report.schemes:
        cells = [c for c in report.cells if c.scheme == scheme]
        by_source: dict[str, dict[str, CellResult]] = {}
        for c in cells:
            by_source.setdefault(c.source, {})[c.target] = c
        for source in sorted(by_source):
            label = scheme if source in ("combined", "all") else f"{scheme}[{source}]"
            rows.append((label, by_source[source]))

    # per-target best across all rows; ties within 0.05 percent points share the mark
    best: dict[str, float] = {}
    for _, cells in rows:
        for target, cell in cells.items():
            if cell.mean is not None:
                best[target] = max(best.get(target, -np.inf), cell.mean)

    width = max([len(r[0]) for r in rows], default=10) + 2
    header = f"{'':<{width}}" + "".join(f"{t:>14}" for t in targets) + f"{'avg':>14}"
    lines = [f"task: {report.task}  metric: {report.metric}  repeats: {report.repeats}",
             header]
    for label, cells in rows:
        parts = [f"{label:<{width}}"]
        means = []
        for target in targets:
            cell = cells.get(target)
            if cell is None:
                parts.append(f"{'-':>14}")
                continue
            text = _format_cell(cell.mean, cell.std)
            if cell.mean is not None:
                means.append(cell.mean)
                if target in best and (best[target] - cell.mean) * 100 <= 0.05:
                    text += "*"
            if cell.flags:
                text += "!"
            parts.append(f"{text:>14}")
        avg = _format_cell(float(np.mean(means)) if means else None,
                           float(np.std(means)) if means else None)
        parts.append(f"{avg:>14}")
        lines.append("".join(parts))
    return "\n".join(lines) + "\n"


def export_features(extractor: Mlp, data: DomainDataset, path: str | Path) -> None:
    """Write extractor features for external plotting tools.

    CSV layout mirrors dataset files: id,domain,label,sensitive,f0..f{k-1}.
    """
    feats = extract_features(extractor, data.features)
    header = ["id", "domain", "label", "sensitive"] + [f"f{j}" for j in range(feats.shape[1])]
    lines = [",".join(header)]
    for i in range(data.n_samples):
        row = [data.sample_ids[i], data.domain_id, str(int(data.labels[i])),
               str(int(data.sensitive[i]))]
        row += [repr(float(v)) for v in feats[i]]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
