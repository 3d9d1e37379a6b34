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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

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
    spec_to_dict,
    stratified_split,
)
from .metrics import (
    FairnessReport,
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
    "Grid",
    "open_grid",
    "TrainedCell",
    "train_cell",
    "CellRun",
    "run_cell",
    "run_matrix",
    "run_fairness",
    "emit_report",
    "export_features",
]

SCHEME_BASES = (
    "single-erm", "single-dann", "combined-erm", "combined-dann",
    "combined-adda", "multi-mdan", "multi-m3sda",
)

_ADV_KEYS = set(AdversarialConfig.__dataclass_fields__) - {"train"}
_MOMENT_KEYS = set(MomentConfig.__dataclass_fields__) - {"train"}
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
        payload = {f: getattr(self, f) for f in self.__dataclass_fields__}
        payload["schemes"] = list(self.schemes)
        if self.domains is not None:
            payload["domains"] = [spec_to_dict(s) for s in self.domains]
        return payload

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def cell_seed(base_seed: int, cell_key: str, repeat: int) -> int:
    """base + repeat + hash(cell key), kept in the nonnegative 63-bit range
    so no two cells accidentally share a seed stream."""
    return (base_seed + repeat + zlib.crc32(cell_key.encode())) % (2 ** 63)


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


@dataclass
class Grid:
    """An experiment made ready to train: its config, the fixed split of
    every domain, and the class and group counts over all of them."""

    cfg: ExperimentConfig
    splits: dict[str, SplitPair]
    n_classes: int
    n_groups: int

    @property
    def ids(self) -> list[str]:
        return sorted(self.splits)

    def predictions(self, model: TrainedCell, data: DomainDataset, groups: np.ndarray,
                    n_groups: int) -> PredictionSet:
        scores = model.scores(data.features)
        pos = scores[:, 1] if self.n_classes == 2 else None
        return PredictionSet(data.labels, np.argmax(scores, axis=1), groups,
                             self.n_classes, n_groups, pos)

    def task_metric(self, model: TrainedCell, target: str) -> float:
        """AUROC (binary) or accuracy (multiclass) on the target's test split."""
        test = self.splits[target].test
        pred = self.predictions(model, test, test.sensitive, self.n_groups)
        return auroc(pred.scores, test.labels) if self.cfg.task == "binary" else accuracy(pred)

    def fairness(self, model: TrainedCell, target: str) -> FairnessReport:
        """fairness_report over the target's full data (train and test rows),
        with the sensitive attribute banded through cfg.fairness_bins if given."""
        split = self.splits[target]
        full = concat_domains([split.train, split.test])
        groups = (group_partition(full.sensitive, self.cfg.fairness_bins)
                  if self.cfg.fairness_bins is not None else full.sensitive)
        return fairness_report(self.predictions(model, full, groups, int(groups.max()) + 1))


def open_grid(cfg: ExperimentConfig, schemes: list[str]) -> Grid:
    """Check the schemes against the task, materialize the domains, and count
    classes (cfg.n_classes when set) and sensitive groups."""
    if cfg.task == "multiclass":
        for scheme in schemes:
            if parse_scheme(scheme)[0] == "single-dann":
                raise ValueError(
                    "single-source UDA is rejected for multiclass tasks (target classes "
                    "may be absent from a single source); use combined or multi schemes")
    splits = materialize_domains(cfg)

    def count(attr: str) -> int:
        return 1 + int(max(getattr(d, attr).max(initial=0)
                           for p in splits.values() for d in (p.train, p.test)))

    n_classes = int(cfg.n_classes) if cfg.n_classes is not None else count("labels")
    if cfg.task == "binary" and n_classes != 2:
        raise ValueError(f"binary task needs exactly 2 classes, found {n_classes}")
    return Grid(cfg, splits, n_classes, count("sensitive"))


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
    """A trained model, how to predict with it, and the TrainConfig and
    RunRecord that produced it."""

    extractor: Mlp
    classifiers: list[Mlp]
    train_config: TrainConfig
    record: RunRecord
    ensemble_rule: str = "single"
    source_accuracies: list[float] | None = None

    def scores(self, x: np.ndarray) -> np.ndarray:
        if self.ensemble_rule == "single":
            return predict(self.extractor, self.classifiers[0], x)[0]
        return ensemble_predict(self.extractor, self.classifiers, x,
                                rule=self.ensemble_rule,
                                accuracies=self.source_accuracies)[0]

    def bundle(self) -> ModelBundle:
        weights = None
        if self.ensemble_rule == "accuracy" and self.source_accuracies:
            total = sum(self.source_accuracies)
            weights = [a / total for a in self.source_accuracies]
        elif self.ensemble_rule == "uniform":
            weights = [1.0 / len(self.classifiers)] * len(self.classifiers)
        return ModelBundle(self.extractor, self.classifiers, weights,
                           self.train_config.to_dict(), self.train_config.seed)


def train_cell(splits: dict[str, SplitPair], target_id: str, scheme: str,
               source_label: str, cfg: ExperimentConfig, n_classes: int,
               seed: int) -> TrainedCell:
    """Train one (target, scheme, source) cell with target labels hidden."""
    base, _ = parse_scheme(scheme)
    tcfg, adv, mom = _build_configs(cfg, scheme, n_classes, seed)
    target = splits[target_id].train.unlabeled()
    sources = [splits[d].train for d in splits if d != target_id]
    if base.startswith("single"):
        sources = [splits[source_label].train]
    elif base.startswith("combined"):
        sources = [concat_domains(sources)]

    if base == "multi-m3sda":
        mres = train_m3sda(sources, target, MomentConfig(train=tcfg, **mom))
        return TrainedCell(mres.extractor, mres.classifiers, tcfg, mres.record,
                           mres.ensemble_rule, mres.source_accuracies)
    if base.endswith("-erm"):
        res = train_erm(sources[0], tcfg)
    elif base == "multi-mdan":
        res = train_mdan(sources, target, AdversarialConfig(train=tcfg, **adv))
    else:
        trainer = train_adda if base == "combined-adda" else train_dann
        res = trainer(sources[0], target, AdversarialConfig(train=tcfg, **adv))
    return TrainedCell(res.extractor, [res.classifier], tcfg, res.record)


@dataclass
class CellRun:
    """One (cell, repeat): its seed, then its model and score, or the flag
    that replaced them when training diverged or the metric was undefined."""

    seed: int
    model: TrainedCell | None = None
    score: Any = None
    flag: str | None = None


def run_cell(grid: Grid, target: str, scheme: str, source: str, repeat: int,
             fairness: bool = False) -> CellRun:
    """Train and score one (cell, repeat): the path of run_matrix,
    run_fairness and CLI train alike.

    The plain score is grid.task_metric on the target's test split; with
    fairness=True it is grid.fairness over the full target, and the seed key
    gains a "fairness:" prefix. A DivergenceError or UndefinedMetricError
    becomes the run's flag instead of propagating.
    """
    key = f"{'fairness:' if fairness else ''}{target}|{scheme}|{source}"
    seed = cell_seed(grid.cfg.base_seed, key, repeat)
    label = f"repeat {repeat}" + (f" source {source}" if fairness and source != "-" else "")
    try:
        model = train_cell(grid.splits, target, scheme, source, grid.cfg, grid.n_classes, seed)
        score = grid.fairness(model, target) if fairness else grid.task_metric(model, target)
        return CellRun(seed, model, score)
    except DivergenceError as err:
        return CellRun(seed, flag=f"{label} diverged: {err}")
    except UndefinedMetricError as err:
        where = "full target" if fairness else "target test split"
        return CellRun(seed, flag=f"{label}: {err} in the {where}")


def _pool_map(fn: Callable, items: Iterable, workers: int) -> list:
    """fn over items, on a thread pool of that many workers when above 1."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


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
        return {**asdict(self), "mean": self.mean, "std": self.std}


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
        return {**asdict(self), "cells": [c.to_dict() for c in self.cells],
                "column_averages": self.column_averages(),
                "row_averages": self.row_averages()}


def run_matrix(cfg: ExperimentConfig, workers: int = 1) -> EvalReport:
    """Train and evaluate every (target, scheme, source) cell of the grid."""
    grid = open_grid(cfg, cfg.schemes)
    ids = grid.ids
    jobs: list[tuple[str, str, str]] = []
    for scheme in cfg.schemes:
        base, _ = parse_scheme(scheme)
        for target in ids:
            if base.startswith("single"):
                jobs += [(target, scheme, src) for src in ids if src != target]
            else:
                jobs.append((target, scheme, "combined" if base.startswith("combined") else "all"))

    def run_job(job: tuple[str, str, str]) -> CellResult:
        runs = [run_cell(grid, *job, repeat) for repeat in range(cfg.repeats)]
        values = [r.score for r in runs if r.flag is None]
        flags = [r.flag for r in runs if r.flag is not None]
        if flags and values:
            flags.append(f"aggregated over {len(values)} of {cfg.repeats} repeats")
        return CellResult(*job, values, [r.seed for r in runs], flags)

    results = _pool_map(run_job, jobs, workers)
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
    values: dict[str, list[float]]          # pqd/dpm/eom/quality per surviving repeat
    seeds: list[int]
    sources_averaged: int
    flags: list[str]
    last_report: dict | None = None         # full tables from the last surviving run
    failed_runs: int = 0                    # (repeat, source) runs flagged, not scored

    def summary(self) -> dict:
        stats = {}
        for key, vals in sorted(self.values.items()):
            stats[key] = ({"mean": float(np.mean(vals)), "std": float(np.std(vals))}
                          if vals else {"mean": None, "std": None})
        return stats

    def to_dict(self) -> dict:
        payload = {k: v for k, v in asdict(self).items() if k != "failed_runs"}
        return {**payload, "summary": self.summary()}


@dataclass
class FairnessMatrix:
    task: str
    config_hash: str
    cells: list[FairnessCell]

    def to_dict(self) -> dict:
        return {"task": self.task, "config_hash": self.config_hash,
                "cells": [c.to_dict() for c in self.cells]}


def run_fairness(cfg: ExperimentConfig, workers: int = 1) -> FairnessMatrix:
    """Group-fairness evaluation of the configured schemes on each target.

    Single-source schemes report the average over their per-source runs; the
    sensitive attribute is banded through cfg.fairness_bins when given,
    otherwise the stored group ids are used directly. A (repeat, source) run
    that diverges or has an undefined metric is flagged and counted in
    failed_runs; each repeat averages its surviving sources.
    """
    schemes = cfg.fairness_schemes if cfg.fairness_schemes is not None else cfg.schemes
    grid = open_grid(cfg, schemes)

    def run_one(pair: tuple[str, str]) -> FairnessCell:
        target, scheme = pair
        base, _ = parse_scheme(scheme)
        sources = [d for d in grid.ids if d != target] if base.startswith("single") else ["-"]
        values: dict[str, list[float]] = {"pqd": [], "dpm": [], "eom": [], "quality": []}
        seeds, flags, failed = [], [], 0
        basis, last = "auto", None
        for repeat in range(cfg.repeats):
            reports = []
            for source in sources:
                run = run_cell(grid, target, scheme, source, repeat, fairness=True)
                seeds.append(run.seed)
                if run.flag is not None:
                    flags.append(run.flag)
                    failed += 1
                    continue
                reports.append(run.score)
                for flag in run.score.flags:
                    if flag not in flags:
                        flags.append(flag)
            if reports:
                basis, last = reports[-1].quality_basis, reports[-1].to_dict()
                for k in values:
                    values[k].append(float(np.mean([getattr(r, k) for r in reports])))
        return FairnessCell(target, scheme, basis, values, seeds, len(sources), flags, last,
                            failed)

    cells = _pool_map(run_one, [(target, scheme) for scheme in schemes for target in grid.ids],
                      workers)
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
