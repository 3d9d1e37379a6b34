"""Config-driven orchestration of the leave-one-domain-out experiment matrix.

Every domain takes a turn as the target; the remaining domains feed the
single-source, combined-source, and multi-source schemes. Cells repeat over
derived seeds and aggregate to mean and standard deviation. Target labels are
hidden from every adaptation trainer by construction: only the unlabeled view
of the target train split ever reaches a UDA operation.
"""

from __future__ import annotations

import hashlib
import io
import json
import zlib
from dataclasses import asdict, dataclass, field
from itertools import product
from pathlib import Path
from typing import Any

import numpy as np

from .adversarial import AdversarialConfig, train_adda, train_dann, train_mdan
from .data import (
    DomainDataset,
    DomainSpec,
    SplitPair,
    check_domain_ids,
    check_fields,
    check_value,
    concat_domains,
    domain_specs,
    generate_domain,
    load_dataset,
    save_dataset,
    spec_to_dict,
    stratified_split,
    within,
)
from .metrics import (
    FairnessReport,
    PredictionSet,
    UndefinedMetricError,
    accuracy,
    auroc,
    fairness_report,
    group_bins,
    group_partition,
)
from .moment import MomentConfig, train_m3sda
from .nn import (
    DivergenceError,
    Mlp,
    ModelBundle,
    TrainConfig,
    forward,
    predict,
    train_erm,
)

# a scheme's source mode: the non-target domains one at a time, pooled into
# one source, or kept apart as several; a pooled mode trains one cell per
# target, under its label here
SINGLE, COMBINED, MULTI = "single", "combined", "multi"
POOLED_LABELS = {COMBINED: "combined", MULTI: "all"}


@dataclass(frozen=True)
class SchemeBase:
    """A scheme base's row: its source mode, the name of the module-global
    trainer train_cell calls, that trainer's config class (TrainConfig: no
    adaptation) and the keys beside train that the scheme's overrides may set."""

    mode: str
    trainer: str
    config: type
    own_keys: tuple[str, ...] = ()


_REVERSAL_KEYS = ("domain_weight", "ramp_fraction", "disc_hidden")
SCHEME_BASES = {
    "single-erm": SchemeBase(SINGLE, "train_erm", TrainConfig),
    "single-dann": SchemeBase(SINGLE, "train_dann", AdversarialConfig, _REVERSAL_KEYS),
    "combined-erm": SchemeBase(COMBINED, "train_erm", TrainConfig),
    "combined-dann": SchemeBase(COMBINED, "train_dann", AdversarialConfig, _REVERSAL_KEYS),
    "combined-adda": SchemeBase(COMBINED, "train_adda", AdversarialConfig, (
        "disc_hidden", "pretrain_epochs", "adapt_epochs", "adapt_learning_rate")),
    "multi-mdan": SchemeBase(MULTI, "train_mdan", AdversarialConfig, (*_REVERSAL_KEYS, "gamma")),
    "multi-m3sda": SchemeBase(MULTI, "train_m3sda", MomentConfig, (
        "align_weight", "discrepancy_weight", "holdout_ratio")),
}


def parse_scheme(name: str) -> tuple[SchemeBase, bool]:
    """The row of a scheme name's base, and whether the name carries the
    class-rebalancing "rs-" prefix."""
    resample = isinstance(name, str) and name.startswith("rs-")
    base = name[3:] if resample else name
    if not isinstance(name, str) or base not in SCHEME_BASES:
        raise ValueError(f"unknown scheme {name!r}; bases are {list(SCHEME_BASES)}")
    return SCHEME_BASES[base], resample


def check_scheme(scheme: str, cfg: ExperimentConfig) -> SchemeBase:
    """The scheme's row, once the scheme fits the experiment: a multi-source
    trainer needs two sources beside the target, and a multiclass task takes
    no single-source adaptation. Raise ValueError otherwise."""
    row = parse_scheme(scheme)[0]
    n_domains = len(cfg.domains if cfg.domains is not None else cfg.dataset_paths)
    need = 3 if row.mode == MULTI else 2
    if n_domains < need:
        raise ValueError(f"{scheme} needs at least {need} domains ({need - 1} sources), "
                         f"the experiment has {n_domains}")
    if cfg.task == "multiclass" and row.mode == SINGLE and row.config is not TrainConfig:
        raise ValueError(f"{scheme} is single-source UDA, rejected for multiclass tasks "
                         "(target classes may be absent from a single source); use combined "
                         "or multi schemes")
    return row


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
        check_fields(self)
        if self.task not in ("binary", "multiclass"):
            raise ValueError(f"task must be binary or multiclass, got {self.task!r}")
        for key in ("schemes", "fairness_schemes"):
            if getattr(self, key) == []:
                raise ValueError(f"{key} must name at least one scheme")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ValueError(f"split_ratio must be in (0, 1), got {self.split_ratio}")
        if self.n_classes is not None and self.n_classes < 2:
            raise ValueError("n_classes must be >= 2")
        if self.task == "binary" and self.n_classes not in (None, 2):
            raise ValueError(f"n_classes: a binary task needs exactly 2 classes, "
                             f"got {self.n_classes}")
        if (self.domains is None) == (self.dataset_paths is None):
            raise ValueError("provide exactly one of domains (specs) or dataset_paths")
        n = len(self.domains) if self.domains is not None else len(self.dataset_paths)
        if n < 2:
            raise ValueError("need at least 2 domains")
        check_domain_ids(self.domains or [])
        for i, entry in enumerate(self.dataset_paths or []):
            paths = (list(entry.values())
                     if isinstance(entry, dict) and entry.keys() == {"train", "test"} else [entry])
            if not all(isinstance(p, str) and p for p in paths):
                raise ValueError(f"dataset_paths[{i}] must be a non-empty path or an object with "
                                 f"exactly the paths train and test, got {entry!r}")
        if self.fairness_bins is not None:
            within("fairness_bins: ", lambda: group_bins(self.fairness_bins))
        named = [(key, f"{key}[{i}]", scheme) for key in ("schemes", "fairness_schemes")
                 for i, scheme in enumerate(getattr(self, key) or [])]
        named += [("scheme_overrides", f"scheme_overrides.{scheme}", scheme)
                  for scheme in self.scheme_overrides]
        first: dict[tuple[str, str], str] = {}      # (key, scheme) -> path of its first entry
        for key, path, scheme in named:
            within(f"{path}: ", lambda: check_scheme(scheme, self))
            trainer_config(self, scheme, self.n_classes, 0)
            earlier = first.setdefault((key, scheme), path)
            if earlier != path:
                raise ValueError(f"{path}: {scheme} is already {earlier}")

    @staticmethod
    def from_dict(payload: dict) -> "ExperimentConfig":
        payload = dict(check_value("experiment config", payload, dict))
        unknown = set(payload) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment config fields {sorted(unknown)}")
        missing = sorted({"task", "schemes"} - set(payload))
        if missing:
            raise ValueError(f"experiment config is missing fields {missing}")
        if payload.get("domains") is not None:
            payload["domains"] = domain_specs(payload["domains"])
        return ExperimentConfig(**payload)

    def to_dict(self) -> dict:
        payload = {f: getattr(self, f) for f in self.__dataclass_fields__}
        if self.domains is not None:
            payload["domains"] = [spec_to_dict(s) for s in self.domains]
        return payload

    def config_hash(self) -> str:
        canon = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canon.encode()).hexdigest()[:16]


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(
        within(f"{path}: ", lambda: json.loads(Path(path).read_text(encoding="utf-8"))))


def cell_seed(base_seed: int, cell_key: str, repeat: int) -> int:
    """base + repeat + hash(cell key), kept in the nonnegative 63-bit range
    so no two cells accidentally share a seed stream."""
    return (base_seed + repeat + zlib.crc32(cell_key.encode())) % (2 ** 63)


def materialize_domains(cfg: ExperimentConfig) -> dict[str, SplitPair]:
    """Generate or load every domain and fix its train/test split.

    Splits are keyed on (base_seed, domain id) so repeats reuse them.
    """
    splits: dict[str, SplitPair] = {}
    where = "domains" if cfg.domains is not None else "dataset_paths"
    for i, entry in enumerate(getattr(cfg, where)):
        if isinstance(entry, dict):
            train = load_dataset(entry["train"])
            test = load_dataset(entry["test"])
            if train.domain_id != test.domain_id:
                raise ValueError(
                    f"pre-split pair mixes domains {train.domain_id!r} and {test.domain_id!r}")
            pair = SplitPair(train, test)
        else:
            data = generate_domain(entry) if isinstance(entry, DomainSpec) else load_dataset(entry)
            seed = cell_seed(cfg.base_seed, f"split:{data.domain_id}", 0)
            pair = stratified_split(data, cfg.split_ratio, seed)
        if pair.train.domain_id in splits:
            raise ValueError(f"{where}[{i}]: domain id {pair.train.domain_id!r} is already "
                             "the id of an earlier entry")
        splits[pair.train.domain_id] = pair
    return splits


@dataclass
class Grid:
    """An experiment made ready to train: its config, the fixed split of
    every domain, and the class count over all of them."""

    cfg: ExperimentConfig
    splits: dict[str, SplitPair]
    n_classes: int

    @property
    def ids(self) -> list[str]:
        return sorted(self.splits)

    @property
    def metric(self) -> str:
        """The task's metric: AUROC for a binary task, else accuracy."""
        return "auroc" if self.cfg.task == "binary" else "accuracy"

    def task_metric(self, model: ModelBundle, target: str) -> float:
        """The task's metric on the target's test split."""
        test = self.splits[target].test
        pred = prediction_set(model, test, test.sensitive)
        return auroc(pred.scores, test.labels) if self.metric == "auroc" else accuracy(pred)

    def fairness_groups(self, target: str) -> np.ndarray:
        """Each row's group in the target's full data (train, then test rows):
        its sensitive value, banded through cfg.fairness_bins if given. Every
        id up to the largest must hold a row."""
        split, bins = self.splits[target], self.cfg.fairness_bins
        sensitive = np.concatenate([split.train.sensitive, split.test.sensitive])
        where = f"fairness_bins: domain {target!r}: "
        groups = sensitive if bins is None else within(
            where, lambda: group_partition(sensitive, bins))
        empty = np.flatnonzero(np.bincount(groups) == 0)
        if empty.size:
            raise ValueError(f"{where}group {empty[0]} of 0 to {groups.max()} is empty")
        return groups

    def fairness(self, model: ModelBundle, target: str) -> FairnessReport:
        """fairness_report over the target's full data, in fairness_groups."""
        full = concat_domains([self.splits[target].train, self.splits[target].test])
        return fairness_report(prediction_set(model, full, self.fairness_groups(target)))


def prediction_set(model: ModelBundle, data: DomainDataset, groups: np.ndarray) -> PredictionSet:
    """The model's argmax labels on data, in groups (ids 0 to their largest),
    with positive-class scores when it has two classes."""
    scores, labels = predict(model, data.features)
    pos = scores[:, 1] if scores.shape[1] == 2 else None
    n_groups = int(groups.max(initial=0)) + 1
    return PredictionSet(data.labels, labels, groups, scores.shape[1], n_groups, pos)


def open_grid(cfg: ExperimentConfig) -> Grid:
    """Materialize the domains, check that they share one feature width, and
    count classes (cfg.n_classes when set, which every domain's labels must
    fit). The schemes were checked when cfg was made."""
    splits = materialize_domains(cfg)
    first = next(iter(splits.values())).train
    for domain, pair in splits.items():
        if {pair.train.dim, pair.test.dim} != {first.dim}:
            raise ValueError(f"domain {domain!r} has dim {pair.train.dim} (train) and "
                             f"{pair.test.dim} (test); domain {first.domain_id!r} has {first.dim}")
    classes = {domain: 1 + int(max(d.labels.max(initial=0) for d in (pair.train, pair.test)))
               for domain, pair in splits.items()}
    n_classes = max(classes.values()) if cfg.n_classes is None else int(cfg.n_classes)
    for domain, found in classes.items():
        if found > n_classes:
            raise ValueError(f"n_classes: {n_classes}, but domain {domain!r} has label {found - 1}")
    if cfg.task == "binary" and n_classes != 2:
        raise ValueError(f"binary task needs exactly 2 classes, found {n_classes}")
    return Grid(cfg, splits, n_classes)


# single-source arms default to a gentler rate; any explicit setting wins
SINGLE_SOURCE_LEARNING_RATE = 1e-4


def trainer_config(cfg: ExperimentConfig, scheme: str, n_classes: int | None,
                   seed: int) -> TrainConfig | AdversarialConfig | MomentConfig:
    """The whole config of the scheme's trainer: its row's config class, a
    TrainConfig alone or an AdversarialConfig or MomentConfig around one.

    Settings come from cfg.train, then the scheme's overrides, which alone may
    set the row's own keys; single-source schemes default learning_rate to
    SINGLE_SOURCE_LEARNING_RATE. The harness sets seed, resample (the "rs-"
    prefix) and n_classes, so the config may not. A bad setting raises
    ValueError naming its path (scheme_overrides.multi-mdan.gamma).
    """
    row, resample = parse_scheme(scheme)
    where = f"scheme_overrides.{scheme}"
    overrides = check_value(where, cfg.scheme_overrides.get(scheme, {}), dict)
    fixed = {"n_classes": n_classes, "resample": resample, "seed": seed}
    train_keys = TrainConfig.__dataclass_fields__.keys() - fixed.keys()
    settings = {"learning_rate": SINGLE_SOURCE_LEARNING_RATE} if row.mode == SINGLE else {}
    for path, label, given, allowed in (("train", "train", cfg.train, train_keys),
                                        (where, "override", overrides,
                                         train_keys | set(row.own_keys))):
        set_here = sorted(given.keys() & fixed.keys())
        if set_here:
            raise ValueError(f"{path}.{set_here[0]} is set by the harness (seed per cell, "
                             "resample by the rs- prefix, n_classes by the experiment or data)")
        unknown = sorted(given.keys() - allowed)
        if unknown:
            raise ValueError(f"{path}.{unknown[0]}: unknown {label} keys {unknown} for "
                             f"{scheme}; its trainer reads {sorted(allowed)}")
        settings.update((k, v) for k, v in given.items() if k in train_keys)
        train = within(f"{path}.", lambda: TrainConfig(**settings, **fixed))
    if row.config is TrainConfig:
        return train
    own = {k: v for k, v in overrides.items() if k in row.own_keys}
    return within(f"{where}.", lambda: row.config(train=train, **own))


def scheme_sources(scheme: str, ids: list[str], target: str) -> list[str]:
    """The source labels of a scheme's cells on one target: every other
    domain for single-source schemes, else the mode's pooled label."""
    mode = parse_scheme(scheme)[0].mode
    return [d for d in ids if d != target] if mode == SINGLE else [POOLED_LABELS[mode]]


def train_cell(splits: dict[str, SplitPair], target_id: str, scheme: str,
               source_label: str, cfg: ExperimentConfig, n_classes: int,
               seed: int) -> ModelBundle:
    """Train one (target, scheme, source) cell with target labels hidden:
    pick the sources and configs, and return the trainer's model."""
    row = parse_scheme(scheme)[0]
    config = trainer_config(cfg, scheme, n_classes, seed)
    target = splits[target_id].train.unlabeled()
    sources = [splits[d].train for d in splits if d != target_id]
    data = (splits[source_label].train if row.mode == SINGLE
            else concat_domains(sources) if row.mode == COMBINED else sources)

    # the trainer is looked up by its module-global name on each call, never
    # held as a function object, so that patching this module's attributes
    # reaches it
    trainer = globals()[row.trainer]
    if row.config is TrainConfig:     # no adaptation: the target is not read
        return trainer(data, config)
    return trainer(data, target, config)


@dataclass
class CellRun:
    """One (cell, repeat): its seed, its model and score (None when training
    diverged or the metric was undefined), and its flags: the failure, or the
    warnings of its model's record."""

    seed: int
    model: ModelBundle | None = None
    score: Any = None
    flags: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.model is None


def run_cell(grid: Grid, target: str, scheme: str, source: str, repeat: int,
             fairness: bool = False) -> CellRun:
    """Train and score one (cell, repeat): the path of run_matrix,
    run_fairness and CLI train alike.

    The plain score is grid.task_metric on the target's test split; with
    fairness=True it is grid.fairness over the full target, and the seed key
    gains a "fairness:" prefix. A DivergenceError or UndefinedMetricError
    becomes the run's one flag instead of propagating; an undefined metric in
    scoring, not in training, also names the target data. numpy's floating-point
    warnings are recorded, not printed: a failed run's flag names them, and a
    trained run appends them to its record's warnings, which become its flags.
    """
    key = f"{'fairness:' if fairness else ''}{target}|{scheme}|{source}"
    seed = cell_seed(grid.cfg.base_seed, key, repeat)
    label = f"repeat {repeat}" + (f" source {source}" if fairness and source != "-" else "")
    log = io.StringIO()     # numpy writes one "Warning: ..." line per warning here
    flag = where = None
    try:
        with np.errstate(divide="log", over="log", invalid="log", call=log):
            model = train_cell(grid.splits, target, scheme, source, grid.cfg, grid.n_classes, seed)
            where = "full target" if fairness else "target test split"
            score = grid.fairness(model, target) if fairness else grid.task_metric(model, target)
    except DivergenceError as err:
        flag = f"{label} diverged: {err}"
    except UndefinedMetricError as err:
        flag = f"{label}: {err}" + (f" in the {where}" if where else "")
    warned = list(dict.fromkeys(log.getvalue().replace("Warning: ", "numpy: ").splitlines()))
    if flag is not None:
        return CellRun(seed, flags=[f"{flag} ({'; '.join(warned)})" if warned else flag])
    model.record.warnings += warned
    return CellRun(seed, model, score, [f"{label}: {w}" for w in model.record.warnings])


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
        return self._averages("target")

    def row_averages(self) -> dict[str, dict[str, float]]:
        """Per (scheme, source): average of cell means over targets."""
        return self._averages("source")

    def _averages(self, axis: str) -> dict[str, dict[str, float]]:
        """Per scheme: the average of cell means for each value of their `axis`."""
        out: dict[str, dict[str, float]] = {}
        for scheme in self.schemes:
            cells = [c for c in self.cells if c.scheme == scheme and c.mean is not None]
            out[scheme] = {}
            for key in sorted({getattr(c, axis) for c in cells}):
                out[scheme][key] = float(np.mean([c.mean for c in cells
                                                  if getattr(c, axis) == key]))
        return out

    def to_dict(self) -> dict:
        return {**asdict(self), "cells": [c.to_dict() for c in self.cells],
                "column_averages": self.column_averages(),
                "row_averages": self.row_averages()}


def run_matrix(cfg: ExperimentConfig) -> EvalReport:
    """Train and evaluate every (target, scheme, source) cell of the grid."""
    grid = open_grid(cfg)
    ids = grid.ids
    jobs = [(target, scheme, source) for scheme in cfg.schemes for target in ids
            for source in scheme_sources(scheme, ids, target)]

    results = []
    for job in jobs:
        runs = [run_cell(grid, *job, repeat) for repeat in range(cfg.repeats)]
        values = [r.score for r in runs if not r.failed]
        flags = [flag for r in runs for flag in r.flags]
        if 0 < len(values) < cfg.repeats:
            flags.append(f"aggregated over {len(values)} of {cfg.repeats} repeats")
        results.append(CellResult(*job, values, [r.seed for r in runs], flags))
    results.sort(key=lambda c: (c.scheme, c.target, c.source))
    return EvalReport(cfg.task, grid.metric, ids, list(cfg.schemes), cfg.repeats,
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


def run_fairness(cfg: ExperimentConfig) -> FairnessMatrix:
    """Group-fairness evaluation of the configured schemes on each target.

    Single-source schemes report the average over their per-source runs; the
    sensitive attribute is banded through cfg.fairness_bins when given,
    otherwise the stored group ids are used directly. A (repeat, source) run
    that diverges or has an undefined metric is flagged and counted in
    failed_runs; each repeat averages its surviving sources.
    """
    schemes = cfg.fairness_schemes if cfg.fairness_schemes is not None else cfg.schemes
    grid = open_grid(cfg)
    for target in grid.ids:
        grid.fairness_groups(target)      # bad bins or an empty group fail before any training
    cells = []
    for scheme, target in product(schemes, grid.ids):
        single = parse_scheme(scheme)[0].mode == SINGLE
        sources = scheme_sources(scheme, grid.ids, target) if single else ["-"]
        runs = [[run_cell(grid, target, scheme, source, repeat, fairness=True)
                 for source in sources] for repeat in range(cfg.repeats)]
        every = [run for repeat in runs for run in repeat]
        scored = [reports for repeat in runs
                  if (reports := [run.score for run in repeat if not run.failed])]
        last = scored[-1][-1] if scored else None
        values = {k: [float(np.mean([getattr(r, k) for r in reports])) for reports in scored]
                  for k in ("pqd", "dpm", "eom", "quality")}
        flags = list(dict.fromkeys(flag for run in every for flag in
                                   run.flags + ([] if run.failed else run.score.flags)))
        cells.append(FairnessCell(
            target, scheme, last.quality_basis if last else "auto", values,
            [run.seed for run in every], len(sources), flags,
            last.to_dict() if last else None, sum(run.failed for run in every)))
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
            label = scheme if source in POOLED_LABELS.values() else f"{scheme}[{source}]"
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
    """Write extractor features for external plotting tools, as a dataset
    file (id,domain,label,sensitive,f0..f{k-1}) through save_dataset."""
    feats, _ = forward(extractor, data.features)
    save_dataset(DomainDataset(data.domain_id, feats, data.labels, data.sensitive,
                               data.sample_ids), path)
