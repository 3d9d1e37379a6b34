"""The benchmark's three workloads.

Each workload makes its input files from the run's seed, names the udakit
commands of one round, counts the operations a round attempts and fails,
and checks the outputs against the reference computations in checks.py.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

import checks

BATCH = 64
TRAIN = {"epochs": 60, "learning_rate": 3e-3, "momentum": 0.5}

# The pinned grid: all seven scheme bases on fixed domains and training seeds.
GRID_SCHEMES = ("single-erm", "single-dann", "combined-erm", "rs-combined-dann",
                "rs-multi-m3sda", "multi-mdan", "combined-adda")
GRID_BASE_SEED = 7
# A trained cell must reach within this much of the Bayes rule's AUROC on its
# target (60 test rows); a collapsed network scores about 0.5. A value below
# the margin is a failed operation. The grid's inputs do not depend on the
# run's seed, so the same values fail in every run.
BAYES_MARGIN = 0.3

FAIRNESS_SCHEMES = ("single-erm", "combined-erm", "rs-combined-dann", "multi-mdan",
                    "rs-multi-m3sda")
FAIRNESS_PRESETS = ("isic2018", "pad", "fitz", "d7pt")
FAIRNESS_CLASSES = (0, 1, 2, 3)

SHIFT_SIZES = (1200, 1800, 2400, 3000, 3600)
SHIFT_DIM = 16
SHIFT_PROJECTIONS = 256
SHIFT_DELTA_NORM = math.sqrt(2.0)

_TRAINER_OF = {"erm": "nn.train_erm", "dann": "adversarial.train_dann",
               "mdan": "adversarial.train_mdan", "m3sda": "moment.train_m3sda"}


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


class Workload:
    """One workload's inputs, commands and checks, rooted in a work directory."""

    name = ""
    repeats = 1
    threads = 1             # threads the commands train or compute on
    ops_per_round = 0       # known once setup() has run

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self) -> None:
        """Write the input files and reject inputs on which an operation would fail."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def failed_ops(self, codes: list[int]) -> int:
        raise NotImplementedError

    def outputs(self) -> list[Path]:
        raise NotImplementedError

    def digest(self) -> str:
        return _digest(*self.outputs())

    def check(self) -> list[str]:
        """Messages for every failed check; empty when the outputs are right."""
        raise NotImplementedError

    def expected_steps(self) -> dict[str, int]:
        """sgd_step calls per trainer in one round, from the config alone."""
        return {}


class _Training(Workload):
    """Shared by the two workloads that train cells through the harness."""

    task = ""
    n_classes = 0
    n_samples = 0
    schemes: tuple[str, ...] = ()
    base_seed = 0

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._splits = None

    def _write_config(self, domains: list[dict]) -> None:
        self.cfg = {"task": self.task, "schemes": list(self.schemes), "domains": domains,
                    "repeats": self.repeats, "base_seed": self.base_seed,
                    "n_classes": self.n_classes, "train": TRAIN}
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.cfg, indent=2), encoding="utf-8")

    @property
    def config_path(self) -> Path:
        return self.workdir / "experiment.json"

    @property
    def report_path(self) -> Path:
        return self.workdir / "report.json"

    def outputs(self) -> list[Path]:
        return [self.report_path]

    def _generate(self) -> dict:
        from udakit.data import generate_domain, spec_from_dict

        return {d["domain_id"]: generate_domain(spec_from_dict(d)) for d in self.cfg["domains"]}

    def _trainings(self) -> list[tuple[str, str, str]]:
        """(target, scheme, source) of every model one repeat trains."""
        ids = sorted(d["domain_id"] for d in self.cfg["domains"])
        out = []
        for scheme in self.schemes:
            base = scheme[3:] if scheme.startswith("rs-") else scheme
            for target in ids:
                if base.startswith("single"):
                    out += [(target, scheme, s) for s in ids if s != target]
                else:
                    out.append((target, scheme, "combined" if base.startswith("combined") else "all"))
        return out

    def expected_steps(self) -> dict[str, int]:
        epochs = TRAIN["epochs"]
        steps: dict[str, int] = {}

        def add(trainer: str, rows: int, per_batch: int = 1) -> None:
            steps[trainer] = steps.get(trainer, 0) + per_batch * epochs * -(-rows // BATCH)

        for target, scheme, source in self._trainings():
            base = (scheme[3:] if scheme.startswith("rs-") else scheme).split("-")
            others = [self.n_train[d] for d in sorted(self.n_train) if d != target]
            if base[0] == "single":
                add(_TRAINER_OF[base[1]], self.n_train[source])
            elif base[0] == "combined" and base[1] == "adda":
                add("nn.train_erm", sum(others))
                add("adversarial.train_adda", sum(others), per_batch=2)
            elif base[0] == "combined":
                add(_TRAINER_OF[base[1]], sum(others))
            else:
                add(_TRAINER_OF[base[1]], max(others))
        return {k: v * self.repeats for k, v in steps.items()}

    def _retrain(self, target: str, scheme: str, source: str, seed: int):
        """The harness's model for one cell and seed, with the target's split."""
        from udakit.harness import ExperimentConfig, materialize_domains, train_cell

        cfg = ExperimentConfig.from_dict(self.cfg)
        if self._splits is None:
            self._splits = materialize_domains(cfg)
        model = train_cell(self._splits, target, scheme, source, cfg, self.n_classes, seed)
        return model, self._splits[target]


class GridBinary(_Training):
    """`udakit matrix` on the pinned binary grid.

    The inputs are the same for every seed; the seed picks which cells the
    pair-count check retrains.
    """

    name = "grid-binary"
    task = "binary"
    n_classes = 2
    n_samples = 300
    schemes = GRID_SCHEMES
    base_seed = GRID_BASE_SEED
    repeats = 3

    def setup(self) -> None:
        mixes = [(0.8, 0.2), (0.55, 0.45), (0.3, 0.7)]
        domains = []
        for i in range(3):
            means = np.array([[0.0, 0.0], [2.6, 0.0]]) + np.array([0.4, 0.2]) * i
            domains.append({"domain_id": f"d{i}", "n_samples": self.n_samples, "dim": 2,
                            "class_means": means.tolist(), "class_cov_scale": 0.9,
                            "label_distribution": list(mixes[i]),
                            "sensitive_distribution": [1.0],
                            "sensitive_mean_offset": [[0.0, 0.0]],
                            "seed": 40 + i})
        self._write_config(domains)
        self.n_train = {did: data.n_samples - checks.n_test_rows(data.labels)
                        for did, data in self._generate().items()}
        self.ops_per_round = len(self._trainings()) * self.repeats

    def commands(self) -> list[list[str]]:
        return [["matrix", "--config", str(self.config_path), "--out", str(self.report_path),
                 "--workers", "1"]]

    def failed_ops(self, codes: list[int]) -> int:
        """Repeats missing from the report, plus trained values that collapsed."""
        if codes[0] not in (0, 2):
            return self.ops_per_round
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        return sum(self.repeats - len(c["values"]) + len(self.collapsed(c))
                   for c in report["cells"])

    def collapsed(self, cell: dict) -> list[float]:
        """The cell's values further than BAYES_MARGIN below the Bayes rule's AUROC."""
        spec = next(d for d in self.cfg["domains"] if d["domain_id"] == cell["target"])
        bayes = checks.bayes_auroc(spec["class_means"], spec["class_cov_scale"])
        return [v for v in cell["values"] if v < bayes - BAYES_MARGIN]

    def check(self) -> list[str]:
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        fails: list[str] = []
        cells = {(c["target"], c["scheme"], c["source"]): c for c in report["cells"]}
        expected = self._trainings()
        if sorted(cells) != sorted(expected) or len(report["cells"]) != len(expected):
            fails.append(f"cell set differs: {len(report['cells'])} cells, expected {len(expected)}")
            return fails
        specs = {d["domain_id"]: d for d in self.cfg["domains"]}
        for (target, scheme, source), cell in sorted(cells.items()):
            where = f"{scheme} {source}->{target}"
            seeds = [checks.cell_seed(self.base_seed, f"{target}|{scheme}|{source}", r)
                     for r in range(self.repeats)]
            if cell["flags"]:
                fails.append(f"{where}: flagged {cell['flags']}")
            if len(cell["values"]) != self.repeats or cell["seeds"] != seeds:
                fails.append(f"{where}: values/seeds do not match the config")
                continue
            if not all(0.0 <= v <= 1.0 for v in cell["values"]):
                fails.append(f"{where}: AUROC {cell['values']} not in [0, 1]")

        # one cell per scheme: retrain it and recount AUROC over its scores
        ids = sorted(specs)
        target = ids[self.seed % len(ids)]
        repeat = self.seed % self.repeats
        for scheme in self.schemes:
            key = next(k for k in expected if k[0] == target and k[1] == scheme)
            seed = checks.cell_seed(self.base_seed, "|".join(key), repeat)
            model, split = self._retrain(*key, seed)
            value = checks.pair_count_auroc(model.scores(split.test.features)[:, 1],
                                            split.test.labels)
            reported = cells[key]["values"][repeat]
            if not checks.close(value, reported):
                fails.append(f"{scheme} {key[2]}->{target} repeat {repeat}: reported AUROC "
                             f"{reported!r}, pair count gives {value!r}")
        return fails


class FairnessMulticlass(_Training):
    """`udakit fairness` on four label-shifted multiclass domains with a minority group."""

    name = "fairness-multiclass"
    task = "multiclass"
    n_classes = len(FAIRNESS_CLASSES)
    n_samples = 200
    schemes = FAIRNESS_SCHEMES
    threads = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.base_seed = 11 + seed

    def setup(self) -> None:
        from udakit.data import class_distribution

        rng = np.random.default_rng(self.seed)
        k = self.n_classes
        base_means = 2.5 * np.eye(k)
        minority_offset = [1.2, -1.2, 1.2, -1.2]
        domains = []
        for i, preset in enumerate(FAIRNESS_PRESETS):
            means = base_means + rng.uniform(-0.3, 0.3, size=(k, k))
            domains.append({"domain_id": f"d{i}", "n_samples": self.n_samples, "dim": k,
                            "class_means": means.tolist(), "class_cov_scale": 1.0,
                            "label_distribution": class_distribution(preset, FAIRNESS_CLASSES).tolist(),
                            "sensitive_distribution": [0.85, 0.15],
                            "sensitive_mean_offset": [[0.0] * k, minority_offset],
                            "seed": 300 + i + 100 * self.seed})
        self._write_config(domains)
        self.n_train = {}
        for did, data in self._generate().items():
            if np.bincount(data.sensitive, minlength=2).min() < 1:
                raise ValueError(f"seed {self.seed}: domain {did} lacks a sensitive group")
            self.n_train[did] = data.n_samples - checks.n_test_rows(data.labels)
        self.ops_per_round = len(self._trainings())

    def commands(self) -> list[list[str]]:
        return [["fairness", "--config", str(self.config_path), "--out", str(self.report_path),
                 "--workers", str(self.threads)]]

    def failed_ops(self, codes: list[int]) -> int:
        return self.ops_per_round if codes[0] != 0 else 0

    def check(self) -> list[str]:
        report = json.loads(self.report_path.read_text(encoding="utf-8"))
        fails: list[str] = []
        ids = sorted(d["domain_id"] for d in self.cfg["domains"])
        cells = {(c["scheme"], c["target"]): c for c in report["cells"]}
        expected = {(s, t) for s in self.schemes for t in ids}
        if set(cells) != expected or len(report["cells"]) != len(expected):
            return [f"cell set differs: {sorted(cells)}"]
        for (scheme, target), cell in sorted(cells.items()):
            sources = [d for d in ids if d != target] if scheme.startswith("single") else ["-"]
            seeds = [checks.cell_seed(self.base_seed, f"fairness:{target}|{scheme}|{s}", 0)
                     for s in sources]
            if cell["seeds"] != seeds or cell["sources_averaged"] != len(sources):
                fails.append(f"{scheme} {target}: seeds or sources do not match the config")
            for metric in ("pqd", "dpm", "eom", "quality"):
                values = cell["values"][metric]
                if len(values) != self.repeats or not all(0.0 <= v <= 1.0 for v in values):
                    fails.append(f"{scheme} {target}: {metric} {values} not one value in [0, 1]")

        # one cell per scheme (every source of single-erm): recount from predictions
        target = ids[self.seed % len(ids)]
        for scheme in self.schemes:
            sources = [d for d in ids if d != target] if scheme.startswith("single") else ["-"]
            per_source = []
            for source in sources:
                seed = checks.cell_seed(self.base_seed, f"fairness:{target}|{scheme}|{source}", 0)
                model, split = self._retrain(target, scheme, source, seed)
                scores = model.scores(np.concatenate([split.train.features, split.test.features]))
                y_true = np.concatenate([split.train.labels, split.test.labels])
                groups = np.concatenate([split.train.sensitive, split.test.sensitive])
                per_source.append(checks.fairness_by_counting(
                    y_true, np.argmax(scores, axis=1), groups, self.n_classes, 2))
            cell = cells[(scheme, target)]
            for metric in ("pqd", "dpm", "eom", "quality"):
                value = sum(p[metric] for p in per_source) / len(per_source)
                reported = cell["values"][metric][0]
                if not checks.close(value, reported):
                    fails.append(f"{scheme} {target}: reported {metric} {reported!r}, "
                                 f"counting gives {value!r}")
        return fails


class ShiftFiles(Workload):
    """`udakit gen` then `udakit diagnose --errors`: CSV writes, reads and the shift matrix."""

    name = "shift-files"

    n_domains = len(SHIFT_SIZES) + 1
    ops_per_round = 2 * n_domains + n_domains * (n_domains - 1)

    @property
    def data_dir(self) -> Path:
        return self.workdir / "data"

    def _csv(self, did: str) -> Path:
        return self.data_dir / f"{did}.csv"

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        means = 1.5 * rng.standard_normal((3, SHIFT_DIM))
        self.specs = []
        for i, n in enumerate(SHIFT_SIZES):
            mix = rng.dirichlet([2.0, 2.0, 2.0])
            self.specs.append({"domain_id": f"d{i}", "n_samples": n, "dim": SHIFT_DIM,
                               "class_means": (means + 0.5 * rng.standard_normal(means.shape)).tolist(),
                               "class_cov_scale": 1.0,
                               "label_distribution": (mix / mix.sum()).tolist(),
                               "sensitive_distribution": [1.0],
                               "sensitive_mean_offset": [[0.0] * SHIFT_DIM],
                               "seed": 500 + i + 100 * self.seed})
        direction = rng.standard_normal(SHIFT_DIM)
        self.delta = SHIFT_DELTA_NORM * direction / np.linalg.norm(direction)
        twin = dict(self.specs[1], domain_id="t1")
        twin["class_means"] = (np.array(twin["class_means"]) + self.delta).tolist()
        self.specs.append(twin)
        self.ids = [s["domain_id"] for s in self.specs]
        self.errors = {(s, t): float(rng.uniform(0.05, 0.6))
                       for s in self.ids for t in self.ids if s != t}

        self.workdir.mkdir(parents=True, exist_ok=True)
        self.spec_path = self.workdir / "specs.json"
        self.spec_path.write_text(json.dumps(self.specs, indent=2), encoding="utf-8")
        self.errors_path = self.workdir / "errors.csv"
        self.errors_path.write_text(
            "source,target,test_error\n"
            + "".join(f"{s},{t},{e!r}\n" for (s, t), e in sorted(self.errors.items())),
            encoding="utf-8")
        self.out_base = self.workdir / "shift"

    def commands(self) -> list[list[str]]:
        return [["gen", "--config", str(self.spec_path), "--out", str(self.data_dir)],
                ["diagnose", "--data", *[str(self._csv(d)) for d in self.ids],
                 "--errors", str(self.errors_path), "--projections", str(SHIFT_PROJECTIONS),
                 "--seed", str(self.seed), "--out", str(self.out_base)]]

    def failed_ops(self, codes: list[int]) -> int:
        n = len(self.ids)
        if codes[0] != 0:
            return self.ops_per_round
        return n + n * (n - 1) if codes[1] != 0 else 0

    def outputs(self) -> list[Path]:
        return ([self._csv(d) for d in self.ids]
                + [self.out_base.with_suffix(".csv"), self.out_base.with_suffix(".json")])

    def check(self) -> list[str]:
        from udakit.data import generate_domain, load_dataset, spec_from_dict

        fails: list[str] = []
        labels = {}
        for spec in self.specs:
            did = spec["domain_id"]
            got = load_dataset(self._csv(did))
            want = generate_domain(spec_from_dict(spec))
            same = (got.domain_id == want.domain_id and got.sample_ids == want.sample_ids
                    and np.array_equal(got.labels, want.labels)
                    and np.array_equal(got.sensitive, want.sensitive)
                    and got.features.shape == want.features.shape
                    and got.features.tobytes() == want.features.tobytes())
            if not same:
                fails.append(f"{did}.csv does not read back as generate_domain(spec)")
            labels[did] = want.labels.tolist()

        report = json.loads(self.out_base.with_suffix(".json").read_text(encoding="utf-8"))
        pairs = report["pairs"]
        expected = sorted(f"{s}->{t}" for s, t in self.errors)
        if sorted(pairs) != expected:
            return fails + [f"pair set differs: {sorted(pairs)}"]
        n_classes = max(max(v) for v in labels.values()) + 1
        for (s, t), error in sorted(self.errors.items()):
            pair, back = pairs[f"{s}->{t}"], pairs[f"{t}->{s}"]
            if not checks.close(pair["feature_distance"], back["feature_distance"]):
                fails.append(f"d({s}->{t}) = {pair['feature_distance']!r} but "
                             f"d({t}->{s}) = {back['feature_distance']!r}")
            chi = checks.chi_square(labels[s], labels[t], n_classes)
            if not checks.close(pair["label_distance"], chi):
                fails.append(f"{s}->{t}: chi-square {pair['label_distance']!r}, recount {chi!r}")
            if pair["test_error"] != error:
                fails.append(f"{s}->{t}: joined error {pair['test_error']!r}, table has {error!r}")

        moved = pairs["d1->t1"]["feature_distance"]
        tol = checks.sliced_tolerance(SHIFT_DELTA_NORM, SHIFT_DIM, SHIFT_PROJECTIONS)
        if abs(moved - SHIFT_DELTA_NORM) > tol:
            fails.append(f"translated pair d1->t1: {moved!r}, expected "
                         f"{SHIFT_DELTA_NORM:.4f} +- {tol:.4f}")

        keys = sorted(self.errors)
        errors = [self.errors[k] for k in keys]
        for field, col in (("pearson_feature_error", "feature_distance"),
                           ("pearson_label_error", "label_distance")):
            want = statistics.correlation([pairs[f"{s}->{t}"][col] for s, t in keys], errors)
            if report[field] is None or not checks.close(report[field], want, rel=1e-9):
                fails.append(f"{field}: reported {report[field]!r}, statistics gives {want!r}")
        return fails


WORKLOADS = {w.name: w for w in (GridBinary, FairnessMulticlass, ShiftFiles)}
