from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from udakit import (
    DomainDataset,
    DomainSpec,
    TrainConfig,
    ExperimentConfig,
    emit_report,
    extract_features,
    init_mlp,
    load_dataset,
    run_fairness,
    run_matrix,
    save_dataset,
    stratified_split,
)
import udakit.harness as harness
from udakit.cli import main
from udakit.harness import CellResult, EvalReport, cell_seed, parse_scheme
from udakit.nn import DivergenceError
from conftest import make_blobs


def blob_spec(domain_id, seed, n=80, mean_shift=0.0, mix=(0.5, 0.5),
              groups=(1.0,), offsets=None):
    groups = np.asarray(groups, float)
    offsets = np.zeros((groups.size, 2)) if offsets is None else np.asarray(offsets, float)
    return DomainSpec(domain_id, n, 2,
                      np.array([[mean_shift, 0.0], [3.0 + mean_shift, 0.0]]), 0.6,
                      np.asarray(mix, float), groups, offsets, seed)


def pinned_grid_config(schemes, repeats=1, mixes=((0.8, 0.2), (0.55, 0.45), (0.3, 0.7)),
                       epochs=60, **kw):
    """The pinned grid: three 300-sample domains (seeds 40 to 42), base seed 7,
    learning rate 3e-3, momentum 0.5. More mixes add domains in the same
    pattern."""
    domains = [DomainSpec(f"d{i}", 300, 2,
                          np.array([[0.0, 0.0], [2.6, 0.0]]) + np.array([0.4, 0.2]) * i,
                          0.9, np.array(mixes[i]), np.array([1.0]), np.zeros((1, 2)),
                          seed=40 + i)
               for i in range(len(mixes))]
    return ExperimentConfig(
        task="binary", domains=domains, repeats=repeats, base_seed=7, n_classes=2,
        schemes=list(schemes),
        train={"epochs": epochs, "learning_rate": 3e-3, "momentum": 0.5}, **kw)


# all seven scheme bases, as the pinned grid runs them
PINNED_SCHEMES = ["single-erm", "single-dann", "combined-erm", "rs-combined-dann",
                  "rs-multi-m3sda", "multi-mdan", "combined-adda"]
# sha256 of the pinned grid's canonical report at repeats=1; a change that
# moves the numerics on purpose updates it and says why
PINNED_REPORT_SHA256 = "5f4810f126a407c6dde28c39d29909f031fb47436602901e314820c50fb0bc62"


# the settings every scheme's overrides take, the AdversarialConfig fields that
# each adversarial scheme base's trainer reads beside them, and the MomentConfig
# fields that train_m3sda reads
TRAIN_KEYS = ["epochs", "batch_size", "learning_rate", "momentum", "hidden_sizes"]
REVERSAL_KEYS = ["domain_weight", "schedule", "ramp_fraction", "disc_hidden"]
OWN_KEYS = {"single-dann": REVERSAL_KEYS, "combined-dann": REVERSAL_KEYS,
            "combined-adda": ["disc_hidden", "pretrain_epochs", "adapt_epochs",
                              "adapt_learning_rate"],
            "multi-mdan": [*REVERSAL_KEYS, "gamma", "hard_max"]}
MOMENT_KEYS = ["align_weight", "discrepancy_weight", "ensemble", "holdout_ratio"]
# a valid value, other than the default, of every AdversarialConfig and MomentConfig field
OWN_VALUES = {"domain_weight": 0.5, "schedule": "constant", "ramp_fraction": 0.5,
              "disc_hidden": [8], "gamma": 3.0, "hard_max": True, "pretrain_epochs": 1,
              "adapt_epochs": 1, "adapt_learning_rate": 1e-2,
              "align_weight": 0.3, "discrepancy_weight": 0.5, "ensemble": "accuracy",
              "holdout_ratio": 0.4}


def one_class_target_config(repeats=2):
    """The pinned grid's domains with the third one holding class 0 only;
    all seven scheme bases, trained briefly."""
    return pinned_grid_config(
        PINNED_SCHEMES, repeats=repeats, mixes=((0.8, 0.2), (0.55, 0.45), (1.0, 0.0)),
        epochs=2)


def accuracy_weighted_m3sda_config():
    """The pinned grid plus a fourth domain d3 (mix 0.6/0.4, seed 43) with
    multi-m3sda weighting its three heads by held-out accuracy, 5 epochs."""
    return pinned_grid_config(
        ["multi-m3sda"], mixes=((0.8, 0.2), (0.55, 0.45), (0.3, 0.7), (0.6, 0.4)), epochs=5,
        scheme_overrides={"multi-m3sda": {"ensemble": "accuracy", "align_weight": 0.1}})


def overflow_config():
    """The pinned grid with single-erm at a learning rate whose update
    overflows the parameters; combined-erm stays healthy."""
    return pinned_grid_config(
        ["single-erm", "combined-erm"],
        scheme_overrides={"single-erm": {"learning_rate": 1e100, "epochs": 5}})


def diverging_fairness_config():
    """Three 80-sample blob domains; single-erm diverges at learning rate 1e9."""
    return quick_config(["single-erm", "combined-erm"], n_domains=3,
                        train={"epochs": 15},
                        scheme_overrides={"single-erm": {"learning_rate": 1e9,
                                                         "epochs": 30}})


def quick_config(schemes, n_domains=2, repeats=1, **kw):
    domains = [blob_spec(f"d{i}", 10 + i, mean_shift=0.3 * i) for i in range(n_domains)]
    train = {"epochs": 3, "hidden_sizes": [8], "batch_size": 32}
    train.update(kw.pop("train", {}))
    return ExperimentConfig(task="binary", schemes=schemes, domains=domains,
                            repeats=repeats, base_seed=5, n_classes=2,
                            train=train, **kw)


class TestSchemeParsing:
    def test_plain_and_prefixed(self):
        assert parse_scheme("single-erm") == ("single-erm", False)
        assert parse_scheme("rs-multi-m3sda") == ("multi-m3sda", True)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            parse_scheme("rs-quantum-uda")


class TestConfigValidation:
    def test_needs_two_domains(self):
        with pytest.raises(ValueError, match="at least 2"):
            ExperimentConfig(task="binary", schemes=["single-erm"],
                             domains=[blob_spec("d0", 1)])

    def test_multiclass_rejects_single_uda(self):
        cfg = ExperimentConfig(
            task="multiclass", schemes=["single-dann"],
            domains=[blob_spec(f"d{i}", i) for i in range(2)])
        with pytest.raises(ValueError, match="single-source UDA"):
            run_matrix(cfg)

    def test_multiclass_allows_plain_single_source(self):
        specs = []
        for i in range(2):
            specs.append(DomainSpec(f"d{i}", 60, 2,
                                    np.array([[0, 0], [2, 0], [1, 1.7]]), 0.5,
                                    np.array([1 / 3, 1 / 3, 1 / 3]), np.array([1.0]),
                                    np.zeros((1, 2)), seed=i))
        cfg = ExperimentConfig(task="multiclass", schemes=["single-erm"], domains=specs,
                               repeats=1, n_classes=3, train={"epochs": 2, "hidden_sizes": [8]})
        report = run_matrix(cfg)
        assert report.metric == "accuracy"

    def test_unknown_override_keys(self):
        with pytest.raises(ValueError, match="unknown override keys"):
            quick_config(["single-erm"], scheme_overrides={"single-erm": {"warp": 1}})

    @pytest.mark.parametrize("scheme, key, value", [
        ("combined-erm", "align_weight", 0.5),
        ("combined-erm", "gamma", 3.0),
        ("rs-single-erm", "domain_weight", 2.0),
        ("multi-m3sda", "domain_weight", 9.0),
        ("multi-m3sda", "pretrain_epochs", 1),
        ("single-dann", "ensemble", "accuracy"),
        ("multi-mdan", "align_weight", 0.1),
    ])
    def test_override_keys_of_another_trainer_rejected(self, scheme, key, value):
        with pytest.raises(ValueError, match=rf"unknown override keys \['{key}'\] for {scheme}"):
            quick_config([scheme], scheme_overrides={scheme: {key: value}})

    @pytest.mark.parametrize("scheme, key, value", [
        ("single-erm", "epochs", 2),
        ("combined-adda", "adapt_epochs", 2),
        ("rs-multi-mdan", "gamma", 3.0),
        ("single-dann", "domain_weight", 0.5),
        ("multi-m3sda", "ensemble", "accuracy"),
    ])
    def test_override_keys_of_the_schemes_trainer_accepted(self, scheme, key, value):
        cfg = quick_config([scheme], scheme_overrides={scheme: {key: value}})
        assert cfg.scheme_overrides[scheme] == {key: value}

    @pytest.mark.parametrize("scheme, key", [
        (scheme, key) for scheme, keys in [*OWN_KEYS.items(), ("multi-m3sda", MOMENT_KEYS)]
        for key in keys])
    def test_every_own_key_a_scheme_accepts_changes_its_model(self, scheme, key):
        # holdout_ratio sizes the held-out slice only under the accuracy ensemble
        base = {"ensemble": "accuracy"} if key == "holdout_ratio" else {}
        models = []
        for overrides in (base, {**base, key: OWN_VALUES[key]}):
            cfg = quick_config([scheme], n_domains=3, train={"epochs": 2},
                               scheme_overrides={scheme: overrides})
            grid = harness.open_grid(cfg, [scheme])
            source = harness.scheme_sources(scheme, grid.ids, "d0")[0]
            model = harness.train_cell(grid.splits, "d0", scheme, source, cfg, 2, seed=1)
            params = np.concatenate([net.params for net in (model.extractor, *model.classifiers)])
            models.append((params.tobytes(), model.ensemble_weights))
        assert models[0] != models[1]

    def test_binary_task_requires_two_classes(self):
        specs = [DomainSpec(f"d{i}", 40, 2, np.array([[0, 0], [2, 0], [1, 1]]), 0.5,
                            np.array([0.4, 0.3, 0.3]), np.array([1.0]),
                            np.zeros((1, 2)), seed=i) for i in range(2)]
        cfg = ExperimentConfig(task="binary", schemes=["single-erm"], domains=specs,
                               repeats=1, train={"epochs": 1})
        with pytest.raises(ValueError, match="exactly 2 classes"):
            run_matrix(cfg)


class TestMatrixStructure:
    def test_two_domains_single_scheme_two_cells(self):
        report = run_matrix(quick_config(["single-erm"]))
        assert len(report.cells) == 2
        assert {c.target for c in report.cells} == {"d0", "d1"}

    def test_cell_counts_follow_closed_form(self):
        n = 3
        schemes = ["single-erm", "combined-erm", "multi-m3sda"]
        report = run_matrix(quick_config(schemes, n_domains=n))
        singles = [c for c in report.cells if c.scheme == "single-erm"]
        combined = [c for c in report.cells if c.scheme == "combined-erm"]
        multi = [c for c in report.cells if c.scheme == "multi-m3sda"]
        assert len(singles) == n * (n - 1)
        assert len(combined) == n
        assert len(multi) == n
        assert all(c.source == "combined" for c in combined)
        assert all(c.source == "all" for c in multi)

    def test_six_domains_thirty_single_cells(self):
        cfg = quick_config(["single-erm"], n_domains=6, train={"epochs": 1})
        report = run_matrix(cfg)
        assert len(report.cells) == 30
        rows = report.row_averages()["single-erm"]
        cols = report.column_averages()["single-erm"]
        assert len(rows) == 6 and len(cols) == 6

    def test_cell_seeds_decorrelated(self):
        s1 = cell_seed(0, "d0|single-erm|d1", 0)
        s2 = cell_seed(0, "d0|single-erm|d1", 1)
        s3 = cell_seed(0, "d1|single-erm|d0", 0)
        assert len({s1, s2, s3}) == 3

    def test_repeats_recorded_with_seeds(self):
        report = run_matrix(quick_config(["combined-erm"], repeats=3))
        for cell in report.cells:
            assert len(cell.values) == 3
            assert len(set(cell.seeds)) == 3

    def test_single_source_learning_rate_preset(self):
        from udakit.harness import SINGLE_SOURCE_LEARNING_RATE, trainer_config

        cfg = quick_config(["single-erm", "combined-erm"])
        single = trainer_config(cfg, "single-erm", 2, seed=0)
        combined = trainer_config(cfg, "combined-erm", 2, seed=0)
        assert single.learning_rate == SINGLE_SOURCE_LEARNING_RATE
        assert combined.learning_rate == TrainConfig().learning_rate
        explicit = quick_config(["single-erm"], train={"learning_rate": 0.5, "epochs": 1})
        overridden = trainer_config(explicit, "single-erm", 2, seed=0)
        assert overridden.learning_rate == 0.5

    def test_scheme_overrides_reach_the_trainers(self):
        cfg = quick_config(
            ["combined-adda", "rs-multi-m3sda"], n_domains=3,
            scheme_overrides={
                "combined-adda": {"adapt_epochs": 2, "adapt_learning_rate": 1e-4},
                "rs-multi-m3sda": {"align_weight": 0.05, "epochs": 2},
            })
        report = run_matrix(cfg)
        assert {c.scheme for c in report.cells} == {"combined-adda", "rs-multi-m3sda"}
        assert all(c.values for c in report.cells)


class TestDeterminismAndAggregation:
    def test_pinned_grid_report_hash(self):
        text = emit_report(run_matrix(pinned_grid_config(PINNED_SCHEMES, repeats=1)))
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256

    def test_byte_identical_reports(self):
        cfg_a = quick_config(["single-erm", "combined-dann"], repeats=2)
        cfg_b = quick_config(["single-erm", "combined-dann"], repeats=2)
        text_a = emit_report(run_matrix(cfg_a), "canonical")
        text_b = emit_report(run_matrix(cfg_b), "canonical")
        assert text_a == text_b

    @staticmethod
    def _cli_bytes(tmp_path, command, cfg, workers):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / f"{command}.workers{workers}.json"
        assert main([command, "--config", str(config), "--out", str(out),
                     "--workers", str(workers)]) == 0
        return out.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        cfg = quick_config(["single-erm", "combined-erm"], n_domains=3)
        assert (self._cli_bytes(tmp_path, "matrix", cfg, 1)
                == self._cli_bytes(tmp_path, "matrix", cfg, 4))

    def test_workers_do_not_change_fairness_results(self, tmp_path):
        cfg = quick_config(["single-erm", "combined-erm"], n_domains=3, repeats=2)
        assert (self._cli_bytes(tmp_path, "fairness", cfg, 1)
                == self._cli_bytes(tmp_path, "fairness", cfg, 4))

    def test_aggregates_match_independent_recompute(self):
        report = run_matrix(quick_config(["single-erm"], n_domains=3, repeats=3))
        for cell in report.cells:
            assert abs(cell.mean - sum(cell.values) / len(cell.values)) < 1e-9
            var = sum((v - cell.mean) ** 2 for v in cell.values) / len(cell.values)
            assert abs(cell.std - var ** 0.5) < 1e-9
        cols = report.column_averages()
        for scheme in report.schemes:
            for target in report.domain_ids:
                means = [c.mean for c in report.cells
                         if c.scheme == scheme and c.target == target]
                assert abs(cols[scheme][target] - np.mean(means)) < 1e-9

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergent_cells_flagged_and_annotated(self):
        cfg = quick_config(["single-erm"], repeats=2,
                           scheme_overrides={"single-erm": {"learning_rate": 1e9,
                                                            "epochs": 30}})
        report = run_matrix(cfg)
        for cell in report.cells:
            assert cell.values == []
            assert any("diverged" in f for f in cell.flags)
            assert cell.mean is None


    def test_one_class_target_split_flags_only_its_cells(self):
        cfg = one_class_target_config(repeats=2)
        report = run_matrix(cfg)
        assert len(report.cells) == 27
        for cell in report.cells:
            assert len(cell.seeds) == 2
            if cell.target == "d2":
                assert cell.values == [] and cell.mean is None
                assert cell.flags == [
                    f"repeat {r}: AUROC undefined: only one class present "
                    "in the target test split" for r in range(2)]
            else:
                assert cell.flags == []
                assert len(cell.values) == 2
                assert all(0.0 <= v <= 1.0 for v in cell.values)
        assert "d2" not in report.column_averages()["combined-erm"]

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflowing_network_is_flagged_as_divergence(self):
        report = run_matrix(overflow_config())
        assert len(report.cells) == 9
        for cell in report.cells:
            if cell.scheme == "single-erm":
                assert cell.values == []
                assert cell.flags == ["repeat 0 diverged: non-finite network input at epoch 0"]
            else:
                assert cell.flags == [] and len(cell.values) == 1


class TestTargetLabelFirewall:
    def test_corrupting_target_train_labels_changes_nothing(self, tmp_path):
        domains = [make_blobs(f"d{i}", 30 + i, n=120, sigma=0.6) for i in range(3)]
        paths = []
        for d in domains:
            pair = stratified_split(d, 0.2, seed=3)
            train_path = tmp_path / f"{d.domain_id}.train.csv"
            test_path = tmp_path / f"{d.domain_id}.test.csv"
            save_dataset(pair.train, train_path)
            save_dataset(pair.test, test_path)
            paths.append({"train": str(train_path), "test": str(test_path)})

        def config():
            return ExperimentConfig(
                task="binary", schemes=["single-dann", "combined-dann", "combined-adda",
                                        "multi-m3sda", "multi-mdan"],
                dataset_paths=paths, repeats=1, base_seed=2, n_classes=2,
                train={"epochs": 2, "hidden_sizes": [8], "batch_size": 32})

        before = emit_report(run_matrix(config()), "canonical")

        # destroy every target-side training label on disk: d1's train labels
        victim = tmp_path / "d1.train.csv"
        lines = victim.read_text().splitlines()
        rewritten = [lines[0]]
        for line in lines[1:]:
            parts = line.split(",")
            parts[2] = "0"
            rewritten.append(",".join(parts))
        victim.write_text("\n".join(rewritten) + "\n")

        after_report = run_matrix(config())
        after = emit_report(after_report, "canonical")
        d1_cells_before = [c for c in json.loads(before)["cells"] if c["target"] == "d1"]
        d1_cells_after = [c for c in json.loads(after)["cells"] if c["target"] == "d1"]
        assert d1_cells_before == d1_cells_after


class TestRunFairness:
    def test_single_group_all_ones(self):
        cfg = quick_config(["combined-erm"])
        matrix = run_fairness(cfg)
        for cell in matrix.cells:
            assert np.allclose(cell.values["pqd"], 1.0)
            assert np.allclose(cell.values["dpm"], 1.0)
            assert np.allclose(cell.values["eom"], 1.0)

    def test_one_report_per_domain_and_scheme(self):
        domains = [blob_spec(f"d{i}", i, groups=(0.7, 0.3),
                             offsets=[(0, 0), (0, 1.5)]) for i in range(3)]
        cfg = ExperimentConfig(task="binary", schemes=["combined-dann", "multi-m3sda"],
                               domains=domains, repeats=1, base_seed=1, n_classes=2,
                               train={"epochs": 20, "hidden_sizes": [8]})
        matrix = run_fairness(cfg)
        assert len(matrix.cells) == 6
        combos = {(c.target, c.scheme) for c in matrix.cells}
        assert ("d0", "combined-dann") in combos and ("d2", "multi-m3sda") in combos

    def test_single_scheme_averages_over_sources(self):
        domains = [blob_spec(f"d{i}", i, groups=(0.7, 0.3),
                             offsets=[(0, 0), (0, 1.5)]) for i in range(3)]
        cfg = ExperimentConfig(task="binary", schemes=["single-erm"], domains=domains,
                               repeats=2, base_seed=1, n_classes=2,
                               train={"epochs": 20, "hidden_sizes": [8],
                                      "learning_rate": 1e-3})
        matrix = run_fairness(cfg)
        for cell in matrix.cells:
            assert cell.sources_averaged == 2
            assert len(cell.values["pqd"]) == 2  # one averaged value per repeat

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_diverging_trainings_are_flagged_and_the_rest_kept(self):
        matrix = run_fairness(diverging_fairness_config())
        assert len(matrix.cells) == 6
        for cell in matrix.cells:
            payload = json.loads(json.dumps(cell.to_dict()))
            if cell.scheme == "single-erm":
                assert cell.failed_runs == 2 and cell.last_report is None
                assert all(v == [] for v in cell.values.values())
                others = [d for d in ("d0", "d1", "d2") if d != cell.target]
                assert [f.split(":")[0] for f in cell.flags] == [
                    f"repeat 0 source {d} diverged" for d in others]
                assert all(s == {"mean": None, "std": None}
                           for s in payload["summary"].values())
            else:
                assert cell.failed_runs == 0 and cell.flags == []
                assert all(len(v) == 1 for v in cell.values.values())
                assert all(s["mean"] is not None for s in payload["summary"].values())

    def test_repeat_averages_its_surviving_sources(self, monkeypatch):
        cfg = quick_config(["single-erm"], n_domains=3, repeats=2)
        healthy = run_fairness(cfg)
        train_cell = harness.train_cell

        def failing_d1(splits, target, scheme, source, *args):
            if source == "d1":
                raise DivergenceError("non-finite classification loss at epoch 0")
            return train_cell(splits, target, scheme, source, *args)

        monkeypatch.setattr(harness, "train_cell", failing_d1)
        lossy = run_fairness(quick_config(["single-erm"], n_domains=3, repeats=2))
        for before, after in zip(healthy.cells, lossy.cells):
            if after.target == "d1":
                assert after.values == before.values and after.failed_runs == 0
                continue
            assert after.failed_runs == 2 and after.sources_averaged == 2
            assert after.flags[:2] == [
                f"repeat {r} source d1 diverged: non-finite classification loss at epoch 0"
                for r in range(2)]
            assert all(len(v) == 2 for v in after.values.values())
            assert after.values != before.values

    def test_fairness_bins_applied(self):
        domains = [blob_spec(f"d{i}", i, groups=(0.5, 0.5),
                             offsets=[(0, 0), (0, 0.5)]) for i in range(2)]
        # sensitive ids 0/1 put through the age preset are ages 0 and 1: both <= 30
        cfg = ExperimentConfig(task="binary", schemes=["combined-erm"], domains=domains,
                               repeats=1, n_classes=2, fairness_bins="age",
                               train={"epochs": 2, "hidden_sizes": [8]})
        matrix = run_fairness(cfg)
        assert all(np.allclose(c.values["pqd"], 1.0) for c in matrix.cells)


class TestExportFeatures:
    def test_bytes_equal_save_dataset_of_the_feature_rows(self, tmp_path):
        data = make_blobs("d", 3, n=30)
        extractor = init_mlp([2, 5], np.random.default_rng(0), final="relu")
        harness.export_features(extractor, data, tmp_path / "features.csv")
        feats = extract_features(extractor, data.features)
        save_dataset(DomainDataset("d", feats, data.labels, data.sensitive, data.sample_ids),
                     tmp_path / "rows.csv")
        text = (tmp_path / "features.csv").read_text()
        assert text == (tmp_path / "rows.csv").read_text()
        assert text.startswith("id,domain,label,sensitive,f0,f1,f2,f3,f4\n")
        assert np.array_equal(load_dataset(tmp_path / "features.csv").features, feats)


class TestEmitReport:
    def test_empty_scheme_list_header_only(self):
        report = EvalReport("binary", "auroc", ["d0", "d1"], [], 1, 0, "abc", [])
        table = emit_report(report, "table")
        lines = table.strip().splitlines()
        assert len(lines) == 2
        assert "auroc" in lines[0]

    def test_percent_formatting(self):
        cell = CellResult("d0", "combined-erm", "combined", [0.8413, 0.8833], [1, 2], [])
        assert cell.mean == pytest.approx(0.8623)
        report = EvalReport("binary", "auroc", ["d0"], ["combined-erm"], 2, 0, "h", [cell])
        table = emit_report(report, "table")
        assert "86.2±2.1" in table

    def test_best_cells_marked(self):
        cells = [
            CellResult("d0", "combined-erm", "combined", [0.70], [1], []),
            CellResult("d0", "combined-dann", "combined", [0.90], [1], []),
        ]
        report = EvalReport("binary", "auroc", ["d0"], ["combined-erm", "combined-dann"],
                            1, 0, "h", cells)
        table = emit_report(report, "table")
        assert "90.0±0.0*" in table
        assert "70.0±0.0*" not in table

    def test_unknown_format(self):
        report = EvalReport("binary", "auroc", [], [], 1, 0, "h", [])
        with pytest.raises(ValueError, match="unknown report format"):
            emit_report(report, "yaml")

    def test_canonical_is_json_with_sorted_cells(self):
        report = run_matrix(quick_config(["single-erm"]))
        payload = json.loads(emit_report(report, "canonical"))
        assert payload["metric"] == "auroc"
        keys = [(c["scheme"], c["target"], c["source"]) for c in payload["cells"]]
        assert keys == sorted(keys)
