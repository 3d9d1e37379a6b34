from __future__ import annotations

import json

import numpy as np
import pytest

from udakit import DomainSpec, load_dataset
from udakit.cli import main
from udakit.data import spec_to_dict
from test_harness import (
    blob_spec,
    diverging_fairness_config,
    one_class_target_config,
    overflow_config,
)


@pytest.fixture
def workspace(tmp_path):
    """Spec file, experiment config, and dataset files for CLI runs."""
    specs = [blob_spec(f"d{i}", 10 + i, n=80, mean_shift=0.4 * i) for i in range(3)]
    spec_path = tmp_path / "specs.json"
    spec_path.write_text(json.dumps([spec_to_dict(s) for s in specs]))
    config = {
        "task": "binary",
        "schemes": ["single-erm", "combined-dann"],
        "domains": [spec_to_dict(s) for s in specs],
        "repeats": 2,
        "base_seed": 3,
        "n_classes": 2,
        "train": {"epochs": 3, "hidden_sizes": [8], "batch_size": 32},
    }
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, spec_path, config_path


class TestGenAndSplit:
    def test_gen_writes_datasets(self, workspace, capsys):
        tmp, spec_path, _ = workspace
        out = tmp / "data"
        assert main(["gen", "--config", str(spec_path), "--out", str(out)]) == 0
        for i in range(3):
            data = load_dataset(out / f"d{i}.csv")
            assert data.n_samples == 80

    def test_split_writes_pair(self, workspace):
        tmp, spec_path, _ = workspace
        out = tmp / "data"
        main(["gen", "--config", str(spec_path), "--out", str(out)])
        code = main(["split", "--data", str(out / "d0.csv"), "--ratio", "0.25",
                     "--seed", "5", "--out", str(tmp / "splits")])
        assert code == 0
        train = load_dataset(tmp / "splits" / "d0.train.csv")
        test = load_dataset(tmp / "splits" / "d0.test.csv")
        assert train.n_samples + test.n_samples == 80
        assert test.n_samples == 20

    def test_gen_without_config_is_config_error(self):
        assert main(["gen"]) == 1


class TestTrainEval:
    def test_train_writes_model_record_metrics(self, workspace, capsys):
        tmp, _, config_path = workspace
        out = tmp / "runs"
        code = main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "combined-dann", "--out", str(out)])
        assert code == 0
        stem = "d0.combined-dann.combined.r0"
        assert (out / f"{stem}.model.json").exists()
        record = json.loads((out / f"{stem}.record.json").read_text())
        assert record["model_ref"] == f"{stem}.model.json"
        metrics = json.loads((out / f"{stem}.metrics.json").read_text())
        assert metrics["metric"] == "auroc"
        assert 0.0 <= metrics["value"] <= 1.0

    def test_single_scheme_requires_source(self, workspace):
        tmp, _, config_path = workspace
        assert main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "single-erm", "--out", str(tmp / "r")]) == 1
        assert main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "single-erm", "--source", "d1",
                     "--out", str(tmp / "r")]) == 0

    def test_eval_roundtrip(self, workspace, capsys):
        tmp, spec_path, config_path = workspace
        out = tmp / "runs"
        main(["train", "--config", str(config_path), "--target", "d0",
              "--scheme", "single-erm", "--source", "d1", "--out", str(out)])
        main(["gen", "--config", str(spec_path), "--out", str(tmp / "data")])
        capsys.readouterr()
        code = main(["eval", "--model", str(out / "d0.single-erm.d1.r0.model.json"),
                     "--data", str(tmp / "data" / "d0.csv"),
                     "--out", str(tmp / "pred.csv"),
                     "--features-out", str(tmp / "feats.csv")])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert "accuracy" in printed and "auroc" in printed
        assert (tmp / "pred.csv").read_text().startswith("id,y_true,y_pred,score,sensitive")
        feats_header = (tmp / "feats.csv").read_text().splitlines()[0]
        assert feats_header.startswith("id,domain,label,sensitive,f0")


class TestMatrixCommand:
    def test_matrix_canonical_and_table(self, workspace, capsys):
        tmp, _, config_path = workspace
        out = tmp / "report.json"
        code = main(["matrix", "--config", str(config_path), "--out", str(out),
                     "--workers", "2"])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 6 + 3
        capsys.readouterr()
        assert main(["matrix", "--config", str(config_path),
                     "--format", "table"]) == 0
        table = capsys.readouterr().out
        assert "single-erm[d1]" in table and "combined-dann" in table

    def test_matrix_deterministic_bytes(self, workspace):
        tmp, _, config_path = workspace
        a, b = tmp / "a.json", tmp / "b.json"
        main(["matrix", "--config", str(config_path), "--out", str(a)])
        main(["matrix", "--config", str(config_path), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_exit_code(self, workspace, capsys):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["schemes"] = ["single-erm"]
        config["scheme_overrides"] = {"single-erm": {"learning_rate": 1e9, "epochs": 30}}
        bad = tmp / "bad.json"
        bad.write_text(json.dumps(config))
        out = tmp / "flagged.json"
        code = main(["matrix", "--config", str(bad), "--out", str(out)])
        assert code == 2
        payload = json.loads(out.read_text())
        assert all(any("diverged" in f for f in c["flags"]) for c in payload["cells"])

    def test_one_class_target_flags_cells_and_keeps_the_rest(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(one_class_target_config(repeats=1).to_dict()))
        out = tmp_path / "report.json"
        code = main(["matrix", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "9 cells flagged" in capsys.readouterr().err
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 27
        for cell in cells:
            if cell["target"] == "d2":
                assert cell["values"] == []
                assert cell["flags"][0].startswith("repeat 0: AUROC undefined")
            else:
                assert len(cell["values"]) == 1 and cell["flags"] == []

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_overflow_counts_as_divergence(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(overflow_config().to_dict()))
        out = tmp_path / "report.json"
        code = main(["matrix", "--config", str(config_path), "--out", str(out)])
        assert code == 2
        assert "6 cells flagged" in capsys.readouterr().err
        cells = json.loads(out.read_text())["cells"]
        assert [c["scheme"] for c in cells if c["flags"]] == ["single-erm"] * 6
        assert all(len(c["values"]) == 1 for c in cells if c["scheme"] == "combined-erm")

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_train_divergence_exit_code(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(overflow_config().to_dict()))
        out = tmp_path / "runs"
        code = main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "single-erm", "--source", "d1", "--out", str(out)])
        assert code == 2
        assert "repeat 0 diverged: non-finite network input" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"task": "binary", "schemes": ["nope"]}))
        assert main(["matrix", "--config", str(bad)]) == 1

    def test_usage_error_maps_to_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--format", "pdf"])
        assert exc.value.code == 1


class TestFairnessCommand:
    def test_fairness_output(self, workspace):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["schemes"] = ["combined-erm"]
        config["train"]["epochs"] = 15
        path = tmp / "fair_config.json"
        path.write_text(json.dumps(config))
        out = tmp / "fairness.json"
        assert main(["fairness", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 3
        assert all("pqd" in c["values"] for c in payload["cells"])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_failed_trainings_still_write_output_and_exit_2(self, tmp_path, capsys):
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(diverging_fairness_config().to_dict()))
        out = tmp_path / "fairness.json"
        assert main(["fairness", "--config", str(config_path), "--out", str(out)]) == 2
        assert "6 trainings flagged" in capsys.readouterr().err
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 6
        for cell in cells:
            if cell["scheme"] == "single-erm":
                assert len(cell["flags"]) == 2 and cell["summary"]["pqd"]["mean"] is None
            else:
                assert cell["flags"] == [] and len(cell["values"]["pqd"]) == 1

    def test_fairness_notes_keep_exit_code_zero(self, tmp_path):
        # d0 holds no class-2 rows, so its fairness report notes the absent class
        specs = [DomainSpec(f"d{i}", 90, 2, np.array([[0, 0], [2.5, 0], [1.2, 2.2]]), 0.5,
                            np.array(mix), np.array([0.6, 0.4]),
                            np.array([[0.0, 0.0], [0.0, 0.8]]), seed=60 + i)
                 for i, mix in enumerate([(0.5, 0.5, 0.0), (0.3, 0.3, 0.4), (0.4, 0.3, 0.3)])]
        config = {"task": "multiclass", "schemes": ["combined-erm"], "n_classes": 3,
                  "domains": [spec_to_dict(s) for s in specs], "repeats": 1,
                  "train": {"epochs": 3, "hidden_sizes": [8]}}
        config_path = tmp_path / "experiment.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "fairness.json"
        assert main(["fairness", "--config", str(config_path), "--out", str(out)]) == 0
        d0 = next(c for c in json.loads(out.read_text())["cells"] if c["target"] == "d0")
        assert "class 2 absent from every group's true labels" in d0["flags"]


class TestDiagnoseCommand:
    def test_diagnose_files(self, workspace, tmp_path):
        tmp, spec_path, _ = workspace
        main(["gen", "--config", str(spec_path), "--out", str(tmp / "data")])
        files = [str(tmp / "data" / f"d{i}.csv") for i in range(3)]
        out = tmp / "shift"
        code = main(["diagnose", "--data", *files, "--projections", "16",
                     "--seed", "4", "--out", str(out)])
        assert code == 0
        csv_lines = (out.with_suffix(".csv")).read_text().splitlines()
        assert len(csv_lines) == 1 + 6
        summary = json.loads(out.with_suffix(".json").read_text())
        assert len(summary["pairs"]) == 6

    def test_diagnose_with_error_table(self, workspace):
        tmp, spec_path, _ = workspace
        main(["gen", "--config", str(spec_path), "--out", str(tmp / "data")])
        files = [str(tmp / "data" / f"d{i}.csv") for i in range(3)]
        rows = ["source,target,test_error"]
        for s in range(3):
            for t in range(3):
                if s != t:
                    rows.append(f"d{s},d{t},{0.1 * (s + t):.2f}")
        (tmp / "errors.csv").write_text("\n".join(rows) + "\n")
        out = tmp / "shift2"
        code = main(["diagnose", "--data", *files, "--errors", str(tmp / "errors.csv"),
                     "--projections", "16", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.with_suffix(".json").read_text())
        assert summary["pearson_label_error"] is not None
