from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from udakit import (
    DomainSpec,
    ModelBundle,
    auroc,
    generate_domain,
    init_mlp,
    load_dataset,
    save_dataset,
    save_model,
)
from udakit import harness
from udakit.cli import main
from udakit.data import spec_to_dict
from test_harness import (
    MOMENT_KEYS,
    OWN_KEYS,
    OWN_VALUES,
    PINNED_SCHEMES,
    TRAIN_KEYS,
    accuracy_weighted_m3sda_config,
    blob_spec,
    diverging_fairness_config,
    one_class_target_config,
    overflow_config,
    pinned_grid_config,
)
from oracles import load_predictions


# sha256 of the model, record and metrics files (in that order, concatenated)
# that `udakit train` writes for target d0 of train_files_config(); a change
# that moves the numerics or the file layout on purpose updates them and says why
TRAIN_FILES_SHA256 = {
    "single-erm": "49a8b6b0a31869d2947eaec68d38b4efe89397159c5e91673544a2d47a85f016",
    "single-dann": "94684a046db01380aca4df8c4b04e874816ff81ed5758cd14ffcb6809d9dcc0b",
    "combined-erm": "2e30b708ad2a40560e26211bab954c11aac346e57b2c81f48381de3cce0a0c92",
    "rs-combined-dann": "9a7d5b017a4f8ec3c6dfe3a242006f9bfe00c31f68bdeb59fe82d602c1745ec2",
    "rs-multi-m3sda": "41cb125f1029f3fa16f2639637a85590633019cae05a753fc710c4872d08e290",
    "multi-mdan": "20cbcc677941393d9f21abe379b171ca407f00ef9ef8aec7e570717770202c20",
    "combined-adda": "dd8ec0f12102cbfddf3e9132521d3b4b3d6a5aaa30010fca4e9bd9bcbf80f05b",
    "multi-m3sda": "8647ba6e34f0f5432641a7f1d9179e561eb9eb54930995714ba9a02e63d89599",
}


# sha256 of shift.csv and shift.json that `udakit diagnose --errors` writes in
# TestDiagnoseCommand.test_diagnose_files_are_pinned; the shift path's
# counterpart of PINNED_REPORT_SHA256
DIAGNOSE_FILES_SHA256 = {
    ".csv": "353694bfa603cd37cd3cc5a4957bdf7ad0dcf20867ae6a37f2b5911f71fc1861",
    ".json": "1a7ad3a5241a4d2c805919a722d5563e955cf3156e3b037e7ebfb175f8e7a313",
}


def train_files_config():
    """The pinned grid's domains at 3 epochs: all seven scheme bases, plus
    multi-m3sda weighting its heads by held-out accuracy."""
    return pinned_grid_config(PINNED_SCHEMES + ["multi-m3sda"], epochs=3,
                              scheme_overrides={"multi-m3sda": {"ensemble": "accuracy"}})


# a valid value, other than the default, of every AdversarialConfig field
ADVERSARIAL_VALUES = {k: v for k, v in OWN_VALUES.items() if k not in MOMENT_KEYS}
# the 18 (scheme base, AdversarialConfig field its trainer never reads) pairs
UNREAD_OVERRIDES = [(scheme, key) for scheme, own in OWN_KEYS.items()
                    for key in ADVERSARIAL_VALUES if key not in own]


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

    def test_train_exports_target_test_features(self, workspace, capsys):
        tmp, _, config_path = workspace
        feats = tmp / "feats.csv"
        code = main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "combined-erm", "--out", str(tmp / "runs"),
                     "--features-out", str(feats)])
        assert code == 0
        assert feats.read_text().startswith("id,domain,label,sensitive,f0,")
        assert load_dataset(feats).n_samples == 16

    def test_single_scheme_requires_source(self, workspace):
        tmp, _, config_path = workspace
        assert main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "single-erm", "--out", str(tmp / "r")]) == 1
        assert main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "single-erm", "--source", "d1",
                     "--out", str(tmp / "r")]) == 0

    def test_source_with_a_non_single_scheme_is_a_config_error(self, workspace, capsys):
        tmp, _, config_path = workspace
        out = tmp / "r"
        assert main(["train", "--config", str(config_path), "--target", "d0",
                     "--scheme", "combined-dann", "--source", "d1", "--out", str(out)]) == 1
        assert "--source applies to single-* schemes only" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", list(TRAIN_FILES_SHA256))
    def test_train_files_are_pinned(self, tmp_path, capsys, scheme):
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(train_files_config().to_dict()))
        source = harness.scheme_sources(scheme, ["d0", "d1", "d2"], "d0")[0]
        argv = ["train", "--config", str(config), "--target", "d0", "--scheme", scheme,
                "--out", str(tmp_path)]
        assert main(argv + (["--source", source] if scheme.startswith("single") else [])) == 0
        digest = hashlib.sha256()
        for kind in ("model", "record", "metrics"):
            digest.update((tmp_path / f"d0.{scheme}.{source}.r0.{kind}.json").read_bytes())
        assert digest.hexdigest() == TRAIN_FILES_SHA256[scheme]

    @pytest.mark.parametrize("scheme, source", [("single-erm", "d1"), ("multi-m3sda", "all")])
    def test_eval_reproduces_the_training_scores(self, tmp_path, capsys, scheme, source):
        cfg = (accuracy_weighted_m3sda_config() if scheme == "multi-m3sda"
               else pinned_grid_config([scheme], epochs=5))
        config = tmp_path / "experiment.json"
        config.write_text(json.dumps(cfg.to_dict()))
        grid = harness.open_grid(cfg, cfg.schemes)
        test = grid.splits["d0"].test
        trained = harness.run_cell(grid, "d0", scheme, source, 4).model
        scores = trained.scores(test.features)[:, 1]
        save_dataset(test, tmp_path / "d0.test.csv")

        runs = tmp_path / "runs"
        argv = ["train", "--config", str(config), "--target", "d0", "--scheme", scheme,
                "--repeat", "4", "--out", str(runs)]
        assert main(argv + (["--source", source] if scheme.startswith("single") else [])) == 0
        stem = f"d0.{scheme}.{source}.r4"
        metrics = json.loads((runs / f"{stem}.metrics.json").read_text())
        capsys.readouterr()
        assert main(["eval", "--model", str(runs / f"{stem}.model.json"),
                     "--data", str(tmp_path / "d0.test.csv"),
                     "--out", str(tmp_path / "pred.csv")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert np.array_equal(load_predictions(tmp_path / "pred.csv")["score"], scores)
        assert printed["auroc"] == metrics["value"] == auroc(scores, test.labels)

    @pytest.mark.parametrize("weights, message", [
        ([0.5, 0.5], "need one ensemble weight per classifier, got [0.5, 0.5]"),
        (1.0, "need one ensemble weight per classifier, got 1.0"),
        ([1.2, -0.1, -0.1], "must be finite and nonnegative"),
        ([float("nan"), 0.5, 0.5], "must be finite and nonnegative"),
        ([float("inf"), 0.0, 0.0], "must be finite and nonnegative"),
        (["0.5", 0.25, 0.25], "must be finite and nonnegative"),
        ([0.5, 0.3, 0.3], "must sum to 1"),
        ([1 / 3, 1 / 3, 1 / 3 - 2e-9], "must sum to 1"),
        ([True, False, False], "must be finite and nonnegative"),
    ], ids=["count", "scalar", "negative", "nan", "inf", "string", "sum", "sum-off-by-2e-9",
            "bool"])
    def test_malformed_ensemble_weights_are_a_config_error(self, tmp_path, capsys,
                                                           weights, message):
        rng = np.random.default_rng(0)
        heads = [init_mlp([4, 2], rng) for _ in range(3)]
        model = tmp_path / "model.json"
        save_model(ModelBundle(init_mlp([2, 4], rng, final="relu"), heads), model)
        payload = json.loads(model.read_text())
        payload["ensemble_weights"] = weights
        model.write_text(json.dumps(payload))
        save_dataset(generate_domain(blob_spec("d0", 1)), tmp_path / "d0.csv")
        out = tmp_path / "pred.csv"
        assert main(["eval", "--model", str(model), "--data", str(tmp_path / "d0.csv"),
                     "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seed", [None, [1], "3", 2.0, True])
    def test_malformed_seed_is_a_config_error(self, tmp_path, capsys, seed):
        rng = np.random.default_rng(0)
        model = tmp_path / "model.json"
        save_model(ModelBundle(init_mlp([2, 4], rng, final="relu"), [init_mlp([4, 2], rng)]),
                   model)
        payload = json.loads(model.read_text())
        payload["seed"] = seed
        model.write_text(json.dumps(payload))
        save_dataset(generate_domain(blob_spec("d0", 1)), tmp_path / "d0.csv")
        assert main(["eval", "--model", str(model), "--data", str(tmp_path / "d0.csv")]) == 1
        err = capsys.readouterr().err
        assert f'udakit: error: a model file needs an integer "seed", got {seed!r}' in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.update(classifiers="x"), 'a model file needs a "classifiers" list of networks'),
        (lambda m: m.pop("classifiers"), 'a model file needs a "classifiers" list of networks'),
        (lambda m: m.update(extractor="x"), "extractor: string indices must be integers"),
        (lambda m: m["classifiers"][1].pop("layers"), 'classifiers[1]: missing "layers"'),
        (lambda m: m["classifiers"][0]["layers"].__setitem__(0, 5),
         "classifiers[0] layer 0: 'int' object is not subscriptable"),
        (lambda m: m["extractor"]["layers"][1].pop("bias"), 'extractor layer 1: missing "bias"'),
        (lambda m: m["extractor"]["layers"][0].pop("shape"), 'extractor layer 0: missing "shape"'),
        (lambda m: m["classifiers"][0]["layers"][0].update(shape=[2, 3, 1]),
         "classifiers[0] layer 0: too many values to unpack"),
        (lambda m: m["classifiers"][0]["layers"][0].update(shape=7),
         "classifiers[0] layer 0: cannot unpack non-iterable int"),
        (lambda m: m["extractor"]["layers"][0].update(weights=[[1.0, "a"]]),
         "extractor layer 0: could not convert string to float"),
        (lambda m: m["extractor"]["layers"][0].update(weights={"w": 1}),
         "extractor layer 0: float() argument must be"),
        (lambda m: m["extractor"]["layers"][1].update(activation="tanh"),
         "extractor: layer 1: unknown activation 'tanh'"),
        (lambda m: m["extractor"].update(layers=[]),
         "extractor: need at least one array to concatenate"),
    ], ids=["classifiers-string", "classifiers-missing", "extractor-string", "layers-missing",
            "layer-not-an-object", "missing-bias", "missing-shape", "shape-three-entries",
            "shape-int", "weight-string", "weights-object", "activation", "no-layers"])
    def test_malformed_network_entries_are_a_config_error(self, tmp_path, capsys, edit, message):
        rng = np.random.default_rng(0)
        model = tmp_path / "model.json"
        save_model(ModelBundle(init_mlp([2, 4, 3], rng, final="relu"),
                               [init_mlp([3, 2], rng) for _ in range(2)]), model)
        payload = json.loads(model.read_text())
        edit(payload)
        model.write_text(json.dumps(payload))
        save_dataset(generate_domain(blob_spec("d0", 1)), tmp_path / "d0.csv")
        out = tmp_path / "pred.csv"
        assert main(["eval", "--model", str(model), "--data", str(tmp_path / "d0.csv"),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"udakit: error: {message}" in err and "Traceback" not in err
        assert not out.exists()

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
        assert "repeat 0 diverged: non-finite network input at epoch 0" in capsys.readouterr().err
        assert not out.exists()

    def test_override_another_trainer_ignores_is_a_config_error(self, workspace, capsys):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["scheme_overrides"] = {
            "combined-erm": {"align_weight": 0.5, "gamma": 3.0},
            "multi-m3sda": {"domain_weight": 9.0, "pretrain_epochs": 1},
        }
        bad = tmp / "overrides.json"
        bad.write_text(json.dumps(config))
        out = tmp / "report.json"
        assert main(["matrix", "--config", str(bad), "--out", str(out)]) == 1
        assert ("unknown override keys ['align_weight', 'gamma'] for combined-erm"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("scheme, key", UNREAD_OVERRIDES)
    def test_override_the_trainer_does_not_read_is_a_config_error(self, workspace, capsys,
                                                                  scheme, key):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["scheme_overrides"] = {scheme: {key: ADVERSARIAL_VALUES[key]}}
        bad = tmp / "unread.json"
        bad.write_text(json.dumps(config))
        out = tmp / "report.json"
        assert main(["matrix", "--config", str(bad), "--out", str(out)]) == 1
        reads = sorted([*TRAIN_KEYS, *OWN_KEYS[scheme]])
        assert (f"udakit: error: scheme_overrides.{scheme}.{key}: unknown override keys "
                f"['{key}'] for {scheme}; its trainer reads {reads}" in capsys.readouterr().err)
        assert not out.exists()

    def test_float_hidden_sizes_train_as_their_ints(self, workspace):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        cells = {}
        for sizes in ([8], [8.0]):
            config["train"]["hidden_sizes"] = sizes
            path = tmp / f"sizes-{sizes[0]}.json"
            path.write_text(json.dumps(config))
            out = tmp / f"report-{sizes[0]}.json"
            assert main(["matrix", "--config", str(path), "--out", str(out)]) == 0
            cells[str(sizes)] = json.loads(out.read_text())["cells"]
        assert cells["[8]"] == cells["[8.0]"]

    @pytest.mark.parametrize("sizes", [[0], [8.5]])
    def test_bad_hidden_sizes_are_a_config_error(self, workspace, capsys, sizes):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        config["train"]["hidden_sizes"] = sizes
        path = tmp / "sizes.json"
        path.write_text(json.dumps(config))
        assert main(["matrix", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"hidden_sizes entries must be whole numbers >= 1, got {sizes[0]}" in err

    @pytest.mark.parametrize("key, value", [("seed", 1), ("resample", True), ("n_classes", 2)])
    @pytest.mark.parametrize("path", ["train", "scheme_overrides.combined-dann"])
    def test_settings_the_harness_sets_are_a_config_error(self, workspace, capsys, path,
                                                          key, value):
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        if path == "train":
            config["train"][key] = value
        else:
            config["scheme_overrides"] = {"combined-dann": {key: value}}
        bad = tmp / "harness-set.json"
        bad.write_text(json.dumps(config))
        out = tmp / "report.json"
        assert main(["matrix", "--config", str(bad), "--out", str(out)]) == 1
        assert f"udakit: error: {path}.{key} is set by the harness" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, edit, message", [
        ("matrix", lambda c: c["train"].update(epochs="3"),
         "train.epochs must be a whole number, got '3'"),
        ("matrix", lambda c: c.update(scheme_overrides={"combined-dann": {"domain_weight": -1}}),
         "scheme_overrides.combined-dann.domain_weight must be >= 0"),
        ("matrix", lambda c: c["domains"][2].update(n_samples="3"),
         "domains[2]: n_samples must be a whole number, got '3'"),
        ("fairness", lambda c: c.update(repeats=True), "repeats must be a whole number, got True"),
        ("train", lambda c: c.update(scheme_overrides={"multi-mdan": {"gamma": "x"}}),
         "scheme_overrides.multi-mdan.gamma must be a finite number, got 'x'"),
    ], ids=["train-value", "override", "domain-field", "fairness-repeats", "train-unlisted-scheme"])
    def test_malformed_settings_fail_before_any_domain_exists(self, workspace, capsys,
                                                              monkeypatch, command, edit,
                                                              message):
        def generate_domain(spec):
            raise AssertionError(f"domain {spec.domain_id} generated before the config check")

        monkeypatch.setattr(harness, "generate_domain", generate_domain)
        tmp, _, config_path = workspace
        config = json.loads(config_path.read_text())
        edit(config)
        bad = tmp / "malformed.json"
        bad.write_text(json.dumps(config))
        argv = [command, "--config", str(bad), "--out", str(tmp / "out")]
        if command == "train":      # multi-mdan is not among the config's schemes
            argv += ["--target", "d0", "--scheme", "multi-mdan"]
        assert main(argv) == 1
        assert f"udakit: error: {message}" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps({"task": "binary", "schemes": ["nope"]}))
        assert main(["matrix", "--config", str(bad)]) == 1

    def test_usage_error_maps_to_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--format", "pdf"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["eval", "--model", "m.json", "--data", "d.csv", "--workers", "2"],
        ["eval", "--model", "m.json", "--data", "d.csv", "--seed", "1"],
        ["eval", "--model", "m.json", "--data", "d.csv", "--config", "c.json"],
        ["split", "--data", "d.csv", "--config", "c.json"],
        ["diagnose", "--data", "a.csv", "b.csv", "--config", "c.json"],
        ["gen", "--config", "s.json", "--workers", "2"],
        ["train", "--config", "c.json", "--target", "d0", "--scheme", "combined-erm",
         "--format", "table"],
        ["fairness", "--config", "c.json", "--format", "table"],
    ])
    def test_flag_the_subcommand_does_not_read_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err


def file_paths(*names):
    """An edit that swaps the domain specs for dataset_paths naming the
    workspace's generated files (a name with no file, such as 1, is kept)."""
    def edit(config, data):
        del config["domains"]
        config["dataset_paths"] = [str(data / f"{n}.csv") if isinstance(n, str) else n
                                   for n in names]
    return edit


def setting(key, value):
    def edit(config, data):
        config[key] = value
    return edit


def duplicate_domain_id(config, data):
    config["domains"][1]["domain_id"] = "d0"


def nan_feature(config, data):
    """dataset_paths naming the generated files, with nan put in d1's row 3, column f1."""
    lines = (data / "d1.csv").read_text().splitlines()
    lines[3] = ",".join(lines[3].split(",")[:5] + ["nan"])
    (data / "d1.csv").write_text("\n".join(lines) + "\n")
    file_paths("d0", "d1", "d2")(config, data)


class TestLoadTimeChecks:
    """Settings that once escaped cli.main as tracebacks, trained before they
    failed, or ran on silently: each is a config error (exit 1) naming the
    setting, and nothing is written."""

    @pytest.mark.parametrize("command, edit, message", [
        ("matrix", file_paths(1, 2), "dataset_paths[0] must be a non-empty path"),
        ("matrix", file_paths("d0", {"train": 1, "test": 2}), "dataset_paths[1] must be"),
        ("matrix", file_paths("d0", {"train": "d1.csv"}), "dataset_paths[1] must be"),
        ("matrix", setting("fairness_bins", "zodiac"),
         "fairness_bins: unknown group preset 'zodiac'"),
        ("fairness", setting("fairness_bins", "zodiac"),
         "fairness_bins: unknown group preset 'zodiac'"),
        ("fairness", setting("fairness_bins", [[0, 1, 2]]), "fairness_bins: group bin 0"),
        ("fairness", setting("fairness_bins", [["a", 1]]), "fairness_bins: group bin 0"),
        ("matrix", duplicate_domain_id, "domains[1]: domain_id 'd0' is already the id of "
                                        "domains[0]"),
        ("matrix", file_paths("d0", "d1", "d0-copy"),
         "dataset_paths[2]: domain id 'd0' is already the id of an earlier entry"),
        ("matrix", setting("schemes", ["single-erm", "bogus"]),
         "schemes[1]: unknown scheme 'bogus'; bases are"),
        ("fairness", setting("fairness_schemes", ["combined-erm", "bogus"]),
         "fairness_schemes[1]: unknown scheme 'bogus'; bases are"),
        ("matrix", setting("scheme_overrides", {"bogus": {}}),
         "scheme_overrides.bogus: unknown scheme 'bogus'; bases are"),
        ("fairness", setting("fairness_schemes", []),
         "fairness_schemes must name at least one scheme"),
        ("matrix", nan_feature, "d1.csv: non-finite feature 'nan' at row 3, column f1"),
    ], ids=["paths-not-strings", "pair-not-strings", "pair-without-test", "matrix-unknown-bins",
            "fairness-unknown-bins", "bin-of-three", "bin-not-numbers", "repeated-spec-id",
            "repeated-file-id", "unknown-scheme", "unknown-fairness-scheme",
            "unknown-override-scheme", "no-fairness-schemes", "nan-feature-file"])
    def test_bad_setting_exits_1(self, workspace, capsys, command, edit, message):
        tmp, spec_path, config_path = workspace
        data = tmp / "data"
        assert main(["gen", "--config", str(spec_path), "--out", str(data)]) == 0
        (data / "d0-copy.csv").write_bytes((data / "d0.csv").read_bytes())
        config = json.loads(config_path.read_text())
        edit(config, data)
        config_path.write_text(json.dumps(config))
        capsys.readouterr()
        out = tmp / "report.json"
        assert main([command, "--config", str(config_path), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


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

    def test_diagnose_files_are_pinned(self, tmp_path):
        # three unequal sizes take the merged-CDF path of sliced W1, the
        # equal-size twin t1 of d1 the matched order-statistics path
        specs = [blob_spec(f"d{i}", 60 + i, n=n, mean_shift=0.5 * i)
                 for i, n in enumerate((70, 95, 130))]
        specs.append(blob_spec("t1", 64, n=95, mean_shift=1.3, mix=(0.3, 0.7)))
        spec_path = tmp_path / "specs.json"
        spec_path.write_text(json.dumps([spec_to_dict(s) for s in specs]))
        assert main(["gen", "--config", str(spec_path), "--out", str(tmp_path / "data")]) == 0
        ids = [s.domain_id for s in specs]
        rows = ["source,target,test_error"]
        rows += [f"{s},{t},{0.05 * (i + 2 * j) % 0.7:.3f}"
                 for i, s in enumerate(ids) for j, t in enumerate(ids) if s != t]
        (tmp_path / "errors.csv").write_text("\n".join(rows) + "\n")
        out = tmp_path / "shift"
        code = main(["diagnose", "--data", *[str(tmp_path / "data" / f"{d}.csv") for d in ids],
                     "--errors", str(tmp_path / "errors.csv"), "--projections", "32",
                     "--seed", "2", "--out", str(out)])
        assert code == 0
        assert {suffix: hashlib.sha256(out.with_suffix(suffix).read_bytes()).hexdigest()
                for suffix in (".csv", ".json")} == DIAGNOSE_FILES_SHA256

    @pytest.mark.parametrize("bad_row, message", [
        ("d1,d0,nan", "line 4: test error 'nan' is not finite"),
        ("d0,d1,0.5", "line 4: duplicate pair d0->d1"),
        ("d1,d0", "line 4: 2 fields, expected 3"),
    ], ids=["nan", "duplicate", "two-fields"])
    def test_bad_error_table_is_a_config_error(self, workspace, capsys, bad_row, message):
        tmp, spec_path, _ = workspace
        main(["gen", "--config", str(spec_path), "--out", str(tmp / "data")])
        files = [str(tmp / "data" / f"d{i}.csv") for i in range(3)]
        rows = ["source,target,test_error", "d0,d1,0.1", "d0,d2,0.2", bad_row]
        rows += [f"d{s},d{t},0.3" for s, t in ((1, 2), (2, 0), (2, 1))]
        if "d1,d0," not in bad_row:
            rows.append("d1,d0,0.4")
        (tmp / "errors.csv").write_text("\n".join(rows) + "\n")
        out = tmp / "shift_bad"
        code = main(["diagnose", "--data", *files, "--errors", str(tmp / "errors.csv"),
                     "--projections", "8", "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.with_suffix(".json").exists()
