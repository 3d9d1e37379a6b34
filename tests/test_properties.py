"""Property tests: AUROC against the pair-count oracle, sliced W1 symmetry
and translation, exact model and dataset file round trips, and experiment
files with one malformed setting.

Hypothesis runs derandomized with no example database, so every run draws
the same examples and Tier-1 stays deterministic.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from udakit import (
    DomainDataset,
    ModelBundle,
    init_mlp,
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from udakit.cli import main
from udakit.metrics import UndefinedMetricError, auroc
from udakit.shift import wasserstein_feature_distance
from oracles import auroc_pairs

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)

finite = st.floats(allow_nan=False, allow_infinity=False)
# few distinct values make ties common; the rest reach every finite double
scores = st.one_of(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 1e-300]), finite,
                   st.sampled_from([math.inf, -math.inf]))


@PROPERTY
@given(st.data())
def test_auroc_matches_the_pair_count_oracle(data):
    n = data.draw(st.integers(2, 40))
    labels = data.draw(arrays(np.int64, n, elements=st.integers(0, 1)))
    labels[:2] = [0, 1]
    s = data.draw(arrays(np.float64, n, elements=scores))
    assert auroc(s, labels) == pytest.approx(auroc_pairs(s, labels), abs=1e-12)


@PROPERTY
@given(st.data())
def test_auroc_rejects_nan_scores(data):
    n = data.draw(st.integers(2, 20))
    labels = np.arange(n) % 2
    s = data.draw(arrays(np.float64, n, elements=scores))
    s[data.draw(st.integers(0, n - 1))] = np.nan
    with pytest.raises(UndefinedMetricError, match="NaN"):
        auroc(s, labels)


def clouds(dim: int):
    return arrays(np.float64, st.tuples(st.integers(1, 30), st.just(dim)),
                  elements=st.floats(-1e3, 1e3))


@PROPERTY
@given(st.data(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1), st.integers(1, 40))
def test_sliced_w1_is_symmetric_bit_for_bit(data, dim, seed, projections):
    a, b = data.draw(clouds(dim)), data.draw(clouds(dim))
    d_ab = wasserstein_feature_distance(a, b, projections=projections, seed=seed)
    assert d_ab == wasserstein_feature_distance(b, a, projections=projections, seed=seed)


# one projection's |u . delta| / |delta| has a coefficient of variation below
# 0.76 in every dimension, so the mean over P projections lies within 5 of its
# standard deviations of |delta| when it is within 5 * 0.76 / sqrt(P)
TRANSLATION_PROJECTIONS = 1024
TRANSLATION_TOLERANCE = 5 * 0.76 / math.sqrt(TRANSLATION_PROJECTIONS)


@PROPERTY
@given(st.data(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_sliced_w1_of_a_translated_cloud_is_the_shift_norm(data, dim, seed):
    a = data.draw(arrays(np.float64, st.tuples(st.integers(1, 25), st.just(dim)),
                         elements=st.floats(-10, 10)))
    delta = data.draw(arrays(np.float64, dim, elements=st.floats(-5, 5)))
    norm = float(np.linalg.norm(delta))
    if norm < 0.5:
        delta = delta + 0.5
        norm = float(np.linalg.norm(delta))
    d = wasserstein_feature_distance(a, a + delta, projections=TRANSLATION_PROJECTIONS,
                                     seed=seed)
    rel = 1e-9 if dim == 1 else TRANSLATION_TOLERANCE     # one dimension is exact
    assert d == pytest.approx(norm, rel=rel)


@PROPERTY
@given(st.data(), st.lists(st.integers(1, 5), min_size=2, max_size=4), st.integers(1, 3),
       st.booleans())
def test_model_file_round_trip_is_exact(tmp_path_factory, data, sizes, n_heads, weighted):
    rng = np.random.default_rng(0)
    extractor = init_mlp(sizes, rng, final="relu")
    heads = [init_mlp([sizes[-1], 3], rng) for _ in range(n_heads)]
    for net in (extractor, *heads):
        net.params[:] = data.draw(arrays(np.float64, net.params.size, elements=finite))
    weights = None
    if weighted:
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=n_heads, max_size=n_heads))
        weights = [w / math.fsum(raw) for w in raw]
    bundle = ModelBundle(extractor, heads, weights, {"epochs": 3, "hidden_sizes": sizes[1:]},
                         data.draw(st.integers(0, 2 ** 63 - 1)))
    path = tmp_path_factory.mktemp("model") / "m.json"
    save_model(bundle, path)
    back = load_model(path)
    assert (back.ensemble_weights, back.train_config, back.seed) == (
        bundle.ensemble_weights, bundle.train_config, bundle.seed)
    for got, want in zip((back.extractor, *back.classifiers), (extractor, *heads)):
        assert got.activations == want.activations
        assert [w.shape for w in got.weights] == [w.shape for w in want.weights]
        assert got.params.tobytes() == want.params.tobytes()


def is_one_csv_field(text: str) -> bool:
    """A dataset file field: no comma and no line boundary (as str.splitlines sees one)."""
    return "," not in text and "".join(text.splitlines()) == text


@PROPERTY
@given(st.data(), st.integers(1, 12), st.integers(1, 4), st.text(max_size=6))
def test_dataset_file_round_trip_is_exact_or_refused(tmp_path_factory, data, n, dim,
                                                     domain_id):
    ids = data.draw(st.lists(st.text(max_size=6), min_size=n, max_size=n, unique=True))
    dataset = DomainDataset(
        domain_id,
        data.draw(arrays(np.float64, (n, dim), elements=finite)),
        data.draw(arrays(np.int64, n, elements=st.integers(0, 2 ** 62))),
        data.draw(arrays(np.int64, n, elements=st.integers(0, 9))),
        ids)
    path = tmp_path_factory.mktemp("data") / "d.csv"
    if not all(map(is_one_csv_field, (domain_id, *ids))):
        with pytest.raises(ValueError, match="contains a delimiter"):
            save_dataset(dataset, path)
        return
    save_dataset(dataset, path)
    back = load_dataset(path)
    assert (back.domain_id, back.sample_ids) == (dataset.domain_id, dataset.sample_ids)
    assert back.features.tobytes() == dataset.features.tobytes()
    assert np.array_equal(back.labels, dataset.labels)
    assert np.array_equal(back.sensitive, dataset.sensitive)


def experiment() -> dict:
    """A valid three-domain experiment file's contents, with an (empty)
    override entry for a scheme of each adversarial trainer and the
    moment-matching one."""
    domains = [{"domain_id": f"d{i}", "n_samples": 40, "dim": 2,
                "class_means": [[0.3 * i, 0.0], [3.0 + 0.3 * i, 0.0]], "class_cov_scale": 0.6,
                "label_distribution": [0.5, 0.5], "sensitive_distribution": [1.0],
                "sensitive_mean_offset": [[0.0, 0.0]], "seed": 10 + i} for i in range(3)]
    return {"task": "binary", "schemes": ["single-erm", "combined-dann", "rs-multi-m3sda"],
            "domains": domains, "repeats": 1, "base_seed": 5, "n_classes": 2,
            "train": {"epochs": 1, "hidden_sizes": [4], "batch_size": 32},
            "scheme_overrides": {"combined-dann": {}, "combined-adda": {}, "multi-mdan": {},
                                 "rs-multi-m3sda": {}}}


# every setting of the validation probe, each as its key path in experiment()
SETTINGS = (
    [(k,) for k in ("task", "schemes", "dataset_paths", "repeats", "base_seed",
                    "split_ratio", "n_classes", "train", "scheme_overrides")]
    + [("train", k) for k in ("epochs", "batch_size", "learning_rate", "momentum",
                              "hidden_sizes", "resample", "seed", "n_classes")]
    + [("domains", 0, k) for k in ("n_samples", "dim", "seed", "domain_id", "class_cov_scale")]
    + [("fairness_bins",), ("dataset_paths", 1), ("domains", 1, "domain_id")]
    + [("scheme_overrides", scheme, k)
       for scheme in ("combined-dann", "combined-adda", "multi-mdan")
       for k in ("domain_weight", "schedule", "ramp_fraction", "disc_hidden", "gamma",
                 "hard_max", "pretrain_epochs", "adapt_epochs", "adapt_learning_rate")]
    + [("scheme_overrides", "rs-multi-m3sda", k)
       for k in ("align_weight", "discrepancy_weight", "ensemble", "holdout_ratio")])
# the probe's values, as JSON text
PROBE_VALUES = ['"3"', "null", "[]", "{}", "true", "-1", "0", "1.5", "NaN"]
# the probe values each setting legitimately takes; every other pair is malformed
VALID = {
    ("dataset_paths",): ["null"], ("base_seed",): ["-1", "0"], ("n_classes",): ["null"],
    ("train",): ["{}"], ("scheme_overrides",): ["{}"], ("train", "epochs"): ["0"],
    ("train", "learning_rate"): ["1.5"], ("train", "momentum"): ["0"],
    ("domains", 0, "seed"): ["0"], ("domains", 0, "domain_id"): ['"3"'],
    ("domains", 1, "domain_id"): ['"3"'], ("fairness_bins",): ["null"],
    ("dataset_paths", 1): ['"3"'],
    ("domains", 0, "class_cov_scale"): ["1.5"],
    # an override key its trainer does not read takes no value at all
    ("scheme_overrides", "combined-dann", "domain_weight"): ["0", "1.5"],
    ("scheme_overrides", "combined-dann", "ramp_fraction"): ["0"],
    ("scheme_overrides", "combined-dann", "disc_hidden"): ["[]"],
    ("scheme_overrides", "combined-adda", "disc_hidden"): ["[]"],
    ("scheme_overrides", "combined-adda", "pretrain_epochs"): ["null", "0"],
    ("scheme_overrides", "combined-adda", "adapt_epochs"): ["null", "0"],
    ("scheme_overrides", "combined-adda", "adapt_learning_rate"): ["null", "1.5"],
    ("scheme_overrides", "multi-mdan", "domain_weight"): ["0", "1.5"],
    ("scheme_overrides", "multi-mdan", "ramp_fraction"): ["0"],
    ("scheme_overrides", "multi-mdan", "disc_hidden"): ["[]"],
    ("scheme_overrides", "multi-mdan", "gamma"): ["1.5"],
    ("scheme_overrides", "multi-mdan", "hard_max"): ["true"],
    ("scheme_overrides", "rs-multi-m3sda", "align_weight"): ["0", "1.5"],
    ("scheme_overrides", "rs-multi-m3sda", "discrepancy_weight"): ["0", "1.5"],
}
# values malformed for one setting alone, beyond the probe's
SPECIFIC = {
    ("fairness_bins",): ['"zodiac"', "[[0, 1, 2]]", '[["a", 1]]', "[[1, 0]]", "[[0, NaN]]"],
    ("dataset_paths", 1): ['""', "[1, 2]", '{"train": 1, "test": 2}', '{"train": "d1.csv"}',
                           '{"train": "a.csv", "test": "b.csv", "extra": "c.csv"}'],
    ("domains", 1, "domain_id"): ['"d0"'],
}
MALFORMED = [(setting, text) for setting in SETTINGS for text in PROBE_VALUES
             if text not in VALID.get(setting, [])]
MALFORMED += [(setting, text) for setting, texts in SPECIFIC.items() for text in texts]


def setting_name(setting: tuple) -> str:
    """How an error message names the setting: domains[0]: n_samples,
    dataset_paths[1], or the dotted path such as
    scheme_overrides.combined-dann.gamma."""
    if setting[0] == "domains":
        return f"domains[{setting[1]}]: {setting[2]}"
    if setting[0] == "dataset_paths" and len(setting) > 1:
        return f"dataset_paths[{setting[1]}]"
    return ".".join(setting)


@settings(derandomize=True, database=None, deadline=None, max_examples=len(MALFORMED))
@given(st.sampled_from(MALFORMED))
def test_a_malformed_setting_is_a_config_error_naming_it(tmp_path_factory, pair):
    setting, text = pair
    config = experiment()
    if setting[0] == "dataset_paths" and len(setting) > 1:
        # a file-based experiment: its entries are checked before any file is read
        del config["domains"]
        config["dataset_paths"] = [f"d{i}.csv" for i in range(3)]
    parent = config
    for key in setting[:-1]:
        parent = parent[key]
    parent[setting[-1]] = json.loads(text)
    folder = tmp_path_factory.mktemp("malformed")
    (folder / "experiment.json").write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["matrix", "--config", str(folder / "experiment.json"),
                     "--out", str(folder / "report.json")])
    assert code == 1
    assert err.getvalue().startswith("udakit: error: ")
    assert setting_name(setting) in err.getvalue()
    assert not (folder / "report.json").exists()
