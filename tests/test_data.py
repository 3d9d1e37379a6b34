from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
from scipy.stats import chisquare

from udakit import (
    DomainDataset,
    DomainSpec,
    class_distribution,
    concat_domains,
    generate_domain,
    load_dataset,
    save_dataset,
    stratified_split,
    weighted_sampler_weights,
)
from udakit import data as data_module
from udakit.data import check_value, spec_from_dict, spec_to_dict
from conftest import make_blobs
from oracles import nearest_mean_labels


def simple_spec(**overrides):
    base = dict(
        domain_id="d0", n_samples=100, dim=2,
        class_means=np.array([[0.0, 0.0], [3.0, 0.0]]), class_cov_scale=0.5,
        label_distribution=np.array([0.5, 0.5]),
        sensitive_distribution=np.array([1.0]),
        sensitive_mean_offset=np.zeros((1, 2)), seed=0,
    )
    base.update(overrides)
    return DomainSpec(**base)


H = b"id,domain,label,sensitive,f0,f1\n"    # the header of a two-feature dataset file


class TestDomainSpec:
    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            simple_spec(label_distribution=np.array([1.5, -0.5]))

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            simple_spec(label_distribution=np.array([0.5, 0.4]))

    def test_degenerate_single_class_allowed(self):
        spec = simple_spec(label_distribution=np.array([1.0, 0.0]))
        data = generate_domain(spec)
        assert set(np.unique(data.labels)) == {0}

    def test_cov_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="class_cov_scale"):
            simple_spec(class_cov_scale=0.0)


class TestGenerateDomain:
    def test_deterministic_given_seed(self):
        a = generate_domain(simple_spec())
        b = generate_domain(simple_spec())
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.sensitive, b.sensitive)
        assert a.sample_ids == b.sample_ids

    def test_single_sample(self):
        data = generate_domain(simple_spec(n_samples=1, seed=99))
        assert data.n_samples == 1
        assert data.labels[0] in (0, 1)

    def test_label_frequencies_converge(self):
        spec = simple_spec(n_samples=20000, label_distribution=np.array([0.7, 0.3]), seed=5)
        data = generate_domain(spec)
        freq = np.bincount(data.labels, minlength=2) / data.n_samples
        assert np.abs(freq - [0.7, 0.3]).max() < 0.02

    def test_binary_preset_matches_published_ratio(self):
        # nevus:melanoma 69:12 restricted to the binary label pair
        dist = class_distribution("isic2018", classes=(0, 1))
        assert dist == pytest.approx([69 / 81, 12 / 81])
        spec = simple_spec(n_samples=20000, label_distribution=dist, seed=3)
        data = generate_domain(spec)
        freq = np.bincount(data.labels, minlength=2) / data.n_samples
        assert freq[0] / freq[1] == pytest.approx(69 / 12, rel=0.1)

    def test_near_zero_noise_is_nearest_mean_separable(self):
        spec = simple_spec(class_cov_scale=1e-9, n_samples=500, seed=11)
        data = generate_domain(spec)
        predicted = nearest_mean_labels(data.features, spec.class_means)
        assert np.array_equal(predicted, data.labels)

    def test_group_offsets_shift_features(self):
        spec = simple_spec(
            sensitive_distribution=np.array([0.5, 0.5]),
            sensitive_mean_offset=np.array([[0.0, 0.0], [0.0, 10.0]]),
            n_samples=2000, seed=2,
        )
        data = generate_domain(spec)
        gap = data.features[data.sensitive == 1, 1].mean() - data.features[data.sensitive == 0, 1].mean()
        assert gap == pytest.approx(10.0, abs=0.2)


class TestStratifiedSplit:
    def test_exact_divisibility(self):
        data = make_blobs("d", 0, n=100, means=[(0.0, 0.0)], mix=[1.0])
        pair = stratified_split(data, 0.2, seed=1)
        assert pair.test.n_samples == 20
        assert pair.train.n_samples == 80

    def test_rounding_and_clamp(self):
        # counts {A: 10, B: 3} at ratio 0.2 -> test {A: 2, B: 1}
        features = np.zeros((13, 1))
        labels = np.array([0] * 10 + [1] * 3)
        data = DomainDataset("d", features, labels, np.zeros(13, dtype=int),
                             tuple(f"s{i}" for i in range(13)))
        pair = stratified_split(data, 0.2, seed=4)
        assert np.sum(pair.test.labels == 0) == 2
        assert np.sum(pair.test.labels == 1) == 1

    def test_singleton_class_stays_in_train(self):
        features = np.zeros((1, 1))
        data = DomainDataset("d", features, np.array([0]), np.array([0]), ("only",))
        pair = stratified_split(data, 0.2, seed=0)
        assert pair.train.n_samples == 1
        assert pair.test.n_samples == 0

    def test_disjoint_and_complete(self):
        data = make_blobs("d", 3, n=157, mix=[0.8, 0.2])
        pair = stratified_split(data, 0.3, seed=9)
        train_ids = set(pair.train.sample_ids)
        test_ids = set(pair.test.sample_ids)
        assert not train_ids & test_ids
        assert train_ids | test_ids == set(data.sample_ids)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_per_class_proportion_within_one_sample(self, seed):
        data = make_blobs("d", seed, n=331, means=[(0, 0), (2, 0), (4, 0)],
                          mix=[0.5, 0.3, 0.2])
        ratio = 0.25
        pair = stratified_split(data, ratio, seed=seed)
        for cls in range(3):
            n_c = int(np.sum(data.labels == cls))
            if n_c < 2:
                continue
            got = int(np.sum(pair.test.labels == cls))
            assert abs(got - ratio * n_c) <= 1

    def test_deterministic(self):
        data = make_blobs("d", 5, n=97)
        a = stratified_split(data, 0.2, seed=42)
        b = stratified_split(data, 0.2, seed=42)
        assert a.train.sample_ids == b.train.sample_ids

    def test_empty_dataset_rejected(self):
        data = make_blobs("d", 0, n=5)
        empty = data.subset(np.array([], dtype=int))
        with pytest.raises(ValueError, match="empty"):
            stratified_split(empty, 0.2, seed=0)


class TestConcat:
    def test_order_and_size(self):
        d1 = make_blobs("d1", 0, n=5)
        d2 = make_blobs("d2", 1, n=7)
        combined = concat_domains([d1, d2])
        assert combined.n_samples == 12
        assert combined.domain_id == "combined"
        assert np.array_equal(combined.features[:5], d1.features)
        assert np.array_equal(combined.features[5:], d2.features)

    def test_single_input_relabel(self):
        d1 = make_blobs("d1", 0, n=5)
        combined = concat_domains([d1])
        assert combined.domain_id == "combined"
        assert np.array_equal(combined.features, d1.features)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            concat_domains([])

    def test_dimension_mismatch(self):
        d1 = make_blobs("d1", 0, n=5)
        d2 = make_blobs("d2", 1, n=5, means=[(0.0,), (3.0,)])
        with pytest.raises(ValueError, match="dimension mismatch"):
            concat_domains([d1, d2])

    def test_associative_up_to_id_prefixing(self):
        d1, d2, d3 = (make_blobs(f"d{i}", i, n=4 + i) for i in range(3))
        left = concat_domains([concat_domains([d1, d2]), d3])
        right = concat_domains([d1, concat_domains([d2, d3])])
        flat = concat_domains([d1, d2, d3])
        for other in (left, right):
            assert np.array_equal(flat.features, other.features)
            assert np.array_equal(flat.labels, other.labels)
            for mine, theirs in zip(flat.sample_ids, other.sample_ids):
                assert theirs.endswith(mine.split("/", 1)[1]) or theirs.endswith(mine)


class TestSamplerWeights:
    def test_balanced_labels_uniform_weights(self):
        w = weighted_sampler_weights(np.array([0, 0, 1, 1]), 2)
        assert np.allclose(w, 0.25)

    def test_imbalanced_weights(self):
        w = weighted_sampler_weights(np.array([0, 0, 0, 1]), 2)
        assert np.allclose(w, [1 / 6, 1 / 6, 1 / 6, 1 / 2])
        p = w / w.sum()
        assert p[:3].sum() == pytest.approx(0.5)

    def test_absent_class_all_equal(self):
        w = weighted_sampler_weights(np.array([0, 0, 0, 0]), 2)
        assert np.allclose(w, 1 / 8)

    def test_out_of_range_label_rejected(self):
        with pytest.raises(ValueError, match="lie in"):
            weighted_sampler_weights(np.array([0, 2]), 2)

    def test_resampled_frequencies_near_uniform(self):
        rng = np.random.default_rng(0)
        labels = np.array([0] * 700 + [1] * 200 + [2] * 100)
        w = weighted_sampler_weights(labels, 3)
        draws = rng.choice(labels.size, size=100_000, replace=True, p=w / w.sum())
        counts = np.bincount(labels[draws], minlength=3)
        freq = counts / counts.sum()
        assert np.abs(freq - 1 / 3).max() < 0.02
        assert chisquare(counts).pvalue > 0.001


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        data = make_blobs("domain-a", 7, n=37, groups=(0.6, 0.4),
                          group_offsets=[(0, 0), (1, 1)])
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        back = load_dataset(path)
        assert back.domain_id == data.domain_id
        assert np.array_equal(back.features, data.features)
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.sensitive, data.sensitive)
        assert back.sample_ids == data.sample_ids

    def test_bytes_equal_the_per_cell_numpy_scalar_formula(self, tmp_path):
        # the former writer, kept as the reference: every cell went through a
        # numpy scalar (int(labels[i]), float(features[i, j]))
        data = make_blobs("domain-a", 11, n=53, groups=(0.5, 0.5),
                          group_offsets=[(0, 0), (1e-300, -3e17)])
        data.features[0] = [0.1 + 0.2, -0.0]
        data.features[1] = [5e-324, 1.7976931348623157e308]
        header = ["id", "domain", "label", "sensitive"] + [f"f{j}" for j in range(data.dim)]
        lines = [",".join(header)]
        for i in range(data.n_samples):
            row = [data.sample_ids[i], data.domain_id, str(int(data.labels[i])),
                   str(int(data.sensitive[i]))]
            row += [repr(float(v)) for v in data.features[i]]
            lines.append(",".join(row))
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")

    def test_delimiter_in_sample_id_rejected(self, tmp_path):
        data = make_blobs("domain-a", 3, n=4)
        data.sample_ids = (*data.sample_ids[:2], "x,y", data.sample_ids[3])
        with pytest.raises(ValueError, match="contains a delimiter"):
            save_dataset(data, tmp_path / "d.csv")

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,domain,label,sensitive,f0\n")
        with pytest.raises(ValueError, match="empty dataset"):
            load_dataset(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("foo,bar\n1,2\n")
        with pytest.raises(ValueError, match="malformed header"):
            load_dataset(path)

    def test_out_of_range_label_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,domain,label,sensitive,f0\n"
                        "a,d,0,0,1.5\n"
                        "b,d,-1,0,2.5\n")
        with pytest.raises(ValueError, match=r"label -1 out of range at row 2, column label"):
            load_dataset(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_names_file_row_and_column(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text("id,domain,label,sensitive,f0,f1\n"
                        "a,d,1,0,2.0,1.0\n"
                        f"b,d,1,0,1.0,{text}\n")
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: non-finite feature '{text}' at row 2, column f1"

    def test_non_numeric_feature_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,domain,label,sensitive,f0\na,d,0,0,oops\n")
        with pytest.raises(ValueError, match=r"non-numeric feature 'oops' at row 1, column f0"):
            load_dataset(path)
        header = "id,domain,label,sensitive,f0,f1,f2,f3,f4\n"
        path.write_text(header + "a,d,0,0,1,2,3,4,5\nb,d,0,0,1,2,3,x3,5\n")
        with pytest.raises(ValueError, match=r"non-numeric feature 'x3' at row 2, column f3"):
            load_dataset(path)
        # with two bad fields in a row, the first is named
        path.write_text(header + "a,d,0,0,1,bad1,3,bad3,5\n")
        with pytest.raises(ValueError, match=r"non-numeric feature 'bad1' at row 1, column f1"):
            load_dataset(path)

    @pytest.mark.parametrize("bad_row, message", [
        ("f,d,0,0,oops", "non-numeric feature 'oops' at row 7, column f0"),
        ("f,d,0,0", "row 7 has 4 fields, expected 5"),
        ("f,d,x,0,1.0", "non-integer label 'x' at row 7, column label"),
        ("f,d,0,-2,1.0", "sensitive -2 out of range at row 7, column sensitive"),
        ("f,d,0,0,nan", "non-finite feature 'nan' at row 7, column f0"),
        ("f,d,99999999999999999999,0,1.0",
         "label 99999999999999999999 out of range at row 7, column label"),
    ], ids=["non-numeric", "field-count", "label", "sensitive", "non-finite", "label-overflow"])
    def test_rows_after_blank_lines_keep_their_file_numbers(self, tmp_path, bad_row, message):
        # a blank line after data row 2, a trailing one after row 3: row N is file line N + 1
        lines = ["id,domain,label,sensitive,f0", "a,d,0,0,1.0", "b,d,1,0,2.0", "",
                 "c,d,0,0,3.0", "", "e,d,1,0,4.0", bad_row, "g,d,0,0,5.0"]
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines) + "\n")
        assert lines[7] == bad_row
        with pytest.raises(ValueError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}: {message}"

    def test_blank_lines_are_skipped(self, tmp_path):
        data = make_blobs("domain-a", 3, n=5)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([*lines[:3], "", "", *lines[3:], ""]) + "\n")
        back = load_dataset(path)
        assert back.sample_ids == data.sample_ids
        assert back.features.tobytes() == data.features.tobytes()
        assert np.array_equal(back.labels, data.labels)

    @pytest.mark.parametrize("text, outcome", [
        (H + b"a,d,0,1,1.5,-2.25\r\nb,d,1,0,3,4\r\n", None),
        (H + b"a,d,0,1,1.5,-2.25\rb,d,1,0,3,4\r", None),
        (H + b"a,d,0,1,1.5,-2.25\nb,d,1,0,3,4", None),
        (H + b"\na,d,0,1,1.5,-2.25\n\n\r\nb,d,1,0,3,4\n\n", None),
        (H + b"a,d,0,1,1.5,-2.25\n \t\nb,d,1,0,3,4\n", "row 2 has 1 fields, expected 6"),
        (H + b"a\x0cx,d,0,1,1.5,-2.25\n", "row 1 has 1 fields, expected 6"),
        (H + "a\x85x,d,0,1,1.5,-2.25\n".encode(), "row 1 has 1 fields, expected 6"),
        (H + "a\u2028x,d,0,1,1.5,-2.25\n".encode(), "row 1 has 1 fields, expected 6"),
        (H + b",d,0,1,1.5,-2.25\n", None),
        (H + b'"a",d,0,1,1.5,-2.25\n#b,d,1,0,3,4\nc#,d,1,0,5,6\n', None),
        (H + b"a,d,0,1,1.5,-2.25,\nb,d,1,0,3,4,\n", "row 1 has 7 fields, expected 6"),
        (H + b"a,d,1_0,1,1_0.5,-2.25\n", None),
        (H + "a,d,\u0663,1,\u0663.5,-2.25\n".encode(), None),
        (H + b"a,d,0,1,1.5,-2.25\nb,d,1,0,3,nan\n", "non-finite feature 'nan' at row 2, column f1"),
        (H + b"a,d,0,1,1e999,-2.25\n", "non-finite feature '1e999' at row 1, column f0"),
        (H + b"a,d,9223372036854775808,1,1.5,-2.25\n",
         "label 9223372036854775808 out of range at row 1, column label"),
        (H + b"a,d,9223372036854775807,1,1.5,-2.25\n", None),
        (H + b"a,d, 3 ,+3,00012,-0\n", None),
        (H + b"a,d,1.0,1,1.5,-2.25\n", "non-integer label '1.0' at row 1, column label"),
        (H + b"a,d,\x1f1,1,1.5,-2.25\n", "non-integer label '\\x1f1' at row 1, column label"),
        (H + b"a,d,0,-1,1.5,-2.25\n", "sensitive -1 out of range at row 1, column sensitive"),
        (H + b"a,d,0,1,1.5,-2.25\nb,e,1,0,3,4\n", "mixed domain ids ['d', 'e']"),
        (H + b"a,d,0,1,1.5,-2.25\na,d,1,0,3,4\n", "sample_ids are not unique within domain 'd'"),
        (H + b"a\xff,d,0,1,1.5,-2.25\n", "can't decode byte 0xff"),
        (H + b"a\x00b, e ,0,1,1.5,-2.25\n", None),
        (H + b"a,d,0,1,1.5,-2.25\n", None),
        (b"\xef\xbb\xbf" + H + b"a,d,0,1,1.5,-2.25\n", "malformed header '\\ufeffid,domain,"),
        (H, "empty dataset (header only)"),
        (H + b"\n\r\n", "empty dataset (header only)"),
    ], ids=["crlf", "lone-cr", "no-final-newline", "blank-lines", "whitespace-line",
            "form-feed-in-id", "nel-in-id", "line-separator-in-id", "empty-id",
            "quote-and-hash-ids", "trailing-comma", "underscores", "arabic-indic-digits", "nan",
            "1e999", "label-2**63", "label-2**63-1", "spelled-integers", "float-label",
            "unit-separator", "negative-group", "mixed-domains", "repeated-id", "not-utf-8",
            "nul-and-spaces", "one-row", "bom", "header-only", "header-and-blank-lines"])
    def test_the_tokenizer_and_the_row_reader_agree(self, tmp_path, text, outcome):
        # outcome: None for a dataset, else a part of the message both readers give
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        results = []
        for reader in (load_dataset, data_module._load_rows):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    got = reader(path)
            except ValueError as err:
                results.append(str(err))
            else:
                results.append((got.domain_id, got.sample_ids, got.features.shape,
                                got.features.tobytes(), got.labels.tobytes(),
                                got.sensitive.tobytes()))
        assert results[0] == results[1]
        if outcome is None:
            assert isinstance(results[0], tuple)
        else:
            assert outcome in results[0]

    def test_saved_files_take_the_tokenizer(self, tmp_path, monkeypatch):
        data = make_blobs("domain a", 5, n=40, groups=(0.5, 0.5), group_offsets=[(0, 0), (1, 1)])
        data.features[0] = [0.1 + 0.2, -0.0]
        data.features[1] = [5e-324, 1.7976931348623157e308]
        data.sample_ids = (" e ", '"q"', "#", "", "\u00fc\u2603", *data.sample_ids[5:])
        path = tmp_path / "d.csv"
        save_dataset(data, path)

        def row_reader(path):
            raise AssertionError(f"{path} went to the row reader")

        monkeypatch.setattr(data_module, "_load_rows", row_reader)
        back = load_dataset(path)
        assert (back.domain_id, back.sample_ids) == (data.domain_id, data.sample_ids)
        assert back.features.tobytes() == data.features.tobytes()
        assert back.labels.tobytes() == data.labels.tobytes()
        assert back.sensitive.tobytes() == data.sensitive.tobytes()
        # the patch is live: a file that the tokenizer's checks refuse reaches it
        path.write_text(path.read_text().replace("-0.0", "nan", 1))
        with pytest.raises(AssertionError, match="went to the row reader"):
            load_dataset(path)

    def test_a_plain_file_named_like_an_archive_is_read_as_text(self, tmp_path):
        data = make_blobs("domain-a", 3, n=6)
        path = tmp_path / "d.csv.gz"
        save_dataset(data, path)
        assert load_dataset(path).features.tobytes() == data.features.tobytes()

    def test_spec_round_trip(self):
        spec = simple_spec(seed=123)
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.domain_id == spec.domain_id
        assert back.seed == spec.seed
        assert np.array_equal(back.class_means, spec.class_means)
        assert np.array_equal(generate_domain(back).features,
                              generate_domain(spec).features)

    def test_spec_file_requires_exact_fields(self):
        payload = spec_to_dict(simple_spec())
        with pytest.raises(ValueError, match="unknown fields"):
            spec_from_dict(dict(payload, color="green"))
        del payload["seed"]
        with pytest.raises(ValueError, match="missing fields"):
            spec_from_dict(payload)


class TestCheckValue:
    @pytest.mark.parametrize("value, annotation, want", [
        (3, int, 3), (3.0, int, 3), (np.int64(4), int, 4), (2, float, 2), (0.5, float, 0.5),
        (None, int | None, None), (True, bool, True), ((1, 2), list[str], [1, 2]),
        ([8, 4], tuple[int, ...], (8, 4)), ("x", str | list | None, "x"), ({}, dict, {}),
    ])
    def test_accepted_values(self, value, annotation, want):
        got = check_value("f", value, annotation)
        assert got == want and type(got) is type(want)

    @pytest.mark.parametrize("value, annotation, expected", [
        (True, int, "a whole number"), (1.5, int, "a whole number"),
        (float("inf"), int, "a whole number"), ("3", int | None, "a whole number or null"),
        (False, float, "a finite number"), (float("nan"), float, "a finite number"),
        (1, bool, "true or false"), ("ab", list, "a list"), ([], dict, "an object"),
        ([[1.0], [np.inf]], np.ndarray, "finite numbers"), ({}, np.ndarray, "finite numbers"),
    ])
    def test_rejected_values_name_the_field(self, value, annotation, expected):
        with pytest.raises(ValueError, match=rf"^train\.f must be {expected}, got "):
            check_value("train.f", value, annotation)

    def test_arrays_come_back_as_float64(self):
        got = check_value("f", [[1, 2]], np.ndarray)
        assert got.dtype == np.float64 and got.shape == (1, 2)

    @pytest.mark.parametrize("field, value", [("n_samples", "3"), ("seed", -1),
                                              ("class_cov_scale", float("nan")),
                                              ("class_means", [[0.0, np.nan], [3.0, 0.0]])])
    def test_spec_fields_are_checked(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be"):
            simple_spec(**{field: value})
