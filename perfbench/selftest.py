"""Tests for the benchmark itself: its checks and its tracer.

    python3 -m pytest -q perfbench/selftest.py

Each check must pass on the program's real outputs and fail once one
output is corrupted; traced call counts must equal the counts the config
implies. The tests run one round of each real workload at a fixed seed,
which takes about a minute.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
import udakit.cli  # noqa: E402

SEED = 1


def _run(workload, traced: bool = False):
    """Set up and run one round; keep the outputs' bytes so tests can restore them."""
    workload.setup()
    t = tracer.Tracer() if traced else None
    if t is not None:
        t.install()
    try:
        for argv in workload.commands():
            assert udakit.cli.main(argv) in (0, 2)
    finally:
        if t is not None:
            t.remove()
    workload.spans = t.spans() if t is not None else None
    workload.saved = {p: p.read_bytes() for p in workload.outputs()}
    return workload


def _restore(workload):
    """Put back the round's outputs so each test starts from uncorrupted ones."""
    for path, data in workload.saved.items():
        path.write_bytes(data)


def _edit_json(path: Path, edit) -> None:
    payload = json.loads(path.read_text(encoding="utf-8"))
    edit(payload)
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    return _run(workloads.GridBinary(SEED, tmp_path_factory.mktemp("grid")), traced=True)


@pytest.fixture(scope="module")
def fairness(tmp_path_factory):
    return _run(workloads.FairnessMulticlass(SEED, tmp_path_factory.mktemp("fair")))


@pytest.fixture(scope="module")
def shift(tmp_path_factory):
    return _run(workloads.ShiftFiles(SEED, tmp_path_factory.mktemp("shift")))


def test_grid_check_fails_on_one_altered_auroc(grid):
    _restore(grid)
    assert grid.check() == []
    ids = sorted(d["domain_id"] for d in grid.cfg["domains"])
    target, repeat = ids[grid.seed % 3], grid.seed % grid.repeats

    def alter(report):
        cell = next(c for c in report["cells"]
                    if c["target"] == target and c["scheme"] == "rs-combined-dann")
        cell["values"][repeat] += 1e-3

    _edit_json(grid.report_path, alter)
    fails = grid.check()
    assert len(fails) == 1 and "pair count" in fails[0]


def test_grid_counts_a_collapsed_value_as_a_failed_operation(grid):
    _restore(grid)
    before = grid.failed_ops([0])

    def collapse(report):
        cell = next(c for c in report["cells"] if not grid.collapsed(c))
        cell["values"][0] = 0.5

    _edit_json(grid.report_path, collapse)
    assert grid.failed_ops([0]) == before + 1


def test_fairness_check_fails_on_perturbed_ratio(fairness):
    _restore(fairness)
    assert fairness.check() == []
    target = sorted(d["domain_id"] for d in fairness.cfg["domains"])[fairness.seed % 4]

    def perturb(report):
        cell = next(c for c in report["cells"]
                    if c["target"] == target and c["scheme"] == "single-erm")
        cell["values"]["dpm"][0] *= 0.999

    _edit_json(fairness.report_path, perturb)
    fails = fairness.check()
    assert len(fails) == 1 and "dpm" in fails[0]


def test_fairness_check_fails_on_ratio_above_one(fairness):
    _restore(fairness)
    _edit_json(fairness.report_path,
               lambda r: r["cells"][0]["values"]["eom"].__setitem__(0, 1.01))
    assert any("[0, 1]" in f for f in fairness.check())


def test_shift_check_fails_on_one_changed_csv_value(shift):
    _restore(shift)
    assert shift.check() == []
    path = shift.data_dir / "d2.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[7].split(",")
    fields[-1] = repr(float(fields[-1]) + 1e-9)
    lines[7] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert shift.check() == ["d2.csv does not read back as generate_domain(spec)"]


def test_shift_check_fails_on_one_swapped_distance(shift):
    _restore(shift)

    def swap(report):
        pairs = report["pairs"]
        a, b = pairs["d0->d1"], pairs["d0->d2"]
        a["feature_distance"], b["feature_distance"] = b["feature_distance"], a["feature_distance"]

    _edit_json(shift.out_base.with_suffix(".json"), swap)
    fails = shift.check()
    assert any("d(d0->d1)" in f for f in fails) and any("d(d0->d2)" in f for f in fails)


def test_translated_pair_tolerance_matches_the_estimate():
    # |delta| = sqrt 2 at 16-D with 256 projections: about 4.5% relative per sigma
    tol = checks.sliced_tolerance(2 ** 0.5, 16, 256, sigmas=1.0)
    assert 0.04 < tol / 2 ** 0.5 < 0.05


def test_traced_steps_match_the_config(grid):
    spans = grid.spans
    assert tracer.trainer_steps(spans) == grid.expected_steps()
    layer = tracer.summarize(spans, rounds=1, repeats=grid.repeats)
    assert layer["nn.sgd_step.calls"] == sum(grid.expected_steps().values())
    assert layer["harness.train_cell.calls"] == grid.ops_per_round
    assert 0.5 < layer["harness.parallelism"] <= 1.0


def test_one_train_erm_takes_epochs_times_batches_steps():
    from udakit import DomainSpec, TrainConfig, generate_domain

    data = generate_domain(DomainSpec("x", 150, 2, np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0,
                                      np.array([0.5, 0.5]), np.array([1.0]), np.zeros((1, 2)), 4))
    t = tracer.Tracer()
    t.install()
    try:
        udakit.harness.train_erm(data, TrainConfig(epochs=3, batch_size=64))
    finally:
        t.remove()
    assert tracer.trainer_steps(t.spans()) == {"nn.train_erm": 3 * 3}


def test_stage_one_steps_of_adda_count_under_train_erm():
    from udakit import AdversarialConfig, DomainSpec, TrainConfig, generate_domain

    spec = DomainSpec("x", 100, 2, np.array([[0.0, 0.0], [2.0, 0.0]]), 1.0,
                      np.array([0.5, 0.5]), np.array([1.0]), np.zeros((1, 2)), 5)
    source = generate_domain(spec)
    t = tracer.Tracer()
    t.install()
    try:
        udakit.harness.train_adda(source, source.unlabeled(),
                                  AdversarialConfig(train=TrainConfig(epochs=2, batch_size=64)))
    finally:
        t.remove()
    spans = t.spans()
    assert tracer.trainer_steps(spans) == {"nn.train_erm": 2 * 2, "adversarial.train_adda": 2 * 2 * 2}
    layer = tracer.summarize(spans, rounds=1, repeats=1)
    duration = {name: float((spans.end - spans.start)[spans.name == spans.code(name)].sum())
                for name in ("adversarial.train_adda", "nn.train_erm")}
    assert layer["adversarial.train_adda.us_per_step"] == pytest.approx(
        1e6 * (duration["adversarial.train_adda"] - duration["nn.train_erm"]) / 8)


def test_tracer_patches_every_binding_site_and_restores_them():
    import udakit.adversarial
    import udakit.moment
    import udakit.nn

    sites = {"forward": (udakit, udakit.nn, udakit.adversarial, udakit.moment),
             "train_erm": (udakit, udakit.nn, udakit.adversarial, udakit.harness)}
    originals = {name: getattr(udakit.nn, name) for name in sites}
    t = tracer.Tracer()
    t.install()
    try:
        for name, mods in sites.items():
            assert all(tracer.is_traced(getattr(mod, name)) for mod in mods)
    finally:
        t.remove()
    for name, mods in sites.items():
        assert all(getattr(mod, name) is originals[name] for mod in mods)


def test_self_time_subtracts_the_union_of_children():
    assert tracer._covered(0.0, 10.0, [(1.0, 4.0), (2.0, 5.0), (7.0, 12.0)]) == 7.0
    spans = tracer.Spans.from_rows([(0, -1, 0, "cli.main", 0.0, 10.0, 0.0),
                                    (1, 0, 0, "harness.run_matrix", 1.0, 9.0, 0.0),
                                    (2, 1, 1, "harness.train_cell", 2.0, 6.0, 0.0),
                                    (3, 1, 2, "harness.train_cell", 3.0, 8.0, 0.0)])
    layer = tracer.summarize(spans, rounds=1, repeats=1)
    assert layer["cli.self_s"] == 2.0
    assert layer["harness.self_s"] == 2.0 + 4.0 + 5.0
    assert layer["harness.parallelism"] == 9.0 / 8.0
