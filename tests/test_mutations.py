"""Mutation gate: each row of MUTANTS is one plausible bug, a single text
replacement in one function, and every case the row names must fail with it.

A mutant is compiled from the function's source with the one replacement,
against its module's globals, and bound in place of the function at every
module that holds it (udakit's own and the test modules, which import
the step functions by name); the original is bound back afterwards, and no
file is written. A row whose old text does not occur exactly once in its
function fails, so a refactor of that function must update its rows.
UNGATED lists the mutants that no case here kills, each with the reason.
"""

from __future__ import annotations

import __future__
import contextlib
import importlib
import inspect
import sys
import textwrap
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest

import gradcheck_cases
import test_adversarial
import test_harness
import test_metrics
import test_shift
from udakit import nn

TESTS = Path(__file__).resolve().parent


class Mutant(NamedTuple):
    name: str
    module: str         # under udakit
    function: str
    old: str
    new: str
    cases: tuple[str, ...]


def gradcheck(name: str, seeds=range(4), **shape) -> None:
    """Criterion 1's check of one ALL_CASES entry: relative error at most
    1e-4 at every seed."""
    errors = [gradcheck_cases.ALL_CASES[name](seed, **shape) for seed in seeds]
    assert all(error <= 1e-4 for error in errors), errors


CASES = {
    **{f"gradcheck {name}": partial(gradcheck, name) for name in gradcheck_cases.ALL_CASES},
    # the fixed m3sda case has 2 sources, where source (k + 1) mod n is source l
    "gradcheck m3sda drawn with 3 sources": partial(
        gradcheck, "m3sda", seeds=[0], rows=3, target_rows=3, n_classes=4, n_sources=3),
    "auroc all ties": lambda: test_metrics.TestAuroc().test_all_ties(),
    "auroc pair-count oracle": lambda: [
        test_metrics.TestAuroc().test_matches_pair_counting_oracle(seed) for seed in range(10)],
    "pqd half versus perfect": lambda: test_metrics.TestPqd().test_half_versus_perfect(),
    "eom partial absence skipped": lambda: test_metrics.TestEom().test_partial_absence_skipped(),
    "fairness counting oracles": lambda: (
        test_metrics.TestOracleEquality().test_exhaustive_small_cases(3, 2)),
    "dann empty target": lambda: test_adversarial.TestTrainDann().test_empty_target_rejected(),
    "dann ramp_fraction 0 changes the model": lambda: (
        test_harness.TestConfigValidation()
        .test_every_own_key_a_scheme_accepts_changes_its_model("single-dann", "ramp_fraction", 0)),
    "w1 projection counts off the block size": lambda: (
        test_shift.TestWassersteinPerProjection().test_projection_counts_off_the_block_size()),
    "w1 1-D clouds": lambda: (
        test_shift.TestWassersteinPerProjection().test_random_clouds((37, 61), 1)),
    "w1 matrix against the per-pair oracle": lambda: (
        test_shift.TestWassersteinMatrix().test_every_pair_matches_the_per_pair_oracle(16, 17)),
}

MUTANTS = [
    # the step functions the gradient checks reach
    Mutant("dann reversal sign", "adversarial", "_dann_step_grads",
           "rev = -lam * ddom_in", "rev = lam * ddom_in", ("gradcheck dann",)),
    Mutant("mdan target-term sign", "adversarial", "_mdan_step_grads",
           "dfeat_t_total -= wk * lam", "dfeat_t_total += wk * lam",
           ("gradcheck mdan", "gradcheck mdan_hard_max")),
    Mutant("mdan discriminator weight", "adversarial", "_mdan_step_grads",
           "disc_grads.append(wk * lam * d_grad)", "disc_grads.append(wk * d_grad)",
           ("gradcheck mdan", "gradcheck mdan_hard_max")),
    Mutant("mdan soft-max weight sign", "adversarial", "_mdan_step_grads",
           "np.exp(gamma * (e - e.max()))", "np.exp(-gamma * (e - e.max()))",
           ("gradcheck mdan",)),
    Mutant("mdan hard maximum takes argmin", "adversarial", "_mdan_step_grads",
           "w[int(np.argmax(e))]", "w[int(np.argmin(e))]", ("gradcheck mdan_hard_max",)),
    Mutant("source step domain gradient doubled", "adversarial", "_source_step",
           "backward(disc, d_acts, ddl)", "backward(disc, d_acts, 2.0 * ddl)",
           ("gradcheck dann", "gradcheck mdan", "gradcheck mdan_hard_max")),
    Mutant("adda inversion labels", "adversarial", "_adda_inversion_grads",
           "np.zeros(len(feats_t), dtype=np.int64)", "np.ones(len(feats_t), dtype=np.int64)",
           ("gradcheck adda",)),
    Mutant("adda discriminator gradient sign", "adversarial", "_adda_disc_grads",
           "backward(disc, d_acts, ddl, input_grad=False)",
           "backward(disc, d_acts, -ddl, input_grad=False)", ("gradcheck adda",)),
    Mutant("m3sda source-source gradient to source (k + 1) mod n", "moment", "_m3sda_step_grads",
           "dfeat_s[l] += align_weight * db", "dfeat_s[(k + 1) % n_sources] += align_weight * db",
           ("gradcheck m3sda drawn with 3 sources",)),
    Mutant("m3sda discrepancy sign", "moment", "_m3sda_step_grads",
           "dprobs[l] -= np.sign(gap) * scale", "dprobs[l] += np.sign(gap) * scale",
           ("gradcheck m3sda",)),
    Mutant("m3sda discrepancy weight", "moment", "_m3sda_step_grads",
           "c_grads[k] += discrepancy_weight * g", "c_grads[k] += g", ("gradcheck m3sda",)),
    Mutant("softmax vjp without its inner product", "moment", "_softmax_vjp",
           "probs * (upstream - inner)", "probs * upstream", ("gradcheck m3sda",)),
    Mutant("moment first-moment gradient of b over na", "moment", "moment_distance_grads",
           "db -= diff1 / (n1 * nb)", "db -= diff1 / (n1 * na)",
           ("gradcheck moment", "gradcheck m3sda")),
    Mutant("moment second-moment gradient without its 2", "moment", "moment_distance_grads",
           "(2.0 * a / na)", "(a / na)", ("gradcheck moment", "gradcheck m3sda")),
    Mutant("backward relu mask >=", "nn", "backward",
           "(acts[i + 1] > 0.0)", "(acts[i + 1] >= 0.0)",
           ("gradcheck cross_entropy", "gradcheck dann", "gradcheck m3sda")),
    Mutant("cross_entropy normalised by classes", "nn", "cross_entropy",
           "grad /= n", "grad /= m", ("gradcheck cross_entropy", "gradcheck dann")),
    Mutant("classify_batch head gradient doubled", "nn", "classify_batch",
           "return loss, feats, acts, h_grad, dfeats",
           "return loss, feats, acts, 2.0 * h_grad, dfeats",
           ("gradcheck dann", "gradcheck mdan", "gradcheck m3sda")),
    Mutant("dann ramp one step ahead", "adversarial", "train_dann",
           "_domain_weight_at(cfg, t, total_steps)", "_domain_weight_at(cfg, t + 1, total_steps)",
           ("dann ramp_fraction 0 changes the model",)),
    # the metric oracles
    Mutant("auroc ties take their lowest rank", "metrics", "_average_ranks",
           "(starts + ends - 1) / 2.0 + 1.0", "starts + 1.0",
           ("auroc all ties", "auroc pair-count oracle")),
    Mutant("eom averaged over every class", "metrics", "_eom_details",
           "sum(ratios) / len(ratios)", "sum(ratios) / pred.n_classes",
           ("eom partial absence skipped", "fairness counting oracles")),
    Mutant("pqd divides by the worst group", "metrics", "_pqd_of",
           "top = max(qualities)", "top = min(qualities)",
           ("pqd half versus perfect", "fairness counting oracles")),
    Mutant("pqd reads the best group over the best", "metrics", "_pqd_of",
           "return min(qualities) / top", "return max(qualities) / top",
           ("pqd half versus perfect", "fairness counting oracles")),
    # the target-label firewall
    Mutant("require_unlabeled accepts an empty target", "data", "require_unlabeled",
           "target.n_samples == 0", "target.n_samples < 0", ("dann empty target",)),
    # the sliced W1 block loop and its kernel
    Mutant("w1 block slice one direction too long", "shift", "wasserstein_feature_distances",
           "directions[k0:k0 + _PROJECTION_BLOCK]", "directions[k0:k0 + _PROJECTION_BLOCK + 1]",
           ("w1 projection counts off the block size", "w1 matrix against the per-pair oracle")),
    Mutant("w1 projections left unsorted", "shift", "wasserstein_feature_distances",
           "runs.sort()", "runs", ("w1 projection counts off the block size", "w1 1-D clouds",
                                   "w1 matrix against the per-pair oracle")),
    Mutant("w1 sum not divided by the projection count", "shift", "wasserstein_feature_distances",
           "total / projections / _mean_abs_projection(dim)", "total / _mean_abs_projection(dim)",
           ("w1 projection counts off the block size", "w1 matrix against the per-pair oracle")),
    Mutant("w1 plan's last width zero", "shift", "_quantile_plan",
           "np.diff(starts, append=total)", "np.diff(starts, append=starts[-1])",
           ("w1 projection counts off the block size", "w1 1-D clouds",
            "w1 matrix against the per-pair oracle")),
    Mutant("w1 gaps without abs", "shift", "_w1_rows",
           "np.abs(gaps, out=gaps)", "gaps", ("w1 projection counts off the block size",
                                              "w1 1-D clouds",
                                              "w1 matrix against the per-pair oracle")),
]

# (mutant, why no case above kills it)
UNGATED = [
    (Mutant("dann domain labels misaligned on a partial batch", "adversarial", "train_dann",
            "both[bs - k:bs + k]", "both[:2 * k]", ()),
     "outside the step functions: killed by the byte pins and by criterion 4, 13 s alone"),
    (Mutant("adda inverts before the discriminator steps", "adversarial", "train_adda",
            "        sgd_step(disc_blocks, [d_grad], disc_opt)\n"
            "        inv_loss, t_grad = _adda_inversion_grads(target_extractor, disc, feats_t, "
            "t_acts)\n",
            "        inv_loss, t_grad = _adda_inversion_grads(target_extractor, disc, feats_t, "
            "t_acts)\n"
            "        sgd_step(disc_blocks, [d_grad], disc_opt)\n", ()),
     "outside the step functions: only the byte pins kill it"),
    (Mutant("require_unlabeled without its DomainDataset check", "data", "require_unlabeled",
            "if isinstance(target, DomainDataset):", "if False:", ()),
     "equivalent: the UnlabeledDomain check still refuses a labelled dataset"),
    (Mutant("require_unlabeled without its width check", "data", "require_unlabeled",
            "s.dim != target.dim", "False", ()),
     "no test gives a trainer a target of another width; its first forward pass refuses one"),
]


def binding_modules() -> list:
    """udakit and its loaded submodules, and every loaded test module: the
    places a function can be bound by name."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "udakit" or name.startswith("udakit.")
                                  or Path(getattr(m, "__file__", None) or "").parent == TESTS)]


def compile_mutant(fn, old: str, new: str):
    """fn recompiled from its source with old replaced by new. Its globals are
    its module's own, so it calls what that module binds, patches included."""
    source = textwrap.dedent(inspect.getsource(fn))
    count = source.count(old)
    if count != 1:
        raise AssertionError(f"{fn.__module__}.{fn.__name__}: {old!r} occurs {count} times")
    code = compile(source.replace(old, new), inspect.getsourcefile(fn), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    made: dict = {}
    exec(code, vars(sys.modules[fn.__module__]), made)
    return made[fn.__name__]


@contextlib.contextmanager
def applied(mutant: Mutant):
    """The mutant bound wherever its function is, for the with block."""
    fn = getattr(importlib.import_module(f"udakit.{mutant.module}"), mutant.function)
    replacement = compile_mutant(fn, mutant.old, mutant.new)
    sites = [(m, attr) for m in binding_modules() for attr, value in vars(m).items()
             if value is fn]
    for m, attr in sites:
        setattr(m, attr, replacement)
    try:
        yield sites
    finally:
        for m, attr in sites:
            setattr(m, attr, fn)


def fails(case) -> bool:
    """Whether case() fails as pytest would count it: by raising anything."""
    try:
        case()
    except (Exception, pytest.fail.Exception):
        return True
    return False


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_case_passes_without_a_mutant(name):
    CASES[name]()


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_named_case_kills_the_mutant(mutant):
    assert mutant.cases and set(mutant.cases) <= set(CASES)
    with applied(mutant):
        survived = [name for name in mutant.cases if not fails(CASES[name])]
    assert not survived, f"{mutant.name} survives {survived}"


@pytest.mark.parametrize("mutant", [m for m, _ in UNGATED], ids=[m.name for m, _ in UNGATED])
def test_every_ungated_mutant_still_applies(mutant):
    with applied(mutant):
        pass


def test_a_mutant_is_bound_at_every_site_and_then_restored():
    mutant = next(m for m in MUTANTS if m.function == "cross_entropy")
    original = nn.cross_entropy
    with applied(mutant) as sites:
        modules = {m.__name__ for m, _ in sites}
        assert {"udakit.nn", "udakit.adversarial", "gradcheck_cases"} <= modules
        assert gradcheck_cases.cross_entropy is nn.cross_entropy is not original
    assert all(getattr(m, attr) is original for m, attr in sites)


def test_an_old_text_that_does_not_occur_exactly_once_fails():
    for old in ("no such text", "grad"):
        with pytest.raises(AssertionError, match="occurs [0-9]+ times"):
            with applied(Mutant("bad", "nn", "cross_entropy", old, "x", ())):
                pass
