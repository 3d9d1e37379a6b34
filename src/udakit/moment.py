"""Multi-source training by feature-moment alignment.

A shared extractor feeds one classifier per source. Training pulls first and
second feature moments together across every source-target and source-source
pair, optionally nudges the per-source classifiers to agree on unlabeled
target batches, and predicts on the target by ensembling all classifiers
with the weights train_m3sda fixes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .data import DomainDataset, UnlabeledDomain, check_fields, require_unlabeled, stratified_split
from .metrics import UndefinedMetricError
from .nn import (
    Mlp,
    ModelBundle,
    RunRecord,
    TrainConfig,
    backward,
    build_model,
    classify_batch,
    forward,
    multi_source_batches,
    record_config,
    resolve_n_classes,
    run_epochs,
    seed_streams,
    softmax,
)


@dataclass
class MomentConfig:
    """align_weight scales the moment-alignment term, discrepancy_weight the
    mean pairwise L1 gap between classifier outputs on target batches.
    holdout_ratio 0 weights the heads equally; a ratio in (0, 1) holds out
    that share of each source and weights each head by its held-out accuracy."""

    train: TrainConfig = field(default_factory=TrainConfig)
    align_weight: float = 1.0
    discrepancy_weight: float = 0.1
    holdout_ratio: float = 0.0

    def __post_init__(self) -> None:
        check_fields(self)
        for name in ("align_weight", "discrepancy_weight"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 <= self.holdout_ratio < 1.0:
            raise ValueError("holdout_ratio must be in [0, 1)")


def moment_distance_grads(features_a: np.ndarray,
                          features_b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Moment distance plus its gradients with respect to both feature batches."""
    a = np.asarray(features_a, dtype=np.float64)
    b = np.asarray(features_b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"feature batches must be 2-D with equal width, got {a.shape} and {b.shape}")
    if a.shape[0] < 1 or b.shape[0] < 1:
        raise ValueError("feature batches must each have at least one row")

    na, nb = a.shape[0], b.shape[0]
    diff1 = a.sum(axis=0) / na - b.sum(axis=0) / nb
    diff2 = (a ** 2).sum(axis=0) / na - (b ** 2).sum(axis=0) / nb
    n1 = math.sqrt(diff1 @ diff1)
    n2 = math.sqrt(diff2 @ diff2)

    da = np.zeros_like(a)
    db = np.zeros_like(b)
    if n1 > 0.0:
        da += diff1 / (n1 * na)
        db -= diff1 / (n1 * nb)
    if n2 > 0.0:
        da += (diff2 / n2) * (2.0 * a / na)
        db -= (diff2 / n2) * (2.0 * b / nb)
    return n1 + n2, da, db


def _softmax_vjp(probs: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Gradient wrt logits given gradient wrt softmax outputs."""
    inner = (upstream * probs).sum(axis=1, keepdims=True)
    return probs * (upstream - inner)


def train_m3sda(sources: list[DomainDataset], target: UnlabeledDomain,
                cfg: MomentConfig) -> ModelBundle:
    """Joint minimization of per-source cross-entropy, pairwise moment
    distances, and (optionally) classifier output discrepancy on the target.

    With align_weight = discrepancy_weight = 0 the loss decomposes into
    independent per-source heads on a shared extractor. The ensemble weights
    are uniform, or with a holdout_ratio above 0 each head's accuracy on its
    source's held-out slice, scaled to sum to 1.
    """
    if len(sources) < 2:
        raise ValueError("train_m3sda needs at least 2 sources")
    target = require_unlabeled(target, sources)
    tcfg = cfg.train
    n_classes = resolve_n_classes(tcfg, *[s.labels for s in sources])
    rng_init, rng_batch, rng_tgt, rng_aux = seed_streams(tcfg.seed)

    train_sources, holdouts = list(sources), None
    if cfg.holdout_ratio:
        split_seeds = [int(rng_aux.integers(2 ** 31)) for _ in sources]
        pairs = [stratified_split(s, cfg.holdout_ratio, seed)
                 for s, seed in zip(sources, split_seeds)]
        train_sources, holdouts = [p.train for p in pairs], [p.test for p in pairs]

    extractor, classifiers = build_model(target.dim, n_classes, tcfg, rng_init,
                                         heads=len(sources))
    keys = {"classification": [], "moment": [], "discrepancy": [], "total": []}
    for k in range(len(sources)):
        keys[f"moment:src{k}|target"] = []
        for l in range(k + 1, len(sources)):
            keys[f"moment:src{k}|src{l}"] = []
    record = RunRecord("m3sda", tcfg.seed, record_config(cfg), keys)

    def step(batch, t: int) -> tuple[dict[str, float], list[np.ndarray]]:
        batches, xt = batch
        return _m3sda_step_grads(extractor, classifiers, batches, xt,
                                 cfg.align_weight, cfg.discrepancy_weight)

    nets = {"extractor": extractor, **{f"classifier{k}": c for k, c in enumerate(classifiers)}}
    run_epochs(record, nets, tcfg.learning_rate, tcfg.momentum, tcfg.epochs,
               multi_source_batches(train_sources, target, tcfg, n_classes, rng_batch, rng_tgt),
               step, ("classification", "total"))

    weights = [1.0 / len(sources)] * len(sources)
    if holdouts is not None:
        accuracies = []
        for held, head in zip(holdouts, classifiers):
            feats, _ = forward(extractor, held.features)
            logits, _ = forward(head, feats)
            accuracies.append(float(np.mean(np.argmax(logits, axis=1) == held.labels)))
        record.final["source_accuracies"] = accuracies
        acc = np.asarray(accuracies, dtype=np.float64)
        if acc.sum() <= 0:
            raise UndefinedMetricError("every head scored 0 on its held-out slice, so "
                                       "accuracy weights are undefined")
        weights = (acc / acc.sum()).tolist()
    return ModelBundle(extractor, classifiers, weights, tcfg.to_dict(), tcfg.seed, record)


def _m3sda_step_grads(extractor: Mlp, classifiers: list[Mlp],
                      batches: list[tuple[np.ndarray, np.ndarray]], xt: np.ndarray,
                      align_weight: float,
                      discrepancy_weight: float) -> tuple[dict, list[np.ndarray]]:
    """Loss parts and gradients for one step; a true scalar objective, so the
    whole thing is finite-difference checkable."""
    n_sources = len(classifiers)
    feats_t, acts_t = forward(extractor, xt)

    cls_losses, feats_s, acts_s, c_grads, dfeat_s = map(list, zip(*[
        classify_batch(extractor, head, xs, ys) for (xs, ys), head in zip(batches, classifiers)]))

    moment_total = 0.0
    dfeat_t = np.zeros_like(feats_t)
    pair_terms: dict[str, float] = {}
    for k in range(n_sources):
        d, da, db = moment_distance_grads(feats_s[k], feats_t)
        pair_terms[f"moment:src{k}|target"] = d
        moment_total += d
        dfeat_s[k] += align_weight * da
        dfeat_t += align_weight * db
        for l in range(k + 1, n_sources):
            d, da, db = moment_distance_grads(feats_s[k], feats_s[l])
            pair_terms[f"moment:src{k}|src{l}"] = d
            moment_total += d
            dfeat_s[k] += align_weight * da
            dfeat_s[l] += align_weight * db

    discrepancy = 0.0
    if discrepancy_weight > 0.0:
        t_outs = [forward(head, feats_t) for head in classifiers]
        probs = [softmax(logits) for logits, _ in t_outs]
        dprobs = [np.zeros_like(p) for p in probs]
        n_pairs = n_sources * (n_sources - 1) // 2
        for k in range(n_sources):
            for l in range(k + 1, n_sources):
                gap = probs[k] - probs[l]
                discrepancy += float(np.abs(gap).sum(axis=1).mean())
                scale = 1.0 / (n_pairs * len(xt))
                dprobs[k] += np.sign(gap) * scale
                dprobs[l] -= np.sign(gap) * scale
        discrepancy /= n_pairs
        for k, head in enumerate(classifiers):
            dlogits = _softmax_vjp(probs[k], dprobs[k])
            g, df = backward(head, t_outs[k][1], dlogits)
            c_grads[k] += discrepancy_weight * g
            dfeat_t += discrepancy_weight * df

    ext_grad = reduce(np.add, [backward(extractor, acts, dfeat, input_grad=False)[0]
                               for acts, dfeat in zip([*acts_s, acts_t], [*dfeat_s, dfeat_t])])

    classification = float(np.sum(cls_losses))
    total = classification + align_weight * moment_total + discrepancy_weight * discrepancy
    parts = {"classification": classification, "moment": moment_total,
             "discrepancy": discrepancy, "total": total}
    parts.update(pair_terms)
    return parts, [ext_grad, *c_grads]
