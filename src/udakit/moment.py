"""Multi-source training by feature-moment alignment.

A shared extractor feeds one classifier per source. Training pulls first and
second feature moments together across every source-target and source-source
pair, optionally nudges the per-source classifiers to agree on unlabeled
target batches, and predicts on the target by ensembling all classifiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import DomainDataset, UnlabeledDomain, require_unlabeled, stratified_split
from .nn import (
    Mlp,
    RunRecord,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    init_sgd,
    mlp_blocks,
    multi_source_batches,
    record_config,
    resolve_n_classes,
    run_epochs,
    seed_streams,
    softmax,
)

__all__ = [
    "MomentConfig",
    "M3sdaResult",
    "moment_distance",
    "moment_distance_grads",
    "train_m3sda",
    "ensemble_predict",
]


@dataclass
class MomentConfig:
    """align_weight scales the moment-alignment term, discrepancy_weight the
    mean pairwise L1 gap between classifier outputs on target batches."""

    train: TrainConfig = field(default_factory=TrainConfig)
    align_weight: float = 1.0
    discrepancy_weight: float = 0.1
    ensemble: str = "uniform"        # "uniform" | "accuracy"
    holdout_ratio: float = 0.2       # held-out slice sizing accuracy weights

    def __post_init__(self) -> None:
        if self.align_weight < 0 or self.discrepancy_weight < 0:
            raise ValueError("align_weight and discrepancy_weight must be >= 0")
        if self.ensemble not in ("uniform", "accuracy"):
            raise ValueError(f"unknown ensemble rule {self.ensemble!r}")


def moment_distance(features_a: np.ndarray, features_b: np.ndarray) -> float:
    """||mean(a) - mean(b)||_2 + ||mean(a^2) - mean(b^2)||_2 (element-wise squares)."""
    d, _, _ = moment_distance_grads(features_a, features_b)
    return d


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


@dataclass
class M3sdaResult:
    extractor: Mlp
    classifiers: list[Mlp]
    ensemble_rule: str
    source_accuracies: list[float] | None
    record: RunRecord


def train_m3sda(sources: list[DomainDataset], target: UnlabeledDomain,
                cfg: MomentConfig) -> M3sdaResult:
    """Joint minimization of per-source cross-entropy, pairwise moment
    distances, and (optionally) classifier output discrepancy on the target.

    With align_weight = discrepancy_weight = 0 the loss decomposes into
    independent per-source heads on a shared extractor.
    """
    if len(sources) < 2:
        raise ValueError("train_m3sda needs at least 2 sources")
    target = require_unlabeled(target, sources)
    tcfg = cfg.train
    n_classes = resolve_n_classes(tcfg, *[s.labels for s in sources])
    rng_init, rng_batch, rng_tgt, rng_aux = seed_streams(tcfg.seed)

    holdouts: list[DomainDataset] | None = None
    if cfg.ensemble == "accuracy":
        split_seeds = [int(rng_aux.integers(2 ** 31)) for _ in sources]
        pairs = [stratified_split(s, cfg.holdout_ratio, seed)
                 for s, seed in zip(sources, split_seeds)]
        train_sources = [p.train for p in pairs]
        holdouts = [p.test for p in pairs]
    else:
        train_sources = list(sources)

    extractor = init_mlp([target.dim, *tcfg.hidden_sizes], rng_init, final="relu")
    classifiers = [init_mlp([tcfg.hidden_sizes[-1], n_classes], rng_init, final="identity")
                   for _ in sources]
    blocks = mlp_blocks(extractor, "extractor")
    for k, c in enumerate(classifiers):
        blocks += mlp_blocks(c, f"classifier{k}")
    opt = init_sgd(blocks, tcfg.learning_rate, tcfg.momentum)

    keys = {"classification": [], "moment": [], "discrepancy": [], "total": []}
    for k in range(len(sources)):
        keys[f"moment:src{k}|target"] = []
        for l in range(k + 1, len(sources)):
            keys[f"moment:src{k}|src{l}"] = []
    record = RunRecord("m3sda", tcfg.seed, record_config(cfg), keys)

    def step(batch) -> tuple[dict[str, float], list[np.ndarray]]:
        batches, xt = batch
        return _m3sda_step_grads(extractor, classifiers, batches, xt,
                                 cfg.align_weight, cfg.discrepancy_weight)

    run_epochs(record, blocks, opt, tcfg.epochs,
               multi_source_batches(train_sources, target, tcfg, n_classes, rng_batch, rng_tgt),
               step)
    if tcfg.epochs:
        record.final["classification_loss"] = record.epoch_losses["classification"][-1]
        record.final["total_loss"] = record.epoch_losses["total"][-1]

    source_accuracies = None
    if holdouts is not None:
        source_accuracies = []
        for held, head in zip(holdouts, classifiers):
            feats, _ = forward(extractor, held.features)
            logits, _ = forward(head, feats)
            source_accuracies.append(float(np.mean(np.argmax(logits, axis=1) == held.labels)))
        record.final["source_accuracies"] = list(source_accuracies)
    return M3sdaResult(extractor, classifiers, cfg.ensemble, source_accuracies, record)


def _m3sda_step_grads(extractor: Mlp, classifiers: list[Mlp],
                      batches: list[tuple[np.ndarray, np.ndarray]], xt: np.ndarray,
                      align_weight: float,
                      discrepancy_weight: float) -> tuple[dict, list[np.ndarray]]:
    """Loss parts and gradients for one step; a true scalar objective, so the
    whole thing is finite-difference checkable."""
    n_sources = len(classifiers)
    feats_t, acts_t = forward(extractor, xt)

    feats_s, acts_s, cls_losses = [], [], []
    c_grads: list[np.ndarray] = []
    dfeat_s = []
    for (xs, ys), head in zip(batches, classifiers):
        f, a = forward(extractor, xs)
        logits, h_acts = forward(head, f)
        loss, dlogits = cross_entropy(logits, ys)
        g, df = backward(head, h_acts, dlogits)
        feats_s.append(f)
        acts_s.append(a)
        cls_losses.append(loss)
        c_grads.append(g)
        dfeat_s.append(df.copy())

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
    if discrepancy_weight > 0.0 and n_sources > 1:
        probs, t_acts_per_head = [], []
        dprobs = [np.zeros((len(xt), classifiers[0].out_dim)) for _ in range(n_sources)]
        for head in classifiers:
            logits, h_acts = forward(head, feats_t)
            probs.append(softmax(logits))
            t_acts_per_head.append(h_acts)
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
            g, df = backward(head, t_acts_per_head[k], dlogits)
            c_grads[k] += discrepancy_weight * g
            dfeat_t += discrepancy_weight * df

    # accumulate from the first source's term, never from zeros, so that the
    # sums (and the signs of zero entries) match term-by-term addition
    ext_grad, _ = backward(extractor, acts_s[0], dfeat_s[0])
    for k in range(1, n_sources):
        ext_grad += backward(extractor, acts_s[k], dfeat_s[k])[0]
    ext_grad += backward(extractor, acts_t, dfeat_t)[0]

    total = (float(np.sum(cls_losses)) + align_weight * moment_total
             + discrepancy_weight * discrepancy)
    parts = {"classification": float(np.sum(cls_losses)), "moment": moment_total,
             "discrepancy": discrepancy, "total": total}
    parts.update(pair_terms)
    return parts, [ext_grad, *c_grads]


def ensemble_predict(extractor: Mlp, classifiers: list[Mlp], x: np.ndarray,
                     rule: str = "uniform",
                     accuracies: list[float] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-source classifier outputs into one prediction.

    uniform: plain average of softmax outputs. accuracy: convex combination
    weighted by each source's held-out accuracy. Ties go to the lowest index.
    """
    if not classifiers:
        raise ValueError("need at least one classifier")
    if rule == "uniform":
        weights = np.full(len(classifiers), 1.0 / len(classifiers))
    elif rule == "accuracy":
        if accuracies is None or len(accuracies) != len(classifiers):
            raise ValueError("accuracy rule needs one held-out accuracy per classifier")
        weights = np.asarray(accuracies, dtype=np.float64)
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("accuracies must be nonnegative with positive sum")
        weights = weights / weights.sum()
    else:
        raise ValueError(f"unknown ensemble rule {rule!r}")

    feats, _ = forward(extractor, x)
    scores = None
    for w, head in zip(weights, classifiers):
        logits, _ = forward(head, feats)
        p = w * softmax(logits)
        scores = p if scores is None else scores + p
    return scores, np.argmax(scores, axis=1)

