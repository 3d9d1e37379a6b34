"""Adversarial feature-alignment trainers.

Three schemes share the same ingredients (extractor, label predictor, binary
domain discriminators): a single-pass reversal trainer, a two-stage
discriminative aligner, and a multi-source trainer that combines per-source
losses through a smoothed maximum. Target data enters only as an
UnlabeledDomain view, so target labels are structurally unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .data import DomainDataset, UnlabeledDomain, check_fields, require_unlabeled
from .nn import (
    Mlp,
    ModelBundle,
    RunRecord,
    TrainConfig,
    backward,
    build_model,
    classify_batch,
    cross_entropy,
    epoch_batches,
    forward,
    index_draws,
    init_mlp,
    init_sgd,
    layer_sizes,
    multi_source_batches,
    record_config,
    resolve_n_classes,
    run_epochs,
    seed_streams,
    sgd_step,
    train_erm,
)


@dataclass
class AdversarialConfig:
    """Knobs shared by the adversarial trainers.

    domain_weight scales the reversed gradient flowing from the domain
    branch into the extractor; it rises linearly from 0 over the first
    ramp_fraction of all steps, and ramp_fraction 0 gives the full weight
    from the first step. gamma sets how sharply the multi-source trainer's
    soft maximum concentrates on the worst source; None takes the hard
    maximum, the gamma -> inf limit.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    domain_weight: float = 1.0
    ramp_fraction: float = 0.2
    disc_hidden: tuple[int, ...] = (16,)
    gamma: float | None = 10.0
    pretrain_epochs: int | None = None
    adapt_epochs: int | None = None
    adapt_learning_rate: float | None = None  # stage-2 target-extractor rate

    def __post_init__(self) -> None:
        check_fields(self)
        if self.domain_weight < 0:
            raise ValueError("domain_weight must be >= 0")
        if not 0.0 <= self.ramp_fraction <= 1.0:
            raise ValueError("ramp_fraction must be in [0, 1]")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be > 0, or null for the hard maximum")
        self.disc_hidden = layer_sizes(self.disc_hidden, "disc_hidden")
        for name in ("pretrain_epochs", "adapt_epochs"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.adapt_learning_rate is not None and self.adapt_learning_rate <= 0:
            raise ValueError("adapt_learning_rate must be > 0")


def soft_aggregate(values: Sequence[float], gamma: float) -> float:
    """Smoothed maximum (1/gamma)*log(mean(exp(gamma*v))).

    Tends to mean(v) as gamma -> 0 and to max(v) as gamma -> inf; always
    within [mean(v), max(v)].
    """
    if gamma <= 0:
        raise ValueError("gamma must be > 0")
    z = gamma * np.asarray(values, dtype=np.float64)
    m = z.max()
    return float(m + np.log(np.mean(np.exp(z - m)))) / gamma


def _discriminator(cfg: AdversarialConfig, rng: np.random.Generator) -> Mlp:
    """A fresh binary domain discriminator on the extractor's features."""
    return init_mlp([cfg.train.hidden_sizes[-1], *cfg.disc_hidden, 2], rng, final="identity")


def _domain_weight_at(cfg: AdversarialConfig, step: int, total_steps: int) -> float:
    if not cfg.ramp_fraction:
        return float(cfg.domain_weight)
    ramp_steps = max(1.0, cfg.ramp_fraction * total_steps)
    return cfg.domain_weight * min(1.0, step / ramp_steps)


def train_dann(source: DomainDataset, target: UnlabeledDomain,
               cfg: AdversarialConfig) -> ModelBundle:
    """Single-pass reversal training.

    Each step minimizes source cross-entropy while the discriminator learns
    to tell source features from target features; the extractor gets the
    negated, domain_weight-scaled domain gradient (gradient reversal), pushing
    features toward domain invariance. With domain_weight = 0 the classifier
    trajectory is exactly the no-adaptation one (same seed, same batching).
    """
    target = require_unlabeled(target, [source])
    tcfg = cfg.train
    n_classes = resolve_n_classes(tcfg, source.labels)
    rng_init, rng_batch, rng_tgt, rng_disc = seed_streams(tcfg.seed)
    extractor, (classifier,) = build_model(source.dim, n_classes, tcfg, rng_init)
    disc = _discriminator(cfg, rng_disc)
    total_steps = tcfg.epochs * -(-source.n_samples // tcfg.batch_size)
    record = RunRecord("dann", tcfg.seed, record_config(cfg),
                       {"classification": [], "domain": []})
    draw_target = index_draws(rng_tgt, target.n_samples)
    # domain labels: k source rows take both[bs-k:bs] (zeros), k target rows both[bs:bs+k]
    bs = tcfg.batch_size
    both = np.repeat(np.array([0, 1]), bs)

    def step(idx: np.ndarray, t: int) -> tuple[dict[str, float], list[np.ndarray]]:
        k = idx.size
        cls_loss, dom_loss, grads = _dann_step_grads(
            extractor, classifier, disc, source.features.take(idx, axis=0),
            source.labels.take(idx), target.features.take(draw_target(k), axis=0),
            both[bs - k:bs + k], _domain_weight_at(cfg, t, total_steps))
        return {"classification": cls_loss, "domain": dom_loss}, grads

    run_epochs(record, {"extractor": extractor, "classifier": classifier, "discriminator": disc},
               tcfg.learning_rate, tcfg.momentum, tcfg.epochs,
               lambda: epoch_batches(rng_batch, source.labels, tcfg.batch_size,
                                     tcfg.resample, n_classes), step, ("classification", "domain"))
    return ModelBundle(extractor, [classifier], None, tcfg.to_dict(), tcfg.seed, record)


def _dann_step_grads(extractor: Mlp, classifier: Mlp, disc: Mlp,
                     xs: np.ndarray, ys: np.ndarray, xt: np.ndarray, dom_labels: np.ndarray,
                     lam: float) -> tuple[float, float, list[np.ndarray]]:
    """Gradients for one reversal step.

    The discriminator trains on the plain binary domain loss (dom_labels is 0
    for each row of xs, then 1 for each row of xt); the extractor receives
    classifier gradient minus lam times the domain-branch gradient (the
    reversal is that sign and scale, applied to the discriminator's input
    gradient).
    """
    feats_t, acts_t = forward(extractor, xt)
    cls_loss, dom_loss, acts_s, c_grad, dfeat_cls, d_grad, ddom_in = _source_step(
        extractor, classifier, disc, xs, ys, feats_t, dom_labels)
    rev = -lam * ddom_in

    f_grad, _ = backward(extractor, acts_s, dfeat_cls + rev[:len(xs)], input_grad=False)
    f_grad += backward(extractor, acts_t, rev[len(xs):], input_grad=False)[0]
    return cls_loss, dom_loss, [f_grad, c_grad, d_grad]


def _source_step(extractor: Mlp, classifier: Mlp, disc: Mlp, xs: np.ndarray, ys: np.ndarray,
                 feats_t: np.ndarray, dom_labels: np.ndarray) -> tuple:
    """One source batch through the classifier, then through disc beside feats_t:
    (cls_loss, dom_loss, acts_s, classifier grad, its feature grad, disc grad,
    disc input grad)."""
    cls_loss, feats_s, acts_s, c_grad, dfeat_cls = classify_batch(extractor, classifier, xs, ys)
    dom_logits, d_acts = forward(disc, np.concatenate([feats_s, feats_t], axis=0))
    dom_loss, ddl = cross_entropy(dom_logits, dom_labels)
    d_grad, ddom_in = backward(disc, d_acts, ddl)
    return cls_loss, dom_loss, acts_s, c_grad, dfeat_cls, d_grad, ddom_in


def train_adda(source: DomainDataset, target: UnlabeledDomain,
               cfg: AdversarialConfig) -> ModelBundle:
    """Two-stage discriminative alignment.

    Stage 1 trains extractor + classifier on the source alone. Stage 2 clones
    the extractor for the target, freezes the source pieces, and alternates
    discriminator steps (source vs target features) with target-extractor
    steps on the label-inverted discriminator loss. Inference composes the
    target extractor with the frozen source classifier.
    """
    target = require_unlabeled(target, [source])
    tcfg = cfg.train
    pretrain = cfg.pretrain_epochs if cfg.pretrain_epochs is not None else tcfg.epochs
    adapt = cfg.adapt_epochs if cfg.adapt_epochs is not None else tcfg.epochs
    stage1 = train_erm(source, replace(tcfg, epochs=pretrain))
    source_extractor, classifier = stage1.extractor, stage1.classifiers[0]
    n_classes = classifier.out_dim

    streams = seed_streams(tcfg.seed, n=8)
    rng_batch, rng_tgt, rng_disc = streams[5], streams[6], streams[4]
    target_extractor = source_extractor.copy()
    disc = _discriminator(cfg, rng_disc)
    disc_blocks = [("discriminator", disc.params)]
    disc_opt = init_sgd(disc_blocks, tcfg.learning_rate, tcfg.momentum)
    adapt_lr = cfg.adapt_learning_rate if cfg.adapt_learning_rate is not None else tcfg.learning_rate

    record = RunRecord("adda", tcfg.seed, record_config(cfg),
                       {"classification": list(stage1.record.epoch_losses["classification"]),
                        "domain": [], "alignment": [], "discriminator_accuracy": []},
                       final=dict(stage1.record.final))
    draw_target = index_draws(rng_tgt, target.n_samples)
    # domain labels: k source rows take both[bs-k:bs] (zeros), k target rows both[bs:bs+k]
    bs = tcfg.batch_size
    both = np.repeat(np.array([0, 1]), bs)

    def step(idx: np.ndarray, t: int) -> tuple[dict[str, float], list[np.ndarray]]:
        k = idx.size
        feats_t, t_acts = forward(target_extractor, target.features.take(draw_target(k), axis=0))
        # the discriminator steps on its own optimiser before the inversion
        # pass reads it; the target extractor moves only when run_epochs
        # applies t_grad, so one forward trace serves both passes
        dom_loss, acc, d_grad = _adda_disc_grads(source_extractor, disc,
                                                 source.features.take(idx, axis=0), feats_t,
                                                 both[bs - k:bs + k])
        sgd_step(disc_blocks, [d_grad], disc_opt)
        inv_loss, t_grad = _adda_inversion_grads(target_extractor, disc, feats_t, t_acts)
        return {"domain": dom_loss, "alignment": inv_loss,
                "discriminator_accuracy": acc}, [t_grad]

    run_epochs(record, {"target_extractor": target_extractor}, adapt_lr, tcfg.momentum, adapt,
               lambda: epoch_batches(rng_batch, source.labels, tcfg.batch_size,
                                     tcfg.resample, n_classes), step, ("domain",))
    accs = record.epoch_losses["discriminator_accuracy"]
    high = [epoch for epoch, acc in enumerate(accs) if acc > 0.99]
    if high:
        record.warnings.append(f"discriminator accuracy > 0.99 in {len(high)} of {adapt} "
                               f"adaptation epochs, first at epoch {high[0]} ({accs[high[0]]:.3f})")
    if adapt:
        record.final["discriminator_accuracy"] = accs[-1]
    return ModelBundle(target_extractor, [classifier], None, tcfg.to_dict(), tcfg.seed, record)


def _adda_disc_grads(source_extractor: Mlp, disc: Mlp, xs: np.ndarray, feats_t: np.ndarray,
                     dom_labels: np.ndarray) -> tuple[float, float, np.ndarray]:
    """Discriminator loss, accuracy and gradient on the frozen source features
    of xs beside the target features feats_t (dom_labels is 0 for each row of
    xs, then 1 for each row of feats_t)."""
    feats_s, _ = forward(source_extractor, xs)
    dom_logits, d_acts = forward(disc, np.concatenate([feats_s, feats_t], axis=0))
    dom_loss, ddl = cross_entropy(dom_logits, dom_labels)
    d_grad, _ = backward(disc, d_acts, ddl, input_grad=False)
    return dom_loss, float(np.mean(np.argmax(dom_logits, axis=1) == dom_labels)), d_grad


def _adda_inversion_grads(target_extractor: Mlp, disc: Mlp, feats_t: np.ndarray,
                          t_acts: list) -> tuple[float, np.ndarray]:
    """Inversion loss and target-extractor gradient: the discriminator's loss
    with every target row labelled source (0), so descent makes target
    features read as source. feats_t and t_acts are the target extractor's
    output and trace on the batch."""
    inv_logits, d_acts = forward(disc, feats_t)
    inv_loss, ddl = cross_entropy(inv_logits, np.zeros(len(feats_t), dtype=np.int64))
    _, dfeat = backward(disc, d_acts, ddl, param_grad=False)
    return inv_loss, backward(target_extractor, t_acts, dfeat, input_grad=False)[0]


def train_mdan(sources: list[DomainDataset], target: UnlabeledDomain,
               cfg: AdversarialConfig) -> ModelBundle:
    """Multi-source reversal training with soft-max loss aggregation.

    One shared extractor and label predictor train on every source; each
    source k gets its own discriminator against the target. Per-source loss
    e_k = classification_k + domain_weight * domain_k combines through
    soft_aggregate (or, with gamma None, their maximum), so harder sources
    dominate the update.
    """
    if len(sources) < 2:
        raise ValueError("train_mdan needs at least 2 sources; use train_dann for one source")
    target = require_unlabeled(target, sources)
    tcfg = cfg.train
    n_classes = resolve_n_classes(tcfg, *[s.labels for s in sources])
    rng_init, rng_batch, rng_tgt, rng_disc = seed_streams(tcfg.seed)
    extractor, (classifier,) = build_model(target.dim, n_classes, tcfg, rng_init)
    discs = [_discriminator(cfg, rng_disc) for _ in sources]
    total_steps = tcfg.epochs * -(-max(s.n_samples for s in sources) // tcfg.batch_size)
    record = RunRecord("mdan", tcfg.seed, record_config(cfg), {
        "classification": [], "total": [], **{f"domain_{k}": [] for k in range(len(sources))}})
    dom_labels = np.repeat(np.array([0, 1]), tcfg.batch_size)   # a source batch, then xt

    def step(batch, t: int) -> tuple[dict[str, float], list[np.ndarray]]:
        batches, xt = batch
        return _mdan_step_grads(extractor, classifier, discs, batches, xt, dom_labels,
                                _domain_weight_at(cfg, t, total_steps), cfg.gamma)

    nets = {"extractor": extractor, "classifier": classifier}
    nets.update((f"discriminator{k}", d) for k, d in enumerate(discs))
    run_epochs(record, nets, tcfg.learning_rate, tcfg.momentum, tcfg.epochs,
               multi_source_batches(sources, target, tcfg, n_classes, rng_batch, rng_tgt),
               step, ("classification", "total"))
    return ModelBundle(extractor, [classifier], None, tcfg.to_dict(), tcfg.seed, record)


def _mdan_step_grads(extractor: Mlp, classifier: Mlp, discs: list[Mlp],
                     batches: list[tuple[np.ndarray, np.ndarray]], xt: np.ndarray,
                     dom_labels: np.ndarray, lam: float,
                     gamma: float | None) -> tuple[dict, list[np.ndarray]]:
    """Losses and gradients for one multi-source step. Each source batch has as
    many rows as xt; dom_labels is 0 for a source batch's rows, then 1 for xt's.
    gamma None puts all the weight on the worst source (the hard maximum).

    The domain gradient reaches the extractor reversed, so the extractor
    fights the discriminators; the classifier and discriminator gradients
    are those of the aggregated scalar.
    """
    feats_t, acts_t = forward(extractor, xt)
    per_source = [_source_step(extractor, classifier, disc, xs, ys, feats_t, dom_labels)
                  for (xs, ys), disc in zip(batches, discs)]

    e = np.array([cls_loss + lam * dom_loss for cls_loss, dom_loss, *_ in per_source])
    if gamma is None:
        total = float(e.max())
        w = np.zeros_like(e)
        w[int(np.argmax(e))] = 1.0
    else:
        total = soft_aggregate(e, gamma)
        ez = np.exp(gamma * (e - e.max()))
        w = ez / ez.sum()

    ext_terms, cls_terms, disc_grads = [], [], []
    dfeat_t_total = np.zeros_like(feats_t)
    for wk, (_, _, acts_s, c_grad, dfeat_cls, d_grad, ddom_in) in zip(w, per_source):
        n_s = len(dfeat_cls)
        dfs = dfeat_cls - lam * ddom_in[:n_s]
        ext_terms.append(backward(extractor, acts_s, wk * dfs, input_grad=False)[0])
        cls_terms.append(wk * c_grad)
        disc_grads.append(wk * lam * d_grad)
        dfeat_t_total -= wk * lam * ddom_in[n_s:]
    ext_terms.append(backward(extractor, acts_t, dfeat_t_total, input_grad=False)[0])

    parts = {"classification": float(np.mean([p[0] for p in per_source])), "total": total}
    parts.update({f"domain_{k}": p[1] for k, p in enumerate(per_source)})
    # reduce adds from the first term, never from zeros, so that the sums
    # (and the signs of zero entries) match term-by-term addition
    return parts, [reduce(np.add, ext_terms), reduce(np.add, cls_terms), *disc_grads]
