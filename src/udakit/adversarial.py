"""Adversarial feature-alignment trainers.

Three schemes share the same ingredients (extractor, label predictor, binary
domain discriminators): a single-pass reversal trainer, a two-stage
discriminative aligner, and a multi-source trainer that combines per-source
losses through a smoothed maximum. Target data enters only as an
UnlabeledDomain view, so target labels are structurally unreachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

__all__ = [
    "AdversarialConfig",
    "TRAINER_FIELDS",
    "soft_aggregate",
    "train_dann",
    "train_adda",
    "train_mdan",
]


@dataclass
class AdversarialConfig:
    """Knobs shared by the adversarial trainers.

    domain_weight scales the reversed gradient flowing from the domain
    branch into the extractor; with the "ramp" schedule it rises linearly
    from 0 over the first ramp_fraction of all steps. gamma sets how sharply
    the multi-source trainer's soft maximum concentrates on the worst source.
    """

    train: TrainConfig = field(default_factory=TrainConfig)
    domain_weight: float = 1.0
    schedule: str = "ramp"
    ramp_fraction: float = 0.2
    disc_hidden: tuple[int, ...] = (16,)
    gamma: float = 10.0
    hard_max: bool = False
    pretrain_epochs: int | None = None
    adapt_epochs: int | None = None
    adapt_learning_rate: float | None = None  # stage-2 target-extractor rate

    def __post_init__(self) -> None:
        check_fields(self)
        if self.domain_weight < 0:
            raise ValueError("domain_weight must be >= 0")
        if self.schedule not in ("constant", "ramp"):
            raise ValueError(f"schedule: unknown schedule {self.schedule!r}")
        if not 0.0 <= self.ramp_fraction <= 1.0:
            raise ValueError("ramp_fraction must be in [0, 1]")
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        self.disc_hidden = layer_sizes(self.disc_hidden, "disc_hidden")
        for name in ("pretrain_epochs", "adapt_epochs"):
            if getattr(self, name) is not None and getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.adapt_learning_rate is not None and self.adapt_learning_rate <= 0:
            raise ValueError("adapt_learning_rate must be > 0")


# the AdversarialConfig fields, beside train, that each trainer reads
TRAINER_FIELDS = {
    "train_dann": ("domain_weight", "schedule", "ramp_fraction", "disc_hidden"),
    "train_adda": ("disc_hidden", "pretrain_epochs", "adapt_epochs", "adapt_learning_rate"),
    "train_mdan": ("domain_weight", "schedule", "ramp_fraction", "disc_hidden", "gamma",
                   "hard_max"),
}


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


def _domain_weight_at(cfg: AdversarialConfig, step: int, total_steps: int) -> float:
    if cfg.schedule == "constant":
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
    extractor, classifier = build_model(source.dim, n_classes, tcfg, rng_init)
    disc = init_mlp([tcfg.hidden_sizes[-1], *cfg.disc_hidden, 2], rng_disc, final="identity")
    blocks = [("extractor", extractor.params), ("classifier", classifier.params),
              ("discriminator", disc.params)]
    opt = init_sgd(blocks, tcfg.learning_rate, tcfg.momentum)

    total_steps = tcfg.epochs * -(-source.n_samples // tcfg.batch_size)
    record = RunRecord("dann", tcfg.seed, record_config(cfg),
                       {"classification": [], "domain": []})
    draw_target = index_draws(rng_tgt, target.n_samples)
    # domain labels: k source rows take both[bs-k:bs] (zeros), k target rows both[bs:bs+k]
    bs = tcfg.batch_size
    both = np.repeat(np.array([0, 1]), bs)

    def step(idx: np.ndarray) -> tuple[dict[str, float], list[np.ndarray]]:
        k = idx.size
        cls_loss, dom_loss, grads = _dann_step_grads(
            extractor, classifier, disc, source.features.take(idx, axis=0),
            source.labels.take(idx), target.features.take(draw_target(k), axis=0),
            both[bs - k:bs + k], _domain_weight_at(cfg, opt.step, total_steps))
        return {"classification": cls_loss, "domain": dom_loss}, grads

    run_epochs(record, blocks, opt, tcfg.epochs,
               lambda: epoch_batches(rng_batch, source.labels, tcfg.batch_size,
                                     tcfg.resample, n_classes), step)
    if tcfg.epochs:
        record.final["classification_loss"] = record.epoch_losses["classification"][-1]
        record.final["domain_loss"] = record.epoch_losses["domain"][-1]
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
    feats_s, acts_s = forward(extractor, xs)
    feats_t, acts_t = forward(extractor, xt)
    logits, c_acts = forward(classifier, feats_s)
    cls_loss, dlogits = cross_entropy(logits, ys)
    c_grad, dfeat_cls = backward(classifier, c_acts, dlogits)

    dom_in = np.concatenate([feats_s, feats_t], axis=0)
    dom_logits, d_acts = forward(disc, dom_in)
    dom_loss, ddl = cross_entropy(dom_logits, dom_labels)
    d_grad, ddom_in = backward(disc, d_acts, ddl)
    rev = -lam * ddom_in

    f_grad, _ = backward(extractor, acts_s, dfeat_cls + rev[:len(xs)], input_grad=False)
    f_grad_t, _ = backward(extractor, acts_t, rev[len(xs):], input_grad=False)
    f_grad += f_grad_t
    return cls_loss, dom_loss, [f_grad, c_grad, d_grad]


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
    disc = init_mlp([tcfg.hidden_sizes[-1], *cfg.disc_hidden, 2], rng_disc, final="identity")
    disc_blocks = [("discriminator", disc.params)]
    ext_blocks = [("target_extractor", target_extractor.params)]
    disc_opt = init_sgd(disc_blocks, tcfg.learning_rate, tcfg.momentum)
    adapt_lr = cfg.adapt_learning_rate if cfg.adapt_learning_rate is not None else tcfg.learning_rate
    ext_opt = init_sgd(ext_blocks, adapt_lr, tcfg.momentum)

    record = RunRecord("adda", tcfg.seed, record_config(cfg),
                       {"classification": list(stage1.record.epoch_losses["classification"]),
                        "domain": [], "alignment": [], "discriminator_accuracy": []})
    draw_target = index_draws(rng_tgt, target.n_samples)
    # domain labels: k source rows take both[bs-k:bs] (zeros), k target rows both[bs:bs+k]
    bs = tcfg.batch_size
    both = np.repeat(np.array([0, 1]), bs)

    def step(idx: np.ndarray) -> tuple[dict[str, float], list[np.ndarray]]:
        k = idx.size
        xt = target.features.take(draw_target(k), axis=0)
        dom_labels = both[bs - k:bs + k]

        # discriminator step, on its own optimiser: source features are
        # frozen stage-1 outputs
        feats_s, _ = forward(source_extractor, source.features.take(idx, axis=0))
        feats_t, t_acts = forward(target_extractor, xt)
        dom_in = np.concatenate([feats_s, feats_t], axis=0)
        dom_logits, d_acts = forward(disc, dom_in)
        dom_loss, ddl = cross_entropy(dom_logits, dom_labels)
        d_grad, _ = backward(disc, d_acts, ddl, input_grad=False)
        acc = float(np.mean(np.argmax(dom_logits, axis=1) == dom_labels))
        sgd_step(disc_blocks, [d_grad], disc_opt)

        # target-extractor gradient (run_epochs applies it): make target
        # features read as source; the extractor has not moved since the
        # forward pass above, so its trace is reused
        inv_logits, d_acts = forward(disc, feats_t)
        inv_loss, ddl = cross_entropy(inv_logits, both[bs - k:bs])
        _, dfeat = backward(disc, d_acts, ddl)
        t_grad, _ = backward(target_extractor, t_acts, dfeat, input_grad=False)
        return {"domain": dom_loss, "alignment": inv_loss,
                "discriminator_accuracy": acc}, [t_grad]

    run_epochs(record, ext_blocks, ext_opt, adapt,
               lambda: epoch_batches(rng_batch, source.labels, tcfg.batch_size,
                                     tcfg.resample, n_classes), step)
    record.warnings += [f"discriminator accuracy {acc:.3f} > 0.99 through epoch {epoch}"
                        for epoch, acc in enumerate(record.epoch_losses["discriminator_accuracy"])
                        if acc > 0.99]
    record.final["classification_loss"] = stage1.record.final["classification_loss"]
    if adapt:
        record.final["domain_loss"] = record.epoch_losses["domain"][-1]
        record.final["discriminator_accuracy"] = record.epoch_losses["discriminator_accuracy"][-1]
    return ModelBundle(target_extractor, [classifier], None, tcfg.to_dict(), tcfg.seed, record)


def train_mdan(sources: list[DomainDataset], target: UnlabeledDomain,
               cfg: AdversarialConfig) -> ModelBundle:
    """Multi-source reversal training with soft-max loss aggregation.

    One shared extractor and label predictor train on every source; each
    source k gets its own discriminator against the target. Per-source loss
    e_k = classification_k + domain_weight * domain_k combines through
    soft_aggregate, so harder sources dominate the update.
    """
    if len(sources) < 2:
        raise ValueError("train_mdan needs at least 2 sources; use train_dann for one source")
    target = require_unlabeled(target, sources)
    tcfg = cfg.train
    n_classes = resolve_n_classes(tcfg, *[s.labels for s in sources])
    rng_init, rng_batch, rng_tgt, rng_disc = seed_streams(tcfg.seed)
    extractor, classifier = build_model(target.dim, n_classes, tcfg, rng_init)
    discs = [init_mlp([tcfg.hidden_sizes[-1], *cfg.disc_hidden, 2], rng_disc, final="identity")
             for _ in sources]

    blocks = [("extractor", extractor.params), ("classifier", classifier.params)]
    for k, d in enumerate(discs):
        blocks.append((f"discriminator{k}", d.params))
    opt = init_sgd(blocks, tcfg.learning_rate, tcfg.momentum)

    total_steps = tcfg.epochs * -(-max(s.n_samples for s in sources) // tcfg.batch_size)
    loss_keys = {"classification": [], "total": []}
    loss_keys.update({f"domain_{k}": [] for k in range(len(sources))})
    record = RunRecord("mdan", tcfg.seed, record_config(cfg), loss_keys)
    dom_labels = np.repeat(np.array([0, 1]), tcfg.batch_size)   # a source batch, then xt

    def step(batch) -> tuple[dict[str, float], list[np.ndarray]]:
        batches, xt = batch
        return _mdan_step_grads(extractor, classifier, discs, batches, xt, dom_labels,
                                _domain_weight_at(cfg, opt.step, total_steps),
                                cfg.gamma, cfg.hard_max)

    run_epochs(record, blocks, opt, tcfg.epochs,
               multi_source_batches(sources, target, tcfg, n_classes, rng_batch, rng_tgt),
               step)
    if tcfg.epochs:
        record.final["classification_loss"] = record.epoch_losses["classification"][-1]
        record.final["total_loss"] = record.epoch_losses["total"][-1]
    return ModelBundle(extractor, [classifier], None, tcfg.to_dict(), tcfg.seed, record)


def _mdan_step_grads(extractor: Mlp, classifier: Mlp, discs: list[Mlp],
                     batches: list[tuple[np.ndarray, np.ndarray]], xt: np.ndarray,
                     dom_labels: np.ndarray, lam: float, gamma: float, hard_max: bool,
                     reverse_domain: bool = True) -> tuple[dict, list[np.ndarray]]:
    """Losses and gradients for one multi-source step. Each source batch has as
    many rows as xt; dom_labels is 0 for a source batch's rows, then 1 for xt's.

    Setting reverse_domain=False yields the true gradient of the aggregated
    scalar (used by finite-difference checks); training keeps the reversal on
    so the extractor fights the discriminators.
    """
    feats_t, acts_t = forward(extractor, xt)
    # -1: reversal (extractor fights the discriminators); +1: plain gradient
    sign = -1.0 if reverse_domain else 1.0

    per_source = []
    for (xs, ys), disc in zip(batches, discs):
        feats_s, acts_s = forward(extractor, xs)
        logits, c_acts = forward(classifier, feats_s)
        cls_loss, dlogits = cross_entropy(logits, ys)
        c_grad, dfeat_cls = backward(classifier, c_acts, dlogits)

        dom_in = np.concatenate([feats_s, feats_t], axis=0)
        dom_logits, d_acts = forward(disc, dom_in)
        dom_loss, ddl = cross_entropy(dom_logits, dom_labels)
        d_grad, ddom_in = backward(disc, d_acts, ddl)
        per_source.append({
            "cls_loss": cls_loss, "dom_loss": dom_loss, "acts_s": acts_s,
            "c_grad": c_grad, "dfeat_cls": dfeat_cls, "d_grad": d_grad,
            "ddom_in": ddom_in, "n_s": len(xs),
        })

    e = np.array([p["cls_loss"] + lam * p["dom_loss"] for p in per_source])
    if hard_max:
        total = float(e.max())
        w = np.zeros_like(e)
        w[int(np.argmax(e))] = 1.0
    else:
        total = soft_aggregate(e, gamma)
        ez = np.exp(gamma * (e - e.max()))
        w = ez / ez.sum()

    # accumulate from the first source's terms, never from zeros, so that
    # the sums (and the signs of zero entries) match term-by-term addition
    disc_grads: list[np.ndarray] = []
    dfeat_t_total = np.zeros_like(feats_t)
    for k, p in enumerate(per_source):
        dfs = p["dfeat_cls"] + sign * lam * p["ddom_in"][:p["n_s"]]
        f_grad_k, _ = backward(extractor, p["acts_s"], w[k] * dfs, input_grad=False)
        cls_k = w[k] * p["c_grad"]
        if k == 0:
            ext_grad, cls_grad = f_grad_k, cls_k
        else:
            ext_grad += f_grad_k
            cls_grad += cls_k
        disc_grads.append(w[k] * lam * p["d_grad"])
        dfeat_t_total += w[k] * sign * lam * p["ddom_in"][p["n_s"]:]
    ext_grad += backward(extractor, acts_t, dfeat_t_total, input_grad=False)[0]

    parts = {"classification": float(np.mean([p["cls_loss"] for p in per_source])),
             "total": total}
    parts.update({f"domain_{k}": per_source[k]["dom_loss"] for k in range(len(per_source))})
    return parts, [ext_grad, cls_grad, *disc_grads]

