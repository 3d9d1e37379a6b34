"""Small fully-connected networks with analytic gradients, and run_epochs,
the training loop of all five trainers.

Everything is float64 numpy so gradients can be checked against central
finite differences. A model is three pieces: a feature extractor (rectifier
MLP whose output is the feature vector), a label predictor, and, for the
adversarial trainers, one or more domain discriminators. A trainer (ERM
here, DANN/ADDA/MDAN in adversarial, M3SDA in moment) is a model build plus
a step function handed to run_epochs.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .data import DomainDataset, UnlabeledDomain, class_balanced_probabilities

__all__ = [
    "Mlp",
    "SgdState",
    "TrainConfig",
    "RunRecord",
    "ErmResult",
    "ModelBundle",
    "DivergenceError",
    "NonFiniteInputError",
    "init_mlp",
    "forward",
    "backward",
    "softmax",
    "cross_entropy",
    "init_sgd",
    "sgd_step",
    "run_epochs",
    "record_config",
    "multi_source_batches",
    "train_erm",
    "predict",
    "extract_features",
    "save_model",
    "load_model",
    "save_run_record",
]


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


class NonFiniteInputError(DivergenceError, ValueError):
    """Non-finite network input. Datasets reject non-finite features, so in
    training this is an overflowed activation: a divergence."""


@dataclass
class Mlp:
    """Stack of affine layers whose parameters live in one flat vector.

    params is one contiguous float64 vector laid out w0, b0, w1, b1, ...
    (each weight row-major). weights[i] (out, in) and biases[i] (out,) are
    views into it, so an in-place update of params is an update of every
    layer. Construction always packs a fresh vector: the arrays passed in
    are copied, never aliased.

    activations[i] is "relu" or "identity". The feature extractor uses relu
    on every layer (its output is a hidden activation); predictor heads end
    with identity logits.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    activations: list[str]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not (len(self.weights) == len(self.biases) == len(self.activations)):
            raise ValueError("weights, biases, activations must have equal length")
        for i, (w, b, act) in enumerate(zip(self.weights, self.biases, self.activations)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer {i}: weight {w.shape} and bias {b.shape} do not compose")
            if i and w.shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(f"layer {i}: input size {w.shape[1]} does not match previous output")
            if act not in ("relu", "identity"):
                raise ValueError(f"layer {i}: unknown activation {act!r}")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError(f"layer {i}: non-finite parameters")
        self._shapes = [w.shape for w in self.weights]
        self.params = np.concatenate(
            [a for w, b in zip(self.weights, self.biases) for a in (w.ravel(), b)],
            dtype=np.float64)
        self.weights, self.biases = self.layer_views(self.params)

    def layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer (weights, biases) views into a vector laid out like params."""
        weights, biases, start = [], [], 0
        for out_dim, in_dim in self._shapes:
            mid = start + out_dim * in_dim
            weights.append(flat[start:mid].reshape(out_dim, in_dim))
            biases.append(flat[mid:mid + out_dim])
            start = mid + out_dim
        return weights, biases

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[0]

    def copy(self) -> "Mlp":
        return Mlp(self.weights, self.biases, list(self.activations))


def init_mlp(sizes: list[int], rng: np.random.Generator, final: str = "identity") -> Mlp:
    """He-initialized MLP with relu hidden layers and `final` on the last."""
    if len(sizes) < 2:
        raise ValueError("need at least input and output sizes")
    weights, biases, acts = [], [], []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        weights.append(rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in))
        biases.append(np.zeros(fan_out))
        acts.append("relu" if i < len(sizes) - 2 else final)
    return Mlp(weights, biases, acts)


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network; returns (output, activations).

    activations[0] is the input and activations[-1] the output, so callers
    have every intermediate needed for backprop or feature export.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.in_dim:
        raise ValueError(f"input shape {x.shape} does not match first layer ({mlp.in_dim} columns)")
    if not np.isfinite(x).all():
        raise NonFiniteInputError("non-finite network input")
    acts = [x]
    h = x
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        h = h @ w.T
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts[-1], acts


def backward(mlp: Mlp, acts: list[np.ndarray],
             grad_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate grad_out through a forward() activation trace.

    Returns (gradient wrt mlp.params, gradient wrt the input). The parameter
    gradient is one flat array in the params layout (dW0, db0, dW1, db1, ...);
    mlp.layer_views(grad) splits it per layer.
    """
    grad = np.empty_like(mlp.params)
    dws, dbs = mlp.layer_views(grad)
    g = grad_out
    for i in range(len(mlp.weights) - 1, -1, -1):
        if mlp.activations[i] == "relu":
            g = g * (acts[i + 1] > 0.0)
        g.sum(axis=0, out=dbs[i])
        np.matmul(g.T, acts[i], out=dws[i])
        g = g @ mlp.weights[i]
    return grad, g


def mlp_blocks(mlp: Mlp, prefix: str) -> list[tuple[str, np.ndarray]]:
    """The network's one named parameter block: (prefix, mlp.params), the
    layout backward() emits its parameter gradient in."""
    return [(prefix, mlp.params)]


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient wrt logits.

    grad = (softmax - onehot) / batch, so downstream backprop needs no
    extra normalization.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, m = logits.shape
    if labels.shape != (n,) or (n and (labels.min() < 0 or labels.max() >= m)):
        raise ValueError("labels must be one id in [0, n_outputs) per row")
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    norm = e.sum(axis=1)
    rows = np.arange(n)
    loss = float((np.log(norm) - z[rows, labels]).sum() / n)
    grad = e / norm[:, None]
    grad[rows, labels] -= 1.0
    grad /= n
    return loss, grad


@dataclass
class SgdState:
    """SGD-with-momentum state; velocity buffers mirror the parameter blocks
    (one flat vector per network)."""

    learning_rate: float
    momentum: float
    velocities: list[np.ndarray]
    step: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")


def init_sgd(blocks: list[tuple[str, np.ndarray]], learning_rate: float,
             momentum: float) -> SgdState:
    return SgdState(learning_rate, momentum, [np.zeros_like(p) for _, p in blocks])


def sgd_step(blocks: list[tuple[str, np.ndarray]], grads: list[np.ndarray],
             state: SgdState) -> None:
    """One in-place momentum update: v <- m*v + g; p <- p - lr*v.

    Each block is usually one network's params vector (see mlp_blocks), so a
    step loops over networks, not layers. Every gradient element is checked:
    a non-finite one raises DivergenceError naming its block.
    """
    if len(blocks) != len(grads) or len(blocks) != len(state.velocities):
        raise ValueError("blocks, grads, and velocities must align")
    for (name, param), grad, vel in zip(blocks, grads, state.velocities):
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not np.isfinite(grad).all():
            raise DivergenceError(f"non-finite gradient in {name}")
        vel *= state.momentum
        vel += grad
        param -= state.learning_rate * vel
    state.step += 1


@dataclass
class TrainConfig:
    """Shared knobs for every training scheme."""

    n_classes: int | None = None       # resolved from data when None
    hidden_sizes: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 100
    resample: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        self.hidden_sizes = tuple(int(h) for h in self.hidden_sizes)
        if not self.hidden_sizes:
            raise ValueError("need at least one hidden layer")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}

    @staticmethod
    def from_dict(payload: dict) -> "TrainConfig":
        known = {f: payload[f] for f in TrainConfig.__dataclass_fields__ if f in payload}
        cfg = TrainConfig(**known)
        if isinstance(payload.get("hidden_sizes"), list):
            cfg.hidden_sizes = tuple(payload["hidden_sizes"])
        return cfg


@dataclass
class RunRecord:
    """Per-run provenance: config, seed, per-epoch loss traces, warnings."""

    scheme: str
    seed: int
    config: dict
    epoch_losses: dict[str, list[float]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    final: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def save_run_record(record: RunRecord, path: str | Path,
                    model_ref: str | None = None) -> None:
    payload = record.to_dict()
    payload["model_ref"] = model_ref
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def seed_streams(seed: int, n: int = 4) -> list[np.random.Generator]:
    """Independent generators for model init, source batching, target batching,
    and auxiliary draws, so optional branches never perturb the shared ones."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


def epoch_batches(rng: np.random.Generator, labels: np.ndarray, batch_size: int,
                  resample: bool, n_classes: int) -> list[np.ndarray]:
    """Mini-batch index lists for one epoch.

    Plain epochs shuffle without replacement; resampled epochs draw n indices
    with replacement proportionally to class-balancing sampler weights.
    """
    n = labels.shape[0]
    if resample:
        idx = rng.choice(n, size=n, replace=True, p=class_balanced_probabilities(labels, n_classes))
    else:
        idx = rng.permutation(n)
    return [idx[s:s + batch_size] for s in range(0, n, batch_size)]


def multi_source_batches(sources: list[DomainDataset], target: UnlabeledDomain,
                         cfg: TrainConfig, n_classes: int, rng_batch: np.random.Generator,
                         rng_tgt: np.random.Generator) -> Callable[[], Iterable]:
    """run_epochs' batches() for a multi-source trainer: ceil(largest source /
    batch_size) steps, each ([(x, y) per source], target x) of batch_size rows
    drawn with replacement (class-balanced sources when cfg.resample)."""
    probs = [class_balanced_probabilities(s.labels, n_classes) if cfg.resample else None
             for s in sources]
    steps = -(-max(s.n_samples for s in sources) // cfg.batch_size)

    def epoch():
        for _ in range(steps):
            xt = target.features[rng_tgt.choice(target.n_samples, size=cfg.batch_size)]
            batches = []
            for s, p in zip(sources, probs):
                idx = rng_batch.choice(s.n_samples, size=cfg.batch_size, replace=True, p=p)
                batches.append((s.features[idx], s.labels[idx]))
            yield batches, xt

    return epoch


def run_epochs(record: RunRecord, blocks: list[tuple[str, np.ndarray]], opt: SgdState,
               epochs: int, batches: Callable[[], Iterable],
               step: Callable[[object], tuple[dict[str, float], list[np.ndarray]]]) -> None:
    """The training loop of every trainer.

    Each epoch iterates over batches(); step(batch) returns named losses and
    one gradient per block. A non-finite loss raises DivergenceError before
    that step updates anything; otherwise sgd_step applies the gradients
    (opt.step counts the steps). Each loss's epoch mean is appended to
    record.epoch_losses[name].
    """
    for epoch in range(epochs):
        trace: dict[str, list[float]] = {}
        for batch in batches():
            losses, grads = step(batch)
            for name, value in losses.items():
                if not math.isfinite(value):
                    raise DivergenceError(f"non-finite {name} loss at epoch {epoch}")
            sgd_step(blocks, grads, opt)
            for name, value in losses.items():
                trace.setdefault(name, []).append(value)
        for name, values in trace.items():
            record.epoch_losses.setdefault(name, []).append(float(np.mean(values)))


def record_config(cfg) -> dict:
    """A trainer config as one flat dict for its RunRecord: the fields of
    cfg.train, then cfg's own fields (tuples as lists)."""
    own = {k: list(v) if isinstance(v, tuple) else v
           for k, v in asdict(cfg).items() if k != "train"}
    return {**cfg.train.to_dict(), **own}


def resolve_n_classes(cfg: TrainConfig, *label_arrays: np.ndarray) -> int:
    if cfg.n_classes is not None:
        return int(cfg.n_classes)
    return int(max(int(a.max()) for a in label_arrays if a.size)) + 1


def build_model(dim: int, n_classes: int, cfg: TrainConfig,
                rng: np.random.Generator) -> tuple[Mlp, Mlp]:
    """Fresh extractor + label predictor. Draw order matters for determinism."""
    extractor = init_mlp([dim, *cfg.hidden_sizes], rng, final="relu")
    classifier = init_mlp([cfg.hidden_sizes[-1], n_classes], rng, final="identity")
    return extractor, classifier


@dataclass
class ErmResult:
    extractor: Mlp
    classifier: Mlp
    record: RunRecord

    @property
    def final_loss(self) -> float:
        return self.record.final["classification_loss"]


def train_erm(source: DomainDataset, cfg: TrainConfig) -> ErmResult:
    """Mini-batch SGD on the source cross-entropy; no adaptation."""
    if source.n_samples == 0:
        raise ValueError("source dataset is empty")
    n_classes = resolve_n_classes(cfg, source.labels)
    rng_init, rng_batch = seed_streams(cfg.seed)[:2]
    extractor, classifier = build_model(source.dim, n_classes, cfg, rng_init)
    blocks = mlp_blocks(extractor, "extractor") + mlp_blocks(classifier, "classifier")
    opt = init_sgd(blocks, cfg.learning_rate, cfg.momentum)

    record = RunRecord("erm", cfg.seed, cfg.to_dict(), {"classification": []})

    def step(idx: np.ndarray) -> tuple[dict[str, float], list[np.ndarray]]:
        loss, grads = _erm_step_grads(extractor, classifier,
                                      source.features[idx], source.labels[idx])
        return {"classification": loss}, grads

    run_epochs(record, blocks, opt, cfg.epochs,
               lambda: epoch_batches(rng_batch, source.labels, cfg.batch_size,
                                     cfg.resample, n_classes), step)
    record.final["classification_loss"] = (
        record.epoch_losses["classification"][-1] if cfg.epochs else float("nan"))
    return ErmResult(extractor, classifier, record)


def _erm_step_grads(extractor: Mlp, classifier: Mlp, x: np.ndarray,
                    y: np.ndarray) -> tuple[float, list[np.ndarray]]:
    feats, f_acts = forward(extractor, x)
    logits, c_acts = forward(classifier, feats)
    loss, dlogits = cross_entropy(logits, y)
    c_grad, dfeats = backward(classifier, c_acts, dlogits)
    f_grad, _ = backward(extractor, f_acts, dfeats)
    return loss, [f_grad, c_grad]


def predict(extractor: Mlp, classifier: Mlp,
            x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax class scores and argmax labels (ties break to the lowest index)."""
    feats, _ = forward(extractor, x)
    logits, _ = forward(classifier, feats)
    scores = softmax(logits)
    return scores, np.argmax(scores, axis=1)


def extract_features(extractor: Mlp, x: np.ndarray) -> np.ndarray:
    """Feature vectors (the extractor's final rectified activation)."""
    feats, _ = forward(extractor, x)
    return feats


# ---------------------------------------------------------------------------
# Model files: JSON with layer shapes, activation tags, and full-precision
# row-major weight/bias arrays, plus the TrainConfig and seed that produced it.
# ---------------------------------------------------------------------------

def _mlp_to_dict(mlp: Mlp) -> dict:
    return {
        "layers": [
            {
                "shape": list(w.shape),
                "activation": act,
                "weights": [float(v) for v in w.ravel()],
                "bias": [float(v) for v in b],
            }
            for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations)
        ]
    }


def _mlp_from_dict(payload: dict) -> Mlp:
    weights, biases, acts = [], [], []
    for layer in payload["layers"]:
        out_dim, in_dim = layer["shape"]
        weights.append(np.asarray(layer["weights"], dtype=np.float64).reshape(out_dim, in_dim))
        biases.append(np.asarray(layer["bias"], dtype=np.float64))
        acts.append(layer["activation"])
    return Mlp(weights, biases, acts)


@dataclass
class ModelBundle:
    """Everything needed to reuse a trained model: extractor, one classifier
    per source (one entry for single-head schemes), optional ensemble weights,
    and the training provenance."""

    extractor: Mlp
    classifiers: list[Mlp]
    ensemble_weights: list[float] | None
    train_config: dict
    seed: int


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    payload = {
        "extractor": _mlp_to_dict(bundle.extractor),
        "classifiers": [_mlp_to_dict(c) for c in bundle.classifiers],
        "ensemble_weights": bundle.ensemble_weights,
        "train_config": bundle.train_config,
        "seed": bundle.seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def load_model(path: str | Path) -> ModelBundle:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ModelBundle(
        extractor=_mlp_from_dict(payload["extractor"]),
        classifiers=[_mlp_from_dict(c) for c in payload["classifiers"]],
        ensemble_weights=payload.get("ensemble_weights"),
        train_config=payload.get("train_config", {}),
        seed=int(payload.get("seed", 0)),
    )
