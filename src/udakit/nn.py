"""Small fully-connected networks with analytic gradients, run_epochs, the
training loop of all five trainers, and ModelBundle, the model they return.

Everything is float64 numpy so gradients can be checked against central
finite differences. Training uses a feature extractor (rectifier MLP whose
output is the feature vector), one or more label predictor heads, and, for
the adversarial trainers, one or more domain discriminators. A trainer (ERM
here, DANN/ADDA/MDAN in adversarial, M3SDA in moment) is a model build plus a
step function handed to run_epochs, which owns the networks' SGD state, the
step count and the final losses. Every trainer returns a ModelBundle: the
extractor, the heads with the ensemble weights that score them, and the
training provenance; discriminators serve training only and are dropped.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import reduce
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .data import (DomainDataset, UnlabeledDomain, check_fields, check_value,
                   class_balanced_probabilities, within)


class DivergenceError(RuntimeError):
    """Raised when training produces a non-finite loss or gradient."""


class NonFiniteInputError(DivergenceError, ValueError):
    """Non-finite input to network, the Mlp that raised it (None when not
    known). Datasets reject non-finite features, so in training this is an
    overflowed activation: a divergence."""

    def __init__(self, message: str, network: Mlp | None = None) -> None:
        super().__init__(message)
        self.network = network


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


def layer_sizes(sizes: Iterable, name: str) -> tuple[int, ...]:
    """sizes as a tuple of ints: each entry passes check_value as an int and
    is >= 1, or raises ValueError naming it."""
    out = []
    for h in sizes:
        try:
            size = check_value(name, h, int)
        except ValueError:
            size = 0        # not a whole number: rejected below, like sizes < 1
        if size < 1:
            raise ValueError(f"{name} entries must be whole numbers >= 1, got {h!r}")
        out.append(size)
    return tuple(out)


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


def _all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), cheaper: a sum of squares is finite only if every
    entry is, and one that overflows falls back to the entrywise test."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network; returns (output, activations).

    activations[0] is the input and activations[-1] the output, so callers
    have every intermediate needed for backprop or feature export.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.in_dim:
        raise ValueError(f"input shape {x.shape} does not match first layer ({mlp.in_dim} columns)")
    if not _all_finite(x):
        raise NonFiniteInputError("non-finite network input", mlp)
    acts = [x]
    h = x
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        h = h @ w.T
        h += b
        if act == "relu":
            np.maximum(h, 0.0, out=h)
        acts.append(h)
    return acts[-1], acts


def backward(mlp: Mlp, acts: list[np.ndarray], grad_out: np.ndarray, *,
             input_grad: bool = True,
             param_grad: bool = True) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Backpropagate grad_out through a forward() activation trace.

    Returns (gradient wrt mlp.params, or None with param_grad=False; gradient
    wrt the input, or None with input_grad=False). The parameter gradient is
    one flat array in the params layout (dW0, db0, dW1, db1, ...);
    mlp.layer_views(grad) splits it per layer.
    """
    grad = np.empty_like(mlp.params) if param_grad else None
    dws, dbs = mlp.layer_views(grad) if param_grad else ((), ())
    g = grad_out
    for i in range(len(mlp.weights) - 1, -1, -1):
        if mlp.activations[i] == "relu":
            g = g * (acts[i + 1] > 0.0)
        if param_grad:
            np.add.reduce(g, axis=0, out=dbs[i])
            np.matmul(g.T, acts[i], out=dws[i])
        g = g @ mlp.weights[i] if i or input_grad else None
    return grad, g


def classify_batch(extractor: Mlp, head: Mlp, x: np.ndarray, labels: np.ndarray) -> tuple:
    """A labelled batch through extractor, then head: (cross-entropy, the
    features, the extractor's forward trace, the head's gradient, and the
    loss gradient wrt the features, to backpropagate through that trace)."""
    feats, acts = forward(extractor, x)
    logits, h_acts = forward(head, feats)
    loss, dlogits = cross_entropy(logits, labels)
    h_grad, dfeats = backward(head, h_acts, dlogits)
    return loss, feats, acts, h_grad, dfeats


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(z, exp(z), row sums of exp(z)) for z = logits minus each row's max. Below
    8 columns max and sum go column by column, cheaper than axis-1 reductions and
    bit-identical; from 8 on numpy's row sum adds pairwise, in another order."""
    few = logits.shape[1] < 8
    z = logits - (reduce(np.maximum, logits.T)[:, None] if few
                  else logits.max(axis=1, keepdims=True))
    e = np.exp(z)
    return z, e, reduce(np.add, e.T) if few else e.sum(axis=1)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by max subtraction."""
    _, e, norm = _shifted_exp(logits)
    return e / norm[:, None]


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its gradient wrt logits.

    grad = (softmax - onehot) / batch, so downstream backprop needs no
    extra normalization.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n, m = logits.shape
    # one reduction checks both bounds: a negative id reads as a huge unsigned one
    if labels.shape != (n,) or (n and labels.view(np.uint64).max() >= m):
        raise ValueError("labels must be one id in [0, n_outputs) per row")
    z, e, norm = _shifted_exp(logits)
    picked = np.arange(0, n * m, m) + labels    # flat index of each row's label
    loss = float((np.log(norm) - z.take(picked)).sum() / n)
    grad = np.divide(e, norm[:, None], order="C")     # C order: reshape(-1) is a view
    grad.reshape(-1)[picked] -= 1.0
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

    Each block is usually one network's (name, mlp.params) pair, so a step
    loops over networks, not layers. Every gradient element is checked:
    a non-finite one raises DivergenceError naming its block.
    """
    if len(blocks) != len(grads) or len(blocks) != len(state.velocities):
        raise ValueError("blocks, grads, and velocities must align")
    for (name, param), grad, vel in zip(blocks, grads, state.velocities):
        if grad.shape != param.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if not _all_finite(grad):
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
        check_fields(self)
        self.hidden_sizes = layer_sizes(self.hidden_sizes, "hidden_sizes")
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must name at least one hidden layer")
        SgdState(self.learning_rate, self.momentum, [])     # its rate checks, at load time
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")

    def to_dict(self) -> dict:
        return {**asdict(self), "hidden_sizes": list(self.hidden_sizes)}


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
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


def seed_streams(seed: int, n: int = 4) -> list[np.random.Generator]:
    """Independent generators for model init, source batching, target batching,
    and auxiliary draws, so optional branches never perturb the shared ones."""
    children = np.random.SeedSequence(seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


def index_draws(rng: np.random.Generator, n: int,
                p: np.ndarray | None = None) -> Callable[[int], np.ndarray]:
    """draw(size): the indices rng.choice(n, size, p=p) would draw, for less per call:
    choice calls rng.integers without p, and with p searches rng.random(size) in p's CDF."""
    if p is None:
        return lambda size: rng.integers(0, n, size=size, dtype=np.int64)
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return lambda size: cdf.searchsorted(rng.random(size), side="right")


def epoch_batches(rng: np.random.Generator, labels: np.ndarray, batch_size: int,
                  resample: bool, n_classes: int) -> list[np.ndarray]:
    """Mini-batch index lists for one epoch.

    Plain epochs shuffle without replacement; resampled epochs draw n indices
    with replacement proportionally to class-balancing sampler weights.
    """
    n = labels.shape[0]
    if resample:
        idx = index_draws(rng, n, class_balanced_probabilities(labels, n_classes))(n)
    else:
        idx = rng.permutation(n)
    return [idx[s:s + batch_size] for s in range(0, n, batch_size)]


def multi_source_batches(sources: list[DomainDataset], target: UnlabeledDomain,
                         cfg: TrainConfig, n_classes: int, rng_batch: np.random.Generator,
                         rng_tgt: np.random.Generator) -> Callable[[], Iterable]:
    """run_epochs' batches() for a multi-source trainer: ceil(largest source /
    batch_size) steps, each ([(x, y) per source], target x) of batch_size rows
    drawn with replacement (class-balanced sources when cfg.resample)."""
    draws = [index_draws(rng_batch, s.n_samples,
                         class_balanced_probabilities(s.labels, n_classes) if cfg.resample
                         else None) for s in sources]
    draw_target = index_draws(rng_tgt, target.n_samples)
    steps = -(-max(s.n_samples for s in sources) // cfg.batch_size)

    def epoch():
        for _ in range(steps):
            xt = target.features.take(draw_target(cfg.batch_size), axis=0)
            batches = []
            for s, draw in zip(sources, draws):
                idx = draw(cfg.batch_size)
                batches.append((s.features.take(idx, axis=0), s.labels.take(idx)))
            yield batches, xt

    return epoch


def run_epochs(record: RunRecord, nets: dict[str, Mlp], learning_rate: float,
               momentum: float, epochs: int, batches: Callable[[], Iterable],
               step: Callable[[object, int], tuple[dict[str, float], list[np.ndarray]]],
               final: tuple[str, ...]) -> None:
    """The training loop of every trainer.

    nets names the networks that train, in the order of step's gradients;
    one SGD state with the given rate and momentum updates them all. Each
    epoch iterates over batches(); step(batch, t), t the count of steps
    already taken, returns named losses and one gradient per network. A
    non-finite loss raises DivergenceError before that step updates
    anything; otherwise sgd_step applies the gradients. Any DivergenceError
    of an epoch, from the loss check, step or sgd_step, is re-raised as its
    own type with " at epoch N" appended, and a non-finite input to one of
    nets names it ("non-finite classifier input at epoch N"). Each loss's
    epoch mean is appended to record.epoch_losses[name]; once an epoch has
    run, the last mean of each loss named in final is
    record.final["<name>_loss"].
    """
    blocks = [(name, net.params) for name, net in nets.items()]
    opt = init_sgd(blocks, learning_rate, momentum)
    for epoch in range(epochs):
        trace: dict[str, list[float]] = {}
        try:
            for batch in batches():
                losses, grads = step(batch, opt.step)
                for name, value in losses.items():
                    if not math.isfinite(value):
                        raise DivergenceError(f"non-finite {name} loss")
                sgd_step(blocks, grads, opt)
                for name, value in losses.items():
                    trace.setdefault(name, []).append(value)
        except DivergenceError as err:
            named = [name for name, net in nets.items() if net is getattr(err, "network", None)]
            text = f"non-finite {named[0]} input" if named else err
            raise type(err)(f"{text} at epoch {epoch}") from err
        for name, values in trace.items():
            record.epoch_losses.setdefault(name, []).append(float(np.mean(values)))
    if epochs:
        record.final.update((f"{name}_loss", record.epoch_losses[name][-1]) for name in final)


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


def build_model(dim: int, n_classes: int, cfg: TrainConfig, rng: np.random.Generator,
                heads: int = 1) -> tuple[Mlp, list[Mlp]]:
    """A fresh extractor and `heads` label predictors on its features, drawn
    from rng in that order (the order fixes every trained byte)."""
    extractor = init_mlp([dim, *cfg.hidden_sizes], rng, final="relu")
    return extractor, [init_mlp([cfg.hidden_sizes[-1], n_classes], rng, final="identity")
                       for _ in range(heads)]


def train_erm(source: DomainDataset, cfg: TrainConfig) -> ModelBundle:
    """Mini-batch SGD on the source cross-entropy; no adaptation."""
    if source.n_samples == 0:
        raise ValueError("source dataset is empty")
    n_classes = resolve_n_classes(cfg, source.labels)
    rng_init, rng_batch = seed_streams(cfg.seed)[:2]
    extractor, (classifier,) = build_model(source.dim, n_classes, cfg, rng_init)
    record = RunRecord("erm", cfg.seed, cfg.to_dict(), {"classification": []})

    def step(idx: np.ndarray, t: int) -> tuple[dict[str, float], list[np.ndarray]]:
        loss, _, f_acts, c_grad, dfeats = classify_batch(
            extractor, classifier, source.features.take(idx, axis=0), source.labels.take(idx))
        f_grad, _ = backward(extractor, f_acts, dfeats, input_grad=False)
        return {"classification": loss}, [f_grad, c_grad]

    run_epochs(record, {"extractor": extractor, "classifier": classifier}, cfg.learning_rate,
               cfg.momentum, cfg.epochs,
               lambda: epoch_batches(rng_batch, source.labels, cfg.batch_size,
                                     cfg.resample, n_classes), step, ("classification",))
    return ModelBundle(extractor, [classifier], None, cfg.to_dict(), cfg.seed, record)


def predict(model: ModelBundle, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The model's class scores and argmax labels (ties break to the lowest index)."""
    scores = model.scores(x)
    return scores, np.argmax(scores, axis=1)


# ---------------------------------------------------------------------------
# Model files: JSON with layer shapes, activation tags, full-precision row-major
# weight/bias arrays, ensemble weights, and the TrainConfig and seed behind them.
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


def _mlp_from_dict(payload: object, name: str) -> Mlp:
    """A model file's network entry; a malformed one raises ValueError naming it."""
    weights, biases, acts, where = [], [], [], name
    try:
        for i, layer in enumerate(payload["layers"]):
            where = f"{name} layer {i}"
            out_dim, in_dim = layer["shape"]
            weights.append(np.asarray(layer["weights"], dtype=np.float64).reshape(out_dim, in_dim))
            biases.append(np.asarray(layer["bias"], dtype=np.float64))
            acts.append(layer["activation"])
        where = name
        return Mlp(weights, biases, acts)
    except KeyError as err:
        raise ValueError(f'{where}: missing "{err.args[0]}"') from None
    except (TypeError, ValueError) as err:
        raise ValueError(f"{where}: {err}") from None


@dataclass
class ModelBundle:
    """A trained model, as every trainer returns it: extractor, one classifier
    per source (one entry for single-head schemes), the ensemble weights that
    score it (None means equal weights), the TrainConfig and seed behind it,
    and the RunRecord of a model trained in this process (not saved)."""

    extractor: Mlp
    classifiers: list[Mlp]
    ensemble_weights: list[float] | None = None
    train_config: dict = field(default_factory=dict)
    seed: int = 0
    record: RunRecord | None = None

    def __post_init__(self) -> None:
        if not self.classifiers:
            raise ValueError("need at least one classifier")
        weights = self.ensemble_weights
        if weights is None:
            return
        if not isinstance(weights, list | tuple) or len(weights) != len(self.classifiers):
            raise ValueError(f"need one ensemble weight per classifier, got {weights}")
        if not all(isinstance(w, int | float) and not isinstance(w, bool)
                   and math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"ensemble weights must be finite and nonnegative, got {weights}")
        if abs(math.fsum(weights) - 1.0) > 1e-9:
            raise ValueError(f"ensemble weights must sum to 1, got {weights}")

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Class scores: the weighted sum of each head's softmax output."""
        weights = self.ensemble_weights or [1.0 / len(self.classifiers)] * len(self.classifiers)
        feats, _ = forward(self.extractor, x)
        return reduce(np.add, [w * softmax(forward(head, feats)[0])
                               for w, head in zip(weights, self.classifiers)])


def save_model(bundle: ModelBundle, path: str | Path) -> None:
    payload = {
        "extractor": _mlp_to_dict(bundle.extractor),
        "classifiers": [_mlp_to_dict(c) for c in bundle.classifiers],
        "ensemble_weights": bundle.ensemble_weights,
        "train_config": bundle.train_config,
        "seed": bundle.seed,
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n",
                          encoding="utf-8")


def load_model(path: str | Path) -> ModelBundle:
    payload = within(f"{path}: ", lambda: json.loads(Path(path).read_text(encoding="utf-8")))
    heads = payload.get("classifiers") if isinstance(payload, dict) else None
    if not isinstance(heads, list):
        raise ValueError('a model file needs a "classifiers" list of networks')
    seed = payload.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f'a model file needs an integer "seed", got {seed!r}')
    return ModelBundle(
        extractor=_mlp_from_dict(payload.get("extractor"), "extractor"),
        classifiers=[_mlp_from_dict(c, f"classifiers[{k}]") for k, c in enumerate(heads)],
        ensemble_weights=payload.get("ensemble_weights"),
        train_config=payload.get("train_config", {}),
        seed=seed,
    )
