"""Finite-difference gradient cases for every loss in the toolkit.

Each builder assembles a small random configuration, computes the analytic
gradients the trainers actually apply, and returns the relative error
against central finite differences (h = 1e-4 on float64). Keyword
arguments set the shapes (rows per source and target batch, classes,
sources); their defaults are the fixed cases. A case given a kinks list
appends the distance of its batch from each kink of its loss (a relu unit's
zero, the hard maximum's tie, the discrepancy's zero gap), since central
differences are only exact away from them.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from udakit.adversarial import (
    _adda_disc_grads,
    _adda_inversion_grads,
    _dann_step_grads,
    _mdan_step_grads,
)
from udakit.moment import _m3sda_step_grads, moment_distance_grads
from udakit.nn import backward, cross_entropy, forward, init_mlp, softmax

from oracles import finite_difference, moment_distance, relative_error

H = 1e-4


def _params(*mlps):
    """Each network's flat parameter vector; perturbing it perturbs every layer."""
    return [m.params for m in mlps]


def relu_margin(mlp, x: np.ndarray) -> float:
    """The smallest |pre-activation| of mlp's relu units on x (inf without any)."""
    margin, h = np.inf, x
    for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
        h = h @ w.T + b
        if act == "relu":
            margin = min(margin, float(np.abs(h).min()))
            h = np.maximum(h, 0.0)
    return margin


def cross_entropy_case(seed: int, rows: int = 5, n_classes: int = 3,
                       kinks: list | None = None) -> float:
    """ERM loss through extractor + classifier."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, n_classes], rng)
    x = rng.normal(size=(rows, 3))
    y = rng.integers(0, n_classes, size=rows)
    if kinks is not None:
        kinks.append(relu_margin(ext, x))

    def loss():
        feats, _ = forward(ext, x)
        return cross_entropy(forward(cls, feats)[0], y)[0]

    feats, f_acts = forward(ext, x)
    logits, c_acts = forward(cls, feats)
    _, dlogits = cross_entropy(logits, y)
    c_grad, dfeat = backward(cls, c_acts, dlogits)
    f_grad, _ = backward(ext, f_acts, dfeat)
    return relative_error([f_grad, c_grad], finite_difference(loss, _params(ext, cls), H))


def dann_case(seed: int, lam: float = 0.7, rows: int = 5, target_rows: int = 4,
              n_classes: int = 3, kinks: list | None = None) -> float:
    """Reversal composition: extractor analytic gradient must equal the
    classifier-branch FD gradient minus lam times the domain-branch FD
    gradient; classifier and discriminator check against their own branches.
    """
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, n_classes], rng)
    disc = init_mlp([6, 5, 2], rng)
    xs = rng.normal(size=(rows, 3))
    ys = rng.integers(0, n_classes, size=rows)
    xt = rng.normal(size=(target_rows, 3))

    labels = np.concatenate([np.zeros(len(xs), dtype=int), np.ones(len(xt), dtype=int)])
    if kinks is not None:
        feats = np.concatenate([forward(ext, xs)[0], forward(ext, xt)[0]])
        kinks += [relu_margin(ext, xs), relu_margin(ext, xt), relu_margin(disc, feats)]
    _, _, (ext_grad, cls_grad, disc_grad) = _dann_step_grads(ext, cls, disc, xs, ys, xt,
                                                             labels, lam)

    def cls_branch():
        feats, _ = forward(ext, xs)
        return cross_entropy(forward(cls, feats)[0], ys)[0]

    def dom_branch():
        fs, _ = forward(ext, xs)
        ft, _ = forward(ext, xt)
        dom_in = np.concatenate([fs, ft], axis=0)
        return cross_entropy(forward(disc, dom_in)[0], labels)[0]

    [fd_cls_on_ext] = finite_difference(cls_branch, _params(ext), H)
    [fd_dom_on_ext] = finite_difference(dom_branch, _params(ext), H)
    errs = [
        relative_error([ext_grad], [fd_cls_on_ext - lam * fd_dom_on_ext]),
        relative_error([cls_grad], finite_difference(cls_branch, _params(cls), H)),
        relative_error([disc_grad], finite_difference(dom_branch, _params(disc), H)),
    ]
    return max(errs)


def adda_case(seed: int, rows: int = 5, target_rows: int = 4,
              kinks: list | None = None) -> float:
    """ADDA's stage-2 step: the discriminator's loss and gradient on frozen
    source features beside target features, then the inversion loss (every
    target row labelled source) and its gradient on the target extractor."""
    rng = np.random.default_rng(seed)
    src_ext = init_mlp([3, 6], rng, final="relu")
    tgt_ext = init_mlp([3, 6], rng, final="relu")
    disc = init_mlp([6, 5, 2], rng)
    for bias in disc.biases:    # a dead feature row then sits off the relu kink
        bias += rng.normal(scale=0.5, size=bias.shape)
    xs = rng.normal(size=(rows, 3))
    xt = rng.normal(size=(target_rows, 3))
    labels = np.concatenate([np.zeros(len(xs), dtype=int), np.ones(len(xt), dtype=int)])
    if kinks is not None:
        feats = np.concatenate([forward(src_ext, xs)[0], forward(tgt_ext, xt)[0]])
        kinks += [relu_margin(src_ext, xs), relu_margin(tgt_ext, xt), relu_margin(disc, feats)]

    def dom_loss():
        fs, _ = forward(src_ext, xs)
        ft, _ = forward(tgt_ext, xt)
        return cross_entropy(forward(disc, np.concatenate([fs, ft], axis=0))[0], labels)[0]

    def inversion_loss():
        ft, _ = forward(tgt_ext, xt)
        return cross_entropy(forward(disc, ft)[0], np.zeros(len(xt), dtype=int))[0]

    d_loss, _, d_grad = _adda_disc_grads(src_ext, disc, xs, forward(tgt_ext, xt)[0], labels)
    inv_loss, t_grad = _adda_inversion_grads(tgt_ext, disc, *forward(tgt_ext, xt))
    return max(abs(d_loss - dom_loss()), abs(inv_loss - inversion_loss()),
               relative_error([d_grad], finite_difference(dom_loss, _params(disc), H)),
               relative_error([t_grad], finite_difference(inversion_loss, _params(tgt_ext), H)))


def mdan_case(seed: int, lam: float = 0.6, gamma: float | None = 5.0, rows: int = 4,
              n_classes: int = 3, n_sources: int = 3, kinks: list | None = None) -> float:
    """The multi-source step as training applies it, like dann_case: the
    extractor gradient must equal FD(sum_k w_k cls_k) - lam * FD(sum_k w_k
    dom_k) with the source weights w frozen at the current parameters; the
    classifier and discriminator gradients check against FD of the aggregated
    scalar. gamma None is the hard maximum."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, n_classes], rng)
    discs = [init_mlp([6, 5, 2], rng) for _ in range(n_sources)]
    batches = [(rng.normal(size=(rows, 3)), rng.integers(0, n_classes, size=rows))
               for _ in range(n_sources)]
    xt = rng.normal(size=(rows, 3))
    labels = np.repeat([0, 1], rows)

    def branches():
        """Each source's (classification loss, domain loss), one row per source."""
        ft, _ = forward(ext, xt)
        losses = []
        for (xs, ys), disc in zip(batches, discs):
            fs, _ = forward(ext, xs)
            losses.append((cross_entropy(forward(cls, fs)[0], ys)[0],
                           cross_entropy(forward(disc, np.concatenate([fs, ft]))[0], labels)[0]))
        return np.array(losses)

    def total():
        parts, _ = _mdan_step_grads(ext, cls, discs, batches, xt, labels, lam, gamma)
        return parts["total"]

    e = branches() @ [1.0, lam]
    if kinks is not None:
        kinks.append(relu_margin(ext, xt))
        for (xs, _), disc in zip(batches, discs):
            feats = np.concatenate([forward(ext, xs)[0], forward(ext, xt)[0]])
            kinks += [relu_margin(ext, xs), relu_margin(disc, feats)]
        if gamma is None:
            top = np.sort(e)
            kinks.append(top[-1] - top[-2])
    if gamma is None:
        w = np.eye(len(e))[np.argmax(e)]
    else:
        w = np.exp(gamma * (e - e.max()))
        w /= w.sum()
    _, (ext_grad, *rest) = _mdan_step_grads(ext, cls, discs, batches, xt, labels, lam, gamma)
    [fd_cls_on_ext] = finite_difference(lambda: w @ branches()[:, 0], _params(ext), H)
    [fd_dom_on_ext] = finite_difference(lambda: w @ branches()[:, 1], _params(ext), H)
    return max(relative_error([ext_grad], [fd_cls_on_ext - lam * fd_dom_on_ext]),
               relative_error(rest, finite_difference(total, _params(cls, *discs), H)))


def m3sda_case(seed: int, align: float = 0.8, rho: float = 0.3, rows: int = 4,
               target_rows: int = 5, n_classes: int = 3, n_sources: int = 2,
               kinks: list | None = None) -> float:
    """Full moment-matching objective: classification + moment + discrepancy."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    heads = [init_mlp([6, n_classes], rng) for _ in range(n_sources)]
    batches = [(rng.normal(size=(rows, 3)), rng.integers(0, n_classes, size=rows))
               for _ in range(n_sources)]
    xt = rng.normal(size=(target_rows, 3))
    if kinks is not None:
        kinks += [relu_margin(ext, x) for x in (xt, *(xs for xs, _ in batches))]
        feats_t = forward(ext, xt)[0]
        probs = [softmax(forward(head, feats_t)[0]) for head in heads]
        kinks += [float(np.abs(p - q).min()) for k, p in enumerate(probs) for q in probs[k + 1:]]

    def total():
        parts, _ = _m3sda_step_grads(ext, heads, batches, xt, align, rho)
        return parts["total"]

    _, grads = _m3sda_step_grads(ext, heads, batches, xt, align, rho)
    fd = finite_difference(total, _params(ext, *heads), H)
    return relative_error(grads, fd)


def moment_case(seed: int, rows: int = 5, target_rows: int = 7) -> float:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, 4))
    b = rng.normal(size=(target_rows, 4))
    _, da, db = moment_distance_grads(a, b)
    fd = finite_difference(lambda: moment_distance(a, b), [a, b], H)
    return relative_error([da, db], fd)


ALL_CASES = {
    "cross_entropy": cross_entropy_case,
    "dann": dann_case,
    "adda": adda_case,
    "mdan": mdan_case,
    "mdan_hard_max": partial(mdan_case, gamma=None),
    "m3sda": m3sda_case,
    "moment": moment_case,
}
