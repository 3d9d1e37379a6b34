"""Finite-difference gradient cases for every loss in the toolkit.

Each builder assembles a small random configuration, computes the analytic
gradients the trainers actually apply, and returns the relative error
against central finite differences (h = 1e-4 on float64).
"""

from __future__ import annotations

import numpy as np

from udakit.adversarial import _dann_step_grads, _mdan_step_grads
from udakit.moment import _m3sda_step_grads, moment_distance_grads, moment_distance
from udakit.nn import backward, cross_entropy, forward, init_mlp

from oracles import finite_difference, relative_error

H = 1e-4


def _params(*mlps):
    """Each network's flat parameter vector; perturbing it perturbs every layer."""
    return [m.params for m in mlps]


def cross_entropy_case(seed: int) -> float:
    """ERM loss through extractor + classifier."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, 3], rng)
    x = rng.normal(size=(5, 3))
    y = rng.integers(0, 3, size=5)

    def loss():
        feats, _ = forward(ext, x)
        return cross_entropy(forward(cls, feats)[0], y)[0]

    feats, f_acts = forward(ext, x)
    logits, c_acts = forward(cls, feats)
    _, dlogits = cross_entropy(logits, y)
    c_grad, dfeat = backward(cls, c_acts, dlogits)
    f_grad, _ = backward(ext, f_acts, dfeat)
    return relative_error([f_grad, c_grad], finite_difference(loss, _params(ext, cls), H))


def dann_case(seed: int, lam: float = 0.7) -> float:
    """Reversal composition: extractor analytic gradient must equal the
    classifier-branch FD gradient minus lam times the domain-branch FD
    gradient; classifier and discriminator check against their own branches.
    """
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, 3], rng)
    disc = init_mlp([6, 5, 2], rng)
    xs = rng.normal(size=(5, 3))
    ys = rng.integers(0, 3, size=5)
    xt = rng.normal(size=(4, 3))

    _, _, (ext_grad, cls_grad, disc_grad) = _dann_step_grads(ext, cls, disc, xs, ys, xt, lam)

    def cls_branch():
        feats, _ = forward(ext, xs)
        return cross_entropy(forward(cls, feats)[0], ys)[0]

    def dom_branch():
        fs, _ = forward(ext, xs)
        ft, _ = forward(ext, xt)
        dom_in = np.concatenate([fs, ft], axis=0)
        labels = np.concatenate([np.zeros(len(xs), dtype=int), np.ones(len(xt), dtype=int)])
        return cross_entropy(forward(disc, dom_in)[0], labels)[0]

    [fd_cls_on_ext] = finite_difference(cls_branch, _params(ext), H)
    [fd_dom_on_ext] = finite_difference(dom_branch, _params(ext), H)
    errs = [
        relative_error([ext_grad], [fd_cls_on_ext - lam * fd_dom_on_ext]),
        relative_error([cls_grad], finite_difference(cls_branch, _params(cls), H)),
        relative_error([disc_grad], finite_difference(dom_branch, _params(disc), H)),
    ]
    return max(errs)


def mdan_case(seed: int, lam: float = 0.6, gamma: float = 5.0) -> float:
    """The aggregated multi-source scalar, gradient-checked without the
    extractor reversal (reverse_domain=False yields the true gradient)."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    cls = init_mlp([6, 3], rng)
    discs = [init_mlp([6, 5, 2], rng) for _ in range(3)]
    batches = [(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4)) for _ in range(3)]
    xt = rng.normal(size=(4, 3))

    def total():
        parts, _ = _mdan_step_grads(ext, cls, discs, batches, xt, lam, gamma,
                                    hard_max=False, reverse_domain=False)
        return parts["total"]

    _, grads = _mdan_step_grads(ext, cls, discs, batches, xt, lam, gamma,
                                hard_max=False, reverse_domain=False)
    fd = finite_difference(total, _params(ext, cls, *discs), H)
    return relative_error(grads, fd)


def m3sda_case(seed: int, align: float = 0.8, rho: float = 0.3) -> float:
    """Full moment-matching objective: classification + moment + discrepancy."""
    rng = np.random.default_rng(seed)
    ext = init_mlp([3, 6], rng, final="relu")
    heads = [init_mlp([6, 3], rng) for _ in range(2)]
    batches = [(rng.normal(size=(4, 3)), rng.integers(0, 3, size=4)) for _ in range(2)]
    xt = rng.normal(size=(5, 3))

    def total():
        parts, _ = _m3sda_step_grads(ext, heads, batches, xt, align, rho)
        return parts["total"]

    _, grads = _m3sda_step_grads(ext, heads, batches, xt, align, rho)
    fd = finite_difference(total, _params(ext, *heads), H)
    return relative_error(grads, fd)


def moment_case(seed: int) -> float:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(7, 4))
    _, da, db = moment_distance_grads(a, b)
    fd = finite_difference(lambda: moment_distance(a, b), [a, b], H)
    return relative_error([da, db], fd)


ALL_CASES = {
    "cross_entropy": cross_entropy_case,
    "dann": dann_case,
    "mdan": mdan_case,
    "m3sda": m3sda_case,
    "moment": moment_case,
}
