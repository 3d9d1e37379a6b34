"""Independent reference implementations the tests check against.

Everything here deliberately avoids the package's computation paths:
finite differences instead of backprop, O(n^2) pair counting instead of
rank sums, linear programming instead of sliced projections, exact
rational arithmetic instead of floating-point 1-D transport, and plain
Python counting loops instead of vectorized group tables. The one exception
is sliced_w1_per_pair, the package's former sliced W1 of one pair, kept so
that the quantile-plan kernel can be checked against it value by value.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def finite_difference(fn, arrays: list[np.ndarray], h: float = 1e-4) -> list[np.ndarray]:
    """Central finite-difference gradient of a scalar fn of numpy arrays.

    Perturbs entries in place, so fn must read the arrays on every call.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = fn()
            flat[i] = orig - h
            down = fn()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def relative_error(analytic: list[np.ndarray], numeric: list[np.ndarray]) -> float:
    a = np.concatenate([g.ravel() for g in analytic])
    b = np.concatenate([g.ravel() for g in numeric])
    denom = max(float(np.linalg.norm(b)), 1e-12)
    return float(np.linalg.norm(a - b)) / denom


def mlp_by_hand(weights, biases, activations, x):
    """Straight-line recompute of a forward pass, one row at a time."""
    outputs = []
    for row in x:
        h = list(row)
        for w, b, act in zip(weights, biases, activations):
            z = [sum(w[o][i] * h[i] for i in range(len(h))) + b[o] for o in range(len(b))]
            h = [max(v, 0.0) for v in z] if act == "relu" else z
        outputs.append(h)
    return np.array(outputs)


def auroc_pairs(scores, labels) -> float:
    """O(n^2) pairwise comparison: wins + half ties over all pos/neg pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def accuracy_counting(y_true, y_pred) -> float:
    correct = sum(1 for a, b in zip(y_true, y_pred) if a == b)
    return correct / len(y_true)


def pqd_counting(y_true, y_pred, groups, n_groups) -> float | None:
    """None signals the undefined case (best group quality is zero)."""
    accs = []
    for j in range(n_groups):
        members = [i for i, g in enumerate(groups) if g == j]
        correct = sum(1 for i in members if y_true[i] == y_pred[i])
        accs.append(correct / len(members))
    if max(accs) == 0:
        return None
    return min(accs) / max(accs)


def dpm_counting(y_true, y_pred, groups, n_classes, n_groups) -> float:
    ratios = []
    for cls in range(n_classes):
        rates = []
        for j in range(n_groups):
            members = [i for i, g in enumerate(groups) if g == j]
            rates.append(sum(1 for i in members if y_pred[i] == cls) / len(members))
        hi = max(rates)
        ratios.append(1.0 if hi == 0 else min(rates) / hi)
    return sum(ratios) / len(ratios)


def eom_counting(y_true, y_pred, groups, n_classes, n_groups) -> float | None:
    """Mirrors the package conventions: all-absent classes contribute 1,
    partially absent classes are skipped. None when nothing contributes."""
    ratios = []
    for cls in range(n_classes):
        supports, recalls = [], []
        for j in range(n_groups):
            members = [i for i, g in enumerate(groups) if g == j and y_true[i] == cls]
            supports.append(len(members))
            if members:
                recalls.append(sum(1 for i in members if y_pred[i] == cls) / len(members))
        if all(s == 0 for s in supports):
            ratios.append(1.0)
        elif any(s == 0 for s in supports):
            continue
        else:
            hi = max(recalls)
            ratios.append(1.0 if hi == 0 else min(recalls) / hi)
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def transport_cost_lp(a: np.ndarray, b: np.ndarray) -> float:
    """Exact W1 between uniform empirical measures via linear programming."""
    n, m = a.shape[0], b.shape[0]
    cost = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    # flow matrix F (n x m): row sums 1/n, column sums 1/m
    a_eq = []
    b_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m:(i + 1) * m] = 1.0
        a_eq.append(row)
        b_eq.append(1.0 / n)
    for j in range(m):
        col = np.zeros(n * m)
        col[j::m] = 1.0
        a_eq.append(col)
        b_eq.append(1.0 / m)
    res = linprog(cost.ravel(), A_eq=np.array(a_eq), b_eq=np.array(b_eq),
                  bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun)


def w1_exact_rational(u, v) -> Fraction:
    """Exact 1-D W1 between two samples of floats, as a Fraction.

    Integrates |F_u - F_v| between consecutive distinct values of the merged
    sample, the CDF form rather than the quantile form. Each float is an
    integer over a power of two, so over the largest of those denominators
    every value, CDF count and gap is an integer and nothing is rounded.
    """
    ratios = [x.as_integer_ratio() for x in sorted(map(float, u))]
    ratios += [x.as_integer_ratio() for x in sorted(map(float, v))]
    scale = max(d for _, d in ratios)
    values = [n * (scale // d) for n, d in ratios]
    na, nb = len(u), len(v)
    a, b = values[:na], values[na:]
    total = i = j = 0
    merged = sorted(set(values))
    for lo, hi in zip(merged, merged[1:]):
        while i < na and a[i] <= lo:
            i += 1
        while j < nb and b[j] <= lo:
            j += 1
        total += abs(i * nb - j * na) * (hi - lo)
    return Fraction(total, na * nb * scale)


def nearest_mean_labels(features: np.ndarray, class_means: np.ndarray) -> np.ndarray:
    dists = np.linalg.norm(features[:, None, :] - class_means[None, :, :], axis=2)
    return np.argmin(dists, axis=1)


def balanced_accuracy(y_true, y_pred) -> float:
    """Mean per-class recall over the classes present in y_true, by counting."""
    recalls = []
    for cls in sorted(set(y_true)):
        members = [i for i, y in enumerate(y_true) if y == cls]
        recalls.append(sum(1 for i in members if y_pred[i] == cls) / len(members))
    return sum(recalls) / len(recalls)


def moment_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||mean(a) - mean(b)||_2 + ||mean(a^2) - mean(b^2)||_2 (element-wise
    squares), through numpy's mean and norm."""
    return float(np.linalg.norm(a.mean(axis=0) - b.mean(axis=0))
                 + np.linalg.norm((a ** 2).mean(axis=0) - (b ** 2).mean(axis=0)))


def load_predictions(path) -> dict[str, object]:
    """A predictions CSV (id,y_true,y_pred,score,sensitive) as one entry per
    column: ids as a tuple, the integer columns as int64 arrays, and score as
    a float array, or None when every score field is empty."""
    lines = open(path, encoding="utf-8").read().splitlines()
    assert lines[0] == "id,y_true,y_pred,score,sensitive", lines[0]
    rows = [line.split(",") for line in lines[1:] if line]
    assert rows and all(len(r) == 5 for r in rows)
    columns: dict[str, object] = {"id": tuple(r[0] for r in rows)}
    for j, name in ((1, "y_true"), (2, "y_pred"), (4, "sensitive")):
        columns[name] = np.array([int(r[j]) for r in rows], dtype=np.int64)
    has_scores = any(r[3] != "" for r in rows)
    columns["score"] = np.array([float(r[3]) for r in rows]) if has_scores else None
    return columns


def sliced_w1_per_pair(a, b, projections: int, seed: int) -> tuple[list[float], float]:
    """Sliced W1 of one pair as the package measured it before its pairs
    shared their projections: one product of each cloud with every
    direction, each projection of both clouds sorted for this pair alone,
    the two sorted samples merged by a stable argsort (matched order
    statistics at equal sizes), and the per-projection values summed in
    projection order. Returns those values and the distance."""
    fa = np.asarray(getattr(a, "features", a), dtype=np.float64)
    fb = np.asarray(getattr(b, "features", b), dtype=np.float64)
    dim = fa.shape[1]
    if dim == 1:
        proj_a, proj_b = fa, fb
    else:
        directions = np.random.default_rng(seed).standard_normal((projections, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        proj_a, proj_b = fa @ directions.T, fb @ directions.T
    na, nb = fa.shape[0], fb.shape[0]
    values = []
    for k in range(proj_a.shape[1]):
        u, v = np.sort(proj_a[:, k]), np.sort(proj_b[:, k])
        if na == nb:
            values.append(float(np.mean(np.abs(u - v))))
            continue
        runs = np.concatenate([u, v])
        order = np.argsort(runs, kind="stable")
        merged = runs[order]
        first = order.astype(np.float64)
        # first-sample entries up to each merged position, in closed form
        cnt_u = np.minimum(first + 1.0, np.arange(na, 2.0 * na + nb) - first)[:-1]
        terms = np.abs(cnt_u / na - (np.arange(1.0, na + nb) - cnt_u) / nb)
        terms *= merged[1:] - merged[:-1]
        values.append(float(np.add.reduce(terms)))
    if dim == 1:
        return values, values[0]
    mean_abs = math.gamma(dim / 2.0) / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0))
    return values, sum(values) / projections / mean_abs
