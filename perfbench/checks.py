"""Reference computations the workloads' outputs are checked against.

Everything here is written apart from udakit, as plain loops over the
program's outputs, so that a fault in the program's own arithmetic cannot
hide itself.
"""

from __future__ import annotations

import math
import zlib

# Each class of a test split keeps round(0.2 * n_c) rows, clamped to
# [1, n_c - 1] when the class has two or more rows (the harness's split rule).
SPLIT_RATIO = 0.2


def cell_seed(base_seed: int, key: str, repeat: int) -> int:
    return (base_seed + repeat + zlib.crc32(key.encode())) % (2 ** 63)


def n_test_rows(labels) -> int:
    counts: dict[int, int] = {}
    for y in labels:
        counts[int(y)] = counts.get(int(y), 0) + 1
    total = 0
    for n_c in counts.values():
        if n_c >= 2:
            total += min(max(int(round(SPLIT_RATIO * n_c)), 1), n_c - 1)
    return total


def pair_count_auroc(scores, labels) -> float:
    """O(n^2) share of (positive, negative) pairs ranked right, ties half."""
    pos = [float(s) for s, y in zip(scores, labels) if int(y) == 1]
    neg = [float(s) for s, y in zip(scores, labels) if int(y) == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def bayes_auroc(class_means, class_cov_scale: float) -> float:
    """AUROC of the Bayes rule between two isotropic Gaussians of equal spread.

    Its score is linear along mu1 - mu0, so AUROC = Phi(|mu1 - mu0| / (sigma sqrt 2)).
    """
    gap = math.dist(class_means[0], class_means[1])
    z = gap / (class_cov_scale * math.sqrt(2.0))
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _ratio(values: list[float]) -> float:
    lo, hi = min(values), max(values)
    return 1.0 if hi == 0.0 else lo / hi


def fairness_by_counting(y_true, y_pred, groups, n_classes: int, n_groups: int) -> dict:
    """PQD (accuracy basis), DPM, EOM and accuracy from plain counts."""
    y_true = [int(v) for v in y_true]
    y_pred = [int(v) for v in y_pred]
    groups = [int(v) for v in groups]
    size = [0] * n_groups
    right = [0] * n_groups
    predicted = [[0] * n_classes for _ in range(n_groups)]
    support = [[0] * n_classes for _ in range(n_groups)]
    hits = [[0] * n_classes for _ in range(n_groups)]
    for t, p, g in zip(y_true, y_pred, groups):
        size[g] += 1
        predicted[g][p] += 1
        support[g][t] += 1
        if t == p:
            right[g] += 1
            hits[g][t] += 1
    per_group = [right[g] / size[g] for g in range(n_groups)]
    dpm = [_ratio([predicted[g][c] / size[g] for g in range(n_groups)])
           for c in range(n_classes)]
    eom = []
    for c in range(n_classes):
        supports = [support[g][c] for g in range(n_groups)]
        if all(s == 0 for s in supports):
            eom.append(1.0)
        elif all(s > 0 for s in supports):
            eom.append(_ratio([hits[g][c] / support[g][c] for g in range(n_groups)]))
    return {
        "pqd": min(per_group) / max(per_group),
        "dpm": sum(dpm) / len(dpm),
        "eom": sum(eom) / len(eom),
        "quality": sum(right) / len(y_true),
    }


def chi_square(source_labels, target_labels, n_classes: int, epsilon: float = 1e-6) -> float:
    p = [0] * n_classes
    q = [0] * n_classes
    for y in source_labels:
        p[int(y)] += 1
    for y in target_labels:
        q[int(y)] += 1
    ns, nt = len(source_labels), len(target_labels)
    return sum((p[c] / ns - q[c] / nt) ** 2 / (q[c] / nt + epsilon) for c in range(n_classes))


def sliced_tolerance(norm: float, dim: int, projections: int, sigmas: float = 4.0) -> float:
    """Allowed gap between a sliced-W1 estimate of a pure translation and |delta|.

    For a translation every projection contributes |<u, delta>| exactly, so
    the estimate's only error is the projection sample: the relative spread
    of |<u, e>| for a uniform unit u, sqrt(1/d - c^2) / c with
    c = E|<u, e>|, shrunk by sqrt(projections).
    """
    c = math.gamma(dim / 2.0) / (math.sqrt(math.pi) * math.gamma((dim + 1) / 2.0))
    rel = math.sqrt(1.0 / dim - c * c) / c / math.sqrt(projections)
    return sigmas * rel * norm


def close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))
