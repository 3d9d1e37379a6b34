"""Single-source adaptation on shifted blobs.

Two Gaussian classes; the target domain is the source translated along the
class axis, so a source-only classifier puts its boundary straight through
the target's first class. Reversal training and two-stage alignment both
recover most of the lost accuracy without ever seeing a target label.
"""

import numpy as np

from udakit import (
    AdversarialConfig,
    DomainSpec,
    TrainConfig,
    generate_domain,
    predict,
    train_adda,
    train_dann,
    train_erm,
)

MEANS = np.array([[0.0, 0.0], [4.0, 0.0]])
MIX = np.array([0.65, 0.35])
SHIFT = np.array([2.0, 0.0])


def domain(name, means, seed):
    spec = DomainSpec(name, 600, 2, means, 0.7, MIX, np.array([1.0]),
                      np.zeros((1, 2)), seed=seed)
    return generate_domain(spec)


def accuracy(model, data):
    _, labels = predict(model, data.features)
    return float(np.mean(labels == data.labels))


def main():
    print("source blobs at x=0 and x=4; target shifted by +2 along the class axis")
    print(f"{'seed':>4} {'no adaptation':>14} {'reversal':>10} {'two-stage':>10}")
    rows = []
    for seed in (0, 1, 2):
        src = domain("src", MEANS, 100 + seed)
        tgt = domain("tgt", MEANS + SHIFT, 1100 + seed)
        train = TrainConfig(n_classes=2, epochs=600, learning_rate=3e-3,
                            momentum=0.5, seed=seed)

        erm = train_erm(src, train)
        dann = train_dann(src, tgt.unlabeled(),
                          AdversarialConfig(train=train, domain_weight=2.0))
        adda = train_adda(src, tgt.unlabeled(),
                          AdversarialConfig(train=train, adapt_epochs=250,
                                            adapt_learning_rate=2e-4))
        row = (accuracy(erm, tgt), accuracy(dann, tgt), accuracy(adda, tgt))
        rows.append(row)
        print(f"{seed:>4} {row[0]:>14.3f} {row[1]:>10.3f} {row[2]:>10.3f}")
    mean = np.mean(rows, axis=0)
    print(f"{'mean':>4} {mean[0]:>14.3f} {mean[1]:>10.3f} {mean[2]:>10.3f}")
    print(f"\nadaptation gains: reversal {mean[1] - mean[0]:+.3f}, "
          f"two-stage {mean[2] - mean[0]:+.3f} target accuracy")


if __name__ == "__main__":
    main()
