"""Multi-source adaptation under complementary label shift.

Three sources each cover only two of the target's three classes. Any single
source caps out near two-thirds accuracy because one class is missing from
its training data; training on all sources at once, with class-rebalanced
batches, covers the whole label space.
"""

import numpy as np

from udakit import (
    AdversarialConfig,
    DomainSpec,
    MomentConfig,
    TrainConfig,
    generate_domain,
    predict,
    train_dann,
    train_m3sda,
    train_mdan,
)

MEANS = np.array([[0.0, 0.0], [3.0, 0.0], [1.5, 2.6]])


def domain(name, dist, seed, n=500):
    spec = DomainSpec(name, n, 2, MEANS, 0.6, np.array(dist), np.array([1.0]),
                      np.zeros((1, 2)), seed=seed)
    return generate_domain(spec)


def main():
    seed = 0
    sources = [
        domain("pair-01", (0.5, 0.5, 0.0), 200),
        domain("pair-12", (0.0, 0.5, 0.5), 300),
        domain("pair-02", (0.5, 0.0, 0.5), 400),
    ]
    target = domain("uniform", (1 / 3, 1 / 3, 1 / 3), 500, n=600)
    train = TrainConfig(n_classes=3, epochs=200, learning_rate=3e-3,
                        momentum=0.5, seed=seed)
    rs_train = TrainConfig(n_classes=3, epochs=200, learning_rate=3e-3,
                           momentum=0.5, resample=True, seed=seed)

    print("each source sees two of the target's three classes\n")
    for src in sources:
        res = train_dann(src, target.unlabeled(), AdversarialConfig(train=train))
        _, labels = predict(res, target.features)
        acc = np.mean(labels == target.labels)
        covered = np.unique(src.labels)
        print(f"single-source adversarial from {src.domain_id} "
              f"(classes {covered.tolist()}): target accuracy {acc:.3f}")

    mdan = train_mdan(sources, target.unlabeled(),
                      AdversarialConfig(train=rs_train, domain_weight=0.5))
    _, labels = predict(mdan, target.features)
    print(f"\nall three sources, adversarial (rs): {np.mean(labels == target.labels):.3f}")

    m3 = train_m3sda(sources, target.unlabeled(),
                     MomentConfig(train=rs_train, align_weight=0.1))
    _, labels = predict(m3, target.features)
    print(f"all three sources, moment matching (rs): {np.mean(labels == target.labels):.3f}")
    print("\nmissing-class ceilings disappear once every class has a source.")


if __name__ == "__main__":
    main()
