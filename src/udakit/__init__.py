"""udakit: unsupervised domain adaptation at desk scale.

Synthetic multi-domain problems, adversarial and moment-matching adaptation
trainers with analytic gradients, group-fairness metrics, domain-shift
diagnostics, and a leave-one-domain-out experiment harness.
"""

from .data import (
    CLASS_DISTRIBUTIONS,
    CLASS_NAMES,
    DomainDataset,
    DomainSpec,
    SplitPair,
    UnlabeledDomain,
    class_distribution,
    concat_domains,
    generate_domain,
    load_dataset,
    save_dataset,
    stratified_split,
    weighted_sampler_weights,
)
from .nn import (
    DivergenceError,
    Mlp,
    ModelBundle,
    RunRecord,
    SgdState,
    TrainConfig,
    backward,
    cross_entropy,
    forward,
    init_mlp,
    init_sgd,
    load_model,
    predict,
    save_model,
    save_run_record,
    sgd_step,
    softmax,
    train_erm,
)
from .adversarial import (
    AdversarialConfig,
    soft_aggregate,
    train_adda,
    train_dann,
    train_mdan,
)
from .moment import (
    MomentConfig,
    moment_distance_grads,
    train_m3sda,
)
from .metrics import (
    FairnessReport,
    GROUP_BINS,
    PredictionSet,
    UndefinedMetricError,
    accuracy,
    auroc,
    fairness_report,
    group_partition,
    save_predictions,
)
from .shift import (
    PairShift,
    ShiftReport,
    build_shift_matrix,
    chi_square_label_divergence,
    load_error_table,
    pearson,
    save_shift_csv,
    save_shift_summary,
    wasserstein_feature_distances,
)
from .harness import (
    CellResult,
    EvalReport,
    ExperimentConfig,
    FairnessCell,
    FairnessMatrix,
    SCHEME_BASES,
    emit_report,
    export_features,
    load_experiment_config,
    run_fairness,
    run_matrix,
)

__version__ = "0.1.0"
