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
    load_spec,
    save_dataset,
    save_spec,
    stratified_split,
    weighted_sampler_weights,
)
from .nn import (
    DivergenceError,
    ErmResult,
    Mlp,
    ModelBundle,
    RunRecord,
    SgdState,
    TrainConfig,
    backward,
    cross_entropy,
    extract_features,
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
    AdversarialResult,
    soft_aggregate,
    train_adda,
    train_dann,
    train_mdan,
)
from .moment import (
    M3sdaResult,
    MomentConfig,
    ensemble_predict,
    moment_distance,
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
    balanced_accuracy,
    dpm,
    eom,
    fairness_report,
    group_partition,
    load_predictions,
    pqd,
    save_fairness_report,
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
    wasserstein_feature_distance,
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
