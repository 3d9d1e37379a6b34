"""udakit: unsupervised domain adaptation at desk scale.

Synthetic multi-domain problems, adversarial and moment-matching adaptation
trainers with analytic gradients, group-fairness metrics, domain-shift
diagnostics, and a leave-one-domain-out experiment harness.

`import udakit` loads no submodule: each exported name, and each submodule
such as `udakit.harness`, is imported on first use (PEP 562).
"""

import importlib

# module -> the names the package exports from it
_EXPORTS = {
    "data": ("CLASS_DISTRIBUTIONS", "CLASS_NAMES", "DomainDataset", "DomainSpec", "SplitPair",
             "UnlabeledDomain", "class_distribution", "concat_domains", "generate_domain",
             "load_dataset", "save_dataset", "stratified_split", "weighted_sampler_weights"),
    "nn": ("DivergenceError", "Mlp", "ModelBundle", "RunRecord", "SgdState", "TrainConfig",
           "backward", "cross_entropy", "forward", "init_mlp", "init_sgd", "load_model",
           "predict", "save_model", "save_run_record", "sgd_step", "softmax", "train_erm"),
    "adversarial": ("AdversarialConfig", "soft_aggregate", "train_adda", "train_dann",
                    "train_mdan"),
    "moment": ("MomentConfig", "moment_distance_grads", "train_m3sda"),
    "metrics": ("FairnessReport", "GROUP_BINS", "PredictionSet", "UndefinedMetricError",
                "accuracy", "auroc", "fairness_report", "group_partition", "save_predictions"),
    "shift": ("PairShift", "ShiftReport", "build_shift_matrix", "chi_square_label_divergence",
              "load_error_table", "pearson", "save_shift_csv", "save_shift_summary",
              "wasserstein_feature_distances"),
    "harness": ("CellResult", "EvalReport", "ExperimentConfig", "FairnessCell",
                "FairnessMatrix", "SCHEME_BASES", "emit_report", "export_features",
                "load_experiment_config", "run_fairness", "run_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    """An exported name, read from its module on every access and never
    stored here, so it follows any rebinding of the module's global; or a
    submodule, which the import system stores as a package attribute."""
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
