"""Command-line front end.

Subcommands: gen (domain specs -> dataset files), split, train (one cell),
eval, fairness, diagnose (shift matrix), matrix (full grid). Exit codes:
0 success, 1 configuration error, 2 runtime divergence (a non-finite loss,
gradient or overflowed activation) or an undefined metric. matrix and
fairness still write their output when a training diverged or a metric was
undefined, with the flags in it, and then exit 2; fairness_report's own
notes (e.g. a skipped class) do not change the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .data import (
    generate_domain,
    load_dataset,
    save_dataset,
    spec_from_dict,
    stratified_split,
)
from .harness import (
    ExperimentConfig,
    emit_report,
    export_features,
    load_experiment_config,
    open_grid,
    parse_scheme,
    run_cell,
    run_fairness,
    run_matrix,
)
from .metrics import PredictionSet, accuracy, auroc, save_predictions
from .moment import ensemble_predict
from .nn import DivergenceError, load_model, predict, save_model, save_run_record
from .shift import (
    build_shift_matrix,
    load_error_table,
    save_shift_csv,
    save_shift_summary,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the toolkit reserves 2 for runtime
    divergence, so bad arguments are remapped to the config-error code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the base seed")
    common.add_argument("--out", type=str, default=None, help="output path or directory")
    common.add_argument("--config", type=str, default=None, help="experiment or spec file")
    common.add_argument("--workers", type=int, default=1, help="worker pool size")
    common.add_argument("--format", choices=("canonical", "table"), default="canonical")

    parser = _Parser(prog="udakit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate datasets from domain specs")

    p = sub.add_parser("split", parents=[common], help="stratified train/test split")
    p.add_argument("--data", required=True)
    p.add_argument("--ratio", type=float, default=0.2)

    p = sub.add_parser("train", parents=[common], help="train one experiment cell")
    p.add_argument("--target", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--source", default=None, help="source domain (single-* schemes)")
    p.add_argument("--repeat", type=int, default=0)
    p.add_argument("--features-out", default=None, help="export target-test features")

    p = sub.add_parser("eval", parents=[common], help="evaluate a saved model on a dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--features-out", default=None)

    sub.add_parser("fairness", parents=[common], help="group-fairness evaluation")

    p = sub.add_parser("diagnose", parents=[common], help="pairwise shift matrix")
    p.add_argument("--data", nargs="+", required=True, help="two or more dataset files")
    p.add_argument("--errors", default=None, help="source,target,test_error table to join")
    p.add_argument("--projections", type=int, default=256)

    sub.add_parser("matrix", parents=[common], help="run the full experiment grid")
    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    if not args.config:
        raise ValueError("gen needs --config pointing at a domain spec file")
    payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
    specs = [spec_from_dict(p) for p in (payload if isinstance(payload, list) else [payload])]
    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, spec in enumerate(specs):
        if args.seed is not None:
            spec.seed = args.seed + i
        data = generate_domain(spec)
        save_dataset(data, out_dir / f"{spec.domain_id}.csv")
        print(f"wrote {out_dir / (spec.domain_id + '.csv')} ({data.n_samples} rows)")
    return 0


def _cmd_split(args: argparse.Namespace) -> int:
    data = load_dataset(args.data)
    pair = stratified_split(data, args.ratio, args.seed if args.seed is not None else 0)
    out_dir = Path(args.out or Path(args.data).parent)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.data).stem
    save_dataset(pair.train, out_dir / f"{stem}.train.csv")
    save_dataset(pair.test, out_dir / f"{stem}.test.csv")
    print(f"wrote {stem}.train.csv ({pair.train.n_samples} rows) and "
          f"{stem}.test.csv ({pair.test.n_samples} rows) in {out_dir}")
    return 0


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    if not args.config:
        raise ValueError("this command needs --config pointing at an experiment file")
    cfg = load_experiment_config(args.config)
    if args.seed is not None:
        cfg.base_seed = args.seed
    return cfg


def _write(text: str, out: str | None) -> None:
    """Write text to the --out path, or to stdout without one."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_train(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    base, _ = parse_scheme(args.scheme)
    grid = open_grid(cfg, [args.scheme])
    if args.target not in grid.splits:
        raise ValueError(f"unknown target {args.target!r}; have {grid.ids}")
    if base.startswith("single"):
        if not args.source:
            raise ValueError("single-source schemes need --source")
        source_label = args.source
        if source_label not in grid.splits or source_label == args.target:
            raise ValueError(f"source must be a non-target domain, got {source_label!r}")
    else:
        source_label = "combined" if base.startswith("combined") else "all"

    run = run_cell(grid, args.target, args.scheme, source_label, args.repeat)
    if run.flag is not None:
        print(f"udakit: {run.flag}", file=sys.stderr)
        return 2
    model = run.model

    out_dir = Path(args.out or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.target}.{args.scheme}.{source_label}.r{args.repeat}"
    save_model(model.bundle(), out_dir / f"{stem}.model.json")
    save_run_record(model.record, out_dir / f"{stem}.record.json",
                    model_ref=f"{stem}.model.json")
    metrics = {"metric": "auroc" if cfg.task == "binary" else "accuracy",
               "value": run.score, "seed": run.seed, "target": args.target,
               "scheme": args.scheme, "source": source_label}
    (out_dir / f"{stem}.metrics.json").write_text(
        json.dumps(metrics, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.features_out:
        export_features(model.extractor, splits[args.target].test, args.features_out)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    bundle = load_model(args.model)
    data = load_dataset(args.data)
    if len(bundle.classifiers) == 1:
        scores, y_pred = predict(bundle.extractor, bundle.classifiers[0], data.features)
    else:
        scores, y_pred = ensemble_predict(
            bundle.extractor, bundle.classifiers, data.features,
            rule="accuracy" if bundle.ensemble_weights else "uniform",
            accuracies=bundle.ensemble_weights)
    n_classes = bundle.classifiers[0].out_dim
    n_groups = int(data.sensitive.max()) + 1
    pos = scores[:, 1] if n_classes == 2 else None
    pred = PredictionSet(data.labels, y_pred, data.sensitive, n_classes, n_groups, pos)
    metrics = {"accuracy": accuracy(pred), "n_samples": data.n_samples}
    if pos is not None and len(np.unique(data.labels)) == 2:
        metrics["auroc"] = auroc(pos, data.labels)
    if args.out:
        save_predictions(pred, data.sample_ids, args.out)
    if args.features_out:
        export_features(bundle.extractor, data, args.features_out)
    print(json.dumps(metrics, sort_keys=True))
    return 0


def _cmd_fairness(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    matrix = run_fairness(cfg, workers=args.workers)
    text = json.dumps(matrix.to_dict(), indent=2, sort_keys=True) + "\n"
    _write(text, args.out)
    failed = sum(c.failed_runs for c in matrix.cells)
    if failed:
        print(f"{failed} trainings flagged (divergence or undefined metric)", file=sys.stderr)
        return 2
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    domains = [load_dataset(p) for p in args.data]
    table = load_error_table(args.errors) if args.errors else None
    report = build_shift_matrix(domains, table, projections=args.projections,
                                seed=args.seed if args.seed is not None else 0)
    if args.out:
        base = Path(args.out)
        save_shift_csv(report, base.with_suffix(".csv"))
        save_shift_summary(report, base.with_suffix(".json"))
        print(f"wrote {base.with_suffix('.csv')} and {base.with_suffix('.json')}")
    else:
        sys.stdout.write(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report = run_matrix(cfg, workers=args.workers)
    text = emit_report(report, args.format)
    _write(text, args.out)
    flagged = [c for c in report.cells if c.flags]
    if flagged:
        print(f"{len(flagged)} cells flagged (divergence or undefined metric)",
              file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "split": _cmd_split,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "fairness": _cmd_fairness,
    "diagnose": _cmd_diagnose,
    "matrix": _cmd_matrix,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except DivergenceError as err:
        print(f"udakit: divergence: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        print(f"udakit: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
