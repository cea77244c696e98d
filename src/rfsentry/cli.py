"""Command-line front end: synth, features, train, cv, compare, predict.

Every command is deterministic given its flags and seeds, and every
artifact it writes embeds the fully-resolved configuration that
produced it. Exit codes: 0 success, 2 configuration problems, 3 data
problems, 4 I/O failures.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import dataset as dataset_mod
from . import evaluation, gbdt
from .dataset import Case
from .errors import ConfigurationError, DataError, RfSentryError
from .spectrum import WINDOWS, Band, BandMode, Extraction

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_IO = 4

_BAND_CHOICES = tuple(mode.value for mode in BandMode)
# Each training flag, its metavar, the TrainConfig field it sets (whose default
# and type it takes) and its help.
_TRAIN_OPTIONS = (
    ("--rounds", "ROUNDS", "n_rounds", "boosting rounds"),
    ("--eta", "ETA", "learning_rate", "learning rate"),
    ("--max-depth", "MAX_DEPTH", "max_depth", "maximum tree depth"),
    ("--lambda", "REG_LAMBDA", "reg_lambda", "L2 leaf penalty"),
    ("--gamma", "GAMMA", "gamma", "per-leaf split penalty"),
    ("--min-child-weight", "MIN_CHILD_WEIGHT", "min_child_weight", "minimum child hessian sum"),
)


def _extraction_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("feature extraction")
    group.add_argument("--frame-size", type=int, help="analysis frame length N")
    group.add_argument("--hop", type=int, help="frame hop (default: frame size)")
    group.add_argument("--q", type=int, help="boundary bins for the seam scale factor")
    group.add_argument("--window", choices=WINDOWS, help="analysis window")


def _train_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("training")
    defaults = gbdt.TrainConfig()
    for flag, metavar, name, help_text in _TRAIN_OPTIONS:
        default = getattr(defaults, name)
        group.add_argument(
            flag, dest=name, metavar=metavar, type=type(default), default=default, help=help_text
        )


def _report_args(parser: argparse.ArgumentParser) -> None:
    """The last flags of cv and compare, which both write a report."""
    parser.add_argument("--seed-data", type=int, default=0, help="fold-assignment seed")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--out", required=True, help="report JSON path (CSV written alongside)")


def _case_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--case",
        type=int,
        choices=(1, 2, 3),
        required=True,
        help="classification case: 1 presence, 2 presence+type, 3 presence+type+mode",
    )


def _train_config(args, n_classes: int) -> gbdt.TrainConfig:
    given = {name: getattr(args, name) for _, _, name, _ in _TRAIN_OPTIONS}
    return gbdt.TrainConfig(**given, n_classes=n_classes)


def _extraction(args) -> Extraction:
    """The record of the extraction flags; one left unset takes Extraction's default."""
    given = {name: getattr(args, name) for name in ("frame_size", "hop", "q", "window")}
    return Extraction(**{name: value for name, value in given.items() if value is not None})


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_report(path, payload: dict, extraction: Extraction, reports: dict) -> None:
    """The JSON report, with the extraction record added, and beside it the per-fold
    metric CSV of its cross-validation reports (band-mode value to report)."""
    _write_json(path, {**payload, "extraction": dataclasses.asdict(extraction)})
    with open(Path(path).with_suffix(".csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["case", "band_mode", "fold", "metric", "value"])
        for band_mode, report in reports.items():
            for fold, metric_set in enumerate(report["per_fold"]):
                for name in evaluation.METRIC_NAMES:
                    writer.writerow((payload["case"], band_mode, fold, name, metric_set[name]))


def cmd_synth(args) -> int:
    manifest = dataset_mod.write_synthetic_corpus(
        args.out_dir, n_per_class=args.n_per_class, seed=args.seed_data, length=args.length
    )
    print(f"wrote {len(manifest.entries)} segment pairs to {args.out_dir}")
    print(f"manifest: {Path(args.out_dir) / 'manifest.json'}")
    return EXIT_OK


def _print_class_table(manifest: dataset_mod.Manifest) -> None:
    print(f"{'class':<16}{'segments':>10}{'expected':>10}")
    for name, observed, expected in manifest.table_report():
        expected_text = "-" if expected is None else str(expected)
        print(f"{name:<16}{observed:>10}{expected_text:>10}")
    print(f"{'total':<16}{sum(manifest.class_counts()):>10}")


def cmd_features(args) -> int:
    extraction = _extraction(args)
    manifest = dataset_mod.load_manifest(args.manifest)
    band_mode = BandMode(args.band)
    case = Case(args.case)
    ds = dataset_mod.build_dataset(manifest, band_mode, case, extraction, jobs=args.jobs)
    dataset_mod.save_features(ds, args.out)
    _print_class_table(manifest)
    print(
        f"features: {ds.n_rows} rows x {ds.n_features} dims "
        f"({band_mode.value} band, case {case.value}) -> {args.out}"
    )
    return EXIT_OK


def _load_features_for_case(path, case_value) -> dataset_mod.LabeledDataset:
    ds = dataset_mod.load_features(path)
    if case_value is not None and ds.case.value != case_value:
        raise ConfigurationError(
            f"feature cache {path} holds case {ds.case.value} labels, "
            f"but case {case_value} was requested"
        )
    return ds


def cmd_cv(args) -> int:
    ds = _load_features_for_case(args.features, args.case)
    config = _train_config(args, ds.case.n_classes)
    report = evaluation.cross_validate(ds, config, k=args.k_folds, seed=args.seed_data, jobs=args.jobs)
    report.update(case=ds.case.value, band_mode=ds.band_mode.value)
    _write_report(args.out, report, ds.extraction, {ds.band_mode.value: report})
    print(
        f"case {ds.case.value} {ds.band_mode.value}: "
        f"accuracy {report['mean']['accuracy']:.4f} +- {report['std']['accuracy']:.4f} "
        f"over {report['k_folds']} folds -> {args.out}"
    )
    return EXIT_OK


def _format_ttest(name: str, result: dict) -> str:
    verdict = "rejected" if result["rejected"] else "not rejected"
    return (
        f"{name}: mean diff {result['mean_diff']:+.4f}, t={result['t_stat']:.3f} "
        f"(dof {result['dof']}), CI [{result['ci_low']:.4f}, {result['ci_high']:.4f}], {verdict}"
    )


def cmd_compare(args) -> int:
    extraction = _extraction(args)
    manifest = dataset_mod.load_manifest(args.manifest)
    case = Case(args.case)
    config = _train_config(args, case.n_classes)
    comparison = evaluation.compare_bands(
        manifest,
        case,
        config,
        k=args.k_folds,
        seed=args.seed_data,
        alpha=args.alpha,
        extraction=extraction,
        jobs=args.jobs,
    )
    _write_report(args.out, comparison, extraction, comparison["bands"])
    for band, report in comparison["bands"].items():
        print(
            f"case {case.value} {band}: accuracy "
            f"{report['mean']['accuracy']:.4f} +- {report['std']['accuracy']:.4f}"
        )
    print(_format_ttest("LB vs UB", comparison["ttests"]["lb_vs_ub"]))
    print(_format_ttest("LB vs both", comparison["ttests"]["lb_vs_both"]))
    print(f"report -> {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    ds = _load_features_for_case(args.features, args.case)
    config = _train_config(args, ds.case.n_classes)
    model = dataclasses.replace(
        gbdt.train(ds.features, ds.labels, config), band_mode=ds.band_mode, extraction=ds.extraction
    )
    gbdt.save_model(model, args.out)
    print(
        f"trained {len(model.trees)} trees ({config.n_rounds} rounds, "
        f"{ds.case.n_classes} classes) on {ds.n_rows} rows -> {args.out}"
    )
    print(f"final training objective: {model.objective_history[-1]:.6f}")
    return EXIT_OK


def _rows_text(band_mode: BandMode, e: Extraction) -> str:
    return (
        f"{band_mode.value}-band rows at frame size {e.frame_size}, hop {e.hop}, q {e.q}, {e.window} window"
    )


def cmd_predict(args) -> int:
    """Classify with the band layout and extraction the model was trained on."""
    if args.features is not None and (args.lb is not None or args.ub is not None):
        raise ConfigurationError("--features and --lb/--ub are two inputs; give one")
    model = gbdt.load_model(args.model)
    band_mode, extraction = model.band_mode, model.extraction
    width = band_mode.feature_length(extraction)
    if model.feature_dim != width:
        raise DataError(
            f"model {args.model} takes {model.feature_dim} features, but "
            f"{_rows_text(band_mode, extraction)} have {width}"
        )
    if args.band is not None and args.band != band_mode.value:
        raise ConfigurationError(f"--band {args.band}, but the model takes {band_mode.value}-band rows")
    case = Case.for_n_classes(model.config.n_classes)
    if args.features is not None:
        ds = dataset_mod.load_features(args.features)
        if (ds.band_mode, ds.extraction) != (band_mode, extraction):
            raise DataError(
                f"feature cache {args.features} holds {_rows_text(ds.band_mode, ds.extraction)}, "
                f"but the model takes {_rows_text(band_mode, extraction)}"
            )
        features = ds.features
        source = str(args.features)
    else:
        if args.lb is None and args.ub is None:
            raise ConfigurationError("predict needs --features, or --lb/--ub segment files")
        for band, path, flag in ((Band.LOWER, args.lb, "--lb"), (Band.UPPER, args.ub, "--ub")):
            if band in band_mode.bands and path is None:
                raise ConfigurationError(f"--band {band_mode.value} requires {flag} (the model's layout)")
        rows = dataset_mod.extract_pair(args.lb, args.ub, (band_mode,), extraction, "cli-input")
        features = rows[band_mode][None, :]
        source = str(args.lb or args.ub)
    probs = gbdt.predict_proba(model, features)
    labels = np.argmax(probs, axis=1)
    for i, (label, row) in enumerate(zip(labels, probs)):
        listed = " ".join(f"{value:.4f}" for value in row)
        print(f"row {i}: {case.class_names[label]} (class {label})  probs=[{listed}]")
    if args.out:
        payload = {
            "model": str(args.model),
            "input": source,
            "config": dataclasses.asdict(model.config),
            "case": case.value,
            "class_names": list(case.class_names),
            "labels": labels.tolist(),
            "probabilities": probs.tolist(),
        }
        _write_json(args.out, payload)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rfsentry argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rfsentry",
        description="RF drone detection and identification from signal-strength spectra",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", required=True, help="directory for segment files and manifest")
    p.add_argument("--n-per-class", type=int, default=10, help="segments per 10-way class")
    p.add_argument("--seed-data", type=int, default=0, help="corpus seed")
    p.add_argument("--length", type=int, default=dataset_mod.SYNTH_DEFAULT_LENGTH, help="samples per segment")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="extract a feature cache from a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--band", choices=_BAND_CHOICES, default="lower")
    _case_arg(p)
    _extraction_args(p)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", required=True, help="feature cache path")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("cv", help="stratified K-fold cross-validation on a feature cache")
    p.add_argument("--features", required=True, help="feature cache path")
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=None, help="expected case (validated)")
    _train_args(p)
    p.add_argument("--k-folds", type=int, default=10)
    _report_args(p)
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("compare", help="lower/upper/both band comparison with paired t-tests")
    p.add_argument("--manifest", required=True)
    _case_arg(p)
    _extraction_args(p)
    _train_args(p)
    p.add_argument("--k-folds", type=int, default=10)
    p.add_argument("--alpha", type=float, default=0.05, help="t-test significance level")
    _report_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train", help="train a model on a full feature cache")
    p.add_argument("--features", required=True)
    p.add_argument("--case", type=int, choices=(1, 2, 3), default=None, help="expected case (validated)")
    _train_args(p)
    p.add_argument("--out", required=True, help="model file path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify a feature cache or a raw segment pair")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="feature cache to classify")
    p.add_argument("--lb", default=None, help="lower-band segment file")
    p.add_argument("--ub", default=None, help="upper-band segment file")
    p.add_argument("--band", choices=_BAND_CHOICES, help="expected band layout (validated)")
    p.add_argument("--out", default=None, help="optional JSON output path")
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RF_SENTRY_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING), stream=sys.stderr)
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "jobs", 1) < 1:  # features, cv and compare: before any file is read
            raise ConfigurationError(f"--jobs must be >= 1, got {args.jobs}")
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except RfSentryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
