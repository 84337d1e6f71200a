"""Command-line interface.

Subcommands: generate, featurize, train, evaluate, predict. Exit codes:
0 success, 1 runtime failure, 2 usage error. Configuration comes from
defaults, then an optional JSON file (--config), then dotted-key overrides
such as --features.temporal_k.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import __version__
from .classifier import RowError, load_model, predict_batch, save_model, train
from .config import PipelineConfig, apply_overrides, config_keys
from .core import ConfigError, ThermactError, from_json_file, load_manifest, read_sequence
# loso_split stays bound here: perfbench's tracing test calls cli.loso_split.
from .evaluate import loso_split, prepare_features, run_pipeline_cv, sequence_features
from .preprocess import estimate_background
from .synth import SceneParams, generate_corpus

_OVERRIDE_FLAGS = config_keys()


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON pipeline configuration file")
    for key, typ in _OVERRIDE_FLAGS:
        parser.add_argument(f"--{key}", type=typ, dest=key, default=None, help=argparse.SUPPRESS)


def _effective_config(args: argparse.Namespace) -> PipelineConfig:
    config = from_json_file(PipelineConfig, args.config) if args.config else PipelineConfig()
    overrides = {key: getattr(args, key) for key, _ in _OVERRIDE_FLAGS}
    return apply_overrides(config, overrides)


def cmd_generate(args: argparse.Namespace) -> int:
    scene = from_json_file(SceneParams, args.scene) if args.scene else None
    try:
        summary = generate_corpus(
            args.out, subjects=args.subjects, reps=args.reps, seed=args.seed, scene=scene
        )
    except ConfigError as exc:  # the scene gives an activity too few frames
        raise ConfigError(f"{args.scene}: {exc}") from None
    print(
        f"wrote {summary.sequence_count} sequences + background to {args.out} "
        f"(manifest: {summary.manifest_path}, clamped values: {summary.clamped_values})"
    )
    return 0


def cmd_featurize(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    manifest = load_manifest(args.data)
    X, _ = prepare_features(manifest, config.preprocess.target_len, config.features)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["# label", "subject", *(f"f{i}" for i in range(X.shape[1]))])
    for entry, row in zip(manifest.entries, X.tolist()):
        writer.writerow([entry.label, entry.subject_id, *map(repr, row)])
    if args.out:
        Path(args.out).write_text(out.getvalue(), encoding="utf-8")
        print(f"wrote {X.shape[0]} x {X.shape[1]} feature rows to {args.out}")
    else:
        sys.stdout.write(out.getvalue())
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    manifest = load_manifest(args.data)
    X, labels = prepare_features(manifest, config.preprocess.target_len, config.features)
    model = train(X, labels, config.svm, classes=manifest.label_set)
    save_model(model, args.model, config)
    print(f"trained on {len(labels)} sequences ({len(model.classes)} classes) -> {args.model}")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    manifest = load_manifest(args.data)
    report = run_pipeline_cv(manifest, config)
    print(report.confusion.to_text())
    print(f"overall accuracy:  {100.0 * report.overall_accuracy:.2f}%")
    if report.fall_sensitivity is not None:
        print(f"fall sensitivity:  {100.0 * report.fall_sensitivity:.2f}%")
    if report.fall_specificity is not None:
        print(f"fall specificity:  {100.0 * report.fall_specificity:.2f}%")
    if args.report:
        Path(args.report).write_text(json.dumps(report.to_json_dict()) + "\n", encoding="utf-8")
        print(f"report written to {args.report}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    model, config = load_model(args.model)
    background = estimate_background(read_sequence(args.background))
    sequences = [read_sequence(path) for path in args.sequences]
    X = sequence_features(
        sequences, [background] * len(sequences), config.preprocess.target_len, config.features
    )
    try:
        labels, scores = predict_batch(model, X)
    except ValueError as exc:
        # Row k is file k; the features follow the model's own config, so a
        # dimension mismatch is the model file's fault.
        path = args.sequences[exc.row] if isinstance(exc, RowError) else args.model
        raise ThermactError(f"{path}: {exc}") from exc
    for path, label, row in zip(args.sequences, labels, scores.tolist()):
        line = f"{path}\t{label}"
        if args.scores:
            line += "\t" + " ".join(f"{cls}={score:.6g}" for cls, score in zip(model.classes, row))
        print(line)
    return 0


@functools.cache  # parsing does not change a parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermact",
        description="Activity and fall recognition from 8x8 thermal array recordings.",
    )
    parser.add_argument("--version", action="version", version=f"thermact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic labeled corpus")
    p.add_argument("--out", required=True, type=Path, help="output directory")
    p.add_argument("--subjects", type=int, default=8)
    p.add_argument("--reps", type=int, default=3, help="sessions per subject")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scene", type=Path, help="scene parameter JSON file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("featurize", help="emit feature vectors as CSV")
    p.add_argument("--data", required=True, type=Path, help="manifest JSON")
    p.add_argument("--out", type=Path, help="output CSV (default: stdout)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("train", help="train a model on a full dataset")
    p.add_argument("--data", required=True, type=Path, help="manifest JSON")
    p.add_argument("--model", required=True, type=Path, help="output model file")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="cross-validate and report metrics")
    p.add_argument("--data", required=True, type=Path, help="manifest JSON")
    p.add_argument("--report", type=Path, help="write the full report JSON here")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify sequence files with a trained model")
    p.add_argument("--model", required=True, type=Path)
    p.add_argument("--background", required=True, type=Path, help="empty-scene frame CSV")
    p.add_argument("--scores", action="store_true", help="also print per-class scores")
    p.add_argument("sequences", nargs="+", type=Path)
    p.set_defaults(func=cmd_predict)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ThermactError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
