"""Command-line surface: synthesize recordings, prepare datasets, run experiments.

Exit codes: 0 success, 2 config/usage error, 3 input or data error,
4 numeric/training failure.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from .checkpoint import CheckpointError
from .config import KEYS, ConfigError, RunSettings, parse_bool, read_config_file, resolve_run_settings
from .experiment import ExperimentError, stage_eval, stage_report, stage_train
from .metrics import MetricsError
from .signal import ChannelSet, PipelineError, build_dataset, build_synth_corpus, load_recordings_manifest, write_dataset
from .splits import SplitError
from .tensor import NumericError
from .training import LeakageError, TrainingError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_RUNTIME = 4


def _settings_from_args(args) -> RunSettings:
    file_values = read_config_file(args.config) if args.config else {}
    flags = {key.name: getattr(args, key.name) for key in KEYS.values() if key.option}
    return resolve_run_settings(file_values, flags)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    try:
        alert, drowsy = (int(v) for v in args.subjects.split(","))
    except ValueError:
        print(f"--subjects expects 'ALERT,DROWSY' counts, got {args.subjects!r}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed < 0:
        print(f"--seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_CONFIG
    manifest = build_synth_corpus(Path(args.out), alert, drowsy, args.minutes, args.seed)
    print(f"wrote {2 * (alert + drowsy)} recordings under {args.out} (manifest: {manifest})")  # an Fz and a Pz per subject
    return EXIT_OK


def cmd_prepare(args) -> int:
    channel_set = ChannelSet.FZ if args.channels == "fz" else ChannelSet.FZPZ
    recordings = load_recordings_manifest(Path(args.manifest))
    images = build_dataset(recordings, channel_set)
    manifest = write_dataset(images, Path(args.out))
    counts = Counter(img.label.value for img in images)
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    print(f"wrote {len(images)} images ({summary}) to {args.out} (manifest: {manifest})")
    return EXIT_OK


def cmd_train(args) -> int:
    settings = _settings_from_args(args)
    stage_train(settings)
    print(f"trained {settings.folds} folds of {settings.kind} into {settings.out_dir}")
    return EXIT_OK


def cmd_eval(args) -> int:
    settings = _settings_from_args(args)
    confusions = stage_eval(settings)
    accs = [(cm.tp + cm.tn) / cm.total for cm in confusions]
    print(f"evaluated {len(confusions)} folds; accuracies: {', '.join(f'{a:.4f}' for a in accs)}")
    return EXIT_OK


def cmd_report(args) -> int:
    settings = _settings_from_args(args)
    stage_report(settings)
    print((Path(settings.out_dir) / "aggregate.csv").read_text(encoding="utf-8"), end="")
    return EXIT_OK


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value run config file")
    for key in sorted(KEYS.values(), key=lambda key: not key.required):  # --dataset and --out first
        if not key.option:
            continue
        if key.parse is parse_bool:
            kind = dict(action=argparse.BooleanOptionalAction, default=None)
        elif key.choices:
            kind = dict(choices=key.choices)
        else:
            kind = dict(type=key.parse)
        p.add_argument(key.option, dest=key.name, help=key.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capsroute",
        description="EEG-spectrogram drowsiness detection: synthetic corpus, dataset prep, and five-fold experiments.",
        epilog="exit codes: 0 ok, 2 config error, 3 data error, 4 numeric/training failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic Fz/Pz recording corpus")
    p_synth.add_argument("--subjects", required=True, help="ALERT,DROWSY subject counts, e.g. 10,10")
    p_synth.add_argument("--minutes", type=float, default=10.0, help="recording length per subject (default 10)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(handler=cmd_synth)

    p_prep = sub.add_parser("prepare", help="build the spectrogram image dataset from a recordings manifest")
    p_prep.add_argument("--manifest", required=True, help="recordings.csv path")
    p_prep.add_argument("--channels", choices=("fz", "fzpz"), required=True)
    p_prep.add_argument("--out", required=True)
    p_prep.set_defaults(handler=cmd_prepare)

    for name, handler, help_text in (
        ("train", cmd_train, "train every fold; writes checkpoints and loss curves"),
        ("eval", cmd_eval, "evaluate fold checkpoints; writes confusion matrices and report.csv"),
        ("report", cmd_report, "aggregate fold metrics; writes aggregate.csv and normalized confusions"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_run_flags(p)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"config error: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    # a missing input, a directory named as a file, a file in the way of an output directory, or a dataset too small to split
    except (PipelineError, CheckpointError, ExperimentError, LeakageError, MetricsError, SplitError, FileNotFoundError,
            IsADirectoryError, FileExistsError, NotADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (TrainingError, NumericError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
