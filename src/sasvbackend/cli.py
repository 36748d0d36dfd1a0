"""Command-line surface: synth, train, score, evaluate, gradcheck.

Exit codes are stable:

  0  success
  2  I/O or file-format problem (path or line reported)
  3  training failure (pool exhausted, non-finite loss/gradient)
  4  unresolved utterance ids (first 10 listed)
  5  protocol problem (no target or no impostor trials; path reported)
  6  gradient check exceeded tolerance

Every option, required ones included, can also be supplied through
``--config FILE`` holding ``key=value`` lines (keys are the long option
names); explicit flags win over the config file, and unknown keys and bad
values are rejected.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import data as dio
from .backend import BackendParams, POOLING_MODES, ZeroNormError
from .gradcheck import gradient_check
from .metrics import EmptyClassError, check_classes, evaluate
from .sampling import PoolExhaustedError
from .scoring import SCORERS, score_trials
from .training import (
    HARD_SELECTION_MODES,
    TrainConfig,
    TrainingDivergedError,
    train,
)

EXIT_OK = 0
EXIT_IO = 2
EXIT_TRAINING = 3
EXIT_RESOLUTION = 4
EXIT_PROTOCOL = 5
EXIT_GRADCHECK = 6


def _percent(value) -> str:
    return "absent" if value is None else f"{100.0 * value:.2f}"


def _report_kv(report) -> str:
    return "".join(f"{key}={'absent' if value is None else repr(value)}\n"
                   for key, value in dataclasses.asdict(report).items())


# config fields whose option is not named after the field
_FLAGS = {
    "d_a": "asv-dim",
    "d_c": "cm-dim",
    "spoof_speaker_fidelity": "spoof-fidelity",
    "lr_decay_per_epoch": "lr-decay",
    "hard_negative_top_n": "top-n",
}
_CHOICES = {"pooling": POOLING_MODES, "hard_selection": HARD_SELECTION_MODES}


def _flag(field: dataclasses.Field) -> str:
    return _FLAGS.get(field.name, field.name.replace("_", "-"))


def _add_config_options(parser: argparse.ArgumentParser, config_cls) -> None:
    """One option per field of config_cls, defaulting to the field's default."""
    for field in dataclasses.fields(config_cls):
        parser.add_argument("--" + _flag(field), type=type(field.default),
                            default=field.default, choices=_CHOICES.get(field.name),
                            help=f"{config_cls.__name__}.{field.name} (default %(default)s)")


def _config_from_args(config_cls, args):
    return config_cls(**{f.name: getattr(args, _flag(f).replace("-", "_"))
                         for f in dataclasses.fields(config_cls)})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasv-backend",
        description="Spoofing-aware speaker verification back-end",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic embedding corpus")
    synth.add_argument("--out", required=True, help="output directory")
    _add_config_options(synth, dio.SynthConfig)

    tr = sub.add_parser("train", help="train the back-end on a manifest")
    tr.add_argument("--manifest", required=True)
    tr.add_argument("--asv-embeddings", required=True)
    tr.add_argument("--cm-embeddings", required=True)
    tr.add_argument("--out", required=True, help="checkpoint/log directory")
    tr.add_argument("--dev-trials", help="trial list for per-epoch dev EERs")
    _add_config_options(tr, TrainConfig)

    sc = sub.add_parser("score", help="score a trial list with a checkpoint")
    sc.add_argument("--checkpoint", required=True)
    sc.add_argument("--trials", required=True)
    sc.add_argument("--asv-embeddings", required=True)
    sc.add_argument("--cm-embeddings", required=True)
    sc.add_argument("--out", required=True, help="score file to write")
    sc.add_argument("--scorer", choices=SCORERS, default="fused")
    sc.add_argument("--pooling", choices=POOLING_MODES,
                    help="pooling of a version-1 checkpoint (default attention); a "
                         "version-2 checkpoint records its own")

    ev = sub.add_parser("evaluate", help="compute EERs from a score file")
    ev.add_argument("--scores", required=True)
    ev.add_argument("--out", help="key-value report file")

    gc = sub.add_parser("gradcheck", help="finite-difference gradient check")
    gc.add_argument("--seed", type=int, default=0)
    gc.add_argument("--asv-dim", type=int, default=8)
    gc.add_argument("--cm-dim", type=int, default=6)
    gc.add_argument("--hidden-dim", type=int, default=4)
    gc.add_argument("--speakers", type=int, default=2)
    gc.add_argument("--utterances", type=int, default=4)
    gc.add_argument("--pooling", choices=POOLING_MODES, default="attention")
    for subparser in sub.choices.values():
        subparser.add_argument("--config", help="key=value config file")
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv; a --config file, read first, fills the subcommand's
    defaults and may supply its required options, so explicit flags win
    over it."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("command", nargs="?")
    pre.add_argument("--config", nargs="?")  # a bare --config is the full parser's error
    args = pre.parse_known_args(argv)[0]
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if args.config is None or args.command not in sub.choices:
        return parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise dio.MalformedLineError(f"{args.config}: {exc}") from None
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise dio.MalformedLineError(f"{args.config}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        pairs[key.strip().replace("-", "_")] = (f"{args.config}:{lineno}", value.strip())

    subparser = sub.choices[args.command]
    known = {a.dest: a for a in subparser._actions}
    unknown = sorted(set(pairs) - set(known))
    if unknown:
        raise ValueError(f"{args.config}: unknown config keys: {', '.join(unknown)}")
    defaults = {}
    for key, (where, raw) in pairs.items():
        action = known[key]
        try:
            defaults[key] = action.type(raw) if action.type else raw
            if action.choices is not None and defaults[key] not in action.choices:
                raise ValueError(f"{raw!r} is not one of {', '.join(action.choices)}")
        except ValueError as exc:
            raise dio.MalformedLineError(f"{where}: {key}: {exc}") from None
        action.required = False
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def cmd_synth(args) -> int:
    dataset = dio.generate_synthetic(_config_from_args(dio.SynthConfig, args))
    paths = dio.write_synthetic(dataset, args.out)
    for p in paths:
        print(p)
    return EXIT_OK


def cmd_train(args) -> int:
    manifest = dio.load_manifest(args.manifest)
    if not manifest.utterances:
        raise dio.DataError(f"{args.manifest}: the manifest lists no utterances")
    asv_map = dio.load_embeddings(args.asv_embeddings)
    cm_map = dio.load_embeddings(args.cm_embeddings)
    pool = dio.build_records(manifest, asv_map, cm_map)
    dev_bundle = None
    if args.dev_trials:
        trials = dio.load_trials(args.dev_trials)
        dio.resolve_trials(trials, asv_map, cm_map)
        check_classes((t.label for t in trials), args.dev_trials)
        dev_bundle = (trials, asv_map, cm_map)
    config = _config_from_args(TrainConfig, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = train(pool, config, checkpoint_dir=out, log_path=out / "train.log",
                   dev_bundle=dev_bundle)
    last = result.epoch_logs[-1]
    print(f"trained {config.epochs} epochs, final mean selected loss "
          f"{last.mean_selected_loss:.6f}, checkpoints in {out}")
    return EXIT_OK


def cmd_score(args) -> int:
    params = BackendParams.load(args.checkpoint)
    if params.pooling and args.pooling and args.pooling != params.pooling:
        raise dio.DataError(f"{args.checkpoint}: the checkpoint was trained with "
                            f"{params.pooling} pooling, not {args.pooling}")
    trials = dio.load_trials(args.trials)
    asv_map = dio.load_embeddings(args.asv_embeddings)
    cm_map = dio.load_embeddings(args.cm_embeddings)
    for kind, path, embeddings, dim in (("ASV", args.asv_embeddings, asv_map, params.d_a),
                                        ("CM", args.cm_embeddings, cm_map, params.d_c)):
        first = next(iter(embeddings.values()), None)
        if first is not None and first.size != dim:
            raise dio.DimensionMismatchError(f"{args.checkpoint}: {kind} dimension {dim} "
                                             f"differs from {first.size} in {path}")
    records = score_trials(params, trials, asv_map, cm_map,
                           pooling=params.pooling or args.pooling or "attention",
                           scorer=args.scorer)
    dio.save_scores(records, args.out)
    print(f"{len(records)} trials scored with {args.scorer} -> {args.out}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    records = dio.load_scores(args.scores)
    check_classes((r.label for r in records), args.scores)
    report = evaluate(records)
    print(f"{_percent(report.sv_eer)} {_percent(report.spf_eer)} {_percent(report.sasv_eer)}")
    if args.out:
        Path(args.out).write_text(_report_kv(report), encoding="utf-8")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    result = gradient_check(
        seed=args.seed, d_a=args.asv_dim, d_c=args.cm_dim, h_f=args.hidden_dim,
        speakers=args.speakers, utterances=args.utterances, pooling=args.pooling,
    )
    for name, err in result.errors.items():
        print(f"{name}\t{err:.6e}")
    if not result.passed:
        name, err = result.worst
        print(f"FAILED: {name} relative error {err:.3e} exceeds {result.tolerance:.0e}",
              file=sys.stderr)
        return EXIT_GRADCHECK
    print(f"ok: all gradients within {result.tolerance:.0e}")
    return EXIT_OK


_HANDLERS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "score": cmd_score,
    "evaluate": cmd_evaluate,
    "gradcheck": cmd_gradcheck,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return _HANDLERS[args.command](args)
    except dio.UnresolvedIdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION
    except EmptyClassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (TrainingDivergedError, PoolExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except ZeroNormError as exc:
        path = getattr(args, "asv_embeddings", None)  # only train and score have one
        print(f"error: {exc}" if path is None else f"error: {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    except (dio.DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
