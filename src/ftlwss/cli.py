"""Command-line interface.

Subcommands mirror the pipeline stages: gen-data, train, prune, ftl, eval,
sweep, and all; train, prune, ftl and sweep call the harness stage
functions, which read their input checkpoints from --out (or --model) and
write their outputs there. Each takes --config (JSON; the built-in
desk-scale preset when omitted) or --full-scale (the full-size preset),
--seed (overrides the config seed) and --out (artifact directory). Exit
codes: 0 success, 1 configuration error, 2 stage failure, a missing,
malformed or other-spec input checkpoint (for eval, of another input shape)
and an --out that cannot be created included.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import harness, tensornet
from .codec import DecodeError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is not None and args.full_scale:
        raise ValueError("--config and --full-scale each select the config; give one")
    if args.config is not None:
        config = harness.ExperimentConfig.from_json_file(args.config)
    elif args.full_scale:
        config = harness.full_scale()
    else:
        config = harness.scaled_default()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _create_out(out: Path) -> bool:
    """Create --out; when it cannot be, print one error line and say so."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create --out {out}: {exc}", file=sys.stderr)
        return False
    return True


def _add_command(sub, name: str, help: str) -> argparse.ArgumentParser:
    """A subcommand parser with the options every subcommand takes."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config JSON (defaults to the scaled preset)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    parser.add_argument("--full-scale", action="store_true",
                        help="use the full-size preset in place of --config")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftlwss",
        description="Federated sub-Nyquist wideband spectrum sensing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _add_command(sub, "gen-data", "generate and persist one labelled dataset")
    p.add_argument("--domain", default="S", help="domain name: S or a target (default S)")
    p.add_argument("--count", type=int, default=None, help="sample count (default: training size)")
    p.add_argument("--snr-db", type=float, default=None, help="SNR override in dB")
    p.add_argument("--purpose", default="train", choices=sorted(harness._PURPOSE_TAGS),
                   help="which seeded stream to draw from")
    p.add_argument("--noiseless", action="store_true", help="draw no noise (takes no --snr-db)")

    _add_command(sub, "train", "offline training on the source domain")
    p = _add_command(sub, "prune", "magnitude-prune and fine-tune the source model")
    p.add_argument("--model", type=Path, default=None,
                   help="source checkpoint (default <out>/model_source.bin)")

    p = _add_command(sub, "ftl", "federated adaptation across the target SUs")
    p.add_argument("--model", type=Path, default=None,
                   help="pruned checkpoint (default <out>/model_pruned.bin)")
    p.add_argument("--transport", choices=sorted(harness._TRANSPORTS), default="inproc",
                   help="in-process simulation or local socket demo")

    p = _add_command(sub, "eval", "score one model checkpoint on one domain")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--snr-db", type=float, default=None)

    _add_command(sub, "sweep", "evaluate persisted models over the SNR grid")
    _add_command(sub, "all", "run the full pipeline")
    return parser


def _cmd_gen_data(args, config: harness.ExperimentConfig) -> int:
    if args.noiseless and args.snr_db is not None:
        raise ValueError("--noiseless draws no noise, so it takes no --snr-db")
    count = args.count if args.count is not None else config.training.n_train
    snr_db = config.training.snr_db if args.snr_db is None else args.snr_db
    dataset = harness.build_dataset(config, args.domain, args.purpose, count,
                                    None if args.noiseless else snr_db)
    # created only now, so a bad count, SNR or domain leaves no --out behind
    if not _create_out(args.out):
        return EXIT_STAGE
    path = args.out / f"dataset_{args.domain}_{args.purpose}.bin"
    harness.save_dataset(dataset, path, seed=config.seed,
                         config_sha256=harness.config_hash(config))
    print(f"wrote {len(dataset)} samples to {path}")
    return EXIT_OK


def _cmd_train(args, config: harness.ExperimentConfig) -> int:
    harness.run_pipeline(replace(config, stages=("train",)), args.out, progress=print)
    return EXIT_OK


def _cmd_prune(args, config: harness.ExperimentConfig) -> int:
    harness.prune_stage(config, args.out, args.model or args.out / "model_source.bin", log=print)
    return EXIT_OK


def _cmd_ftl(args, config: harness.ExperimentConfig) -> int:
    harness.ftl_stage(config, args.out, args.model or args.out / "model_pruned.bin", args.transport,
                      log=print)
    return EXIT_OK


def _cmd_eval(args, config: harness.ExperimentConfig) -> int:
    # scored under the checkpoint's own spec, which must take the input the
    # config senses; its other sizes may differ from what the config builds
    try:
        spec, weights = tensornet.load_checkpoint(args.model)
    except (OSError, DecodeError) as exc:
        raise harness.StageError("eval", exc) from exc
    sensed = (config.sensing.n_subbands, config.sensing.n_snapshots)
    if (spec.in_rows, spec.in_cols) != sensed:
        raise harness.StageError("eval", ValueError(
            f"{args.model} takes inputs of shape ({spec.in_rows}, {spec.in_cols}), the config senses {sensed}"))
    snr_db = args.snr_db if args.snr_db is not None else config.evaluation.table_snr_db
    test = harness.build_dataset(config, args.domain, "test", config.evaluation.n_test, snr_db)
    p_acc = harness.detector_accuracy(spec, weights, test, config.evaluation.threshold)
    print(f"domain={args.domain} snr_db={snr_db:g} p_acc={p_acc:.6f} n_test={len(test)}")
    return EXIT_OK


def _cmd_sweep(args, config: harness.ExperimentConfig) -> int:
    harness.eval_stage(config, args.out, log=print)
    return EXIT_OK


def _cmd_all(args, config: harness.ExperimentConfig) -> int:
    harness.run_pipeline(config, args.out, progress=print)
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "prune": _cmd_prune,
    "ftl": _cmd_ftl,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "all": _cmd_all,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # eval writes nothing to --out, and gen-data creates it once its data is drawn
    if args.command not in ("eval", "gen-data") and not _create_out(args.out):
        return EXIT_STAGE
    try:
        return _COMMANDS[args.command](args, config)
    except harness.StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
