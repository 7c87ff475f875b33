"""Command-line interface.

Subcommands mirror the pipeline stages: gen-data, train, prune, ftl, eval,
sweep, and all. Each takes --config (JSON; the built-in desk-scale preset
when omitted), --seed (overrides the config seed) and --out (artifact
directory). Exit codes: 0 success, 1 configuration error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import federation, harness, pruning, tensornet

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_STAGE = 2


def _load_config(args) -> harness.ExperimentConfig:
    if args.config is not None:
        config = harness.ExperimentConfig.from_json_file(args.config)
    elif getattr(args, "full_scale", False):
        config = harness.full_scale()
    else:
        config = harness.scaled_default()
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="experiment config JSON (defaults to the scaled preset)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=Path, default=Path("out"), help="artifact directory")
    parser.add_argument("--full-scale", action="store_true",
                        help="use the full-size preset when no --config is given")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftlwss",
        description="Federated sub-Nyquist wideband spectrum sensing simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate and persist one labelled dataset")
    _add_common(p)
    p.add_argument("--domain", default="S", help="domain name: S or a target (default S)")
    p.add_argument("--count", type=int, default=None, help="sample count (default: training size)")
    p.add_argument("--snr-db", type=float, default=None, help="SNR override in dB")
    p.add_argument("--purpose", default="train", choices=sorted(harness._PURPOSE_TAGS),
                   help="which seeded stream to draw from")
    p.add_argument("--noiseless", action="store_true")

    p = sub.add_parser("train", help="offline training on the source domain")
    _add_common(p)

    p = sub.add_parser("prune", help="magnitude-prune and fine-tune the source model")
    _add_common(p)
    p.add_argument("--model", type=Path, default=None,
                   help="source checkpoint (default <out>/model_source.bin)")

    p = sub.add_parser("ftl", help="federated adaptation across the target SUs")
    _add_common(p)
    p.add_argument("--model", type=Path, default=None,
                   help="pruned checkpoint (default <out>/model_pruned.bin)")
    p.add_argument("--transport", choices=("inproc", "socket"), default="inproc",
                   help="in-process simulation or local socket demo")

    p = sub.add_parser("eval", help="score one model checkpoint on one domain")
    _add_common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--domain", required=True)
    p.add_argument("--snr-db", type=float, default=None)

    p = sub.add_parser("sweep", help="evaluate persisted models over the SNR grid")
    _add_common(p)

    p = sub.add_parser("all", help="run the full pipeline")
    _add_common(p)

    return parser


def _cmd_gen_data(args, config: harness.ExperimentConfig) -> int:
    count = args.count if args.count is not None else config.training.n_train
    snr_db = config.training.snr_db if args.snr_db is None else args.snr_db
    rng = harness.dataset_rng(config, args.domain, args.purpose, None if args.noiseless else snr_db)
    dataset = harness.build_dataset(config, args.domain, count, rng,
                                    snr_db=snr_db, noiseless=args.noiseless)
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"dataset_{args.domain}_{args.purpose}.bin"
    harness.save_dataset(dataset, path, seed=config.seed,
                         config_sha256=harness.config_hash(config))
    print(f"wrote {len(dataset)} samples to {path}")
    return EXIT_OK


def _cmd_train(args, config: harness.ExperimentConfig) -> int:
    config = replace(config, stages=("train",))
    harness.run_pipeline(config, args.out, progress=print)
    return EXIT_OK


def _cmd_prune(args, config: harness.ExperimentConfig) -> int:
    model_path = args.model or (args.out / "model_source.bin")
    if not Path(model_path).exists():
        print(f"missing source checkpoint {model_path}; run `ftlwss train` first", file=sys.stderr)
        return EXIT_STAGE
    # reuse the pipeline stage against the persisted source model
    spec, weights = tensornet.load_checkpoint(model_path)
    try:
        pruned, report = pruning.prune_model(weights, config.prune.ratio)
        tr, va = harness._domain_datasets(config, "S")
        hyper = tensornet.TrainConfig(
            lr=config.prune.finetune_lr, batch_size=config.prune.finetune_batch_size,
            max_epochs=config.prune.finetune_epochs,
        )
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, harness._STAGE_FINETUNE)))
        tuned = pruning.fine_tune(spec, pruned, tr.features, tr.labels,
                                  va.features, va.labels, hyper, rng)
        args.out.mkdir(parents=True, exist_ok=True)
        tensornet.save_checkpoint(args.out / "model_pruned.bin", spec, tuned.weights)
        (args.out / "prune_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
        print(f"pruned {report.zeroed_count}/{report.total_count} weights "
              f"(threshold {report.threshold:.6g}); wrote {args.out / 'model_pruned.bin'}")
        return EXIT_OK
    except Exception as exc:
        raise harness.StageError("prune", exc) from exc


def _cmd_ftl(args, config: harness.ExperimentConfig) -> int:
    model_path = args.model or (args.out / "model_pruned.bin")
    if not Path(model_path).exists():
        print(f"missing pruned checkpoint {model_path}; run `ftlwss prune` first", file=sys.stderr)
        return EXIT_STAGE
    spec, weights = tensornet.load_checkpoint(model_path)
    targets = config.domains.target_names()
    try:
        if args.transport == "inproc":
            adapted = harness.run_adaptation(config, weights, targets)
        else:
            adapted = _ftl_over_socket(config, spec, weights, targets)
        args.out.mkdir(parents=True, exist_ok=True)
        tensornet.save_checkpoint(args.out / "model_ftl.bin", spec, adapted)
        print(f"adapted over {len(targets)} SUs for {config.ftl.rounds} rounds; "
              f"wrote {args.out / 'model_ftl.bin'}")
        return EXIT_OK
    except Exception as exc:
        raise harness.StageError("ftl", exc) from exc


def _ftl_over_socket(config, spec, weights, targets):
    import threading

    sus = harness.adaptation_sets(config, targets)
    cfg = harness._ftl_config(config, len(sus))
    server = federation.SocketServerTransport(
        n_sus=len(sus), timeout_s=cfg.timeout_s, max_retries=cfg.max_retries)
    workers = [
        threading.Thread(
            target=federation.run_su_client,
            args=(server.address, su.su_id, su.features, su.labels, cfg, config.seed),
            daemon=True,
        )
        for su in sus
    ]
    for worker in workers:
        worker.start()
    try:
        return federation.run_ftl(spec, weights, cfg, server)
    finally:
        server.close()
        for worker in workers:
            worker.join(timeout=10)


def _cmd_eval(args, config: harness.ExperimentConfig) -> int:
    spec, weights = tensornet.load_checkpoint(args.model)
    snr_db = args.snr_db if args.snr_db is not None else config.evaluation.table_snr_db
    test = harness.build_dataset(
        config, args.domain, config.evaluation.n_test,
        harness.dataset_rng(config, args.domain, "test", snr_db), snr_db=snr_db)
    preds = harness.predict_occupancy(spec, weights, test.features, config.evaluation.threshold)
    p_acc = harness.prediction_accuracy(preds, test.labels)
    print(f"domain={args.domain} snr_db={snr_db:g} p_acc={p_acc:.6f} n_test={len(test)}")
    return EXIT_OK


def _cmd_sweep(args, config: harness.ExperimentConfig) -> int:
    result = harness.PipelineResult(config=config, spec=config.detector_spec())
    loaded = []
    for attr, name in (("ftl_model", "model_ftl.bin"), ("tl_model", "model_tl.bin"),
                       ("zero_shot_model", "model_ftl_zero_shot.bin")):
        path = args.out / name
        if path.exists():
            _, weights = tensornet.load_checkpoint(path)
            setattr(result, attr, weights)
            loaded.append(name)
    for domain in config.domains.target_names():
        path = args.out / f"model_rt_{domain}.bin"
        if path.exists():
            _, weights = tensornet.load_checkpoint(path)
            result.rt_models[domain] = weights
            loaded.append(path.name)
    print(f"sweeping with checkpoints: {loaded or 'none (SOMP only)'}")
    try:
        rows = harness.evaluate_schemes(config, result, log=print)
        harness.emit_results(rows, args.out / "results.csv", args.out / "summary.json",
                             table_snr_db=config.evaluation.table_snr_db)
    except Exception as exc:
        raise harness.StageError("eval", exc) from exc
    print(f"wrote {args.out / 'results.csv'}")
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
