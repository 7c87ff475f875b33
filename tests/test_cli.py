import json
from dataclasses import replace

import numpy as np
import pytest

from ftlwss import cli, harness
from ftlwss import tensornet as tn


@pytest.fixture()
def tiny_config_file(tmp_path):
    config = harness.ExperimentConfig(
        seed=5,
        sensing=harness.SensingConfig(n_subbands=8, n_cosets=3, n_snapshots=8),
        domains=harness.DomainsConfig(source=3, targets={"T1": 1, "T2": 2, "T3": 4, "T4": 5}),
        net=harness.NetConfig(conv1_filters=3, conv2_filters=2, hidden_units=6),
        training=harness.TrainingConfig(n_train=16, n_val=6, n_test=6, max_epochs=2,
                                        patience=2, restarts=1, restart_epochs=1),
        ftl=harness.FtlStageConfig(rounds=1, samples_per_su=6, zero_shot_domain=None),
        evaluation=harness.EvalConfig(snr_grid=(10.0,), n_test=6),
    )
    path = tmp_path / "config.json"
    path.write_text(config.to_json())
    return path


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_invalid_config_content_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"sensing": {"n_subbands": 8, "n_cosets": 8}}))
    code = cli.main(["train", "--config", str(bad), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_prune_without_source_model_is_stage_failure(tiny_config_file, tmp_path):
    code = cli.main(["prune", "--config", str(tiny_config_file), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_STAGE


def test_gen_data_writes_dataset(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out),
                     "--domain", "T2", "--count", "5", "--purpose", "test"])
    assert code == cli.EXIT_OK
    data_path = out / "dataset_T2_test.bin"
    assert data_path.exists()
    dataset = harness.load_dataset(data_path)
    assert len(dataset) == 5
    note = json.loads((out / "dataset_T2_test.bin.json").read_text())
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    assert note == {"seed": config.seed, "config_sha256": harness.config_hash(config)}


@pytest.mark.parametrize("snr_db", [0.0, -5.0, None])
def test_gen_data_at_explicit_snr_uses_that_snr_stream(tiny_config_file, tmp_path, snr_db):
    # 0 dB is a valid SNR, not "unset": it must seed from the 0 dB stream;
    # None stands for --noiseless, which draws from the noiseless stream
    out = tmp_path / "out"
    noise = ["--noiseless"] if snr_db is None else ["--snr-db", str(snr_db)]
    code = cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out),
                     "--domain", "T2", "--count", "5", "--purpose", "test", *noise])
    assert code == cli.EXIT_OK
    loaded = harness.load_dataset(out / "dataset_T2_test.bin")
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    expected = harness.build_dataset(config, "T2", "test", 5, snr_db)
    assert np.array_equal(loaded.features, expected.features)
    assert np.array_equal(loaded.labels, expected.labels)


def test_gen_data_full_scale_draws_full_size_features(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--full-scale", "--count", "1", "--out", str(out)]) == cli.EXIT_OK
    assert harness.load_dataset(out / "dataset_S_train.bin").features.shape == (1, 40, 64, 2)


@pytest.mark.parametrize("command, options", [
    ("gen-data", ["--full-scale"]),
    ("train", ["--full-scale"]),
    ("gen-data", ["--noiseless", "--snr-db", "5"]),
], ids=["gen-data-full-scale", "train-full-scale", "gen-data-noiseless-snr"])
def test_conflicting_options_are_one_config_error_line(tiny_config_file, tmp_path, capsys, command,
                                                       options):
    # the config file silently won over --full-scale, and --noiseless over the SNR
    out = tmp_path / "out"
    args = [command, "--config", str(tiny_config_file), "--out", str(out), *options]
    assert cli.main(args) == cli.EXIT_CONFIG
    assert options[0] in one_config_error_line(capsys)
    assert not out.exists()


def test_train_prune_ftl_eval_chain(tiny_config_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_source.bin").exists()
    assert cli.main(["prune", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_pruned.bin").exists()
    assert cli.main(["ftl", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_ftl.bin").exists() and (out / "model_tl.bin").exists()
    assert not (out / "model_ftl_zero_shot.bin").exists()  # no zero-shot domain configured
    assert cli.main(["eval", "--config", str(tiny_config_file), "--out", str(out),
                     "--model", str(out / "model_ftl.bin"), "--domain", "T2"]) == cli.EXIT_OK


def _with_zero_shot(config_file, tmp_path):
    config = harness.ExperimentConfig.from_json_file(config_file)
    path = tmp_path / "zero_shot.json"
    path.write_text(replace(config, ftl=replace(config.ftl, zero_shot_domain="T2")).to_json())
    return str(path)


ADAPTED = ("model_ftl.bin", "model_tl.bin", "model_ftl_zero_shot.bin")


def test_ftl_over_socket_matches_in_process(tiny_config_file, tmp_path):
    # the staged chain over either transport writes the adapted checkpoints
    # `ftlwss all` writes, byte for byte
    config = _with_zero_shot(tiny_config_file, tmp_path)
    out_all, out_a, out_b = tmp_path / "all", tmp_path / "a", tmp_path / "b"
    assert cli.main(["all", "--config", config, "--out", str(out_all)]) == cli.EXIT_OK
    assert cli.main(["train", "--config", config, "--out", str(out_a)]) == cli.EXIT_OK
    assert cli.main(["prune", "--config", config, "--out", str(out_a)]) == cli.EXIT_OK
    assert cli.main(["ftl", "--config", config, "--out", str(out_a),
                     "--transport", "inproc"]) == cli.EXIT_OK
    assert cli.main(["ftl", "--config", config, "--out", str(out_b),
                     "--model", str(out_a / "model_pruned.bin"), "--transport", "socket"]) == cli.EXIT_OK
    for name in ("model_source.bin", "model_pruned.bin", "prune_report.json") + ADAPTED:
        assert (out_a / name).read_bytes() == (out_all / name).read_bytes(), name
    for name in ADAPTED:
        assert (out_b / name).read_bytes() == (out_all / name).read_bytes(), name


def test_sweep_from_persisted_models(tiny_config_file, tmp_path):
    out = tmp_path / "out"
    config = _with_zero_shot(tiny_config_file, tmp_path)
    assert cli.main(["all", "--config", config, "--out", str(out)]) == cli.EXIT_OK
    written = {name: (out / name).read_bytes() for name in ("results.csv", "summary.json")}
    for name in written:
        (out / name).unlink()
    assert cli.main(["sweep", "--config", config, "--out", str(out)]) == cli.EXIT_OK
    for name, expected in written.items():
        assert (out / name).read_bytes() == expected, name
    text = written["results.csv"].decode()
    assert ",rt," in text and ",somp," in text and ",ftl," in text and ",ftl_zero_shot," in text


def _truncated_checkpoint(config_file, path):
    config = harness.ExperimentConfig.from_json_file(config_file)
    spec = config.detector_spec()
    data = tn.checkpoint_bytes(spec, tn.init_weights(spec, np.random.default_rng(0)))
    path.write_bytes(data[:len(data) // 2])


def _other_spec_checkpoint(config_file, path):
    # the tiny config's hidden layer is 6 wide
    spec = replace(harness.ExperimentConfig.from_json_file(config_file).detector_spec(), hidden_units=7)
    tn.save_checkpoint(path, spec, tn.init_weights(spec, np.random.default_rng(0)))


def _other_input_checkpoint(config_file, path):
    # the tiny config senses 8 snapshots
    spec = replace(harness.ExperimentConfig.from_json_file(config_file).detector_spec(), in_cols=16)
    tn.save_checkpoint(path, spec, tn.init_weights(spec, np.random.default_rng(0)))


def _assert_one_line_stage_error(capsys, stage):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: stage {stage!r} failed"), lines
    return lines[0]


@pytest.mark.parametrize("broken,command,stage", [
    *[(broken, command, command) for broken in ("missing", "truncated") for command in ("eval", "prune", "ftl")],
    # `ftlwss eval` scores a checkpoint under its own spec; the stages need the config's
    ("other-spec", "prune", "prune"),
    ("other-spec", "ftl", "ftl"),
    # ... but that spec must take the input the config senses
    ("other-input", "eval", "eval"),
])
def test_bad_input_checkpoint_is_stage_failure(tiny_config_file, tmp_path, capsys, command, stage, broken):
    model = tmp_path / "model.bin"
    if broken == "truncated":
        _truncated_checkpoint(tiny_config_file, model)
    elif broken == "other-spec":
        _other_spec_checkpoint(tiny_config_file, model)
    elif broken == "other-input":
        _other_input_checkpoint(tiny_config_file, model)
    argv = [command, "--config", str(tiny_config_file), "--out", str(tmp_path / "out"),
            "--model", str(model)]
    if command == "eval":
        argv += ["--domain", "T2"]
    assert cli.main(argv) == cli.EXIT_STAGE
    line = _assert_one_line_stage_error(capsys, stage)
    if broken == "other-spec":
        assert str(model) in line and "hidden_units=7" in line and "hidden_units=6" in line
    if broken == "other-input":
        assert str(model) in line and "(8, 16)" in line and "(8, 8)" in line


def test_sweep_with_truncated_checkpoint_is_stage_failure(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    _truncated_checkpoint(tiny_config_file, out / "model_rt_T3.bin")
    assert cli.main(["sweep", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_STAGE
    _assert_one_line_stage_error(capsys, "eval")
    assert not (out / "results.csv").exists()


def test_sweep_with_checkpoint_of_another_spec_is_stage_failure(tiny_config_file, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    _other_spec_checkpoint(tiny_config_file, out / "model_rt_T1.bin")
    assert cli.main(["sweep", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_STAGE
    assert "model_rt_T1.bin" in _assert_one_line_stage_error(capsys, "eval")
    assert not (out / "results.csv").exists()


def test_eval_scores_a_checkpoint_of_another_spec(tiny_config_file, tmp_path, capsys):
    model = tmp_path / "model.bin"
    _other_spec_checkpoint(tiny_config_file, model)
    assert cli.main(["eval", "--config", str(tiny_config_file), "--out", str(tmp_path / "out"),
                     "--model", str(model), "--domain", "T2"]) == cli.EXIT_OK
    assert "p_acc=" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["gen-data"], ["train"], ["prune"], ["ftl"], ["sweep"], ["all"]],
                         ids=lambda command: command[0])
def test_out_that_cannot_be_created_is_one_error_line(tiny_config_file, tmp_path, capsys, command):
    (tmp_path / "notadir").write_text("")
    out = tmp_path / "notadir" / "x"
    assert cli.main([*command, "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_STAGE
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot create --out {out}"), lines


def test_eval_writes_nothing_to_out(tiny_config_file, tmp_path, capsys):
    # the one subcommand that ignores --out: an uncreatable one does not fail it
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    model = tmp_path / "model.bin"
    tn.save_checkpoint(model, config.detector_spec(),
                       tn.init_weights(config.detector_spec(), np.random.default_rng(0)))
    (tmp_path / "notadir").write_text("")
    assert cli.main(["eval", "--config", str(tiny_config_file), "--out", str(tmp_path / "notadir" / "x"),
                     "--model", str(model), "--domain", "T2"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


# the detector's sizes, widths and rates, set in the tiny config: each failed
# to build the detector, with a message prefixed "config:" that named neither
# the section nor, for the sizes, the key
DETECTOR_SETTINGS = [
    ("sensing", "n_subbands", 4),
    ("sensing", "n_snapshots", 3),
    ("net", "conv2_filters", 0),
    ("net", "hidden_units", 0),
    ("net", "dropout_conv", 1.0),
    ("net", "dropout_fc", -0.1),
]


@pytest.mark.parametrize("section, key, value", [
    ("training", "restart_epochs", 0),
    ("training", "n_train", 0),
    ("training", "n_test", 0),
    ("training", "batch_size", 0),
    ("evaluation", "n_test", 0),
    ("prune", "ratio", 1.5),
    ("prune", "finetune_batch_size", 0),
    ("ftl", "rounds", 0),
    ("ftl", "samples_per_su", 0),
    ("ftl", "lr", -1),
    ("sensing", "coset_offsets", [0, 1, 99]),
    ("domains", "targets", {"S": 2, "T1": 3}),
    ("domains", "targets", {}),
    ("net", "dropout_fc", 1.0),
    ("evaluation", "snr_grid", []),
    ("evaluation", "table_snr_db", 7.5),
    # an integer setting takes an int that is not a bool, a float one a
    # real number that is not a bool
    ("training", "n_train", 16.5),
    ("training", "n_train", True),
    ("training", "batch_size", 2.5),
    ("training", "max_epochs", 1.5),
    ("sensing", "n_snapshots", 8.0),
    ("net", "hidden_units", 6.5),
    ("prune", "finetune_epochs", 1.5),
    ("ftl", "rounds", 1.5),
    ("ftl", "samples_per_su", True),
    ("domains", "targets", {"T1": 1.5, "T2": 2, "T3": 4, "T4": 5}),
    ("evaluation", "n_test", 6.0),
    ("training", "snr_db", True),
    # a real-valued setting takes a finite number
    ("training", "lr", float("nan")),
    ("ftl", "lr", float("inf")),
    ("evaluation", "snr_grid", [float("nan"), 10.0]),
    # a target name becomes part of file names and a CSV cell
    ("domains", "targets", {"T,1": 1, "T2": 2, "T3": 4, "T4": 5}),
    ("domains", "targets", {"T/1": 1, "T2": 2, "T3": 4, "T4": 5}),
    ("domains", "targets", {"": 1, "T2": 2, "T3": 4, "T4": 5}),
    # each loaded silently, and a coset count below 1 failed the train stage
    ("sensing", "n_cosets", 0),
    ("sensing", "n_cosets", -1),
    ("training", "max_epochs", -1),
    ("training", "max_epochs", 0),
    ("training", "patience", -1),
    *DETECTOR_SETTINGS,
])
def test_zero_restart_epochs_is_config_error(tiny_config_file, tmp_path, capsys, section, key, value):
    # every bad setting of the table, not only a zero restart_epochs, is
    # rejected when the config loads, before the train stage writes anything
    data = json.loads(tiny_config_file.read_text())
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["all", "--config", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def one_config_error_line(capsys) -> str:
    """The one line a configuration error writes to stderr, which holds no
    traceback."""
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), err
    return lines[0]


@pytest.mark.parametrize("section, key, value", DETECTOR_SETTINGS)
def test_detector_setting_error_names_section_and_key(tiny_config_file, tmp_path, capsys, section,
                                                      key, value):
    data = json.loads(tiny_config_file.read_text())
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    assert one_config_error_line(capsys).startswith(f"config error: {section}: {key} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "eval"])
@pytest.mark.parametrize("option, value, named", [
    ("--snr-db", "inf", "snr_db"),
    ("--snr-db", "-inf", "snr_db"),
    ("--snr-db", "nan", "snr_db"),
    ("--domain", "X", "unknown domain 'X'"),
])
def test_bad_snr_or_domain_is_one_config_error_line(tiny_config_file, tmp_path, capsys, command,
                                                    option, value, named):
    # an infinite SNR overflowed the stream key with a traceback, a NaN one
    # and an unknown domain were reported in words that named neither; and
    # gen-data created --out before it found them
    args = [command, "--config", str(tiny_config_file), "--out", str(tmp_path / "out")]
    if command == "eval":
        config = harness.ExperimentConfig.from_json_file(tiny_config_file)
        model = tmp_path / "model.bin"
        tn.save_checkpoint(model, config.detector_spec(),
                           tn.init_weights(config.detector_spec(), np.random.default_rng(0)))
        args += ["--model", str(model)] + (["--domain", "T2"] if option != "--domain" else [])
    assert cli.main([*args, f"{option}={value}"]) == cli.EXIT_CONFIG
    assert named in one_config_error_line(capsys)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["prune"], ["ftl"], ["eval", "--domain", "T1", "--model", "m.bin"],
                                     ["sweep"]], ids=lambda command: command[0])
@pytest.mark.parametrize("section, key, value", [
    ("net", "dropout_fc", 1.0),
    ("net", "conv1_filters", 0),
    ("evaluation", "snr_grid", []),
    ("evaluation", "table_snr_db", 7.5),
])
def test_every_subcommand_rejects_a_bad_net_or_grid(tiny_config_file, tmp_path, capsys, command,
                                                    section, key, value):
    # the config load checks the net section and the grid, so a subcommand
    # that would not use them rejects them too, before it reads a checkpoint
    data = json.loads(tiny_config_file.read_text())
    data[section][key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(bad), "--out", str(out)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_bad_count_is_a_config_error_before_out_is_created(tiny_config_file, tmp_path, capsys,
                                                           count):
    out = tmp_path / "out"
    assert cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out),
                     "--count", count]) == cli.EXIT_CONFIG
    assert one_config_error_line(capsys) == "config error: count must be >= 1"
    assert not out.exists()


def test_seed_override_changes_artifacts(tiny_config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out_a),
                     "--domain", "T1", "--count", "4"]) == cli.EXIT_OK
    assert cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out_b),
                     "--domain", "T1", "--count", "4", "--seed", "99"]) == cli.EXIT_OK
    a = harness.load_dataset(out_a / "dataset_T1_train.bin")
    b = harness.load_dataset(out_b / "dataset_T1_train.bin")
    assert not np.array_equal(a.features, b.features)


def test_prune_command_writes_the_pipeline_prune_report(tiny_config_file, tmp_path):
    # `ftlwss prune` runs the pipeline's prune stage: on the same source
    # model it writes the same report, accuracies included, and checkpoint
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    pipeline_out, cli_out = tmp_path / "pipeline", tmp_path / "cli"
    harness.run_pipeline(replace(config, stages=("train", "prune")), pipeline_out)
    assert cli.main(["prune", "--config", str(tiny_config_file), "--out", str(cli_out),
                     "--model", str(pipeline_out / "model_source.bin")]) == cli.EXIT_OK
    report = (cli_out / "prune_report.json").read_bytes()
    assert report == (pipeline_out / "prune_report.json").read_bytes()
    assert {"p_acc_source_unpruned", "p_acc_source_pruned_finetuned"} <= set(json.loads(report))
    assert (cli_out / "model_pruned.bin").read_bytes() == (pipeline_out / "model_pruned.bin").read_bytes()
