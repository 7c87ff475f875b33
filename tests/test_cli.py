import json

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
    sidecar = json.loads((out / "dataset_T2_test.bin.json").read_text())
    assert sidecar["count"] == 5


@pytest.mark.parametrize("snr_db", [0.0, -5.0])
def test_gen_data_at_explicit_snr_uses_that_snr_stream(tiny_config_file, tmp_path, snr_db):
    # 0 dB is a valid SNR, not "unset": it must seed from the 0 dB stream
    out = tmp_path / "out"
    code = cli.main(["gen-data", "--config", str(tiny_config_file), "--out", str(out),
                     "--domain", "T2", "--count", "5", "--purpose", "test",
                     "--snr-db", str(snr_db)])
    assert code == cli.EXIT_OK
    loaded = harness.load_dataset(out / "dataset_T2_test.bin")
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    expected = harness.build_dataset(config, "T2", 5,
                                     harness.dataset_rng(config, "T2", "test", snr_db),
                                     snr_db=snr_db)
    assert np.array_equal(loaded.features, expected.features)
    assert np.array_equal(loaded.labels, expected.labels)


def test_train_prune_ftl_eval_chain(tiny_config_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_source.bin").exists()
    assert cli.main(["prune", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_pruned.bin").exists()
    assert cli.main(["ftl", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert (out / "model_ftl.bin").exists()
    assert cli.main(["eval", "--config", str(tiny_config_file), "--out", str(out),
                     "--model", str(out / "model_ftl.bin"), "--domain", "T2"]) == cli.EXIT_OK


def test_ftl_over_socket_matches_in_process(tiny_config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert cli.main(["train", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
        assert cli.main(["prune", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    assert cli.main(["ftl", "--config", str(tiny_config_file), "--out", str(out_a),
                     "--transport", "inproc"]) == cli.EXIT_OK
    assert cli.main(["ftl", "--config", str(tiny_config_file), "--out", str(out_b),
                     "--transport", "socket"]) == cli.EXIT_OK
    _, wa = tn.load_checkpoint(out_a / "model_ftl.bin")
    _, wb = tn.load_checkpoint(out_b / "model_ftl.bin")
    for name in tn.PARAM_NAMES:
        assert np.array_equal(getattr(wa, name), getattr(wb, name))


def test_sweep_from_persisted_models(tiny_config_file, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    (out / "results.csv").unlink()
    assert cli.main(["sweep", "--config", str(tiny_config_file), "--out", str(out)]) == cli.EXIT_OK
    text = (out / "results.csv").read_text()
    assert text.startswith("domain,scheme,snr_db,p_acc,n_test")
    assert ",rt," in text and ",somp," in text and ",ftl," in text


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
    from dataclasses import replace
    config = harness.ExperimentConfig.from_json_file(tiny_config_file)
    pipeline_out, cli_out = tmp_path / "pipeline", tmp_path / "cli"
    harness.run_pipeline(replace(config, stages=("train", "prune")), pipeline_out)
    assert cli.main(["prune", "--config", str(tiny_config_file), "--out", str(cli_out),
                     "--model", str(pipeline_out / "model_source.bin")]) == cli.EXIT_OK
    report = (cli_out / "prune_report.json").read_bytes()
    assert report == (pipeline_out / "prune_report.json").read_bytes()
    assert {"p_acc_source_unpruned", "p_acc_source_pruned_finetuned"} <= set(json.loads(report))
    assert (cli_out / "model_pruned.bin").read_bytes() == (pipeline_out / "model_pruned.bin").read_bytes()
