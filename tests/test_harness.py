import json
import math
import os
import re
import struct
import sys
import threading
import time
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from ftlwss import baselines, harness, multicoset, pruning, rules, signal_model
from ftlwss import tensornet as tn
from ftlwss.codec import DecodeError, encode_tensor


def tiny_config(**overrides):
    """A configuration small enough for per-test dataset builds."""
    base = harness.ExperimentConfig(
        seed=7,
        sensing=harness.SensingConfig(n_subbands=8, n_cosets=3, n_snapshots=8),
        domains=harness.DomainsConfig(source=3, targets={"T1": 1, "T2": 2, "T3": 4, "T4": 5}),
        net=harness.NetConfig(conv1_filters=4, conv2_filters=3, hidden_units=8),
        training=harness.TrainingConfig(n_train=24, n_val=8, n_test=8, max_epochs=2,
                                        patience=2, restarts=1, restart_epochs=1),
        ftl=harness.FtlStageConfig(rounds=2, samples_per_su=8, zero_shot_domain="T2"),
        evaluation=harness.EvalConfig(snr_grid=(10.0,), n_test=8),
    )
    from dataclasses import replace
    return replace(base, **overrides) if overrides else base


# the detector's sizes, widths and rates: each failed to build the detector,
# with a message prefixed "config:" that named neither the section nor, for
# the sizes, the key
DETECTOR_SETTINGS = [
    ("sensing", "n_subbands", 4),
    ("sensing", "n_snapshots", 3),
    ("net", "conv2_filters", 0),
    ("net", "hidden_units", 0),
    ("net", "dropout_conv", 1.0),
    ("net", "dropout_fc", -0.1),
]

BAD_STAGE_SETTINGS = [
    ("training", "restart_epochs", 0),
    ("training", "n_train", 0),
    ("training", "n_val", 0),
    ("training", "n_test", 0),
    ("training", "batch_size", 0),
    ("training", "lr", -0.1),
    ("evaluation", "n_test", 0),
    ("prune", "ratio", 1.5),
    ("prune", "ratio", 0.0),
    ("prune", "finetune_lr", -1),
    ("prune", "finetune_batch_size", 0),
    ("ftl", "rounds", 0),
    ("ftl", "local_epochs", 0),
    ("ftl", "batch_size", 0),
    ("ftl", "samples_per_su", 0),
    ("ftl", "lr", -1),
    ("ftl", "timeout_s", 0),
    ("ftl", "timeout_s", -1.0),
    ("ftl", "max_retries", -1),
    # the default sensing section has 6 cosets over 16 sub-bands
    ("sensing", "coset_offsets", [0, 0, 1, 2, 3, 4]),
    ("sensing", "coset_offsets", [0, 1, 2, 3, 4, 99]),
    ("sensing", "coset_offsets", [0, 3]),
    ("sensing", "coset_offsets", list(range(16))),
    ("sensing", "bandwidth_hz", 0),
    # a target named S would train on the source stream
    ("domains", "targets", {"S": 2, "T1": 3}),
    ("domains", "targets", {}),
    # the default zero_shot_domain, T2, as the only target
    ("domains", "targets", {"T2": 4}),
    ("net", "dropout_fc", 1.0),
    ("net", "conv1_filters", 0),
    ("evaluation", "snr_grid", []),
    ("evaluation", "table_snr_db", 7.5),
    ("training", "lr_decay_stall", 0),
    ("training", "lr_decay_factor", -1),
    ("sensing", "pu_energy", 0),
    ("prune", "finetune_epochs", -2),
    ("training", "restarts", 0),
    ("evaluation", "snr_grid", [10.0, 10.0]),
    ("sensing", "n_cosets", 0),
    ("sensing", "n_cosets", -1),
    ("training", "max_epochs", -1),
    # a 0-epoch probe has no validation loss
    ("training", "max_epochs", 0),
    ("training", "patience", -1),
    # a list or object setting of another kind raised TypeError, naming neither
    ("evaluation", "snr_grid", 5),
    ("domains", "targets", 5),
    *DETECTOR_SETTINGS,
    # an occupancy count beyond the sensing section's sub-bands; the message
    # named neither the key nor the bound
    ("domains", "targets", {"T1": 2, "T2": 4, "T3": 6, "T4": 17}),
    ("domains", "targets", {"T1": 2, "T2": 4, "T3": 6, "T4": -1}),
    ("domains", "source", 17),
]

_DEFAULT = harness.ExperimentConfig()
# each config class by its section; the top-level fields sit in "config"
SECTIONS = {"config": harness.ExperimentConfig} | {
    f.name: type(getattr(_DEFAULT, f.name))
    for f in fields(_DEFAULT) if is_dataclass(getattr(_DEFAULT, f.name))}
BOUNDED_FIELDS = [(section, cls, f) for section, cls in SECTIONS.items()
                  for f in fields(cls) if f.metadata]
# what a field's closed bound needs beside it to meet the rules spanning fields
LOADS_WITH = {("sensing", "n_subbands"): {"n_cosets": 4}}  # n_cosets < n_subbands


class TestConfig:
    def test_json_round_trip(self):
        for cfg in (harness.scaled_default(), harness.full_scale()):
            again = harness.ExperimentConfig.from_dict(json.loads(cfg.to_json()))
            assert again == cfg

    def test_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict({"sensing": {"warp_factor": 9}})
        with pytest.raises(ValueError):
            harness.ExperimentConfig.from_dict({"bogus_section": {}})

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="expected an object"):
            harness.ExperimentConfig.from_dict(["sensing"])
        with pytest.raises(ValueError, match="expected an object"):
            harness.ExperimentConfig.from_dict({"training": 3})

    # every bad setting of the table, not only a zero restart_epochs (a probe
    # with no validation loss), is rejected at load; each would otherwise fail
    # its stage after the earlier stages trained, or load silently
    @pytest.mark.parametrize("section, key, value", BAD_STAGE_SETTINGS)
    def test_rejects_zero_restart_epochs(self, section, key, value):
        with pytest.raises(ValueError, match=key):
            harness.ExperimentConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("section, key, value", DETECTOR_SETTINGS)
    def test_detector_settings_name_their_section_and_key(self, section, key, value):
        with pytest.raises(ValueError, match=f"^{section}: {key} must be "):
            harness.ExperimentConfig.from_dict({section: {key: value}})

    @pytest.mark.parametrize("section, cls, f", BOUNDED_FIELDS,
                             ids=[f"{section}.{f.name}" for section, _, f in BOUNDED_FIELDS])
    def test_every_declared_bound_holds_from_json(self, section, cls, f):
        bound = f.metadata
        if "ge" in bound:
            # the closed bound itself loads, in its own section
            lo = bound["ge"]
            harness._from_dict(cls, {f.name: lo, **LOADS_WITH.get((section, f.name), {})}, section)
            outside = [lo - 1 if f.type == "int" else math.nextafter(lo, -math.inf)]
        else:
            outside = [bound["gt"]]
        outside += [bound["lt"]] if "lt" in bound else []
        message = re.escape(f"{section}: {f.name} must be {rules._bound_text(bound)}, got ")
        for value in outside:
            data = {f.name: value} if section == "config" else {section: {f.name: value}}
            with pytest.raises(ValueError, match=message):
                harness.ExperimentConfig.from_dict(data)

    def test_readme_tables_every_declared_bound(self):
        rows = [f"| `{f.name if section == 'config' else f'{section}.{f.name}'}` | "
                f"`{rules._bound_text(f.metadata)}` |" for section, _, f in BOUNDED_FIELDS]
        table = "\n".join(["| setting | bound |", "|---|---|", *rows])
        assert table in (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    @pytest.mark.parametrize("seed", [1.5, True, "7"])
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            harness.ExperimentConfig.from_dict({"seed": seed})

    def test_float_settings_take_integers(self):
        cfg = harness.ExperimentConfig.from_dict({"training": {"snr_db": 10, "lr": 1},
                                                  "evaluation": {"snr_grid": [0, 10]}})
        assert cfg.training.snr_db == 10 and cfg.evaluation.snr_grid == (0, 10)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("make", [
        lambda bad: harness.TrainingConfig(lr=bad),
        lambda bad: harness.TrainingConfig(snr_db=bad),
        lambda bad: harness.EvalConfig(snr_grid=(bad, 10.0)),
        lambda bad: harness.EvalConfig(table_snr_db=bad, snr_grid=(bad, 10.0)),
        lambda bad: harness.SensingConfig(pu_energy=bad),
        lambda bad: harness.NetConfig(dropout_fc=bad),
        lambda bad: harness.PruneStageConfig(finetune_lr=bad),
        lambda bad: harness.FtlStageConfig(timeout_s=bad),
        lambda bad: replace(harness.full_scale().training, restart_margin=bad),
    ], ids=["training-lr", "training-snr_db", "eval-snr_grid", "eval-table_snr_db",
            "sensing-pu_energy", "net-dropout_fc", "prune-finetune_lr", "ftl-timeout_s",
            "replace-restart_margin"])
    def test_python_callers_meet_the_finite_number_rule(self, make, bad):
        # the rule JSON configs meet holds for configs built in Python too
        with pytest.raises(ValueError, match="no bool, nan or infinity"):
            make(bad)

    @pytest.mark.parametrize("make", [
        lambda: harness.TrainingConfig(n_train=2000.0),
        lambda: harness.FtlStageConfig(rounds=True),
        lambda: harness.ExperimentConfig(seed=7.0),
    ], ids=["training-n_train", "ftl-rounds", "seed"])
    def test_python_callers_meet_the_integer_rule(self, make):
        with pytest.raises(ValueError, match=r"must be int \(no bool, nan or infinity\)"):
            make()

    def test_rejects_unknown_stage(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(stages=("train", "deploy"))

    def test_rejects_sub_nyquist_violation(self):
        with pytest.raises(ValueError):
            harness.SensingConfig(n_subbands=8, n_cosets=8)

    def test_rejects_occupancy_out_of_range(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(
                sensing=harness.SensingConfig(n_subbands=8, n_cosets=3),
                domains=harness.DomainsConfig(source=3, targets={"T1": 9}))

    def test_rejects_bad_zero_shot_domain(self):
        with pytest.raises(ValueError):
            harness.ExperimentConfig(ftl=harness.FtlStageConfig(zero_shot_domain="T9"))

    def test_threshold_in_open_interval(self):
        with pytest.raises(ValueError):
            harness.EvalConfig(threshold=1.0)

    def test_domain_lookup(self):
        cfg = harness.scaled_default()
        assert cfg.domains.n_active("S") == 7
        assert cfg.domains.n_active("T4") == 9
        with pytest.raises(ValueError):
            cfg.domains.n_active("T7")

    def test_full_scale_values(self):
        cfg = harness.full_scale()
        assert cfg.sensing.n_subbands == 40
        assert cfg.sensing.n_cosets == 8
        assert cfg.sensing.n_snapshots == 64
        assert cfg.domains.targets == {"T1": 8, "T2": 12, "T3": 16, "T4": 24}
        assert cfg.domains.source == 20
        assert cfg.prune.ratio == 0.9
        assert cfg.training.n_train == 12000
        # full-size sensing window: 64 * 40 / 320 MHz = 8 microseconds
        assert cfg.sensing.duration_s == pytest.approx(8e-6)

    def test_subband_partition_is_exact(self):
        sensing = harness.full_scale().sensing
        assert sensing.subband_hz == 8e6
        assert sensing.subband_hz * sensing.n_subbands == sensing.bandwidth_hz

    def test_config_hash_stable(self):
        a = harness.config_hash(harness.scaled_default())
        b = harness.config_hash(harness.scaled_default())
        assert a == b
        c = harness.config_hash(tiny_config())
        assert a != c


class TestBuildDataset:
    def test_noiseless_empty_spectrum_is_all_zero(self):
        cfg = tiny_config(
            domains=harness.DomainsConfig(source=3, targets={"T1": 0, "T2": 2, "T3": 4, "T4": 5}))
        ds = harness.build_dataset(cfg, "T1", "test", 1, None)
        assert np.all(ds.features == 0)
        assert np.all(ds.labels == 0)

    def test_same_seed_bit_identical(self):
        cfg = tiny_config()
        a = harness.build_dataset(cfg, "T3", "train", 6, 10.0)
        b = harness.build_dataset(cfg, "T3", "train", 6, 10.0)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_purpose_streams_differ(self):
        cfg = tiny_config()
        a = harness.build_dataset(cfg, "T3", "train", 6, 10.0)
        b = harness.build_dataset(cfg, "T3", "test", 6, 10.0)
        assert not np.array_equal(a.features, b.features)

    def test_labels_have_expected_popcount(self):
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T4", "val", 10, 10.0)
        assert np.all(ds.labels.sum(axis=1) == 5)

    def test_noiseless_single_pu_argmax(self):
        # multicoset end-to-end property through the dataset builder
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T1", "test", 20, None, keep_spectra=True)
        from ftlwss import multicoset as mc
        pattern = cfg.sensing.pattern()
        pinv = mc.pseudo_inverse(pattern)
        reorder = mc.band_order(cfg.sensing.n_subbands)
        for i in range(20):
            xhat = (pinv @ ds.coset_spectra[i].astype(np.complex128))[reorder]
            energy_row = int(np.argmax(np.sum(np.abs(xhat) ** 2, axis=1)))
            assert energy_row == int(np.flatnonzero(ds.labels[i])[0])

    def test_feature_entries_unit_or_zero(self):
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T2", "test", 4, 10.0)
        mags = np.hypot(ds.features[..., 0], ds.features[..., 1])
        assert np.all((np.abs(mags - 1) < 1e-5) | (mags < 1e-5))

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            harness.build_dataset(tiny_config(), "T1", "test", 0, 10.0)

    def test_unknown_purpose_names_the_valid_ones(self):
        # it raised a bare KeyError
        with pytest.raises(ValueError, match=r"unknown purpose 'bogus'; expected one of "
                                             r"\['adapt', 'test', 'train', 'val'\]"):
            harness.build_dataset(tiny_config(), "S", "bogus", 2, 10.0)


def _two_pass_dataset(config, domain, count, rng, snr_db, noiseless):
    """Reference loop that renders the clean signal twice per sample: once to
    calibrate the noise (`awgn_sigma`), once under it (`sample_received_signal`)."""
    sensing = config.sensing
    pattern = sensing.pattern()
    n_active = config.domains.n_active(domain)
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    pinv = multicoset.pseudo_inverse(pattern)
    reorder = multicoset.band_order(sensing.n_subbands)
    features, labels, spectra = [], [], []
    for _ in range(count):
        occupancy = signal_model.draw_occupancy(sensing.n_subbands, n_active, rng)
        placement = signal_model.place_pus(occupancy, sensing.subband_hz, sensing.duration_s, rng)
        if noiseless or len(placement) == 0:
            noise_var = 0.0
        else:
            noise_var = signal_model.awgn_sigma(
                snr_db, placement, sensing.subband_hz, sensing.pu_energy, instants) / len(placement)
        samples = signal_model.sample_received_signal(
            placement, sensing.subband_hz, sensing.pu_energy, instants, rng, noise_var)
        coset_spectra = multicoset.coset_dft(samples, pattern)
        xbar = multicoset.normalize_feature(multicoset.recover_feature(pinv, coset_spectra)[reorder])
        features.append(multicoset.to_tensor(xbar).astype(np.float32))
        labels.append(occupancy)
        spectra.append(coset_spectra.astype(np.complex64))
    return np.stack(features), np.stack(labels), np.stack(spectra)


def _per_sample_dataset(config, domain, count, rng, snr_db, noiseless):
    """The per-sample loop ``build_dataset`` ran before its front end was
    batched, with the signal renderer and the noise draw of that time inline:
    one PU at a time into the clean signal, ``rng.normal`` for the noise."""
    sensing = config.sensing
    pattern = sensing.pattern()
    n_active = config.domains.n_active(domain)
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    pinv = multicoset.pseudo_inverse(pattern)
    reorder = multicoset.band_order(sensing.n_subbands)
    b0 = sensing.subband_hz
    features, labels, spectra = [], [], []
    for _ in range(count):
        occupancy = signal_model.draw_occupancy(sensing.n_subbands, n_active, rng)
        placement = signal_model.place_pus(occupancy, sensing.subband_hz, sensing.duration_s, rng)
        samples = np.zeros(instants.shape, dtype=np.complex128)
        for f_k, t_k in zip(placement.carrier_hz, placement.offset_s):
            pulse = np.sqrt(sensing.pu_energy * b0) * np.sinc(b0 * (instants - t_k))
            samples += pulse * np.exp(2j * np.pi * f_k * instants)
        if not noiseless and len(placement):
            p_sig = float(np.mean(np.abs(samples) ** 2))
            scale = np.sqrt(p_sig / (10.0 ** (snr_db / 10.0)) / len(placement) / 2.0)
            samples = samples + (rng.normal(scale=scale, size=samples.shape)
                                 + 1j * rng.normal(scale=scale, size=samples.shape))
        coset_spectra = multicoset.coset_dft(samples, pattern)
        xbar = multicoset.normalize_feature(multicoset.recover_feature(pinv, coset_spectra)[reorder])
        features.append(multicoset.to_tensor(xbar).astype(np.float32))
        labels.append(occupancy)
        spectra.append(coset_spectra.astype(np.complex64))
    return np.stack(features), np.stack(labels), np.stack(spectra)


def _assert_dataset_matches(reference, config, domain, count, snr_db, noiseless):
    got = harness.build_dataset(config, domain, "test", count, snr_db, keep_spectra=True)
    features, labels, spectra = reference(
        config, domain, count, harness.dataset_rng(config, domain, "test", snr_db), snr_db, noiseless)
    assert got.features.tobytes() == features.tobytes()
    assert got.labels.tobytes() == labels.tobytes()
    assert got.coset_spectra.tobytes() == spectra.tobytes()


def _energy_config(pu_energy):
    """`tiny_config` with every PU at ``pu_energy``: at the default 1.0,
    dropping the energy factor from the pulse changes no byte."""
    cfg = tiny_config()
    return replace(cfg, sensing=replace(cfg.sensing, pu_energy=pu_energy))


_TWO_PASS_POINTS = [(None, True), (-10.0, False), (0.0, False), (10.0, False)]
_PER_SAMPLE_COUNTS = [1, harness._FRONT_END_CHUNK - 1, harness._FRONT_END_CHUNK,
                      harness._FRONT_END_CHUNK + 1]
_PER_SAMPLE_POINTS = [("T4", None, True), ("S", -10.0, False), ("T1", 10.0, False)]


class TestBuildDatasetOracle:
    @pytest.mark.parametrize("snr_db,noiseless", _TWO_PASS_POINTS)
    @pytest.mark.parametrize("domain", ["S", "T1", "T4"])
    def test_bytes_equal_two_pass_loop(self, domain, snr_db, noiseless):
        _assert_dataset_matches(_two_pass_dataset, tiny_config(), domain, 12, snr_db, noiseless)

    @pytest.mark.parametrize("snr_db,noiseless", _TWO_PASS_POINTS)
    @pytest.mark.parametrize("domain", ["S", "T1", "T4"])
    def test_bytes_equal_two_pass_loop_at_pu_energy_2_5(self, domain, snr_db, noiseless):
        _assert_dataset_matches(_two_pass_dataset, _energy_config(2.5), domain, 12, snr_db, noiseless)

    def test_one_clean_signal_pass_per_sample(self, monkeypatch):
        # the batched renderer draws every sample's signal exactly once: one
        # call per front-end chunk, whose batch sizes add up to the count
        chunk = harness._FRONT_END_CHUNK
        batches = []
        original = signal_model.noiseless_signal
        monkeypatch.setattr(signal_model, "noiseless_signal",
                            lambda p, *a, **k: batches.append(p.carrier_hz.shape[0]) or original(p, *a, **k))
        harness.build_dataset(tiny_config(), "T3", "test", 7, 0.0)
        assert batches == [7]
        batches.clear()
        harness.build_dataset(tiny_config(), "T3", "test", chunk + 1, 0.0)
        assert batches == [chunk, 1]

    @pytest.mark.parametrize("count", _PER_SAMPLE_COUNTS)
    @pytest.mark.parametrize("domain,snr_db,noiseless", _PER_SAMPLE_POINTS)
    def test_bytes_equal_per_sample_loop(self, count, domain, snr_db, noiseless):
        _assert_dataset_matches(_per_sample_dataset, tiny_config(), domain, count, snr_db, noiseless)

    @pytest.mark.parametrize("count", _PER_SAMPLE_COUNTS)
    @pytest.mark.parametrize("domain,snr_db,noiseless", _PER_SAMPLE_POINTS)
    def test_bytes_equal_per_sample_loop_at_pu_energy_2_5(self, count, domain, snr_db, noiseless):
        _assert_dataset_matches(_per_sample_dataset, _energy_config(2.5), domain, count, snr_db,
                                noiseless)


_FEATURES = np.arange(3 * 8 * 8 * 2, dtype=np.float32).reshape(3, 8, 8, 2)
_LABELS = np.eye(3, 8, 1, dtype=np.float32)


def _dataset_file(features, labels, magic=b"WSSD", version=1) -> bytes:
    return magic + struct.pack("<I", version) + encode_tensor(features) + encode_tensor(labels)


class TestDatasetPersistence:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T3", "test", 5, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=cfg.seed, config_sha256=harness.config_hash(cfg))
        loaded = harness.load_dataset(path)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.labels, ds.labels)

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda raw: raw[:-1], id="short-label-bits"),
        pytest.param(lambda raw: raw[:100], id="short-features"),
        pytest.param(lambda raw: raw + b"\0", id="trailing-byte"),
        pytest.param(lambda raw: b"", id="empty"),
    ])
    def test_length_mismatch_raises_decode_error(self, tmp_path, edit):
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T3", "test", 5, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DecodeError):
            harness.load_dataset(path)

    def test_layout(self, tmp_path):
        # magic, version, then the features and the float32 labels as codec tensors
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path)
        assert path.read_bytes() == _dataset_file(ds.features, ds.labels.astype(np.float32))

    @pytest.mark.parametrize("magic, version, features, labels", [
        pytest.param(b"WSSX", 1, _FEATURES, _LABELS, id="bad-magic"),
        pytest.param(b"WSSD", 2, _FEATURES, _LABELS, id="other-version"),
        pytest.param(b"WSSD", 1, _FEATURES[..., 0], _LABELS, id="features-rank-3"),
        pytest.param(b"WSSD", 1, _FEATURES[..., None], _LABELS, id="features-rank-5"),
        pytest.param(b"WSSD", 1, _FEATURES[..., :1], _LABELS, id="features-one-channel"),
        pytest.param(b"WSSD", 1, _FEATURES, _LABELS[:, :4], id="labels-fewer-bands"),
        pytest.param(b"WSSD", 1, _FEATURES, _LABELS[:2], id="labels-fewer-samples"),
        pytest.param(b"WSSD", 1, _FEATURES, _LABELS.reshape(-1), id="labels-flat"),
        pytest.param(b"WSSD", 1, _FEATURES, np.where(np.eye(3, 8), 0.5, _LABELS), id="label-half"),
        pytest.param(b"WSSD", 1, _FEATURES, np.where(np.eye(3, 8), np.nan, _LABELS), id="label-nan"),
        pytest.param(b"WSSD", 1, _FEATURES, _LABELS + 2, id="label-two"),
    ])
    def test_malformed_format_raises_decode_error(self, tmp_path, magic, version, features, labels):
        path = tmp_path / "data.bin"
        path.write_bytes(_dataset_file(features, labels, magic, version))
        with pytest.raises(DecodeError):
            harness.load_dataset(path)
        path.write_bytes(_dataset_file(_FEATURES, _LABELS))
        assert len(harness.load_dataset(path)) == 3

    def test_every_truncation_and_bit_flip_raises_decode_error(self, tmp_path):
        # each prefix of the data file, then seeded single-bit flips of it:
        # a load succeeds or raises DecodeError
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=7, config_sha256="ab" * 32)
        rng = np.random.default_rng(13)
        good = path.read_bytes()
        bad = [good[:end] for end in range(len(good))]
        for bit in rng.integers(0, 8 * len(good), size=3000):
            flipped = bytearray(good)
            flipped[bit // 8] ^= 1 << (bit % 8)
            bad.append(bytes(flipped))
        for data in bad:
            path.write_bytes(data)
            try:
                harness.load_dataset(path)
            except DecodeError:
                pass
        path.write_bytes(good)
        harness.load_dataset(path)

    def test_truncations_and_bit_flips_hypothesis(self, tmp_path):
        # a prefix of the data file with up to four bits flipped: a load
        # succeeds or raises DecodeError
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=7, config_sha256="ab" * 32)
        good = path.read_bytes()

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.data())
        def check(draw):
            data = bytearray(good)
            end = draw.draw(st.integers(0, len(data)))
            for bit in draw.draw(st.lists(st.integers(0, 8 * len(data) - 1), max_size=4)):
                data[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(data[:end]))
            try:
                harness.load_dataset(path)
            except DecodeError:
                pass

        check()

    def test_missing_file_stays_an_os_error(self, tmp_path):
        # the data file stands alone: a missing note does not stop a load
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path)
        (tmp_path / "data.bin.json").unlink()
        assert np.array_equal(harness.load_dataset(path).labels, ds.labels)
        path.unlink()
        with pytest.raises(FileNotFoundError):
            harness.load_dataset(path)

    def test_sidecar_contents(self, tmp_path):
        # the note holds what the file cannot say: the seed and config it came from
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T3", "test", 5, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=11, config_sha256="ab" * 32)
        note = json.loads((tmp_path / "data.bin.json").read_text())
        assert note == {"seed": 11, "config_sha256": "ab" * 32}


class TestPrediction:
    def test_threshold_rule(self):
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(0))
        for name in tn.PARAM_NAMES:
            getattr(weights, name)[:] = 0
        # zero weights produce 0.5 everywhere; the inclusive threshold counts
        # every band occupied at 0.5 and none at 0.51
        occupied = harness.LabeledDataset(
            features=np.zeros((1, spec.in_rows, spec.in_cols, 2), dtype=np.float32),
            labels=np.ones((1, 8), dtype=np.int8))
        assert harness.detector_accuracy(spec, weights, occupied, 0.5) == 1.0
        assert harness.detector_accuracy(spec, weights, occupied, 0.51) == 0.0

    def test_monotone_in_threshold(self):
        # against all-occupied labels the score counts the bands decided
        # occupied, which a higher threshold can only lower
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(1))
        ds = harness.build_dataset(cfg, "T3", "test", 6, 10.0)
        occupied = harness.LabeledDataset(features=ds.features, labels=np.ones_like(ds.labels))
        scores = [harness.detector_accuracy(spec, weights, occupied, t) for t in (0.3, 0.5, 0.7)]
        assert scores == sorted(scores, reverse=True)


def _traced_peak(fn) -> int:
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPredictionMemory:
    """Chunked eval-mode passes keep one chunk's forward cache alive at a
    time: three chunks peak no higher than one (holding the previous cache
    through the next forward pass doubled the peak)."""

    def setup_method(self):
        self.spec = harness.scaled_default().detector_spec()
        self.weights = tn.init_weights(self.spec, np.random.default_rng(0))
        shape = (96, self.spec.in_rows, self.spec.in_cols, 2)
        self.features = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        self.labels = (np.random.default_rng(2).random((96, self.spec.n_outputs)) < 0.4).astype(np.int8)

    def test_predict_probs(self, monkeypatch):
        monkeypatch.setattr(harness, "_PREDICT_CHUNK", 32)
        one = _traced_peak(lambda: harness.predict_probs(self.spec, self.weights, self.features[:32]))
        three = _traced_peak(lambda: harness.predict_probs(self.spec, self.weights, self.features))
        assert three < 1.3 * one

    def test_evaluate_loss(self, monkeypatch):
        monkeypatch.setattr(tn, "_LOSS_CHUNK", 32)
        one = _traced_peak(lambda: tn.evaluate_loss(self.spec, self.weights, self.features[:32],
                                                    self.labels[:32]))
        three = _traced_peak(lambda: tn.evaluate_loss(self.spec, self.weights, self.features,
                                                      self.labels))
        assert three < 1.3 * one


    def test_full_scale_predict_probs_is_bounded(self):
        # the lean forward runs the convolutions one sample at a time here,
        # so 64 samples never hold their 160 MB of conv2 patches at once
        # (226 MB peak when the whole chunk went through im2col)
        spec = harness.full_scale().detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(0))
        shape = (64, spec.in_rows, spec.in_cols, 2)
        features = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
        assert _traced_peak(lambda: harness.predict_probs(spec, weights, features)) < 80e6


# Trains a desk-shape model, then predicts with it and with a full-scale
# model, and runs a pooled eval sweep at the benchmark's size; prints the
# sha256 of the checkpoint, both probability arrays and the sweep's rows.
_BLAS_PROBE = """
import hashlib
from dataclasses import replace
import numpy as np
from ftlwss import harness, pruning, tensornet as tn
spec = harness.scaled_default().detector_spec()
rng = np.random.default_rng(0)
x = rng.standard_normal((64, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
y = (rng.random((64, spec.in_rows)) < 0.4).astype(np.int8)
trained = tn.train_offline(spec, x[:48], y[:48], x[48:], y[48:], rng, lr=0.05,
                           batch_size=16, max_epochs=2, patience=2).weights
full = harness.full_scale().detector_spec()
big = tn.init_weights(full, rng)
xf = rng.standard_normal((5, full.in_rows, full.in_cols, 2)).astype(np.float32)
h = hashlib.sha256(tn.checkpoint_bytes(spec, trained))
h.update(harness.predict_probs(spec, trained, x).tobytes())
h.update(harness.predict_probs(full, big, xf).tobytes())
base = harness.scaled_default()
cfg = replace(base, evaluation=replace(base.evaluation, n_test=16))
def pruned(tag):
    return pruning.prune_model(tn.init_weights(spec, np.random.default_rng(tag)), 0.8)[0]
models = harness.PipelineResult(
    config=cfg, spec=spec, ftl_model=pruned(1), tl_model=pruned(2), zero_shot_model=pruned(3),
    rt_models={d: pruned(4 + i) for i, d in enumerate(cfg.domains.target_names())})
h.update(repr(harness.evaluate_schemes(cfg, models)).encode())
print(h.hexdigest())
"""


def test_training_and_lean_prediction_independent_of_blas_threads():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(harness.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        digests.add(done.stdout.strip())
    assert len(digests) == 1, digests


@pytest.mark.parametrize("max_epochs", [10, 3, 2, 1])
def test_best_epoch_indexes_the_joined_loss_history(max_epochs):
    # the probe's 3 epochs open the history; at max_epochs 3 no continuation
    # epoch runs, and the probe's best snapshot is the result; below 3 the
    # probe itself stops at max_epochs, which bounds the whole history
    from dataclasses import replace
    base = tiny_config()
    cfg = replace(base, training=replace(base.training, n_train=200, n_val=66, restart_epochs=3,
                                         max_epochs=max_epochs, patience=max_epochs))
    trained = harness._train_domain_model(cfg, "S", *harness._domain_datasets(cfg, "S"))
    assert len(trained.val_losses) == max_epochs
    assert trained.best_epoch >= 0
    assert trained.val_losses[trained.best_epoch] == min(trained.val_losses)


def _stuck_restarts(seed: int, restarts: int = 3):
    # a 0.0 margin fails every probe, so every attempt runs; the
    # continuation trains 5 epochs after the 1-epoch probe
    base = tiny_config(seed=seed)
    return replace(base, training=replace(base.training, restarts=restarts, restart_margin=0.0,
                                          max_epochs=6, patience=6))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_restart_log_reseeds_only_before_another_attempt(seed):
    cfg = _stuck_restarts(seed)
    logged = []
    harness._train_domain_model(cfg, "S", *harness._domain_datasets(cfg, "S"), logged.append)
    assert len(logged) == 3
    assert all(re.fullmatch(rf"  training on S: attempt {a} stuck \(.*\), reseeding", line)
               for a, line in enumerate(logged[:2])), logged
    assert re.fullmatch(r"  training on S: attempt 2 stuck \(.*\), "
                        r"continuing from the best probe, attempt [012]", logged[2]), logged


# seeds whose best probe is not the last attempt's and whose continuation
# beats the probe, so the continuation's generator shows in the weights
@pytest.mark.parametrize("seed", [3, 5])
def test_continuation_is_the_best_attempt_trained_to_completion(seed):
    # with every probe stuck, restarts=k continues the best of attempts
    # 0..k-1, whose validation losses open the history; the best attempt j
    # of restarts=3 is the first k - 1 whose opening matches, and the model
    # must be attempt j trained to completion, on attempt j's own generator
    sets = harness._domain_datasets(tiny_config(seed=seed), "S")
    spec = tiny_config().detector_spec()
    probe_epochs = tiny_config().training.restart_epochs
    logged = []
    runs = [harness._train_domain_model(_stuck_restarts(seed, k), "S", *sets,
                                        logged.append if k == 3 else (lambda msg: None))
            for k in (1, 2, 3)]
    best = next(j for j, run in enumerate(runs)
                if run.val_losses[:probe_epochs] == runs[2].val_losses[:probe_epochs])
    assert best < 2 and runs[2].best_epoch >= probe_epochs
    assert tn.checkpoint_bytes(spec, runs[best].weights) == tn.checkpoint_bytes(spec, runs[2].weights)
    assert logged[-1].endswith(f"continuing from the best probe, attempt {best}")


class TestPredictionAccuracy:
    def test_perfect(self):
        labels = np.array([[1, 0, 1], [0, 0, 1]])
        assert harness.prediction_accuracy(labels, labels) == 1.0

    def test_38_of_40(self):
        labels = np.zeros((1, 40), dtype=np.int8)
        preds = labels.copy()
        preds[0, :2] = 1
        assert harness.prediction_accuracy(preds, labels) == pytest.approx(0.95)

    def test_all_zero_predictor_base_rate(self):
        # on a K-occupied domain the all-zero predictor scores (L - K) / L
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T4", "test", 20, 10.0)
        zeros = np.zeros_like(ds.labels)
        assert harness.prediction_accuracy(zeros, ds.labels) == pytest.approx((8 - 5) / 8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            harness.prediction_accuracy(np.zeros((2, 4)), np.zeros((2, 5)))

    def test_somp_score_equals_its_count_over_the_grid(self):
        # SOMP's p_acc, once the correct-bit count over B * L, is the shared
        # mean, equal to that count's float bit for bit at every desk grid
        # point of one grouped batch; the reference runs SOMP per point and
        # sets each sample's band bits in a loop
        cfg = harness.scaled_default()
        grid = cfg.evaluation.snr_grid
        n_test = harness._FRONT_END_CHUNK // len(grid)
        n_active = cfg.domains.n_active("T2")
        matrix = multicoset.build_measurement_matrix(cfg.sensing.pattern())
        n_subbands = cfg.sensing.n_subbands
        spectra, labels, counted = [], [], []
        for snr_db in grid:
            ds = harness.build_dataset(cfg, "T2", "test", n_test, snr_db, keep_spectra=True)
            support, _ = baselines.somp_detect(ds.coset_spectra, matrix, n_active)
            bits = np.zeros((len(ds), n_subbands), dtype=np.int8)
            for row, cols in zip(bits, support):
                row[multicoset.band_order(n_subbands)[cols]] = 1
            counted.append(int((bits == ds.labels).sum()) / (len(ds) * n_subbands))
            spectra.append(ds.coset_spectra)
            labels.append(ds.labels)
        assert 0 < min(counted) < 1 and len(set(counted)) > 1
        assert harness._somp_accuracies(cfg, spectra, labels, n_active) == counted


def _pruned_models(cfg) -> harness.PipelineResult:
    """Seeded pruned detectors for every CNN scheme of ``cfg``."""
    spec = cfg.detector_spec()

    def pruned(tag):
        return pruning.prune_model(tn.init_weights(spec, np.random.default_rng(tag)), cfg.prune.ratio)[0]

    return harness.PipelineResult(
        config=cfg, spec=spec, ftl_model=pruned(1), tl_model=pruned(2), zero_shot_model=pruned(3),
        rt_models={d: pruned(4 + i) for i, d in enumerate(cfg.domains.target_names())})


def _serial_rows(cfg, result) -> list:
    """`evaluate_schemes` one grid point at a time on one thread: each
    point's test set scored by every detector and by SOMP on its own."""
    spec = cfg.detector_spec()
    e = cfg.evaluation
    matrix = multicoset.build_measurement_matrix(cfg.sensing.pattern())
    order = multicoset.band_order(cfg.sensing.n_subbands)
    rows = []
    for domain in cfg.domains.target_names():
        models = [("ftl", result.ftl_model), ("tl", result.tl_model)]
        if domain == cfg.ftl.zero_shot_domain:
            models.append(("ftl_zero_shot", result.zero_shot_model))
        models.append(("rt", result.rt_models[domain]))
        for snr_db in e.snr_grid:
            test = harness.build_dataset(cfg, domain, "test", e.n_test, snr_db, keep_spectra=True)
            scored = [(scheme, harness.detector_accuracy(spec, model, test, e.threshold))
                      for scheme, model in models]
            support, _ = baselines.somp_detect(test.coset_spectra, matrix, cfg.domains.n_active(domain))
            bits = np.zeros_like(test.labels)
            for row, cols in zip(bits, support):
                row[order[cols]] = 1
            scored.append(("somp", harness.prediction_accuracy(bits, test.labels)))
            rows += [harness.SweepRow(domain, scheme, snr_db, p_acc, e.n_test) for scheme, p_acc in scored]
    return rows


class TestEvaluateSchemes:
    """Domain jobs on a pool with the caller as a worker, and SOMP over
    groups of grid points, give the rows of a serial per-point sweep."""

    @staticmethod
    def config(n_test: int):
        base = tiny_config()
        return replace(base, evaluation=replace(
            base.evaluation, n_test=n_test, snr_grid=(-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)))

    # 16: the whole grid is one SOMP group; 100: groups of 2, 2, 2 and 1
    # points; 300: above _FRONT_END_CHUNK, one point per group
    @pytest.mark.parametrize("n_test, groups", [(16, 1), (100, 4), (300, 7)])
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_rows_equal_a_serial_per_point_sweep(self, n_test, groups, cpus, monkeypatch):
        cfg = self.config(n_test)
        result = _pruned_models(cfg)
        reference = _serial_rows(cfg, result)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        batches = []
        original = baselines.somp_detect
        monkeypatch.setattr(baselines, "somp_detect",
                            lambda spectra, *args: batches.append(len(spectra)) or original(spectra, *args))
        logged = []
        assert harness.evaluate_schemes(cfg, result, logged.append) == reference
        assert logged == [f"stage eval: finished domain {d}" for d in ("T1", "T2", "T3", "T4")]
        # one SOMP batch per group of points, none above one chunk or one point
        assert len(batches) == 4 * groups
        assert max(batches) <= max(harness._FRONT_END_CHUNK, n_test)

    def test_first_failing_domain_fails_the_stage_and_no_thread_remains(self, tmp_path, monkeypatch):
        # T2 fails late and T3 at once: the stage waits for T2 and raises
        # its error, the first in domain order
        original = harness.build_dataset
        errors = {"T2": ValueError("T2 failed"), "T3": RuntimeError("T3 failed")}

        def failing(config, domain, *args, **kwargs):
            if domain == "T2":
                time.sleep(0.2)
            if domain in errors:
                raise errors[domain]
            return original(config, domain, *args, **kwargs)

        monkeypatch.setattr(harness, "build_dataset", failing)
        threads = threading.active_count()
        logged = []
        with pytest.raises(harness.StageError) as info:
            harness.eval_stage(self.config(16), tmp_path, logged.append)
        assert info.value.stage == "eval" and info.value.cause is errors["T2"]
        assert threading.active_count() == threads
        assert logged[1:] == ["stage eval: finished domain T1"]
        assert not (tmp_path / "results.csv").exists()

    def test_jobs_run_once_each_in_order_under_contention(self, monkeypatch):
        # more workers than cores and a short switch interval: a job taken
        # twice or lost shows in the run counts or the results
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        runs = [0] * 64

        def job(index):
            def run():
                runs[index] += 1
                return index
            return run

        threads = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            started = time.perf_counter()
            outcomes = harness._run_jobs([job(i) for i in range(64)])
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - started < 30
        assert outcomes == [(i, None) for i in range(64)]
        assert runs == [1] * 64
        assert threading.active_count() == threads


class TestEmitResults:
    def rows(self):
        return [
            harness.SweepRow("T1", "rt", 10.0, 0.99, 100),
            harness.SweepRow("T1", "ftl", 10.0, 0.95, 100),
            harness.SweepRow("T1", "somp", 0.0, 0.80, 100),
        ]

    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        harness.emit_results([], path)
        assert path.read_text() == "domain,scheme,snr_db,p_acc,n_test\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "results.csv"
        harness.emit_results(self.rows()[:1], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1] == "T1,rt,10,0.990000,100"

    def test_summary_ranking_and_ratios(self, tmp_path):
        csv_path = tmp_path / "results.csv"
        json_path = tmp_path / "summary.json"
        harness.emit_results(self.rows(), csv_path, json_path, table_snr_db=10.0)
        summary = json.loads(json_path.read_text())
        t1 = summary["domains"]["T1"]
        assert t1["best_scheme"] == "rt"
        assert t1["schemes"]["rt"]["ratio_to_best"] == 1.0
        assert t1["schemes"]["rt"]["rank"] == 1
        assert t1["schemes"]["ftl"]["rank"] == 2
        assert t1["schemes"]["ftl"]["ratio_to_best"] == pytest.approx(0.95 / 0.99, abs=1e-6)
        # the 0 dB SOMP row is not part of the 10 dB table
        assert "somp" not in t1["schemes"]

    def test_csv_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.emit_results(self.rows(), a)
        harness.emit_results(self.rows(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_bad_accuracy(self):
        with pytest.raises(ValueError):
            harness.SweepRow("T1", "rt", 10.0, 1.2, 10)


class TestPipeline:
    def test_tiny_pipeline_end_to_end(self, tmp_path):
        cfg = tiny_config()
        result = harness.run_pipeline(cfg, tmp_path)
        for name in ("config.json", "model_source.bin", "model_pruned.bin",
                     "model_ftl.bin", "model_tl.bin", "model_ftl_zero_shot.bin",
                     "prune_report.json", "results.csv", "summary.json"):
            assert (tmp_path / name).exists(), name
        for domain in ("T1", "T2", "T3", "T4"):
            assert (tmp_path / f"model_rt_{domain}.bin").exists()
        schemes = {(r.domain, r.scheme) for r in result.rows}
        assert ("T4", "ftl") in schemes and ("T4", "somp") in schemes
        assert ("T2", "ftl_zero_shot") in schemes
        assert ("T1", "ftl_zero_shot") not in schemes
        assert result.source_p_acc_unpruned is not None
        report = json.loads((tmp_path / "prune_report.json").read_text())
        assert "p_acc_source_pruned_finetuned" in report
        assert report["zeroed_count"] == result.prune_report.zeroed_count
        assert report["ratio"] == result.prune_report.ratio

    def test_stage_gating_without_ftl(self, tmp_path):
        from dataclasses import replace
        cfg = replace(tiny_config(), stages=("rt", "eval"))
        result = harness.run_pipeline(cfg, tmp_path)
        schemes = {r.scheme for r in result.rows}
        assert schemes == {"rt", "somp"}
        assert not (tmp_path / "model_ftl.bin").exists()

    def test_eval_scores_every_checkpoint_in_the_directory(self, tmp_path):
        # a stage-gated run scores what an earlier run left, as `ftlwss sweep` does
        from dataclasses import replace
        harness.run_pipeline(replace(tiny_config(), stages=("ftl",)), tmp_path)
        result = harness.run_pipeline(replace(tiny_config(), stages=("eval",)), tmp_path)
        assert {r.scheme for r in result.rows} == {"ftl", "tl", "ftl_zero_shot", "somp"}
        assert result.ftl_model is not None and result.prune_report is None
        # without a zero-shot domain the zero-shot checkpoint is neither scored nor named
        logged = []
        cfg = tiny_config(ftl=replace(tiny_config().ftl, zero_shot_domain=None))
        assert harness.eval_stage(cfg, tmp_path, logged.append).zero_shot_model is None
        assert logged[0] == "stage eval: scoring checkpoints ['model_ftl.bin', 'model_tl.bin']"

    def test_frozen_convs_after_adaptation(self, tmp_path):
        cfg = tiny_config()
        result = harness.run_pipeline(cfg, tmp_path)
        _, pruned = tn.load_checkpoint(tmp_path / "model_pruned.bin")
        assert np.array_equal(result.ftl_model.conv1_w, pruned.conv1_w)
        assert np.array_equal(result.ftl_model.conv2_w, pruned.conv2_w)
        # the pruned sparsity pattern survives adaptation
        assert np.all(result.ftl_model.fc1_w[~pruned.prune_mask] == 0)

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = tiny_config()
        harness.run_pipeline(cfg, tmp_path / "a")
        harness.run_pipeline(cfg, tmp_path / "b")
        for name in ("results.csv", "summary.json", "model_ftl.bin", "model_source.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_train_prune_builds_each_source_set_once(self, tmp_path, monkeypatch):
        from dataclasses import replace
        built = []
        original = harness.build_dataset

        def counting(config, domain, purpose, count, snr_db, **kwargs):
            built.append((domain, count))
            return original(config, domain, purpose, count, snr_db, **kwargs)

        monkeypatch.setattr(harness, "build_dataset", counting)
        cfg = replace(tiny_config(), stages=("train", "prune"))
        t = cfg.training
        harness.run_pipeline(cfg, tmp_path / "a")
        assert sorted(built) == sorted([("S", t.n_train), ("S", t.n_val), ("S", t.n_test)])
        # nothing is cached across calls: a second run builds its own sets
        harness.run_pipeline(cfg, tmp_path / "b")
        assert len(built) == 6
        for name in ("model_source.bin", "model_pruned.bin", "prune_report.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_ftl_builds_each_adaptation_set_once(self, tmp_path, monkeypatch):
        # the all-SU, tl and zero-shot runs share one build per target domain
        built = []
        original = harness.build_dataset

        def counting(config, domain, purpose, count, snr_db, **kwargs):
            built.append(domain)
            return original(config, domain, purpose, count, snr_db, **kwargs)

        monkeypatch.setattr(harness, "build_dataset", counting)
        from dataclasses import replace
        harness.run_pipeline(replace(tiny_config(), stages=("ftl",)), tmp_path)
        assert sorted(d for d in built if d != "S") == ["T1", "T2", "T3", "T4"]
        for name in ("model_ftl.bin", "model_tl.bin", "model_ftl_zero_shot.bin"):
            assert (tmp_path / name).exists(), name

    def test_each_su_computes_conv1_once_per_stage_on_either_transport(self, tmp_path, monkeypatch):
        # the stage's three runs share one SU per target domain, and the
        # loopback threads serve those SUs, so over sockets too each SU
        # computes its conv1 activations once; both give the same models
        from dataclasses import replace

        from ftlwss import federation, pruning
        base = harness.scaled_default()
        cfg = replace(base, ftl=replace(base.ftl, rounds=2, samples_per_su=10))
        pruned = tmp_path / "model_pruned.bin"
        tn.save_checkpoint(pruned, cfg.detector_spec(), pruning.prune_model(
            tn.init_weights(cfg.detector_spec(), np.random.default_rng(0)), cfg.prune.ratio)[0])
        calls = []
        original = federation.conv1_activations
        monkeypatch.setattr(federation, "conv1_activations",
                            lambda *args: calls.append(1) or original(*args))
        models = {}
        for transport in ("inproc", "socket"):
            calls.clear()
            outdir = tmp_path / transport
            outdir.mkdir()
            harness.ftl_stage(cfg, outdir, pruned, transport)
            assert len(calls) == len(cfg.domains.target_names()), transport
            models[transport] = {p.name: p.read_bytes() for p in outdir.glob("model_*.bin")}
        assert len(models["inproc"]) == 3
        assert models["socket"] == models["inproc"]

    def test_unknown_transport_is_ftl_stage_failure(self, tmp_path):
        # named before the stage reads its input checkpoint
        with pytest.raises(harness.StageError, match="unknown transport") as info:
            harness.ftl_stage(tiny_config(), tmp_path, tmp_path / "model_pruned.bin", "carrier-pigeon")
        assert info.value.stage == "ftl"
