import json

import numpy as np
import pytest

from ftlwss import harness, multicoset, signal_model
from ftlwss import tensornet as tn
from ftlwss.codec import DecodeError


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
]


class TestConfig:
    def test_json_round_trip(self):
        cfg = harness.scaled_default()
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

    # a zero-epoch probe has no validation loss to compare a restart with; each
    # other value would otherwise fail its stage after the earlier stages trained
    @pytest.mark.parametrize("section, key, value", BAD_STAGE_SETTINGS)
    def test_rejects_zero_restart_epochs(self, section, key, value):
        with pytest.raises(ValueError, match=key):
            harness.ExperimentConfig.from_dict({section: {key: value}})

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
        pinv = mc.pseudo_inverse(mc.build_measurement_matrix(pattern))
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


def _two_pass_dataset(config, domain, count, rng, snr_db, noiseless):
    """Reference loop that renders the clean signal twice per sample: once to
    calibrate the noise (`awgn_sigma`), once under it (`sample_received_signal`)."""
    sensing = config.sensing
    pattern = sensing.pattern()
    scenario = config.scenario(domain)
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    pinv = multicoset.pseudo_inverse(multicoset.build_measurement_matrix(pattern))
    reorder = multicoset.band_order(sensing.n_subbands)
    features, labels, spectra = [], [], []
    for _ in range(count):
        occupancy = signal_model.draw_occupancy(sensing.n_subbands, scenario.n_active_pus, rng)
        placement = signal_model.place_pus(occupancy, scenario, rng)
        if noiseless or len(placement) == 0:
            noise_var = 0.0
        else:
            noise_var = signal_model.awgn_sigma(snr_db, placement, scenario, instants) / len(placement)
        samples = signal_model.sample_received_signal(placement, scenario, instants, rng, noise_var)
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
    scenario = config.scenario(domain)
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    pinv = multicoset.pseudo_inverse(multicoset.build_measurement_matrix(pattern))
    reorder = multicoset.band_order(sensing.n_subbands)
    b0 = scenario.subband_hz
    features, labels, spectra = [], [], []
    for _ in range(count):
        occupancy = signal_model.draw_occupancy(sensing.n_subbands, scenario.n_active_pus, rng)
        placement = signal_model.place_pus(occupancy, scenario, rng)
        samples = np.zeros(instants.shape, dtype=np.complex128)
        for f_k, t_k, e_k in zip(placement.carrier_hz, placement.offset_s, placement.energy):
            pulse = np.sqrt(e_k * b0) * np.sinc(b0 * (instants - t_k))
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


class TestBuildDatasetOracle:
    @pytest.mark.parametrize("snr_db,noiseless", [
        (None, True), (-10.0, False), (0.0, False), (10.0, False),
    ])
    @pytest.mark.parametrize("domain", ["S", "T1", "T4"])
    def test_bytes_equal_two_pass_loop(self, domain, snr_db, noiseless):
        cfg = tiny_config()
        got = harness.build_dataset(cfg, domain, "test", 12, snr_db, keep_spectra=True)
        features, labels, spectra = _two_pass_dataset(
            cfg, domain, 12, harness.dataset_rng(cfg, domain, "test", snr_db), snr_db, noiseless)
        assert got.features.tobytes() == features.tobytes()
        assert got.labels.tobytes() == labels.tobytes()
        assert got.coset_spectra.tobytes() == spectra.tobytes()

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

    @pytest.mark.parametrize("count", [1, harness._FRONT_END_CHUNK - 1, harness._FRONT_END_CHUNK,
                                       harness._FRONT_END_CHUNK + 1])
    @pytest.mark.parametrize("domain,snr_db,noiseless", [
        ("T4", None, True), ("S", -10.0, False), ("T1", 10.0, False),
    ])
    def test_bytes_equal_per_sample_loop(self, count, domain, snr_db, noiseless):
        cfg = tiny_config()
        got = harness.build_dataset(cfg, domain, "test", count, snr_db, keep_spectra=True)
        features, labels, spectra = _per_sample_dataset(
            cfg, domain, count, harness.dataset_rng(cfg, domain, "test", snr_db), snr_db, noiseless)
        assert got.features.tobytes() == features.tobytes()
        assert got.labels.tobytes() == labels.tobytes()
        assert got.coset_spectra.tobytes() == spectra.tobytes()


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

    @pytest.mark.parametrize("edit", [
        pytest.param(lambda car: {**car, "count": "3"}, id="count-string"),
        pytest.param(lambda car: {**car, "feature_shape": None}, id="shape-null"),
        pytest.param(lambda car: {**car, "feature_shape": [8, 8.0, 2]}, id="shape-float"),
        pytest.param(lambda car: {k: v for k, v in car.items() if k != "count"}, id="count-missing"),
        pytest.param(lambda car: {k: v for k, v in car.items() if k != "label_bits_per_sample"},
                     id="label-bits-missing"),
        pytest.param(lambda car: [car], id="not-an-object"),
        pytest.param(lambda car: '{"count": 3,', id="not-json"),
    ])
    def test_malformed_sidecar_raises_decode_error(self, tmp_path, edit):
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path)
        sidecar = tmp_path / "data.bin.json"
        edited = edit(json.loads(sidecar.read_text()))
        sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        with pytest.raises(DecodeError):
            harness.load_dataset(path)

    def test_every_truncation_and_bit_flip_raises_decode_error(self, tmp_path):
        # each prefix of the data file and of its sidecar, then seeded
        # single-bit flips of each: a load succeeds or raises DecodeError
        # (a flipped high bit used to escape as UnicodeDecodeError)
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=7, config_sha256="ab" * 32)
        sidecar = tmp_path / "data.bin.json"
        rng = np.random.default_rng(13)
        for target, flips in ((path, 300), (sidecar, 3000)):
            good = target.read_bytes()
            bad = [good[:end] for end in range(len(good))]
            for bit in rng.integers(0, 8 * len(good), size=flips):
                flipped = bytearray(good)
                flipped[bit // 8] ^= 1 << (bit % 8)
                bad.append(bytes(flipped))
            for data in bad:
                target.write_bytes(data)
                try:
                    harness.load_dataset(path)
                except DecodeError:
                    pass
            target.write_bytes(good)
        harness.load_dataset(path)

    def test_truncations_and_bit_flips_hypothesis(self, tmp_path):
        # a prefix of the data file or of its sidecar with up to four bits
        # flipped: a load succeeds or raises DecodeError
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=7, config_sha256="ab" * 32)
        files = {"data": path, "sidecar": tmp_path / "data.bin.json"}
        good = {name: target.read_bytes() for name, target in files.items()}

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.sampled_from(sorted(files)), st.data())
        def check(name, draw):
            data = bytearray(good[name])
            end = draw.draw(st.integers(0, len(data)))
            for bit in draw.draw(st.lists(st.integers(0, 8 * len(data) - 1), max_size=4)):
                data[bit // 8] ^= 1 << (bit % 8)
            files[name].write_bytes(bytes(data[:end]))
            try:
                harness.load_dataset(path)
            except DecodeError:
                pass
            finally:
                files[name].write_bytes(good[name])

        check()

    def test_missing_file_stays_an_os_error(self, tmp_path):
        ds = harness.build_dataset(tiny_config(), "T3", "test", 3, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path)
        (tmp_path / "data.bin.json").unlink()
        with pytest.raises(FileNotFoundError):
            harness.load_dataset(path)
        harness.save_dataset(ds, path)
        path.unlink()
        with pytest.raises(FileNotFoundError):
            harness.load_dataset(path)

    def test_sidecar_contents(self, tmp_path):
        cfg = tiny_config()
        ds = harness.build_dataset(cfg, "T3", "test", 5, 10.0)
        path = tmp_path / "data.bin"
        harness.save_dataset(ds, path, seed=11, config_sha256="ab" * 32)
        sidecar = json.loads((tmp_path / "data.bin.json").read_text())
        assert sidecar["count"] == 5
        assert sidecar["feature_shape"] == [8, 8, 2]
        assert sidecar["label_bits_per_sample"] == 8
        assert sidecar["seed"] == 11
        assert sidecar["config_sha256"] == "ab" * 32


class TestPrediction:
    def test_threshold_rule(self):
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(0))
        for name in tn.PARAM_NAMES:
            getattr(weights, name)[:] = 0
        # zero weights produce 0.5 everywhere; inclusive threshold keeps ones
        feature = np.zeros((1, spec.in_rows, spec.in_cols, 2), dtype=np.float32)
        assert harness.predict_occupancy(spec, weights, feature, 0.5).tolist() == [[1] * 8]
        assert harness.predict_occupancy(spec, weights, feature, 0.51).tolist() == [[0] * 8]

    def test_monotone_in_threshold(self):
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(1))
        ds = harness.build_dataset(cfg, "T3", "test", 6, 10.0)
        low = harness.predict_occupancy(spec, weights, ds.features, 0.3)
        high = harness.predict_occupancy(spec, weights, ds.features, 0.7)
        assert np.all(high <= low)

    def test_rejects_bad_threshold(self):
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(0))
        with pytest.raises(ValueError):
            harness.predict_occupancy(spec, weights, np.zeros((8, 8, 2)), 0.0)


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
# model; prints the sha256 of the checkpoint and both probability arrays.
_BLAS_PROBE = """
import hashlib
import numpy as np
from ftlwss import harness, tensornet as tn
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

    def test_frozen_convs_after_adaptation(self, tmp_path):
        cfg = tiny_config()
        result = harness.run_pipeline(cfg, tmp_path)
        assert np.array_equal(result.ftl_model.conv1_w, result.pruned_model.conv1_w)
        assert np.array_equal(result.ftl_model.conv2_w, result.pruned_model.conv2_w)
        # the pruned sparsity pattern survives adaptation
        assert np.all(result.ftl_model.fc1_w[~result.pruned_model.prune_mask] == 0)

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
        pruned = pruning.prune_model(tn.init_weights(cfg.detector_spec(), np.random.default_rng(0)),
                                     cfg.prune.ratio)[0]
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
        cfg = tiny_config()
        spec = cfg.detector_spec()
        weights = tn.init_weights(spec, np.random.default_rng(0), dtype=np.float32)
        with pytest.raises(harness.StageError, match="unknown transport") as info:
            harness.ftl_stage(cfg, tmp_path, weights, "carrier-pigeon")
        assert info.value.stage == "ftl"
