import re
import socket
import struct
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ftlwss import codec
from ftlwss import federation as fed
from ftlwss import tensornet as tn
from ftlwss.codec import DecodeError

SPEC = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=3, conv2_filters=2, hidden_units=6)


def toy_weights(seed=0, masked=False):
    w = tn.init_weights(SPEC, np.random.default_rng(seed), dtype=np.float32)
    if masked:
        mask = np.random.default_rng(seed + 1).random(w.fc1_w.shape) > 0.5
        w.fc1_w = np.where(mask, w.fc1_w, 0.0).astype(np.float32)
        w.prune_mask = mask
    return w


def toy_dataset(seed=0, count=20):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(count, 6, 8, 2)).astype(np.float32)
    labels = (rng.random((count, 6)) < 0.4).astype(np.int8)
    return features, labels


def toy_upload(seed=0, round_idx=1, su_id=2, n_samples=20, mask=None):
    """An upload for a model with ``mask`` (dense ``fc1_w`` without one)."""
    rng = np.random.default_rng(seed)
    shapes = SPEC.param_shapes()
    upload = fed.GradientUpload(
        round_idx=round_idx, su_id=su_id, n_samples=n_samples,
        **{name: rng.normal(size=shapes[name]).astype(np.float32)
           for name in tn.DOMAIN_SPECIFIC_PARAMS})
    return upload if mask is None else on_the_wire(upload, mask)


def ds_gradients(spec, weights, cache, labels):
    """The domain-specific gradients of a full-cache `backward`, the ones a
    ``scope="ds_only"`` cache gives."""
    return {n: g for n, g in tn.backward(spec, weights, cache, labels).items()
            if n in tn.DOMAIN_SPECIFIC_PARAMS}


def kept_part(name, array, mask):
    """``array`` as an upload carries it: ``fc1_w`` as its values at the
    kept entries in flat order (every entry without a mask)."""
    if name != "fc1_w":
        return array
    flat = array.reshape(-1)
    return flat if mask is None else flat[mask.reshape(-1)]


def on_the_wire(upload, mask):
    """A dense-gradient upload in the form the v2 format ships."""
    return fed.GradientUpload(
        round_idx=upload.round_idx, su_id=upload.su_id, n_samples=upload.n_samples,
        attempt=upload.attempt,
        **{n: kept_part(n, getattr(upload, n), mask) for n in tn.DOMAIN_SPECIFIC_PARAMS})


class TestMessageCodec:
    def test_upload_round_trip_bit_exact(self):
        upload = toy_upload()
        decoded = fed.decode_message(fed.encode_message(upload))
        assert decoded.round_idx == 1 and decoded.su_id == 2 and decoded.n_samples == 20
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.array_equal(getattr(decoded, name), getattr(upload, name))

    def test_broadcast_round_trip_keeps_mask(self):
        weights = toy_weights(masked=True)
        msg = fed.ModelBroadcast(round_idx=3, spec=SPEC, weights=weights)
        decoded = fed.decode_message(fed.encode_message(msg))
        assert decoded.round_idx == 3
        assert decoded.spec == SPEC
        assert np.array_equal(decoded.weights.prune_mask, weights.prune_mask)
        assert int((decoded.weights.fc1_w == 0).sum()) >= int((~weights.prune_mask).sum())

    def test_truncated_payload_raises(self):
        data = fed.encode_message(toy_upload())
        with pytest.raises(DecodeError):
            fed.decode_message(data[:len(data) // 2])

    def test_bad_magic(self):
        data = fed.encode_message(toy_upload())
        with pytest.raises(DecodeError):
            fed.decode_message(b"NOPE" + data[4:])

    def test_unknown_type(self):
        data = bytearray(fed.encode_message(toy_upload()))
        data[8] = 9
        with pytest.raises(DecodeError):
            fed.decode_message(bytes(data))


    def test_kept_entries_reused_while_the_bitset_is_equal(self, monkeypatch):
        weights = toy_weights(masked=True)
        data = bytes(fed.encode_message(fed.ModelBroadcast(round_idx=0, spec=SPEC, weights=weights)))
        first = fed.decode_message(data)
        assert np.array_equal(first.weights.kept.indices, np.flatnonzero(weights.prune_mask))
        # the kept bitset is a copy: holding it pins no frame
        assert not np.shares_memory(first.weights.kept.bits, np.frombuffer(data, dtype=np.uint8))
        stepped = tn.ModelWeights(**{**weights.arrays(), "fc1_w": 2 * weights.fc1_w},
                                  prune_mask=weights.prune_mask)
        second = fed.encode_message(fed.ModelBroadcast(round_idx=1, spec=SPEC, weights=stepped))
        other = toy_weights(seed=5, masked=True)
        third = fed.encode_message(fed.ModelBroadcast(round_idx=2, spec=SPEC, weights=other))
        fresh = [fed.decode_message(m) for m in (second, third)]

        calls = []
        flatnonzero = np.flatnonzero
        monkeypatch.setattr(np, "flatnonzero", lambda a: calls.append(1) or flatnonzero(a))
        again = fed.decode_message(second, kept=first.weights.kept)
        assert again.weights.kept is first.weights.kept and calls == []
        changed = fed.decode_message(third, kept=first.weights.kept)
        assert calls == [1]
        assert np.array_equal(changed.weights.kept.indices, np.flatnonzero(other.prune_mask))
        for got, want in zip((again, changed), fresh):
            assert tn.checkpoint_bytes(SPEC, got.weights) == tn.checkpoint_bytes(SPEC, want.weights)
        dense = tn.ModelWeights(**weights.arrays())
        unmasked = fed.decode_message(fed.encode_message(fed.ModelBroadcast(3, SPEC, dense)),
                                      kept=first.weights.kept)
        assert unmasked.weights.kept.indices is None and unmasked.weights.prune_mask is None

    def test_reused_entries_skip_the_unpack_and_share_the_mask(self, monkeypatch):
        weights = toy_weights(masked=True)
        first = fed.decode_message(fed.encode_message(fed.ModelBroadcast(0, SPEC, weights)))
        stepped = tn.ModelWeights(**{**weights.arrays(), "fc1_w": 3 * weights.fc1_w},
                                  prune_mask=weights.prune_mask.copy())
        data = fed.encode_message(fed.ModelBroadcast(1, SPEC, stepped))
        calls = []
        for name in ("unpackbits", "flatnonzero", "packbits"):
            def counting(*args, _name=name, _original=getattr(np, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        again = fed.decode_message(data, kept=first.weights.kept)
        assert calls == []
        assert again.weights.kept is first.weights.kept
        assert again.weights.prune_mask is first.weights.prune_mask
        assert np.array_equal(again.weights.fc1_w, stepped.fc1_w)

    def test_transposed_fc1_shape_gets_fresh_entries(self):
        # fc1_w is (2, 3) under one spec and (3, 2) under the other, so the
        # same six bits of bitset describe masks of two shapes
        specs = [tn.DetectorSpec(in_rows=5, in_cols=5, conv1_filters=1, conv2_filters=f2,
                                 hidden_units=h) for f2, h in ((2, 3), (3, 2))]
        flat_mask = np.array([True, False, True, True, False, False])
        decoded = []
        for spec in specs:
            weights = tn.init_weights(spec, np.random.default_rng(0))
            mask = flat_mask.reshape(spec.param_shapes()["fc1_w"])
            weights.fc1_w = np.where(mask, weights.fc1_w, np.float32(0))
            weights.prune_mask = mask
            data = fed.encode_message(fed.ModelBroadcast(0, spec, weights))
            hint = decoded[-1].weights.kept if decoded else None
            decoded.append(fed.decode_message(data, kept=hint))
            assert decoded[-1].weights.prune_mask.shape == mask.shape
            assert np.array_equal(decoded[-1].weights.fc1_w, weights.fc1_w)
        first, second = decoded
        assert np.array_equal(first.weights.kept.bits, second.weights.kept.bits)
        assert second.weights.kept is not first.weights.kept

    def test_bits_past_the_mask_are_rejected(self):
        # three fc1_w entries: one bitset byte with five bits of padding
        spec = tn.DetectorSpec(in_rows=5, in_cols=5, conv1_filters=1, conv2_filters=1,
                               hidden_units=3)
        weights = tn.init_weights(spec, np.random.default_rng(0))
        weights.prune_mask = np.array([[True, False, True]])
        weights.fc1_w[0, 1] = 0
        data = bytearray(fed.encode_message(fed.ModelBroadcast(0, spec, weights)))
        assert data[-1] == 0b101
        fed.decode_message(data)
        data[-1] |= 0x80
        with pytest.raises(DecodeError, match="past"):
            fed.decode_message(data)


class TestLocalTraining:
    def test_single_batch_unrolls_to_one_step(self):
        # E=1 with the batch covering all data: the upload equals the single
        # batch gradient and the local step moved theta_ds by -lr * G
        weights = toy_weights()
        features, labels = toy_dataset()
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=1, batch_size=len(features), lr=0.1)
        upload = fed.local_training(SPEC, weights, features, labels, 1, 0, cfg, seed=5)

        rng = fed.su_round_rng(5, 1, 0)
        order = rng.permutation(len(features))
        _, cache = tn.forward(SPEC, weights, features[order], train=True, rng=rng)
        grads = tn.backward(SPEC, weights, cache, labels[order])
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.array_equal(getattr(upload, name), kept_part(name, grads[name], None))

    def test_zero_rate_still_accumulates(self):
        weights = toy_weights()
        features, labels = toy_dataset()
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=1, batch_size=10, lr=0.0)
        upload = fed.local_training(SPEC, weights, features, labels, 1, 0, cfg, seed=5)
        assert np.any(upload.fc1_w != 0)

    def test_two_epoch_replay_oracle(self):
        # the accumulated gradient must equal the sum of per-batch gradients
        # evaluated at the then-current local weights, replayed independently
        weights = toy_weights()
        features, labels = toy_dataset(count=20)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=2, batch_size=10, lr=0.05)
        upload = fed.local_training(SPEC, weights, features, labels, 3, 7, cfg, seed=11)

        rng = fed.su_round_rng(11, 3, 7)
        local = weights.copy()
        acc = {name: np.zeros_like(getattr(local, name)) for name in tn.DOMAIN_SPECIFIC_PARAMS}
        for _ in range(2):
            order = rng.permutation(20)
            for start in (0, 10):
                idx = order[start:start + 10]
                _, cache = tn.forward(SPEC, local, features[idx], train=True, rng=rng)
                grads = ds_gradients(SPEC, local, cache, labels[idx])
                local = tn.sgd_step(local, grads, 0.05)
                for name in tn.DOMAIN_SPECIFIC_PARAMS:
                    acc[name] += grads[name]
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.array_equal(getattr(upload, name), kept_part(name, acc[name], None))

    def test_general_feature_layers_never_move(self):
        weights = toy_weights()
        features, labels = toy_dataset()
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=3, batch_size=5, lr=0.2)
        before = {n: getattr(weights, n).copy() for n in tn.GENERAL_FEATURE_PARAMS}
        fed.local_training(SPEC, weights, features, labels, 1, 0, cfg, seed=5)
        for name in tn.GENERAL_FEATURE_PARAMS:
            assert np.array_equal(getattr(weights, name), before[name])

    def test_rejects_empty_dataset(self):
        cfg = fed.FtlConfig(n_sus=1, rounds=1)
        with pytest.raises(ValueError):
            fed.local_training(SPEC, toy_weights(), np.zeros((0, 6, 8, 2)),
                               np.zeros((0, 6)), 1, 0, cfg, seed=0)


class TestAggregate:
    def test_opposite_gradients_cancel(self):
        weights = toy_weights()
        up1 = toy_upload(seed=1, su_id=1, n_samples=50)
        up2 = fed.GradientUpload(
            round_idx=1, su_id=2, n_samples=50,
            **{n: -getattr(up1, n) for n in tn.DOMAIN_SPECIFIC_PARAMS})
        out = fed.aggregate(weights, [up1, up2], lr=0.3)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.allclose(getattr(out, name), getattr(weights, name), atol=1e-7)

    def test_hand_weighted_mean(self):
        weights = toy_weights()
        up1 = toy_upload(seed=1, su_id=1, n_samples=100)
        up2 = toy_upload(seed=2, su_id=2, n_samples=300)
        lr = 0.1
        out = fed.aggregate(weights, [up2, up1], lr=lr)  # arrival order reversed
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            expected = (getattr(weights, name)
                        - np.float32(lr) * (np.float32(0.25) * getattr(up1, name)
                                            + np.float32(0.75) * getattr(up2, name)))
            assert np.max(np.abs(getattr(out, name) - expected)) < 1e-6

    @pytest.mark.parametrize("masked", [False, True])
    def test_result_shares_the_kept_entries(self, masked):
        weights = toy_weights(masked=masked)
        kept = weights.kept
        out = fed.aggregate(weights, [toy_upload(su_id=1, mask=weights.prune_mask)], lr=0.5)
        assert out.kept is kept and out.prune_mask is weights.prune_mask

    def test_single_upload_degenerate(self):
        weights = toy_weights()
        up = toy_upload(seed=3, su_id=1, n_samples=10)
        out = fed.aggregate(weights, [up], lr=0.2)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            expected = getattr(weights, name) - np.float32(0.2) * getattr(up, name)
            assert np.allclose(getattr(out, name), expected, atol=1e-7)

    def test_round_mismatch_rejected(self):
        weights = toy_weights()
        with pytest.raises(fed.ProtocolError):
            fed.aggregate(weights, [toy_upload(round_idx=1, su_id=1),
                                    toy_upload(round_idx=2, su_id=2)], lr=0.1)

    def test_duplicate_su_rejected(self):
        weights = toy_weights()
        with pytest.raises(fed.ProtocolError):
            fed.aggregate(weights, [toy_upload(su_id=1), toy_upload(su_id=1)], lr=0.1)

    def test_weight_coefficients_sum_to_one(self):
        sizes = [100, 300, 57, 43]
        total = sum(sizes)
        assert sum(Fraction(s, total) for s in sizes) == 1

    def test_mask_reapplied(self):
        weights = toy_weights(masked=True)
        out = fed.aggregate(weights, [toy_upload(su_id=1, mask=weights.prune_mask)], lr=0.5)
        assert np.all(out.fc1_w[~weights.prune_mask] == 0)

    def test_linearity_in_uploads(self):
        weights = toy_weights()
        up = toy_upload(seed=4, su_id=1, n_samples=10)
        doubled = fed.GradientUpload(
            round_idx=1, su_id=1, n_samples=10,
            **{n: 2 * getattr(up, n) for n in tn.DOMAIN_SPECIFIC_PARAMS})
        base = fed.aggregate(weights, [up], lr=0.1)
        twice = fed.aggregate(weights, [doubled], lr=0.1)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            step1 = getattr(base, name) - getattr(weights, name)
            step2 = getattr(twice, name) - getattr(weights, name)
            assert np.allclose(step2, 2 * step1, atol=1e-6)


class TestRunFtl:
    def make_sus(self, n=3, count=15):
        sus = []
        for i in range(n):
            features, labels = toy_dataset(seed=100 + i, count=count)
            sus.append(fed.LocalSu(su_id=i + 1, features=features, labels=labels))
        return sus

    def test_single_round_single_su_composition(self):
        # one round with one SU is local_training followed by aggregate
        weights = toy_weights(masked=True)
        sus = self.make_sus(n=1)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=1, batch_size=5, lr=0.05)
        out = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=21))
        upload = fed.local_training(SPEC, weights, sus[0].features, sus[0].labels,
                                    1, 0, cfg, seed=21)
        expected = fed.aggregate(weights, [fed.decode_message(fed.encode_message(upload))], cfg.lr)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(out, name), getattr(expected, name))

    def test_identical_sus_match_single_su_step(self):
        # replicated SUs upload identical gradients; aggregation reduces to
        # the single-SU update
        weights = toy_weights()
        features, labels = toy_dataset(seed=55)
        cfg3 = fed.FtlConfig(n_sus=3, rounds=1, local_epochs=1, batch_size=5, lr=0.05)
        uploads = [fed.local_training(SPEC, weights, features, labels, su_id, 0, cfg3, seed=99)
                   for su_id in (1, 2, 3)]
        # identical datasets and identical per-round generators require equal seeds
        uploads = [fed.GradientUpload(round_idx=0, su_id=i + 1, n_samples=len(features),
                                      **{n: getattr(uploads[0], n) for n in tn.DOMAIN_SPECIFIC_PARAMS})
                   for i in range(3)]
        joint = fed.aggregate(weights, uploads, cfg3.lr)
        single = fed.aggregate(weights, uploads[:1], cfg3.lr)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert np.allclose(getattr(joint, name), getattr(single, name), atol=1e-6)

    def test_general_feature_frozen_over_rounds(self):
        weights = toy_weights(masked=True)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=10, local_epochs=1, batch_size=5, lr=0.05)
        out = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=31))
        for name in tn.GENERAL_FEATURE_PARAMS:
            assert getattr(out, name).tobytes() == getattr(weights, name).tobytes()
        assert np.any(out.fc1_w != weights.fc1_w)

    def test_mask_sparsity_every_round(self):
        weights = toy_weights(masked=True)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=4, local_epochs=1, batch_size=5, lr=0.05)
        current = weights
        for _ in range(cfg.rounds):
            one = fed.FtlConfig(n_sus=3, rounds=1, local_epochs=1, batch_size=5, lr=0.05)
            current = fed.run_ftl(SPEC, current, one, fed.InProcessTransport(sus, one, seed=31))
            assert np.all(current.fc1_w[~weights.prune_mask] == 0)

    def test_deterministic(self):
        weights = toy_weights()
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=3, local_epochs=1, batch_size=5, lr=0.05)
        a = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=77))
        b = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=77))
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_socket_transport_bit_identical_to_in_process(self):
        weights = toy_weights(masked=True)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=3, local_epochs=2, batch_size=5, lr=0.05)
        inproc = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=13))
        with fed.LoopbackSocketTransport(sus, cfg, seed=13) as transport:
            socketed = fed.run_ftl(SPEC, weights, cfg, transport)
        for name in tn.PARAM_NAMES:
            assert np.array_equal(getattr(inproc, name), getattr(socketed, name)), name
        # leaving the block closed the server and joined one thread per SU
        assert len(transport.workers) == 3
        assert not any(worker.is_alive() for worker in transport.workers)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_non_finite_upload_fails_the_run_naming_su_and_tensor(self, monkeypatch, transport):
        original = fed.local_training

        def poisoned(*args, **kwargs):
            upload = original(*args, **kwargs)
            if upload.su_id == 2:
                upload.out_b = np.full_like(upload.out_b, np.nan)
            return upload

        monkeypatch.setattr(fed, "local_training", poisoned)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=2, local_epochs=1, batch_size=5, lr=0.05)
        make = fed.InProcessTransport if transport == "inproc" else fed.LoopbackSocketTransport
        with pytest.raises(fed.ProtocolError, match="SU 2 has non-finite out_b"):
            with make(sus, cfg, seed=13) as server:
                fed.run_ftl(SPEC, toy_weights(masked=True), cfg, server)
        assert not any(worker.is_alive() for worker in getattr(server, "workers", ()))

    def test_loopback_transport_joins_its_threads_on_error(self):
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=1)
        with pytest.raises(RuntimeError, match="before any round"):
            with fed.LoopbackSocketTransport(sus, cfg, seed=13) as transport:
                transport.wait_for_clients()
                raise RuntimeError("before any round")
        assert not any(worker.is_alive() for worker in transport.workers)

    def test_threaded_round_matches_serial_replay_and_socket(self, monkeypatch):
        weights = toy_weights(masked=True)
        sus = uneven_sus((7, 15, 22, 11), ids=(4, 1, 3, 2))
        cfg = fed.FtlConfig(n_sus=4, rounds=3, local_epochs=2, batch_size=5, lr=0.05)
        replay, replay_rounds = serial_replay(weights, sus, cfg, seed=19)

        threads = set()
        original = fed.local_training

        def recording_training(*args, **kwargs):
            threads.add(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(fed, "local_training", recording_training)
        inproc = RecordingTransport(fed.InProcessTransport(sus, cfg, seed=19))
        out = fed.run_ftl(SPEC, weights, cfg, inproc)
        assert threading.get_ident() not in threads  # the SUs ran on the pool
        monkeypatch.setattr(fed, "local_training", original)
        with RecordingTransport(fed.LoopbackSocketTransport(sus, cfg, seed=19)) as socketed:
            over_socket = fed.run_ftl(SPEC, weights, cfg, socketed)

        assert inproc.rounds == replay_rounds  # in ascending SU id order
        assert [sorted(uploads) for uploads in socketed.rounds] == replay_rounds
        want = tn.checkpoint_bytes(SPEC, replay)
        assert tn.checkpoint_bytes(SPEC, out) == want
        assert tn.checkpoint_bytes(SPEC, over_socket) == want

    def test_more_pool_threads_than_cores_under_fast_switching(self, monkeypatch):
        # every SU reads the one shared broadcast; a write into it by any
        # thread would change the uploads of the others
        monkeypatch.setattr(fed.os, "cpu_count", lambda: 8)
        weights = toy_weights(masked=True)
        sus = uneven_sus((5, 9, 12, 6, 10, 8, 7, 11))
        cfg = fed.FtlConfig(n_sus=8, rounds=2, local_epochs=1, batch_size=4, lr=0.05)
        replay, replay_rounds = serial_replay(weights, sus, cfg, seed=23)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            transport = RecordingTransport(fed.InProcessTransport(sus, cfg, seed=23))
            out = fed.run_ftl(SPEC, weights, cfg, transport)
        finally:
            sys.setswitchinterval(interval)
        assert transport.rounds == replay_rounds
        assert tn.checkpoint_bytes(SPEC, out) == tn.checkpoint_bytes(SPEC, replay)

    def test_failing_su_fails_the_round_and_joins_the_pool(self):
        sus = self.make_sus(n=4)
        sus[1] = fed.LocalSu(su_id=2, features=np.zeros((0, 6, 8, 2), np.float32),
                             labels=np.zeros((0, 6), np.int8))
        cfg = fed.FtlConfig(n_sus=4, rounds=1, local_epochs=1, batch_size=5, lr=0.05)
        broadcast = fed.encode_message(fed.ModelBroadcast(round_idx=0, spec=SPEC,
                                                          weights=toy_weights(masked=True)))
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="non-empty"):
            fed.InProcessTransport(sus, cfg, seed=3).run_round(broadcast)
        assert set(threading.enumerate()) == before

    @pytest.mark.parametrize("local_epochs, batch_size", [(2, 5), (1, 5), (2, 15), (1, 15)])
    def test_kept_indices_computed_once_per_run_and_round(self, monkeypatch, local_epochs,
                                                          batch_size):
        # run_ftl computes them once, and the first round's in-process
        # decode once for its scatter; later decodes see the same bitset
        # and reuse them, and every SU trains with those
        calls = []
        flatnonzero = np.flatnonzero

        def counting(a):
            calls.append(1)
            return flatnonzero(a)

        monkeypatch.setattr(np, "flatnonzero", counting)
        sus = self.make_sus(count=15)
        cfg = fed.FtlConfig(n_sus=3, rounds=4, local_epochs=local_epochs, batch_size=batch_size,
                            lr=0.05)
        fed.run_ftl(SPEC, toy_weights(masked=True), cfg, fed.InProcessTransport(sus, cfg, seed=8))
        assert len(calls) == 2

    def test_conv1_cache_is_keyed_on_the_conv1_bytes(self, monkeypatch):
        features, labels = toy_dataset(count=6)
        su = fed.LocalSu(1, features, labels)
        weights = toy_weights()
        first = su.conv1_out(SPEC, weights)
        assert first.tobytes() == tn.conv1_activations(SPEC, weights, features).tobytes()
        assert su.conv1_out(SPEC, weights.copy()) is first  # equal bytes, other arrays
        changed = weights.copy()
        changed.conv1_b[0] += 0.5
        assert su.conv1_out(SPEC, changed).tobytes() == \
            tn.conv1_activations(SPEC, changed, features).tobytes()
        assert su.conv1_out(SPEC, weights).tobytes() == first.tobytes()

    def test_one_su_serves_two_runs_of_one_model(self, monkeypatch):
        # as in the ftl stage: a run over every SU, then one over the first
        # SU alone, each on its own transport; every SU computes its conv1
        # activations once, and each run equals a serial replay
        calls = []
        original = fed.conv1_activations
        monkeypatch.setattr(fed, "conv1_activations",
                            lambda *args: calls.append(1) or original(*args))
        sus = self.make_sus()
        weights = toy_weights(masked=True)
        for subset in (sus, sus[:1]):
            cfg = fed.FtlConfig(n_sus=len(subset), rounds=3, local_epochs=1, batch_size=5, lr=0.05)
            with fed.InProcessTransport(subset, cfg, seed=9) as transport:
                got = fed.run_ftl(SPEC, weights, cfg, transport)
            want, _ = serial_replay(weights, subset, cfg, seed=9)
            assert tn.checkpoint_bytes(SPEC, got) == tn.checkpoint_bytes(SPEC, want)
        assert len(calls) == len(sus)

    def test_in_process_round_decodes_every_tensor_in_place(self, monkeypatch):
        # every float32 section of the broadcast and of each upload starts on
        # a 4-byte boundary of its buffer, so no decode copies a tensor
        offsets = []
        original = codec.ByteReader.tensor

        def recording(reader):
            base = np.frombuffer(reader._data, dtype=np.uint8).ctypes.data
            offsets.append((base + reader.offset) % 4)
            return original(reader)

        monkeypatch.setattr(codec.ByteReader, "tensor", recording)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=2, local_epochs=1, batch_size=5, lr=0.05)
        fed.run_ftl(SPEC, toy_weights(masked=True), cfg, fed.InProcessTransport(sus, cfg, seed=2))
        n_tensors = len(tn.PARAM_NAMES) + len(sus) * len(tn.DOMAIN_SPECIFIC_PARAMS)
        assert offsets == [0] * cfg.rounds * n_tensors

    @pytest.mark.parametrize("kind", ["inproc", "loopback"])
    def test_su_caches_follow_the_broadcast_bytes(self, kind):
        # one transport serves runs whose models differ in conv1 only, in
        # the mask too, and not at all: each run equals a serial replay
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=2, local_epochs=1, batch_size=5, lr=0.05)
        base = toy_weights(masked=True)
        other_conv1 = base.copy()
        other_conv1.conv1_w[0, 0, 0, 0] += 0.25
        transport_cls = fed.InProcessTransport if kind == "inproc" else fed.LoopbackSocketTransport
        with transport_cls(sus, cfg, seed=4) as transport:
            for init in (base, other_conv1, toy_weights(seed=6, masked=True), base):
                got = fed.run_ftl(SPEC, init, cfg, transport)
                want, _ = serial_replay(init, sus, cfg, seed=4)
                assert tn.checkpoint_bytes(SPEC, got) == tn.checkpoint_bytes(SPEC, want)

    def test_server_reads_the_mask_once_per_run(self, monkeypatch):
        # encode_message and aggregate work from run_ftl's kept indices and
        # bitset: no per-round scan or packing of the mask on the server
        cfg = fed.FtlConfig(n_sus=3, rounds=5, local_epochs=1, batch_size=5, lr=0.05)
        broadcast = fed.encode_message(
            fed.ModelBroadcast(round_idx=0, spec=SPEC, weights=toy_weights(masked=True)))
        uploads = fed.InProcessTransport(self.make_sus(), cfg, seed=8).run_round(broadcast)
        weights = toy_weights(masked=True)  # a model that has not derived its kept entries

        class CannedTransport(fed.Transport):
            rounds = 0

            def run_round(self, broadcast_bytes):
                for upload in uploads:
                    upload.round_idx = self.rounds
                self.rounds += 1
                return uploads

        calls = []
        for name in ("flatnonzero", "packbits"):
            def counting(*args, _name=name, _original=getattr(np, name), **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counting)
        out = fed.run_ftl(SPEC, weights, cfg, CannedTransport())
        assert calls == ["flatnonzero", "packbits"]
        assert np.all(out.fc1_w[~weights.prune_mask] == 0)
        # run_ftl starts from its init, so a model that carries its kept
        # entries has them read by no run at all
        calls.clear()
        fed.run_ftl(SPEC, weights, cfg, CannedTransport())
        assert calls == []

    def test_close_before_first_round_ends_clients_cleanly(self, monkeypatch):
        errors = []
        monkeypatch.setattr(threading, "excepthook", errors.append)
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=1)
        for _ in range(5):
            with fed.LoopbackSocketTransport(sus, cfg, seed=13) as transport:
                pass
            assert not any(worker.is_alive() for worker in transport.workers)
        assert [error.exc_type for error in errors] == []

    @pytest.mark.parametrize("fails_at, error", [
        ("connect", ConnectionRefusedError), ("connect", ConnectionResetError),
        ("first_read", ConnectionResetError)])
    def test_refusal_or_reset_before_first_frame_ends_the_client(self, monkeypatch, fails_at,
                                                                 error):
        # a closed listener refuses the connect, one closed mid-handshake
        # resets it, and one closed with the SU in its accept backlog resets
        # the first read
        class ResetSocket:
            closed = False

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.closed = True

            def recv_into(self, view):
                raise error(104, "Connection reset by peer")

        sock = ResetSocket()

        def connect(address):
            if fails_at == "connect":
                raise error(111, "Connection refused or reset")
            return sock

        monkeypatch.setattr(fed.socket, "create_connection", connect)
        features, labels = toy_dataset()
        fed.run_su_client(("127.0.0.1", 9), 1, features, labels,
                          fed.FtlConfig(n_sus=1, rounds=1), seed=1)
        assert sock.closed == (fails_at == "first_read")

    def test_upload_count_mismatch_detected(self):
        class DroppingTransport(fed.Transport):
            def __init__(self, inner):
                self.inner = inner

            def run_round(self, broadcast_bytes):
                return self.inner.run_round(broadcast_bytes)[:-1]

        weights = toy_weights()
        sus = self.make_sus()
        cfg = fed.FtlConfig(n_sus=3, rounds=1, local_epochs=1, batch_size=5, lr=0.05)
        transport = DroppingTransport(fed.InProcessTransport(sus, cfg, seed=1))
        with pytest.raises(fed.ProtocolError):
            fed.run_ftl(SPEC, weights, cfg, transport)


class TestFrames:
    def test_frame_round_trip_over_socketpair(self):
        import socket

        a, b = socket.socketpair()
        try:
            payload = b"hello frames" * 100
            fed.send_frame(a, payload)
            assert fed.recv_frame(b) == payload
            a.close()
            assert fed.recv_frame(b) is None  # clean EOF
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        import socket
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<I", 100) + b"short")
            a.close()
            with pytest.raises(DecodeError):
                fed.recv_frame(b)
        finally:
            b.close()

    def test_payload_larger_than_socket_buffer(self):
        import socket

        a, b = socket.socketpair()
        try:
            payload = np.random.default_rng(0).bytes(8 << 20)
            assert len(payload) > a.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
            b.settimeout(10)
            sender = threading.Thread(target=fed.send_frame, args=(a, bytearray(payload)))
            sender.start()
            frame = fed.recv_frame(b)
            sender.join(timeout=10)
            assert not sender.is_alive()
            assert bytes(frame) == payload
        finally:
            a.close()
            b.close()

    @pytest.mark.parametrize("first_send", [0, 1, 4, 7])
    def test_partial_sendmsg_is_finished(self, first_send):
        class ShortSocket:
            def __init__(self):
                self.wire = bytearray()

            def sendmsg(self, buffers):
                joined = b"".join(bytes(buf) for buf in buffers)
                self.wire += joined[:first_send]
                return first_send

            def sendall(self, data):
                self.wire += data

        sock = ShortSocket()
        fed.send_frame(sock, b"abcdefgh")
        assert sock.wire == b"\x08\x00\x00\x00abcdefgh"

    def test_oversized_length_prefix_rejected(self):
        import socket
        import struct

        a, b = socket.socketpair()
        try:
            b.settimeout(5)
            a.sendall(struct.pack("<I", fed.MAX_FRAME_BYTES + 1) + b"xx")
            with pytest.raises(DecodeError, match="cap"):
                fed.recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_frame_cap_is_inclusive(self, monkeypatch):
        import socket

        monkeypatch.setattr(fed, "MAX_FRAME_BYTES", 16)
        a, b = socket.socketpair()
        try:
            b.settimeout(5)
            fed.send_frame(a, bytes(16))
            assert fed.recv_frame(b) == bytes(16)
            with pytest.raises(ValueError, match="cap"):
                fed.send_frame(a, bytes(17))
        finally:
            a.close()
            b.close()

    def test_received_broadcast_decodes_to_aligned_views(self):
        import socket

        weights = toy_weights(masked=True)
        data = fed.encode_message(fed.ModelBroadcast(round_idx=2, spec=SPEC, weights=weights))
        a, b = socket.socketpair()
        try:
            fed.send_frame(a, data)
            frame = fed.recv_frame(b)
        finally:
            a.close()
            b.close()
        decoded = fed.decode_message(frame).weights
        for name in tn.PARAM_NAMES:
            array = getattr(decoded, name)
            assert array.flags.aligned, name
            # the dense fc1_w is scattered from the kept values; the rest are views
            assert name == "fc1_w" or not array.flags.owndata, name
            assert np.array_equal(array, getattr(weights, name)), name


def scripted_su(sock, su, cfg, answers, then):
    """Serve the broadcasts on ``sock`` as ``su``: answer the first
    ``answers`` (all of them for None), then close the connection on the
    next one (``then="leave"``), reset it (``"reset"``) or read on without
    answering until EOF (``"stall"``)."""
    with sock:
        answered = 0
        while (frame := fed.recv_frame(sock)) is not None:
            if answers is not None and answered == answers:
                if then == "reset":  # linger 0: the close sends a reset, not a FIN
                    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
                if then != "stall":
                    return
                continue
            fed.send_frame(sock, su.answer(fed.decode_message(frame), cfg, seed=3))
            answered += 1


class TestSocketFaults:
    def test_late_upload_of_an_aborted_attempt_is_dropped(self, monkeypatch):
        # SU 2's round-0 upload comes after the server gave up on attempt 0
        # and broadcast attempt 1; it must not count for attempt 1, nor stay
        # queued for round 1
        weights = toy_weights(masked=True)
        sus = uneven_sus((10, 15))
        cfg = fed.FtlConfig(n_sus=2, rounds=3, local_epochs=1, batch_size=5, lr=0.05,
                            timeout_s=1.0, max_retries=2)
        want = fed.run_ftl(SPEC, weights, cfg, fed.InProcessTransport(sus, cfg, seed=3))
        original = fed.local_training
        slowed = []

        def slow_first_round_of_su_2(*args, **kwargs):
            upload = original(*args, **kwargs)
            if upload.su_id == 2 and not slowed:
                slowed.append(upload.round_idx)
                time.sleep(1.5 * cfg.timeout_s)
            return upload

        monkeypatch.setattr(fed, "local_training", slow_first_round_of_su_2)
        with RecordingTransport(fed.LoopbackSocketTransport(sus, cfg, seed=3)) as transport:
            got = fed.run_ftl(SPEC, weights, cfg, transport)
        assert slowed == [0]
        assert tn.checkpoint_bytes(SPEC, got) == tn.checkpoint_bytes(SPEC, want)
        tags = [sorted((u.su_id, u.round_idx, u.attempt)
                       for u in (fed.decode_message(b) for _, b in r)) for r in transport.rounds]
        assert tags == [[(1, 0, 1), (2, 0, 1)], [(1, 1, 0), (2, 1, 0)], [(1, 2, 0), (2, 2, 0)]]

    @pytest.mark.parametrize("round1_ids, message", [
        ((2, 1), "connection of SU 1 sent an upload as SU 2"),  # two SUs swap ids
        ((7, 2), "connection of SU 1 sent an upload as SU 7"),  # an id no SU had
    ])
    def test_connection_is_bound_to_its_first_su_id(self, round1_ids, message):
        weights = toy_weights(masked=True)
        server = fed.SocketServerTransport(n_sus=2, timeout_s=2.0, max_retries=0)
        # connected one after the other, so accepted in this order
        clients = [socket.create_connection(server.address) for _ in range(2)]
        try:
            server.wait_for_clients()
            for client, ids in zip(clients, zip((1, 2), round1_ids)):
                for round_idx, su_id in enumerate(ids):
                    frame = fed.encode_message(toy_upload(round_idx=round_idx, su_id=su_id,
                                                          mask=weights.prune_mask))
                    client.sendall(struct.pack("<I", len(frame)) + frame)
            uploads = server.run_round(fed.encode_message(fed.ModelBroadcast(0, SPEC, weights)))
            assert [u.su_id for u in uploads] == [1, 2]
            with pytest.raises(fed.ProtocolError, match=message):
                server.run_round(fed.encode_message(fed.ModelBroadcast(1, SPEC, weights)))
            with pytest.raises(fed.ProtocolError, match="closed after a frame error"):
                server.run_round(fed.encode_message(fed.ModelBroadcast(1, SPEC, weights)))
        finally:
            server.close()
            for client in clients:
                client.close()

    def test_one_su_id_on_two_connections_is_a_protocol_error(self):
        weights = toy_weights(masked=True)
        server = fed.SocketServerTransport(n_sus=2, timeout_s=2.0, max_retries=0)
        clients = [socket.create_connection(server.address) for _ in range(2)]
        try:
            server.wait_for_clients()
            frame = fed.encode_message(toy_upload(round_idx=0, su_id=3, mask=weights.prune_mask))
            for client in clients:
                client.sendall(struct.pack("<I", len(frame)) + frame)
            with pytest.raises(fed.ProtocolError, match="SU 3 uploaded on a second connection"):
                server.run_round(fed.encode_message(fed.ModelBroadcast(0, SPEC, weights)))
        finally:
            server.close()
            for client in clients:
                client.close()

    @pytest.fixture()
    def no_listener(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("listener opened")

        monkeypatch.setattr(fed.socket, "create_server", refuse)

    @pytest.mark.parametrize("setting, value", [("timeout_s", 0), ("timeout_s", -1.0),
                                                ("max_retries", -1)])
    def test_bad_timeout_or_retries_named_before_listening(self, no_listener, setting, value):
        # FtlConfig rejects both, so no transport opens a listener or starts an
        # SU thread for them
        with pytest.raises(ValueError, match=f"^{setting} must be "):
            fed.FtlConfig(n_sus=1, rounds=1, **{setting: value})

    def test_server_transport_checks_its_own_timeout(self, no_listener):
        # a server built directly takes its numbers from the caller, not from
        # an FtlConfig
        with pytest.raises(ValueError, match="timeout_s"):
            fed.SocketServerTransport(n_sus=1, timeout_s=0)

    def test_round_fails_when_an_su_never_connects(self):
        # the round runs on a daemon thread, so a server blocked in accept
        # fails the join below instead of hanging the suite
        server = fed.SocketServerTransport(n_sus=2, timeout_s=0.5, max_retries=0)
        client = socket.create_connection(server.address)
        broadcast = fed.encode_message(fed.ModelBroadcast(0, SPEC, toy_weights()))
        errors = []

        def run_round():
            try:
                server.run_round(broadcast)
            except Exception as exc:
                errors.append(exc)

        thread = threading.Thread(target=run_round, daemon=True)
        try:
            thread.start()
            thread.join(timeout=5)
            assert not thread.is_alive(), "the server still waits for the second SU"
        finally:
            server.close()
            client.close()
        assert [type(exc) for exc in errors] == [fed.ProtocolError]
        assert "1 of 2 SUs connected" in str(errors[0])

    @pytest.mark.parametrize("answers, then, message", [
        (1, "leave", "SU 2 closed its connection mid-round"),
        (0, "leave", "the SU on connection 0 closed its connection mid-round"),
        # a reset SU fails the round's upload, or under load the retry's broadcast
        (1, "reset", "SU 2 closed its connection mid-round|sending a broadcast to SU 2 failed"),
        (1, "stall", r"round failed after 2 attempts: SU 2 sent no upload within 1\.0 s"),
    ], ids=["leaves-after-uploading", "leaves-before-uploading", "resets-after-uploading",
            "stalls"])
    def test_failing_su_is_named(self, answers, then, message):
        # SU 2 answers ``answers`` rounds, then closes or resets its
        # connection on the next broadcast, or reads on without answering;
        # the round fails with a ProtocolError naming it, and every thread
        # ends. SU 1 runs the real client, and closing the server with its
        # upload unread resets it, which must end it as cleanly as an EOF
        weights = toy_weights(masked=True)
        sus = uneven_sus((10, 15))
        cfg = fed.FtlConfig(n_sus=2, rounds=3, local_epochs=1, batch_size=5, lr=0.05,
                            timeout_s=1.0, max_retries=1)
        server = fed.SocketServerTransport(n_sus=2, timeout_s=cfg.timeout_s, max_retries=cfg.max_retries)
        # connected before SU 1's thread starts, so SU 2 is connection 0
        # and fails each round before SU 1's upload is read
        failing = socket.create_connection(server.address)
        errors = []

        def drive():
            try:
                fed.run_ftl(SPEC, weights, cfg, server)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=scripted_su, args=(failing, sus[1], cfg, answers, then)),
                   threading.Thread(target=sus[0].serve, args=(server.address, cfg, 3)),
                   threading.Thread(target=drive)]
        for thread in threads:
            thread.daemon = True  # a hang fails the joins below instead of the suite
            thread.start()
        try:
            threads[-1].join(timeout=20)
        finally:
            server.close()
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert [type(exc) for exc in errors] == [fed.ProtocolError]
        assert re.search(message, str(errors[0]))

    def test_su_that_resets_before_a_broadcast_is_named(self):
        # SU 2 uploads round 0, then resets its connection; sending round
        # 1's broadcast to it fails with a ProtocolError naming it and
        # closes that connection, so the next round says so. SU 1 runs the
        # real client, which the closing server ends with an EOF
        weights = toy_weights(masked=True)
        sus = uneven_sus((10, 15))
        cfg = fed.FtlConfig(n_sus=2, rounds=2, local_epochs=1, batch_size=5, lr=0.05,
                            timeout_s=2.0, max_retries=0)
        server = fed.SocketServerTransport(n_sus=2, timeout_s=cfg.timeout_s, max_retries=0)
        failing = socket.create_connection(server.address)  # connection 0
        uploaded = threading.Event()

        def upload_then_reset():
            with failing:
                frame = fed.recv_frame(failing)
                fed.send_frame(failing, sus[1].answer(fed.decode_message(frame), cfg, seed=3))
                uploaded.wait(timeout=10)
                # linger 0: the close sends a reset, not a FIN
                failing.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))

        threads = [threading.Thread(target=upload_then_reset, daemon=True),
                   threading.Thread(target=sus[0].serve, args=(server.address, cfg, 3), daemon=True)]
        for thread in threads:
            thread.start()
        try:
            server.wait_for_clients()
            uploads = server.run_round(fed.encode_message(fed.ModelBroadcast(0, SPEC, weights)))
            assert [u.su_id for u in uploads] == [2, 1]
            uploaded.set()
            threads[0].join(timeout=10)
            broadcast = fed.encode_message(fed.ModelBroadcast(1, SPEC, weights))
            with pytest.raises(fed.ProtocolError, match="sending a broadcast to SU 2 failed"):
                server.run_round(broadcast)
            with pytest.raises(fed.ProtocolError, match="closed after a frame error"):
                server.run_round(broadcast)
        finally:
            uploaded.set()
            server.close()
            for thread in threads:
                thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)

    def test_timeout_inside_a_frame_is_a_protocol_error(self):
        a, b = socket.socketpair()
        try:
            b.settimeout(0.2)
            with pytest.raises(TimeoutError):  # between frames: the stream is in sync
                fed.recv_frame(b)
            a.sendall(b"\x10\x00")
            with pytest.raises(fed.ProtocolError, match="mid-frame after 2 bytes"):
                fed.recv_frame(b)
        finally:
            a.close()
            b.close()
        a, b = socket.socketpair()
        try:
            b.settimeout(0.2)
            a.sendall(struct.pack("<I", 100) + bytes(10))
            with pytest.raises(fed.ProtocolError, match="mid-frame after 14 bytes"):
                fed.recv_frame(b)
        finally:
            a.close()
            b.close()

    def serve_one_raw_su(self, reply):
        """A server with one connected raw socket that sends ``reply``
        before the first broadcast; (server, client socket, broadcast)."""
        server = fed.SocketServerTransport(n_sus=1, timeout_s=0.3, max_retries=2)
        client = socket.create_connection(server.address)
        server.wait_for_clients()
        client.sendall(reply)
        broadcast = fed.encode_message(fed.ModelBroadcast(0, SPEC, toy_weights(masked=True)))
        return server, client, broadcast

    def test_server_drops_a_connection_that_stalls_mid_frame(self):
        upload = fed.encode_message(toy_upload(round_idx=0, su_id=1,
                                               mask=toy_weights(masked=True).prune_mask))
        server, client, broadcast = self.serve_one_raw_su(struct.pack("<I", len(upload)) + upload[:10])
        try:
            with pytest.raises(fed.ProtocolError, match="mid-frame"):
                server.run_round(broadcast)
            # the rest of the frame may still come; nothing reads it again
            with pytest.raises(fed.ProtocolError, match="closed after a frame error"):
                server.run_round(broadcast)
        finally:
            server.close()
            client.close()

    def test_server_drops_a_connection_that_stops_reading(self):
        # an SU that reads nothing fills the socket buffers; a send that
        # times out part-way leaves that stream out of sync
        server, client, broadcast = self.serve_one_raw_su(b"")
        try:
            with pytest.raises(fed.ProtocolError, match="sending"):
                server.run_round(broadcast + bytes(48 << 20))
            with pytest.raises(fed.ProtocolError, match="closed after a frame error"):
                server.run_round(broadcast)
        finally:
            server.close()
            client.close()

    def test_upload_tagged_ahead_of_the_round_is_a_protocol_error(self):
        upload = toy_upload(round_idx=0, su_id=1, mask=toy_weights(masked=True).prune_mask)
        upload.attempt = 1
        frame = fed.encode_message(upload)
        server, client, broadcast = self.serve_one_raw_su(struct.pack("<I", len(frame)) + frame)
        try:
            with pytest.raises(fed.ProtocolError, match="ahead"):
                server.run_round(broadcast)
        finally:
            server.close()
            client.close()


def uneven_sus(counts, ids=None):
    ids = ids or range(1, len(counts) + 1)
    return [fed.LocalSu(su_id, *toy_dataset(seed=200 + su_id, count=count))
            for su_id, count in zip(ids, counts)]


def serial_replay(weights, sus, cfg, seed):
    """Every round's SUs one after another on the calling thread, each upload
    through the codec: (final model, per round [(su_id, upload bytes)])."""
    rounds = []
    for round_idx in range(cfg.rounds):
        uploads = [fed.decode_message(fed.encode_message(fed.local_training(
            SPEC, weights, su.features, su.labels, su.su_id, round_idx, cfg, seed)))
            for su in sorted(sus, key=lambda su: su.su_id)]
        rounds.append([(u.su_id, bytes(fed.encode_message(u))) for u in uploads])
        weights = fed.aggregate(weights, uploads, cfg.lr)
    return weights, rounds


class RecordingTransport(fed.Transport):
    """Passes rounds through, keeping each round's (su_id, upload bytes)."""

    def __init__(self, inner):
        self.inner = inner
        self.rounds = []

    def run_round(self, broadcast_bytes):
        uploads = self.inner.run_round(broadcast_bytes)
        self.rounds.append([(u.su_id, bytes(fed.encode_message(u))) for u in uploads])
        return uploads

    def close(self):
        self.inner.close()


def old_aggregate(weights, uploads, lr):
    """The dense sum, step and np.where that aggregate replaced."""
    ordered = sorted(uploads, key=lambda u: u.su_id)
    total = sum(u.n_samples for u in ordered)
    dtype = weights.dtype
    acc = {name: np.zeros_like(getattr(weights, name)) for name in tn.DOMAIN_SPECIFIC_PARAMS}
    for upload in ordered:
        coeff = dtype.type(upload.n_samples / total)
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            acc[name] += coeff * getattr(upload, name).astype(dtype, copy=False)
    fields = dict(weights.arrays())
    for name in tn.DOMAIN_SPECIFIC_PARAMS:
        fields[name] = fields[name] - dtype.type(lr) * acc[name]
    mask = weights.prune_mask
    if mask is not None:
        fields["fc1_w"] = np.where(mask, fields["fc1_w"], dtype.type(0))
        mask = mask.copy()
    return tn.ModelWeights(**fields, prune_mask=mask)


def old_local_training(spec, global_weights, features, labels, su_id, round_idx, cfg, seed):
    """local_training with an SGD step after every batch, the last included,
    on full-cache gradients; it accumulates the dense fc1_w gradient, pruned
    entries and all."""
    n = features.shape[0]
    rng = fed.su_round_rng(seed, su_id, round_idx)
    local = global_weights.copy()
    dtype = local.dtype
    acc = {name: np.zeros_like(getattr(local, name)) for name in tn.DOMAIN_SPECIFIC_PARAMS}
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, cache = tn.forward(spec, local, features[idx], train=True, rng=rng)
            # the model without its mask gives the dense fc1_w gradient
            grads = ds_gradients(spec, tn.ModelWeights(**local.arrays()), cache, labels[idx])
            step = dict(grads)
            if local.prune_mask is not None:  # sgd_step takes a masked model's kept values
                step["fc1_w"] = kept_part("fc1_w", grads["fc1_w"], local.prune_mask)
            local = tn.sgd_step(local, step, cfg.lr)
            for name in tn.DOMAIN_SPECIFIC_PARAMS:
                acc[name] += grads[name].astype(dtype, copy=False)
    return fed.GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n, **acc)


def assert_bitwise_equal(got, want, names):
    for name in names:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


class TestAggregateOracle:
    def hostile(self, weights_dtype, upload_dtype, masked):
        # garbage (NaN, nonzero) at pruned positions, -0.0 at kept positions;
        # without a mask an upload carries every entry, and a non-finite one
        # is rejected, so the uploads' garbage there is finite
        toy = toy_weights(masked=True)
        mask = toy.prune_mask
        weights = tn.ModelWeights(**{n: a.astype(weights_dtype) for n, a in toy.arrays().items()},
                                  prune_mask=mask)
        pruned, kept = np.flatnonzero(~mask), np.flatnonzero(mask)
        weights.fc1_w.reshape(-1)[pruned[::2]] = np.nan
        weights.fc1_w.reshape(-1)[pruned[1::2]] = 3.0
        weights.fc1_w.reshape(-1)[kept[:4]] = -0.0
        uploads = [toy_upload(seed=s, su_id=s, n_samples=10 * s) for s in (3, 1, 2)]
        for upload in uploads:
            upload.fc1_w.reshape(-1)[pruned[::3]] = np.nan if masked else 5.0
            upload.fc1_w.reshape(-1)[kept[:2]] = 0.0
            upload.fc1_w.reshape(-1)[kept[2:4]] = -0.0
            for name in tn.DOMAIN_SPECIFIC_PARAMS:
                setattr(upload, name, getattr(upload, name).astype(upload_dtype))
        return weights, uploads

    @pytest.mark.parametrize("weights_dtype, upload_dtype", [
        (np.float32, np.float32), (np.float64, np.float32), (np.float32, np.float64)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_bitwise_equal_to_dense_where(self, weights_dtype, upload_dtype, masked):
        # the oracle sums the dense uploads, garbage at pruned entries and
        # all; aggregate gets what the wire carries, the kept entries
        weights, uploads = self.hostile(weights_dtype, upload_dtype, masked)
        if not masked:
            weights.prune_mask = None
        before = {n: getattr(weights, n).tobytes() for n in tn.PARAM_NAMES}
        out = fed.aggregate(weights, [on_the_wire(u, weights.prune_mask) for u in uploads], lr=0.3)
        assert_bitwise_equal(out, old_aggregate(weights, uploads, lr=0.3), tn.PARAM_NAMES)
        for name in tn.PARAM_NAMES:
            assert getattr(weights, name).tobytes() == before[name], name

    def test_shape_mismatch_rejected(self):
        weights = toy_weights(masked=True)
        upload = toy_upload(su_id=1, mask=weights.prune_mask)
        upload.out_b = upload.out_b[:-1]
        with pytest.raises(fed.ProtocolError, match="out_b"):
            fed.aggregate(weights, [upload], lr=0.1)

    @pytest.mark.parametrize("masked", [False, True])
    def test_fc1_value_count_mismatch_rejected(self, masked):
        weights = toy_weights(masked=masked)
        upload = toy_upload(su_id=1, mask=weights.prune_mask)
        upload.fc1_w = upload.fc1_w.reshape(-1)[:-1]
        with pytest.raises(fed.ProtocolError, match="fc1_w"):
            fed.aggregate(weights, [upload], lr=0.1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_upload_rejected(self, monkeypatch, bad):
        # a NaN out_b survived the codec and aggregate into a NaN model
        weights = toy_weights(masked=True)
        upload = toy_upload(su_id=2, mask=weights.prune_mask)
        upload.out_b[1] = bad
        uploads = [toy_upload(seed=1, su_id=1, mask=weights.prune_mask),
                   fed.decode_message(fed.encode_message(upload))]
        monkeypatch.setattr(fed, "sgd_step", None)  # rejected before any arithmetic
        with pytest.raises(fed.ProtocolError, match="SU 2 has non-finite out_b"):
            fed.aggregate(weights, uploads, lr=0.1)

    @pytest.mark.parametrize("counts", [(10, 0), (0, 0)], ids=["one-empty", "all-empty"])
    def test_zero_sample_upload_rejected(self, counts):
        # (10, 0) gave SU 2 zero weight silently; (0, 0) raised a bare ValueError
        weights = toy_weights(masked=True)
        uploads = [toy_upload(seed=i, su_id=i + 1, n_samples=n, mask=weights.prune_mask)
                   for i, n in enumerate(counts)]
        with pytest.raises(fed.ProtocolError, match=f"SU {counts.index(0) + 1} reports no samples"):
            fed.aggregate(weights, uploads, lr=0.1)


class TestLocalTrainingOracle:
    @pytest.mark.parametrize("count, batch_size, epochs", [(20, 20, 1), (20, 6, 1), (15, 5, 2)])
    @pytest.mark.parametrize("masked", [False, True])
    def test_upload_equals_every_step_training(self, count, batch_size, epochs, masked):
        weights = toy_weights(masked=masked)
        features, labels = toy_dataset(seed=4, count=count)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=epochs, batch_size=batch_size,
                            lr=0.05)
        got = fed.local_training(SPEC, weights, features, labels, 2, 3, cfg, seed=17)
        want = old_local_training(SPEC, weights, features, labels, 2, 3, cfg, seed=17)
        assert_bitwise_equal(got, on_the_wire(want, weights.prune_mask), tn.DOMAIN_SPECIFIC_PARAMS)

    @pytest.mark.parametrize("count, batch_size, epochs, steps", [
        (20, 20, 1, 0), (20, 6, 1, 3), (15, 5, 2, 5)])
    def test_no_step_after_the_last_batch(self, monkeypatch, count, batch_size, epochs, steps):
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(1)
            return tn.sgd_step(*args, **kwargs)

        monkeypatch.setattr(fed, "sgd_step", counting_step)
        features, labels = toy_dataset(count=count)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=epochs, batch_size=batch_size)
        fed.local_training(SPEC, toy_weights(), features, labels, 1, 0, cfg, seed=5)
        assert len(calls) == steps

    @pytest.mark.parametrize("masked", [False, True])
    def test_precomputed_conv1_gives_the_same_upload(self, masked):
        weights = toy_weights(masked=masked)
        features, labels = toy_dataset(seed=4, count=15)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=2, batch_size=4, lr=0.05)
        conv1 = tn.conv1_activations(SPEC, weights, features)
        got = fed.local_training(SPEC, weights, features, labels, 2, 3, cfg, seed=17,
                                 conv1_out=conv1)
        want = old_local_training(SPEC, weights, features, labels, 2, 3, cfg, seed=17)
        assert_bitwise_equal(got, on_the_wire(want, weights.prune_mask), tn.DOMAIN_SPECIFIC_PARAMS)

    # block rows 5 (3) split the toy model's 16 fc1 rows into three (five)
    # blocks and a partial one, with rows 5 to 9 pruned, so one block has no
    # kept entry; 1000 split the desk model's 2688 rows into two blocks and
    # a partial one
    @pytest.mark.parametrize("desk, block_rows", [(False, 5), (False, 3), (True, 1000)],
                             ids=["toy-5-rows", "toy-3-rows", "desk-1000-rows"])
    def test_upload_equals_every_step_training_over_gradient_blocks(self, monkeypatch, desk,
                                                                    block_rows):
        from ftlwss import harness, pruning

        if desk:
            spec = harness.scaled_default().detector_spec()
            rng = np.random.default_rng(2)
            weights, _ = pruning.prune_model(tn.init_weights(spec, rng), 0.9)
            features = rng.normal(size=(30, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
            labels = (rng.random((30, spec.in_rows)) < 0.4).astype(np.int8)
        else:
            spec, toy = SPEC, toy_weights(masked=True)
            mask = toy.prune_mask.copy()
            mask[5:10] = False
            weights = tn.ModelWeights(
                **{**toy.arrays(), "fc1_w": np.where(mask, toy.fc1_w, np.float32(0))},
                prune_mask=mask)
            features, labels = toy_dataset(seed=4, count=15)
        monkeypatch.setattr(tn, "_CONV_BLOCK_BYTES", block_rows * spec.hidden_units * 4)
        assert spec.flat_dim > 2 * block_rows and spec.flat_dim % block_rows
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=2, batch_size=12, lr=0.05)
        want = old_local_training(spec, weights, features, labels, 2, 3, cfg, seed=17)
        for conv1_out in (None, tn.conv1_activations(spec, weights, features)):
            got = fed.local_training(spec, weights, features, labels, 2, 3, cfg, seed=17,
                                     conv1_out=conv1_out)
            assert_bitwise_equal(got, on_the_wire(want, weights.prune_mask),
                                 tn.DOMAIN_SPECIFIC_PARAMS)

    def test_desk_shape_peak_memory(self):
        # one batch's forward cache (conv2's im2col alone is about 4.8 MB
        # here) must be gone before the next forward: 19.4 MB when it was not
        from ftlwss import harness, pruning

        spec = harness.scaled_default().detector_spec()
        rng = np.random.default_rng(0)
        weights, _ = pruning.prune_model(tn.init_weights(spec, rng), 0.9)
        features = rng.normal(size=(50, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((50, spec.in_rows)) < 0.4).astype(np.int8)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=1, batch_size=25)
        tracemalloc.start()
        try:
            fed.local_training(spec, weights, features, labels, 1, 0, cfg, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 14e6

    def test_full_scale_peak_memory(self):
        # an SU's full-scale round as it runs after the first (conv1 rows
        # cached, kept entries carried): 27.5 MB with the dense fc1_w
        # gradient, the batch's copy of the conv1 rows and whole-mask
        # float64 dropout draws
        from ftlwss import harness, pruning

        spec = harness.full_scale().detector_spec()
        rng = np.random.default_rng(0)
        weights, _ = pruning.prune_model(tn.init_weights(spec, rng), 0.9)
        assert weights.kept.indices is not None  # derived before tracing, as a carried model has them
        features = rng.normal(size=(25, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((25, spec.in_rows)) < 0.4).astype(np.int8)
        conv1 = tn.conv1_activations(spec, weights, features)
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=1, batch_size=25)
        tracemalloc.start()
        try:
            fed.local_training(spec, weights, features, labels, 1, 0, cfg, seed=3, conv1_out=conv1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 22e6

    def test_trains_on_read_only_broadcast(self):
        weights = toy_weights(masked=True)
        _, read_only = tn.parse_checkpoint(bytes(tn.checkpoint_bytes(SPEC, weights)))
        assert not read_only.fc1_w.flags.writeable
        features, labels = toy_dataset()
        cfg = fed.FtlConfig(n_sus=1, rounds=1, local_epochs=2, batch_size=7)
        got = fed.local_training(SPEC, read_only, features, labels, 1, 0, cfg, seed=5)
        want = old_local_training(SPEC, weights, features, labels, 1, 0, cfg, seed=5)
        assert_bitwise_equal(got, on_the_wire(want, weights.prune_mask), tn.DOMAIN_SPECIFIC_PARAMS)
