"""Encoders, decoders and their failure modes.

The oracle encoders below are the ``b"".join`` implementations the sized
single-buffer encoders replaced; the bytes must stay identical.
"""

import struct

import numpy as np
import pytest

from ftlwss import federation as fed
from ftlwss import harness
from ftlwss import tensornet as tn
from ftlwss.codec import ByteReader, DecodeError, encode_tensor


def old_encode_tensor(array):
    array = np.ascontiguousarray(array, dtype="<f4")
    header = struct.pack("<I", array.ndim) + struct.pack(f"<{array.ndim}I", *array.shape)
    return header + array.tobytes()


def old_checkpoint_bytes(spec, weights):
    parts = [tn.CHECKPOINT_MAGIC, struct.pack("<I", tn.CHECKPOINT_VERSION)]
    parts.append(struct.pack(
        "<5I2f",
        spec.in_rows, spec.in_cols, spec.conv1_filters, spec.conv2_filters,
        spec.hidden_units, spec.dropout_conv, spec.dropout_fc,
    ))
    for name in tn.PARAM_NAMES:
        parts.append(old_encode_tensor(getattr(weights, name)))
    if weights.prune_mask is None:
        parts.append(struct.pack("<B", 0))
    else:
        bits = np.packbits(weights.prune_mask.astype(np.uint8).reshape(-1), bitorder="little")
        parts.append(struct.pack("<BQ", 1, weights.prune_mask.size))
        parts.append(bits.tobytes())
    return b"".join(parts)


def old_encode_message(msg):
    parts = [fed.MESSAGE_MAGIC, struct.pack("<I", fed.MESSAGE_VERSION)]
    if isinstance(msg, fed.ModelBroadcast):
        parts.append(struct.pack("<BI", fed.MSG_BROADCAST, msg.round_idx))
        parts.append(old_checkpoint_bytes(msg.spec, msg.weights))
    else:
        parts.append(struct.pack("<BI", fed.MSG_UPLOAD, msg.round_idx))
        parts.append(struct.pack("<IQ", msg.su_id, msg.n_samples))
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            parts.append(old_encode_tensor(getattr(msg, name)))
    return b"".join(parts)


SPECS = {
    "desk": harness.scaled_default().detector_spec(),
    "full": harness.full_scale().detector_spec(),
}


def model(scale, masked, dtype):
    spec = SPECS[scale]
    weights = tn.init_weights(spec, np.random.default_rng(7), dtype=np.float64).astype(dtype)
    if masked:
        mask = np.random.default_rng(8).random(weights.fc1_w.shape) > 0.9
        weights.fc1_w = np.where(mask, weights.fc1_w, dtype(0))
        weights.prune_mask = mask
    return spec, weights


class TestEncoderOracle:
    @pytest.mark.parametrize("scale", ["desk", "full"])
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_checkpoint_and_broadcast_bytes_unchanged(self, scale, masked, dtype):
        spec, weights = model(scale, masked, dtype)
        assert tn.checkpoint_bytes(spec, weights) == old_checkpoint_bytes(spec, weights)
        msg = fed.ModelBroadcast(round_idx=11, spec=spec, weights=weights)
        assert fed.encode_message(msg) == old_encode_message(msg)

    @pytest.mark.parametrize("scale", ["desk", "full"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upload_bytes_unchanged(self, scale, dtype):
        rng = np.random.default_rng(9)
        shapes = SPECS[scale].param_shapes()
        upload = fed.GradientUpload(
            round_idx=4, su_id=3, n_samples=2**40 + 5,
            **{n: rng.normal(size=shapes[n]).astype(dtype) for n in tn.DOMAIN_SPECIFIC_PARAMS})
        assert fed.encode_message(upload) == old_encode_message(upload)

    @pytest.mark.parametrize("array", [
        np.array(2.5),
        np.arange(12, dtype=np.float64).reshape(3, 4).T,  # not contiguous
        np.zeros((0, 5), dtype=np.float32),
        [[1.0, -0.0], [np.nan, np.inf]],
    ])
    def test_encode_tensor_unchanged(self, array):
        encoded = encode_tensor(array)
        assert isinstance(encoded, bytearray)
        assert encoded == old_encode_tensor(array)


def upload_with_first_tensor(rank, dims):
    header = struct.pack("<4sIBIIQ", fed.MESSAGE_MAGIC, fed.MESSAGE_VERSION,
                         fed.MSG_UPLOAD, 0, 1, 1)
    return header + struct.pack(f"<I{rank}I", rank, *dims) + bytes(16)


class TestDecodeErrors:
    @pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1, 2**32 - 1), (2**31, 4)])
    def test_overflowing_tensor_dimensions(self, dims):
        # an int64 element count wraps to zero or below for these shapes
        with pytest.raises(DecodeError, match="needs"):
            fed.decode_message(upload_with_first_tensor(len(dims), dims))

    @pytest.mark.parametrize("field, offset, value", [
        ("in_rows", 8, struct.pack("<I", 2)),
        ("hidden_units", 24, struct.pack("<I", 0)),
        ("dropout_fc", 32, struct.pack("<f", 1.5)),
    ])
    def test_invalid_spec_header(self, field, offset, value):
        spec, weights = model("desk", True, np.float32)
        data = bytearray(tn.checkpoint_bytes(spec, weights))
        data[offset:offset + 4] = value
        with pytest.raises(DecodeError, match="spec header") as err:
            tn.parse_checkpoint(data)
        assert err.value.offset == 8

    def test_tensor_reads_exact_payload(self):
        data = encode_tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        reader = ByteReader(bytes(data[:-1]))
        with pytest.raises(DecodeError, match="needs 24 bytes, 23 left"):
            reader.tensor()


class TestDecodedViews:
    def test_loaded_checkpoint_is_writable(self, tmp_path):
        spec, weights = model("desk", True, np.float32)
        tn.save_checkpoint(tmp_path / "m.bin", spec, weights)
        _, loaded = tn.load_checkpoint(tmp_path / "m.bin")
        for name in tn.PARAM_NAMES:
            array = getattr(loaded, name)
            assert array.flags.writeable and array.flags.aligned, name
            array.reshape(-1)[0] = 1.0
        assert loaded.prune_mask.flags.writeable

    def test_bytes_input_decodes_read_only_views(self):
        spec, weights = model("desk", False, np.float32)
        data = bytes(tn.checkpoint_bytes(spec, weights))
        _, parsed = tn.parse_checkpoint(data)
        assert not parsed.fc1_w.flags.writeable
        assert np.array_equal(parsed.fc1_w, weights.fc1_w)

    def test_unaligned_payload_is_copied(self):
        # a message header is 1 mod 4 bytes long; BLAS needs aligned operands
        upload = fed.GradientUpload(
            round_idx=0, su_id=1, n_samples=1,
            **{n: np.full((2, 3), 0.5, dtype=np.float32) for n in tn.DOMAIN_SPECIFIC_PARAMS})
        decoded = fed.decode_message(fed.encode_message(upload))
        for name in tn.DOMAIN_SPECIFIC_PARAMS:
            assert getattr(decoded, name).flags.aligned
