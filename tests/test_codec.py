"""Encoders, decoders and their failure modes.

The oracle encoders below are ``b"".join`` implementations of the formats
the sized single-buffer encoders write; the bytes must stay identical.
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


def old_spec_header(spec):
    return struct.pack(
        "<5I2f",
        spec.in_rows, spec.in_cols, spec.conv1_filters, spec.conv2_filters,
        spec.hidden_units, spec.dropout_conv, spec.dropout_fc,
    )


def old_mask_section(mask):
    if mask is None:
        return struct.pack("<B", 0)
    bits = np.packbits(mask.astype(np.uint8).reshape(-1), bitorder="little")
    return struct.pack("<BQ", 1, mask.size) + bits.tobytes()


def old_checkpoint_bytes(spec, weights):
    parts = [tn.CHECKPOINT_MAGIC, struct.pack("<I", tn.CHECKPOINT_VERSION), old_spec_header(spec)]
    for name in tn.PARAM_NAMES:
        parts.append(old_encode_tensor(getattr(weights, name)))
    parts.append(old_mask_section(weights.prune_mask))
    return b"".join(parts)


def old_encode_message(msg):
    """Message format v3: the header carries a u32 type and (round,
    attempt); a broadcast sends fc1_w as the 1-D tensor of its values where
    the mask is set."""
    parts = [fed.MESSAGE_MAGIC, struct.pack("<I", fed.MESSAGE_VERSION)]
    if isinstance(msg, fed.ModelBroadcast):
        weights, mask = msg.weights, msg.weights.prune_mask
        parts.append(struct.pack("<III", fed.MSG_BROADCAST, msg.round_idx, msg.attempt))
        parts.append(old_spec_header(msg.spec))
        for name in tn.PARAM_NAMES:
            array = getattr(weights, name)
            if name == "fc1_w":
                array = array.reshape(-1) if mask is None else array[mask]
            parts.append(old_encode_tensor(array))
        parts.append(old_mask_section(mask))
    else:
        parts.append(struct.pack("<III", fed.MSG_UPLOAD, msg.round_idx, msg.attempt))
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
    init = tn.init_weights(spec, np.random.default_rng(7), dtype=np.float64)
    weights = tn.ModelWeights(**{n: a.astype(dtype) for n, a in init.arrays().items()})
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
        msg = fed.ModelBroadcast(round_idx=11, spec=spec, weights=weights, attempt=3)
        assert fed.encode_message(msg) == old_encode_message(msg)

    @pytest.mark.parametrize("scale", ["desk", "full"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_upload_bytes_unchanged(self, scale, dtype):
        rng = np.random.default_rng(9)
        shapes = SPECS[scale].param_shapes()
        upload = fed.GradientUpload(
            round_idx=4, su_id=3, n_samples=2**40 + 5, attempt=2**32 - 1,
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
    header = struct.pack("<4sIIIIIQ", fed.MESSAGE_MAGIC, fed.MESSAGE_VERSION,
                         fed.MSG_UPLOAD, 0, 0, 1, 1)
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
        ("dropout_conv", 28, struct.pack("<f", float("nan"))),
    ])
    def test_invalid_spec_header(self, field, offset, value):
        spec, weights = model("desk", True, np.float32)
        data = bytearray(tn.checkpoint_bytes(spec, weights))
        data[offset:offset + 4] = value
        with pytest.raises(DecodeError, match="spec header") as err:
            tn.parse_checkpoint(data)
        assert err.value.offset == 8

    def test_checkpoint_with_a_kept_vector_fc1_is_rejected(self):
        # a checkpoint holds the dense fc1_w; here the broadcast's body
        # follows the checkpoint header
        spec, weights = model("desk", True, np.float32)
        body = old_encode_message(fed.ModelBroadcast(0, spec, weights))[20:]
        data = tn.CHECKPOINT_MAGIC + struct.pack("<I", tn.CHECKPOINT_VERSION) + body
        with pytest.raises(DecodeError, match="tensor fc1_w has shape"):
            tn.parse_checkpoint(data)

    def test_broadcast_with_a_dense_fc1_is_rejected(self):
        # a masked broadcast carries the kept values; here the checkpoint's
        # body follows the message header
        spec, weights = model("desk", True, np.float32)
        header = old_encode_message(fed.ModelBroadcast(0, spec, weights))[:20]
        data = header + old_checkpoint_bytes(spec, weights)[8:]
        with pytest.raises(DecodeError, match="tensor fc1_w has shape"):
            fed.decode_message(data)

    def test_empty_tensor_of_unaddressable_shape(self):
        # no elements, but numpy cannot address an array of the other dimensions
        data = struct.pack("<5I", 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)
        with pytest.raises(DecodeError, match="too large to address"):
            ByteReader(data).tensor()

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
        # BLAS needs aligned operands: a message placed one byte into its
        # buffer decodes to aligned copies, an aligned one to views
        upload = fed.GradientUpload(
            round_idx=0, su_id=1, n_samples=1,
            **{n: np.full((2, 3), 0.5, dtype=np.float32) for n in tn.DOMAIN_SPECIFIC_PARAMS})
        data = fed.encode_message(upload)
        shifted = memoryview(bytearray(1 + len(data)))[1:]
        shifted[:] = data
        for buffer, copied in ((data, False), (shifted, True)):
            decoded = fed.decode_message(buffer)
            for name in tn.DOMAIN_SPECIFIC_PARAMS:
                array = getattr(decoded, name)
                assert array.flags.aligned, name
                assert np.shares_memory(array, np.frombuffer(buffer, np.uint8)) != copied, name


def pruned_model(spec, ratio=0.9, seed=3):
    from ftlwss import pruning

    return pruning.prune_model(tn.init_weights(spec, np.random.default_rng(seed)), ratio)[0]


class TestFrameSizes:
    def test_full_scale_frames_carry_the_kept_entries_only(self):
        spec = SPECS["full"]
        weights = pruned_model(spec)
        n_kept = int(weights.prune_mask.sum())
        broadcast = fed.encode_message(fed.ModelBroadcast(round_idx=0, spec=spec, weights=weights))
        assert len(broadcast) <= 2.4e6  # 18.3 MB in format v1
        rng = np.random.default_rng(4)
        features = rng.normal(size=(2, spec.in_rows, spec.in_cols, 2)).astype(np.float32)
        labels = (rng.random((2, spec.in_rows)) < 0.4).astype(np.int8)
        upload = fed.local_training(spec, weights, features, labels, 1, 0,
                                    fed.FtlConfig(n_sus=1, rounds=1), seed=5)
        assert upload.fc1_w.shape == (n_kept,)
        assert len(fed.encode_message(upload)) <= 1.9e6  # 17.7 MB in format v1

    def test_pruned_checkpoint_file_is_unchanged(self, tmp_path):
        spec = SPECS["full"]
        weights = pruned_model(spec)
        tn.save_checkpoint(tmp_path / "m.bin", spec, weights)
        data = (tmp_path / "m.bin").read_bytes()
        params = sum(4 * (1 + len(shape) + np.prod(shape)) for shape in spec.param_shapes().values())
        bits = -(-weights.prune_mask.size // 8)
        assert len(data) == 8 + 28 + params + 9 + bits == 18_289_901
        assert data == old_checkpoint_bytes(spec, weights)


def toy_messages():
    """A masked and an unmasked toy broadcast, and an upload, encoded."""
    spec = tn.DetectorSpec(in_rows=6, in_cols=8, conv1_filters=3, conv2_filters=2, hidden_units=6)
    weights = pruned_model(spec, ratio=0.7)
    dense = tn.ModelWeights(**weights.arrays())
    shapes = spec.param_shapes()
    rng = np.random.default_rng(2)
    upload = fed.GradientUpload(
        round_idx=2, su_id=1, n_samples=9, attempt=1,
        fc1_w=rng.normal(size=int(weights.prune_mask.sum())).astype(np.float32),
        **{n: rng.normal(size=shapes[n]).astype(np.float32) for n in tn.DOMAIN_SPECIFIC_PARAMS[1:]})
    return {
        "masked": bytes(fed.encode_message(fed.ModelBroadcast(1, spec, weights, attempt=2))),
        "unmasked": bytes(fed.encode_message(fed.ModelBroadcast(1, spec, dense))),
        "upload": bytes(fed.encode_message(upload)),
    }


def decodes_or_raises_decode_error(data):
    try:
        fed.decode_message(data)
    except DecodeError:
        return False
    return True


class TestMalformedMessages:
    def test_round_trip(self):
        for name, data in toy_messages().items():
            msg = fed.decode_message(data)
            assert bytes(fed.encode_message(msg)) == data, name

    @pytest.mark.parametrize("change", [-1, 1])
    def test_kept_value_count_differs_from_mask_popcount(self, change):
        spec = SPECS["desk"]
        weights = pruned_model(spec)
        data = fed.encode_message(fed.ModelBroadcast(0, spec, weights))
        # the message's bitset becomes that of a mask keeping one entry more
        # (change -1) or one fewer (change 1) than it carries values for
        mask = weights.prune_mask.reshape(-1).copy()
        flip = np.flatnonzero(mask == (change > 0))[0]
        mask[flip] = not mask[flip]
        bits = np.packbits(mask, bitorder="little")
        data[len(data) - bits.size:] = bits.tobytes()
        with pytest.raises(DecodeError, match="kept entries"):
            fed.decode_message(data)

    @pytest.mark.parametrize("change", [-8, -1, 1, 2**40])
    def test_mask_bit_count_is_not_fc1_size(self, change):
        spec = SPECS["desk"]
        weights = pruned_model(spec)
        data = bytearray(fed.encode_message(fed.ModelBroadcast(0, spec, weights)))
        offset = len(data) - len(weights.kept.bits) - 8
        nbits = spec.flat_dim * spec.hidden_units
        assert struct.unpack_from("<Q", data, offset)[0] == nbits
        struct.pack_into("<Q", data, offset, nbits + change)
        with pytest.raises(DecodeError, match="bit count"):
            fed.decode_message(data)

    @pytest.mark.parametrize("kind", ["masked", "unmasked", "upload"])
    def test_every_truncation(self, kind):
        # every prefix, so every section boundary and every cut inside one
        data = toy_messages()[kind]
        for end in range(len(data)):
            with pytest.raises(DecodeError):
                fed.decode_message(data[:end])
        with pytest.raises(DecodeError, match="trailing"):
            fed.decode_message(data + b"\0")

    @pytest.mark.parametrize("kind", ["masked", "unmasked", "upload"])
    def test_random_bit_flips(self, kind):
        data = toy_messages()[kind]
        rng = np.random.default_rng(11)
        rejected = 0
        for _ in range(1500):
            flipped = bytearray(data)
            for bit in rng.choice(8 * len(data), size=rng.integers(1, 4), replace=False):
                flipped[bit // 8] ^= 1 << (bit % 8)
            rejected += not decodes_or_raises_decode_error(bytes(flipped))
        assert rejected > 0

    def test_random_bit_flips_hypothesis(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        messages = toy_messages()

        @hypothesis.settings(max_examples=300, deadline=None, database=None)
        @hypothesis.given(st.sampled_from(sorted(messages)), st.data())
        def check(kind, draw):
            data = bytearray(messages[kind])
            bits = draw.draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=4))
            for bit in bits:
                data[bit // 8] ^= 1 << (bit % 8)
            decodes_or_raises_decode_error(bytes(data))

        check()
