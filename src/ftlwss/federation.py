"""Federated adaptation of the domain-specific layers across multiple SUs.

One adaptation round: the server broadcasts the model, with only the kept
(unpruned) entries of the hidden FC weight matrix; every SU scatters those
into a dense matrix, runs E local epochs over its own samples updating only
the two fully connected (domain-specific) layers while both convolutions
stay frozen at the broadcast values, and accumulates the raw per-batch
gradient of those layers, the hidden-FC one at the kept entries only; each
SU uploads the accumulated gradient plus its sample count; the server
applies one step with the sample-size-weighted sum of the uploads and feeds
the updated model back. The convolutional layers are never touched, so they
remain bit-identical to the initial model across any number of rounds, and
the prune mask (when present) is enforced at every local and server step.

Messages are a small binary format (magic "FTLM", version 2; the README's
"Federation wire format" has the layout) so the same round logic runs in
process (``InProcessTransport``) or over length-prefixed frames on a TCP
socket (``SocketServerTransport`` against ``run_su_client`` peers, or
``LoopbackSocketTransport``, both ends on localhost). Both message headers
carry (round, attempt), so a server that retries a timed-out round can tell
a late upload of the aborted attempt from the one it waits for. At full
scale with 90% pruning a broadcast is 2.36 MB and an upload 1.79 MB, where
the dense format sent 18.3 and 17.7 MB. Every path pushes every message
through the codec, and all federation arithmetic is done in the model dtype
in fixed SU order, so the transports give bit-identical models, and the
same bytes as the dense format gave.

The SUs of a round are independent: each trains from the broadcast with its
own per-round generator and never writes into the broadcast weights. Both
transports therefore run them concurrently (one thread per SU connection,
or a per-round thread pool in process) and still give the bytes of a serial
replay, because ``aggregate`` reduces the uploads in SU-id order.

Local training takes the lean forward path (``tensornet.forward`` with
``scope="ds_only"``). The frozen conv1 and an SU's fixed samples give the
same conv1 activations in every round, so each SU computes them once
(``Conv1Cache``), and it reuses the last broadcast's kept indices while the
mask bitset is unchanged. Both are checked against the bytes of every
broadcast, so a model with other conv1 weights or another mask is handled
as a fresh one.
"""

from __future__ import annotations

import math
import os
import socket
import struct
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codec import ByteReader, DecodeError, tensor_nbytes, write_tensor
from .tensornet import (
    DOMAIN_SPECIFIC_PARAMS,
    PARAM_NAMES,
    SPEC_HEADER,
    DetectorSpec,
    ModelWeights,
    backward,
    conv1_activations,
    forward,
    kept_update,
    mask_section_nbytes,
    pack_mask,
    read_mask_section,
    read_spec,
    sgd_step,
    write_mask_section,
    write_spec,
)

MESSAGE_MAGIC = b"FTLM"
MESSAGE_VERSION = 2
MSG_BROADCAST = 1
MSG_UPLOAD = 2

# stream-domain tag so federation draws never collide with other stages
# seeded from the same experiment seed
_FTL_SEED_TAG = 0xF7


class ProtocolError(RuntimeError):
    """A peer violated the round protocol (wrong round, missing SU, ...)."""


@dataclass(frozen=True)
class FtlConfig:
    n_sus: int
    rounds: int
    local_epochs: int = 1
    batch_size: int = 25
    lr: float = 0.02
    timeout_s: float = 60.0
    max_retries: int = 2

    def __post_init__(self):
        if min(self.n_sus, self.rounds, self.local_epochs, self.batch_size) < 1:
            raise ValueError("n_sus, rounds, local_epochs and batch_size must all be >= 1")
        if self.lr < 0:
            raise ValueError("learning rate must be non-negative")


@dataclass(frozen=True)
class KeptEntries:
    """The fc1_w entries a round carries: their flat indices
    (``np.flatnonzero(prune_mask)``) and the mask as ``pack_mask``'s bitset.
    Both are None without a mask, when every entry is kept.
    """

    indices: np.ndarray | None = None
    bits: np.ndarray | None = None

    @classmethod
    def of(cls, mask: np.ndarray | None) -> "KeptEntries":
        return cls() if mask is None else cls(np.flatnonzero(mask), pack_mask(mask))


def _kept_values(array: np.ndarray, indices: np.ndarray | None) -> np.ndarray:
    """The entries of ``array`` at the flat ``indices`` (all of them for
    None), as a 1-D array.
    """
    flat = array.reshape(-1)
    return flat if indices is None else flat[indices]


@dataclass
class ModelBroadcast:
    """The model for one attempt at a round. ``kept`` describes
    ``weights.prune_mask``; the encoder derives it when it is None.
    """

    round_idx: int
    spec: DetectorSpec
    weights: ModelWeights
    attempt: int = 0
    kept: KeptEntries | None = None


@dataclass
class GradientUpload:
    """One SU's accumulated gradient for one attempt at a round. ``fc1_w``
    holds the hidden-FC gradient at the kept entries, in flat order (every
    entry without a mask).
    """

    round_idx: int
    su_id: int
    n_samples: int
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    attempt: int = 0


# magic, version, type, round, attempt
_MESSAGE_HEADER = struct.Struct("<4sIBII")
_ATTEMPT = struct.Struct("<I")
_ATTEMPT_OFFSET = _MESSAGE_HEADER.size - _ATTEMPT.size
_UPLOAD_HEADER = struct.Struct("<IQ")


def encode_message(msg) -> bytearray:
    """Encode a broadcast or an upload in one pass.

    A broadcast writes ``fc1_w`` as the 1-D tensor of its kept values,
    followed after the small FC tensors by the mask section, so its cost
    grows with the kept entries, not with the dense matrix.
    """
    if isinstance(msg, ModelBroadcast):
        weights = msg.weights
        kept = msg.kept if msg.kept is not None else KeptEntries.of(weights.prune_mask)
        arrays = [_kept_values(weights.fc1_w, kept.indices) if name == "fc1_w"
                  else getattr(weights, name) for name in PARAM_NAMES]
        size = _MESSAGE_HEADER.size + SPEC_HEADER.size + mask_section_nbytes(kept.bits)
        buf = bytearray(size + sum(tensor_nbytes(a) for a in arrays))
        _MESSAGE_HEADER.pack_into(buf, 0, MESSAGE_MAGIC, MESSAGE_VERSION, MSG_BROADCAST,
                                  msg.round_idx, msg.attempt)
        offset = write_spec(buf, _MESSAGE_HEADER.size, msg.spec)
        for array in arrays:
            offset = write_tensor(buf, offset, array)
        write_mask_section(buf, offset, kept.bits, weights.fc1_w.size)
        return buf
    if not isinstance(msg, GradientUpload):
        raise TypeError(f"cannot encode {type(msg).__name__}")
    arrays = [getattr(msg, name) for name in DOMAIN_SPECIFIC_PARAMS]
    offset = _MESSAGE_HEADER.size + _UPLOAD_HEADER.size
    buf = bytearray(offset + sum(tensor_nbytes(a) for a in arrays))
    _MESSAGE_HEADER.pack_into(buf, 0, MESSAGE_MAGIC, MESSAGE_VERSION, MSG_UPLOAD,
                              msg.round_idx, msg.attempt)
    _UPLOAD_HEADER.pack_into(buf, _MESSAGE_HEADER.size, msg.su_id, msg.n_samples)
    for array in arrays:
        offset = write_tensor(buf, offset, array)
    return buf


def decode_message(data, *, kept: KeptEntries | None = None):
    """Decode a message; any malformed input raises ``DecodeError``. A
    broadcast's ``fc1_w`` is scattered into a dense matrix with +0.0 at the
    pruned entries; its other tensors are views of ``data``.

    ``kept`` is the previous broadcast's ``KeptEntries``, passed by a
    receiver that decodes many broadcasts under one mask: when the bitset
    bytes are equal its indices are reused, so only the first broadcast
    pays for ``np.flatnonzero`` over the mask.
    """
    reader = ByteReader(data)
    magic = bytes(reader.take(4))
    if magic != MESSAGE_MAGIC:
        raise DecodeError(f"bad message magic {magic!r}", 0)
    version = reader.u32()
    if version != MESSAGE_VERSION:
        raise DecodeError(f"unsupported message version {version}", 4)
    msg_type = reader.u8()
    round_idx = reader.u32()
    attempt = reader.u32()
    if msg_type == MSG_BROADCAST:
        return _decode_broadcast(reader, round_idx, attempt, kept)
    if msg_type == MSG_UPLOAD:
        su_id = reader.u32()
        n_samples = reader.u64()
        tensors = {name: reader.tensor() for name in DOMAIN_SPECIFIC_PARAMS}
        reader.expect_end()
        return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n_samples,
                              attempt=attempt, **tensors)
    raise DecodeError(f"unknown message type {msg_type}", 8)


def _decode_broadcast(reader: ByteReader, round_idx: int, attempt: int,
                      kept: KeptEntries | None) -> ModelBroadcast:
    spec = read_spec(reader)
    shapes = spec.param_shapes()
    fields = {}
    for name in PARAM_NAMES:
        offset = reader.offset
        tensor = reader.tensor()
        # the kept fc1_w values come as one 1-D tensor
        expected = (tensor.size,) if name == "fc1_w" else shapes[name]
        if tensor.shape != expected:
            raise DecodeError(f"tensor {name} has shape {tensor.shape}, expected {expected}", offset)
        fields[name] = tensor
    offset = reader.offset
    mask, bits = read_mask_section(reader, shapes["fc1_w"])
    reader.expect_end()
    values, shape = fields["fc1_w"], shapes["fc1_w"]
    if mask is None:
        kept = KeptEntries()
    elif kept is None or kept.bits is None or not np.array_equal(bits, kept.bits):
        # a copy of the bitset, so keeping the entries pins no frame buffer
        kept = KeptEntries(np.flatnonzero(mask), bits.copy())
    n_kept = math.prod(shape) if kept.indices is None else kept.indices.size
    if values.size != n_kept:
        raise DecodeError(f"{values.size} fc1_w values for {n_kept} kept entries", offset)
    if kept.indices is None:
        fields["fc1_w"] = values.reshape(shape)
    else:
        dense = np.zeros(mask.size, dtype=values.dtype)
        dense[kept.indices] = values
        fields["fc1_w"] = dense.reshape(shape)
    return ModelBroadcast(round_idx=round_idx, spec=spec,
                          weights=ModelWeights(**fields, prune_mask=mask),
                          attempt=attempt, kept=kept)


def su_round_rng(seed: int, su_id: int, round_idx: int) -> np.random.Generator:
    """Generator for one SU's work in one round; the derivation is part of
    the protocol so independent replays can reproduce local training exactly.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, _FTL_SEED_TAG, su_id, round_idx)))


def local_training(
    spec: DetectorSpec,
    global_weights: ModelWeights,
    features: np.ndarray,
    labels: np.ndarray,
    su_id: int,
    round_idx: int,
    cfg: FtlConfig,
    seed: int,
    *,
    kept: np.ndarray | None = None,
    conv1_out: np.ndarray | None = None,
) -> GradientUpload:
    """One SU's round: E epochs of batch SGD on the domain-specific layers
    with the raw per-batch gradients accumulated into the upload.

    The local step and the accumulation use the same gradient, evaluated at
    the then-current local weights, so the accumulated value reflects the
    drift of the local model over the round. The convolutional layers never
    change; the prune mask is enforced on every step, and the hidden-FC
    gradient is accumulated at the kept entries only. Dropout is active
    (train mode) with this SU's per-round generator. Every forward takes
    the lean path, which keeps no convolution intermediates.

    Two arguments carry what a caller already holds; each is computed here
    when omitted. ``kept`` is ``np.flatnonzero(global_weights.prune_mask)``
    (a decoded broadcast carries it). ``conv1_out`` is
    ``tensornet.conv1_activations`` of ``features`` under the broadcast's
    conv1 weights, which an SU computes once for all rounds.
    """
    n = features.shape[0]
    if n == 0:
        raise ValueError("SU dataset must be non-empty")
    rng = su_round_rng(seed, su_id, round_idx)
    local = global_weights
    dtype = local.dtype
    if local.prune_mask is None:
        kept = None
    elif kept is None:
        kept = np.flatnonzero(local.prune_mask)
    n_kept = local.fc1_w.size if kept is None else kept.size
    acc = {name: np.zeros(n_kept if name == "fc1_w" else getattr(local, name).shape, dtype=dtype)
           for name in DOMAIN_SPECIFIC_PARAMS}
    grads = None
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if grads is not None:
                # the previous batch's step, taken only when a batch reads it
                local = sgd_step(local, grads, cfg.lr, kept=kept)
            idx = order[start:start + cfg.batch_size]
            _, cache = forward(spec, local, features[idx], train=True, rng=rng, scope="ds_only",
                               conv1_out=None if conv1_out is None else conv1_out[idx])
            grads = backward(spec, local, cache, labels[idx], scope="ds_only")
            del cache  # else this batch's activations stay alive through the next forward
            for name in DOMAIN_SPECIFIC_PARAMS:
                grad = grads[name].astype(dtype, copy=False)
                acc[name] += _kept_values(grad, kept) if name == "fc1_w" else grad
    return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n, **acc)


def aggregate(weights: ModelWeights, uploads: list[GradientUpload], lr: float, *,
              kept: np.ndarray | None = None) -> ModelWeights:
    """Server step: theta_ds <- theta_ds - lr * sum_i (n_i / N) * G_i.

    Uploads are reduced in ascending SU-id order regardless of arrival order,
    in the model dtype, so aggregation is deterministic. Each upload's
    ``fc1_w`` holds the gradient at the kept entries in flat order, so the
    hidden-FC sum and step touch the kept entries only and every pruned
    weight of the result is +0.0. The general-feature arrays and the prune
    mask of the result are the same objects as the input's (models are
    treated as immutable). ``kept`` is ``np.flatnonzero(weights.prune_mask)``,
    passed by a caller that aggregates many rounds under one mask; it is
    computed here when omitted.
    """
    if not uploads:
        raise ValueError("aggregate needs at least one upload")
    rounds = {u.round_idx for u in uploads}
    if len(rounds) != 1:
        raise ProtocolError(f"uploads span multiple rounds: {sorted(rounds)}")
    ordered = sorted(uploads, key=lambda u: u.su_id)
    ids = [u.su_id for u in ordered]
    if len(set(ids)) != len(ids):
        raise ProtocolError(f"duplicate SU ids in uploads: {ids}")
    total = sum(u.n_samples for u in ordered)
    if total <= 0:
        raise ValueError("total sample count must be positive")
    mask = weights.prune_mask
    if mask is None:
        kept = None
    elif kept is None:
        kept = np.flatnonzero(mask)
    fields = weights.arrays()
    n_kept = fields["fc1_w"].size if kept is None else kept.size
    for upload in ordered:
        for name in DOMAIN_SPECIFIC_PARAMS:
            got = getattr(upload, name)
            if name == "fc1_w" and got.size != n_kept:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {got.size} fc1_w values, "
                    f"expected one per kept entry ({n_kept})"
                )
            if name != "fc1_w" and got.shape != fields[name].shape:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {name} shape {got.shape}, "
                    f"expected {fields[name].shape}"
                )
    dtype = weights.dtype
    rate = dtype.type(lr)
    for name in DOMAIN_SPECIFIC_PARAMS:
        value = fields[name]
        acc = np.zeros(value.size if name != "fc1_w" else n_kept, dtype=dtype)
        term = np.empty_like(acc)
        for upload in ordered:
            coeff = dtype.type(upload.n_samples / total)
            grad = getattr(upload, name).reshape(-1)
            acc += np.multiply(grad.astype(dtype, copy=False), coeff, out=term)
        acc *= rate
        if name == "fc1_w" and kept is not None:
            fields[name] = kept_update(value, kept, acc)
        else:
            fields[name] = np.subtract(value.reshape(-1), acc, out=acc).reshape(value.shape)
    return ModelWeights(**fields, prune_mask=mask)


class Transport(ABC):
    """Delivers one round's broadcast to every SU and returns their uploads.
    A transport is a context manager that closes what it holds on exit.
    """

    @abstractmethod
    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        ...

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class LocalSu:
    su_id: int
    features: np.ndarray
    labels: np.ndarray


class Conv1Cache:
    """One SU's ``conv1_activations``, kept across rounds.

    Conv1 is frozen during ``run_ftl`` and an SU's samples never change, so
    every round would recompute the same activations. They are keyed on the
    bytes of the broadcast's ``conv1_w`` and ``conv1_b`` (and the spec), so
    a broadcast with other conv1 weights recomputes them.
    """

    def __init__(self, features: np.ndarray):
        self.features = features
        self._key = None
        self._out = None

    def get(self, spec: DetectorSpec, weights: ModelWeights) -> np.ndarray:
        key = (spec, weights.conv1_w.dtype.str, weights.conv1_w.tobytes(),
               weights.conv1_b.tobytes())
        if key != self._key:
            self._out = None  # free the stale activations before computing new ones
            self._out = conv1_activations(spec, weights, self.features)
            self._key = key
        return self._out


class InProcessTransport(Transport):
    """Runs the SUs of a round concurrently on a thread pool of
    ``min(n_sus, os.cpu_count())`` workers, opened and joined within the
    round so a transport that is never closed leaves no thread behind.

    The broadcast is decoded once per round into an aligned, read-only
    buffer that every SU reads. Each upload still round-trips through the
    codec, so results are interchangeable with the socket path, and uploads
    come back in ascending SU id order. If an SU raises, the round raises
    the error of the lowest such SU id once the running SUs have finished.

    Across rounds the transport keeps the last broadcast's kept entries and
    each SU's ``Conv1Cache``, both checked against the bytes of the next
    broadcast.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        self.sus = sorted(sus, key=lambda su: su.su_id)
        self.cfg = cfg
        self.seed = seed
        self._kept: KeptEntries | None = None
        self._conv1 = [Conv1Cache(su.features) for su in self.sus]

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        buf = _frame_buffer(len(broadcast_bytes))
        buf[:] = broadcast_bytes
        msg = decode_message(buf.toreadonly(), kept=self._kept)
        self._kept = msg.kept

        def train(su: LocalSu, conv1: Conv1Cache) -> GradientUpload:
            return decode_message(_answer(msg, su.su_id, su.features, su.labels, self.cfg,
                                          self.seed, conv1))

        # the heavy numpy work (GEMMs, the im2col copy, dropout draws)
        # releases the GIL, so the SUs overlap on the cores
        with ThreadPoolExecutor(max_workers=min(len(self.sus), os.cpu_count() or 1)) as pool:
            return list(pool.map(train, self.sus, self._conv1))


def _answer(msg: ModelBroadcast, su_id: int, features: np.ndarray, labels: np.ndarray,
            cfg: FtlConfig, seed: int, conv1: Conv1Cache) -> bytearray:
    """One SU's encoded upload for a decoded broadcast, tagged with the
    broadcast's round and attempt.
    """
    upload = local_training(msg.spec, msg.weights, features, labels, su_id, msg.round_idx,
                            cfg, seed, kept=msg.kept.indices,
                            conv1_out=conv1.get(msg.spec, msg.weights))
    upload.attempt = msg.attempt
    return encode_message(upload)


# Largest frame recv_frame accepts: above an unpruned full-scale broadcast,
# which still carries every fc1_w entry (18.3 MB; at 90% pruning a
# broadcast is 2.3 MB and an upload 1.8 MB), so a corrupt length prefix
# cannot make it allocate gigabytes.
MAX_FRAME_BYTES = 64 << 20

# Up to their first float32 section, a broadcast is 45 bytes long (message
# and spec headers) and an upload 29 (message and upload headers), both
# 1 mod 4, so a frame read 3 bytes into its buffer puts every float32
# section on a 4-byte boundary and decode_message can return views of it
# instead of copies.
_FRAME_LEAD = 3


def send_frame(sock: socket.socket, payload) -> None:
    """Send the u32 length prefix and the payload without joining them."""
    view = memoryview(payload)
    if view.nbytes > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {view.nbytes} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    prefix = struct.pack("<I", view.nbytes)
    sent = sock.sendmsg([prefix, view])
    if sent < len(prefix):
        sock.sendall(prefix[sent:])
        sent = len(prefix)
    sock.sendall(view[sent - len(prefix):])


def recv_frame(sock: socket.socket) -> memoryview | None:
    """Read one length-prefixed frame into a fresh buffer; None on clean EOF
    before a frame. A prefix over ``MAX_FRAME_BYTES`` raises ``DecodeError``
    before anything is allocated. A socket timeout before the first byte
    of a frame propagates as ``TimeoutError`` with the stream still in
    sync; one inside a frame raises ``ProtocolError``, because the rest of
    that frame may still arrive and nothing can tell it from the next one.
    """
    header = bytearray(4)
    if not _recv_into(sock, memoryview(header), done=0):
        return None
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME_BYTES:
        raise DecodeError(f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap", 0)
    body = _frame_buffer(length)
    _recv_into(sock, body, done=len(header))
    return body


def _frame_buffer(nbytes: int) -> memoryview:
    """A fresh writable buffer for one message, placed so that
    ``decode_message`` returns aligned views of it instead of copies.
    """
    return memoryview(bytearray(_FRAME_LEAD + nbytes))[_FRAME_LEAD:]


def _recv_into(sock: socket.socket, view: memoryview, done: int) -> bool:
    """Fill ``view`` from the socket, ``done`` bytes into a frame; False on
    EOF before the frame's first byte.
    """
    got = 0
    while got < len(view):
        try:
            count = sock.recv_into(view[got:])
        except TimeoutError:
            if done + got:
                raise ProtocolError(f"timed out mid-frame after {done + got} bytes") from None
            raise
        if count == 0:
            if done + got:
                raise DecodeError(f"connection closed mid-frame after {done + got} bytes", done + got)
            return False
        got += count
    return True


class SocketServerTransport(Transport):
    """Server side of the socket deployment demo: accepts one TCP connection
    per SU on localhost, then drives rounds with length-prefixed frames.

    A round timeout (no byte of an expected upload within ``timeout_s``)
    aborts the attempt without aggregating anything, and the whole round is
    broadcast again, tagged with the next attempt number, up to
    ``max_retries`` times. Late uploads of an aborted attempt are read and
    dropped. Each connection is bound to the SU id of its first upload; an
    upload under another id, or a second connection claiming a bound id, is
    a protocol error. A frame error (a timeout or EOF inside a frame, a
    malformed or out-of-order message, a wrong SU id) closes that SU's
    connection and raises, and so does every later round.
    """

    def __init__(self, n_sus: int, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float = 60.0, max_retries: int = 2):
        self.n_sus = n_sus
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self._listener = socket.create_server((host, port))
        self._connections: list[socket.socket] = []
        self._su_ids: list[int | None] = []  # per connection, bound by its first upload

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def wait_for_clients(self) -> None:
        while len(self._connections) < self.n_sus:
            conn, _ = self._listener.accept()
            conn.settimeout(self.timeout_s)
            self._connections.append(conn)
            self._su_ids.append(None)

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        if any(conn.fileno() < 0 for conn in self._connections):
            raise ProtocolError("an SU connection was closed after a frame error")
        if len(self._connections) < self.n_sus:
            self.wait_for_clients()
        round_idx = _MESSAGE_HEADER.unpack_from(broadcast_bytes)[3]
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            frame = _with_attempt(broadcast_bytes, attempt)
            for conn in self._connections:
                try:
                    send_frame(conn, frame)
                except TimeoutError:
                    conn.close()
                    raise ProtocolError("timed out sending a broadcast") from None
            try:
                return [self._receive(i, round_idx, attempt) for i in range(len(self._connections))]
            except TimeoutError as exc:  # abort + retry whole round
                last_error = exc
        raise ProtocolError(
            f"round failed after {self.max_retries + 1} attempts: {last_error}"
        )

    def _receive(self, index: int, round_idx: int, attempt: int) -> GradientUpload:
        """The upload tagged (``round_idx``, ``attempt``) from the SU on
        connection ``index``, after dropping its uploads for earlier
        attempts.
        """
        conn = self._connections[index]
        try:
            while True:
                frame = recv_frame(conn)
                if frame is None:
                    raise ProtocolError("SU closed its connection mid-round")
                msg = decode_message(frame)
                if not isinstance(msg, GradientUpload):
                    raise ProtocolError(f"expected an upload, got {type(msg).__name__}")
                self._bind(index, msg.su_id)
                tag = (msg.round_idx, msg.attempt)
                if tag == (round_idx, attempt):
                    return msg
                if tag > (round_idx, attempt):
                    raise ProtocolError(f"upload from SU {msg.su_id} is tagged (round, attempt) "
                                        f"{tag}, ahead of {(round_idx, attempt)}")
        except (ProtocolError, DecodeError):
            conn.close()
            raise

    def _bind(self, index: int, su_id: int) -> None:
        bound = self._su_ids[index]
        if bound is None:
            if su_id in self._su_ids:
                raise ProtocolError(f"SU {su_id} uploaded on a second connection")
            self._su_ids[index] = su_id
        elif su_id != bound:
            raise ProtocolError(f"the connection of SU {bound} sent an upload as SU {su_id}")

    def close(self) -> None:
        for conn in self._connections:
            conn.close()
        self._connections.clear()
        self._su_ids.clear()
        self._listener.close()


def _with_attempt(broadcast_bytes, attempt: int):
    """The broadcast tagged with ``attempt``; a copy only when its tag differs."""
    if _ATTEMPT.unpack_from(broadcast_bytes, _ATTEMPT_OFFSET)[0] == attempt:
        return broadcast_bytes
    frame = bytearray(broadcast_bytes)
    _ATTEMPT.pack_into(frame, _ATTEMPT_OFFSET, attempt)
    return frame


def run_su_client(
    address: tuple[str, int],
    su_id: int,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: FtlConfig,
    seed: int,
) -> None:
    """SU side of the socket demo: serve local training for every broadcast
    until the server closes the connection. Across rounds the SU keeps only
    the last broadcast's kept entries and its ``Conv1Cache``, each reused
    only while the broadcast bytes it came from recur, so a server-side
    round retry just re-triggers the same deterministic work.

    A server that closes before its first broadcast ends the client as a
    clean EOF does, whether the connection was refused or reset (a listener
    closed with this SU mid-handshake or still in its accept backlog resets
    it).
    """
    try:
        sock = socket.create_connection(address)
    except (ConnectionRefusedError, ConnectionResetError):
        return
    kept, conv1 = None, Conv1Cache(features)
    with sock:
        try:
            frame = recv_frame(sock)
        except ConnectionResetError:
            return
        while frame is not None:
            msg = decode_message(frame, kept=kept)
            if not isinstance(msg, ModelBroadcast):
                raise ProtocolError(f"SU {su_id} expected a broadcast, got type {type(msg).__name__}")
            kept = msg.kept
            send_frame(sock, _answer(msg, su_id, features, labels, cfg, seed, conv1))
            frame = recv_frame(sock)


class LoopbackSocketTransport(SocketServerTransport):
    """The socket deployment on one host: the server on localhost and one
    ``run_su_client`` thread per SU. Takes what ``InProcessTransport`` takes
    and gives the same bytes; ``close`` also joins the SU threads.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        super().__init__(n_sus=len(sus), timeout_s=cfg.timeout_s, max_retries=cfg.max_retries)
        self.workers = [
            threading.Thread(
                target=run_su_client,
                args=(self.address, su.su_id, su.features, su.labels, cfg, seed),
                daemon=True,  # a crashed run must still exit; close() joins them otherwise
            )
            for su in sus
        ]
        for worker in self.workers:
            worker.start()

    def close(self) -> None:
        # Accept the SUs that have not been yet, so each reads a clean EOF.
        # Closing the listener on them would reset them instead, and a reset
        # the kernel drops (seen under load) leaves an SU blocked forever.
        self._listener.settimeout(self.timeout_s)
        try:
            self.wait_for_clients()
        except TimeoutError:  # an SU thread died before it connected
            pass
        super().close()
        for worker in self.workers:
            worker.join(timeout=10)


def run_ftl(
    spec: DetectorSpec,
    init: ModelWeights,
    cfg: FtlConfig,
    transport: Transport,
) -> ModelWeights:
    """Drive the full adaptation: ``rounds`` iterations of broadcast, local
    training on every SU, upload, and size-weighted aggregation.

    Returns the final global model; its convolutional layers are bit-identical
    to ``init``'s.
    """
    weights = init.copy()
    # the mask is the same object in every round's model
    kept = KeptEntries.of(weights.prune_mask)
    for round_idx in range(cfg.rounds):
        broadcast = ModelBroadcast(round_idx=round_idx, spec=spec, weights=weights, kept=kept)
        uploads = transport.run_round(encode_message(broadcast))
        if len(uploads) != cfg.n_sus:
            raise ProtocolError(f"round {round_idx}: expected {cfg.n_sus} uploads, got {len(uploads)}")
        for upload in uploads:
            if upload.round_idx != round_idx:
                raise ProtocolError(
                    f"round {round_idx}: upload from SU {upload.su_id} is for round {upload.round_idx}"
                )
        weights = aggregate(weights, uploads, cfg.lr, kept=kept.indices)
    return weights
