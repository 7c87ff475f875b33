"""Federated adaptation of the domain-specific layers across multiple SUs.

One adaptation round: the server broadcasts the full model; every SU copies
it, runs E local epochs over its own samples updating only the two fully
connected (domain-specific) layers while both convolutions stay frozen at the
broadcast values, and accumulates the raw per-batch gradient of those layers;
each SU uploads the accumulated gradient plus its sample count; the server
applies one step with the sample-size-weighted sum of the uploads and feeds
the updated model back. The convolutional layers are never touched, so they
remain bit-identical to the initial model across any number of rounds, and
the prune mask (when present) is enforced at every local and server step.

Messages are a small binary format (magic "FTLM") so the same round logic
runs in process (``InProcessTransport``) or over length-prefixed frames on a
TCP socket (``SocketServerTransport`` against ``run_su_client`` peers, or
``LoopbackSocketTransport``, both ends on localhost). Every path pushes every
message through the codec, and all federation arithmetic is done in the
model dtype in fixed SU order, so the transports give bit-identical models.

The SUs of a round are independent: each trains from the broadcast with its
own per-round generator and never writes into the broadcast weights. Both
transports therefore run them concurrently (one thread per SU connection,
or a per-round thread pool in process) and still give the bytes of a serial
replay, because ``aggregate`` reduces the uploads in SU-id order.
"""

from __future__ import annotations

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
    DetectorSpec,
    ModelWeights,
    checkpoint_bytes,
    kept_update,
    parse_checkpoint,
    backward,
    forward,
    sgd_step,
)

MESSAGE_MAGIC = b"FTLM"
MESSAGE_VERSION = 1
MSG_BROADCAST = 1
MSG_UPLOAD = 2

DS_GRADIENT_NAMES = ("fc1_w", "fc1_b", "out_w", "out_b")

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


@dataclass
class ModelBroadcast:
    round_idx: int
    spec: DetectorSpec
    weights: ModelWeights


@dataclass
class GradientUpload:
    round_idx: int
    su_id: int
    n_samples: int
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray


_MESSAGE_HEADER = struct.Struct("<4sIBI")
_UPLOAD_HEADER = struct.Struct("<IQ")


def encode_message(msg) -> bytearray:
    if isinstance(msg, ModelBroadcast):
        header = _MESSAGE_HEADER.pack(MESSAGE_MAGIC, MESSAGE_VERSION, MSG_BROADCAST, msg.round_idx)
        return checkpoint_bytes(msg.spec, msg.weights, prefix=header)
    if not isinstance(msg, GradientUpload):
        raise TypeError(f"cannot encode {type(msg).__name__}")
    arrays = [getattr(msg, name) for name in DS_GRADIENT_NAMES]
    offset = _MESSAGE_HEADER.size + _UPLOAD_HEADER.size
    buf = bytearray(offset + sum(tensor_nbytes(a) for a in arrays))
    _MESSAGE_HEADER.pack_into(buf, 0, MESSAGE_MAGIC, MESSAGE_VERSION, MSG_UPLOAD, msg.round_idx)
    _UPLOAD_HEADER.pack_into(buf, _MESSAGE_HEADER.size, msg.su_id, msg.n_samples)
    for array in arrays:
        offset = write_tensor(buf, offset, array)
    return buf


def decode_message(data):
    reader = ByteReader(data)
    magic = bytes(reader.take(4))
    if magic != MESSAGE_MAGIC:
        raise DecodeError(f"bad message magic {magic!r}", 0)
    version = reader.u32()
    if version != MESSAGE_VERSION:
        raise DecodeError(f"unsupported message version {version}", 4)
    msg_type = reader.u8()
    round_idx = reader.u32()
    if msg_type == MSG_BROADCAST:
        spec, weights = parse_checkpoint(reader.take(reader.remaining))
        return ModelBroadcast(round_idx=round_idx, spec=spec, weights=weights)
    if msg_type == MSG_UPLOAD:
        su_id = reader.u32()
        n_samples = reader.u64()
        tensors = {name: reader.tensor() for name in DS_GRADIENT_NAMES}
        reader.expect_end()
        return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n_samples, **tensors)
    raise DecodeError(f"unknown message type {msg_type}", 8)


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
) -> GradientUpload:
    """One SU's round: E epochs of batch SGD on the domain-specific layers
    with the raw per-batch gradients accumulated into the upload.

    The local step and the accumulation use the same gradient, evaluated at
    the then-current local weights, so the accumulated value reflects the
    drift of the local model over the round. The convolutional layers never
    change; the prune mask is enforced on every step. Dropout is active
    (train mode) with this SU's per-round generator.
    """
    n = features.shape[0]
    if n == 0:
        raise ValueError("SU dataset must be non-empty")
    rng = su_round_rng(seed, su_id, round_idx)
    local = global_weights
    dtype = local.dtype
    # the kept fc1_w indices serve the steps between batches; one batch takes none
    kept = None
    if local.prune_mask is not None and (cfg.local_epochs > 1 or n > cfg.batch_size):
        kept = np.flatnonzero(local.prune_mask)
    acc = {name: np.zeros_like(getattr(local, name)) for name in DS_GRADIENT_NAMES}
    grads = None
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if grads is not None:
                # the previous batch's step, taken only when a batch reads it
                local = sgd_step(local, grads, cfg.lr, scope="ds_only", kept=kept)
            idx = order[start:start + cfg.batch_size]
            _, cache = forward(spec, local, features[idx], train=True, rng=rng)
            grads = backward(spec, local, cache, labels[idx], scope="ds_only")
            del cache  # else this batch's activations stay alive through the next forward
            for name in DS_GRADIENT_NAMES:
                acc[name] += getattr(grads, name).astype(dtype, copy=False)
    return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n, **acc)


def aggregate(weights: ModelWeights, uploads: list[GradientUpload], lr: float, *,
              kept: np.ndarray | None = None) -> ModelWeights:
    """Server step: theta_ds <- theta_ds - lr * sum_i (n_i / N) * G_i.

    Uploads are reduced in ascending SU-id order regardless of arrival order,
    in the model dtype, so aggregation is deterministic. The general-feature
    arrays and the prune mask of the result are the same objects as the
    input's (models are treated as immutable). With a mask, the hidden-FC
    sum and step are computed at the kept positions only and every pruned
    weight is +0.0. ``kept`` is ``np.flatnonzero(weights.prune_mask)``,
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
    for upload in ordered:
        for name in DS_GRADIENT_NAMES:
            shape, expected = getattr(upload, name).shape, getattr(weights, name).shape
            if shape != expected:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {name} shape {shape}, expected {expected}"
                )
    dtype = weights.dtype
    rate = dtype.type(lr)
    mask = weights.prune_mask
    if mask is None:
        kept = None
    elif kept is None:
        kept = np.flatnonzero(mask)
    fields = weights.arrays()
    for name in DS_GRADIENT_NAMES:
        sparse = kept is not None and name == "fc1_w"
        acc = np.zeros(kept.size if sparse else fields[name].shape, dtype=dtype)
        term = np.empty_like(acc)
        for upload in ordered:
            grad = getattr(upload, name)
            if sparse:
                grad = grad.reshape(-1)[kept]
            coeff = dtype.type(upload.n_samples / total)
            acc += np.multiply(grad.astype(dtype, copy=False), coeff, out=term)
        acc *= rate
        if sparse:
            fields[name] = kept_update(fields[name], kept, acc)
        else:
            fields[name] = np.subtract(fields[name], acc, out=acc)
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


class InProcessTransport(Transport):
    """Runs the SUs of a round concurrently on a thread pool of
    ``min(n_sus, os.cpu_count())`` workers, opened and joined within the
    round so a transport that is never closed leaves no thread behind.

    The broadcast is decoded once per round into an aligned, read-only
    buffer that every SU reads. Each upload still round-trips through the
    codec, so results are interchangeable with the socket path, and uploads
    come back in ascending SU id order. If an SU raises, the round raises
    the error of the lowest such SU id once the running SUs have finished.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        self.sus = sorted(sus, key=lambda su: su.su_id)
        self.cfg = cfg
        self.seed = seed

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        buf = _frame_buffer(len(broadcast_bytes))
        buf[:] = broadcast_bytes
        msg = decode_message(buf.toreadonly())

        def train(su: LocalSu) -> GradientUpload:
            upload = local_training(
                msg.spec, msg.weights, su.features, su.labels,
                su.su_id, msg.round_idx, self.cfg, self.seed,
            )
            return decode_message(encode_message(upload))

        # the heavy numpy work (GEMMs, the im2col copy, dropout draws)
        # releases the GIL, so the SUs overlap on the cores
        with ThreadPoolExecutor(max_workers=min(len(self.sus), os.cpu_count() or 1)) as pool:
            return list(pool.map(train, self.sus))


# Largest frame recv_frame accepts: well above a full-scale broadcast
# (18.3 MB), so a corrupt length prefix cannot make it allocate gigabytes.
MAX_FRAME_BYTES = 64 << 20

# Both message headers are 1 mod 4 bytes long (13 and 25), so a frame read
# 3 bytes into its buffer puts every float32 section on a 4-byte boundary
# and decode_message can return views of it instead of copies.
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
    before anything is allocated.
    """
    header = bytearray(4)
    if not _recv_into(sock, memoryview(header), allow_eof=True):
        return None
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME_BYTES:
        raise DecodeError(f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte cap", 0)
    body = _frame_buffer(length)
    _recv_into(sock, body, allow_eof=False)
    return body


def _frame_buffer(nbytes: int) -> memoryview:
    """A fresh writable buffer for one message, placed so that
    ``decode_message`` returns aligned views of it instead of copies.
    """
    return memoryview(bytearray(_FRAME_LEAD + nbytes))[_FRAME_LEAD:]


def _recv_into(sock: socket.socket, view: memoryview, allow_eof: bool) -> bool:
    """Fill ``view`` from the socket; False on EOF before the first byte
    when ``allow_eof``.
    """
    got = 0
    while got < len(view):
        count = sock.recv_into(view[got:])
        if count == 0:
            if allow_eof and got == 0:
                return False
            raise DecodeError(f"connection closed mid-frame after {got} bytes", got)
        got += count
    return True


class SocketServerTransport(Transport):
    """Server side of the socket deployment demo: accepts one TCP connection
    per SU on localhost, then drives rounds with length-prefixed frames.

    A round timeout aborts the round without aggregating anything and the
    whole round is retried (same broadcast) up to ``max_retries`` times.
    """

    def __init__(self, n_sus: int, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float = 60.0, max_retries: int = 2):
        self.n_sus = n_sus
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self._listener = socket.create_server((host, port))
        self._connections: list[socket.socket] = []

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def wait_for_clients(self) -> None:
        while len(self._connections) < self.n_sus:
            conn, _ = self._listener.accept()
            conn.settimeout(self.timeout_s)
            self._connections.append(conn)

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        if len(self._connections) < self.n_sus:
            self.wait_for_clients()
        last_error: Exception | None = None
        for _ in range(self.max_retries + 1):
            for conn in self._connections:
                send_frame(conn, broadcast_bytes)
            uploads = []
            try:
                for conn in self._connections:
                    frame = recv_frame(conn)
                    if frame is None:
                        raise ProtocolError("SU closed its connection mid-round")
                    uploads.append(decode_message(frame))
                return uploads
            except (TimeoutError, socket.timeout) as exc:  # abort + retry whole round
                last_error = exc
                continue
        raise ProtocolError(
            f"round failed after {self.max_retries + 1} attempts: {last_error}"
        )

    def close(self) -> None:
        for conn in self._connections:
            conn.close()
        self._connections.clear()
        self._listener.close()


def run_su_client(
    address: tuple[str, int],
    su_id: int,
    features: np.ndarray,
    labels: np.ndarray,
    cfg: FtlConfig,
    seed: int,
) -> None:
    """SU side of the socket demo: serve local training for every broadcast
    until the server closes the connection. Stateless across rounds, so
    server-side round retries just re-trigger the same deterministic work.

    A server that closes before its first broadcast ends the client as a
    clean EOF does, whether the connection was refused or reset (a listener
    closed with this SU mid-handshake or still in its accept backlog resets
    it).
    """
    try:
        sock = socket.create_connection(address)
    except (ConnectionRefusedError, ConnectionResetError):
        return
    with sock:
        try:
            frame = recv_frame(sock)
        except ConnectionResetError:
            return
        while frame is not None:
            msg = decode_message(frame)
            if not isinstance(msg, ModelBroadcast):
                raise ProtocolError(f"SU {su_id} expected a broadcast, got type {type(msg).__name__}")
            upload = local_training(
                msg.spec, msg.weights, features, labels,
                su_id, msg.round_idx, cfg, seed,
            )
            send_frame(sock, encode_message(upload))
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
    kept = None if weights.prune_mask is None else np.flatnonzero(weights.prune_mask)
    for round_idx in range(cfg.rounds):
        broadcast = ModelBroadcast(round_idx=round_idx, spec=spec, weights=weights)
        uploads = transport.run_round(encode_message(broadcast))
        if len(uploads) != cfg.n_sus:
            raise ProtocolError(f"round {round_idx}: expected {cfg.n_sus} uploads, got {len(uploads)}")
        for upload in uploads:
            if upload.round_idx != round_idx:
                raise ProtocolError(
                    f"round {round_idx}: upload from SU {upload.su_id} is for round {upload.round_idx}"
                )
        weights = aggregate(weights, uploads, cfg.lr, kept=kept)
    return weights
