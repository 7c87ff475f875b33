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
runs over an in-process queue-style transport, used for deterministic
simulation, or over length-prefixed frames on a local TCP socket. Both paths
push every message through the codec, and all federation arithmetic is done
in the model dtype in fixed SU order, so the two transports produce
bit-identical models.
"""

from __future__ import annotations

import socket
import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .codec import ByteReader, DecodeError, encode_tensor
from .tensornet import (
    DetectorSpec,
    ModelWeights,
    checkpoint_bytes,
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

    def ds_arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in DS_GRADIENT_NAMES}


def encode_message(msg) -> bytes:
    parts = [MESSAGE_MAGIC, struct.pack("<I", MESSAGE_VERSION)]
    if isinstance(msg, ModelBroadcast):
        parts.append(struct.pack("<BI", MSG_BROADCAST, msg.round_idx))
        parts.append(checkpoint_bytes(msg.spec, msg.weights))
    elif isinstance(msg, GradientUpload):
        parts.append(struct.pack("<BI", MSG_UPLOAD, msg.round_idx))
        parts.append(struct.pack("<IQ", msg.su_id, msg.n_samples))
        for name in DS_GRADIENT_NAMES:
            parts.append(encode_tensor(getattr(msg, name)))
    else:
        raise TypeError(f"cannot encode {type(msg).__name__}")
    return b"".join(parts)


def decode_message(data: bytes):
    reader = ByteReader(data)
    magic = reader.take(4)
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
    local = global_weights.copy()
    dtype = local.dtype
    acc = {name: np.zeros_like(getattr(local, name)) for name in DS_GRADIENT_NAMES}
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            _, cache = forward(spec, local, features[idx], train=True, rng=rng)
            grads = backward(spec, local, cache, labels[idx], scope="ds_only")
            local = sgd_step(local, grads, cfg.lr, scope="ds_only")
            for name in DS_GRADIENT_NAMES:
                acc[name] += getattr(grads, name).astype(dtype, copy=False)
    return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n, **acc)


def aggregate(weights: ModelWeights, uploads: list[GradientUpload], lr: float) -> ModelWeights:
    """Server step: theta_ds <- theta_ds - lr * sum_i (n_i / N) * G_i.

    Uploads are reduced in ascending SU-id order regardless of arrival order,
    in the model dtype, so aggregation is deterministic. The general-feature
    arrays of the result are the same objects as the input's (models are
    treated as immutable), and the prune mask is re-applied.
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
    dtype = weights.dtype
    acc = {name: np.zeros_like(getattr(weights, name)) for name in DS_GRADIENT_NAMES}
    for upload in ordered:
        coeff = dtype.type(upload.n_samples / total)
        for name in DS_GRADIENT_NAMES:
            grad = getattr(upload, name).astype(dtype, copy=False)
            if grad.shape != acc[name].shape:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {name} shape {grad.shape}, "
                    f"expected {acc[name].shape}"
                )
            acc[name] += coeff * grad
    fields = dict(weights.arrays())
    for name in DS_GRADIENT_NAMES:
        fields[name] = fields[name] - dtype.type(lr) * acc[name]
    mask = weights.prune_mask
    if mask is not None:
        fields["fc1_w"] = np.where(mask, fields["fc1_w"], dtype.type(0))
        mask = mask.copy()
    return ModelWeights(**fields, prune_mask=mask)


class Transport(ABC):
    """Delivers one round's broadcast to every SU and returns their uploads."""

    @abstractmethod
    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        ...


@dataclass
class LocalSu:
    su_id: int
    features: np.ndarray
    labels: np.ndarray


class InProcessTransport(Transport):
    """Runs every SU inline, in ascending id order. Messages still round-trip
    through the codec so results are interchangeable with the socket path.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        self.sus = sorted(sus, key=lambda su: su.su_id)
        self.cfg = cfg
        self.seed = seed

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        uploads = []
        for su in self.sus:
            msg = decode_message(broadcast_bytes)
            upload = local_training(
                msg.spec, msg.weights, su.features, su.labels,
                su.su_id, msg.round_idx, self.cfg, self.seed,
            )
            uploads.append(decode_message(encode_message(upload)))
        return uploads


def send_frame(sock: socket.socket, payload: bytes) -> None:
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def recv_frame(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF before a frame."""
    header = _recv_exact(sock, 4, allow_eof=True)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    body = _recv_exact(sock, length, allow_eof=False)
    return body


def _recv_exact(sock: socket.socket, count: int, allow_eof: bool) -> bytes | None:
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(count - got)
        if not chunk:
            if allow_eof and got == 0:
                return None
            raise DecodeError(f"connection closed mid-frame after {got} bytes", got)
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


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
    """
    sock = socket.create_connection(address)
    try:
        while True:
            frame = recv_frame(sock)
            if frame is None:
                return
            msg = decode_message(frame)
            if not isinstance(msg, ModelBroadcast):
                raise ProtocolError(f"SU {su_id} expected a broadcast, got type {type(msg).__name__}")
            upload = local_training(
                msg.spec, msg.weights, features, labels,
                su_id, msg.round_idx, cfg, seed,
            )
            send_frame(sock, encode_message(upload))
    finally:
        sock.close()


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
        weights = aggregate(weights, uploads, cfg.lr)
    return weights
