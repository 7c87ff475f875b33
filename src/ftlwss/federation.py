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

Messages are a small binary format (magic "FTLM", version 3; the README's
"Federation wire format" has the layout) so the same round logic runs in
process (``InProcessTransport``) or over length-prefixed frames on a TCP
socket (``SocketServerTransport`` against ``run_su_client`` peers, or
``LoopbackSocketTransport``, both ends on localhost). A broadcast is the
message header and ``tensornet.model_bytes``'s sparse model section; this
module owns the header, the upload layout and the framing. Every header
carries (round, attempt), so a server that retries a timed-out round can tell
a late upload of the aborted attempt from the one it waits for. At full
scale with 90% pruning a broadcast is 2.36 MB and an upload 1.79 MB, where
the dense format sent 18.3 and 17.7 MB. The 20-byte message header puts
every float32 section of a message on a 4-byte offset, so a message decodes
to views of its buffer. Every path pushes every message through the codec,
and all federation arithmetic is done in the model dtype in fixed SU order,
so the transports give bit-identical models, and the same bytes as the
dense format gave.

The SUs of a round are independent: each trains from the broadcast with its
own per-round generator and never writes into the broadcast weights. Both
transports therefore run them concurrently (one thread per SU connection,
or a per-round thread pool in process) and still give the bytes of a serial
replay, because ``aggregate`` reduces the uploads in SU-id order.

Both transports answer a broadcast through one SU object, ``LocalSu``.
Local training takes the lean forward path (``tensornet.forward`` with
``scope="ds_only"``). The frozen conv1 and an SU's fixed samples give the
same conv1 activations in every round, so each ``LocalSu`` computes them
once, and each forward block gathers its batch's rows of them. Every
``backward`` of a masked model gives the hidden-FC gradient as its kept
vector, which the local step and the upload take as it is, so an SU never
builds a dense gradient; it holds a dense ``fc1_w`` only for the model it
trains, and frees the decoded broadcast once its upload is built. The
server sums the uploads into that same form and steps with the same
``sgd_step``; it starts from the initial model itself and, like every
step, never writes a model in place. The mask's kept entries travel with
the model (``ModelWeights.kept``), and the receiver of the broadcasts
reuses the last model's while the bitset and shape are unchanged. Both
are checked against every broadcast's bytes, so a model with other conv1
weights or another mask is handled as fresh.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
from abc import ABC, abstractmethod
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .codec import ByteReader, DecodeError, tensor_nbytes, write_tensor
from .rules import _bounded, _Config
from .tensornet import (
    DOMAIN_SPECIFIC_PARAMS,
    DetectorSpec,
    KeptEntries,
    ModelWeights,
    backward,
    conv1_activations,
    forward,
    model_bytes,
    read_model,
    sgd_step,
)

MESSAGE_MAGIC = b"FTLM"
MESSAGE_VERSION = 3
MSG_BROADCAST = 1
MSG_UPLOAD = 2

# stream-domain tag so federation draws never collide with other stages
# seeded from the same experiment seed
_FTL_SEED_TAG = 0xF7


class ProtocolError(RuntimeError):
    """A peer violated the round protocol (wrong round, missing SU, ...)."""


@dataclass(frozen=True)
class FtlConfig(_Config):
    n_sus: int = _bounded(ge=1)
    rounds: int = _bounded(ge=1)
    local_epochs: int = _bounded(1, ge=1)
    batch_size: int = _bounded(25, ge=1)
    lr: float = _bounded(0.02, ge=0)
    timeout_s: float = _bounded(60.0, gt=0)
    max_retries: int = _bounded(2, ge=0)


@dataclass
class ModelBroadcast:
    """The model for one attempt at a round."""

    round_idx: int
    spec: DetectorSpec
    weights: ModelWeights
    attempt: int = 0


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


# magic, version, type, round, attempt: 20 bytes, so with the u32-aligned
# spec and upload headers after it every float32 section starts on a
# 4-byte offset
_MESSAGE_HEADER = struct.Struct("<4sIIII")
_ATTEMPT = struct.Struct("<I")
_ATTEMPT_OFFSET = _MESSAGE_HEADER.size - _ATTEMPT.size
_UPLOAD_HEADER = struct.Struct("<IQ")


def encode_message(msg) -> bytearray:
    """Encode a broadcast or an upload in one pass.

    A broadcast is the message header and the sparse model section of
    ``tensornet.model_bytes``, whose cost grows with the kept entries, not
    with the dense matrix.
    """
    if isinstance(msg, ModelBroadcast):
        buf = model_bytes(msg.spec, msg.weights, _MESSAGE_HEADER.size, sparse=True)
        _MESSAGE_HEADER.pack_into(buf, 0, MESSAGE_MAGIC, MESSAGE_VERSION, MSG_BROADCAST,
                                  msg.round_idx, msg.attempt)
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
    broadcast's model is read by ``tensornet.read_model``, with ``kept``,
    the previous broadcast's ``weights.kept``, which the model gets while
    the bitset and the shape are unchanged.
    """
    reader = ByteReader(data)
    reader.expect_header("message", MESSAGE_MAGIC, MESSAGE_VERSION)
    msg_type = reader.u32()
    round_idx = reader.u32()
    attempt = reader.u32()
    if msg_type == MSG_BROADCAST:
        spec, weights = read_model(reader, sparse=True, kept=kept)
        return ModelBroadcast(round_idx=round_idx, spec=spec, weights=weights, attempt=attempt)
    if msg_type == MSG_UPLOAD:
        su_id = reader.u32()
        n_samples = reader.u64()
        tensors = {name: reader.tensor() for name in DOMAIN_SPECIFIC_PARAMS}
        reader.expect_end()
        return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n_samples,
                              attempt=attempt, **tensors)
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
    *,
    conv1_out: np.ndarray | None = None,
) -> GradientUpload:
    """One SU's round: E epochs of batch SGD on the domain-specific layers
    with the raw per-batch gradients accumulated into the upload.

    The local step and the accumulation use the same gradient, evaluated at
    the then-current local weights, so the accumulated value reflects the
    drift of the local model over the round. The convolutional layers never
    change; the prune mask is enforced on every step, and the hidden-FC
    gradient, which `backward` gives as the kept vector of a masked model,
    is computed, stepped and accumulated at the kept entries only, those
    the model carries (``global_weights.kept``), which every local step
    passes on. Dropout is active (train mode) with this SU's per-round
    generator. Every forward takes the lean path, which keeps no
    convolution intermediates.

    ``conv1_out`` is ``tensornet.conv1_activations`` of ``features`` under
    the broadcast's conv1 weights, which an SU computes once for all
    rounds; each forward block gathers its batch's rows of it. It is
    computed per block when omitted.
    """
    n = features.shape[0]
    if n == 0:
        raise ValueError("SU dataset must be non-empty")
    rng = su_round_rng(seed, su_id, round_idx)
    local = global_weights
    dtype = local.dtype
    kept = local.kept.indices
    n_kept = local.fc1_w.size if kept is None else kept.size
    acc = {name: np.zeros(n_kept if name == "fc1_w" else getattr(local, name).shape, dtype=dtype)
           for name in DOMAIN_SPECIFIC_PARAMS}
    grads = None
    for _ in range(cfg.local_epochs):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if grads is not None:
                # the previous batch's step, taken only when a batch reads it
                local = sgd_step(local, grads, cfg.lr)
            idx = order[start:start + cfg.batch_size]
            _, cache = forward(spec, local, features[idx], train=True, rng=rng, scope="ds_only",
                               conv1_out=conv1_out, conv1_rows=None if conv1_out is None else idx)
            grads = backward(spec, local, cache, labels[idx])
            del cache  # else this batch's activations stay alive through the next forward
            for name in DOMAIN_SPECIFIC_PARAMS:
                # fc1_w: the kept vector of a masked model, else the whole matrix
                acc[name] += grads[name].reshape(acc[name].shape)
    return GradientUpload(round_idx=round_idx, su_id=su_id, n_samples=n, **acc)


def aggregate(weights: ModelWeights, uploads: list[GradientUpload], lr: float) -> ModelWeights:
    """Server step: theta_ds <- theta_ds - lr * sum_i (n_i / N) * G_i.

    Uploads are reduced in ascending SU-id order regardless of arrival order,
    in the model dtype, so aggregation is deterministic. Each upload's
    ``fc1_w`` holds the gradient at the kept entries in flat order, so the
    hidden-FC sum is the kept vector `tensornet.sgd_step` takes for a
    masked model, and the step is that ``sgd_step``: it touches the kept
    entries only, every pruned weight of the result is +0.0, and the
    general-feature arrays, the prune mask and its kept entries
    (``weights.kept``) of the result are the same objects as the input's,
    so many rounds under one mask derive the kept indices once.
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
    # local_training rejects an SU without samples, so only a bad peer sends one
    empty = [u.su_id for u in ordered if u.n_samples < 1]
    if empty:
        raise ProtocolError(f"upload from SU {empty[0]} reports no samples")
    total = sum(u.n_samples for u in ordered)
    # the gradient shapes sgd_step takes: fc1_w as the kept vector under a mask
    shapes = {name: getattr(weights, name).shape for name in DOMAIN_SPECIFIC_PARAMS}
    kept = weights.kept.indices
    if kept is not None:
        shapes["fc1_w"] = kept.shape
    n_kept = weights.fc1_w.size if kept is None else kept.size
    for upload in ordered:
        for name in DOMAIN_SPECIFIC_PARAMS:
            got = getattr(upload, name)
            if name == "fc1_w" and got.size != n_kept:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {got.size} fc1_w values, "
                    f"expected one per kept entry ({n_kept})"
                )
            if name != "fc1_w" and got.shape != shapes[name]:
                raise ProtocolError(
                    f"upload from SU {upload.su_id} has {name} shape {got.shape}, "
                    f"expected {shapes[name]}"
                )
            # one NaN or infinity would poison every kept weight it touches
            if not np.isfinite(got).all():
                raise ProtocolError(f"upload from SU {upload.su_id} has non-finite {name} values")
    dtype = weights.dtype
    grads = {}
    for name, shape in shapes.items():
        acc = np.zeros(shape, dtype=dtype)
        term = np.empty_like(acc)
        for upload in ordered:
            coeff = dtype.type(upload.n_samples / total)
            grad = getattr(upload, name).reshape(shape)
            acc += np.multiply(grad.astype(dtype, copy=False), coeff, out=term)
        grads[name] = acc
    return sgd_step(weights, grads, lr)


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
    """One SU: its id and adaptation samples, and what it keeps across the
    broadcasts it answers, in process or behind a socket.

    Conv1 is frozen during ``run_ftl`` and an SU's samples never change, so
    the SU keeps its ``conv1_activations`` across rounds, and across runs
    that share it. They are keyed on the spec and on the dtype and bytes of
    the broadcast's ``conv1_w`` and ``conv1_b``, so a broadcast with other
    conv1 weights recomputes them.
    """

    su_id: int
    features: np.ndarray
    labels: np.ndarray
    _conv1_key: tuple | None = field(default=None, init=False, repr=False)
    _conv1_out: np.ndarray | None = field(default=None, init=False, repr=False)

    def conv1_out(self, spec: DetectorSpec, weights: ModelWeights) -> np.ndarray:
        key = (spec, weights.conv1_w.dtype.str, weights.conv1_w.tobytes(),
               weights.conv1_b.tobytes())
        if key != self._conv1_key:
            self._conv1_out = None  # free the stale activations before computing new ones
            self._conv1_out = conv1_activations(spec, weights, self.features)
            self._conv1_key = key
        return self._conv1_out

    def answer(self, msg: ModelBroadcast, cfg: FtlConfig, seed: int) -> bytearray:
        """The encoded upload for the decoded broadcast ``msg``, tagged with
        its round and attempt.
        """
        upload = local_training(msg.spec, msg.weights, self.features, self.labels, self.su_id,
                                msg.round_idx, cfg, seed, conv1_out=self.conv1_out(msg.spec, msg.weights))
        upload.attempt = msg.attempt
        return encode_message(upload)

    def serve(self, address: tuple[str, int], cfg: FtlConfig, seed: int) -> None:
        """Answer every broadcast from the server at ``address`` until it
        closes the connection, reusing the last broadcast's kept entries
        while its mask recurs. A server that closes ends this as a clean EOF
        does, also when the connection is refused or reset: a listener
        closed with this SU mid-handshake or still in its accept backlog
        resets it, and so does a server that fails a round on another SU
        and closes with this SU's upload unread.
        """
        try:
            sock = socket.create_connection(address)
        except (ConnectionRefusedError, ConnectionResetError):
            return
        kept = None
        with sock:
            try:
                while (frame := recv_frame(sock)) is not None:
                    msg = decode_message(frame, kept=kept)
                    if not isinstance(msg, ModelBroadcast):
                        raise ProtocolError(f"SU {self.su_id} expected a broadcast, got {type(msg).__name__}")
                    kept = msg.weights.kept
                    upload = self.answer(msg, cfg, seed)
                    # free the broadcast (its dense fc1_w and its frame) before
                    # this SU waits for, and decodes, the next one
                    del frame, msg
                    send_frame(sock, upload)
            except (ConnectionResetError, BrokenPipeError):
                return


class InProcessTransport(Transport):
    """Runs the SUs of a round concurrently on a thread pool of
    ``min(n_sus, os.cpu_count())`` workers, opened and joined within the
    round so a transport that is never closed leaves no thread behind.

    The broadcast is decoded once per round, as read-only views of its
    buffer, and every ``LocalSu`` answers that one decoded broadcast. Each
    upload still round-trips through the codec, decoding to views of the
    SU's encoded buffer, so results are interchangeable with the socket
    path, and uploads come back in ascending SU id order. If an SU raises,
    the round raises the error of the lowest such SU id once the running
    SUs have finished.

    Across rounds the transport keeps the last broadcast's kept entries and
    each SU its conv1 activations, both checked against the bytes of the
    next broadcast. The SUs keep theirs across the transports that share
    them, as the runs of the ftl stage do.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        self.sus = sorted(sus, key=lambda su: su.su_id)
        self.cfg = cfg
        self.seed = seed
        self._kept: KeptEntries | None = None

    def run_round(self, broadcast_bytes: bytes) -> list[GradientUpload]:
        # read-only: every SU reads these weights, and none may write them
        msg = decode_message(memoryview(broadcast_bytes).toreadonly(), kept=self._kept)
        self._kept = msg.weights.kept
        # the heavy numpy work (GEMMs, the im2col copy, dropout draws)
        # releases the GIL, so the SUs overlap on the cores
        with ThreadPoolExecutor(max_workers=min(len(self.sus), os.cpu_count() or 1)) as pool:
            return list(pool.map(lambda su: decode_message(su.answer(msg, self.cfg, self.seed)),
                                 self.sus))


# Largest frame recv_frame accepts: above an unpruned full-scale broadcast,
# which still carries every fc1_w entry (18.3 MB; at 90% pruning a
# broadcast is 2.3 MB and an upload 1.8 MB), so a corrupt length prefix
# cannot make it allocate gigabytes.
MAX_FRAME_BYTES = 64 << 20


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
    body = memoryview(bytearray(length))
    _recv_into(sock, body, done=len(header))
    return body


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
    a protocol error. A frame error (a timeout, EOF or reset inside a
    frame, a malformed or out-of-order message, a wrong SU id, a broadcast
    that cannot be sent) closes that SU's connection and raises, and so
    does every later round. Waiting for the SUs to connect gives up after
    ``timeout_s`` without a new connection.
    """

    def __init__(self, n_sus: int, host: str = "127.0.0.1", port: int = 0,
                 timeout_s: float = 60.0, max_retries: int = 2):
        if not timeout_s > 0:
            raise ValueError(f"timeout_s must be positive, got {timeout_s}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.n_sus = n_sus
        self.timeout_s = timeout_s
        self.max_retries = max_retries
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(timeout_s)
        self._connections: list[socket.socket] = []
        self._su_ids: list[int | None] = []  # per connection, bound by its first upload

    @property
    def address(self) -> tuple[str, int]:
        return self._listener.getsockname()

    def wait_for_clients(self) -> None:
        while len(self._connections) < self.n_sus:
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                raise ProtocolError(f"{len(self._connections)} of {self.n_sus} SUs connected; "
                                    f"none more within {self.timeout_s} s") from None
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
            for i, conn in enumerate(self._connections):
                try:
                    send_frame(conn, frame)
                except OSError as exc:  # a timeout, or a reset by the SU
                    conn.close()
                    raise ProtocolError(
                        f"sending a broadcast to {self._name(i)} failed: {exc}") from None
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
                try:
                    frame = recv_frame(conn)
                except TimeoutError:
                    raise TimeoutError(f"{self._name(index)} sent no upload within "
                                       f"{self.timeout_s} s") from None
                except ConnectionResetError:
                    frame = None
                if frame is None:
                    raise ProtocolError(f"{self._name(index)} closed its connection mid-round")
                msg = decode_message(frame)
                if not isinstance(msg, GradientUpload):
                    raise ProtocolError(f"{self._name(index)} sent a {type(msg).__name__}, not an upload")
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

    def _name(self, index: int) -> str:
        """The SU of connection ``index``: its bound id, else the index."""
        bound = self._su_ids[index]
        return f"the SU on connection {index}" if bound is None else f"SU {bound}"

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
    """SU side of the socket demo: a fresh ``LocalSu`` of these samples
    serves the server at ``address`` (see ``LocalSu.serve``).
    """
    LocalSu(su_id, features, labels).serve(address, cfg, seed)


class LoopbackSocketTransport(SocketServerTransport):
    """The socket deployment on one host: the server on localhost and one
    thread per SU, in which the given ``LocalSu`` serves. Takes what
    ``InProcessTransport`` takes and gives the same bytes; ``close`` also
    joins the SU threads.
    """

    def __init__(self, sus: list[LocalSu], cfg: FtlConfig, seed: int):
        super().__init__(n_sus=len(sus), timeout_s=cfg.timeout_s, max_retries=cfg.max_retries)
        self.workers = [
            threading.Thread(
                target=su.serve, args=(self.address, cfg, seed),
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
        try:
            self.wait_for_clients()
        except ProtocolError:  # an SU thread died before it connected
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

    Returns the final global model; its convolutional layers are ``init``'s
    arrays. Models are never written in place, so the rounds start from
    ``init`` itself, kept entries included.
    """
    weights = init
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
