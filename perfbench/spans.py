"""In-memory span tracing of ftlwss's public functions, installed from outside.

``Tracer.install`` replaces each public function listed in ``TRACED`` with a
wrapper that records a span (name, start, end, parent, thread) and, for some
functions, a count of samples or bytes. The replacement is made in every
ftlwss module that holds the function, because several modules import
functions by name (``federation`` imports ``forward``, ``backward`` and
``sgd_step``; ``pruning`` imports ``train_offline``). ``uninstall`` puts the
originals back, so untraced runs execute the program unmodified.

Spans stay in memory until the run ends. ``layer_metrics`` derives the
per-layer metrics from them. Wrapping the per-sample ``signal_model`` and
``multicoset`` calls inflates ``build_dataset`` noticeably, so read those
layers as counts and shares, never as untraced time.
"""

from __future__ import annotations

import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from ftlwss import (baselines, codec, federation, harness, multicoset, pruning,
                    signal_model, tensornet)

MODULES = {
    "harness": harness, "signal_model": signal_model, "multicoset": multicoset,
    "tensornet": tensornet, "pruning": pruning, "federation": federation,
    "codec": codec, "baselines": baselines,
}

TRACED = {
    "harness": ("run_pipeline", "evaluate_schemes", "build_dataset", "predict_probs",
                "adaptation_sets"),
    "signal_model": ("draw_occupancy", "place_pus", "noiseless_signal", "awgn_sigma",
                     "sample_received_signal"),
    "multicoset": ("coset_sampling_instants", "build_measurement_matrix", "pseudo_inverse",
                   "band_order", "coset_dft", "recover_feature", "normalize_feature",
                   "to_tensor"),
    "tensornet": ("init_weights", "forward", "backward", "sgd_step", "mask_gradients",
                  "bce_loss", "evaluate_loss", "train_offline", "checkpoint_bytes",
                  "parse_checkpoint", "save_checkpoint"),
    "pruning": ("prune_model", "fine_tune"),
    "federation": ("local_training", "aggregate", "encode_message", "decode_message",
                   "send_frame", "recv_frame", "run_ftl", "run_su_client"),
    "codec": ("encode_tensor",),
    "baselines": ("somp_detect",),
}

LAYERS = tuple(MODULES)

# bound before any wrapping, so the tracer's own use records no span
_band_order = multicoset.band_order

# span of the benchmark's transport wrapper, one per federation round
ROUND_SPAN = "bench.TimedTransport.run_round"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    samples: int = 0      # samples the call processed (where the layer has samples)
    nbytes: int = 0       # bytes produced or sent
    kind: str = ""        # message type for federation codecs
    epochs: int = 0       # train_offline and fine_tune
    useful: int = -1      # somp_detect: 1 exact support, 0 not, -1 unknown

    @property
    def dur(self) -> float:
        return self.end - self.start


def _rows(x) -> int:
    return int(x.shape[0]) if getattr(x, "ndim", 0) == 4 else 1


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        # the most recent dataset built with coset spectra; somp_detect calls
        # on its rows are scored against its labels
        self._eval_set = None

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None,
                      threading.get_ident())
        stack.append(record.id)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        sig = inspect.signature(fn)
        annotate = getattr(self, "_note_" + fname, None)

        def traced(*args, **kwargs):
            span_name = name
            bound = None
            if annotate is not None:
                bound = sig.bind(*args, **kwargs).arguments
                if fname == "forward":
                    span_name = name + ("_train" if bound.get("train", False) else "_eval")
            with self.span(span_name) as record:
                result = fn(*args, **kwargs)
            if annotate is not None:
                annotate(record, bound, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    # -- per-function counts ---------------------------------------------

    def _note_build_dataset(self, record, a, result):
        record.samples = int(a["count"])
        if result.coset_spectra is not None:
            n_subbands = result.labels.shape[1]
            self._eval_set = (result.coset_spectra, result.labels, _band_order(n_subbands))

    def _note_predict_probs(self, record, a, result):
        record.samples = _rows(np.asarray(a["features"]))

    def _note_forward(self, record, a, result):
        record.samples = _rows(np.asarray(a["x"]))

    def _note_backward(self, record, a, result):
        record.samples = int(a["cache"].probs.shape[0])

    def _note_train_offline(self, record, a, result):
        record.epochs = len(result.train_losses)
        record.samples = int(a["train_features"].shape[0]) * record.epochs

    _note_fine_tune = _note_train_offline

    def _note_local_training(self, record, a, result):
        record.samples = int(a["features"].shape[0]) * a["cfg"].local_epochs

    def _note_encode_message(self, record, a, result):
        record.nbytes = len(result)
        record.kind = type(a["msg"]).__name__

    def _note_decode_message(self, record, a, result):
        record.kind = type(result).__name__

    def _note_encode_tensor(self, record, a, result):
        record.nbytes = len(result)

    def _note_send_frame(self, record, a, result):
        record.nbytes = len(a["payload"])

    def _note_somp_detect(self, record, a, result):
        spectra = a["coset_spectra"]
        if self._eval_set is None or getattr(spectra, "base", None) is not self._eval_set[0]:
            return
        block, labels, reorder = self._eval_set
        row = (spectra.ctypes.data - block.ctypes.data) // block.strides[0]
        bits = np.zeros(labels.shape[1], dtype=labels.dtype)
        for col in result.support:
            bits[reorder[col - 1]] = 1
        record.useful = int(np.array_equal(bits, labels[row]))

    # -- installation ----------------------------------------------------

    def install(self, methods=()) -> None:
        """Wrap every function in ``TRACED``, ``codec.ByteReader.tensor`` and
        each ``(owner, attribute, layer)`` in ``methods``.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, names in TRACED.items():
            for fname in names:
                original = getattr(MODULES[layer], fname)
                wrapper = self._wrap(layer, fname, original)
                for module in MODULES.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        for owner, attr, layer in ((codec.ByteReader, "tensor", "codec"), *methods):
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, f"{owner.__name__}.{attr}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()



def write_spans(records: list[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(asdict(record)) + "\n")


# ---------------------------------------------------------------------------
# Derived metrics
# ---------------------------------------------------------------------------

def flops_per_sample(spec) -> tuple[float, float]:
    """(forward, backward) MFLOP per sample computed from the layer shapes,
    counting two FLOP per multiply-accumulate of the convolutions and matrix
    products. Backward computes every weight gradient and every input
    gradient except conv1's (the input needs none); bias, activation and
    dropout arithmetic are left out.
    """
    r1, c1, f1 = spec.conv1_shape
    r2, c2, f2 = spec.conv2_shape
    conv1 = r1 * c1 * f1 * 9 * 2
    conv2 = r2 * c2 * f2 * 9 * f1
    fc1 = spec.flat_dim * spec.hidden_units
    out = spec.hidden_units * spec.n_outputs
    forward = conv1 + conv2 + fc1 + out
    backward = conv1 + 2 * (conv2 + fc1 + out)
    return 2 * forward / 1e6, 2 * backward / 1e6


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


# (metric name, unit); every workload reports all of them, 0 where a layer
# does no work
PER_LAYER = (
    *((f"{layer}.busy_s", "s") for layer in LAYERS),
    ("harness.build_dataset.calls", "count"),
    ("harness.build_dataset.busy_s", "s"),
    ("harness.build_dataset.us_per_sample", "us"),
    ("harness.predict_probs.us_per_sample", "us"),
    ("signal_model.noiseless_signal.calls_per_sample", "count"),
    ("tensornet.forward_train.busy_s", "s"),
    ("tensornet.forward_train.us_per_sample", "us"),
    ("tensornet.backward.busy_s", "s"),
    ("tensornet.backward.us_per_sample", "us"),
    ("tensornet.sgd_step.busy_s", "s"),
    ("tensornet.forward_eval.busy_s", "s"),
    ("tensornet.forward_eval.us_per_sample", "us"),
    ("tensornet.evaluate_loss.busy_s", "s"),
    ("tensornet.train_offline.epochs", "count"),
    ("tensornet.forward.mflop_per_sample", "MFLOP-computed"),
    ("tensornet.backward.mflop_per_sample", "MFLOP-computed"),
    ("tensornet.backward.gflop_per_s", "GFLOP/s-computed"),
    ("tensornet.checkpoint_bytes.busy_s", "s"),
    ("tensornet.parse_checkpoint.busy_s", "s"),
    ("pruning.prune_model.busy_s", "s"),
    ("pruning.fine_tune.samples_per_s", "samples/s"),
    ("federation.rounds", "count"),
    ("federation.round_attempts", "count"),
    ("federation.local_training.busy_s", "s"),
    ("federation.local_training.us_per_sample", "us"),
    ("federation.aggregate.busy_s", "s"),
    ("federation.encode_message.busy_s", "s"),
    ("federation.decode_message.busy_s", "s"),
    ("federation.decode_message.calls_per_round", "count"),
    ("federation.bytes_per_round", "bytes-computed"),
    ("federation.transport_overhead_s", "s"),
    ("federation.server_wait_s", "s"),
    ("federation.su_idle_s", "s"),
    ("federation.send_frame.busy_s", "s"),
    ("codec.encode_tensor.busy_s", "s"),
    ("codec.encode_tensor.mb", "MB-computed"),
    ("codec.ByteReader.tensor.busy_s", "s"),
    ("baselines.somp_detect.busy_s", "s"),
    ("baselines.somp_detect.us_per_sample", "us"),
    ("baselines.somp_detect.exact_support_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def layer_metrics(spans: list[Span], spec, n_sus: int, main_thread: int,
                  overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics over every recorded span. ``*_s`` values are totals
    over the traced part of the run; ``us_per_sample`` divides busy time by
    the samples the spans processed. ``ROUND_SPAN`` spans (the benchmark's
    transport wrapper, one per round) mark where rounds start.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            child_time[s.parent] += s.dur

    def busy(name):
        return sum(s.dur for s in by_name[name])

    def samples(name):
        return sum(s.samples for s in by_name[name])

    def per(num, den):
        return num / den if den else 0.0

    def us_per_sample(name):
        return per(busy(name) * 1e6, samples(name))

    m: dict[str, float] = {}
    layer_self: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name != "federation.recv_frame":  # waiting, reported as server_wait_s and su_idle_s
            layer_self[s.name.split(".", 1)[0]] += s.dur - child_time[s.id]
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = layer_self[layer]

    m["harness.build_dataset.calls"] = len(by_name["harness.build_dataset"])
    m["harness.build_dataset.busy_s"] = busy("harness.build_dataset")
    m["harness.build_dataset.us_per_sample"] = us_per_sample("harness.build_dataset")
    m["harness.predict_probs.us_per_sample"] = us_per_sample("harness.predict_probs")
    m["signal_model.noiseless_signal.calls_per_sample"] = per(
        len(by_name["signal_model.noiseless_signal"]), samples("harness.build_dataset"))

    for part in ("forward_train", "backward", "forward_eval"):
        m[f"tensornet.{part}.busy_s"] = busy(f"tensornet.{part}")
        m[f"tensornet.{part}.us_per_sample"] = us_per_sample(f"tensornet.{part}")
    for fname in ("sgd_step", "evaluate_loss", "checkpoint_bytes", "parse_checkpoint"):
        m[f"tensornet.{fname}.busy_s"] = busy(f"tensornet.{fname}")
    # fine_tune calls train_offline, so its epochs are already in here
    m["tensornet.train_offline.epochs"] = sum(s.epochs for s in by_name["tensornet.train_offline"])
    fwd_mflop, bwd_mflop = flops_per_sample(spec)
    m["tensornet.forward.mflop_per_sample"] = fwd_mflop
    m["tensornet.backward.mflop_per_sample"] = bwd_mflop
    m["tensornet.backward.gflop_per_s"] = per(
        bwd_mflop * samples("tensornet.backward") / 1e3, busy("tensornet.backward"))

    m["pruning.prune_model.busy_s"] = busy("pruning.prune_model")
    m["pruning.fine_tune.samples_per_s"] = per(samples("pruning.fine_tune"), busy("pruning.fine_tune"))

    # a round runs from its broadcast to the next round's broadcast of the
    # same run_ftl call, the last one to the return of the call
    calls_end = {s.id: s.end for s in by_name["federation.run_ftl"]}
    starts = sorted(by_name[ROUND_SPAN], key=lambda s: s.start)
    rounds = []
    for s, nxt in zip(starts, [*starts[1:], None]):
        same_call = nxt is not None and nxt.parent == s.parent
        rounds.append((s.start, nxt.start if same_call else calls_end.get(s.parent, s.end)))
    n_rounds = len(rounds)
    decodes = by_name["federation.decode_message"]
    broadcasts_decoded = sum(1 for s in decodes if s.kind == "ModelBroadcast")
    m["federation.rounds"] = n_rounds
    # every attempt of a round delivers the broadcast to each SU once
    m["federation.round_attempts"] = per(broadcasts_decoded, n_sus)
    m["federation.local_training.busy_s"] = busy("federation.local_training")
    m["federation.local_training.us_per_sample"] = us_per_sample("federation.local_training")
    for fname in ("aggregate", "encode_message", "decode_message", "send_frame"):
        m[f"federation.{fname}.busy_s"] = busy(f"federation.{fname}")
    m["federation.decode_message.calls_per_round"] = per(len(decodes), n_rounds)
    # a broadcast is encoded once and delivered to every SU
    wire = sum(s.nbytes * (n_sus if s.kind == "ModelBroadcast" else 1)
               for s in by_name["federation.encode_message"])
    m["federation.bytes_per_round"] = per(wire, n_rounds)
    training = [(s.start, s.end) for s in by_name["federation.local_training"]]
    overhead = 0.0
    for start, end in rounds:
        inside = [(max(a, start), min(b, end)) for a, b in training if a < end and b > start]
        overhead += end - start - _union_length(inside)
    m["federation.transport_overhead_s"] = overhead
    recv = by_name["federation.recv_frame"]
    m["federation.server_wait_s"] = sum(s.dur for s in recv if s.thread == main_thread)
    m["federation.su_idle_s"] = sum(s.dur for s in recv if s.thread != main_thread)

    m["codec.encode_tensor.busy_s"] = busy("codec.encode_tensor")
    m["codec.encode_tensor.mb"] = sum(s.nbytes for s in by_name["codec.encode_tensor"]) / 1e6
    m["codec.ByteReader.tensor.busy_s"] = busy("codec.ByteReader.tensor")

    somp = by_name["baselines.somp_detect"]
    scored = [s.useful for s in somp if s.useful >= 0]
    m["baselines.somp_detect.busy_s"] = busy("baselines.somp_detect")
    m["baselines.somp_detect.us_per_sample"] = per(busy("baselines.somp_detect") * 1e6, len(somp))
    m["baselines.somp_detect.exact_support_ratio"] = per(sum(scored), len(scored))
    m["trace.overhead_ratio"] = overhead_ratio
    return m
