"""Experiment orchestration: configuration, datasets, metrics, pipeline.

A single JSON document configures everything: the sensing front end, the
source and target occupancy scenarios, network and training hyperparameters,
pruning, federated adaptation, and the SNR sweep. Two presets ship:
``scaled_default`` keeps a full pipeline run in the minutes range on a laptop
CPU, ``full_scale`` is the full-size configuration.

Every stage derives its randomness from the experiment seed through fixed
``SeedSequence`` tags, so datasets, trained models and result files are
bit-reproducible. Stages hand models over through checkpoint files in the
run directory, so any stage can be re-run from persisted artifacts with
identical output.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
import threading
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import baselines, federation, multicoset, pruning, signal_model, tensornet
from .codec import FILE_HEADER, ByteReader, DecodeError, encode_tensor, read_file
from .rules import _bounded, _Config

ALL_STAGES = ("train", "prune", "ftl", "rt", "eval")

# purpose tags for dataset seed derivation
_PURPOSE_TAGS = {"train": 0, "val": 1, "test": 2, "adapt": 3}
_STAGE_DATA, _STAGE_TRAIN, _STAGE_FINETUNE = 1, 2, 3

DATASET_MAGIC = b"WSSD"
DATASET_VERSION = 1

SCHEME_FTL = "ftl"
SCHEME_TL = "tl"
SCHEME_RT = "rt"
SCHEME_SOMP = "somp"
SCHEME_FTL_ZERO_SHOT = "ftl_zero_shot"


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _from_dict(cls, data: dict, context: str):
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected an object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {key: _from_dict(hints[key], value, key) if is_dataclass(hints[key]) else value
              for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class SensingConfig(_Config):
    bandwidth_hz: float = _bounded(320e6, gt=0)
    # the detector's input is n_subbands x n_snapshots, and two valid 3x3
    # convolutions leave nothing of a side below 5
    n_subbands: int = _bounded(16, ge=5)
    n_cosets: int = _bounded(6, ge=1)
    n_snapshots: int = _bounded(32, ge=5)
    coset_offsets: tuple[int, ...] | None = None
    pu_energy: float = _bounded(1.0, gt=0)

    def __post_init__(self):
        super().__post_init__()
        if self.n_cosets >= self.n_subbands:
            raise ValueError("sub-Nyquist operation needs n_cosets < n_subbands")
        if self.coset_offsets is not None:
            object.__setattr__(self, "coset_offsets", tuple(self.coset_offsets))
            if len(self.coset_offsets) != self.n_cosets:
                raise ValueError(f"coset_offsets holds {len(self.coset_offsets)} offsets, "
                                 f"n_cosets is {self.n_cosets}")
            try:
                self.pattern()
            except ValueError as exc:
                raise ValueError(f"coset_offsets: {exc}") from exc

    @property
    def nyquist_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def subband_hz(self) -> float:
        return self.bandwidth_hz / self.n_subbands

    @property
    def duration_s(self) -> float:
        # the sensing window exactly covers the N coset sampling periods
        return self.n_snapshots * self.n_subbands / self.bandwidth_hz

    def pattern(self) -> multicoset.CosetPattern:
        if self.coset_offsets is not None:
            return multicoset.CosetPattern(self.coset_offsets, self.n_subbands, self.nyquist_period_s)
        return multicoset.default_pattern(self.n_cosets, self.n_subbands, self.nyquist_period_s)


@dataclass(frozen=True)
class DomainsConfig(_Config):
    source: int = _bounded(7, ge=1)
    targets: dict[str, int] = field(default_factory=lambda: {"T1": 2, "T2": 4, "T3": 6, "T4": 9})

    def __post_init__(self):
        super().__post_init__()
        if not self.targets or "S" in self.targets:
            raise ValueError("targets must name one or more target domains, none of them "
                             f"'S' (the source), got {sorted(self.targets)}")
        # a name becomes part of file names and a CSV cell
        bad = [name for name in self.targets if not re.fullmatch(r"[A-Za-z0-9_-]+", name)]
        if bad:
            raise ValueError(f"targets must be named with letters, digits, '_' and '-' only, got {bad}")

    def n_active(self, domain: str) -> int:
        if domain == "S":
            return self.source
        if domain in self.targets:
            return self.targets[domain]
        raise ValueError(f"unknown domain {domain!r}; expected 'S' or one of {sorted(self.targets)}")

    def target_names(self) -> list[str]:
        return sorted(self.targets)

    def domain_tag(self, domain: str) -> int:
        self.n_active(domain)  # names an unknown domain
        return 0 if domain == "S" else 1 + self.target_names().index(domain)


@dataclass(frozen=True)
class NetConfig(_Config):
    conv1_filters: int = _bounded(16, ge=1)
    conv2_filters: int = _bounded(8, ge=1)
    hidden_units: int = _bounded(64, ge=1)
    dropout_conv: float = _bounded(0.2, ge=0, lt=1)
    dropout_fc: float = _bounded(0.5, ge=0, lt=1)


@dataclass(frozen=True)
class TrainingConfig(_Config):
    """Offline-training stage. ``restart_*`` implement a deterministic
    escape from the predict-the-prior saddle: when the validation loss has
    not dropped below ``restart_margin`` times its initial value within
    ``restart_epochs`` epochs, training restarts from a reseeded
    initialization (up to ``restarts`` attempts) before continuing.
    ``max_epochs`` counts every epoch of the surviving run, probe included.
    """

    n_train: int = _bounded(2000, ge=1)
    n_val: int = _bounded(500, ge=1)
    n_test: int = _bounded(500, ge=1)
    snr_db: float = 10.0
    lr: float = _bounded(0.15, ge=0)
    batch_size: int = _bounded(32, ge=1)
    # the probe runs min(restart_epochs, max_epochs) epochs and needs a
    # validation loss
    max_epochs: int = _bounded(150, ge=1)
    patience: int = _bounded(24, ge=0)
    lr_decay_factor: float = _bounded(0.5, gt=0)
    lr_decay_stall: int = _bounded(10, ge=1)
    restarts: int = _bounded(3, ge=1)
    # a probe needs a validation loss
    restart_epochs: int = _bounded(12, ge=1)
    restart_margin: float = 0.93


@dataclass(frozen=True)
class PruneStageConfig(_Config):
    ratio: float = _bounded(0.8, gt=0, lt=1)
    finetune_epochs: int = _bounded(5, ge=0)
    finetune_lr: float = _bounded(0.05, ge=0)
    finetune_batch_size: int = _bounded(64, ge=1)


@dataclass(frozen=True)
class FtlStageConfig(_Config):
    rounds: int = _bounded(30, ge=1)
    local_epochs: int = _bounded(2, ge=1)
    batch_size: int = _bounded(25, ge=1)
    lr: float = _bounded(0.04, ge=0)
    samples_per_su: int = _bounded(100, ge=1)
    zero_shot_domain: str | None = "T2"
    timeout_s: float = _bounded(60.0, gt=0)
    max_retries: int = _bounded(2, ge=0)


@dataclass(frozen=True)
class EvalConfig(_Config):
    threshold: float = _bounded(0.5, gt=0, lt=1)
    snr_grid: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_test: int = _bounded(500, ge=1)
    table_snr_db: float = 10.0

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "snr_grid", tuple(self.snr_grid))
        if len(set(self.snr_grid)) != len(self.snr_grid):
            raise ValueError(f"snr_grid repeats a point: {self.snr_grid}")
        if self.table_snr_db not in self.snr_grid:
            raise ValueError(f"table_snr_db {self.table_snr_db:g} is not on snr_grid {self.snr_grid}")


@dataclass(frozen=True)
class ExperimentConfig(_Config):
    seed: int = _bounded(20260801, ge=0)
    sensing: SensingConfig = field(default_factory=SensingConfig)
    domains: DomainsConfig = field(default_factory=DomainsConfig)
    net: NetConfig = field(default_factory=NetConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    prune: PruneStageConfig = field(default_factory=PruneStageConfig)
    ftl: FtlStageConfig = field(default_factory=FtlStageConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    stages: tuple[str, ...] = ALL_STAGES

    def __post_init__(self):
        super().__post_init__()
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ValueError(f"unknown stages {sorted(unknown)}; valid: {ALL_STAGES}")
        object.__setattr__(self, "stages", tuple(self.stages))
        ell = self.sensing.n_subbands
        for domain, k in self.domains.targets.items():
            if not 0 <= k <= ell:
                raise ValueError(f"targets: the occupancy count of {domain} must be in "
                                 f"[0, n_subbands] = [0, {ell}], got {k}")
        if self.domains.source > ell:
            raise ValueError(f"source: the occupancy count must be in [1, n_subbands] = [1, {ell}], "
                             f"got {self.domains.source}")
        zs = self.ftl.zero_shot_domain
        if zs is not None and (zs not in self.domains.targets or len(self.domains.targets) < 2):
            raise ValueError(f"zero_shot_domain {zs!r} must be one of two or more targets, "
                             f"got {self.domains.target_names()}")

    def detector_spec(self) -> tensornet.DetectorSpec:
        return tensornet.DetectorSpec(
            in_rows=self.sensing.n_subbands,
            in_cols=self.sensing.n_snapshots,
            conv1_filters=self.net.conv1_filters,
            conv2_filters=self.net.conv2_filters,
            hidden_units=self.net.hidden_units,
            dropout_conv=self.net.dropout_conv,
            dropout_fc=self.net.dropout_fc,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        return _from_dict(cls, data, "config")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def scaled_default() -> ExperimentConfig:
    """Desk-scale preset: every structural property of the full setup at a
    size that keeps the complete pipeline in the minutes range on a CPU.
    """
    return ExperimentConfig()


def full_scale() -> ExperimentConfig:
    """Full-size preset (slow: the hidden FC layer alone has ~4.4M weights)."""
    return ExperimentConfig(
        sensing=SensingConfig(n_subbands=40, n_cosets=8, n_snapshots=64),
        domains=DomainsConfig(source=20, targets={"T1": 8, "T2": 12, "T3": 16, "T4": 24}),
        net=NetConfig(conv1_filters=32, conv2_filters=16, hidden_units=128),
        training=TrainingConfig(n_train=12000, n_val=4000, n_test=4000),
        prune=PruneStageConfig(ratio=0.9),
        evaluation=EvalConfig(n_test=4000),
    )


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(config.to_json().encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Feature tensors (B, L, N, 2) float32, labels (B, L) int8, and
    optionally the raw coset spectra (B, P, N) complex64 for baselines that
    work on measurements rather than recovered features.
    """

    features: np.ndarray
    labels: np.ndarray
    coset_spectra: np.ndarray | None = None

    def __len__(self) -> int:
        return self.features.shape[0]


def _snr_key(snr_db: float | None) -> int:
    if snr_db is None:
        return 0xFFFFFFFF
    return int(round(snr_db * 1000.0)) & 0xFFFFFFFF


def dataset_rng(config: ExperimentConfig, domain: str, purpose: str, snr_db: float | None) -> np.random.Generator:
    if snr_db is not None and not math.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite (None for noiseless), got {snr_db}")
    if purpose not in _PURPOSE_TAGS:
        raise ValueError(f"unknown purpose {purpose!r}; expected one of {sorted(_PURPOSE_TAGS)}")
    seq = np.random.SeedSequence((
        config.seed, _STAGE_DATA, config.domains.domain_tag(domain),
        _PURPOSE_TAGS[purpose], _snr_key(snr_db),
    ))
    return np.random.default_rng(seq)


# samples per front-end batch: bounds the (B, P, N) and (B, L, N) work
# arrays at full scale while keeping the per-call overhead amortised; it
# bounds the batch of an eval sweep's SOMP group the same way
_FRONT_END_CHUNK = 256


def build_dataset(
    config: ExperimentConfig,
    domain: str,
    purpose: str,
    count: int,
    snr_db: float | None,
    *,
    keep_spectra: bool = False,
) -> LabeledDataset:
    """Draw ``count`` i.i.d. labelled samples from one domain, on the stream
    `dataset_rng` derives from the domain, the ``purpose`` ("train", "val",
    "test" or "adapt") and ``snr_db``.

    Per sample: draw the occupancy, place one PU per occupied band with a
    fresh time offset, evaluate the received signal at the coset sampling
    instants with calibrated noise, run the multicoset front end, and phase-
    normalize into the network's input tensor. ``snr_db=None`` draws no
    noise at all.

    Noise calibration is per transmitter: the variance realising ``snr_db``
    against the whole received power is divided by the PU count, so the SNR
    axis refers to one PU's average power and does not silently improve as
    more sub-bands become occupied.

    The random draws are made sample by sample (occupancy, placement, then
    the two standard-normal noise blocks), so the generator stream is that of
    a per-sample loop; rendering, noise scaling and the front end then run
    over chunks of ``_FRONT_END_CHUNK`` samples at once.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = dataset_rng(config, domain, purpose, snr_db)
    sensing = config.sensing
    pattern = sensing.pattern()
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    n_pus = config.domains.n_active(domain)
    noisy = snr_db is not None and n_pus > 0

    ell, n = sensing.n_subbands, sensing.n_snapshots
    features = np.empty((count, ell, n, 2), dtype=np.float32)
    labels = np.empty((count, ell), dtype=np.int8)
    spectra = np.empty((count, pattern.n_cosets, n), dtype=np.complex64) if keep_spectra else None

    for start in range(0, count, _FRONT_END_CHUNK):
        rows = slice(start, min(start + _FRONT_END_CHUNK, count))
        size = rows.stop - rows.start
        carrier_hz, offset_s = np.empty((size, n_pus)), np.empty((size, n_pus))
        std_normal = np.empty((2, size) + instants.shape) if noisy else None
        for i in range(size):
            occupancy = signal_model.draw_occupancy(ell, n_pus, rng)
            placement = signal_model.place_pus(occupancy, sensing.subband_hz, sensing.duration_s, rng)
            labels[start + i] = occupancy
            carrier_hz[i], offset_s[i] = placement.carrier_hz, placement.offset_s
            if noisy:
                rng.standard_normal(out=std_normal[0, i])
                rng.standard_normal(out=std_normal[1, i])
        samples = signal_model.noiseless_signal(signal_model.PuPlacement(carrier_hz, offset_s),
                                                sensing.subband_hz, sensing.pu_energy, instants)
        if noisy:
            noise_var = signal_model.noise_variance(snr_db, samples) / n_pus
            samples = signal_model.scale_noise(samples, std_normal, noise_var)
        xhat, coset_spectra = multicoset.acquire_feature(samples, pattern)
        features[rows] = multicoset.to_tensor(multicoset.normalize_feature(xhat))
        if spectra is not None:
            spectra[rows] = coset_spectra

    return LabeledDataset(features=features, labels=labels, coset_spectra=spectra)


def save_dataset(dataset: LabeledDataset, path, seed: int | None = None,
                 config_sha256: str | None = None) -> None:
    """Write ``dataset`` as one self-describing file: magic ``WSSD``, u32
    version 1, then the (B, L, N, 2) features and the (B, L) labels as codec
    tensor sections, the labels as float32 0s and 1s. ``<path>.json`` notes
    the ``seed`` and ``config_sha256`` the data was drawn under; no loader
    reads it.
    """
    with open(path, "wb") as fh:
        fh.write(FILE_HEADER.pack(DATASET_MAGIC, DATASET_VERSION))
        fh.write(encode_tensor(dataset.features))
        fh.write(encode_tensor(dataset.labels))
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "config_sha256": config_sha256}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> LabeledDataset:
    """Read a file `save_dataset` wrote. Any other magic or version, a
    truncated or overlong file, features not shaped (B, L, N, 2), labels not
    shaped (B, L) or a label other than 0 or 1 raises ``DecodeError``; a
    missing file stays an ``OSError``. The features are a writable view of
    the file's buffer.
    """
    reader = ByteReader(read_file(path))
    reader.expect_header("dataset", DATASET_MAGIC, DATASET_VERSION)
    features = reader.tensor()
    labels_at = reader.offset
    labels = reader.tensor()
    reader.expect_end()
    if features.ndim != 4 or features.shape[3] != 2:
        raise DecodeError(f"features of shape {features.shape} are not (B, L, N, 2)", 8)
    if labels.shape != features.shape[:2]:
        raise DecodeError(f"labels of shape {labels.shape} do not match features of shape "
                          f"{features.shape}", labels_at)
    if not np.all((labels == 0) | (labels == 1)):
        raise DecodeError("a label is neither 0 nor 1", labels_at)
    return LabeledDataset(features=features, labels=labels.astype(np.int8))


# ---------------------------------------------------------------------------
# Inference and metrics
# ---------------------------------------------------------------------------

# Samples per lean forward pass of `predict_probs`, part of the result's bits:
# at the full-scale spec, a 160-row tail differs from the same rows inside a
# 416-row call, as the output layer's GEMM rounds small row counts otherwise.
_PREDICT_CHUNK = 512


def predict_probs(spec: tensornet.DetectorSpec, weights: tensornet.ModelWeights,
                  features: np.ndarray) -> np.ndarray:
    """Eval-mode (B, L) probabilities of the (B, L, N, 2) batch ``features``,
    ``_PREDICT_CHUNK`` samples per lean forward pass.

    Only one chunk's forward cache is alive at a time, and the lean path
    runs the convolutions on L2-sized blocks of it, so the working set is
    the chunk's conv2 output, not its conv2 patches.
    """
    features = np.asarray(features)
    out = np.empty((features.shape[0], spec.n_outputs), dtype=np.float64)
    for start in range(0, features.shape[0], _PREDICT_CHUNK):
        sl = slice(start, min(start + _PREDICT_CHUNK, features.shape[0]))
        out[sl] = tensornet.forward(spec, weights, features[sl], scope="ds_only")[0]
    return out


def prediction_accuracy(decisions: np.ndarray, labels: np.ndarray) -> float:
    """P_acc: the fraction of (B, L) sub-band ``decisions`` that match the
    (B, L) ``labels``. Every scheme's ``p_acc`` is this mean."""
    decisions = np.asarray(decisions)
    labels = np.asarray(labels)
    if decisions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {decisions.shape} vs {labels.shape}")
    return float((decisions == labels).mean())


def detector_accuracy(spec: tensornet.DetectorSpec, weights: tensornet.ModelWeights,
                      dataset: LabeledDataset, threshold: float) -> float:
    """P_acc of the detector on ``dataset``: a sub-band is occupied where its
    probability is >= ``threshold`` (inclusive)."""
    return prediction_accuracy(predict_probs(spec, weights, dataset.features) >= threshold,
                               dataset.labels)


# ---------------------------------------------------------------------------
# Result rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow(_Config):
    domain: str
    scheme: str
    snr_db: float
    p_acc: float = _bounded(ge=0, le=1)
    n_test: int


def emit_results(rows: list[SweepRow], csv_path, json_path=None, table_snr_db: float = 10.0) -> None:
    """Write the sweep CSV and, optionally, a JSON summary ranking the
    schemes per domain at the reference SNR (ratio 1.0 marks the best
    scheme).
    """
    csv_path = Path(csv_path)
    lines = ["domain,scheme,snr_db,p_acc,n_test"]
    for row in rows:
        lines.append(f"{row.domain},{row.scheme},{row.snr_db:g},{row.p_acc:.6f},{row.n_test}")
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    if json_path is None:
        return
    domains: dict[str, dict] = {}
    for row in rows:
        if row.snr_db != table_snr_db:
            continue
        domains.setdefault(row.domain, {})[row.scheme] = row.p_acc
    summary = {"table_snr_db": table_snr_db, "domains": {}}
    for domain in sorted(domains):
        scores = domains[domain]
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        best = ranked[0][1]
        summary["domains"][domain] = {
            "best_scheme": ranked[0][0],
            "schemes": {
                scheme: {
                    "p_acc": round(p, 6),
                    "rank": rank + 1,
                    "ratio_to_best": round(p / best, 6) if best > 0 else 0.0,
                }
                for rank, (scheme, p) in enumerate(ranked)
            },
        }
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------

class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def _stage(name: str):
    """Make a stage function raise any failure as a ``StageError`` of stage
    ``name``. A stage function takes the config, the run directory, the
    paths of its input checkpoints and a log callable, writes its artifacts
    there and returns no model; run_pipeline and the CLI subcommands call
    the same functions."""
    def decorate(run):
        @functools.wraps(run)
        def staged(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except Exception as exc:
                raise StageError(name, exc) from exc
        return staged
    return decorate


@dataclass
class PipelineResult:
    """The models the eval stage read from the run directory and the rows
    it scored; run_pipeline adds its prune report and source accuracies."""

    config: ExperimentConfig
    spec: tensornet.DetectorSpec
    prune_report: pruning.PruneReport | None = None
    source_p_acc_unpruned: float | None = None
    source_p_acc_pruned: float | None = None
    ftl_model: tensornet.ModelWeights | None = None
    tl_model: tensornet.ModelWeights | None = None
    zero_shot_model: tensornet.ModelWeights | None = None
    rt_models: dict[str, tensornet.ModelWeights] = field(default_factory=dict)
    rows: list[SweepRow] = field(default_factory=list)


def _load_model(config: ExperimentConfig, path) -> tensornet.ModelWeights:
    """The weights in the checkpoint at ``path``, which must hold a model of
    the shapes ``config.detector_spec()`` builds."""
    spec, weights = tensornet.load_checkpoint(path)
    if spec.param_shapes() != config.detector_spec().param_shapes():
        raise ValueError(f"{path} holds a model of {spec}, the config builds {config.detector_spec()}")
    return weights


def _train_rng(config: ExperimentConfig, domain: str, attempt: int = 0) -> np.random.Generator:
    seq = np.random.SeedSequence((config.seed, _STAGE_TRAIN, config.domains.domain_tag(domain), attempt))
    return np.random.default_rng(seq)


def _domain_datasets(config: ExperimentConfig, domain: str):
    t = config.training
    return (build_dataset(config, domain, "train", t.n_train, t.snr_db),
            build_dataset(config, domain, "val", t.n_val, t.snr_db))


def _train_domain_model(config: ExperimentConfig, domain: str, tr: LabeledDataset,
                        va: LabeledDataset, log=lambda msg: None) -> tensornet.TrainResult:
    """Offline training on the domain's train/val sets with the
    saddle-escape restart policy.

    A short probe run must pull the validation loss below
    ``restart_margin`` times its starting value; stuck probes are reseeded.
    The first probe that passes, or else the probe with the lowest
    validation loss, is trained to completion on its own attempt's
    generator, so the result is that attempt trained to completion
    whatever the number of ``restarts``.
    """
    spec = config.detector_spec()
    t = config.training
    probe_epochs = min(t.restart_epochs, t.max_epochs)
    probe = None
    for attempt in range(t.restarts):
        rng = _train_rng(config, domain, attempt)
        candidate = tensornet.train_offline(
            spec, tr.features, tr.labels, va.features, va.labels, rng,
            lr=t.lr, batch_size=t.batch_size, max_epochs=probe_epochs, patience=probe_epochs)
        initial, achieved = candidate.val_losses[0], min(candidate.val_losses)
        passed = achieved < t.restart_margin * initial
        if passed or probe is None or achieved < min(probe.val_losses):
            probe, probe_rng, probe_attempt = candidate, rng, attempt
        if passed:
            break
        then = ("reseeding" if attempt + 1 < t.restarts
                else f"continuing from the best probe, attempt {probe_attempt}")
        log(f"  training on {domain}: attempt {attempt} stuck "
            f"(val {achieved:.3f} vs start {initial:.3f}), {then}")
    result = tensornet.train_offline(
        spec, tr.features, tr.labels, va.features, va.labels, probe_rng,
        lr=t.lr, batch_size=t.batch_size, max_epochs=t.max_epochs - probe_epochs,
        patience=t.patience, lr_decay_factor=t.lr_decay_factor, lr_decay_stall=t.lr_decay_stall,
        init=probe.weights)
    result.train_losses = probe.train_losses + result.train_losses
    result.val_losses = probe.val_losses + result.val_losses
    # the continuation starts from the probe's best snapshot and keeps it
    # while no epoch beats it
    result.best_epoch = (len(probe.val_losses) + result.best_epoch if result.best_epoch >= 0
                         else probe.best_epoch)
    return result


def _source_test_set(config: ExperimentConfig) -> LabeledDataset:
    return build_dataset(config, "S", "test", config.training.n_test, config.training.snr_db)


@_stage("train")
def train_stage(config: ExperimentConfig, outdir, log=lambda msg: None):
    """The train stage: offline training on the source domain, written to
    ``model_source.bin``. Returns the model's source test accuracy and the
    source (train, val, test) sets, which the prune stage reuses."""
    log("stage train: offline training on the source domain")
    tr, va = _domain_datasets(config, "S")
    trained = _train_domain_model(config, "S", tr, va, log)
    tensornet.save_checkpoint(Path(outdir) / "model_source.bin", config.detector_spec(), trained.weights)
    test = _source_test_set(config)
    p_acc = detector_accuracy(config.detector_spec(), trained.weights, test, config.evaluation.threshold)
    log(f"stage train: source test accuracy {p_acc:.4f} (best epoch {trained.best_epoch})")
    return p_acc, (tr, va, test)


@_stage("prune")
def prune_stage(config: ExperimentConfig, outdir, source,
                sets: tuple[LabeledDataset, LabeledDataset, LabeledDataset] | None = None,
                p_acc_unpruned: float | None = None, log=lambda msg: None):
    """The prune stage: magnitude-prune the model in the checkpoint ``source``,
    fine-tune it on the source train/val sets, score both models on the
    source test set, and write ``model_pruned.bin`` and ``prune_report.json``.

    ``sets`` (train, val, test) and the unpruned test accuracy are built and
    measured here when the caller does not already hold them. Returns the
    prune report and the pruned test accuracy.
    """
    outdir = Path(outdir)
    source = _load_model(config, source)
    if sets is None:
        sets = (*_domain_datasets(config, "S"), _source_test_set(config))
    tr, va, test = sets
    spec, threshold = config.detector_spec(), config.evaluation.threshold
    if p_acc_unpruned is None:
        p_acc_unpruned = detector_accuracy(spec, source, test, threshold)
    log(f"stage prune: magnitude pruning at ratio {config.prune.ratio}")
    pruned, report = pruning.prune_model(source, config.prune.ratio)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STAGE_FINETUNE)))
    p = config.prune
    tuned = pruning.fine_tune(spec, pruned, tr.features, tr.labels, va.features, va.labels, rng,
                              lr=p.finetune_lr, batch_size=p.finetune_batch_size,
                              epochs=p.finetune_epochs)
    tensornet.save_checkpoint(outdir / "model_pruned.bin", spec, tuned.weights)
    p_acc_pruned = detector_accuracy(spec, tuned.weights, test, threshold)
    payload = {
        **asdict(report),
        "p_acc_source_unpruned": p_acc_unpruned,
        "p_acc_source_pruned_finetuned": p_acc_pruned,
    }
    (outdir / "prune_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log(f"stage prune: zeroed {report.zeroed_count}/{report.total_count}, "
        f"source accuracy {p_acc_unpruned:.4f} -> {p_acc_pruned:.4f}")
    return report, p_acc_pruned


def adaptation_sets(config: ExperimentConfig, domains: list[str]) -> list[federation.LocalSu]:
    """One SU per target domain, ids following sorted target-name order."""
    sus = []
    for name in domains:
        su_id = config.domains.domain_tag(name)
        ds = build_dataset(config, name, "adapt", config.ftl.samples_per_su, config.training.snr_db)
        sus.append(federation.LocalSu(su_id=su_id, features=ds.features, labels=ds.labels))
    return sus


_TRANSPORTS = {"inproc": federation.InProcessTransport, "socket": federation.LoopbackSocketTransport}


@_stage("ftl")
def ftl_stage(config: ExperimentConfig, outdir, pruned, transport: str = "inproc",
              log=lambda msg: None) -> None:
    """The ftl stage: federated adaptation of the model in the checkpoint
    ``pruned`` over one SU per target domain (``model_ftl.bin``), over the
    first target only (``model_tl.bin``) and, with a ``zero_shot_domain``,
    over every other target (``model_ftl_zero_shot.bin``). The runs share
    one SU set per domain. ``transport`` is "inproc" or "socket"; both give
    the same bytes.
    """
    outdir = Path(outdir)
    spec = config.detector_spec()
    f = config.ftl
    targets = config.domains.target_names()
    if transport not in _TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {sorted(_TRANSPORTS)}")
    pruned = _load_model(config, pruned)
    sus = dict(zip(targets, adaptation_sets(config, targets)))

    def adapt(domains: list[str], name: str) -> None:
        cfg = federation.FtlConfig(n_sus=len(domains), rounds=f.rounds, local_epochs=f.local_epochs,
                                   batch_size=f.batch_size, lr=f.lr, timeout_s=f.timeout_s,
                                   max_retries=f.max_retries)
        with _TRANSPORTS[transport]([sus[d] for d in domains], cfg, config.seed) as link:
            model = federation.run_ftl(spec, pruned, cfg, link)
        tensornet.save_checkpoint(outdir / name, spec, model)

    log(f"stage ftl: {f.rounds} rounds over SUs {targets}")
    adapt(targets, "model_ftl.bin")
    log(f"stage ftl: single-SU transfer using {targets[0]} only")
    adapt(targets[:1], "model_tl.bin")
    if f.zero_shot_domain is not None:
        log(f"stage ftl: zero-shot variant excluding {f.zero_shot_domain}")
        adapt([d for d in targets if d != f.zero_shot_domain], "model_ftl_zero_shot.bin")


@_stage("rt")
def rt_stage(config: ExperimentConfig, outdir, log=lambda msg: None) -> None:
    """The rt stage: regular training from scratch on each target domain,
    written to ``model_rt_<domain>.bin``."""
    for domain in config.domains.target_names():
        log(f"stage rt: regular training on {domain}")
        trained = _train_domain_model(config, domain, *_domain_datasets(config, domain), log)
        tensornet.save_checkpoint(Path(outdir) / f"model_rt_{domain}.bin", config.detector_spec(),
                                  trained.weights)


@_stage("eval")
def eval_stage(config: ExperimentConfig, outdir, log=lambda msg: None) -> PipelineResult:
    """The eval stage: `evaluate_schemes` on every scheme checkpoint the run
    directory ``outdir`` holds (SOMP alone when it holds none), written to
    ``results.csv`` and ``summary.json``. Returns the result it scored.
    The target domains are scored concurrently; the first failing domain's
    error, in domain order, fails the stage once every running domain has
    stopped."""
    outdir = Path(outdir)
    rt = {f"model_rt_{domain}.bin": domain for domain in config.domains.target_names()}
    zero_shot = ["model_ftl_zero_shot.bin"] if config.ftl.zero_shot_domain is not None else []
    names = ("model_ftl.bin", "model_tl.bin", *zero_shot, *rt)
    models = {name: _load_model(config, outdir / name) for name in names if (outdir / name).exists()}
    log(f"stage eval: scoring checkpoints {list(models) or 'none (SOMP only)'}")
    result = PipelineResult(
        config=config, spec=config.detector_spec(), ftl_model=models.get("model_ftl.bin"),
        tl_model=models.get("model_tl.bin"), zero_shot_model=models.get("model_ftl_zero_shot.bin"),
        rt_models={domain: models[name] for name, domain in rt.items() if name in models})
    result.rows = evaluate_schemes(config, result, log)
    csv_path = outdir / "results.csv"
    emit_results(result.rows, csv_path, outdir / "summary.json", table_snr_db=config.evaluation.table_snr_db)
    log(f"stage eval: wrote {len(result.rows)} rows to {csv_path}")
    return result


def run_pipeline(config: ExperimentConfig, outdir, progress=None) -> PipelineResult:
    """Execute the configured stages end to end in the run directory
    ``outdir``, where each stage reads its input checkpoints. The prune and
    ftl stages need the train stage's source model, so either runs it.
    Returns the eval stage's result (a bare one without eval) with the prune
    report and source accuracies of this run.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log = progress if progress is not None else (lambda msg: None)
    stages = set(config.stages)
    (outdir / "config.json").write_text(config.to_json() + "\n", encoding="utf-8")

    p_acc_unpruned = report = p_acc_pruned = None
    if stages & {"train", "prune", "ftl"}:
        p_acc_unpruned, source_sets = train_stage(config, outdir, log)
        if stages & {"prune", "ftl"}:
            report, p_acc_pruned = prune_stage(config, outdir, outdir / "model_source.bin",
                                               source_sets, p_acc_unpruned, log)
        # the source sets served the train and prune stages; drop them so the
        # later stages do not hold them alongside their own
        del source_sets
    if "ftl" in stages:
        ftl_stage(config, outdir, outdir / "model_pruned.bin", "inproc", log)
    if "rt" in stages:
        rt_stage(config, outdir, log)
    result = (eval_stage(config, outdir, log) if "eval" in stages
              else PipelineResult(config=config, spec=config.detector_spec()))
    result.prune_report, result.source_p_acc_unpruned, result.source_p_acc_pruned = (
        report, p_acc_unpruned, p_acc_pruned)
    return result


def evaluate_schemes(config: ExperimentConfig, result: PipelineResult, log=lambda msg: None) -> list[SweepRow]:
    """Score every configured scheme on held-out test sets for each target
    domain and SNR grid point; rows come in (domain, SNR, scheme) order.

    Each target domain is one job (`_score_domain`). The jobs run on
    ``min(#domains, os.cpu_count())`` workers, the calling thread one of
    them, so with one CPU the caller runs every job; helper threads are
    started and joined within the call. The log says "finished domain" in
    domain order. When a job fails, the call waits for the running ones
    and raises the first failing domain's error, in domain order.
    """
    domains = config.domains.target_names()
    outcomes = _run_jobs([functools.partial(_score_domain, config, result, domain)
                          for domain in domains])
    rows: list[SweepRow] = []
    for domain, (domain_rows, error) in zip(domains, outcomes):
        if error is not None:
            raise error
        rows += domain_rows
        log(f"stage eval: finished domain {domain}")
    return rows


def _run_jobs(jobs: list) -> list[tuple[object, BaseException | None]]:
    """Each callable's (result, error) in ``jobs`` order, run on
    ``min(len(jobs), os.cpu_count())`` workers, the calling thread one of
    them. Workers take the jobs in order and take none after a job fails,
    so every job before a failed one ran; the helper threads are joined
    before this returns.
    """
    outcomes: list[tuple[object, BaseException | None]] = [(None, None)] * len(jobs)
    pending = iter(range(len(jobs)))
    lock = threading.Lock()
    failed = False

    def work():
        nonlocal failed
        while True:
            with lock:
                index = None if failed else next(pending, None)
            if index is None:
                return
            try:
                outcomes[index] = (jobs[index](), None)
            except BaseException as exc:  # re-raised by the caller, in job order
                outcomes[index] = (None, exc)
                failed = True

    helpers = [threading.Thread(target=work, name=f"ftlwss-job-{i}")
               for i in range(min(len(jobs), os.cpu_count() or 1) - 1)]
    for helper in helpers:
        helper.start()
    try:
        work()
    finally:
        for helper in helpers:
            helper.join()
    return outcomes


def _score_domain(config: ExperimentConfig, result: PipelineResult, domain: str) -> list[SweepRow]:
    """The rows of one target domain, SNR grid point by grid point.

    The CNN schemes score each point's test set on its own, so every
    forward pass keeps the row count ``n_test`` (the probability bits
    depend on it). SOMP scores groups of consecutive points in one batch,
    as many points as fit in ``_FRONT_END_CHUNK`` samples and at least one:
    `baselines.somp_detect` gives each sample the bits of its batch of one,
    so a group's scores are the per-point scores, and of each point only
    its coset spectra and labels wait for the group.
    """
    spec = config.detector_spec()
    e = config.evaluation
    zero_shot = result.zero_shot_model if domain == config.ftl.zero_shot_domain else None
    models = [(scheme, model) for scheme, model in (
        (SCHEME_FTL, result.ftl_model), (SCHEME_TL, result.tl_model),
        (SCHEME_FTL_ZERO_SHOT, zero_shot), (SCHEME_RT, result.rt_models.get(domain)))
        if model is not None]
    per_group = max(1, _FRONT_END_CHUNK // e.n_test)
    rows: list[SweepRow] = []
    for first in range(0, len(e.snr_grid), per_group):
        points = e.snr_grid[first:first + per_group]
        scored, spectra, labels = [], [], []
        for snr_db in points:
            test = build_dataset(config, domain, "test", e.n_test, snr_db, keep_spectra=True)
            scored.append([(scheme, detector_accuracy(spec, model, test, e.threshold))
                           for scheme, model in models])
            spectra.append(test.coset_spectra)
            labels.append(test.labels)
        somp = _somp_accuracies(config, spectra, labels, config.domains.n_active(domain))
        for snr_db, point, p_somp in zip(points, scored, somp):
            rows += [SweepRow(domain=domain, scheme=scheme, snr_db=snr_db, p_acc=p_acc, n_test=e.n_test)
                     for scheme, p_acc in (*point, (SCHEME_SOMP, p_somp))]
    return rows


def _somp_accuracies(config: ExperimentConfig, spectra: list[np.ndarray], labels: list[np.ndarray],
                     n_active: int) -> list[float]:
    """SOMP's P_acc on each test set of (B, P, N) coset ``spectra`` and
    (B, L) ``labels``, from one `baselines.somp_detect` batch over them all."""
    matrix = multicoset.build_measurement_matrix(config.sensing.pattern())
    support, _ = baselines.somp_detect(np.concatenate(spectra), matrix, n_active)
    bits = np.zeros((support.shape[0], config.sensing.n_subbands), dtype=np.int8)
    np.put_along_axis(bits, support, 1, axis=1)
    # measurement column -> physical band (band_order is its own inverse)
    bits = bits[:, multicoset.band_order(config.sensing.n_subbands)]
    ends = np.cumsum([len(part) for part in labels])[:-1]
    return [prediction_accuracy(part, truth) for part, truth in zip(np.split(bits, ends), labels)]
