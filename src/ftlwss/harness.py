"""Experiment orchestration: configuration, datasets, metrics, pipeline.

A single JSON document configures everything: the sensing front end, the
source and target occupancy scenarios, network and training hyperparameters,
pruning, federated adaptation, and the SNR sweep. Two presets ship:
``scaled_default`` keeps a full pipeline run in the minutes range on a laptop
CPU, ``full_scale`` is the full-size configuration.

Every stage derives its randomness from the experiment seed through fixed
``SeedSequence`` tags, so datasets, trained models and result files are
bit-reproducible, and any stage can be re-run from persisted artifacts with
identical output.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, federation, multicoset, pruning, signal_model, tensornet
from .codec import DecodeError

ALL_STAGES = ("train", "prune", "ftl", "rt", "eval")

# purpose tags for dataset seed derivation
_PURPOSE_TAGS = {"train": 0, "val": 1, "test": 2, "adapt": 3}
_STAGE_DATA, _STAGE_TRAIN, _STAGE_FINETUNE = 1, 2, 3

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
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    return cls(**data)


@dataclass(frozen=True)
class SensingConfig:
    bandwidth_hz: float = 320e6
    n_subbands: int = 16
    n_cosets: int = 6
    n_snapshots: int = 32
    coset_offsets: tuple[int, ...] | None = None
    pu_energy: float = 1.0

    def __post_init__(self):
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth_hz must be positive, got {self.bandwidth_hz}")
        if self.n_cosets >= self.n_subbands:
            raise ValueError("sub-Nyquist operation needs n_cosets < n_subbands")
        if self.n_snapshots < 1:
            raise ValueError("n_snapshots must be >= 1")
        if self.pu_energy <= 0:
            raise ValueError(f"pu_energy must be positive, got {self.pu_energy}")
        if self.coset_offsets is not None:
            object.__setattr__(self, "coset_offsets", tuple(self.coset_offsets))
            if len(self.coset_offsets) != self.n_cosets:
                raise ValueError(f"coset_offsets holds {len(self.coset_offsets)} offsets, "
                                 f"n_cosets is {self.n_cosets}")
            try:
                self.pattern()
            except (TypeError, ValueError) as exc:
                raise ValueError(f"coset_offsets: {exc}") from exc

    @property
    def nyquist_period_s(self) -> float:
        return 1.0 / self.bandwidth_hz

    @property
    def duration_s(self) -> float:
        # the sensing window exactly covers the N coset sampling periods
        return self.n_snapshots * self.n_subbands / self.bandwidth_hz

    def pattern(self) -> multicoset.CosetPattern:
        if self.coset_offsets is not None:
            return multicoset.CosetPattern(self.coset_offsets, self.n_subbands, self.nyquist_period_s)
        return multicoset.default_pattern(self.n_cosets, self.n_subbands, self.nyquist_period_s)


@dataclass(frozen=True)
class DomainsConfig:
    source: int = 7
    targets: dict[str, int] = field(default_factory=lambda: {"T1": 2, "T2": 4, "T3": 6, "T4": 9})

    def __post_init__(self):
        if not self.targets or "S" in self.targets:
            raise ValueError("targets must name one or more target domains, none of them "
                             f"'S' (the source), got {sorted(self.targets)}")

    def n_active(self, domain: str) -> int:
        if domain == "S":
            return self.source
        if domain in self.targets:
            return self.targets[domain]
        raise ValueError(f"unknown domain {domain!r}; expected 'S' or one of {sorted(self.targets)}")

    def target_names(self) -> list[str]:
        return sorted(self.targets)

    def domain_tag(self, domain: str) -> int:
        if domain == "S":
            return 0
        return 1 + self.target_names().index(domain)


@dataclass(frozen=True)
class NetConfig:
    conv1_filters: int = 16
    conv2_filters: int = 8
    hidden_units: int = 64
    dropout_conv: float = 0.2
    dropout_fc: float = 0.5


@dataclass(frozen=True)
class TrainingConfig:
    """Offline-training stage. ``restart_*`` implement a deterministic
    escape from the predict-the-prior saddle: when the validation loss has
    not dropped below ``restart_margin`` times its initial value within
    ``restart_epochs`` epochs, training restarts from a reseeded
    initialization (up to ``restarts`` attempts) before continuing.
    """

    n_train: int = 2000
    n_val: int = 500
    n_test: int = 500
    snr_db: float = 10.0
    lr: float = 0.15
    batch_size: int = 32
    max_epochs: int = 150
    patience: int = 24
    lr_decay_factor: float = 0.5
    lr_decay_stall: int = 10
    restarts: int = 3
    restart_epochs: int = 12
    restart_margin: float = 0.93

    def __post_init__(self):
        for name in ("n_train", "n_val", "n_test", "batch_size", "lr_decay_stall", "restarts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr_decay_factor <= 0:
            raise ValueError(f"lr_decay_factor must be positive, got {self.lr_decay_factor}")
        if self.restart_epochs < 1:
            raise ValueError("restart_epochs must be >= 1: a probe needs a validation loss")
        if self.lr < 0:
            raise ValueError(f"lr must be non-negative, got {self.lr}")


@dataclass(frozen=True)
class PruneStageConfig:
    ratio: float = 0.8
    finetune_epochs: int = 5
    finetune_lr: float = 0.05
    finetune_batch_size: int = 64

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must lie in (0, 1), got {self.ratio}")
        if self.finetune_epochs < 0:
            raise ValueError(f"finetune_epochs must be >= 0, got {self.finetune_epochs}")
        if self.finetune_lr < 0:
            raise ValueError(f"finetune_lr must be non-negative, got {self.finetune_lr}")
        if self.finetune_batch_size < 1:
            raise ValueError(f"finetune_batch_size must be >= 1, got {self.finetune_batch_size}")


@dataclass(frozen=True)
class FtlStageConfig:
    rounds: int = 30
    local_epochs: int = 2
    batch_size: int = 25
    lr: float = 0.04
    samples_per_su: int = 100
    zero_shot_domain: str | None = "T2"
    timeout_s: float = 60.0
    max_retries: int = 2

    def __post_init__(self):
        for name in ("rounds", "local_epochs", "batch_size", "samples_per_su"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr < 0:
            raise ValueError(f"lr must be non-negative, got {self.lr}")
        if self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")


@dataclass(frozen=True)
class EvalConfig:
    threshold: float = 0.5
    snr_grid: tuple[float, ...] = (-10.0, -5.0, 0.0, 5.0, 10.0, 15.0, 20.0)
    n_test: int = 500
    table_snr_db: float = 10.0

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("decision threshold must lie in (0, 1)")
        if self.n_test < 1:
            raise ValueError(f"n_test must be >= 1, got {self.n_test}")
        object.__setattr__(self, "snr_grid", tuple(self.snr_grid))
        if len(set(self.snr_grid)) != len(self.snr_grid):
            raise ValueError(f"snr_grid repeats a point: {self.snr_grid}")
        if self.table_snr_db not in self.snr_grid:
            raise ValueError(f"table_snr_db {self.table_snr_db:g} is not on snr_grid {self.snr_grid}")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 20260801
    sensing: SensingConfig = field(default_factory=SensingConfig)
    domains: DomainsConfig = field(default_factory=DomainsConfig)
    net: NetConfig = field(default_factory=NetConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    prune: PruneStageConfig = field(default_factory=PruneStageConfig)
    ftl: FtlStageConfig = field(default_factory=FtlStageConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    stages: tuple[str, ...] = ALL_STAGES

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        unknown = set(self.stages) - set(ALL_STAGES)
        if unknown:
            raise ValueError(f"unknown stages {sorted(unknown)}; valid: {ALL_STAGES}")
        object.__setattr__(self, "stages", tuple(self.stages))
        for domain, k in self.domains.targets.items():
            if not 0 <= k <= self.sensing.n_subbands:
                raise ValueError(f"domain {domain}: occupancy count {k} out of range")
        if not 0 < self.domains.source <= self.sensing.n_subbands:
            raise ValueError("source occupancy count out of range")
        zs = self.ftl.zero_shot_domain
        if zs is not None and (zs not in self.domains.targets or len(self.domains.targets) < 2):
            raise ValueError(f"zero_shot_domain {zs!r} must be one of two or more targets, "
                             f"got {self.domains.target_names()}")
        self.detector_spec()  # the net section's widths and rates

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

    def scenario(self, domain: str) -> signal_model.ScenarioConfig:
        return signal_model.ScenarioConfig(
            n_subbands=self.sensing.n_subbands,
            bandwidth_hz=self.sensing.bandwidth_hz,
            n_active_pus=self.domains.n_active(domain),
            duration_s=self.sensing.duration_s,
            pu_energy=self.sensing.pu_energy,
        )

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if isinstance(data, dict):
            data = {key: _from_dict(_SECTIONS[key], value, key) if key in _SECTIONS else value
                    for key, value in data.items()}
        return _from_dict(cls, data, "config")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


_SECTIONS = {
    "sensing": SensingConfig, "domains": DomainsConfig, "net": NetConfig,
    "training": TrainingConfig, "prune": PruneStageConfig, "ftl": FtlStageConfig,
    "evaluation": EvalConfig,
}


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
    seq = np.random.SeedSequence((
        config.seed, _STAGE_DATA, config.domains.domain_tag(domain),
        _PURPOSE_TAGS[purpose], _snr_key(snr_db),
    ))
    return np.random.default_rng(seq)


# samples per front-end batch: bounds the (B, P, N) and (B, L, N) work
# arrays at full scale while keeping the per-call overhead amortised
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
    scenario = config.scenario(domain)
    instants = multicoset.coset_sampling_instants(pattern, sensing.n_snapshots)
    n_pus = scenario.n_active_pus
    noisy = snr_db is not None and n_pus > 0

    ell, n = sensing.n_subbands, sensing.n_snapshots
    features = np.empty((count, ell, n, 2), dtype=np.float32)
    labels = np.empty((count, ell), dtype=np.int8)
    spectra = np.empty((count, pattern.n_cosets, n), dtype=np.complex64) if keep_spectra else None

    for start in range(0, count, _FRONT_END_CHUNK):
        rows = slice(start, min(start + _FRONT_END_CHUNK, count))
        size = rows.stop - rows.start
        carrier_hz, offset_s, energy = (np.empty((size, n_pus)) for _ in range(3))
        std_normal = np.empty((2, size) + instants.shape) if noisy else None
        for i in range(size):
            occupancy = signal_model.draw_occupancy(ell, n_pus, rng)
            placement = signal_model.place_pus(occupancy, scenario, rng)
            labels[start + i] = occupancy
            carrier_hz[i], offset_s[i], energy[i] = placement.carrier_hz, placement.offset_s, placement.energy
            if noisy:
                rng.standard_normal(out=std_normal[0, i])
                rng.standard_normal(out=std_normal[1, i])
        samples = signal_model.noiseless_signal(
            signal_model.PuPlacement(carrier_hz, offset_s, energy), scenario, instants)
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
    """Write the dataset as a raw float32 feature block followed by a packed
    label bitset, with a JSON sidecar (``<path>.json``) describing the layout.
    """
    path = Path(path)
    count = len(dataset)
    feature_shape = list(dataset.features.shape[1:])
    bits = np.packbits(dataset.labels.astype(np.uint8).reshape(-1), bitorder="little")
    with open(path, "wb") as fh:
        fh.write(np.ascontiguousarray(dataset.features, dtype="<f4").tobytes())
        fh.write(bits.tobytes())
    sidecar = {
        "count": count,
        "feature_shape": feature_shape,
        "label_bits_per_sample": int(dataset.labels.shape[1]),
        "seed": seed,
        "config_sha256": config_sha256,
    }
    with open(str(path) + ".json", "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_sidecar(path: Path) -> tuple[int, tuple[int, ...], int]:
    """(count, feature shape, label bits per sample) from a dataset's JSON
    sidecar; anything but UTF-8 JSON of non-negative integers is a DecodeError.
    """
    raw = Path(str(path) + ".json").read_bytes()
    try:
        sidecar = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DecodeError(f"dataset sidecar is not UTF-8: {exc.reason}", exc.start) from exc
    except json.JSONDecodeError as exc:
        raise DecodeError(f"dataset sidecar is not JSON: {exc.msg}", exc.pos) from exc
    if not isinstance(sidecar, dict):
        raise DecodeError("dataset sidecar must be a JSON object", 0)
    count, shape, bits = (sidecar.get(k) for k in ("count", "feature_shape", "label_bits_per_sample"))

    def natural(value) -> bool:
        return type(value) is int and value >= 0

    if not (natural(count) and natural(bits) and isinstance(shape, list) and all(map(natural, shape))):
        raise DecodeError(f"dataset sidecar fields malformed: count={count!r}, "
                          f"feature_shape={shape!r}, label_bits_per_sample={bits!r}", 0)
    return count, tuple(shape), bits


def load_dataset(path) -> LabeledDataset:
    path = Path(path)
    count, feature_shape, label_bits = _read_sidecar(path)
    feature_bytes = 4 * count * math.prod(feature_shape)
    expected = feature_bytes + (count * label_bits + 7) // 8
    raw = path.read_bytes()
    if len(raw) != expected:
        raise DecodeError(f"dataset file holds {len(raw)} bytes, its sidecar implies {expected}",
                          min(len(raw), expected))
    features = np.frombuffer(raw[:feature_bytes], dtype="<f4").reshape((count,) + feature_shape).copy()
    packed = np.frombuffer(raw[feature_bytes:], dtype=np.uint8)
    labels = np.unpackbits(packed, count=count * label_bits, bitorder="little")
    return LabeledDataset(features=features, labels=labels.astype(np.int8).reshape(count, label_bits))


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


def predict_occupancy(spec: tensornet.DetectorSpec, weights: tensornet.ModelWeights,
                      features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
    """Hard occupancy decision: probability >= threshold (inclusive)."""
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must lie in (0, 1)")
    probs = predict_probs(spec, weights, features)
    return (probs >= threshold).astype(np.int8)


def prediction_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Mean fraction of correctly classified sub-bands over the test set."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {labels.shape}")
    return float((predictions == labels).mean())


# ---------------------------------------------------------------------------
# Result rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    domain: str
    scheme: str
    snr_db: float
    p_acc: float
    n_test: int

    def __post_init__(self):
        if not 0.0 <= self.p_acc <= 1.0:
            raise ValueError("p_acc must lie in [0, 1]")


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
    ``name``. A stage function takes the config, the artifact directory, its
    inputs and a log callable, writes its artifacts and returns its outputs;
    run_pipeline and the CLI subcommands call the same functions."""
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
    config: ExperimentConfig
    spec: tensornet.DetectorSpec
    source_model: tensornet.ModelWeights | None = None
    pruned_model: tensornet.ModelWeights | None = None
    prune_report: pruning.PruneReport | None = None
    source_p_acc_unpruned: float | None = None
    source_p_acc_pruned: float | None = None
    ftl_model: tensornet.ModelWeights | None = None
    tl_model: tensornet.ModelWeights | None = None
    zero_shot_model: tensornet.ModelWeights | None = None
    rt_models: dict[str, tensornet.ModelWeights] = field(default_factory=dict)
    rows: list[SweepRow] = field(default_factory=list)


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
    The surviving probe's weights are then trained to completion.
    """
    spec = config.detector_spec()
    t = config.training
    probe = None
    for attempt in range(t.restarts):
        rng = _train_rng(config, domain, attempt)
        candidate = tensornet.train_offline(
            spec, tr.features, tr.labels, va.features, va.labels, rng,
            lr=t.lr, batch_size=t.batch_size, max_epochs=t.restart_epochs, patience=t.restart_epochs)
        initial, achieved = candidate.val_losses[0], min(candidate.val_losses)
        probe = candidate if probe is None or achieved < min(probe.val_losses) else probe
        if achieved < t.restart_margin * initial:
            probe = candidate
            break
        log(f"  training on {domain}: attempt {attempt} stuck "
            f"(val {achieved:.3f} vs start {initial:.3f}), reseeding")
    result = tensornet.train_offline(
        spec, tr.features, tr.labels, va.features, va.labels, rng,
        lr=t.lr, batch_size=t.batch_size, max_epochs=max(0, t.max_epochs - t.restart_epochs),
        patience=t.patience, lr_decay_factor=t.lr_decay_factor, lr_decay_stall=t.lr_decay_stall,
        init=probe.weights)
    result.train_losses = probe.train_losses + result.train_losses
    result.val_losses = probe.val_losses + result.val_losses
    return result


def _source_test_set(config: ExperimentConfig) -> LabeledDataset:
    return build_dataset(config, "S", "test", config.training.n_test, config.training.snr_db)


def _source_test_accuracy(config: ExperimentConfig, weights: tensornet.ModelWeights,
                          test: LabeledDataset) -> float:
    preds = predict_occupancy(config.detector_spec(), weights, test.features, config.evaluation.threshold)
    return prediction_accuracy(preds, test.labels)


@_stage("train")
def train_stage(config: ExperimentConfig, outdir, log=lambda msg: None):
    """The train stage: offline training on the source domain, written to
    ``model_source.bin``. Returns the weights, their source test accuracy
    and the source (train, val, test) sets, which the prune stage reuses."""
    log("stage train: offline training on the source domain")
    tr, va = _domain_datasets(config, "S")
    trained = _train_domain_model(config, "S", tr, va, log)
    tensornet.save_checkpoint(Path(outdir) / "model_source.bin", config.detector_spec(), trained.weights)
    test = _source_test_set(config)
    p_acc = _source_test_accuracy(config, trained.weights, test)
    log(f"stage train: source test accuracy {p_acc:.4f} (best epoch {trained.best_epoch})")
    return trained.weights, p_acc, (tr, va, test)


@_stage("prune")
def prune_stage(config: ExperimentConfig, outdir, source: tensornet.ModelWeights,
                sets: tuple[LabeledDataset, LabeledDataset, LabeledDataset] | None = None,
                p_acc_unpruned: float | None = None, log=lambda msg: None):
    """The prune stage: magnitude-prune ``source``, fine-tune it on the source
    train/val sets, score both models on the source test set, and write
    ``model_pruned.bin`` and ``prune_report.json`` under ``outdir``.

    ``sets`` (train, val, test) and the unpruned test accuracy are built and
    measured here when the caller does not already hold them. Returns the
    pruned weights, the prune report and the pruned test accuracy.
    """
    outdir = Path(outdir)
    if sets is None:
        sets = (*_domain_datasets(config, "S"), _source_test_set(config))
    tr, va, test = sets
    if p_acc_unpruned is None:
        p_acc_unpruned = _source_test_accuracy(config, source, test)
    log(f"stage prune: magnitude pruning at ratio {config.prune.ratio}")
    pruned, report = pruning.prune_model(source, config.prune.ratio)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STAGE_FINETUNE)))
    spec = config.detector_spec()
    p = config.prune
    tuned = pruning.fine_tune(spec, pruned, tr.features, tr.labels, va.features, va.labels, rng,
                              lr=p.finetune_lr, batch_size=p.finetune_batch_size,
                              epochs=p.finetune_epochs)
    tensornet.save_checkpoint(outdir / "model_pruned.bin", spec, tuned.weights)
    p_acc_pruned = _source_test_accuracy(config, tuned.weights, test)
    payload = {
        **asdict(report),
        "p_acc_source_unpruned": p_acc_unpruned,
        "p_acc_source_pruned_finetuned": p_acc_pruned,
    }
    (outdir / "prune_report.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    log(f"stage prune: zeroed {report.zeroed_count}/{report.total_count}, "
        f"source accuracy {p_acc_unpruned:.4f} -> {p_acc_pruned:.4f}")
    return tuned.weights, report, p_acc_pruned


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
def ftl_stage(config: ExperimentConfig, outdir, pruned: tensornet.ModelWeights,
              transport: str = "inproc", log=lambda msg: None):
    """The ftl stage: federated adaptation of the pruned model over one SU
    per target domain (``model_ftl.bin``), over the first target only
    (``model_tl.bin``) and, with a ``zero_shot_domain``, over every other
    target (``model_ftl_zero_shot.bin``). The runs share one SU set per
    domain. ``transport`` is "inproc" or "socket"; both give the same bytes.
    Returns the three models, the last None without a zero-shot domain.
    """
    outdir = Path(outdir)
    spec = config.detector_spec()
    f = config.ftl
    targets = config.domains.target_names()
    if transport not in _TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}; expected one of {sorted(_TRANSPORTS)}")
    sus = dict(zip(targets, adaptation_sets(config, targets)))

    def adapt(domains: list[str], name: str) -> tensornet.ModelWeights:
        cfg = federation.FtlConfig(n_sus=len(domains), rounds=f.rounds, local_epochs=f.local_epochs,
                                   batch_size=f.batch_size, lr=f.lr, timeout_s=f.timeout_s,
                                   max_retries=f.max_retries)
        with _TRANSPORTS[transport]([sus[d] for d in domains], cfg, config.seed) as link:
            model = federation.run_ftl(spec, pruned, cfg, link)
        tensornet.save_checkpoint(outdir / name, spec, model)
        return model

    log(f"stage ftl: {f.rounds} rounds over SUs {targets}")
    ftl = adapt(targets, "model_ftl.bin")
    log(f"stage ftl: single-SU transfer using {targets[0]} only")
    tl = adapt(targets[:1], "model_tl.bin")
    zero_shot = None
    if f.zero_shot_domain is not None:
        log(f"stage ftl: zero-shot variant excluding {f.zero_shot_domain}")
        zero_shot = adapt([d for d in targets if d != f.zero_shot_domain], "model_ftl_zero_shot.bin")
    return ftl, tl, zero_shot


@_stage("rt")
def rt_stage(config: ExperimentConfig, outdir, log=lambda msg: None) -> dict[str, tensornet.ModelWeights]:
    """The rt stage: regular training from scratch on each target domain,
    written to ``model_rt_<domain>.bin``. Returns the models by domain."""
    models = {}
    for domain in config.domains.target_names():
        log(f"stage rt: regular training on {domain}")
        models[domain] = _train_domain_model(config, domain, *_domain_datasets(config, domain), log).weights
        tensornet.save_checkpoint(Path(outdir) / f"model_rt_{domain}.bin", config.detector_spec(),
                                  models[domain])
    return models


@_stage("eval")
def eval_stage(config: ExperimentConfig, outdir, models: PipelineResult,
               log=lambda msg: None) -> list[SweepRow]:
    """The eval stage: `evaluate_schemes` on the models ``models`` holds,
    written to ``results.csv`` and ``summary.json``. Returns the rows."""
    rows = evaluate_schemes(config, models, log)
    csv_path = Path(outdir) / "results.csv"
    emit_results(rows, csv_path, Path(outdir) / "summary.json", table_snr_db=config.evaluation.table_snr_db)
    log(f"stage eval: wrote {len(rows)} rows to {csv_path}")
    return rows


def _somp_accuracy(config: ExperimentConfig, dataset: LabeledDataset, n_active: int) -> float:
    pattern = config.sensing.pattern()
    matrix = multicoset.build_measurement_matrix(pattern).values
    n_subbands = config.sensing.n_subbands
    results = baselines.somp_detect(dataset.coset_spectra, matrix, n_active)
    # measurement column -> physical band (band_order is its own inverse)
    bits = np.stack([r.occupancy(n_subbands) for r in results])[:, multicoset.band_order(n_subbands)]
    return int((bits == dataset.labels).sum()) / (len(dataset) * n_subbands)


def run_pipeline(config: ExperimentConfig, outdir, progress=None) -> PipelineResult:
    """Execute the configured stages end to end, writing checkpoints, the
    prune report, and the sweep CSV/JSON under ``outdir``. The prune and ftl
    stages need the train stage's source model, so either runs it.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    log = progress if progress is not None else (lambda msg: None)
    result = PipelineResult(config=config, spec=config.detector_spec())
    stages = set(config.stages)
    (outdir / "config.json").write_text(config.to_json() + "\n", encoding="utf-8")

    if stages & {"train", "prune", "ftl"}:
        result.source_model, result.source_p_acc_unpruned, source_sets = train_stage(config, outdir, log)
        if stages & {"prune", "ftl"}:
            result.pruned_model, result.prune_report, result.source_p_acc_pruned = prune_stage(
                config, outdir, result.source_model, source_sets, result.source_p_acc_unpruned, log)
        # the source sets served the train and prune stages; drop them so the
        # later stages do not hold them alongside their own
        del source_sets
    if "ftl" in stages:
        result.ftl_model, result.tl_model, result.zero_shot_model = ftl_stage(
            config, outdir, result.pruned_model, "inproc", log)
    if "rt" in stages:
        result.rt_models = rt_stage(config, outdir, log)
    if "eval" in stages:
        result.rows = eval_stage(config, outdir, result, log)
    return result


def evaluate_schemes(config: ExperimentConfig, result: PipelineResult, log=lambda msg: None) -> list[SweepRow]:
    """Score every configured scheme on held-out test sets for each target
    domain and SNR grid point.
    """
    spec = config.detector_spec()
    rows: list[SweepRow] = []
    threshold = config.evaluation.threshold
    n_test = config.evaluation.n_test
    for domain in config.domains.target_names():
        n_active = config.domains.n_active(domain)
        zero_shot = result.zero_shot_model if domain == config.ftl.zero_shot_domain else None
        models = [(SCHEME_FTL, result.ftl_model), (SCHEME_TL, result.tl_model),
                  (SCHEME_FTL_ZERO_SHOT, zero_shot), (SCHEME_RT, result.rt_models.get(domain))]
        for snr_db in config.evaluation.snr_grid:
            test = build_dataset(config, domain, "test", n_test, snr_db, keep_spectra=True)
            scored = [
                (scheme, prediction_accuracy(predict_occupancy(spec, model, test.features, threshold),
                                             test.labels))
                for scheme, model in models if model is not None
            ]
            scored.append((SCHEME_SOMP, _somp_accuracy(config, test, n_active)))
            for scheme, p_acc in scored:
                rows.append(SweepRow(domain=domain, scheme=scheme, snr_db=snr_db,
                                     p_acc=p_acc, n_test=n_test))
        log(f"stage eval: finished domain {domain}")
    return rows
