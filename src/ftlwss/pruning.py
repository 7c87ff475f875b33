"""Magnitude pruning of the hidden fully connected layer.

The hidden FC weight matrix holds the bulk of the detector's parameters. To
sparsify it, all N weights are sorted by absolute value into an ascending
vector eta and the threshold is the ceil(ratio * N)-th smallest magnitude
(1-indexed). Weights with |w| >= threshold survive; the rest are zeroed and a
boolean keep-mask records the sparsity pattern so later training steps cannot
resurrect pruned weights. With distinct magnitudes this zeroes exactly
ceil(ratio * N) - 1 entries, a deliberate 1/N deviation from the nominal
ratio that comes from combining the 1-indexed order statistic with the
keep-if-at-threshold rule.

Biases are never pruned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensornet import DetectorSpec, ModelWeights, TrainResult, train_offline


@dataclass(frozen=True)
class PruneReport:
    ratio: float
    threshold: float
    zeroed_count: int
    total_count: int


def pruning_threshold(weights: np.ndarray, ratio: float) -> float:
    """The ceil(ratio * N)-th smallest absolute weight (1-indexed)."""
    flat = np.asarray(weights).reshape(-1)
    if flat.size == 0:
        raise ValueError("cannot prune an empty weight vector")
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"pruning ratio must lie in (0, 1), got {ratio}")
    magnitudes = np.abs(flat)
    k = math.ceil(ratio * flat.size)
    magnitudes.partition(k - 1)  # in place: what a sort would put at k - 1
    return float(magnitudes[k - 1])


def apply_pruning(weights: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Zero every weight with |w| < threshold. Returns (pruned, keep_mask).

    Idempotent: pruning an already-pruned matrix with the same threshold
    changes nothing.
    """
    if threshold < 0:
        raise ValueError("threshold must be non-negative")
    weights = np.asarray(weights)
    mask = np.abs(weights) >= threshold
    return np.where(mask, weights, weights.dtype.type(0)), mask


def prune_model(model: ModelWeights, ratio: float) -> tuple[ModelWeights, PruneReport]:
    """Prune the hidden FC weight matrix of a model and attach the keep-mask."""
    threshold = pruning_threshold(model.fc1_w, ratio)
    pruned_fc1, mask = apply_pruning(model.fc1_w, threshold)
    # models are never written in place, so the other arrays are shared
    out = ModelWeights(**{**model.arrays(), "fc1_w": pruned_fc1}, prune_mask=mask)
    report = PruneReport(
        ratio=ratio,
        threshold=threshold,
        zeroed_count=int((~mask).sum()),
        total_count=int(mask.size),
    )
    return out, report


def fine_tune(
    spec: DetectorSpec,
    model: ModelWeights,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    rng: np.random.Generator,
    *,
    lr: float,
    batch_size: int,
    epochs: int,
) -> TrainResult:
    """Re-train the surviving weights for exactly ``epochs`` epochs at a
    constant rate ``lr``; returns the best-validation snapshot.

    Every step is an ``sgd_step``, which updates only the kept hidden-FC
    entries and writes +0.0 at the pruned ones, so pruned weights stay
    exactly zero while everything else (both convolutions, surviving FC
    weights, output layer) updates normally.
    """
    if model.prune_mask is None:
        raise RuntimeError("fine_tune requires a pruned model (prune_mask missing)")
    # patience = epochs never stops early
    return train_offline(spec, train_features, train_labels, val_features, val_labels, rng,
                         lr=lr, batch_size=batch_size, max_epochs=epochs, patience=epochs,
                         init=model)
