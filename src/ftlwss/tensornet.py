"""Dense/convolutional network core for per-sub-band occupancy detection.

The detector maps an L x N x 2 feature tensor to L occupancy probabilities
through two valid (no-pad, stride-1) 3x3 convolutions, one hidden fully
connected layer and a sigmoid output layer; ReLU and dropout follow every
hidden layer. Training minimises the element-wise binary cross-entropy summed
over sub-bands and averaged over the samples in the batch, with plain SGD.

The parameter set splits into general-feature layers (both convolutions) and
domain-specific layers (both fully connected layers). Gradients are plain
dicts from parameter name to array: `backward` returns all eight, or only the
four domain-specific ones under ``scope="ds_only"``, and `sgd_step` steps
exactly the parameters its gradient dict holds. Under an optional prune mask
over the hidden FC weight matrix, `sgd_step` updates only the kept entries
and writes +0.0 at the pruned ones, so pruned weights stay exactly zero.

`forward` has two paths that give the same bytes. ``scope="all"`` keeps
every intermediate for the full backward pass. ``scope="ds_only"`` is the
lean path for every pass that needs no convolution gradient (evaluation,
prediction, federated adaptation): it runs both convolutions on L2-sized
blocks of samples, keeps only what the FC gradients read, and can take
conv1's output precomputed (`conv1_activations`), since conv1 is frozen
while the FC layers adapt.

Everything is plain numpy. Forward/backward are pure with respect to the
weights; all randomness (init, shuffling, dropout) flows through explicit
generators, so runs are bit-reproducible per seed.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import ByteReader, DecodeError, tensor_nbytes, write_tensor

CHECKPOINT_MAGIC = b"WSSN"
CHECKPOINT_VERSION = 1

PARAM_NAMES = (
    "conv1_w", "conv1_b", "conv2_w", "conv2_b",
    "fc1_w", "fc1_b", "out_w", "out_b",
)
GENERAL_FEATURE_PARAMS = PARAM_NAMES[:4]
DOMAIN_SPECIFIC_PARAMS = PARAM_NAMES[4:]

BCE_CLIP = 1e-7


@dataclass(frozen=True)
class DetectorSpec:
    """Architecture hyperparameters; the output width equals ``in_rows``
    (one probability per sub-band).
    """

    in_rows: int
    in_cols: int
    conv1_filters: int = 32
    conv2_filters: int = 16
    hidden_units: int = 128
    dropout_conv: float = 0.2
    dropout_fc: float = 0.5

    def __post_init__(self):
        if self.in_rows < 5 or self.in_cols < 5:
            raise ValueError("input must be at least 5x5 to survive two valid 3x3 convolutions")
        if min(self.conv1_filters, self.conv2_filters, self.hidden_units) < 1:
            raise ValueError("layer widths must be positive")
        for rate in (self.dropout_conv, self.dropout_fc):
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")

    @property
    def conv1_shape(self) -> tuple[int, int, int]:
        return (self.in_rows - 2, self.in_cols - 2, self.conv1_filters)

    @property
    def conv2_shape(self) -> tuple[int, int, int]:
        return (self.in_rows - 4, self.in_cols - 4, self.conv2_filters)

    @property
    def flat_dim(self) -> int:
        r, c, f = self.conv2_shape
        return r * c * f

    @property
    def n_outputs(self) -> int:
        return self.in_rows

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {
            "conv1_w": (3, 3, 2, self.conv1_filters),
            "conv1_b": (self.conv1_filters,),
            "conv2_w": (3, 3, self.conv1_filters, self.conv2_filters),
            "conv2_b": (self.conv2_filters,),
            "fc1_w": (self.flat_dim, self.hidden_units),
            "fc1_b": (self.hidden_units,),
            "out_w": (self.hidden_units, self.n_outputs),
            "out_b": (self.n_outputs,),
        }


@dataclass
class ModelWeights:
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray
    prune_mask: np.ndarray | None = None  # True where fc1_w entries are kept

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "ModelWeights":
        fields = {name: getattr(self, name).copy() for name in PARAM_NAMES}
        mask = None if self.prune_mask is None else self.prune_mask.copy()
        return ModelWeights(**fields, prune_mask=mask)

    def astype(self, dtype) -> "ModelWeights":
        fields = {name: getattr(self, name).astype(dtype) for name in PARAM_NAMES}
        mask = None if self.prune_mask is None else self.prune_mask.copy()
        return ModelWeights(**fields, prune_mask=mask)

    @property
    def dtype(self):
        return self.fc1_w.dtype


def init_weights(spec: DetectorSpec, rng: np.random.Generator, dtype=np.float32) -> ModelWeights:
    """Fan-in-scaled uniform init (bound sqrt(6 / fan_in)) for weights, zeros
    for biases. Deterministic per generator state.
    """
    shapes = spec.param_shapes()
    fields = {}
    for name, shape in shapes.items():
        if name.endswith("_b"):
            fields[name] = np.zeros(shape, dtype=dtype)
            continue
        fan_in = int(np.prod(shape[:-1]))
        bound = np.sqrt(6.0 / fan_in)
        fields[name] = rng.uniform(-bound, bound, size=shape).astype(dtype)
    return ModelWeights(**fields)


def _im2col(x: np.ndarray) -> np.ndarray:
    """(B, H, W, C) -> (B, (H-2)*(W-2), 9*C) patches for a valid 3x3 conv."""
    windows = sliding_window_view(x, (3, 3), axis=(1, 2))
    b, ho, wo = windows.shape[:3]
    patches = windows.transpose(0, 1, 2, 4, 5, 3)  # (B, Ho, Wo, 3, 3, C)
    return np.ascontiguousarray(patches).reshape(b, ho * wo, -1)


def _conv_input_grad(dz: np.ndarray, w: np.ndarray, in_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient w.r.t. the (B, H, W, C) input of a valid 3x3 conv from the
    (B, (H-2)*(W-2), F) output gradient and the (3, 3, C, F) kernel: one GEMM
    per tap, added into the window that tap read, in (u, v) order. Each entry
    sums the same products in the same order as the unrolled
    ``dz @ w.reshape(-1, F).T`` plus 9-way scatter-add, so the bytes match it.
    """
    b, h, w_in, c = in_shape
    ho, wo = h - 2, w_in - 2
    rows = dz.reshape(-1, w.shape[-1])
    out = np.zeros(in_shape, dtype=dz.dtype)
    for u in range(3):
        for v in range(3):
            out[:, u:u + ho, v:v + wo, :] += (rows @ w[u, v].T).reshape(b, ho, wo, c)
    return out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _dropout_mask(shape, rate: float, rng: np.random.Generator, dtype) -> np.ndarray:
    """Inverted-dropout mask: kept units are scaled by 1/(1-rate)."""
    keep = rng.random(shape) >= rate
    return keep.astype(dtype) / np.dtype(dtype).type(1.0 - rate)


@dataclass
class ForwardCache:
    flat: np.ndarray        # conv2 activation, flattened, post-dropout
    z3: np.ndarray
    mask3: np.ndarray | None
    h3: np.ndarray
    probs: np.ndarray
    # what only the convolutions' gradients read: None after a
    # ``scope="ds_only"`` forward
    x: np.ndarray | None = None
    cols1: np.ndarray | None = None
    z1: np.ndarray | None = None
    mask1: np.ndarray | None = None
    a1: np.ndarray | None = None          # conv1 activation, image layout, post-dropout
    cols2: np.ndarray | None = None
    z2: np.ndarray | None = None
    mask2: np.ndarray | None = None


# Bytes of conv2 patches per block of the lean forward: about what an L2
# cache holds, so a block's im2col is read back by its GEMM from cache.
# One full-scale sample (2.5 MB of patches) is a block of its own.
_CONV_BLOCK_BYTES = 2 << 20


def _conv_block(spec: DetectorSpec, dtype) -> int:
    """Samples per block of the lean forward's convolutions."""
    r2, c2, _ = spec.conv2_shape
    patch_bytes = r2 * c2 * 9 * spec.conv1_filters * np.dtype(dtype).itemsize
    return max(1, _CONV_BLOCK_BYTES // patch_bytes)


def _conv1_relu(weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Post-ReLU conv1 output (B, Ho*Wo, F1) of the (B, H, W, 2) input."""
    f1 = weights.conv1_w.shape[-1]
    return np.maximum(_im2col(x) @ weights.conv1_w.reshape(-1, f1) + weights.conv1_b, 0)


def conv1_activations(spec: DetectorSpec, weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Post-ReLU, pre-dropout conv1 output of the batch ``x``, in image
    layout (B, H-2, W-2, F1), computed block by block.

    Each sample's rows are a GEMM of their own, so the rows of any subset
    equal, bit for bit, the rows a forward pass over that subset computes;
    `forward` takes them as ``conv1_out`` where conv1 is frozen.
    """
    x = _check_input(spec, np.asarray(x)).astype(weights.dtype, copy=False)
    out = np.empty((x.shape[0], *spec.conv1_shape), dtype=weights.dtype)
    step = _conv_block(spec, weights.dtype)
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        out[rows] = _conv1_relu(weights, x[rows]).reshape(-1, *spec.conv1_shape)
    return out


def _check_input(spec: DetectorSpec, x: np.ndarray) -> np.ndarray:
    if x.ndim != 4 or x.shape[1:] != (spec.in_rows, spec.in_cols, 2):
        raise ValueError(
            f"input must have shape (B, {spec.in_rows}, {spec.in_cols}, 2), got {x.shape}"
        )
    return x


def forward(
    spec: DetectorSpec,
    weights: ModelWeights,
    x: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
    dropout_masks: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    *,
    scope: str = "all",
    conv1_out: np.ndarray | None = None,
):
    """Run the network. Returns (probabilities, cache).

    ``x`` is one sample (L, N, 2) or a batch (B, L, N, 2). Eval mode is
    deterministic and dropout-free. Train mode draws inverted-dropout masks
    from ``rng`` unless explicit ``dropout_masks`` (already keep-scaled) are
    given, which the gradient checker uses to hold masks fixed.

    ``scope`` names the gradients the cache must serve, as in `backward`.
    ``"all"`` keeps every intermediate. ``"ds_only"`` is the lean path for
    passes that need no convolution gradient: both convolutions run as
    im2col + GEMM on blocks of samples sized to L2 (`_CONV_BLOCK_BYTES`),
    and the cache keeps only what the FC gradients read. Both give the same
    bytes: each sample's convolutions are GEMMs of their own, fc1 and the
    output layer still run on the whole batch (their row count sets the
    rounding), and the dropout masks are drawn for the whole batch in the
    same order. Under ``"ds_only"``, ``conv1_out`` may hold the batch's
    `conv1_activations`, computed once for samples that recur while conv1
    is frozen; ``x`` then only sets the batch.
    """
    if scope not in ("all", "ds_only"):
        raise ValueError(f"unknown scope {scope!r}")
    x = np.asarray(x)
    single = x.ndim == 3
    if single:
        x = x[None]
    _check_input(spec, x)
    dtype = weights.dtype
    x = x.astype(dtype, copy=False)
    batch = x.shape[0]
    if train and rng is None and dropout_masks is None:
        raise ValueError("train mode needs an rng (or explicit dropout masks)")
    if conv1_out is not None:
        if scope != "ds_only":
            raise ValueError('conv1_out needs scope="ds_only": conv1\'s gradient reads its input')
        if conv1_out.shape != (batch, *spec.conv1_shape):
            raise ValueError(f"conv1_out has shape {conv1_out.shape}, "
                             f"expected {(batch, *spec.conv1_shape)}")

    r1, c1, f1 = spec.conv1_shape
    r2, c2, f2 = spec.conv2_shape
    mask1 = mask2 = mask3 = None
    if train:
        if dropout_masks is not None:
            mask1, mask2, mask3 = dropout_masks
        else:
            mask1 = _dropout_mask((batch, r1 * c1, f1), spec.dropout_conv, rng, dtype)
            mask2 = _dropout_mask((batch, r2 * c2, f2), spec.dropout_conv, rng, dtype)
            mask3 = _dropout_mask((batch, spec.hidden_units), spec.dropout_fc, rng, dtype)

    if scope == "all":
        cols1 = _im2col(x)
        z1 = cols1 @ weights.conv1_w.reshape(-1, f1) + weights.conv1_b
        a1 = np.maximum(z1, 0)
        if train:
            a1 = a1 * mask1
        a1_img = a1.reshape(batch, r1, c1, f1)

        cols2 = _im2col(a1_img)
        z2 = cols2 @ weights.conv2_w.reshape(-1, f2) + weights.conv2_b
        a2 = np.maximum(z2, 0)
        if train:
            a2 = a2 * mask2
        flat = a2.reshape(batch, -1)
    else:
        flat = np.empty((batch, spec.flat_dim), dtype=dtype)
        step = _conv_block(spec, dtype)
        for start in range(0, batch, step):
            rows = slice(start, start + step)
            if conv1_out is None:
                a1 = _conv1_relu(weights, x[rows])
            else:
                a1 = conv1_out[rows].reshape(-1, r1 * c1, f1)
            if train:
                a1 = a1 * mask1[rows]
            z2 = _im2col(a1.reshape(-1, r1, c1, f1)) @ weights.conv2_w.reshape(-1, f2)
            a2 = np.maximum(z2 + weights.conv2_b, 0)
            if train:
                a2 = a2 * mask2[rows]
            flat[rows] = a2.reshape(-1, spec.flat_dim)

    z3 = flat @ weights.fc1_w + weights.fc1_b
    h3 = np.maximum(z3, 0)
    if train:
        h3 = h3 * mask3

    z4 = h3 @ weights.out_w + weights.out_b
    probs = _sigmoid(z4)

    cache = ForwardCache(flat=flat, z3=z3, mask3=mask3, h3=h3, probs=probs)
    if scope == "all":
        cache.x, cache.cols1, cache.z1, cache.mask1, cache.a1 = x, cols1, z1, mask1, a1_img
        cache.cols2, cache.z2, cache.mask2 = cols2, z2, mask2
    return (probs[0] if single else probs), cache


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Binary cross-entropy summed over sub-bands, averaged over samples.

    Probabilities are clipped to [1e-7, 1 - 1e-7] so the value stays finite
    for saturated predictions. Note the per-sample value is a sum over the L
    outputs, not a mean.
    """
    probs = np.atleast_2d(np.asarray(probs, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    if probs.shape != labels.shape:
        raise ValueError(f"shape mismatch: {probs.shape} vs {labels.shape}")
    p = np.clip(probs, BCE_CLIP, 1.0 - BCE_CLIP)
    per_sample = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).sum(axis=1)
    return float(per_sample.mean())


def backward(spec: DetectorSpec, weights: ModelWeights, cache: ForwardCache, labels: np.ndarray,
             scope: str = "all") -> dict[str, np.ndarray]:
    """Exact gradient of `bce_loss(forward(...))`, as a dict from parameter
    name to array.

    Uses the fused sigmoid + cross-entropy form d/dz = (p - o) / batch and
    honours the dropout masks captured in the cache (a train-mode forward).
    ``scope="all"`` returns all eight gradients; ``scope="ds_only"`` stops
    after the fully connected layers and returns only the four
    domain-specific ones, so the general-feature gradients are never
    computed. A cache from a ``scope="ds_only"`` forward serves only the
    latter.
    """
    if scope not in ("all", "ds_only"):
        raise ValueError(f"unknown scope {scope!r}")
    if scope == "all" and cache.cols1 is None:
        raise ValueError('scope="all" needs the cache of a scope="all" forward')
    labels = np.atleast_2d(np.asarray(labels))
    probs = cache.probs
    if labels.shape != probs.shape:
        raise ValueError(f"labels shape {labels.shape} does not match predictions {probs.shape}")
    dtype = weights.dtype
    batch = probs.shape[0]
    r1, c1, f1 = spec.conv1_shape
    r2, c2, f2 = spec.conv2_shape

    dz4 = (probs - labels.astype(dtype)) / dtype.type(batch)
    g_out_w = cache.h3.T @ dz4
    g_out_b = dz4.sum(axis=0)

    dh3 = dz4 @ weights.out_w.T
    if cache.mask3 is not None:
        dh3 = dh3 * cache.mask3
    dz3 = dh3 * (cache.z3 > 0)
    grads = {"fc1_w": cache.flat.T @ dz3, "fc1_b": dz3.sum(axis=0),
             "out_w": g_out_w, "out_b": g_out_b}
    if scope == "ds_only":
        return grads

    dflat = dz3 @ weights.fc1_w.T
    da2 = dflat.reshape(batch, r2 * c2, f2)
    if cache.mask2 is not None:
        da2 = da2 * cache.mask2
    dz2 = da2 * (cache.z2 > 0)
    g_conv2_w = np.tensordot(cache.cols2, dz2, axes=([0, 1], [0, 1])).reshape(3, 3, f1, f2)
    g_conv2_b = dz2.sum(axis=(0, 1))

    da1 = _conv_input_grad(dz2, weights.conv2_w, cache.a1.shape).reshape(batch, r1 * c1, f1)
    if cache.mask1 is not None:
        da1 = da1 * cache.mask1
    dz1 = da1 * (cache.z1 > 0)
    g_conv1_w = np.tensordot(cache.cols1, dz1, axes=([0, 1], [0, 1])).reshape(3, 3, 2, f1)
    g_conv1_b = dz1.sum(axis=(0, 1))

    return {"conv1_w": g_conv1_w, "conv1_b": g_conv1_b,
            "conv2_w": g_conv2_w, "conv2_b": g_conv2_b, **grads}


def sgd_step(weights: ModelWeights, grads: dict[str, np.ndarray], lr: float, *,
             kept: np.ndarray | None = None) -> ModelWeights:
    """Plain gradient step theta <- theta - lr * g on exactly the parameters
    ``grads`` holds, in ``PARAM_NAMES`` order.

    Every parameter absent from ``grads`` is returned as the same array
    object, so a step on `backward`'s ``scope="ds_only"`` gradients leaves
    the convolutional (general-feature) layers untouched. With a prune mask
    the hidden-FC step is computed at the kept positions only and every
    pruned weight is +0.0. The result shares the untouched arrays and the
    mask with ``weights`` and never writes into it. ``kept`` is
    ``np.flatnonzero(weights.prune_mask)``, passed by a caller that steps
    many times under one mask; it is computed here when omitted.
    """
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    unknown = set(grads) - set(PARAM_NAMES)
    if unknown:
        raise ValueError(f"gradients for unknown parameters {sorted(unknown)}")
    fields = weights.arrays()
    for name in PARAM_NAMES:
        if name not in grads:
            continue
        value = fields[name]
        grad = grads[name]
        if value.shape != grad.shape:
            raise ValueError(f"gradient shape mismatch on {name}: {value.shape} vs {grad.shape}")
        rate = value.dtype.type(lr)
        if name == "fc1_w" and weights.prune_mask is not None:
            if kept is None:
                kept = np.flatnonzero(weights.prune_mask)
            fields[name] = kept_update(value, kept, rate * grad.reshape(-1)[kept])
        else:
            step = rate * grad
            fields[name] = np.subtract(value, step, out=step)
    return ModelWeights(**fields, prune_mask=weights.prune_mask)


def kept_update(value: np.ndarray, kept: np.ndarray, step: np.ndarray) -> np.ndarray:
    """``value - step`` at the flat indices ``kept``, +0.0 everywhere else.
    ``step`` holds one entry per kept index and is overwritten.
    """
    np.subtract(value.reshape(-1)[kept], step, out=step)
    out = np.zeros(value.shape, dtype=step.dtype)
    out.reshape(-1)[kept] = step
    return out


def mask_gradients(grads: dict[str, np.ndarray],
                   prune_mask: np.ndarray | None) -> dict[str, np.ndarray]:
    """Zero the hidden-FC weight gradient at pruned positions."""
    if prune_mask is not None:
        grads["fc1_w"] = np.where(prune_mask, grads["fc1_w"], grads["fc1_w"].dtype.type(0))
    return grads


@dataclass
class TrainResult:
    weights: ModelWeights
    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0


def evaluate_loss(spec: DetectorSpec, weights: ModelWeights, features: np.ndarray,
                  labels: np.ndarray, chunk: int = 256) -> float:
    """Eval-mode BCE over a whole dataset, averaged over all samples, on the
    lean forward path. Only one chunk's forward cache is alive at a time.
    """
    n = features.shape[0]
    total = 0.0
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        total += bce_loss(forward(spec, weights, features[sl], scope="ds_only")[0], labels[sl]) * (sl.stop - sl.start)
    return total / n


def train_offline(
    spec: DetectorSpec,
    train_features: np.ndarray,
    train_labels: np.ndarray,
    val_features: np.ndarray,
    val_labels: np.ndarray,
    rng: np.random.Generator,
    *,
    lr: float,
    batch_size: int,
    max_epochs: int,
    patience: int,
    lr_decay_factor: float = 1.0,
    lr_decay_stall: int = 8,
    init: ModelWeights | None = None,
) -> TrainResult:
    """Mini-batch SGD at rate ``lr`` with per-epoch shuffling and
    patience-based early stopping on the validation loss; returns the
    best-validation snapshot.

    Stops after ``max_epochs`` epochs, or once the validation loss has
    failed to improve for more than ``patience`` consecutive epochs
    (patience 0 stops at the first non-improving epoch). The optional
    plateau decay multiplies the rate by ``lr_decay_factor`` whenever the
    validation loss has stalled for another ``lr_decay_stall`` epochs; the
    default factor 1.0 keeps the rate constant.
    """
    if train_features.shape[0] == 0 or val_features.shape[0] == 0:
        raise ValueError("training and validation splits must be non-empty")
    weights = init.copy() if init is not None else init_weights(spec, rng)
    n = train_features.shape[0]
    result = TrainResult(weights=weights.copy(), best_epoch=-1)
    # the starting point is a candidate too, so tuning never returns weights
    # worse (on validation) than it was given
    best_val = evaluate_loss(spec, weights, val_features, val_labels)
    stall = 0
    kept = None if weights.prune_mask is None else np.flatnonzero(weights.prune_mask)
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            probs, cache = forward(spec, weights, train_features[idx], train=True, rng=rng)
            grads = backward(spec, weights, cache, train_labels[idx])
            del cache  # else this batch's activations stay alive through the next forward
            weights = sgd_step(weights, grads, lr, kept=kept)
            epoch_loss += bce_loss(probs, train_labels[idx]) * len(idx)
        result.train_losses.append(epoch_loss / n)
        val_loss = evaluate_loss(spec, weights, val_features, val_labels)
        result.val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            result.weights = weights.copy()
            result.best_epoch = epoch
            stall = 0
        else:
            stall += 1
            if stall > patience:
                break
            if lr_decay_factor != 1.0 and stall % lr_decay_stall == 0:
                lr *= lr_decay_factor
    return result


def finite_difference_check(
    spec: DetectorSpec,
    weights: ModelWeights,
    x: np.ndarray,
    labels: np.ndarray,
    delta: float = 1e-5,
    indices: dict[str, np.ndarray] | None = None,
    dropout_masks: tuple | None = None,
) -> float:
    """Worst relative error between the analytic gradient and central finite
    differences over the selected parameter entries.

    ``indices`` maps parameter names to flat index arrays; by default every
    entry of every parameter is checked (tiny nets only). The step for entry
    theta_i is delta * max(1, |theta_i|). The error denominator is floored at
    1e-5 so near-zero gradient pairs that agree to ~1e-11 absolute do not
    register as large relative errors. When ``dropout_masks`` is given the
    same masks are used for the analytic pass and both sides of every
    difference, so the check is valid in train mode too.
    """
    train = dropout_masks is not None

    def loss_at() -> float:
        probs, _ = forward(spec, weights, x, train=train, dropout_masks=dropout_masks)
        return bce_loss(probs, labels)

    probs, cache = forward(spec, weights, x, train=train, dropout_masks=dropout_masks)
    analytic = backward(spec, weights, cache, labels)
    if indices is None:
        indices = {name: np.arange(getattr(weights, name).size) for name in PARAM_NAMES}

    worst = 0.0
    for name, idx in indices.items():
        arr = getattr(weights, name)
        grad = analytic[name].reshape(-1)
        flat = arr.reshape(-1)
        for i in np.asarray(idx, dtype=np.int64):
            orig = flat[i]
            step = delta * max(1.0, abs(float(orig)))
            flat[i] = orig + step
            loss_plus = loss_at()
            flat[i] = orig - step
            loss_minus = loss_at()
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * step)
            ga = float(grad[i])
            rel = abs(fd - ga) / max(abs(fd), abs(ga), 1e-5)
            worst = max(worst, rel)
    return worst


# ---------------------------------------------------------------------------
# Checkpoint codec: magic "WSSN", version, spec header, eight float32 tensor
# sections, then a tagged prune-mask bitset section. Federation broadcasts
# reuse the spec header and the mask section.
# ---------------------------------------------------------------------------

_CHECKPOINT_HEADER = struct.Struct("<4sI")
SPEC_HEADER = struct.Struct("<5I2f")


def write_spec(buf, offset: int, spec: DetectorSpec) -> int:
    """Write the spec header at ``offset`` of ``buf``; returns the end offset."""
    SPEC_HEADER.pack_into(
        buf, offset, spec.in_rows, spec.in_cols, spec.conv1_filters, spec.conv2_filters,
        spec.hidden_units, spec.dropout_conv, spec.dropout_fc,
    )
    return offset + SPEC_HEADER.size


def read_spec(reader: ByteReader) -> DetectorSpec:
    offset = reader.offset
    in_rows, in_cols, conv1, conv2, hidden, drop_conv, drop_fc = SPEC_HEADER.unpack(
        reader.take(SPEC_HEADER.size))
    try:
        return DetectorSpec(
            in_rows=in_rows, in_cols=in_cols, conv1_filters=conv1,
            conv2_filters=conv2, hidden_units=hidden,
            dropout_conv=round(drop_conv, 6), dropout_fc=round(drop_fc, 6),
        )
    except ValueError as exc:
        raise DecodeError(f"invalid spec header: {exc}", offset) from exc


def pack_mask(mask: np.ndarray) -> np.ndarray:
    """The prune mask as a little-endian bitset, one bit per fc1_w entry."""
    return np.packbits(np.asarray(mask, dtype=bool).view(np.uint8).reshape(-1), bitorder="little")


def mask_section_nbytes(bits: np.ndarray | None) -> int:
    """Encoded size of the mask section for ``pack_mask``'s bitset, or of
    the one tag byte that says there is no mask.
    """
    return 1 if bits is None else 9 + bits.size


def write_mask_section(buf, offset: int, bits: np.ndarray | None, nbits: int) -> int:
    """Write the mask section (tag 0, or tag 1, the bit count and the
    bitset) at ``offset`` of ``buf``; returns the end offset.
    """
    if bits is None:
        buf[offset] = 0
        return offset + 1
    struct.pack_into("<BQ", buf, offset, 1, nbits)
    offset += 9
    buf[offset:offset + bits.size] = memoryview(bits)
    return offset + bits.size


def read_mask_section(reader: ByteReader, shape: tuple[int, ...]):
    """(mask of ``shape``, its raw bitset), or (None, None) for tag 0."""
    tag = reader.u8()
    if tag == 0:
        return None, None
    if tag != 1:
        raise DecodeError(f"unknown mask section tag {tag}", reader.offset - 1)
    nbits = reader.u64()
    if nbits != math.prod(shape):
        raise DecodeError(f"mask bit count {nbits} does not cover fc1_w {shape}", reader.offset)
    bits = np.frombuffer(reader.take((nbits + 7) // 8), dtype=np.uint8)
    # pack_mask pads with zeros, so equal bitsets always mean equal masks
    if nbits % 8 and bits[-1] >> (nbits % 8):
        raise DecodeError(f"mask bitset has bits set past its {nbits} bits", reader.offset - 1)
    mask = np.unpackbits(bits, count=nbits, bitorder="little").view(bool).reshape(shape)
    return mask, bits


def checkpoint_bytes(spec: DetectorSpec, weights: ModelWeights) -> bytearray:
    """The checkpoint of ``weights``, written in one pass."""
    mask = weights.prune_mask
    bits = None if mask is None else pack_mask(mask)
    size = _CHECKPOINT_HEADER.size + SPEC_HEADER.size + mask_section_nbytes(bits)
    size += sum(tensor_nbytes(getattr(weights, name)) for name in PARAM_NAMES)
    buf = bytearray(size)
    _CHECKPOINT_HEADER.pack_into(buf, 0, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    offset = write_spec(buf, _CHECKPOINT_HEADER.size, spec)
    for name in PARAM_NAMES:
        offset = write_tensor(buf, offset, getattr(weights, name))
    write_mask_section(buf, offset, bits, weights.fc1_w.size)
    return buf


def parse_checkpoint(data) -> tuple[DetectorSpec, ModelWeights]:
    reader = ByteReader(data)
    magic = bytes(reader.take(4))
    if magic != CHECKPOINT_MAGIC:
        raise DecodeError(f"bad checkpoint magic {magic!r}", 0)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise DecodeError(f"unsupported checkpoint version {version}", 4)
    spec = read_spec(reader)
    fields = {}
    expected = spec.param_shapes()
    for name in PARAM_NAMES:
        tensor = reader.tensor()
        if tensor.shape != expected[name]:
            raise DecodeError(
                f"tensor {name} has shape {tensor.shape}, spec implies {expected[name]}",
                reader.offset,
            )
        fields[name] = tensor
    mask, _ = read_mask_section(reader, expected["fc1_w"])
    reader.expect_end()
    return spec, ModelWeights(**fields, prune_mask=mask)


def save_checkpoint(path, spec: DetectorSpec, weights: ModelWeights) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(spec, weights))


def load_checkpoint(path) -> tuple[DetectorSpec, ModelWeights]:
    """Read a checkpoint file; the weights are writable views of one buffer."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return parse_checkpoint(data)
