"""Dense/convolutional network core for per-sub-band occupancy detection.

The detector maps an L x N x 2 feature tensor to L occupancy probabilities
through two valid (no-pad, stride-1) 3x3 convolutions, one hidden fully
connected layer and a sigmoid output layer; ReLU and dropout follow every
hidden layer. Training minimises the element-wise binary cross-entropy summed
over sub-bands and averaged over the samples in the batch, with plain SGD.

The parameter set splits into general-feature layers (both convolutions) and
domain-specific layers (both fully connected layers). Gradients are plain
dicts from parameter name to array: `backward` returns all eight from the
cache of a ``scope="all"`` forward, only the four domain-specific ones from
that of a ``scope="ds_only"`` forward, and `sgd_step` steps exactly the
parameters its gradient dict holds. Under an optional prune mask over the
hidden FC weight matrix, `sgd_step` updates only the kept entries and writes
+0.0 at the pruned ones, so pruned weights stay exactly zero. A model
carries those entries (`ModelWeights.kept`: the mask's flat indices and
bitset, derived once per mask object by `KeptEntries.of`), and hands them
on to every model `sgd_step` or `read_model` makes from it.

`forward` runs both convolutions in one loop over blocks of samples, and
its two scopes give the same bytes. Under ``scope="all"`` the loop runs one
block, the whole batch, and the cache keeps every intermediate the full
backward pass reads. ``scope="ds_only"`` is the lean path for every pass that
needs no convolution gradient (evaluation, prediction, federated
adaptation): its blocks are L2-sized, the cache keeps only what the FC
gradients read, and conv1's output can come precomputed
(`conv1_activations`), since conv1 is frozen while the FC layers adapt.

Every entry point takes a batch: (B, L, N, 2) features and (B, L) labels
or probabilities; one sample is the batch ``x[None]``. `model_bytes` and
`read_model` are the one writer and reader of the model section, which a
checkpoint stores with the dense fc1_w and a federation broadcast with its
kept values. Everything is plain numpy. Forward/backward are pure with
respect to the weights; all
randomness (init, shuffling, dropout) flows through explicit generators, so
runs are bit-reproducible per seed.
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
        for name in ("conv1_filters", "conv2_filters", "hidden_units"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("dropout_conv", "dropout_fc"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)}")

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
    _kept: "KeptEntries | None" = field(default=None, init=False, repr=False, compare=False)

    @property
    def kept(self) -> "KeptEntries":
        """The kept entries of ``prune_mask``, derived anew when the mask is
        another object (masks are replaced, never written in place). Threads
        that race here derive equal entries, so no lock is needed."""
        if self._kept is None or self._kept.mask is not self.prune_mask:
            self._kept = KeptEntries.of(self.prune_mask)
        return self._kept

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def with_arrays(self, arrays: dict[str, np.ndarray]) -> "ModelWeights":
        """A model of ``arrays`` under this one's mask, sharing its kept entries."""
        out = ModelWeights(**arrays, prune_mask=self.prune_mask)
        out._kept = self.kept
        return out

    def copy(self) -> "ModelWeights":
        fields = {name: getattr(self, name).copy() for name in PARAM_NAMES}
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
    """What `backward` reads of a forward pass, and nothing else: the FC
    layers' tensors always, the convolutions' patches, pre-activations and
    dropout masks only after a ``scope="all"`` forward (None otherwise).
    The masks are None in eval mode."""

    flat: np.ndarray        # conv2 activation, flattened, post-dropout
    z3: np.ndarray
    mask3: np.ndarray | None
    h3: np.ndarray
    probs: np.ndarray
    cols1: np.ndarray | None = None
    z1: np.ndarray | None = None
    mask1: np.ndarray | None = None
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


def conv1_activations(spec: DetectorSpec, weights: ModelWeights, x: np.ndarray) -> np.ndarray:
    """Post-ReLU, pre-dropout conv1 output of the batch ``x``, in image
    layout (B, H-2, W-2, F1), computed block by block.

    Each sample's rows are a GEMM of their own, so the rows of any subset
    equal, bit for bit, the rows a forward pass over that subset computes;
    `forward` takes them as ``conv1_out`` where conv1 is frozen.
    """
    x = _check_input(spec, np.asarray(x)).astype(weights.dtype, copy=False)
    out = np.empty((x.shape[0], *spec.conv1_shape), dtype=weights.dtype)
    w1 = weights.conv1_w.reshape(-1, spec.conv1_filters)
    step = _conv_block(spec, weights.dtype)
    for start in range(0, x.shape[0], step):
        rows = slice(start, start + step)
        z1 = _im2col(x[rows]) @ w1 + weights.conv1_b
        out[rows] = np.maximum(z1, 0).reshape(-1, *spec.conv1_shape)
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
    *,
    scope: str = "all",
    conv1_out: np.ndarray | None = None,
):
    """Run the network. Returns (probabilities, cache).

    ``x`` is a batch (B, L, N, 2). Eval mode is deterministic and
    dropout-free. Train mode draws the three inverted-dropout masks from
    ``rng`` before anything else, so two generators in one state give one
    set of masks.

    ``scope`` names the gradients the cache must serve: all eight
    (``"all"``) or the four domain-specific ones (``"ds_only"``).
    Both convolutions run as im2col + GEMM in one loop over blocks of
    samples. Under ``"all"`` that loop runs one block, the whole batch, and
    the cache keeps its intermediates. ``"ds_only"`` is the lean path for
    passes that need no convolution gradient: its blocks are sized to L2
    (`_CONV_BLOCK_BYTES`), a block keeps only its rows of conv2's output,
    and the cache keeps only what the FC gradients read. Both give the same
    bytes: each sample's convolutions are GEMMs of their own, fc1 and the
    output layer run on the whole batch (their row count sets the
    rounding), and the dropout masks are drawn for the whole batch in the
    same order. Under ``"ds_only"``, ``conv1_out`` may hold the batch's
    `conv1_activations`, computed once for samples that recur while conv1
    is frozen; ``x`` then only sets the batch.
    """
    if scope not in ("all", "ds_only"):
        raise ValueError(f"unknown scope {scope!r}")
    dtype = weights.dtype
    x = _check_input(spec, np.asarray(x)).astype(dtype, copy=False)
    batch = x.shape[0]
    if train and rng is None:
        raise ValueError("train mode needs an rng")
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
        mask1 = _dropout_mask((batch, r1 * c1, f1), spec.dropout_conv, rng, dtype)
        mask2 = _dropout_mask((batch, r2 * c2, f2), spec.dropout_conv, rng, dtype)
        mask3 = _dropout_mask((batch, spec.hidden_units), spec.dropout_fc, rng, dtype)

    step = batch if scope == "all" else _conv_block(spec, dtype)
    flat = np.empty((batch, spec.flat_dim), dtype=dtype)
    for start in range(0, batch, step):
        rows = slice(start, start + step)
        if conv1_out is None:
            cols1 = _im2col(x[rows])
            z1 = cols1 @ weights.conv1_w.reshape(-1, f1) + weights.conv1_b
            a1 = np.maximum(z1, 0)
        else:
            a1 = conv1_out[rows].reshape(-1, r1 * c1, f1)
        if train:
            a1 = a1 * mask1[rows]
        cols2 = _im2col(a1.reshape(-1, r1, c1, f1))
        z2 = cols2 @ weights.conv2_w.reshape(-1, f2) + weights.conv2_b
        a2 = np.maximum(z2, 0)
        if train:
            a2 = a2 * mask2[rows]
        flat[rows] = a2.reshape(-1, spec.flat_dim)
        if scope == "ds_only":  # nothing of a block outlives it
            cols1 = z1 = a1 = cols2 = z2 = a2 = None

    z3 = flat @ weights.fc1_w + weights.fc1_b
    h3 = np.maximum(z3, 0)
    if train:
        h3 = h3 * mask3

    z4 = h3 @ weights.out_w + weights.out_b
    probs = _sigmoid(z4)

    cache = ForwardCache(flat=flat, z3=z3, mask3=mask3, h3=h3, probs=probs)
    if scope == "all":
        cache.cols1, cache.z1, cache.mask1 = cols1, z1, mask1
        cache.cols2, cache.z2, cache.mask2 = cols2, z2, mask2
    return probs, cache


def bce_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Binary cross-entropy summed over sub-bands, averaged over samples.

    Probabilities are clipped to [1e-7, 1 - 1e-7] so the value stays finite
    for saturated predictions. Note the per-sample value is a sum over the L
    outputs, not a mean.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if probs.ndim != 2 or probs.shape != labels.shape:
        raise ValueError(f"expected (B, L) probabilities and labels, got {probs.shape} and {labels.shape}")
    p = np.clip(probs, BCE_CLIP, 1.0 - BCE_CLIP)
    per_sample = -(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p)).sum(axis=1)
    return float(per_sample.mean())


def backward(spec: DetectorSpec, weights: ModelWeights, cache: ForwardCache,
             labels: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradient of `bce_loss(forward(...))`, as a dict from parameter
    name to array.

    Uses the fused sigmoid + cross-entropy form d/dz = (p - o) / batch and
    honours the dropout masks captured in the cache (a train-mode forward).
    The forward's scope sets the result: a ``scope="all"`` cache gives all
    eight gradients, and a ``scope="ds_only"`` cache only the four
    domain-specific ones, stopping after the fully connected layers so the
    general-feature gradients are never computed. ``labels`` is (B, L).
    """
    labels = np.asarray(labels)
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
    if cache.cols1 is None:  # the cache of a scope="ds_only" forward
        return grads

    dflat = dz3 @ weights.fc1_w.T
    da2 = dflat.reshape(batch, r2 * c2, f2)
    if cache.mask2 is not None:
        da2 = da2 * cache.mask2
    dz2 = da2 * (cache.z2 > 0)
    g_conv2_w = np.tensordot(cache.cols2, dz2, axes=([0, 1], [0, 1])).reshape(3, 3, f1, f2)
    g_conv2_b = dz2.sum(axis=(0, 1))

    da1 = _conv_input_grad(dz2, weights.conv2_w, (batch, r1, c1, f1)).reshape(batch, r1 * c1, f1)
    if cache.mask1 is not None:
        da1 = da1 * cache.mask1
    dz1 = da1 * (cache.z1 > 0)
    g_conv1_w = np.tensordot(cache.cols1, dz1, axes=([0, 1], [0, 1])).reshape(3, 3, 2, f1)
    g_conv1_b = dz1.sum(axis=(0, 1))

    return {"conv1_w": g_conv1_w, "conv1_b": g_conv1_b,
            "conv2_w": g_conv2_w, "conv2_b": g_conv2_b, **grads}


def sgd_step(weights: ModelWeights, grads: dict[str, np.ndarray], lr: float) -> ModelWeights:
    """Plain gradient step theta <- theta - lr * g on exactly the parameters
    ``grads`` holds, in ``PARAM_NAMES`` order.

    Every parameter absent from ``grads`` is returned as the same array
    object, so a step on `backward`'s ``scope="ds_only"`` gradients leaves
    the convolutional (general-feature) layers untouched. With a prune mask
    the hidden-FC step is computed at the kept positions only and every
    pruned weight is +0.0. The result shares the untouched arrays, the mask
    and its kept entries with ``weights`` and never writes into it, so many
    steps under one mask derive the kept indices once.
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
        kept = weights.kept.indices if name == "fc1_w" else None
        if kept is not None:
            fields[name] = kept_update(value, kept, rate * grad.reshape(-1)[kept])
        else:
            step = rate * grad
            fields[name] = np.subtract(value, step, out=step)
    return weights.with_arrays(fields)


def kept_values(array: np.ndarray, indices: np.ndarray | None) -> np.ndarray:
    """The entries of ``array`` at the flat ``indices`` (all of them for
    None), as a 1-D array.
    """
    flat = array.reshape(-1)
    return flat if indices is None else flat[indices]


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


# Samples per forward pass of `evaluate_loss`; part of the loss's bits.
_LOSS_CHUNK = 256


def evaluate_loss(spec: DetectorSpec, weights: ModelWeights, features: np.ndarray,
                  labels: np.ndarray) -> float:
    """Eval-mode BCE over a whole dataset, averaged over all samples, on the
    lean forward path. Only one chunk's forward cache is alive at a time.
    """
    n = features.shape[0]
    total = 0.0
    for start in range(0, n, _LOSS_CHUNK):
        sl = slice(start, min(start + _LOSS_CHUNK, n))
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
    for epoch in range(max_epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            probs, cache = forward(spec, weights, train_features[idx], train=True, rng=rng)
            grads = backward(spec, weights, cache, train_labels[idx])
            del cache  # else this batch's activations stay alive through the next forward
            weights = sgd_step(weights, grads, lr)
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
    dropout_seed: int | None = None,
) -> float:
    """Worst relative error between the analytic gradient and central finite
    differences over every entry of every parameter (tiny nets only).

    The step for entry theta_i is 1e-5 * max(1, |theta_i|). The error
    denominator is floored at 1e-5 so near-zero gradient pairs that agree to
    ~1e-11 absolute do not register as large relative errors. With a
    ``dropout_seed`` every pass runs in train mode on a fresh
    ``np.random.default_rng(dropout_seed)``, so the analytic pass and both
    sides of every difference draw the same dropout masks.
    """
    train = dropout_seed is not None

    def run():
        rng = np.random.default_rng(dropout_seed) if train else None
        return forward(spec, weights, x, train=train, rng=rng)

    analytic = backward(spec, weights, run()[1], labels)
    worst = 0.0
    for name in PARAM_NAMES:
        grad = analytic[name].reshape(-1)
        flat = getattr(weights, name).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            step = 1e-5 * max(1.0, abs(float(orig)))
            flat[i] = orig + step
            loss_plus = bce_loss(run()[0], labels)
            flat[i] = orig - step
            loss_minus = bce_loss(run()[0], labels)
            flat[i] = orig
            fd = (loss_plus - loss_minus) / (2.0 * step)
            ga = float(grad[i])
            worst = max(worst, abs(fd - ga) / max(abs(fd), abs(ga), 1e-5))
    return worst


# ---------------------------------------------------------------------------
# Model codec. A model section is the spec header, the eight float32 tensors
# in PARAM_NAMES order and the prune-mask section. A checkpoint is magic
# "WSSN" and a version before it; a federation broadcast is the message
# header before it and carries fc1_w as the 1-D vector of its kept values.
# ---------------------------------------------------------------------------

_CHECKPOINT_HEADER = struct.Struct("<4sI")
_SPEC_HEADER = struct.Struct("<5I2f")
_MASK_HEADER = struct.Struct("<BQ")  # tag 1, bit count


def _pack_mask(mask: np.ndarray) -> np.ndarray:
    """The prune mask as a little-endian bitset, one bit per fc1_w entry."""
    return np.packbits(np.asarray(mask, dtype=bool).view(np.uint8).reshape(-1), bitorder="little")


@dataclass(frozen=True)
class KeptEntries:
    """The fc1_w entries kept under the prune mask ``mask``: their flat
    indices (``np.flatnonzero(mask)``) and the mask's bitset. All three are
    None without a mask, when every entry is kept.
    """

    mask: np.ndarray | None = None
    indices: np.ndarray | None = None
    bits: np.ndarray | None = None

    @classmethod
    def of(cls, mask: np.ndarray | None) -> "KeptEntries":
        return cls() if mask is None else cls(mask, np.flatnonzero(mask), _pack_mask(mask))


def model_bytes(spec: DetectorSpec, weights: ModelWeights, start: int, *,
                sparse: bool) -> bytearray:
    """A buffer holding the model section of ``weights`` after ``start``
    zero bytes, which the caller fills with its header; written in one pass.

    A dense section stores fc1_w as the matrix. A ``sparse`` one stores the
    1-D vector of its values at the kept entries, so its cost grows with
    the kept entries, not with the matrix. Both end with the mask's bitset.
    """
    kept = weights.kept
    fc1_w = kept_values(weights.fc1_w, kept.indices) if sparse else weights.fc1_w
    arrays = [fc1_w if name == "fc1_w" else getattr(weights, name) for name in PARAM_NAMES]
    mask_nbytes = 1 if kept.bits is None else _MASK_HEADER.size + kept.bits.size
    buf = bytearray(start + _SPEC_HEADER.size + sum(map(tensor_nbytes, arrays)) + mask_nbytes)
    _SPEC_HEADER.pack_into(
        buf, start, spec.in_rows, spec.in_cols, spec.conv1_filters, spec.conv2_filters,
        spec.hidden_units, spec.dropout_conv, spec.dropout_fc,
    )
    offset = start + _SPEC_HEADER.size
    for array in arrays:
        offset = write_tensor(buf, offset, array)
    if kept.bits is not None:  # else the zero byte left there is tag 0, no mask
        _MASK_HEADER.pack_into(buf, offset, 1, weights.fc1_w.size)
        buf[offset + _MASK_HEADER.size:] = memoryview(kept.bits)
    return buf


def read_model(reader: ByteReader, *, sparse: bool, kept: KeptEntries | None = None):
    """Read the model section that ends ``reader``'s buffer, as `model_bytes`
    writes it dense or ``sparse``; returns (spec, weights). Any malformed
    input raises ``DecodeError``. The tensors are views of the buffer, but a
    sparse section's fc1_w values are scattered into a dense matrix with
    +0.0 at the pruned entries. ``kept`` is the previous model's entries,
    from a receiver of many models: the weights get that object, mask
    included, and the bitset is not unpacked, while bitset and shape match.
    """
    offset = reader.offset
    in_rows, in_cols, conv1, conv2, hidden, drop_conv, drop_fc = _SPEC_HEADER.unpack(
        reader.take(_SPEC_HEADER.size))
    try:
        spec = DetectorSpec(
            in_rows=in_rows, in_cols=in_cols, conv1_filters=conv1,
            conv2_filters=conv2, hidden_units=hidden,
            dropout_conv=round(drop_conv, 6), dropout_fc=round(drop_fc, 6),
        )
    except ValueError as exc:
        raise DecodeError(f"invalid spec header: {exc}", offset) from exc
    shapes = spec.param_shapes()
    fields = {}
    for name in PARAM_NAMES:
        offset = reader.offset
        tensor = reader.tensor()
        expected = (tensor.size,) if sparse and name == "fc1_w" else shapes[name]
        if tensor.shape != expected:
            raise DecodeError(f"tensor {name} has shape {tensor.shape}, expected {expected}", offset)
        fields[name] = tensor

    shape = shapes["fc1_w"]
    offset = reader.offset
    tag = reader.u8()
    if tag == 1:
        nbits = reader.u64()
        if nbits != math.prod(shape):
            raise DecodeError(f"mask bit count {nbits} does not cover fc1_w {shape}", reader.offset)
        bits = np.frombuffer(reader.take((nbits + 7) // 8), dtype=np.uint8)
        # _pack_mask pads with zeros, so equal bitsets always mean equal masks
        if nbits % 8 and bits[-1] >> (nbits % 8):
            raise DecodeError(f"mask bitset has bits set past its {nbits} bits", reader.offset - 1)
        if (kept is None or kept.mask is None or kept.mask.shape != shape
                or not np.array_equal(bits, kept.bits)):
            kept = KeptEntries.of(
                np.unpackbits(bits, count=nbits, bitorder="little").view(bool).reshape(shape))
    elif tag == 0:
        kept = KeptEntries()
    else:
        raise DecodeError(f"unknown mask section tag {tag}", offset)
    reader.expect_end()

    if sparse:
        values = fc1_w = fields["fc1_w"]
        n_kept = math.prod(shape) if kept.indices is None else kept.indices.size
        if values.size != n_kept:
            raise DecodeError(f"{values.size} fc1_w values for {n_kept} kept entries", offset)
        if kept.indices is not None:
            fc1_w = np.zeros(kept.mask.size, dtype=values.dtype)
            fc1_w[kept.indices] = values
        fields["fc1_w"] = fc1_w.reshape(shape)
    weights = ModelWeights(**fields, prune_mask=kept.mask)
    weights._kept = kept
    return spec, weights


def checkpoint_bytes(spec: DetectorSpec, weights: ModelWeights) -> bytearray:
    """The checkpoint of ``weights``, written in one pass."""
    buf = model_bytes(spec, weights, _CHECKPOINT_HEADER.size, sparse=False)
    _CHECKPOINT_HEADER.pack_into(buf, 0, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    return buf


def parse_checkpoint(data) -> tuple[DetectorSpec, ModelWeights]:
    reader = ByteReader(data)
    magic = bytes(reader.take(4))
    if magic != CHECKPOINT_MAGIC:
        raise DecodeError(f"bad checkpoint magic {magic!r}", 0)
    version = reader.u32()
    if version != CHECKPOINT_VERSION:
        raise DecodeError(f"unsupported checkpoint version {version}", 4)
    return read_model(reader, sparse=False)


def save_checkpoint(path, spec: DetectorSpec, weights: ModelWeights) -> None:
    with open(path, "wb") as fh:
        fh.write(checkpoint_bytes(spec, weights))


def load_checkpoint(path) -> tuple[DetectorSpec, ModelWeights]:
    """Read a checkpoint file; the weights are writable views of one buffer."""
    with open(path, "rb") as fh:
        data = bytearray(os.fstat(fh.fileno()).st_size)
        del data[fh.readinto(data):]
    return parse_checkpoint(data)
