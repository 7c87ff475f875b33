"""Sub-Nyquist multicoset front end.

A P-coset sampler takes, within every window of L Nyquist periods T, one
sample at each integer offset c_p: y_p[n] = x(n*L*T + c_p*T). Per coset, an
N-point DFT with a per-bin phase correction turns the time samples into coset
spectra Y (P x N). Y relates linearly to the stacked sub-band spectra
X (L x N) through a roots-of-unity measurement matrix A with

    A[p, l] = exp(-2j*pi*l*c_p / L) / (L*T),   l = 0..L-1,

whose rows are mutually orthogonal: A @ A^H = I_P / (L*T^2). A rank-P
approximation of X is recovered with the closed-form pseudo-inverse
A^+ = L*T^2 * A^H, then phase-normalized element-wise into the unit-modulus
feature fed to the detector network. Both matrices are plain arrays built
from the ``CosetPattern`` alone: ``build_measurement_matrix`` gives A and
``pseudo_inverse`` gives A^+.

Row convention: the aliasing algebra pairs column l of A with the sub-band
whose index is (-l) mod L, not l itself (the DFT phase correction conjugates
the coset offsets). ``band_order`` exposes that fixed involution so callers
can reorder recovered rows into ascending physical band order; the ordering
is its own inverse.

Batch axis: ``coset_dft``, ``recover_feature``, ``acquire_feature``,
``normalize_feature`` and ``to_tensor`` also take a stack of samples with
leading axes, (B, P, N) -> (B, L, N), and give each sample the bits it gets
when processed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rules import _bounded, _Config

NORMALIZE_EPS = 1e-12


@dataclass(frozen=True)
class CosetPattern(_Config):
    """Strictly increasing coset offsets in [0, n_subbands - 1].

    ``nyquist_period_s`` is the full-band Nyquist period T; each coset samples
    at rate 1/(L*T) with time offset c_p*T.
    """

    offsets: tuple[int, ...]
    n_subbands: int
    nyquist_period_s: float = _bounded(gt=0)

    def __post_init__(self):
        super().__post_init__()
        c = self.offsets
        if len(c) == 0:
            raise ValueError("pattern needs at least one coset")
        if c[0] < 0 or c[-1] > self.n_subbands - 1:
            raise ValueError(f"coset offsets must lie in [0, {self.n_subbands - 1}]")
        if any(a >= b for a, b in zip(c, c[1:])):
            raise ValueError("coset offsets must be strictly increasing (no duplicates)")

    @property
    def n_cosets(self) -> int:
        return len(self.offsets)


def default_pattern(n_cosets: int, n_subbands: int, nyquist_period_s: float) -> CosetPattern:
    """The first ``n_cosets`` offsets 0, 1, ..., n_cosets - 1."""
    return CosetPattern(tuple(range(n_cosets)), n_subbands, nyquist_period_s)


def build_measurement_matrix(pattern: CosetPattern) -> np.ndarray:
    """The P x L complex matrix A of ``pattern``, A[p, l] =
    exp(-2j*pi*l*c_p / L) / (L*T), linking coset spectra to sub-band spectra.
    """
    ell = pattern.n_subbands
    t = pattern.nyquist_period_s
    c = np.asarray(pattern.offsets, dtype=np.float64)[:, None]
    l_idx = np.arange(ell, dtype=np.float64)[None, :]
    return np.exp(-2j * np.pi * l_idx * c / ell) / (ell * t)


def coset_sampling_instants(pattern: CosetPattern, n_snapshots: int) -> np.ndarray:
    """P x N matrix of sampling times: t[p, n] = n*L*T + c_p*T."""
    if n_snapshots < 1:
        raise ValueError("n_snapshots must be >= 1")
    t = pattern.nyquist_period_s
    ell = pattern.n_subbands
    n = np.arange(n_snapshots, dtype=np.float64)[None, :]
    c = np.asarray(pattern.offsets, dtype=np.float64)[:, None]
    return n * ell * t + c * t


def coset_dft(samples: np.ndarray, pattern: CosetPattern) -> np.ndarray:
    """Per-coset N-point DFT with per-bin phase correction.

    Row p is DFT(y_p) multiplied bin-wise by exp(-2j*pi*f_n*c_p*T) on the
    frequency grid f_n = n / (N*L*T), which removes the phase each coset's
    time offset imprints on its spectrum. ``samples`` is P x N or a batch
    (..., P, N).
    """
    samples = np.asarray(samples)
    if samples.ndim < 2 or samples.shape[-2] != pattern.n_cosets:
        raise ValueError(
            f"samples must be {pattern.n_cosets} x N, got shape {samples.shape}"
        )
    n_snapshots = samples.shape[-1]
    ell = pattern.n_subbands
    c = np.asarray(pattern.offsets, dtype=np.float64)[:, None]
    bins = np.arange(n_snapshots, dtype=np.float64)[None, :]
    phase = np.exp(-2j * np.pi * bins * c / (n_snapshots * ell))
    return phase * np.fft.fft(samples, axis=-1)


def pseudo_inverse(pattern: CosetPattern) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of ``pattern``'s measurement matrix, via
    the closed form L*T^2 * A^H valid because the rows of A are orthogonal
    with A @ A^H = I / (L*T^2).
    """
    ell = pattern.n_subbands
    t = pattern.nyquist_period_s
    return ell * t * t * build_measurement_matrix(pattern).conj().T


def recover_feature(pinv: np.ndarray, coset_spectra: np.ndarray) -> np.ndarray:
    """Rank-P recovery of the sub-band spectra: Xhat = A^+ @ Y, for one
    P x N block of coset spectra or a batch (..., P, N).
    """
    pinv = np.asarray(pinv)
    coset_spectra = np.asarray(coset_spectra)
    if coset_spectra.ndim < 2 or pinv.shape[1] != coset_spectra.shape[-2]:
        raise ValueError(
            f"incompatible shapes {pinv.shape} @ {coset_spectra.shape}"
        )
    return pinv @ coset_spectra


def band_order(n_subbands: int) -> np.ndarray:
    """Index involution mapping recovered-row order to physical band order.

    Row 0 is band 0 and row l is band L - l for l >= 1; applying the returned
    index array twice is the identity.
    """
    return np.mod(-np.arange(n_subbands), n_subbands)


def acquire_feature(samples: np.ndarray, pattern: CosetPattern) -> tuple[np.ndarray, np.ndarray]:
    """Full front end: coset DFT, pseudo-inverse recovery, and row reordering
    into ascending physical band order, for one P x N block of coset samples
    or a batch (..., P, N).

    Returns ``(xhat, coset_spectra)``: the (..., L, N) complex matrix whose
    row l covers the band [l*B0, (l+1)*B0), and the (..., P, N) coset
    spectra it was recovered from.
    """
    spectra = coset_dft(samples, pattern)
    xhat = recover_feature(pseudo_inverse(pattern), spectra)
    return xhat[..., band_order(pattern.n_subbands), :], spectra


def normalize_feature(xhat: np.ndarray) -> np.ndarray:
    """Element-wise phase normalization: x / |x| where |x| > NORMALIZE_EPS,
    else 0.

    Zero entries stay zero so empty spectra remain well-defined; every other
    output entry has unit modulus.
    """
    xhat = np.asarray(xhat)
    mag = np.abs(xhat)
    out = np.zeros_like(xhat)
    keep = mag > NORMALIZE_EPS
    out[keep] = xhat[keep] / mag[keep]
    return out


def to_tensor(xbar: np.ndarray) -> np.ndarray:
    """Stack real and imaginary parts on a trailing axis: (..., L, N) ->
    (..., L, N, 2).
    """
    xbar = np.asarray(xbar)
    return np.stack([xbar.real, xbar.imag], axis=-1)
