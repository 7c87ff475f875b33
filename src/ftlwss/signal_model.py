"""Wideband occupancy and received-signal generators.

The monitored band [0, B] is split into ``n_subbands`` equal, non-overlapping
slices. Each active primary user (PU) occupies one distinct sub-band and
transmits a sinc-shaped pulse centred on that sub-band; the receiver observes
the superposition of all pulses plus circular complex AWGN:

    x(t) = sum_k sqrt(E * B0) * sinc(B0 * (t - t_k)) * exp(j 2 pi f_k t) + n(t)

with sinc(x) = sin(pi x) / (pi x) and sinc(0) = 1, sub-band width B0 and one
PU energy E per scenario.

All arithmetic here is double precision regardless of what the neural network
downstream trains in. Every generator is a pure function of an explicit
``numpy.random.Generator`` so callers control reproducibility. The generators
take the scenario as plain numbers (sub-band width, sensing duration, PU
energy); ``harness`` derives them from its config.

The renderers also take a batch: a placement whose arrays carry a leading
sample axis renders one signal per sample, bit-identical to rendering each
sample's placement alone, and ``noise_variance``/``scale_noise`` work per
sample on that axis. The random draws stay per sample, so a batch consumes
the generator exactly as the single-sample calls would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PuPlacement:
    """Carrier frequency and time offset of each active PU.

    Carriers sit exactly on sub-band centres, so the occupancy labels derived
    from a placement are unambiguous: PU k occupies the sub-band whose centre
    equals ``carrier_hz[k]``. A batch of placements with the same PU count
    stacks each field to (B, K).
    """

    carrier_hz: np.ndarray
    offset_s: np.ndarray

    def __len__(self) -> int:
        """Number of PUs (per sample, for a batch)."""
        return self.carrier_hz.shape[-1]


def draw_occupancy(n_subbands: int, n_active: int, rng: np.random.Generator) -> np.ndarray:
    """Binary occupancy vector with exactly ``n_active`` ones at uniformly
    random distinct positions. Returns an int8 array of length ``n_subbands``.
    """
    if n_active < 0 or n_active > n_subbands:
        raise ValueError(f"n_active must lie in [0, {n_subbands}], got {n_active}")
    bits = np.zeros(n_subbands, dtype=np.int8)
    if n_active:
        occupied = rng.choice(n_subbands, size=n_active, replace=False)
        bits[occupied] = 1
    return bits


def place_pus(occupancy: np.ndarray, subband_hz: float, duration_s: float,
             rng: np.random.Generator) -> PuPlacement:
    """One PU per occupied sub-band: the carrier snaps to the sub-band centre
    (band index l, 1-based, gives f = (l - 1/2) * B0) and the time offset is
    drawn uniformly from the open interval (0, duration).
    """
    occupancy = np.asarray(occupancy)
    occupied = np.flatnonzero(occupancy)
    carriers = (occupied + 0.5) * subband_hz
    offsets = rng.uniform(0.0, duration_s, size=occupied.size)
    # uniform() can return the closed lower bound; the offset must be interior
    while np.any(offsets == 0.0):
        redo = offsets == 0.0
        offsets[redo] = rng.uniform(0.0, duration_s, size=int(redo.sum()))
    return PuPlacement(carrier_hz=carriers, offset_s=offsets)


def noiseless_signal(placement: PuPlacement, subband_hz: float, pu_energy: float,
                     instants: np.ndarray) -> np.ndarray:
    """Evaluate the PU superposition (no noise) at the given instants, every
    PU transmitting energy ``pu_energy`` over a sub-band ``subband_hz`` wide.

    Returns a complex128 array shaped like ``instants``, preceded by the
    placement's batch axis when it has one: (B,) + instants.shape.
    """
    t = np.asarray(instants, dtype=np.float64)
    batch = np.shape(placement.carrier_hz)[:-1]
    out = np.zeros(batch + t.shape, dtype=np.complex128)
    amplitude = np.sqrt(pu_energy * subband_hz)
    # (..., K) fields -> K columns shaped to broadcast against the instants
    columns = [np.moveaxis(np.asarray(v), -1, 0).reshape((-1,) + batch + (1,) * t.ndim)
               for v in (placement.carrier_hz, placement.offset_s)]
    for f_k, t_k in zip(*columns):
        pulse = amplitude * np.sinc(subband_hz * (t - t_k))
        out += pulse * np.exp(2j * np.pi * f_k * t)
    return out


def noise_variance(snr_db: float, clean: np.ndarray) -> np.ndarray:
    """One noise variance per sample of the batch ``clean``, whose first axis
    indexes samples: each realises ``snr_db`` against the average power of
    that sample's noiseless values, sigma^2 = P_sig / 10^(snr_db / 10).
    """
    power = np.abs(clean) ** 2
    return power.reshape(power.shape[0], -1).mean(axis=1) / (10.0 ** (snr_db / 10.0))


def scale_noise(clean: np.ndarray, std_normal: np.ndarray, noise_var: float | np.ndarray) -> np.ndarray:
    """``clean`` plus complex noise built from two standard-normal blocks
    ``std_normal = (real, imag)``, each scaled by sqrt(noise_var / 2).
    ``noise_var`` is a scalar or one variance per sample of a batch.
    """
    scale = np.sqrt(np.asarray(noise_var) / 2.0)
    scale = scale.reshape(scale.shape + (1,) * (clean.ndim - scale.ndim))
    return clean + (scale * std_normal[0] + 1j * (scale * std_normal[1]))


def add_awgn(clean: np.ndarray, rng: np.random.Generator, noise_var: float) -> np.ndarray:
    """``clean`` plus circular complex Gaussian noise of total variance
    ``noise_var`` (half per quadrature); no draw is made when it is zero.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    if noise_var > 0:
        std_normal = (rng.standard_normal(clean.shape), rng.standard_normal(clean.shape))
        clean = scale_noise(clean, std_normal, noise_var)
    return clean


def awgn_sigma(
    snr_db: float,
    placement: PuPlacement,
    subband_hz: float,
    pu_energy: float,
    instants: np.ndarray,
) -> float:
    """Noise variance that realises the requested SNR for this realization.

    SNR is referenced to the average noiseless signal power over the sampling
    instants (see `noise_variance`). Undefined for an empty placement (no
    signal power to reference).
    """
    if len(placement) == 0:
        raise ValueError("SNR is undefined with no active PU; supply the noise variance directly")
    clean = noiseless_signal(placement, subband_hz, pu_energy, instants)
    return float(noise_variance(snr_db, clean[None])[0])


def sample_received_signal(
    placement: PuPlacement,
    subband_hz: float,
    pu_energy: float,
    instants: np.ndarray,
    rng: np.random.Generator,
    noise_var: float = 0.0,
) -> np.ndarray:
    """Received signal at the given instants: PU superposition plus circular
    complex Gaussian noise of total variance ``noise_var`` (see `add_awgn`).
    """
    return add_awgn(noiseless_signal(placement, subband_hz, pu_energy, instants), rng, noise_var)
