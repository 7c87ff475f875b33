"""Wideband occupancy and received-signal generators.

The monitored band [0, B] is split into ``n_subbands`` equal, non-overlapping
slices. Each active primary user (PU) occupies one distinct sub-band and
transmits a sinc-shaped pulse centred on that sub-band; the receiver observes
the superposition of all pulses plus circular complex AWGN:

    x(t) = sum_k sqrt(E_k * B0) * sinc(B0 * (t - t_k)) * exp(j 2 pi f_k t) + n(t)

with sinc(x) = sin(pi x) / (pi x) and sinc(0) = 1.

All arithmetic here is double precision regardless of what the neural network
downstream trains in. Every generator is a pure function of an explicit
``numpy.random.Generator`` so callers control reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ScenarioConfig:
    """Static description of one sensing scenario.

    The sub-band width is derived as ``bandwidth_hz / n_subbands`` so the
    partition is exact by construction. ``snr_db=None`` means noiseless.
    """

    n_subbands: int
    bandwidth_hz: float
    n_active_pus: int
    duration_s: float
    snr_db: float | None = None
    pu_energy: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_subbands < 1:
            raise ValueError("n_subbands must be >= 1")
        if not 0 <= self.n_active_pus <= self.n_subbands:
            raise ValueError(
                f"n_active_pus must lie in [0, {self.n_subbands}], got {self.n_active_pus}"
            )
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth_hz must be positive")
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")

    @property
    def subband_hz(self) -> float:
        return self.bandwidth_hz / self.n_subbands


@dataclass(frozen=True)
class PuPlacement:
    """Carrier frequency, time offset and energy of each active PU.

    Carriers sit exactly on sub-band centres, so the occupancy labels derived
    from a placement are unambiguous: PU k occupies the sub-band whose centre
    equals ``carrier_hz[k]``.
    """

    carrier_hz: np.ndarray
    offset_s: np.ndarray
    energy: np.ndarray

    def __len__(self) -> int:
        return self.carrier_hz.shape[0]


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


def place_pus(occupancy: np.ndarray, config: ScenarioConfig, rng: np.random.Generator) -> PuPlacement:
    """One PU per occupied sub-band: the carrier snaps to the sub-band centre
    (band index l, 1-based, gives f = (l - 1/2) * B0) and the time offset is
    drawn uniformly from the open interval (0, duration).
    """
    occupancy = np.asarray(occupancy)
    occupied = np.flatnonzero(occupancy)
    b0 = config.subband_hz
    carriers = (occupied + 0.5) * b0
    offsets = rng.uniform(0.0, config.duration_s, size=occupied.size)
    # uniform() can return the closed lower bound; the offset must be interior
    while np.any(offsets == 0.0):
        redo = offsets == 0.0
        offsets[redo] = rng.uniform(0.0, config.duration_s, size=int(redo.sum()))
    energies = np.full(occupied.size, float(config.pu_energy))
    return PuPlacement(carrier_hz=carriers, offset_s=offsets, energy=energies)


def noiseless_signal(placement: PuPlacement, config: ScenarioConfig, instants: np.ndarray) -> np.ndarray:
    """Evaluate the PU superposition (no noise) at the given instants.

    Returns a complex128 array with the same shape as ``instants``.
    """
    t = np.asarray(instants, dtype=np.float64)
    out = np.zeros(t.shape, dtype=np.complex128)
    b0 = config.subband_hz
    for f_k, t_k, e_k in zip(placement.carrier_hz, placement.offset_s, placement.energy):
        pulse = np.sqrt(e_k * b0) * np.sinc(b0 * (t - t_k))
        out += pulse * np.exp(2j * np.pi * f_k * t)
    return out


def noise_variance(snr_db: float, clean: np.ndarray) -> float:
    """Noise variance that realises ``snr_db`` against the average power of
    the noiseless samples ``clean``: sigma^2 = P_sig / 10^(snr_db / 10).
    """
    p_sig = float(np.mean(np.abs(clean) ** 2))
    return p_sig / (10.0 ** (snr_db / 10.0))


def add_awgn(clean: np.ndarray, rng: np.random.Generator, noise_var: float) -> np.ndarray:
    """``clean`` plus circular complex Gaussian noise of total variance
    ``noise_var`` (half per quadrature); no draw is made when it is zero.
    """
    if noise_var < 0:
        raise ValueError("noise_var must be non-negative")
    if noise_var > 0:
        scale = np.sqrt(noise_var / 2.0)
        noise = rng.normal(scale=scale, size=clean.shape) + 1j * rng.normal(scale=scale, size=clean.shape)
        clean = clean + noise
    return clean


def awgn_sigma(
    snr_db: float,
    placement: PuPlacement,
    config: ScenarioConfig,
    instants: np.ndarray,
) -> float:
    """Noise variance that realises the requested SNR for this realization.

    SNR is referenced to the average noiseless signal power over the sampling
    instants (see `noise_variance`). Undefined for an empty placement (no
    signal power to reference).
    """
    if len(placement) == 0:
        raise ValueError("SNR is undefined with no active PU; supply the noise variance directly")
    return noise_variance(snr_db, noiseless_signal(placement, config, instants))


def sample_received_signal(
    placement: PuPlacement,
    config: ScenarioConfig,
    instants: np.ndarray,
    rng: np.random.Generator,
    noise_var: float = 0.0,
) -> np.ndarray:
    """Received signal at the given instants: PU superposition plus circular
    complex Gaussian noise of total variance ``noise_var`` (see `add_awgn`).
    """
    return add_awgn(noiseless_signal(placement, config, instants), rng, noise_var)
