import numpy as np
import pytest

from ftlwss import multicoset as mc
from ftlwss import signal_model as sm


def pattern_unit(offsets, n_subbands=4):
    return mc.CosetPattern(tuple(offsets), n_subbands, 1.0)


class TestCosetPattern:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            pattern_unit([0, 1, 1])

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            pattern_unit([2, 1])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pattern_unit([0, 4], n_subbands=4)
        with pytest.raises(ValueError):
            pattern_unit([-1, 2])


class TestMeasurementMatrix:
    def test_zero_offset_row_is_constant(self):
        m = mc.build_measurement_matrix(pattern_unit([0]))
        assert np.allclose(m[0], [0.25, 0.25, 0.25, 0.25])

    def test_offset_one_row_is_fourth_roots(self):
        m = mc.build_measurement_matrix(pattern_unit([0, 1]))
        assert np.allclose(m[1], [0.25, -0.25j, -0.25, 0.25j])

    def test_full_pattern_row_orthogonality(self):
        # geometric sums of fourth roots of unity cancel off-diagonal
        m = mc.build_measurement_matrix(pattern_unit([0, 1, 2, 3]))
        gram = m @ m.conj().T
        assert np.max(np.abs(gram - 0.25 * np.eye(4))) < 1e-12

    def test_row_orthogonality_random_patterns(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            ell = int(rng.integers(4, 65))
            p = int(rng.integers(1, ell))
            offsets = np.sort(rng.choice(ell, size=p, replace=False))
            m = mc.build_measurement_matrix(mc.CosetPattern(tuple(int(c) for c in offsets), ell, 1.0))
            gram = m @ m.conj().T
            assert np.max(np.abs(gram - np.eye(p) / ell)) < 1e-9

    def test_entry_modulus(self):
        pattern = mc.CosetPattern((0, 2, 5), 8, 0.5)
        m = mc.build_measurement_matrix(pattern)
        assert np.allclose(np.abs(m), 1.0 / (8 * 0.5))


class TestSamplingInstants:
    def test_origin(self):
        inst = mc.coset_sampling_instants(pattern_unit([0]), 1)
        assert inst[0, 0] == 0.0

    def test_single_instant_formula(self):
        inst = mc.coset_sampling_instants(pattern_unit([0, 2]), 4)
        assert inst[1, 3] == 14.0  # 3*4 + 2 at unit Nyquist period

    def test_two_coset_grid(self):
        pattern = mc.CosetPattern((0, 1), 4, 0.5)
        inst = mc.coset_sampling_instants(pattern, 2)
        assert inst.tolist() == [[0.0, 2.0], [0.5, 2.5]]

    def test_rejects_zero_snapshots(self):
        with pytest.raises(ValueError):
            mc.coset_sampling_instants(pattern_unit([0]), 0)


class TestCosetDft:
    def test_constant_sequence(self):
        pattern = pattern_unit([0, 1])
        samples = np.ones((2, 8), dtype=complex)
        out = mc.coset_dft(samples, pattern)
        assert np.allclose(out[0], [8] + [0] * 7)

    def test_zero_in_zero_out(self):
        pattern = pattern_unit([1, 3])
        out = mc.coset_dft(np.zeros((2, 16), dtype=complex), pattern)
        assert np.all(out == 0)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mc.coset_dft(np.zeros((3, 8)), pattern_unit([0, 1]))

    def test_forward_model_identity(self):
        # synthesize the time signal whose stacked sub-band spectra equal X,
        # then the coset DFT of its subsamples must reproduce A @ X
        rng = np.random.default_rng(3)
        ell, n = 8, 16
        t_nyq = 0.5
        pattern = mc.CosetPattern((0, 2, 3, 5), ell, t_nyq)
        a = mc.build_measurement_matrix(pattern)
        for row in range(ell):
            x = np.zeros((ell, n), dtype=complex)
            x[row] = rng.normal(size=n) + 1j * rng.normal(size=n)
            x_full = np.zeros(ell * n, dtype=complex)
            band = (-row) % ell  # physical band carrying matrix row `row`
            x_full[band * n:(band + 1) * n] = x[row] / t_nyq
            time_signal = np.fft.ifft(x_full)
            samples = np.stack([time_signal[c::ell][:n] for c in pattern.offsets])
            reproduced = mc.coset_dft(samples, pattern)
            reference = a @ x
            rel = np.max(np.abs(reproduced - reference)) / np.max(np.abs(reference))
            assert rel < 1e-6


class TestPseudoInverse:
    def test_square_pattern_gives_inverse(self):
        pattern = pattern_unit([0, 1, 2, 3])
        m = mc.build_measurement_matrix(pattern)
        pinv = mc.pseudo_inverse(pattern)
        assert np.max(np.abs(pinv @ m - np.eye(4))) < 1e-12

    def test_closed_form_matches_scaled_hermitian(self):
        pattern = pattern_unit([0, 2])
        m = mc.build_measurement_matrix(pattern)
        pinv = mc.pseudo_inverse(pattern)
        assert np.allclose(pinv, 4.0 * m.conj().T)
        # Moore-Penrose identity
        assert np.max(np.abs(m @ pinv @ m - m)) < 1e-9

    def test_penrose_identities_random_patterns(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            ell = int(rng.integers(4, 33))
            p = int(rng.integers(1, ell))
            offsets = tuple(int(c) for c in np.sort(rng.choice(ell, size=p, replace=False)))
            t_nyq = float(rng.uniform(0.25, 2.0))
            pattern = mc.CosetPattern(offsets, ell, t_nyq)
            m = mc.build_measurement_matrix(pattern)
            pinv = mc.pseudo_inverse(pattern)
            assert np.max(np.abs(m @ pinv - np.eye(p))) < 1e-9
            assert np.max(np.abs(m @ pinv @ m - m)) < 1e-9
            assert np.max(np.abs(pinv @ m @ pinv - pinv)) < 1e-9


class TestRecoverFeature:
    def test_full_rank_recovery(self):
        pattern = pattern_unit([0, 1, 2, 3])
        m = mc.build_measurement_matrix(pattern)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        xhat = mc.recover_feature(mc.pseudo_inverse(pattern), m @ x)
        assert np.max(np.abs(xhat - x)) < 1e-12

    def test_zero_spectra(self):
        xhat = mc.recover_feature(mc.pseudo_inverse(pattern_unit([0, 2])), np.zeros((2, 5), dtype=complex))
        assert np.all(xhat == 0)

    def test_matches_projection_oracle(self):
        # Xhat must equal the rank-P projection A^+ A X computed independently
        rng = np.random.default_rng(5)
        pattern = mc.CosetPattern((1, 3, 4), 8, 1.0)
        m = mc.build_measurement_matrix(pattern)
        pinv = mc.pseudo_inverse(pattern)
        x = rng.normal(size=(8, 10)) + 1j * rng.normal(size=(8, 10))
        got = mc.recover_feature(pinv, m @ x)
        projector = pinv @ m
        assert np.max(np.abs(got - projector @ x)) < 1e-9

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mc.recover_feature(np.zeros((4, 2)), np.zeros((3, 5)))


class TestNormalize:
    def test_three_four_five(self):
        out = mc.normalize_feature(np.array([[3 + 4j]]))
        assert np.allclose(out, [[0.6 + 0.8j]])

    def test_zero_stays_zero(self):
        assert mc.normalize_feature(np.array([[0.0 + 0.0j]]))[0, 0] == 0

    def test_negative_real_axis(self):
        assert mc.normalize_feature(np.array([[-2.0 + 0.0j]]))[0, 0] == -1

    def test_unit_modulus_or_zero(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7))
        x[2, 3] = 0
        out = mc.normalize_feature(x)
        mags = np.abs(out)
        assert np.all((np.abs(mags - 1.0) < 1e-9) | (mags == 0))

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 9)) + 1j * rng.normal(size=(4, 9))
        once = mc.normalize_feature(x)
        twice = mc.normalize_feature(once)
        assert np.max(np.abs(twice - once)) < 1e-12


class TestTensorView:
    def test_real_one(self):
        assert mc.to_tensor(np.array([[1.0 + 0j]])).tolist() == [[[1.0, 0.0]]]

    def test_imag_one(self):
        assert mc.to_tensor(np.array([[1j]])).tolist() == [[[0.0, 1.0]]]

    def test_round_trip_bit_identical(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        t = mc.to_tensor(x)
        assert np.array_equal(t[..., 0] + 1j * t[..., 1], x)


class TestBandOrder:
    def test_is_involution(self):
        for ell in (2, 3, 8, 16, 40):
            order = mc.band_order(ell)
            assert np.array_equal(order[order], np.arange(ell))

    def test_row_zero_fixed(self):
        assert mc.band_order(16)[0] == 0


def test_end_to_end_single_pu_band_argmax():
    # noiseless single PU in band b: the recovered row with maximal energy is b
    rng = np.random.default_rng(42)
    ell, n_snapshots, n_cosets = 16, 32, 6
    bandwidth = 320e6
    t_nyq = 1.0 / bandwidth
    pattern = mc.default_pattern(n_cosets, ell, t_nyq)
    subband_hz, duration_s = bandwidth / ell, n_snapshots * ell * t_nyq
    instants = mc.coset_sampling_instants(pattern, n_snapshots)
    for _ in range(100):
        occupancy = sm.draw_occupancy(ell, 1, rng)
        truth = int(np.flatnonzero(occupancy)[0])
        placement = sm.place_pus(occupancy, subband_hz, duration_s, rng)
        samples = sm.noiseless_signal(placement, subband_hz, 1.0, instants)
        xhat, _ = mc.acquire_feature(samples, pattern)
        assert int(np.argmax(np.sum(np.abs(xhat) ** 2, axis=1))) == truth
