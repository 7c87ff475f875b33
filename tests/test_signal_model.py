import numpy as np
import pytest

from ftlwss import signal_model as sm


# the default scenario: 4 sub-bands over 32 MHz, a 2 us window, unit PU energy
B0 = 32e6 / 4
DURATION_S = 2e-6
# 8 sub-bands over the same 32 MHz
B0_8 = 32e6 / 8


class TestDrawOccupancy:
    def test_empty_spectrum(self):
        bits = sm.draw_occupancy(5, 0, np.random.default_rng(0))
        assert bits.tolist() == [0, 0, 0, 0, 0]

    def test_fully_occupied(self):
        bits = sm.draw_occupancy(3, 3, np.random.default_rng(0))
        assert bits.tolist() == [1, 1, 1]

    def test_popcount_is_exact(self):
        # the full-scale setting uses 8 active PUs over 40 sub-bands
        bits = sm.draw_occupancy(40, 8, np.random.default_rng(1))
        assert bits.sum() == 8

    def test_popcount_exact_for_any_seed(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            k = int(rng.integers(0, 17))
            assert sm.draw_occupancy(16, k, rng).sum() == k

    def test_deterministic_per_seed(self):
        a = sm.draw_occupancy(40, 8, np.random.default_rng(7))
        b = sm.draw_occupancy(40, 8, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            sm.draw_occupancy(4, 5, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sm.draw_occupancy(4, -1, np.random.default_rng(0))


class TestPlacePus:
    def test_first_band_center(self):
        placement = sm.place_pus(np.array([1, 0, 0, 0]), B0, DURATION_S, np.random.default_rng(0))
        assert placement.carrier_hz.tolist() == [4e6]

    def test_empty_placement(self):
        placement = sm.place_pus(np.zeros(4, dtype=np.int8), B0, DURATION_S, np.random.default_rng(0))
        assert len(placement) == 0

    def test_last_band_center_at_full_scale(self):
        # band 40 of 40 at 320 MHz: (40 - 1/2) * 8 MHz = 316 MHz
        b0 = 320e6 / 40
        occupancy = np.zeros(40, dtype=np.int8)
        occupancy[39] = 1
        placement = sm.place_pus(occupancy, b0, DURATION_S, np.random.default_rng(0))
        assert placement.carrier_hz.tolist() == [316e6]
        assert placement.carrier_hz[0] == 320e6 - b0 / 2

    def test_offsets_interior(self):
        placement = sm.place_pus(np.ones(8, dtype=np.int8), B0_8, DURATION_S, np.random.default_rng(3))
        assert np.all(placement.offset_s > 0)
        assert np.all(placement.offset_s < DURATION_S)


class TestReceivedSignal:
    def test_pulse_peak_value(self):
        # at t = t_k the sinc is 1, so the sample is sqrt(E*B0) * exp(2j pi f t_k)
        placement = sm.PuPlacement(carrier_hz=np.array([12e6]), offset_s=np.array([1e-6]))
        value = sm.noiseless_signal(placement, B0, 1.0, np.array([1e-6]))[0]
        expected = np.sqrt(B0) * np.exp(2j * np.pi * 12e6 * 1e-6)
        assert abs(value - expected) < 1e-9 * abs(expected)

    def test_no_pus_no_noise_is_zero(self):
        placement = sm.place_pus(np.zeros(4, dtype=np.int8), B0, DURATION_S, np.random.default_rng(0))
        out = sm.sample_received_signal(placement, B0, 1.0, np.linspace(0, 1e-6, 64),
                                        np.random.default_rng(0), 0.0)
        assert np.all(out == 0)

    def test_linear_in_pu_set(self):
        # joint rendering equals the sum of single-PU renderings
        b0, duration_s = 32.0 / 4, 2.0
        rng = np.random.default_rng(5)
        occupancy = np.array([1, 1, 0, 1], dtype=np.int8)
        placement = sm.place_pus(occupancy, b0, duration_s, rng)
        t = np.linspace(0.0, 2.0, 200)
        joint = sm.noiseless_signal(placement, b0, 1.0, t)
        total = np.zeros_like(joint)
        for k in range(len(placement)):
            single = sm.PuPlacement(placement.carrier_hz[k:k + 1], placement.offset_s[k:k + 1])
            total += sm.noiseless_signal(single, b0, 1.0, t)
        assert np.max(np.abs(joint - total)) < 1e-12

    def test_rejects_negative_noise_var(self):
        placement = sm.place_pus(np.array([1, 0, 0, 0]), B0, DURATION_S, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sm.sample_received_signal(placement, B0, 1.0, np.zeros(4), np.random.default_rng(0), -1.0)

    def test_same_seed_bit_identical(self):
        occupancy = sm.draw_occupancy(8, 3, np.random.default_rng(11))
        t = np.linspace(0, DURATION_S, 128)

        def render(seed):
            rng = np.random.default_rng(seed)
            placement = sm.place_pus(occupancy, B0_8, DURATION_S, rng)
            return sm.sample_received_signal(placement, B0_8, 1.0, t, rng, 0.5)

        assert np.array_equal(render(123), render(123))


class TestAwgnSigma:
    def test_unity_ratio(self):
        placement = sm.place_pus(np.array([1, 0, 0, 0]), B0, DURATION_S, np.random.default_rng(0))
        t = np.linspace(0, DURATION_S, 64, endpoint=False)
        sigma2 = sm.awgn_sigma(0.0, placement, B0, 1.0, t)
        clean = sm.noiseless_signal(placement, B0, 1.0, t)
        assert sigma2 == pytest.approx(np.mean(np.abs(clean) ** 2))

    def test_ten_db(self):
        placement = sm.place_pus(np.array([0, 1, 0, 0]), B0, DURATION_S, np.random.default_rng(1))
        t = np.linspace(0, DURATION_S, 64, endpoint=False)
        clean = sm.noiseless_signal(placement, B0, 1.0, t)
        p_sig = np.mean(np.abs(clean) ** 2)
        assert sm.awgn_sigma(10.0, placement, B0, 1.0, t) == pytest.approx(p_sig / 10.0)

    def test_negative_ten_db_doubles_twice(self):
        # direct formula: snr -10 dB with P_sig = 2 gives sigma^2 = 20
        placement = sm.place_pus(np.array([0, 1, 0, 0]), B0, DURATION_S, np.random.default_rng(1))
        t = np.linspace(0, DURATION_S, 64, endpoint=False)
        clean = sm.noiseless_signal(placement, B0, 1.0, t)
        scale = np.sqrt(2.0 / np.mean(np.abs(clean) ** 2))
        sigma2 = sm.awgn_sigma(-10.0, placement, B0, scale ** 2, t)
        assert sigma2 == pytest.approx(20.0, rel=1e-9)

    def test_undefined_without_pus(self):
        empty = sm.place_pus(np.zeros(4, dtype=np.int8), B0, DURATION_S, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sm.awgn_sigma(10.0, empty, B0, 1.0, np.zeros(4))


def test_noise_variance_calibration():
    # empirical complex variance over 1e5 noise-only samples within 2%
    empty = sm.PuPlacement(np.array([]), np.array([]))
    rng = np.random.default_rng(99)
    out = sm.sample_received_signal(empty, B0, 1.0, np.zeros(100_000), rng, 3.7)
    measured = np.mean(np.abs(out) ** 2)
    assert abs(measured - 3.7) / 3.7 < 0.02


class TestAddAwgn:
    def test_zero_variance_draws_nothing(self):
        rng = np.random.default_rng(3)
        clean = np.arange(4, dtype=np.complex128)
        assert np.array_equal(sm.add_awgn(clean, rng, 0.0), clean)
        assert rng.random() == np.random.default_rng(3).random()

    def test_rejects_negative_variance(self):
        with pytest.raises(ValueError):
            sm.add_awgn(np.zeros(4, dtype=np.complex128), np.random.default_rng(0), -1.0)

    def test_matches_sample_received_signal(self):
        occupancy = np.array([1, 0, 1, 0, 0, 1, 0, 0])
        placement = sm.place_pus(occupancy, B0_8, DURATION_S, np.random.default_rng(2))
        t = np.linspace(0, DURATION_S, 96)
        clean = sm.noiseless_signal(placement, B0_8, 1.0, t)
        sigma2 = float(sm.noise_variance(5.0, clean[None])[0])
        assert sigma2 == sm.awgn_sigma(5.0, placement, B0_8, 1.0, t)
        got = sm.add_awgn(clean, np.random.default_rng(8), sigma2)
        want = sm.sample_received_signal(placement, B0_8, 1.0, t, np.random.default_rng(8), sigma2)
        assert got.tobytes() == want.tobytes()
