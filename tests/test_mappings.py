"""Tests for the scalar sector-bound maps and their certificates."""

import math

import numpy as np
import pytest

from dra_sim import (
    ClampCounter,
    ConfigurationError,
    NumericError,
    apply_map_array,
    first_order_sector_params,
    identity_map,
    log_quantizer,
    saturation,
    sign_power,
    verify_sector,
)

ALL_MAPS = [
    identity_map(),
    log_quantizer(0.25),
    log_quantizer(1.0 / 8.0),
    log_quantizer(1.0),
    saturation(1.0, 5.0),
    saturation(2.0, 4.0),
    sign_power(0.5, 1e-6, 1e3),
    sign_power(1.0, 1e-3, 10.0),
]


def domain_samples(m, count, seed):
    lo, hi = m.abs_domain
    hi = min(hi, 1e6)
    lo = max(lo, 1e-6 * (hi - lo if math.isfinite(hi - lo) else 1.0), 1e-12)
    rng = np.random.default_rng(seed)
    z = rng.uniform(lo, hi, size=count)
    sign = rng.choice([-1.0, 1.0], size=count)
    return sign * z


class TestApply:
    def test_log_quantizer_fixes_one(self):
        assert apply_map_array(log_quantizer(0.25), np.array([1.0])).tolist() == [1.0]

    def test_log_quantizer_hand_value(self):
        # log(e^0.3)/0.25 = 1.2 rounds to 1, so the output is e^0.25.
        got = apply_map_array(log_quantizer(0.25), np.array([math.e**0.3]))
        assert got[0] == pytest.approx(math.e**0.25, rel=1e-12)

    def test_log_quantizer_ties_round_to_even(self):
        # Bracket 0.5 drops to lattice index 0 and bracket 2.5 to index 2.
        got = apply_map_array(log_quantizer(0.25), np.array([math.exp(0.125), math.exp(0.625)]))
        assert got[0] == 1.0
        assert got[1] == pytest.approx(math.exp(0.5), rel=1e-15)

    def test_saturation_cases(self):
        got = apply_map_array(saturation(1.0, 5.0), np.array([3.0, 0.5, -3.0]))
        assert got.tolist() == [1.0, 0.5, -1.0]

    def test_zero_maps_to_zero(self):
        for m in ALL_MAPS:
            assert apply_map_array(m, np.zeros(1)).tolist() == [0.0]

    def test_non_finite_input_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericError):
                apply_map_array(identity_map(), np.array([1.0, bad]))

    def test_array_matches_scalar(self):
        # Each output is that of a one-element call: no value depends on the
        # length of the call it comes in, as the kernel's calls vary in length.
        rng = np.random.default_rng(5)
        z = rng.uniform(-4.0, 4.0, size=200)
        for m in ALL_MAPS:
            out = apply_map_array(m, z)
            for zi, oi in zip(z, out):
                assert oi == apply_map_array(m, np.array([zi]))[0]

    def test_sign_power_hand_value(self):
        got = apply_map_array(sign_power(0.5, 1e-6, 1e3), np.array([4.0, -9.0]))
        assert got[0] == pytest.approx(2.0, rel=1e-12)
        assert got[1] == pytest.approx(-3.0, rel=1e-12)

    def test_clamping_counts_events(self):
        # One counter tallies across calls, as the run loop's counters do.
        s = saturation(1.0, 5.0)
        counter = ClampCounter()
        assert apply_map_array(s, np.array([7.0]), counter).tolist() == [1.0]
        assert apply_map_array(s, np.array([-9.0]), counter).tolist() == [-1.0]
        assert apply_map_array(s, np.array([2.0]), counter).tolist() == [1.0]
        assert counter.events == 2

    def test_array_clamping_counts_events(self):
        s = saturation(1.0, 5.0)
        counter = ClampCounter()
        apply_map_array(s, np.array([6.0, -7.0, 1.0, 0.25]), counter)
        assert counter.events == 2


class TestConstruction:
    def test_log_quantizer_needs_positive_level(self):
        with pytest.raises(ConfigurationError):
            log_quantizer(0.0)
        with pytest.raises(ConfigurationError):
            log_quantizer(-0.5)

    def test_saturation_needs_domain_beyond_cap(self):
        with pytest.raises(ConfigurationError):
            saturation(2.0, 2.0)
        with pytest.raises(ConfigurationError):
            saturation(0.0, 5.0)

    def test_sign_power_validation(self):
        with pytest.raises(ConfigurationError):
            sign_power(0.0, 1e-6, 1.0)
        with pytest.raises(ConfigurationError):
            sign_power(1.5, 1e-6, 1.0)
        with pytest.raises(ConfigurationError):
            sign_power(0.5, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            sign_power(0.5, 2.0, 1.0)


class TestSectorParams:
    def test_identity(self):
        m = identity_map()
        assert (m.kappa, m.big_k) == (1.0, 1.0)

    def test_log_quantizer_exact_pair(self):
        m = log_quantizer(1.0 / 8.0)
        kappa, big_k = m.kappa, m.big_k
        assert kappa == pytest.approx(math.exp(-1.0 / 16.0), rel=1e-15)
        assert big_k == pytest.approx(math.exp(1.0 / 16.0), rel=1e-15)
        # Four-digit reference values for the exact certificates.
        assert round(kappa, 4) == 0.9394
        assert round(big_k, 4) == 1.0645

    def test_log_quantizer_first_order_pair(self):
        # Both linearized values sit below their exact counterparts; the
        # upper one is therefore not a valid certificate.
        m = log_quantizer(1.0 / 8.0)
        lo, hi = first_order_sector_params(m)
        assert lo == 0.9375
        assert hi == 1.0625
        assert lo < m.kappa
        assert hi < m.big_k
        # Other kinds have no linearization: their exact pair comes back.
        sat = saturation(1.0, 4.0)
        assert first_order_sector_params(sat) == (sat.kappa, sat.big_k) == (0.25, 1.0)

    def test_saturation_pair(self):
        for m, pair in ((saturation(1.0, 4.0), (0.25, 1.0)), (saturation(2.0, 10.0), (0.2, 1.0))):
            assert (m.kappa, m.big_k) == pair

    def test_sign_power_pair_from_domain_boundary(self):
        m = sign_power(0.5, 1e-6, 1e3)
        kappa, big_k = m.kappa, m.big_k
        assert kappa == pytest.approx(1e3 ** -0.5, rel=1e-12)
        assert big_k == pytest.approx(1e-6 ** -0.5, rel=1e-12)

    def test_ordering_invariant(self):
        for m in ALL_MAPS:
            assert 0.0 < m.kappa <= m.big_k


class TestVerifySector:
    def test_identity_ratios(self):
        rep = verify_sector(identity_map(), samples=10**4, seed=0)
        assert rep.min_ratio == 1.0
        assert rep.max_ratio == 1.0
        assert rep.violations == 0

    def test_all_maps_certified(self):
        for m in ALL_MAPS:
            rep = verify_sector(m, samples=10**5, seed=7)
            assert rep.violations == 0, m.kind
            assert rep.min_ratio >= m.kappa - 1e-12
            assert rep.max_ratio <= m.big_k + 1e-12

    def test_log_quantizer_ratio_band(self):
        rep = verify_sector(log_quantizer(0.25), samples=10**5, seed=3)
        assert rep.min_ratio >= math.exp(-0.125) - 1e-12
        assert rep.max_ratio <= math.exp(0.125) + 1e-12

    def test_saturation_ratio_band(self):
        rep = verify_sector(saturation(1.0, 5.0), samples=10**5, seed=3)
        assert rep.min_ratio >= 0.2 - 1e-12
        assert rep.max_ratio <= 1.0 + 1e-12

    def test_rejects_empty_sample(self):
        with pytest.raises(ConfigurationError):
            verify_sector(identity_map(), samples=0, seed=0)

    def test_rejects_negative_seed(self):
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            verify_sector(identity_map(), samples=10, seed=-1)


class TestMapShape:
    def test_oddness_sampled(self):
        for m in ALL_MAPS:
            z = domain_samples(m, 10**5, seed=11)
            left = apply_map_array(m, z)
            right = -apply_map_array(m, -z)
            assert np.array_equal(left, right), m.kind

    def test_sign_preservation_sampled(self):
        for m in ALL_MAPS:
            z = domain_samples(m, 10**5, seed=13)
            out = apply_map_array(m, z)
            assert np.all(np.sign(out) == np.sign(z)), m.kind

    def test_monotone_nondecreasing_sampled(self):
        rng = np.random.default_rng(17)
        for m in ALL_MAPS:
            z = np.sort(domain_samples(m, 10**5, seed=int(rng.integers(2**31))))
            out = apply_map_array(m, z)
            assert np.all(np.diff(out) >= 0.0), m.kind

    def test_lattice_points_are_fixed(self):
        # z = e^{rho k} quantizes to itself up to a rounding ulp.
        for rho in (0.5, 0.25, 1.0 / 8.0):
            q = log_quantizer(rho)
            for k in range(-20, 21):
                z = math.exp(rho * k)
                got = apply_map_array(q, np.array([z]))[0]
                assert got == pytest.approx(z, rel=1e-14)
