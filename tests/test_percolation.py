"""Tests for bond-percolation thresholds, window sizing, and MC validation."""

import numpy as np
import pytest

from dra_sim import (
    ConfigurationError,
    DomainError,
    effective_failure,
    er_threshold,
    erdos_renyi,
    mc_union_connectivity,
    min_window,
)


class TestErThreshold:
    def test_reference_grid_values(self):
        prof = er_threshold(50, 0.2)
        assert prof.mean_degree == pytest.approx(4.9, rel=1e-12)
        assert prof.threshold == pytest.approx(0.79592, abs=1e-5)
        assert prof.warning is None

    def test_undefined_at_unit_degree(self):
        prof = er_threshold(11, 0.2)
        assert prof.mean_degree == pytest.approx(1.0, rel=1e-12)
        assert prof.threshold is None
        assert prof.warning is not None

    def test_small_complete_graphs(self):
        assert er_threshold(3, 1.0).threshold is None
        prof = er_threshold(5, 1.0)
        assert prof.mean_degree == 2.0
        assert prof.threshold == pytest.approx(0.5, rel=1e-12)

    def test_standard_convention_doubles_degree(self):
        half = er_threshold(50, 0.2, convention="half")
        std = er_threshold(50, 0.2, convention="standard")
        assert std.mean_degree == pytest.approx(2.0 * half.mean_degree, rel=1e-12)
        assert std.threshold == pytest.approx(1.0 - 1.0 / 9.8, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            er_threshold(1, 0.5)
        with pytest.raises(ConfigurationError):
            er_threshold(10, 0.0)
        with pytest.raises(ConfigurationError):
            er_threshold(10, 1.5)
        with pytest.raises(ConfigurationError):
            er_threshold(10, 0.5, convention="median")


class TestEffectiveFailure:
    def test_hand_value(self):
        assert effective_failure(0.85, 2) == pytest.approx(0.614125, rel=1e-12)

    def test_zero_window_is_identity(self):
        for p in (0.0, 0.3, 0.92, 1.0):
            assert effective_failure(p, 0) == p

    def test_endpoints_fixed(self):
        for T in (0, 1, 5, 50):
            assert effective_failure(0.0, T) == 0.0
            assert effective_failure(1.0, T) == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            effective_failure(-0.1, 0)
        with pytest.raises(ConfigurationError):
            effective_failure(1.1, 0)
        with pytest.raises(ConfigurationError):
            effective_failure(0.5, -1)


class TestMinWindow:
    def test_reference_values_at_er_threshold(self):
        p_c = er_threshold(50, 0.2).threshold
        assert min_window(0.5, p_c) == 0
        assert min_window(0.7, p_c) == 0
        assert min_window(0.85, p_c) == 1
        assert min_window(0.92, p_c) == 2

    def test_zero_when_below_threshold(self):
        assert min_window(0.3, 0.5) == 0
        assert min_window(0.0, 0.5) == 0

    def test_defining_inequalities(self):
        # T* satisfies p^(T*+1) < p_c and, for T* >= 1, p^T* >= p_c.
        p_c = er_threshold(50, 0.2).threshold
        for p in (0.5, 0.7, 0.85, 0.92, 0.99):
            t = min_window(p, p_c)
            assert effective_failure(p, t) < p_c
            if t >= 1:
                assert effective_failure(p, t - 1) >= p_c

    def test_monotone_in_both_arguments(self):
        rng = np.random.default_rng(555)
        for _ in range(100):
            p_a, p_b = sorted(rng.uniform(0.01, 0.99, size=2))
            c_a, c_b = sorted(rng.uniform(0.05, 0.95, size=2))
            # nondecreasing in the failure probability
            assert min_window(p_a, c_a) <= min_window(p_b, c_a)
            # nonincreasing in the threshold
            assert min_window(p_b, c_a) >= min_window(p_b, c_b)

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(DomainError):
            min_window(1.0, 0.8)
        with pytest.raises(DomainError):
            min_window(0.5, 0.0)
        with pytest.raises(DomainError):
            min_window(0.5, 1.0)

    def test_subcritical_threshold_is_a_domain_error(self):
        # dispatch_adversity's topology, ER(10, 0.2), has mean degree 0.9:
        # no giant-component threshold, and a DomainError, not a TypeError.
        threshold = er_threshold(10, 0.2).threshold
        assert threshold is None
        with pytest.raises(DomainError, match="got None"):
            min_window(0.5, threshold)


class TestMcUnionConnectivity:
    def test_no_failures_keeps_connected_base(self):
        base = erdos_renyi(30, 0.3, (0.5, 1.0), seed=4)
        r = mc_union_connectivity(base, 0.0, 0, trials=50, seed=0)
        assert r.fraction == 1.0

    def test_certain_failure_disconnects(self):
        base = erdos_renyi(10, 0.8, (0.5, 1.0), seed=4)
        r = mc_union_connectivity(base, 1.0, 3, trials=50, seed=0)
        assert r.fraction == 0.0

    def test_frozen_profile_at_085(self):
        # Regression profile for the 50-node, p=0.2, seed=1 base over 500
        # trials; the fraction climbs steeply with the union window.
        # The acceptance case (test_union_connectivity_monte_carlo), pinned by its successes.
        base = erdos_renyi(50, 0.2, (0.5, 1.0), seed=1)
        got = [mc_union_connectivity(base, 0.85, T, trials=500, seed=0) for T in range(6)]
        assert [r.successes for r in got] == [0, 24, 243, 402, 467, 487]
        assert [r.fraction for r in got] == [0.0, 0.048, 0.486, 0.804, 0.934, 0.974]

    def test_monotone_in_window(self):
        base = erdos_renyi(50, 0.2, (0.5, 1.0), seed=1)
        fr = [mc_union_connectivity(base, 0.85, T, trials=500, seed=0).fraction
              for T in (1, 2, 3, 4)]
        assert fr == sorted(fr)

    def test_wilson_interval_sane_and_separating(self):
        base = erdos_renyi(50, 0.2, (0.5, 1.0), seed=1)
        lo_t = mc_union_connectivity(base, 0.85, 0, trials=500, seed=0)
        hi_t = mc_union_connectivity(base, 0.85, 3, trials=500, seed=0)
        for r in (lo_t, hi_t):
            assert 0.0 <= r.wilson_low <= r.fraction <= r.wilson_high <= 1.0
        # windows three apart produce non-overlapping 95% intervals
        assert lo_t.wilson_high < hi_t.wilson_low

    def test_reproducible_under_seed(self):
        base = erdos_renyi(20, 0.3, (0.5, 1.0), seed=9)
        a = mc_union_connectivity(base, 0.5, 1, trials=200, seed=77)
        b = mc_union_connectivity(base, 0.5, 1, trials=200, seed=77)
        assert a.fraction == b.fraction
        assert a.successes == b.successes

    def test_rejects_no_trials(self):
        base = erdos_renyi(5, 0.9, (0.5, 1.0), seed=0)
        for trials in (0, 2.5):
            with pytest.raises(ConfigurationError, match="trials"):
                mc_union_connectivity(base, 0.5, 0, trials=trials, seed=0)

    def test_rejects_negative_seeds(self):
        # numpy's seeding raised ValueError for these, not ConfigurationError
        base = erdos_renyi(5, 0.9, (0.5, 1.0), seed=0)
        with pytest.raises(ConfigurationError, match="seed"):
            mc_union_connectivity(base, 0.5, 0, trials=10, seed=-3)
        with pytest.raises(ConfigurationError, match="seed"):
            erdos_renyi(5, 0.9, (0.5, 1.0), seed=-1)
