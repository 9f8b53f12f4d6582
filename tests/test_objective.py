"""Tests for local costs, penalties, the aggregate objective, and the oracle."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dra_sim import (
    BoxPenalty,
    ConfigurationError,
    DomainError,
    NumericError,
    SmoothLogPenalty,
    central_solve,
    feasible_init,
    identity_map,
    init_delayed_state,
    load_costs_csv,
    quadratic_cost,
    quartic_cost,
    smoothness_bound,
)
from dra_sim.objective import CostSet
from dra_sim.scenario import PRESET_NAMES, ScenarioConfig, _build_costs, build_instance, preset


def central_diff(c, x, h):
    plus, minus = CostSet([c, c]).value_per_agent(np.array([x + h, x - h]))
    return (plus - minus) / (2.0 * h)


class TestCostValue:
    def test_quartic_interior_point_has_zero_penalty(self):
        c = quartic_cost(0.01, 1.0, penalty=BoxPenalty(1.0, 10.0, 20.0, 2))
        assert CostSet([c]).value_per_agent(np.array([2.0]))[0] == pytest.approx(0.01, rel=1e-12)

    def test_plain_quadratic(self):
        assert CostSet([quadratic_cost(1.0)]).value_per_agent(np.array([3.0]))[0] == 9.0

    def test_box_penalty_outside(self):
        c = quadratic_cost(1.0, penalty=BoxPenalty(1.0, 10.0, 20.0, 2))
        # 20 * (12 - 10)^2 on top of the base 144.
        assert CostSet([c]).value_per_agent(np.array([12.0]))[0] == pytest.approx(144.0 + 80.0, rel=1e-12)

    def test_quadratic_full_coefficients(self):
        c = quadratic_cost(2.0, 3.0, 4.0)
        got = CostSet([c]).value_per_agent(np.array([2.0]))[0]
        assert got == pytest.approx(2.0 * 4.0 + 3.0 * 2.0 + 4.0, rel=1e-14)

    def test_smooth_log_penalty_positive_everywhere(self):
        c = quadratic_cost(1.0, penalty=SmoothLogPenalty(1.0, 10.0, 5.0))
        base = quadratic_cost(1.0)
        x = np.array([-5.0, 1.0, 5.5, 10.0, 20.0])
        assert np.all(CostSet([c] * 5).value_per_agent(x) > CostSet([base] * 5).value_per_agent(x))

    def test_smooth_log_penalty_no_overflow(self):
        # mu * (x - hi) far beyond exp range must still evaluate, with the
        # penalty approaching the unit-slope asymptote x - hi.
        c = quadratic_cost(1.0, penalty=SmoothLogPenalty(1.0, 10.0, 5.0))
        base = quadratic_cost(1.0)
        with np.errstate(over="raise"):
            with_penalty, without = CostSet([c, base]).value_per_agent(np.array([400.0, 400.0]))
            v = with_penalty - without
        assert v == pytest.approx(390.0, rel=1e-9)


class TestCostGrad:
    def test_quartic_hand_value(self):
        assert CostSet([quartic_cost(0.01, 1.0)]).grad(np.array([2.0]))[0] == pytest.approx(0.04, rel=1e-12)

    def test_quadratic_hand_value(self):
        assert CostSet([quadratic_cost(2.0, 1.0)]).grad(np.array([0.0]))[0] == 1.0

    def test_box_penalty_gradient_below_box(self):
        # The base quadratic has zero slope at 0, so only the penalty acts.
        c = quadratic_cost(1.0, penalty=BoxPenalty(1.0, 10.0, 20.0, 2))
        assert CostSet([c]).grad(np.array([0.0]))[0] == pytest.approx(-40.0, rel=1e-12)

    def test_matches_finite_difference_on_random_instances(self):
        rng = np.random.default_rng(808)
        for _ in range(1000):
            if rng.uniform() < 0.5:
                c = quadratic_cost(float(rng.uniform(0.1, 5.0)),
                                   float(rng.uniform(-3.0, 3.0)),
                                   float(rng.uniform(-1.0, 1.0)))
            else:
                c = quartic_cost(float(rng.uniform(0.001, 0.5)),
                                 float(rng.uniform(-2.0, 2.0)))
            if rng.uniform() < 0.5:
                pen_kind = rng.uniform()
                lo, hi = sorted(rng.uniform(-5.0, 5.0, size=2))
                if hi - lo > 1e-3:
                    pen = (BoxPenalty(lo, hi, 20.0, 2) if pen_kind < 0.5
                           else SmoothLogPenalty(lo, hi, 5.0))
                    c = quadratic_cost(c.p1, c.p2, c.p3, penalty=pen) if c.kind == "quadratic" \
                        else quartic_cost(c.p1, c.p2, penalty=pen)
            x = float(rng.uniform(-8.0, 8.0))
            h = 1e-6 * (1.0 + abs(x))
            num = central_diff(c, x, h)
            ana = CostSet([c]).grad(np.array([x]))[0]
            assert ana == pytest.approx(num, rel=1e-5, abs=1e-7)

    def test_gradient_monotone(self):
        # Strict convexity shows up as a nondecreasing gradient.
        rng = np.random.default_rng(909)
        for _ in range(1000):
            c = (quadratic_cost(float(rng.uniform(0.1, 4.0)), float(rng.uniform(-2, 2)))
                 if rng.uniform() < 0.5
                 else quartic_cost(float(rng.uniform(0.001, 0.3)), float(rng.uniform(-2, 2))))
            x, y = sorted(rng.uniform(-10.0, 10.0, size=2))
            gx, gy = CostSet([c, c]).grad(np.array([x, y]))
            assert gx <= gy + 1e-12


class TestCostCurvature:
    def test_quadratic_constant(self):
        assert CostSet([quadratic_cost(1.5)]).curvature(np.array([7.0]))[0] == 3.0

    def test_quartic_hand_value(self):
        # 12 * 0.01 * (10 - 1)^2 at the far box corner.
        assert CostSet([quartic_cost(0.01, 1.0)]).curvature(np.array([10.0]))[0] == pytest.approx(9.72, rel=1e-12)

    @pytest.mark.parametrize("n, length", [(2, 1), (1, 3)])
    def test_rejects_a_state_of_the_wrong_length(self, n, length):
        cs = CostSet([quadratic_cost(1.0 + i) for i in range(n)])
        with pytest.raises(ConfigurationError, match="does not match"):
            cs.curvature(np.ones(length))


class TestValidation:
    def test_quadratic_needs_positive_curvature(self):
        with pytest.raises(ConfigurationError):
            quadratic_cost(0.0)
        with pytest.raises(ConfigurationError):
            quadratic_cost(-1.0)

    @pytest.mark.parametrize("b, c", [(math.nan, 0.0), (math.inf, 0.0), (0.0, math.nan), (0.0, -math.inf)])
    def test_lower_coefficients_must_be_finite(self, b, c):
        with pytest.raises(ConfigurationError, match="must be finite"):
            quadratic_cost(1.0, b, c)

    def test_quartic_needs_positive_scale(self):
        with pytest.raises(ConfigurationError):
            quartic_cost(0.0, 1.0)

    def test_box_penalty_validation(self):
        with pytest.raises(ConfigurationError):
            BoxPenalty(5.0, 1.0, 20.0, 2)
        with pytest.raises(ConfigurationError):
            BoxPenalty(1.0, 5.0, 0.0, 2)
        with pytest.raises(ConfigurationError):
            BoxPenalty(1.0, 5.0, 20.0, 1)

    def test_smooth_log_penalty_validation(self):
        with pytest.raises(ConfigurationError):
            SmoothLogPenalty(5.0, 1.0, 5.0)
        with pytest.raises(ConfigurationError):
            SmoothLogPenalty(1.0, 5.0, 0.0)


class TestSmoothness:
    def test_single_quadratic(self):
        est = smoothness_bound([quadratic_cost(1.0)], (-10.0, 10.0))
        assert est.u == pytest.approx(1.1, rel=1e-12)

    def test_quartic_on_box(self):
        est = smoothness_bound([quartic_cost(0.01, 1.0)], (1.0, 10.0))
        assert est.u == pytest.approx(5.346, rel=1e-9)
        assert est.max_curvature == pytest.approx(9.72, rel=1e-9)

    def test_u_dominates_sampled_curvature(self):
        rng = np.random.default_rng(117)
        for _ in range(50):
            costs = [quartic_cost(float(rng.uniform(0.001, 0.2)), float(rng.uniform(-2, 2)))
                     for _ in range(4)]
            lo, hi = sorted(rng.uniform(-8.0, 8.0, size=2))
            if hi - lo < 0.1:
                continue
            est = smoothness_bound(costs, (lo, hi))
            xs = rng.uniform(lo, hi, size=100)
            worst = max(CostSet([c] * len(xs)).curvature(xs).max() for c in costs)
            assert 2.0 * est.u >= worst

    def test_rejects_infinite_domain(self):
        with pytest.raises(DomainError):
            smoothness_bound([quadratic_cost(1.0)], (-math.inf, 1.0))

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigurationError):
            smoothness_bound([quadratic_cost(1.0)], (2.0, 2.0))


class TestCentralSolve:
    def test_symmetric_dispatch_splits_evenly(self):
        costs = [quadratic_cost(0.5, 3.0, 1.0) for _ in range(10)]
        boxes = [(20.0, 110.0)] * 10
        sol = central_solve(costs, 600.0, boxes=boxes, mode="exact_box")
        assert np.allclose(sol.x, 60.0, atol=1e-7)
        assert abs(sol.x.sum() - 600.0) <= 1e-7

    def test_nan_coefficient_is_a_configuration_error(self):
        # Not the InfeasibilityError of a bisection that no multiplier satisfies.
        with pytest.raises(ConfigurationError, match="p2=nan"):
            central_solve([quadratic_cost(1.0, math.nan), quadratic_cost(1.0)], 1.0)

    def test_two_agent_hand_solution(self):
        costs = [quadratic_cost(1.0), quadratic_cost(2.0)]
        sol = central_solve(costs, 3.0)
        assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
        assert sol.x[1] == pytest.approx(1.0, abs=1e-8)
        assert sol.multiplier == pytest.approx(4.0, abs=1e-7)
        assert sol.value == pytest.approx(6.0, abs=1e-7)

    def test_equal_gradients_at_optimum(self):
        rng = np.random.default_rng(2718)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            costs = [quadratic_cost(float(rng.uniform(0.2, 3.0)),
                                    float(rng.uniform(-2.0, 2.0)))
                     for _ in range(n)]
            b = float(rng.uniform(-10.0, 10.0))
            sol = central_solve(costs, b, tol=1e-10)
            grads = CostSet(costs).grad(sol.x)
            assert grads.max() - grads.min() <= 1e-7
            assert abs(sol.x.sum() - b) <= 1e-9 * (1.0 + abs(b))

    def test_penalized_approaches_exact_box(self):
        # Heavier penalty weights pull the penalized optimum into the box.
        rng = np.random.default_rng(333)
        costs_base = [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(-1.0, 1.0)))
                      for _ in range(5)]
        boxes = [(0.0, 1.5)] * 5
        b = 6.5  # below the 7.5 ceiling yet tight enough to activate caps
        gaps = []
        for sigma in (20.0, 200.0, 2000.0):
            costs = [quadratic_cost(a, bb, penalty=BoxPenalty(0.0, 1.5, sigma, 2))
                     for a, bb in costs_base]
            pen = central_solve(costs, b, mode="penalized", tol=1e-10)
            exact_costs = [quadratic_cost(a, bb) for a, bb in costs_base]
            exact = central_solve(exact_costs, b, boxes=boxes, mode="exact_box", tol=1e-10)
            gaps.append(float(np.max(np.abs(pen.x - exact.x))))
        assert gaps[0] >= gaps[1] >= gaps[2]

    def test_exact_box_clamps_to_bounds(self):
        costs = [quadratic_cost(1.0), quadratic_cost(1.0)]
        sol = central_solve(costs, 10.0, boxes=[(0.0, 2.0), (0.0, 20.0)], mode="exact_box")
        assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
        assert sol.x[1] == pytest.approx(8.0, abs=1e-8)

    def test_infeasible_box_rejected(self):
        costs = [quadratic_cost(1.0), quadratic_cost(1.0)]
        with pytest.raises(Exception):
            central_solve(costs, 100.0, boxes=[(0.0, 1.0), (0.0, 1.0)], mode="exact_box")

    def test_malformed_box_rejected(self):
        # An inverted box would put the agent outside its own box.
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            central_solve([quadratic_cost(1.0)] * 2, 3.0, boxes=[(1.0, 0.0), (0.0, 5.0)], mode="exact_box")

    def test_nan_box_rejected(self):
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            central_solve([quadratic_cost(1.0)] * 2, 3.0, boxes=[(math.nan, 1.0), (0.0, 5.0)], mode="exact_box")

    # The value sums costs of (1e308)**2, which overflow; no other overflow
    # may warn.
    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_bracket_sum_past_the_double_range_is_summed_exactly(self):
        # The clipped roots' running sum overflows, but their exact sum is
        # the total: the clamped floors and ceilings solve it.
        big = 1.6e308
        boxes = [(big, 1.7e308)] * 8 + [(-1.7e308, -big)] * 8
        sol = central_solve([quadratic_cost(1.0)] * 16, 0.0, boxes=boxes, mode="exact_box")
        assert sol.x.tolist() == [big] * 8 + [-big] * 8
        assert sol.gap == 0.0 and sol.value == math.inf

    @pytest.mark.filterwarnings("ignore:overflow encountered in square:RuntimeWarning")
    def test_box_floor_past_the_double_range_is_not_infeasible(self):
        # sum(lo) is finite and below the total, but a numpy sum of lo overflows.
        boxes = [(1e308, 1.7e308)] * 2 + [(-1.7e308, -1e308)] * 2
        sol = central_solve([quadratic_cost(1.0)] * 4, 0.0, boxes=boxes, mode="exact_box")
        assert sol.x.tolist() == [1e308, 1e308, -1e308, -1e308]
        assert sol.gap == 0.0 and sol.value == math.inf

    @pytest.mark.xfail(strict=True, raises=NumericError,
                       reason="the multiplier that solves it, 2e308, lies past the double range")
    def test_multiplier_past_the_double_range_still_solves(self):
        # x = (0, 1e308) solves it, and feasible_init finds that start through
        # its power-of-two rescale; the oracle's multiplier search does not.
        boxes = [(-8e307, 0.0), (8e307, 1.7e308)]
        assert feasible_init(2, 1e308, boxes=boxes).tolist() == [0.0, 1e308]
        sol = central_solve([quadratic_cost(1.0)] * 2, 1e308, boxes=boxes, mode="exact_box")
        assert sol.x.tolist() == [0.0, 1e308]

    def test_boxes_refused_outside_exact_box_mode(self):
        # Penalized mode honours only the costs' penalties; it would return
        # x = [1.5, 1.5], outside both boxes.
        with pytest.raises(ConfigurationError, match="exact_box"):
            central_solve([quadratic_cost(1.0)] * 2, 3.0, boxes=[(0.0, 1.0), (0.0, 1.0)], mode="penalized")

    @staticmethod
    def grad_calls(monkeypatch, costs, total):
        calls = 0
        grad = CostSet.grad

        def counted(self, x):
            nonlocal calls
            calls += 1
            return grad(self, x)

        monkeypatch.setattr(CostSet, "grad", counted)
        central_solve(costs, total, tol=1e-9, mode="penalized")
        return calls

    def test_gradient_calls_per_solve(self, monkeypatch):
        # A count, not a time: one solve on the fig_dyn costs made 850
        # CostSet.grad calls when every multiplier's bisection started
        # afresh and ran to its fixed point, 230 with one multiplier per
        # gradient round and 136 with rounds of three bisection levels.  The
        # closed-form roots make 6 over 5 multipliers.
        cfg = preset("fig_dyn")
        assert 0 < self.grad_calls(monkeypatch, build_instance(cfg)[1], cfg.total) < 850 // 5

    def test_gradient_calls_per_solve_at_scale(self, monkeypatch):
        # The benchmark's n = 3000 instance (quartic costs, box penalty
        # [1, 10], total 4n) made 2,678 calls with one multiplier per call;
        # the closed-form roots make 8 over 6 multipliers.
        n = 3000
        cfg = ScenarioConfig(n=n, total=4.0 * n, costs_kind="quartic", costs_penalty="box",
                             costs_box_lo=1.0, costs_box_hi=10.0)
        assert 0 < self.grad_calls(monkeypatch, _build_costs(cfg), cfg.total) < 2678 // 5

    def test_a_built_cost_set_gives_the_lists_result(self):
        cfg = preset("fig_dyn_logpenalty")
        costs = build_instance(cfg)[1]
        cs = CostSet(costs)
        a, b = central_solve(costs, cfg.total), central_solve(cs, cfg.total)
        assert (a.x.tobytes(), a.multiplier, a.value, a.kkt_residual) == (b.x.tobytes(), b.multiplier, b.value,
                                                                          b.kkt_residual)
        assert smoothness_bound(costs, (-5.0, 5.0)) == smoothness_bound(cs, (-5.0, 5.0))

    def test_flat_quartic_is_solved_in_closed_form(self):
        # Unit marginal cost lies at x near 1e100 for so flat a quartic; its
        # root at nu = 4e-300 is 1 + cbrt(1), exactly the even split.
        sol = central_solve([quartic_cost(1e-300, 1.0)] * 4, 8.0)
        assert sol.x.tolist() == [2.0] * 4 and sol.multiplier == 4e-300
        assert (sol.gap, sol.kkt_residual, sol.iterations) == (0.0, 0.0, 1)

    def test_presets_at_a_second_dispatch_level(self):
        # numpy's power, exp and log differ in the last bit between dispatch
        # levels, so only the oracle's guarantees are compared there: the
        # gap within tol and the KKT residual within 1e-8 (1 + |nu|).
        script = (
            "import json, numpy\n"
            "from dra_sim.scenario import PRESET_NAMES, build_instance, preset\n"
            "from dra_sim.objective import central_solve\n"
            "try:\n"
            "    out = {'v4': bool(numpy._core._multiarray_umath.__cpu_features__.get('X86_V4'))}\n"
            "except AttributeError:  # a numpy that does not expose its dispatch\n"
            "    out = {'v4': None}\n"
            "for name in PRESET_NAMES:\n"
            "    sol = central_solve(build_instance(preset(name))[1], preset(name).total, tol=1e-9)\n"
            "    out[name] = [sol.gap, sol.kkt_residual, sol.multiplier]\n"
            "print(json.dumps(out))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        out = json.loads(done.stdout)
        assert out.pop("v4") is not True and sorted(out) == sorted(PRESET_NAMES)
        for gap, kkt, nu in out.values():
            assert gap <= 1e-9 and kkt <= 1e-8 * (1.0 + abs(nu))

    def test_quartic_instances(self):
        costs = [quartic_cost(0.01, 1.0), quartic_cost(0.02, 2.0), quartic_cost(0.05, -1.0)]
        sol = central_solve(costs, 9.0, tol=1e-10)
        grads = CostSet(costs).grad(sol.x)
        assert grads.max() - grads.min() <= 1e-6
        assert abs(sol.x.sum() - 9.0) <= 1e-8


class TestAggregateCost:
    def test_two_squares(self):
        costs = [quadratic_cost(1.0), quadratic_cost(1.0)]
        assert CostSet(costs).total_value(np.array([1.0, 2.0])) == 5.0

    def test_permutation_invariance_for_identical_costs(self):
        costs = [quadratic_cost(0.7, 0.3)] * 6
        rng = np.random.default_rng(12)
        x = rng.uniform(-5, 5, size=6)
        a = CostSet(costs).total_value(x)
        b = CostSet(costs).total_value(x[rng.permutation(6)])
        assert a == pytest.approx(b, rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        # A state meets its costs in the run's initial state, which checks
        # the length once.
        with pytest.raises(ConfigurationError, match="must match the cost count"):
            init_delayed_state(np.array([1.0, 2.0]), 0, [quadratic_cost(1.0)], identity_map())

    def test_cost_set_rejects_a_state_of_another_length(self):
        cs = CostSet([quadratic_cost(1.0)])
        for evaluate in (cs.base_value, cs.value_per_agent, cs.total_value, cs.base_grad, cs.grad):
            with pytest.raises(ConfigurationError, match="does not match 1 costs"):
                evaluate(np.array([1.0, 2.0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_sum_past_the_double_range_is_infinite(self):
        # Each value is 1.69e308, finite; fsum raises on their sum.
        cs = CostSet([quadratic_cost(1.0)] * 3)
        x = np.full(3, 1.3e154)
        assert np.isfinite(cs.value_per_agent(x)).all()
        assert cs.total_value(x) == math.inf
        assert CostSet([quadratic_cost(1.0, c=-1e308)] * 3).total_value(np.zeros(3)) == -math.inf


class TestCostTable(object):
    HEADER = "i,kind,p1,p2,p3,lo,hi\n"

    def test_round_trip_mixed_rows(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER
                     + "0,quadratic,1.0,2.0,0.5,,\n"
                     + "1,quartic,0.01,1.0,0,1,10\n")
        costs = load_costs_csv(p)
        assert len(costs) == 2
        assert costs[0].kind == "quadratic"
        assert costs[0].penalty is None
        assert costs[1].kind == "quartic"
        assert isinstance(costs[1].penalty, BoxPenalty)
        assert CostSet([costs[1]]).value_per_agent(np.array([2.0]))[0] == pytest.approx(0.01, rel=1e-12)

    def test_rows_in_any_order(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER
                     + "1,quadratic,2.0,,,,\n"
                     + "0,quadratic,1.0,,,,\n")
        costs = load_costs_csv(p)
        assert CostSet(costs).curvature(np.zeros(2)).tolist() == [2.0, 4.0]

    def test_rejects_bad_header(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text("agent,kind,p1,p2,p3,lo,hi\n0,quadratic,1,,,,\n")
        with pytest.raises(ConfigurationError):
            load_costs_csv(p)

    def test_rejects_duplicate_agent(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1,,,,\n0,quadratic,2,,,,\n")
        with pytest.raises(ConfigurationError):
            load_costs_csv(p)

    def test_rejects_gap_in_ids(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1,,,,\n2,quadratic,2,,,,\n")
        with pytest.raises(ConfigurationError):
            load_costs_csv(p)

    def test_rejects_unknown_kind(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,cubic,1,,,,\n")
        with pytest.raises(ConfigurationError):
            load_costs_csv(p)

    def test_rejects_non_finite_coefficient_naming_its_line(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1,,,,\n1,quadratic,1,2,inf,,\n")
        with pytest.raises(ConfigurationError, match="line 3: cost coefficients must be finite"):
            load_costs_csv(p)

    def test_rejects_half_open_box(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1,,,1,\n")
        with pytest.raises(ConfigurationError):
            load_costs_csv(p)

    def test_none_penalty_option(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1.0,,,0,5\n")
        assert load_costs_csv(p, penalty="none")[0].penalty is None

    def test_smooth_penalty_option(self, tmp_path):
        p = tmp_path / "costs.csv"
        p.write_text(self.HEADER + "0,quadratic,1.0,,,0,5\n")
        costs = load_costs_csv(p, penalty="smooth_log", penalty_sharpness=3.0)
        assert isinstance(costs[0].penalty, SmoothLogPenalty)
        assert costs[0].penalty.sharpness == 3.0
