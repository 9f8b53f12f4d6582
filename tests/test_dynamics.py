"""Tests for the resource-allocation update laws and their analytic bounds."""

import math
from fractions import Fraction

import numpy as np
import pytest

from dra_sim import dynamics, scenario
from dra_sim import (
    ConfigurationError,
    DelaySchedule,
    CostSet,
    DomainError,
    InfeasibilityError,
    NumericError,
    WeightedGraph,
    central_solve,
    erdos_renyi,
    feasible_init,
    identity_map,
    init_delayed_state,
    laplacian,
    log_quantizer,
    max_delay_bound,
    quadratic_cost,
    quartic_cost,
    saturation,
    sign_power,
    smoothness_bound,
    spectral_summary,
    step_delay_free,
    step_delayed,
    step_rate_bound,
    step_rate_from_sector,
)

IDM = identity_map()


def philox_delays(seed, tau_bar, step, m, count):
    """The uniform delay stream's documented layout, computed from scratch.

    Row ``step % rows`` of the (rows, m) block ``step // rows``, drawn from
    Philox keyed by (seed, 0xDE1A) with counter words [0, block, m, 0].
    """
    rows = max(1, 2**15 // m)
    block, row = divmod(step, rows)
    gen = np.random.Generator(np.random.Philox(key=[seed, 0xDE1A], counter=[0, block, m, 0]))
    return gen.integers(0, tau_bar + 1, size=(rows, m), dtype=np.min_scalar_type(tau_bar))[row, :count]


def cycle_config(horizon):
    """A three-graph cycle of 30 nodes with phases of different link counts, failures and delays."""
    return scenario.ScenarioConfig(
        n=30, total=60.0, eta=0.02, horizon=horizon, seed=4, early_stop_spread=0.0,
        topology_kind="cycle", topology_cycle_ps=(0.5, 0.2, 0.35), topology_switch_period=7,
        costs_kind="quadratic", costs_penalty="none", p_fail=0.3, tau_bar=5,
    )


def two_node_instance():
    # f_i = x_i^2 / 2, so the gradient is the state itself.
    costs = [quadratic_cost(0.5), quadratic_cost(0.5)]
    graph = WeightedGraph(2, np.array([[0.0, 1.0], [1.0, 0.0]]))
    return costs, graph


def link_flow(weight, grad_i, grad_j, node_map, link_map):
    """The step's (node 0, node 1) output on one link of ``weight``, from x = 0 at eta = 1.

    That output is (-phi, +phi) exactly, phi = weight * g_n(g_l(grad_i) - g_l(grad_j))
    being the flow the link carries from node 0 to node 1.
    """
    graph = WeightedGraph(2, np.array([[0.0, weight], [weight, 0.0]]))
    costs = [quadratic_cost(0.5)] * 2
    return step_delay_free(np.zeros(2), graph, costs, node_map, link_map, 1.0, grads=np.array([grad_i, grad_j]))


class TestEdgeFlow:
    def test_identity_antisymmetry(self):
        assert link_flow(1.0, 3.0, 1.0, IDM, IDM).tolist() == [-2.0, 2.0]
        assert link_flow(1.0, 1.0, 3.0, IDM, IDM).tolist() == [2.0, -2.0]

    def test_equal_gradients_give_zero(self):
        assert link_flow(0.7, 4.2, 4.2, log_quantizer(0.25), IDM).tolist() == [0.0, 0.0]

    def test_quantized_composition(self):
        # Link map is the identity, so the node map sees e^0.3 and rounds
        # the log-magnitude onto the 0.25 lattice.
        got = link_flow(0.5, math.e**0.3 + 1.0, 1.0, log_quantizer(0.25), IDM)
        assert got.tolist() == [-0.5 * math.e**0.25, 0.5 * math.e**0.25]

    def test_rejects_nonpositive_weight(self):
        # A zero weight is no link, so nothing flows; a negative one is refused.
        assert WeightedGraph(2, np.zeros((2, 2))).edge_count == 0
        assert link_flow(0.0, 3.0, 1.0, IDM, IDM).tolist() == [0.0, 0.0]
        with pytest.raises(ConfigurationError):
            link_flow(-1.0, 3.0, 1.0, IDM, IDM)


class TestStepDelayFree:
    def test_two_node_hand_step(self):
        costs, graph = two_node_instance()
        x1 = step_delay_free(np.array([3.0, 1.0]), graph, costs, IDM, IDM, 0.25)
        assert x1.tolist() == [2.5, 1.5]
        assert math.fsum(x1.tolist()) == 4.0

    def test_equal_gradients_are_fixed_points(self):
        costs = [quadratic_cost(1.0, 2.0) for _ in range(5)]
        graph = erdos_renyi(5, 0.9, (0.5, 1.0), seed=8)
        x = np.full(5, 3.7)
        x1 = step_delay_free(x, graph, costs, IDM, IDM, 0.1)
        assert np.array_equal(x1, x)

    def test_quantizer_fixed_point_at_equal_gradients(self):
        costs = [quadratic_cost(1.0, 2.0) for _ in range(4)]
        graph = erdos_renyi(4, 1.0, (0.5, 1.0), seed=2)
        x = np.full(4, -1.25)
        q = log_quantizer(0.25)
        x1 = step_delay_free(x, graph, costs, q, q, 0.1)
        assert np.array_equal(x1, x)

    def test_edgeless_graph_is_identity(self):
        costs = [quadratic_cost(1.0), quadratic_cost(2.0), quadratic_cost(0.5)]
        graph = WeightedGraph(3, np.zeros((3, 3)))
        x = np.array([5.0, -1.0, 2.5])
        assert np.array_equal(step_delay_free(x, graph, costs, IDM, IDM, 0.2), x)

    def test_rejects_nonpositive_eta(self):
        costs, graph = two_node_instance()
        for eta in (0.0, -0.5):
            with pytest.raises(ConfigurationError):
                step_delay_free(np.array([3.0, 1.0]), graph, costs, IDM, IDM, eta)

    def test_rejects_dimension_mismatch(self):
        costs, graph = two_node_instance()
        with pytest.raises(ConfigurationError):
            step_delay_free(np.array([3.0, 1.0, 0.0]), graph, costs, IDM, IDM, 0.1)

    def test_nonfinite_gradient_aborts(self):
        costs = [quartic_cost(0.01, 0.0), quartic_cost(0.01, 0.0)]
        _, graph = two_node_instance()
        with np.errstate(over="ignore"):
            with pytest.raises(NumericError):
                step_delay_free(np.array([1e200, 0.0]), graph, costs, IDM, IDM, 0.1)

    def test_conservation_under_quantized_maps(self):
        rng = np.random.default_rng(404)
        for trial in range(20):
            n = int(rng.integers(3, 25))
            graph = erdos_renyi(n, 0.5, (0.5, 1.0), seed=trial)
            costs = [quartic_cost(float(rng.uniform(0.005, 0.05)),
                                  float(rng.uniform(-1, 1))) for _ in range(n)]
            total = float(rng.uniform(-20, 20))
            x = feasible_init(n, total, mode="random_simplex", seed=trial)
            q = log_quantizer(0.5)
            for _ in range(50):
                x = step_delay_free(x, graph, costs, q, q, 0.05)
            assert abs(math.fsum(x.tolist()) - total) <= 1e-9 * (1.0 + abs(total))

    def test_converges_to_central_oracle(self):
        # Identity maps on a static connected graph at half the certified
        # step rate must land on the centralized optimum.
        graph = erdos_renyi(10, 0.5, (0.5, 1.0), seed=12)
        rng = np.random.default_rng(55)
        costs = [quadratic_cost(float(rng.uniform(0.3, 1.5)),
                                float(rng.uniform(-1.0, 1.0))) for _ in range(10)]
        s = spectral_summary(laplacian(graph))
        u = smoothness_bound(costs, (-10.0, 10.0)).u
        eta = 0.5 * step_rate_bound(IDM, IDM, s.lambda2, s.lambda_max, u).eta_max
        x = feasible_init(10, 20.0)
        cs = CostSet(costs)
        for _ in range(30000):
            x = step_delay_free(x, graph, costs, IDM, IDM, eta)
            g = cs.grad(x)
            if g.max() - g.min() <= 1e-10:
                break
        sol = central_solve(costs, 20.0, tol=1e-10)
        assert float(np.max(np.abs(x - sol.x))) <= 1e-4


class TestDelaySchedule:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DelaySchedule(-1)
        with pytest.raises(ConfigurationError):
            DelaySchedule(2, mode="gaussian")

    @pytest.mark.parametrize("mode", ["uniform", "fixed", "per_link"])
    @pytest.mark.parametrize("tau_bar", [0, 4])
    def test_negative_step_rejected(self, mode, tau_bar):
        ei, ej = np.array([0, 1]), np.array([1, 2])
        with pytest.raises(ConfigurationError, match="step=-1"):
            DelaySchedule(tau_bar, mode=mode, seed=99).draw(-1, ei, ej, 20000)

    @pytest.mark.parametrize("mode", ["uniform", "fixed", "per_link"])
    @pytest.mark.parametrize("tau_bar", [0, 4])
    def test_more_live_links_than_the_graph_has_rejected(self, mode, tau_bar):
        # Five live links cannot come from a graph of two, in any mode.
        ei, ej = np.arange(5), np.arange(1, 6)
        schedule = DelaySchedule(tau_bar, mode=mode, seed=99)
        with pytest.raises(ConfigurationError, match="5 live links cannot come from a graph of 2 links"):
            schedule.draw(3, ei, ej, 2)
        assert len(schedule.draw(3, ei, ej, 5)) == 5

    def test_zero_bound_draws_zeros(self):
        s = DelaySchedule(0, mode="uniform", seed=1)
        d = s.draw(5, np.array([0, 1]), np.array([1, 2]))
        assert d.tolist() == [0, 0]

    def test_fixed_mode_pins_max(self):
        s = DelaySchedule(3, mode="fixed")
        d = s.draw(9, np.array([0, 1, 2]), np.array([1, 2, 3]))
        assert d.tolist() == [3, 3, 3]

    def test_uniform_mode_in_range_and_seeded(self):
        s1 = DelaySchedule(4, mode="uniform", seed=7)
        s2 = DelaySchedule(4, mode="uniform", seed=7)
        ei = np.arange(100)
        ej = ei + 1
        d1 = s1.draw(3, ei, ej)
        d2 = s2.draw(3, ei, ej)
        assert np.array_equal(d1, d2)
        assert d1.min() >= 0 and d1.max() <= 4
        assert len(set(d1.tolist())) > 1

    def test_every_mode_returns_the_narrow_dtype(self):
        ei, ej = np.triu_indices(5, 1)
        for tau_bar, dtype in ((0, np.uint8), (3, np.uint8), (255, np.uint8), (300, np.uint16)):
            for mode in ("uniform", "fixed", "per_link"):
                assert DelaySchedule(tau_bar, mode, seed=2).draw(4, ei, ej).dtype == dtype

    def test_seed_must_fit_the_key(self):
        with pytest.raises(ConfigurationError, match="delay seed"):
            DelaySchedule(2, seed=-1)
        with pytest.raises(ConfigurationError, match="delay seed"):
            DelaySchedule(2, seed=2**64)

    def test_uniform_stream_golden_values(self):
        # 15 links give blocks of 2184 steps, so step 2184 opens block 1.
        s = DelaySchedule(6, mode="uniform", seed=20251018)
        ei, ej = np.triu_indices(6, 1)
        assert s.draw(0, ei, ej).tolist() == [3, 4, 6, 1, 1, 6, 2, 4, 2, 2, 4, 3, 4, 2, 0]
        assert s.draw(1, ei, ej).tolist() == [2, 6, 4, 1, 5, 3, 5, 6, 6, 5, 5, 2, 2, 0, 1]
        assert s.draw(2184, ei, ej).tolist() == [2, 0, 4, 2, 4, 0, 2, 0, 4, 5, 0, 6, 4, 4, 6]

    @pytest.mark.parametrize("m", [9, 250, 20000])
    def test_uniform_stream_layout_across_block_boundaries(self, m):
        # rows is 3640, 131 and 1: steps on both sides of a block boundary,
        # with every link live and with a live prefix.
        rows = max(1, 2**15 // m)
        s = DelaySchedule(4, mode="uniform", seed=99)
        ei, ej = np.arange(m), np.arange(m) + 1
        for step in sorted({0, max(rows - 2, 0), rows - 1, rows, rows + 1, 5 * rows - 1, 5 * rows}):
            for count in (m, (2 * m) // 3):
                got = s.draw(step, ei[:count], ej[:count], m)
                assert got.tobytes() == philox_delays(99, 4, step, m, count).tobytes()

    def test_uniform_draws_out_of_order_equal_in_order(self):
        m = 250
        ei, ej = np.arange(m), np.arange(m) + 1
        counts = np.random.default_rng(5).integers(0, m + 1, 400)
        s = DelaySchedule(3, mode="uniform", seed=8)
        want = [s.draw(k, ei[: counts[k]], ej[: counts[k]], m).tobytes() for k in range(400)]
        s = DelaySchedule(3, mode="uniform", seed=8)
        for k in np.random.default_rng(6).permutation(400).tolist():
            assert s.draw(k, ei[: counts[k]], ej[: counts[k]], m).tobytes() == want[k]

    @pytest.mark.parametrize("m", [9, 250, 20000])
    def test_live_links_take_the_head_of_the_row(self, m):
        ei, ej = np.arange(m), np.arange(m) + 1
        live = np.random.default_rng(m).random(m) >= 0.5
        s = DelaySchedule(300, mode="uniform", seed=4)
        for step in (0, 1, 77):
            full = s.draw(step, ei, ej, m)
            assert s.draw(step, ei[live], ej[live], m).tobytes() == full[: live.sum()].tobytes()
        with pytest.raises(ConfigurationError):
            s.draw(0, ei, ej, m - 1)

    def test_cycle_phases_of_different_link_counts(self):
        # A three-graph cycle whose phases differ in link count, with
        # failures: every step's delays, as the run's link plan yields them,
        # are the stream's row for the step's graph width, whatever the
        # phase order, and its ring indices are ((k + d) % depth) * 2n plus
        # the link's j end, and plus n and its i end, in the whole ring.
        graphs = scenario.build_instance(cycle_config(120))[0]
        schedule = DelaySchedule(5, seed=77)
        plan = dynamics._link_plan(graphs, 7, 120, 0.3, np.random.default_rng(3), schedule)
        seen = list(enumerate(plan))
        assert len(seen) == 120
        assert len({graphs[(step // 7) % 3].edge_count for step, _ in seen}) == 3
        for step, (ei, ej, _, delays, into_j, into_i) in seen:
            graph = graphs[(step // 7) % 3]
            want = philox_delays(77, 5, step, graph.edge_count, len(ei))
            assert delays.tobytes() == want.tobytes()
            off = (step + want.astype(np.intp)) % 6 * 60
            assert [into_j.tolist(), into_i.tolist()] == [(off + ej).tolist(), (off + 30 + ei).tolist()]

    def test_cycle_draws_each_block_of_each_width_once(self, monkeypatch):
        # Phases of 238, 94 and 157 links take turns every 7 steps.  The
        # schedule holds the last block of each width, so a run draws each
        # block it reaches once (10 blocks), not once per phase (91).
        cfg = cycle_config(600)
        ms = [g.edge_count for g in scenario.build_instance(cfg)[0]]
        assert ms == [238, 94, 157]
        drawn = []
        uniform = DelaySchedule._uniform

        def counting(self, block, m, size):
            drawn.append((block, m))
            return uniform(self, block, m, size)

        monkeypatch.setattr(DelaySchedule, "_uniform", counting)
        assert scenario.run(cfg).summary.executed_steps == 600
        reached = {(k // (2**15 // m), m) for k, m in ((k, ms[(k // 7) % 3]) for k in range(600))}
        assert len(drawn) == 10 and sorted(drawn) == sorted(reached)

    def test_hand_loop_draws_each_block_of_each_width_once(self, monkeypatch):
        # A hand loop over the same cycle through DelaySchedule.links, with
        # failures, draws the run's 10 blocks too: links keeps the block of
        # each width it sees, as the link plan keeps its graphs' widths.
        cfg = cycle_config(600)
        graphs, costs, _, _ = scenario.build_instance(cfg)
        ms = [g.edge_count for g in graphs]
        drawn = []
        uniform = DelaySchedule._uniform

        def counting(self, block, m, size):
            drawn.append((block, m))
            return uniform(self, block, m, size)

        monkeypatch.setattr(DelaySchedule, "_uniform", counting)
        schedule, rng = DelaySchedule(cfg.tau_bar, seed=4), np.random.default_rng(3)
        state = init_delayed_state(np.full(cfg.n, 2.0), cfg.tau_bar, costs, IDM)
        for k in range(600):
            graph = graphs[(k // 7) % 3]
            keep = rng.random(graph.edge_count) >= cfg.p_fail
            state = step_delayed(state, schedule.links(state, graph, keep), costs, IDM, IDM, cfg.eta)
        reached = {(k // (2**15 // m), m) for k, m in ((k, ms[(k // 7) % 3]) for k in range(600))}
        assert len(drawn) == 10 and sorted(drawn) == sorted(reached)

    def test_held_blocks_stay_bounded(self):
        # A caller that passes each step's live links as a whole graph (m the
        # live count) meets a new width at most steps; the schedule keeps the
        # block of the last such width alone, besides one block per width of
        # the last link plan's graphs, until another plan replaces them.
        graphs = scenario.build_instance(cycle_config(120))[0]
        widths = sorted(g.edge_count for g in graphs)
        schedule = DelaySchedule(5, seed=77)
        for _ in dynamics._link_plan(graphs, 7, 120, 0.3, np.random.default_rng(3), schedule):
            pass
        assert sorted(schedule._held) == widths
        ei, ej, _ = erdos_renyi(40, 0.4, (0.5, 1.0), seed=1).edges()
        rng = np.random.default_rng(0)
        counts = set()
        for k in range(2000):
            keep = rng.random(len(ei)) >= 0.5
            schedule.draw(k, ei[keep], ej[keep])
            counts.add(int(keep.sum()))
            assert len(schedule._held) <= 4
        assert len(counts - set(widths)) > 40
        schedule.draw(2000, ei[:3], ej[:3])
        assert sorted(schedule._held) == sorted(widths + [3])
        other = erdos_renyi(40, 0.4, (0.5, 1.0), seed=1)
        for _ in dynamics._link_plan([other], 7, 20, 0.3, np.random.default_rng(4), schedule):
            pass
        assert sorted(schedule._held) == [other.edge_count]

    def test_stream_reset_gives_a_fresh_generators_bits(self):
        # The schedule's one Philox generator, reset for each block after
        # draws that left half a word and part of its buffer unread, gives
        # the bits of a fresh generator keyed and countered for the block.
        seed = 2**64 - 1
        s = DelaySchedule(300, seed=seed)
        for block, m in ((0, 9), (3, 250), (0, 9), (7, 20000), (2**40, 3)):
            while not (s._bits.state["has_uint32"] == 1 and s._bits.state["buffer_pos"] < 4):
                s._gen.integers(0, 2**32, dtype=np.uint32)
            key = np.array([seed, 0xDE1A], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key, counter=[0, block, m, 0]))
            want = fresh.integers(0, 301, size=(2, m), dtype=np.uint16)
            assert s._uniform(block, m, (2, m)).tobytes() == want.tobytes()

    def test_plan_without_failures_or_delays_shares_the_graphs_arrays(self):
        # With p_fail 0 and tau_bar 0, every step of a horizon of several
        # blocks gets the graph's own (ei, ej, w) and no ring indices.
        g = erdos_renyi(30, 0.5, (0.5, 1.0), seed=1)
        horizon = 3 * (2**15 // g.edge_count) + 5
        plan = list(dynamics._link_plan([g], 7, horizon, 0.0, np.random.default_rng(0), DelaySchedule(0)))
        assert len(plan) == horizon
        for links in plan:
            assert all(a is b for a, b in zip(links[:3], g.edges()))
            assert links[3:] == (None, None, None)
        assert len({id(links) for links in plan}) == 4  # one tuple per block

    @pytest.mark.parametrize("tau_bar", [1, 2, 6, 300])
    def test_uniform_delays_pass_chi_square(self, tau_bar):
        # 50,000 delays over 200 steps of 250 links, against the 0.1% upper
        # quantile of chi-square (Wilson-Hilferty) on tau_bar degrees of
        # freedom.
        s = DelaySchedule(tau_bar, mode="uniform", seed=31337)
        ei, ej = np.arange(250), np.arange(250) + 1
        counts = sum(np.bincount(s.draw(k, ei, ej), minlength=tau_bar + 1) for k in range(200))
        expected = 50_000 / (tau_bar + 1)
        stat = float(((counts - expected) ** 2 / expected).sum())
        df = tau_bar
        critical = df * (1 - 2 / (9 * df) + 3.0902 * math.sqrt(2 / (9 * df))) ** 3
        assert stat < critical

    def test_run_builds_no_generator_per_step(self, monkeypatch):
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        counts = []
        for horizon in (100, 2000):
            built.clear()
            res = scenario.run(scenario.apply_key(
                scenario.apply_key(scenario.preset("fig_delay"), "horizon", horizon), "early_stop", 0.0))
            assert res.summary.executed_steps == horizon
            counts.append(len(built))
        assert counts[0] == counts[1]

    def test_per_link_mode_is_constant_over_steps(self):
        s = DelaySchedule(5, mode="per_link", seed=11)
        ei = np.array([0, 1, 2])
        ej = np.array([1, 2, 3])
        a = s.draw(0, ei, ej)
        b = s.draw(42, ei, ej)
        assert np.array_equal(a, b)

    def test_per_link_delay_belongs_to_the_link(self):
        # Each link draws once from its own stream, whatever links it is
        # drawn with and in whatever order.
        s = DelaySchedule(300, mode="per_link", seed=11)
        ei, ej = np.triu_indices(40, 1)
        want = [
            int(np.random.default_rng([11, 0xDE1A, i, j, 0]).integers(0, 301))
            for i, j in zip(ei.tolist(), ej.tolist())
        ]
        part = np.arange(0, len(ei), 3)[::-1]
        assert s.draw(0, ei[part], ej[part]).tolist() == [want[t] for t in part]
        assert s.draw(7, ei, ej).tolist() == want
        assert s.draw(9, ei[part], ej[part]).tolist() == [want[t] for t in part]


class TestStepDelayed:
    def test_zero_delay_matches_delay_free_bitwise(self):
        rng = np.random.default_rng(77)
        n = 12
        graph = erdos_renyi(n, 0.5, (0.5, 1.0), seed=5)
        costs = [quartic_cost(float(rng.uniform(0.005, 0.05)),
                              float(rng.uniform(-1, 1))) for _ in range(n)]
        q = log_quantizer(0.25)
        x_free = feasible_init(n, 30.0, mode="random_simplex", seed=9)
        state = init_delayed_state(x_free.copy(), 0, costs, q)
        sched = DelaySchedule(0, mode="uniform", seed=1)
        for _ in range(40):
            x_free = step_delay_free(x_free, graph, costs, q, q, 0.05)
            state = step_delayed(state, sched.links(state, graph), costs, q, q, 0.05)
            assert np.array_equal(state.x, x_free)

    def test_constant_delay_hand_trace(self):
        costs, graph = two_node_instance()
        sched = DelaySchedule(1, mode="fixed")
        state = init_delayed_state(np.array([3.0, 1.0]), 1, costs, IDM)
        s1 = step_delayed(state, sched.links(state, graph), costs, IDM, IDM, 0.25)
        assert s1.x.tolist() == [3.0, 1.0]
        s2 = step_delayed(s1, sched.links(s1, graph), costs, IDM, IDM, 0.25)
        assert s2.x.tolist() == [2.5, 1.5]
        assert s2.step == 2

    def test_conservation_under_delays_and_failures(self):
        rng = np.random.default_rng(1234)
        n = 20
        total = 40.0
        base = erdos_renyi(n, 0.4, (0.5, 1.0), seed=6)
        costs = [quartic_cost(float(rng.uniform(0.005, 0.05)),
                              float(rng.uniform(-1, 1))) for _ in range(n)]
        q = log_quantizer(0.25)
        sched = DelaySchedule(3, mode="uniform", seed=21)
        state = init_delayed_state(feasible_init(n, total, "random_simplex", seed=3),
                                   3, costs, q)
        tol = 1e-9 * (1.0 + abs(total)) * math.log2(n + 1)
        m = base.edge_count
        for _ in range(2000):
            keep = rng.random(m) >= 0.5
            state = step_delayed(state, sched.links(state, base, keep), costs, q, q, 0.05)
            assert abs(math.fsum(state.x.tolist()) - total) <= tol

    def test_empty_due_slot_adds_positive_zero(self):
        # Fixed delays of 2: nothing arrives at steps 0 and 1, yet the empty
        # slot due is still applied, so node 0's -0.0 becomes +0.0 at step 0,
        # as the delay-free step's bincount makes it.  At step 2 the flow of
        # link {1, 2} arrives.
        costs = [quadratic_cost(0.5)] * 3
        graph = WeightedGraph(3, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        x0 = np.array([-0.0, 3.0, 1.0])
        state = init_delayed_state(x0, 2, costs, IDM)
        sched = DelaySchedule(2, mode="fixed")
        free = step_delay_free(x0, graph, costs, IDM, IDM, 0.25)
        assert not np.signbit(free[0])
        for _ in range(2):
            state = step_delayed(state, sched.links(state, graph), costs, IDM, IDM, 0.25)
            assert state.x.tolist() == [0.0, 3.0, 1.0] and not np.signbit(state.x[0])
        state = step_delayed(state, sched.links(state, graph), costs, IDM, IDM, 0.25)
        assert state.x.tolist() == [0.0, 2.5, 1.5] and not np.signbit(state.x[0])

    def test_graph_size_must_match_state(self):
        costs, _ = two_node_instance()
        path3 = WeightedGraph(3, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]))
        state = init_delayed_state(np.array([3.0, 1.0]), 0, costs, IDM)
        with pytest.raises(ConfigurationError, match="agree on n"):
            step_delayed(state, DelaySchedule(0).links(state, path3), costs, IDM, IDM, 0.25)
        with pytest.raises(ConfigurationError, match="agree on n"):
            step_delay_free(state.x, path3, costs, IDM, IDM, 0.25)

    def test_failure_mask_must_cover_every_link(self):
        costs, graph = two_node_instance()
        state = init_delayed_state(np.array([3.0, 1.0]), 0, costs, IDM)
        with pytest.raises(ConfigurationError, match="failure mask length"):
            step_delayed(state, DelaySchedule(0).links(state, graph, np.ones(2, dtype=bool)), costs, IDM, IDM, 0.25)

    def test_tau_bar_mismatch_rejected(self):
        costs, graph = two_node_instance()
        state = init_delayed_state(np.array([3.0, 1.0]), 1, costs, IDM)
        sched = DelaySchedule(4, mode="uniform", seed=0)
        with pytest.raises(ConfigurationError, match="^schedule tau_bar 4 does not match state tau_bar 1$"):
            step_delayed(state, sched.links(state, graph), costs, IDM, IDM, 0.25)

    def test_init_validation(self):
        costs, _ = two_node_instance()
        with pytest.raises(ConfigurationError):
            init_delayed_state(np.array([1.0, 2.0, 3.0]), 1, costs, IDM)
        with pytest.raises(ConfigurationError):
            init_delayed_state(np.array([1.0, 2.0]), -1, costs, IDM)


class TestStepRateBound:
    def test_unit_sector_simplification(self):
        # kappa = bigK = 1 and lambda2 = lambda_max = lam collapse the bound
        # to 1 / (u * lam).
        for lam, u in ((2.0, 0.5), (0.3, 1.7), (5.0, 0.115)):
            got = step_rate_from_sector(1, 1, 1, 1, lam, lam, u)
            assert got == pytest.approx(1.0 / (u * lam), rel=1e-12)

    def test_window_plus_delay_scaling(self):
        a = step_rate_from_sector(1, 1, 0.9, 1.1, 0.5, 2.0, 0.4, window=0, tau_bar=0)
        b = step_rate_from_sector(1, 1, 0.9, 1.1, 0.5, 2.0, 0.4, window=1, tau_bar=0)
        c = step_rate_from_sector(1, 1, 0.9, 1.1, 0.5, 2.0, 0.4, window=0, tau_bar=3)
        assert b == pytest.approx(a / 2.0, rel=1e-12)
        assert c == pytest.approx(a / 4.0, rel=1e-12)

    def test_pinned_reference_values(self):
        # Three-decimal sector inputs, frozen by hand before implementation.
        got = step_rate_from_sector(1.0, 1.0, 0.938, 1.062, 0.044, 0.311,
                                    0.115, window=0, tau_bar=2)
        assert got == pytest.approx(1.0966463771700732, rel=1e-12)
        # Exact certificates of the 1/8 quantizer in the same setting.
        q = log_quantizer(1.0 / 8.0)
        got = step_rate_bound(IDM, q, 0.044, 0.311, 0.115, window=0, tau_bar=2)
        assert got.eta_max == pytest.approx(1.0931571205311323, rel=1e-12)
        # Identity link map for comparison.
        got = step_rate_bound(IDM, IDM, 0.044, 0.311, 0.115, window=0, tau_bar=2)
        assert got.eta_max == pytest.approx(1.3185991861545885, rel=1e-12)

    def test_disconnected_union_rejected(self):
        with pytest.raises(DomainError):
            step_rate_bound(IDM, IDM, 0.0, 2.0, 0.5)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            step_rate_from_sector(1, 1, 1, 1, 2.0, 1.0, 0.5)  # lambda_max < lambda2
        with pytest.raises(DomainError):
            step_rate_from_sector(1, 1, 1, 1, 1.0, 2.0, 0.0)  # u = 0
        with pytest.raises(DomainError):
            step_rate_from_sector(2, 1, 1, 1, 1.0, 2.0, 0.5)  # kappa > bigK
        with pytest.raises(ConfigurationError):
            step_rate_from_sector(1, 1, 1, 1, 1.0, 2.0, 0.5, window=-1)

    @pytest.mark.parametrize("lam2, lam_max", [(math.inf, math.inf), (0.5, math.inf)])
    def test_nonfinite_spectrum_rejected(self, lam2, lam_max):
        # An infinite lambda_max would certify a step rate of 0, and two infinities one of nan.
        with pytest.raises(DomainError, match="finite"):
            step_rate_from_sector(1, 1, 1, 1, lam2, lam_max, 1.0)
        with pytest.raises(DomainError, match="finite"):
            max_delay_bound(IDM, IDM, lam2, lam_max, 1.0, 0, 0.1)

    def test_carries_inputs_and_positivity(self):
        q = log_quantizer(0.25)
        b = step_rate_bound(q, q, 0.7, 3.0, 1.2, window=2, tau_bar=1)
        assert b.eta_max > 0.0
        assert b.kappa_node == q.kappa
        assert b.big_k_link == q.big_k
        assert b.window == 2 and b.tau_bar == 1

    def test_monotone_in_each_input(self):
        base = dict(kappa_node=0.9, big_k_node=1.1, kappa_link=0.95,
                    big_k_link=1.05, lambda2=0.5, lambda_max=2.0, u=0.8)

        def rate(**over):
            a = dict(base, **over)
            return step_rate_from_sector(a["kappa_node"], a["big_k_node"],
                                         a["kappa_link"], a["big_k_link"],
                                         a["lambda2"], a["lambda_max"], a["u"])

        r0 = rate()
        assert rate(kappa_node=0.95) > r0
        assert rate(kappa_link=0.99) > r0
        assert rate(lambda2=0.6) > r0
        assert rate(big_k_node=1.2) < r0
        assert rate(big_k_link=1.2) < r0
        assert rate(lambda_max=2.5) < r0
        assert rate(u=1.0) < r0


class TestMaxDelayBound:
    def test_inverse_consistency_grid(self):
        # Running the step-rate bound at the floored delay budget always
        # re-admits the step rate that produced the budget.
        rng = np.random.default_rng(31)
        maps = [IDM, log_quantizer(0.25), log_quantizer(1.0), saturation(1.0, 4.0)]
        checked = 0
        while checked < 100:
            gn = maps[rng.integers(0, len(maps))]
            gl = maps[rng.integers(0, len(maps))]
            lam2 = float(rng.uniform(0.05, 2.0))
            lam_max = lam2 * float(rng.uniform(1.0, 5.0))
            u = float(rng.uniform(0.1, 2.0))
            window = int(rng.integers(0, 3))
            eta = float(rng.uniform(0.01, 1.0))
            budget = max_delay_bound(gn, gl, lam2, lam_max, u, window, eta)
            if budget < 0.0:
                continue
            checked += 1
            tau = int(math.floor(budget))
            readmitted = step_rate_bound(gn, gl, lam2, lam_max, u,
                                         window=window, tau_bar=tau).eta_max
            assert readmitted >= eta - 1e-12 * (1.0 + eta)

    def test_decreasing_in_eta(self):
        b1 = max_delay_bound(IDM, IDM, 0.5, 2.0, 0.8, 0, 0.05)
        b2 = max_delay_bound(IDM, IDM, 0.5, 2.0, 0.8, 0, 0.10)
        b3 = max_delay_bound(IDM, IDM, 0.5, 2.0, 0.8, 0, 0.20)
        assert b1 > b2 > b3

    def test_negative_budget_for_aggressive_eta(self):
        assert max_delay_bound(IDM, IDM, 0.1, 3.0, 1.0, 0, 10.0) < 0.0

    def test_small_eta_grows_budget(self):
        assert max_delay_bound(IDM, IDM, 0.5, 2.0, 0.8, 0, 1e-6) > 1e5

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.inf, math.nan])
    def test_rejects_step_rate_not_positive_and_finite(self, eta):
        with pytest.raises(DomainError, match="step rate must be positive"):
            max_delay_bound(IDM, IDM, 0.5, 2.0, 0.8, 0, eta)

    def test_rejects_lambda_max_below_lambda2(self):
        # The same input check as the step rate's (TestStepRateBound::test_input_validation).
        with pytest.raises(DomainError):
            max_delay_bound(IDM, IDM, 0.5, 0.4, 0.8, 0, 0.05)


class TestFeasibleInit:
    def test_equal_split(self):
        x = feasible_init(50, 200.0)
        assert np.all(x == 4.0)
        assert math.fsum(x.tolist()) == 200.0

    def test_boxed_dispatch_start(self):
        x = feasible_init(10, 600.0, mode="random_simplex", seed=4,
                          boxes=[(20.0, 110.0)] * 10)
        assert math.fsum(x.tolist()) == 600.0
        assert np.all(x >= 20.0) and np.all(x <= 110.0)

    def test_boxed_exact_fix_up(self):
        # The rebalancing loop ends 2**-50 above the total here, and the
        # coordinate with the most room takes the last residue.
        boxes = [(-3.4, -2.7), (4.7, 7.9), (0.2, 4.1)]
        x = feasible_init(3, 6.3, boxes=boxes)
        assert math.fsum(x.tolist()) == 6.3
        assert all(lo <= v <= hi for v, (lo, hi) in zip(x.tolist(), boxes))

    def test_random_simplex_positive_exact_sum(self):
        for seed in range(10):
            x = feasible_init(7, 3.5, mode="random_simplex", seed=seed)
            assert np.all(x > 0.0)
            assert math.fsum(x.tolist()) == 3.5

    def test_random_simplex_reproducible(self):
        a = feasible_init(9, 12.0, mode="random_simplex", seed=3)
        b = feasible_init(9, 12.0, mode="random_simplex", seed=3)
        assert np.array_equal(a, b)

    def test_running_sum_past_the_double_range_is_summed_exactly(self):
        # Each numpy box sum is finite, and fsum's running sum of the clipped
        # start overflows at its second term, but its exact sum is the total.
        big = 1.6e308
        x = feasible_init(16, 0.0, boxes=[(big, 1.7e308)] * 8 + [(-1.7e308, -big)] * 8)
        assert x.tolist() == [big] * 8 + [-big] * 8
        assert sum(map(Fraction, x.tolist())) == 0

    def test_exact_sum_past_the_double_range_is_a_numeric_error(self):
        # Floors sum to 3.4e308 and the last box holds the total only with
        # -3.4e308, which no double is.
        with pytest.raises(NumericError, match="the sum of the start vector leaves the double range"):
            feasible_init(3, 0.0, boxes=[(1.7e308, 1.7e308)] * 2 + [(-math.inf, 0.0)])

    def test_infeasible_boxes_rejected(self):
        with pytest.raises(InfeasibilityError, match="below the box floor 3.0"):
            feasible_init(3, 1.0, boxes=[(1.0, 2.0)] * 3)
        with pytest.raises(InfeasibilityError, match="above the box ceiling 6.0"):
            feasible_init(3, 100.0, boxes=[(1.0, 2.0)] * 3)

    def test_box_sums_past_the_double_range_decide_exactly(self):
        # A numpy sum of these floors overflows, to +inf or -inf by their
        # order, though sum(lo) <= 0 <= sum(hi) holds exactly.
        top, low = (1e308, 1.7e308), (-1.7e308, -1e308)
        x = feasible_init(4, 0.0, boxes=[top, top, low, low])  # fsum's running sum overflows
        assert x.tolist() == [1e308, 1e308, -1e308, -1e308] and sum(map(Fraction, x.tolist())) == 0
        x = feasible_init(4, 0.0, boxes=[top, low, low, top])
        assert x.tolist() == [1e308, -1e308, -1e308, 1e308]
        # Here the floor is past the double range itself.
        with pytest.raises(InfeasibilityError, match="below the box floor inf"):
            feasible_init(4, 0.0, boxes=[top] * 4)

    def test_malformed_boxes_rejected_as_central_solve_does(self):
        # A NaN end fails lo <= hi, as in central_solve, instead of reaching
        # the feasibility check as a bound of nan.
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            feasible_init(3, 6.0, boxes=[(math.nan, 5.0)] * 3)
        with pytest.raises(ConfigurationError, match="lo <= hi"):
            feasible_init(3, 6.0, boxes=[(3.0, 1.0)] * 3)
        with pytest.raises(ConfigurationError, match="one \\(lo, hi\\) pair per coordinate"):
            feasible_init(3, 6.0, boxes=[(1.0, 5.0)] * 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            feasible_init(3, 1.0, mode="fibonacci")

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer"):
            feasible_init(5, 1.0, "random_simplex", seed=-1)


def gradient_spread(x, costs):
    """max f_i'(x_i) - min f_i'(x_i): the run loop's early-stop quantity."""
    g = CostSet(costs).grad(x)
    return g.max() - g.min()


def gradient_dispersion(x, costs):
    """norm(g - mean(g)) of the gradients g: the trace's dispersion column."""
    g = CostSet(costs).grad(x)
    return np.linalg.norm(g - g.mean())


class TestEquilibriumCheck:
    def test_identical_costs_equal_states(self):
        costs = [quadratic_cost(1.0, 0.5)] * 4
        assert gradient_spread(np.full(4, 2.0), costs) == 0.0

    def test_hand_optimum_has_zero_spread(self):
        costs = [quadratic_cost(1.0), quadratic_cost(2.0)]
        assert gradient_spread(np.array([2.0, 1.0]), costs) == 0.0

    def test_oracle_output_passes(self):
        rng = np.random.default_rng(71)
        costs = [quadratic_cost(float(rng.uniform(0.2, 2.0)),
                                float(rng.uniform(-1, 1))) for _ in range(6)]
        sol = central_solve(costs, 11.0, tol=1e-11)
        assert gradient_spread(sol.x, costs) <= 1e-7

    def test_zero_spread_is_fixed_point(self):
        costs = [quadratic_cost(0.8, -0.2)] * 5
        graph = erdos_renyi(5, 1.0, (0.5, 1.0), seed=1)
        x = np.full(5, 1.3)
        assert gradient_spread(x, costs) == 0.0
        x1 = step_delay_free(x, graph, costs, IDM, IDM, 0.2)
        assert np.array_equal(x1, x)


class TestGradientDispersion:
    def test_equal_gradients(self):
        costs = [quadratic_cost(1.0)] * 3
        assert gradient_dispersion(np.full(3, 2.0), costs) == 0.0

    def test_hand_value(self):
        # Gradients (2, 0) recentre to (1, -1), giving norm sqrt(2).
        costs = [quadratic_cost(1.0), quadratic_cost(1.0)]
        got = gradient_dispersion(np.array([1.0, 0.0]), costs)
        assert got == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_shrinks_along_converging_run(self):
        graph = erdos_renyi(8, 0.6, (0.5, 1.0), seed=3)
        rng = np.random.default_rng(13)
        costs = [quadratic_cost(float(rng.uniform(0.4, 1.2))) for _ in range(8)]
        x = feasible_init(8, 16.0, mode="random_simplex", seed=2)
        first = gradient_dispersion(x, costs)
        for _ in range(2000):
            x = step_delay_free(x, graph, costs, IDM, IDM, 0.05)
        assert gradient_dispersion(x, costs) <= min(1e-6, first)


def sector_samples(graph, costs, node_map, link_map, samples, seed, state_range=(-10.0, 10.0)):
    """Sector alignment of the shipped kernel's flows at random states.

    Returns the flow ratios grad . Phi / grad . L grad, their worst excursion
    outside the product sector [kn*kl, Kn*Kl], and the worst relative
    excursion (0 for none) of x . L g_l(x) outside
    [lambda2*kl*|x - mean|^2, lambda_max*Kl*|x - mean|^2].  Phi and L grad
    are one delay-free step from 0 at eta = 1 with ``grads=grad``, with the
    maps and with identity maps; L g_l(x) is minus the same step with
    ``grads=x``, the identity node map and ``link_map``.
    """
    rng = np.random.default_rng([seed, 0xD1A6])
    cs = CostSet(costs)
    n = cs.n
    spec = spectral_summary(laplacian(graph))
    lo_bound = node_map.kappa * link_map.kappa
    hi_bound = node_map.big_k * link_map.big_k
    zero = np.zeros(n)
    ratios, flow_worst, ray_worst = [], 0.0, 0.0
    for _ in range(samples):
        x = state_range[0] + (state_range[1] - state_range[0]) * rng.random(n)
        grads = cs.grad(x)
        phi = step_delay_free(zero, graph, cs, node_map, link_map, 1.0, grads=grads)
        phi_lin = step_delay_free(zero, graph, cs, IDM, IDM, 1.0, grads=grads)
        den = float(grads @ phi_lin)
        if abs(den) > 1e-12 * (1.0 + float(np.abs(grads).max()) ** 2):
            r = float(grads @ phi) / den
            ratios.append(r)
            flow_worst = max(flow_worst, lo_bound - r, r - hi_bound)
        quad = -float(x @ step_delay_free(zero, graph, cs, IDM, link_map, 1.0, grads=x))
        xd = x - x.mean()
        low = spec.lambda2 * link_map.kappa * float(xd @ xd)
        high = spec.lambda_max * link_map.big_k * float(xd @ xd)
        slack = 1e-9 * max(abs(low), abs(high), 1.0)
        if not low - slack <= quad <= high + slack:
            ray_worst = max(ray_worst, (low - quad) / max(abs(low), 1e-300), (quad - high) / max(abs(high), 1e-300))
    assert ratios, "no sample had a nonzero linear flow"
    return np.array(ratios), flow_worst, ray_worst


class TestSectorDiagnostics:
    def test_identity_ratio_is_exactly_one(self):
        g = erdos_renyi(20, 0.4, (0.5, 1.0), seed=3)
        costs = [quartic_cost(0.01, 1.0) for _ in range(20)]
        ratios, flow_worst, ray_worst = sector_samples(g, costs, IDM, IDM, samples=200, seed=5)
        assert ratios.min() == ratios.max() == 1.0
        assert flow_worst == 0.0
        assert ray_worst == 0.0

    def test_saturation_linear_region_is_identity(self):
        g = erdos_renyi(15, 0.5, (0.5, 1.0), seed=4)
        costs = [quartic_cost(0.01, 0.0) for _ in range(15)]
        sat = saturation(100.0, 1000.0)
        ratios, flow_worst, _ = sector_samples(g, costs, sat, sat, samples=200, seed=5, state_range=(-2.0, 2.0))
        assert ratios.min() == ratios.max() == 1.0
        assert flow_worst == 0.0

    def test_fine_quantizer_excursions_below_one_percent(self):
        g = erdos_renyi(20, 0.4, (0.5, 1.0), seed=3)
        costs = [quartic_cost(0.01, 1.0) for _ in range(20)]
        q = log_quantizer(1.0 / 1024.0)
        ratios, flow_worst, ray_worst = sector_samples(g, costs, q, q, samples=500, seed=5)
        assert flow_worst <= 0.01
        assert ray_worst <= 0.01
        assert 0.99 <= ratios.min() <= ratios.max() <= 1.01


class TestFinitenessChecks:
    """Where a step stops on an overflow that the state itself does not show.

    A finite state can have an infinite gradient, and two finite link-mapped
    gradients can have an infinite difference.  A saturation or sign-power
    map on the link differences would turn that inf into a finite flow, so
    each case must raise before any map output is used, at the step where
    it happens, through ``step_delayed`` and through ``run``.
    """

    MESSAGE = "^sector map input must be finite$"

    @staticmethod
    def record_maps(monkeypatch):
        calls = []
        real = dynamics.apply_map_array

        def recording(sector_map, values, counter=None):
            calls.append((sector_map, len(values)))
            return real(sector_map, values, counter)

        monkeypatch.setattr(dynamics, "apply_map_array", recording)
        return calls

    @pytest.mark.parametrize("tau_bar", [0, 2])
    def test_gradient_overflow_of_finite_state(self, monkeypatch, tau_bar):
        # f = x^2, so the gradient 2x overflows at x = 1e308.
        costs = [quadratic_cost(1.0), quadratic_cost(1.0)]
        _, graph = two_node_instance()
        node_map = saturation(1.0, 10.0)
        state = init_delayed_state(np.array([1e308, -1e308]), tau_bar, costs, IDM)
        calls = self.record_maps(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=self.MESSAGE):
            step_delayed(state, DelaySchedule(tau_bar, seed=3).links(state, graph), costs, node_map, IDM, 0.1)
        assert calls == [(IDM, 2)]
        assert state.step == 0 and state.x.tolist() == [1e308, -1e308]
        assert not state.pending.any()

    @pytest.mark.parametrize("node_map", [saturation(1.0, 10.0), sign_power(0.5, 1e-6, 1e3)])
    @pytest.mark.parametrize("tau_bar", [0, 2])
    def test_link_difference_overflow_of_finite_gradients(self, monkeypatch, node_map, tau_bar):
        # f = x^2 / 2, so the gradients are the state: 1e308 - (-1e308) = inf.
        costs, graph = two_node_instance()
        state = init_delayed_state(np.array([1e308, -1e308]), tau_bar, costs, IDM)
        calls = self.record_maps(monkeypatch)
        with np.errstate(over="ignore"), pytest.raises(NumericError, match=self.MESSAGE):
            step_delayed(state, DelaySchedule(tau_bar, seed=3).links(state, graph), costs, node_map, IDM, 0.1)
        assert calls == [(IDM, 2), (node_map, 1)]
        assert state.step == 0 and state.x.tolist() == [1e308, -1e308]
        assert not state.pending.any()

    @staticmethod
    def overflowing_run(node_kind: str, eta: float) -> scenario.ScenarioConfig:
        # One link of weight 1 between f_i = x^2 - 5x agents starting at
        # (0.665..., 1.334...).  Step 0 moves eta * phi across the link, so at
        # step 1 the state is +-eta * phi: finite, but x^2 - 5x is nan on the
        # positive side, so the divergence test (residual > 1e9 * initial)
        # cannot stop the run and the step itself has to raise.
        return scenario.ScenarioConfig(
            n=2, total=2.0, eta=eta, horizon=10, seed=1,
            topology_p=1.0, topology_weight_lo=1.0, topology_weight_hi=1.0,
            costs_kind="quadratic", costs_a_lo=1.0, costs_a_hi=1.0, costs_b_lo=-5.0, costs_b_hi=-5.0,
            costs_penalty="none", init_mode="random_simplex",
            node_kind=node_kind, node_cap=1.0, node_d_max=10.0, node_nu=0.5, link_kind="identity",
        )

    def run_until_raise(self, monkeypatch, cfg):
        steps = []
        real_step = scenario.step_delayed

        def counting(state, *args, **kwargs):
            steps.append(state.step)
            return real_step(state, *args, **kwargs)

        monkeypatch.setattr(scenario, "step_delayed", counting)
        calls = self.record_maps(monkeypatch)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericError, match=self.MESSAGE):
            scenario.run(cfg)
        return steps, calls

    def test_run_raises_on_gradient_overflow(self, monkeypatch):
        # phi = 1.338..., so x = +-1.07e308 at step 1 and 2x overflows.
        steps, calls = self.run_until_raise(monkeypatch, self.overflowing_run("identity", 8e307))
        assert steps == [0, 1]
        assert [kind.kind for kind, _ in calls] == ["identity", "identity", "identity"]
        assert calls[-1][1] == 2

    @pytest.mark.parametrize("node_kind, eta", [("saturation", 8e307), ("sign_power", 4e307)])
    def test_run_raises_on_link_difference_overflow(self, monkeypatch, node_kind, eta):
        # The map caps phi (1 for saturation, 1.157 for the square root), so
        # the gradients +-2x stay finite at step 1 and only their difference
        # overflows.
        steps, calls = self.run_until_raise(monkeypatch, self.overflowing_run(node_kind, eta))
        assert steps == [0, 1]
        assert [(m.kind, size) for m, size in calls] == [
            ("identity", 2), (node_kind, 1), ("identity", 2), (node_kind, 1)
        ]
