"""Tests for scenario assembly, presets, the run loop, and the benchmark."""

import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from dra_sim import (
    BoxPenalty,
    ConfigurationError,
    DelaySchedule,
    PRESET_NAMES,
    PRESET_SWEEPS,
    ScenarioConfig,
    SmoothLogPenalty,
    build_instance,
    WeightedGraph,
    erdos_renyi,
    identity_map,
    init_delayed_state,
    laplacian,
    preset,
    quadratic_cost,
    quartic_cost,
    run,
    scaling_benchmark,
    smoothness_bound,
    spectral_summary,
    step_delayed,
    step_rate_bound,
    summary_to_text,
    to_edge_list,
    trace_to_csv,
)
from dra_sim.objective import CostSet
from dra_sim.scenario import (
    _PRESETS, _TAG_FAIL, CONFIG_KEYS, _book_block, _child_seed, apply_key, config_items, parse_config,
)


def small_static_config(**over):
    base = dict(n=10, total=20.0, eta=0.02, horizon=400, seed=3,
                topology_kind="er", topology_p=0.5,
                costs_kind="quadratic", costs_a_lo=0.4, costs_a_hi=1.2,
                costs_penalty="none", node_kind="identity", link_kind="identity")
    base.update(over)
    return ScenarioConfig(**base)


def exact_sum(values: list[float]) -> float:
    """fsum of finite values where it returns, else their exact sum correctly rounded, +-inf past the double range."""
    try:
        return math.fsum(values)
    except OverflowError:
        exact = sum(map(Fraction, values))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


# One out-of-range value for every config key that has a rule.
OUT_OF_RANGE = {
    "n": 1,
    "seed": 2**32,
    "b": math.inf,
    "eta": 0.0,
    "horizon": 0,
    "record_stride": 0,
    "early_stop": -1e-3,
    "window": -1,
    "topology.kind": "torus",
    "topology.p": 1.5,
    "topology.cycle_ps": (0.5, 1.5),
    "topology.switch_period": 0,
    "topology.weight_lo": -1.0,
    "topology.weight_hi": 0.0,
    "costs.kind": "cubic",
    "costs.scale_lo": -0.5,
    "costs.scale_hi": 0.0,
    "costs.target_lo": math.nan,
    "costs.target_hi": -math.inf,
    "costs.a_lo": 0.0,
    "costs.a_hi": -1.0,
    "costs.b_lo": math.inf,
    "costs.b_hi": math.nan,
    "costs.c": math.inf,
    "costs.penalty": "l1",
    "costs.box_lo": -math.inf,
    "costs.box_hi": math.nan,
    "costs.penalty_weight": 0.0,
    "costs.penalty_exponent": 1,
    "costs.penalty_sharpness": -2.0,
    "maps.node.kind": "cubic",
    "maps.node.rho": 0.0,
    "maps.node.cap": -1.0,
    "maps.node.d_min": 0.0,
    "maps.node.d_max": math.inf,
    "maps.node.nu": 1.5,
    "maps.link.kind": "tanh",
    "maps.link.rho": -0.125,
    "maps.link.cap": 0.0,
    "maps.link.d_min": -1e-6,
    "maps.link.d_max": math.nan,
    "maps.link.nu": 0.0,
    "adversity.p_fail": 1.5,
    "adversity.tau_bar": -1,
    "adversity.delay_mode": "gaussian",
    "adversity.seed": -2,
    "init.mode": "zero",
}

# For every cross-key rule, a config that breaks only that rule (on top of
# small_static_config, which has costs.penalty = none).
CROSS_KEY_VIOLATIONS = {
    "topology.weight_lo": dict(topology_weight_lo=2.0, topology_weight_hi=1.0),
    "topology.cycle_ps": dict(topology_kind="cycle"),
    "topology.edges_file": dict(topology_kind="edges"),
    "costs.csv": dict(costs_kind="csv"),
    "costs.box_lo": dict(costs_penalty="box", costs_box_lo=5.0, costs_box_hi=5.0),
    "maps.node.cap": dict(node_kind="saturation", node_cap=5.0, node_d_max=1.0),
    "maps.link.cap": dict(link_kind="saturation", link_cap=2.0, link_d_max=2.0),
    "maps.node.d_min": dict(node_kind="sign_power", node_d_min=2.0, node_d_max=1.0),
    "maps.link.d_min": dict(link_kind="sign_power", link_d_min=3.0, link_d_max=1.0),
    "init.respect_boxes": dict(init_respect_boxes=True),
    "costs.penalty_weight": dict(costs_penalty_weight=1e308),
}


class TestScenarioConfig:
    def test_table_covers_every_rule(self):
        ruled = {key for key, spec in CONFIG_KEYS.items() if spec.valid is not None}
        assert set(OUT_OF_RANGE) == ruled

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_static_config(eta=0.0)
        with pytest.raises(ConfigurationError):
            small_static_config(horizon=0)
        with pytest.raises(ConfigurationError):
            small_static_config(p_fail=1.5)
        with pytest.raises(ConfigurationError):
            small_static_config(tau_bar=-1)
        with pytest.raises(ConfigurationError):
            small_static_config(record_stride=0)
        with pytest.raises(ConfigurationError):
            small_static_config(topology_kind="torus")
        with pytest.raises(ConfigurationError):
            small_static_config(n=1)

    @pytest.mark.parametrize("key", sorted(OUT_OF_RANGE))
    def test_validation_per_key(self, key):
        # Direct construction runs the same rule as a config file or --set.
        attr = CONFIG_KEYS[key].attr
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be "):
            ScenarioConfig(**{attr: OUT_OF_RANGE[key]})

    def test_cross_key_table_covers_every_rule(self):
        ruled = {key for key, spec in CONFIG_KEYS.items() if spec.cross_valid is not None}
        assert set(CROSS_KEY_VIOLATIONS) == ruled

    @pytest.mark.parametrize("key", sorted(CROSS_KEY_VIOLATIONS))
    def test_cross_key_rule_checked_before_build(self, key):
        # Construction accepts the config; building it names the key.
        cfg = small_static_config(**CROSS_KEY_VIOLATIONS[key])
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be "):
            build_instance(cfg)
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be "):
            run(cfg)

    def test_apply_key_returns_new_config(self):
        cfg = preset("fig_dyn")
        cfg2 = apply_key(cfg, "eta", 0.25)
        assert cfg2.eta == 0.25
        assert cfg.eta == 0.1

    def test_apply_key_unknown_key(self):
        with pytest.raises(ConfigurationError, match="nonexistent.key"):
            apply_key(preset("fig_dyn"), "nonexistent.key", 1)

    def test_apply_key_range_check_names_key(self):
        with pytest.raises(ConfigurationError, match="adversity.p_fail"):
            apply_key(preset("fig_dyn"), "adversity.p_fail", 1.5)

    @pytest.mark.parametrize("key, bad", [
        ("seed", -7), ("seed", 2**32), ("seed", 6 + 2**32),
        ("adversity.seed", -2), ("adversity.seed", 2**32),
    ])
    def test_seeds_outside_32_bits_rejected(self, key, bad):
        # Seeds keep only their low 32 bits, so a wider one would alias a
        # narrower one: 6 + 2**32 would replay seed 6, and -1 seed 2**32 - 1.
        with pytest.raises(ConfigurationError, match=rf"^{re.escape(key)} must be .*2\*\*32"):
            apply_key(preset("fig_delay"), key, bad)
        with pytest.raises(ConfigurationError, match=rf"^line 1: {re.escape(key)} must be "):
            parse_config(f"{key} = {bad}\n")

    def test_seed_range_ends_accepted(self):
        cfg = apply_key(preset("fig_delay"), "seed", 2**32 - 1)
        assert apply_key(cfg, "adversity.seed", 0).adversity_seed == 0
        assert apply_key(cfg, "adversity.seed", -1).adversity_seed == -1
        assert apply_key(cfg, "seed", 0).seed == 0

    def test_config_items_cover_every_field(self):
        cfg = preset("dispatch_adversity")
        keys = {k for k, _ in config_items(cfg)}
        assert len(keys) == len(dataclasses.fields(ScenarioConfig))

    def test_items_round_trip_through_apply_key(self):
        cfg = preset("dispatch_adversity")
        rebuilt = preset("fig_dyn")
        for key, value in config_items(cfg):
            rebuilt = apply_key(rebuilt, key, value)
        assert rebuilt == cfg


class TestPresets:
    def test_names_and_unknown(self):
        assert set(PRESET_NAMES) == {
            "fig_dyn", "fig_dyn_logpenalty", "fig_fail", "fig_delay",
            "dispatch", "dispatch_uniform", "dispatch_adversity",
        }
        with pytest.raises(ConfigurationError, match="fig_dyn"):
            preset("fig_unknown")

    def test_table_states_only_differences_from_defaults(self):
        defaults = ScenarioConfig()
        for name, values in _PRESETS.items():
            for key, value in values.items():
                assert key in CONFIG_KEYS, (name, key)
                assert value != getattr(defaults, CONFIG_KEYS[key].attr), (name, key)

    def test_fig_dyn_parameters(self):
        cfg = preset("fig_dyn")
        assert (cfg.n, cfg.total, cfg.eta, cfg.horizon) == (50, 200.0, 0.1, 3000)
        assert cfg.topology_kind == "cycle"
        assert cfg.topology_cycle_ps == (0.2, 0.1, 0.05, 0.01)
        assert cfg.topology_switch_period == 25
        assert cfg.node_kind == "log_quantizer"
        assert cfg.node_rho == 1.0 / 1024.0
        assert cfg.link_kind == "log_quantizer"
        assert cfg.link_rho == 1.0 / 8.0
        assert cfg.costs_kind == "quartic"
        assert cfg.costs_penalty == "box"
        assert (cfg.costs_box_lo, cfg.costs_box_hi) == (1.0, 10.0)
        assert cfg.costs_penalty_weight == 20.0

    def test_fig_dyn_cost_draws_within_declared_ranges(self):
        _, costs, _, _ = build_instance(preset("fig_dyn"))
        assert all(c.kind == "quartic" for c in costs)
        assert all(0.0 < c.p1 <= 0.02 for c in costs)
        assert all(0.0 < c.p2 <= 2.0 for c in costs)
        assert all(isinstance(c.penalty, BoxPenalty) for c in costs)

    def test_fig_dyn_logpenalty_sharpness(self):
        _, costs, _, _ = build_instance(preset("fig_dyn_logpenalty"))
        assert all(isinstance(c.penalty, SmoothLogPenalty) for c in costs)
        assert costs[0].penalty.sharpness == 5.0

    def test_fig_fail_parameters(self):
        cfg = preset("fig_fail")
        assert (cfg.eta, cfg.horizon, cfg.p_fail, cfg.window) == (0.2, 5000, 0.5, 4)
        assert cfg.node_kind == "identity" and cfg.link_kind == "identity"
        assert PRESET_SWEEPS["fig_fail"]["adversity.p_fail"] == (0.5, 0.7, 0.85, 0.92)

    def test_fig_delay_parameters(self):
        cfg = preset("fig_delay")
        assert (cfg.eta, cfg.tau_bar) == (0.5, 2)
        assert cfg.link_kind == "log_quantizer" and cfg.link_rho == 1.0 / 8.0
        assert PRESET_SWEEPS["fig_delay"]["adversity.tau_bar"] == (2, 4, 6)
        assert PRESET_SWEEPS["fig_delay"]["eta"] == (2.0, 0.5)

    def test_dispatch_parameters(self):
        cfg = preset("dispatch")
        assert (cfg.n, cfg.total) == (10, 600.0)
        assert (cfg.costs_box_lo, cfg.costs_box_hi) == (20.0, 110.0)
        assert cfg.costs_penalty_weight == 40.0
        assert cfg.costs_kind == "quadratic"

    def test_dispatch_uniform_is_symmetric(self):
        _, costs, _, _ = build_instance(preset("dispatch_uniform"))
        assert {(c.p1, c.p2) for c in costs} == {(0.4, 4.0)}

    def test_dispatch_adversity_parameters(self):
        cfg = preset("dispatch_adversity")
        assert (cfg.p_fail, cfg.tau_bar) == (0.5, 3)
        assert cfg.node_kind == "sign_power"
        assert cfg.link_kind == "log_quantizer"
        assert cfg.link_rho == 1.0 / 256.0


class TestBuildInstance:
    def test_er_topology_is_single_phase(self):
        graphs, costs, node_map, link_map = build_instance(small_static_config())
        assert len(graphs) == 1
        assert len(costs) == 10
        assert node_map.kind == "identity"

    def test_cycle_topology_has_one_graph_per_probability(self):
        graphs, _, _, _ = build_instance(preset("fig_dyn"))
        assert len(graphs) == 4
        counts = [g.edge_count for g in graphs]
        # denser phases first, matching the configured probability cycle
        assert counts[0] > counts[1] > counts[2] > counts[3]

    def test_explicit_edge_list_topology(self, tmp_path):
        g = erdos_renyi(10, 0.6, (0.5, 1.0), seed=2)
        path = tmp_path / "net.edges"
        path.write_text(to_edge_list(g))
        cfg = small_static_config(topology_kind="edges",
                                  topology_edges_file=str(path))
        graphs, _, _, _ = build_instance(cfg)
        assert len(graphs) == 1
        assert np.array_equal(graphs[0].weights, g.weights)

    def test_edges_kind_requires_file(self):
        cfg = small_static_config(topology_kind="edges")
        with pytest.raises(ConfigurationError):
            build_instance(cfg)

    def test_costs_from_csv(self, tmp_path):
        path = tmp_path / "costs.csv"
        rows = ["i,kind,p1,p2,p3,lo,hi"]
        rows += [f"{i},quadratic,{0.5 + 0.1 * i},1.0,0,," for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        cfg = small_static_config(costs_kind="csv", costs_csv=str(path))
        _, costs, _, _ = build_instance(cfg)
        assert costs[3].p1 == 0.8

    def test_cost_table_rows_unpenalized_when_penalty_is_none(self, tmp_path):
        path = tmp_path / "costs.csv"
        rows = ["i,kind,p1,p2,p3,lo,hi"] + [f"{i},quadratic,1.0,0,0,0,5" for i in range(10)]
        path.write_text("\n".join(rows) + "\n")
        cfg = small_static_config(costs_kind="csv", costs_csv=str(path), costs_penalty="none")
        _, costs, _, _ = build_instance(cfg)
        assert all(c.penalty is None for c in costs)

    def test_seed_controls_topology(self):
        a, _, _, _ = build_instance(small_static_config(seed=1))
        b, _, _, _ = build_instance(small_static_config(seed=1))
        c, _, _, _ = build_instance(small_static_config(seed=2))
        assert np.array_equal(a[0].weights, b[0].weights)
        assert not np.array_equal(a[0].weights, c[0].weights)


def masked_step(graph, keep=None):
    """One delay-free step from x = (0, 1, ..., n-1) with only the links in ``keep`` up."""
    costs = [quadratic_cost(0.5)] * graph.n
    idm = identity_map()
    state = init_delayed_state(np.arange(graph.n, dtype=float), 0, costs, idm)
    return step_delayed(state, DelaySchedule(0).links(state, graph, keep), costs, idm, idm, 0.1).x


class TestFailureMask:
    """The run's failure draw: one uniform per link, the link up if it is >= p_fail."""

    def test_no_failures_identity(self):
        g = erdos_renyi(20, 0.4, (0.5, 1.0), seed=5)
        keep = np.random.default_rng(0).random(g.edge_count) >= 0.0
        assert masked_step(g, keep).tobytes() == masked_step(g).tobytes()

    def test_full_failure_edgeless(self):
        g = erdos_renyi(20, 0.4, (0.5, 1.0), seed=5)
        keep = np.random.default_rng(0).random(g.edge_count) >= 1.0
        assert not keep.any()
        assert masked_step(g, keep).tolist() == list(range(20))

    def test_retention_within_four_sigma(self):
        cfg = small_static_config(n=50, topology_p=0.2, p_fail=0.5, early_stop_spread=0.0, seed=1)
        m = build_instance(cfg)[0][0].edge_count
        draws = 10_000 // m + 1
        res = run(dataclasses.replace(cfg, horizon=draws))
        # Record k counts the links up at step k; the last repeats step draws - 1.
        assert len(res.trace) == draws + 1
        kept = sum(r.active_links for r in res.trace[:-1])
        mean = draws * m * 0.5
        sd = math.sqrt(draws * m * 0.25)
        assert abs(kept - mean) <= 4.0 * sd

    def test_blocks_give_the_bits_of_one_draw_per_step(self, monkeypatch):
        # Three 7-step phases of different link counts, the last one cut by
        # the horizon.  At the default block each phase is one draw; at a block
        # of the densest phase's link count, that phase draws one row at a time
        # and the sparsest splits its steps over several draws.
        cfg = small_static_config(
            topology_kind="cycle", topology_cycle_ps=(0.9, 0.5, 0.2), topology_switch_period=7,
            horizon=40, p_fail=0.6, early_stop_spread=0.0,
        )
        ms = [g.edge_count for g in build_instance(cfg)[0]]
        assert len(set(ms)) == 3 and max(ms) // min(ms) > 1
        adv_seed = cfg.seed  # adversity.seed = -1 draws from the scenario seed
        rng = np.random.default_rng([_child_seed(adv_seed, _TAG_FAIL), 0xFA11])
        want = [int(np.count_nonzero(rng.random(ms[(k // 7) % 3]) >= cfg.p_fail)) for k in range(cfg.horizon)]
        default = run(cfg)
        monkeypatch.setattr("dra_sim.dynamics._BLOCK", max(ms))
        small = run(cfg)
        for res in (default, small):
            assert res.summary.executed_steps == cfg.horizon
            assert [r.active_links for r in res.trace[:-1]] == want
        assert small.final_state.tobytes() == default.final_state.tobytes()

    def test_survivor_weights_unchanged(self):
        # A kept link carries its own weight: the masked step equals the step
        # on the graph of the kept links.
        g = erdos_renyi(15, 0.5, (0.5, 1.0), seed=8)
        keep = np.random.default_rng(7).random(g.edge_count) >= 0.3
        survivors = WeightedGraph.from_edges(15, *(a[keep] for a in g.edges()))
        assert masked_step(g, keep).tobytes() == masked_step(survivors).tobytes()

    def test_rejects_bad_probability(self):
        with pytest.raises(ConfigurationError, match="adversity.p_fail"):
            small_static_config(p_fail=-0.1)


class TestRun:
    @pytest.mark.parametrize("cfg", [dataclasses.replace(preset("fig_dyn"), horizon=50),
                                     dataclasses.replace(preset("fig_delay"), eta=8.0, horizon=400, p_fail=0.3)],
                             ids=["converges", "diverges"])
    def test_builds_one_cost_set(self, cfg, monkeypatch):
        # The oracle, the run and, on divergence, the certificate share the
        # run's CostSet, where each once built its own.
        built = []
        init = CostSet.__init__

        def counting(self, costs):
            built.append(len(costs))
            init(self, costs)

        monkeypatch.setattr(CostSet, "__init__", counting)
        result = run(cfg)
        assert built == [cfg.n] and (result.summary.eta_bound_ratio is not None) == result.summary.diverged

    def test_deterministic_traces(self):
        cfg = small_static_config(horizon=150, p_fail=0.3, tau_bar=2)
        a = run(cfg)
        b = run(cfg)
        assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
        assert np.array_equal(a.final_state, b.final_state)

    def test_full_failure_freezes_states(self):
        cfg = small_static_config(horizon=60, p_fail=1.0)
        res = run(cfg)
        assert np.all(res.final_state == 2.0)
        residuals = {r.residual for r in res.trace}
        assert len(residuals) == 1
        assert all(r.active_links == 0 for r in res.trace)

    def test_fig_dyn_state_mean_constant(self):
        cfg = apply_key(preset("fig_dyn"), "horizon", 200)
        res = run(cfg)
        for rec in res.trace:
            assert rec.state_mean == pytest.approx(4.0, abs=1e-9)
        assert res.summary.final_residual < res.summary.initial_residual

    def test_feasibility_gap_within_tolerance_on_recorded_steps(self):
        cfg = small_static_config(horizon=300, p_fail=0.4, tau_bar=3, seed=9)
        res = run(cfg)
        tol = 1e-9 * (1.0 + abs(cfg.total)) * math.log2(cfg.n + 1)
        assert res.summary.max_feasibility_gap <= tol
        assert all(r.feasibility_gap <= tol for r in res.trace)

    def test_early_stop_at_equilibrium(self):
        # Identical costs from an equal split start exactly at equilibrium.
        cfg = small_static_config(costs_a_lo=1.0, costs_a_hi=1.0, horizon=500)
        res = run(cfg)
        assert res.summary.early_stopped
        assert res.summary.executed_steps == 0
        assert not res.summary.diverged

    def test_record_stride_and_terminal_record(self):
        cfg = small_static_config(horizon=100, record_stride=10,
                                  early_stop_spread=0.0)
        res = run(cfg)
        ks = [r.step for r in res.trace]
        assert ks == list(range(0, 101, 10))
        cfg2 = small_static_config(horizon=95, record_stride=10,
                                   early_stop_spread=0.0)
        ks2 = [r.step for r in run(cfg2).trace]
        assert ks2 == list(range(0, 95, 10)) + [95]

    def test_memory_follows_the_steps_taken_not_the_horizon(self):
        # fig_fail stops early at the same step whatever its horizon.
        short = run(preset("fig_fail"))
        tracemalloc.start()
        try:
            long = run(dataclasses.replace(preset("fig_fail"), horizon=5_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert short.summary.early_stopped and long.summary.executed_steps == short.summary.executed_steps
        assert summary_to_text(long.summary) == summary_to_text(dataclasses.replace(short.summary, horizon=5_000_000))
        assert trace_to_csv(long.trace) == trace_to_csv(short.trace)
        assert peak <= 20 * 2**20

    @pytest.mark.parametrize("n", [10, 3000])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_block_columns_equal_one_row_blocks(self, n):
        # n = 10 books with one fsum per row, n = 3000 with the batched sum.
        # Beside ordinary states: one with a value past the batched sum's
        # fast path, one whose sum lies past the double range (gap inf),
        # and one whose objective overflows though each cost is finite.
        rng = np.random.default_rng(n)
        cs = CostSet([quartic_cost(0.01, t, BoxPenalty(1.0, 10.0, 20.0, 4)) for t in rng.uniform(0.0, 2.0, n)])
        xs = [rng.uniform(0.0, 12.0, n) for _ in range(4)]
        xs.append(np.concatenate([[2.0**1015], xs[0][1:]]))
        xs.append(np.full(n, 1e308))
        xs.append(np.full(n, (1.5e308 / 20.01) ** 0.25))
        held = [(x, rng.normal(size=n), float(x.min()), float(x.max())) for x in xs]
        total = 4.0 * n
        block = _book_block(cs, held, total)
        assert block.tobytes() == np.concatenate([_book_block(cs, [h], total) for h in held], axis=1).tobytes()
        for x, objective, gap in zip(xs, block[0], block[1]):
            assert objective == exact_sum(cs.value_per_agent(x).tolist())
            assert gap == exact_sum(x.tolist()) - total
        assert block[1, 5] == math.inf and math.isfinite(block[1, 4])
        assert block[0, 6] == math.inf and np.isfinite(cs.value_per_agent(xs[6])).all()

    def test_threshold_and_windows_on_converging_run(self):
        res = run(small_static_config())
        s = res.summary
        assert s.steps_to_threshold is not None
        assert 0 < s.steps_to_threshold <= s.executed_steps
        assert s.final_residual <= 0.01 * s.initial_residual
        assert s.fraction_decreasing_windows >= 0.95
        assert s.eta_bound_ratio is None

    def test_divergence_is_reported_not_raised(self):
        cfg = apply_key(apply_key(preset("fig_delay"), "eta", 2.0),
                        "adversity.tau_bar", 4)
        res = run(cfg)
        s = res.summary
        assert s.diverged
        assert s.diverged_step is not None
        assert s.diverged_step <= s.executed_steps
        assert s.eta_bound_ratio is not None and s.eta_bound_ratio > 1.0

    def test_divergence_on_a_disconnected_union_has_no_ratio(self, tmp_path):
        # Two 5-cliques: the union is disconnected, so no certificate exists.
        w = np.zeros((10, 10))
        w[:5, :5] = w[5:, 5:] = 1.0
        np.fill_diagonal(w, 0.0)
        path = tmp_path / "two.edges"
        path.write_text(to_edge_list(WeightedGraph(10, w)))
        cfg = small_static_config(topology_kind="edges", topology_edges_file=str(path), eta=5.0,
                                  init_mode="random_simplex")
        s = run(cfg).summary
        assert s.diverged and s.eta_bound_ratio is None

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cost_sum_past_the_double_range_is_a_divergence(self):
        # At step 1 every agent's cost is finite but their sum is not.
        cfg = ScenarioConfig(
            n=3, total=29.1, eta=1.778, seed=3, early_stop_spread=0.0, topology_p=1.0,
            costs_kind="quadratic", costs_a_lo=0.5, costs_a_hi=1.5, costs_b_lo=-3.0, costs_b_hi=3.0,
            costs_penalty="box", costs_box_lo=0.0, costs_box_hi=10.0,
            costs_penalty_weight=4e307, costs_penalty_exponent=4,
            node_kind="saturation", node_cap=1.0, node_d_max=10.0,
        )
        res = run(cfg)
        s = res.summary
        assert s.diverged and s.diverged_step == 1
        assert s.final_residual == math.inf
        costs = CostSet(build_instance(cfg)[1])
        assert np.isfinite(res.final_state).all()
        assert np.isfinite(costs.value_per_agent(res.final_state)).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_state_sum_past_the_double_range_is_a_divergence(self):
        # Step 1 lands on finite coordinates near +-1e308 whose running sum
        # overflows; the gap is still their exact sum, correctly rounded.
        cfg = small_static_config(
            n=4, total=0.0, eta=3e307, seed=15, horizon=5, early_stop_spread=0.0, topology_p=1.0,
            costs_a_lo=1.0, costs_a_hi=1.0, costs_b_lo=-3.0, costs_b_hi=3.0,
        )
        res = run(cfg)
        s = res.summary
        assert np.isfinite(res.final_state).all()
        assert s.diverged and s.diverged_step == 1
        assert s.final_residual == math.inf
        gap = exact_sum(res.final_state.tolist())
        assert gap == res.trace[-1].feasibility_gap == -9.9792015476736e291
        assert s.max_feasibility_gap == -gap

    def test_divergence_report_does_not_hide_program_errors(self, monkeypatch):
        # Only the package's own errors mean "no bound exists"; anything
        # else is a fault and must reach the caller.
        def broken(*args, **kwargs):
            raise RuntimeError("spectrum failed")

        monkeypatch.setattr("dra_sim.scenario.spectral_summary", broken)
        cfg = apply_key(apply_key(preset("fig_delay"), "eta", 2.0),
                        "adversity.tau_bar", 4)
        with pytest.raises(RuntimeError, match="spectrum failed"):
            run(cfg)

    def test_mostly_decreasing_windows_at_half_bound(self):
        # Delay-free at eta well below the certified rate: residual windows
        # of length window + 1 decrease nearly always.
        cfg = small_static_config(horizon=600, seed=5)
        graphs, costs, node_map, link_map = build_instance(cfg)
        spec = spectral_summary(laplacian(graphs[0]))
        u = smoothness_bound(costs, (-10.0, 10.0)).u
        bound = step_rate_bound(node_map, link_map, spec.lambda2,
                                spec.lambda_max, u).eta_max
        res = run(apply_key(cfg, "eta", 0.5 * bound))
        assert res.summary.fraction_decreasing_windows >= 0.95

    def test_adversity_seed_isolates_failure_stream(self):
        base = small_static_config(horizon=120, p_fail=0.5)
        a = run(apply_key(base, "adversity.seed", 1))
        b = run(apply_key(base, "adversity.seed", 1))
        c = run(apply_key(base, "adversity.seed", 2))
        assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
        assert trace_to_csv(a.trace) != trace_to_csv(c.trace)

    def test_adversity_seed_inert_without_adversity(self):
        base = small_static_config(horizon=120)
        a = run(apply_key(base, "adversity.seed", 1))
        c = run(apply_key(base, "adversity.seed", 2))
        assert trace_to_csv(a.trace) == trace_to_csv(c.trace)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("rows", [1, 3])
    def test_record_block_size_does_not_change_outputs(self, monkeypatch, rows):
        # fig_delay fills whole blocks; early_stop stops inside a block;
        # diverge stops on a residual, nonfinite on a state of infinities.
        configs = {
            "fig_delay": dataclasses.replace(preset("fig_delay"), horizon=1000),
            "early_stop": dataclasses.replace(preset("dispatch_adversity"), early_stop_spread=0.5, p_fail=0.2),
            "diverge": dataclasses.replace(preset("fig_delay"), eta=8.0, horizon=400, p_fail=0.3),
            "nonfinite": small_static_config(
                n=4, total=0.0, eta=1e308, seed=15, horizon=5, early_stop_spread=0.0, topology_p=1.0,
                costs_a_lo=1.0, costs_a_hi=1.0, costs_b_lo=-3.0, costs_b_hi=3.0,
            ),
        }
        want = {name: run(cfg) for name, cfg in configs.items()}
        assert want["early_stop"].summary.early_stopped and want["diverge"].summary.diverged
        assert len(want["early_stop"].trace) % 64 and len(want["early_stop"].trace) % 3
        assert math.isnan(want["nonfinite"].trace[-1].state_min)
        monkeypatch.setattr("dra_sim.scenario._RECORD_ROWS", rows)
        for name, cfg in configs.items():
            got = run(cfg)
            assert trace_to_csv(got.trace) == trace_to_csv(want[name].trace), name
            assert got.final_state.tobytes() == want[name].final_state.tobytes(), name

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exact_objective_at_every_step_changes_no_output(self, monkeypatch):
        # With the guard's floor at -inf, every step evaluates total_value;
        # the outputs stay those of the loop with its floor.
        configs = [
            dataclasses.replace(preset("fig_dyn_logpenalty"), horizon=300),
            dataclasses.replace(preset("dispatch_adversity"), early_stop_spread=0.5, p_fail=0.2),
            dataclasses.replace(preset("fig_delay"), eta=8.0, horizon=400, p_fail=0.3),
            dataclasses.replace(preset("dispatch"), eta=1.0, horizon=50),
        ]
        want = [run(cfg) for cfg in configs]
        assert want[2].summary.diverged and want[3].summary.diverged
        monkeypatch.setattr("dra_sim.scenario._guard_floor", lambda cs, value, limit: -math.inf)
        for cfg, w in zip(configs, want):
            got = run(cfg)
            assert trace_to_csv(got.trace) == trace_to_csv(w.trace)
            assert summary_to_text(got.summary) == summary_to_text(w.summary)
            assert got.final_state.tobytes() == w.final_state.tobytes()

    def test_dispatch_uniform_reaches_even_split(self):
        res = run(preset("dispatch_uniform"))
        assert np.all(np.abs(res.final_state - 60.0) <= 0.01)


class TestTraceSerialization:
    def test_csv_header_and_shape(self):
        res = run(small_static_config(horizon=50))
        text = trace_to_csv(res.trace)
        lines = text.strip().splitlines()
        assert lines[0] == ("k,residual,feasibility_gap,dispersion,"
                            "state_min,state_max,state_mean,active_links")
        assert len(lines) == len(res.trace) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        # floats print as shortest round-trip decimals
        assert float(first[1]) == res.trace[0].residual

    def test_summary_text_is_flat_key_value(self):
        res = run(small_static_config(horizon=50))
        text = summary_to_text(res.summary)
        lines = [ln for ln in text.strip().splitlines() if ln]
        assert all("=" in ln for ln in lines)
        keys = [ln.split("=")[0] for ln in lines]
        assert "final_residual" in keys
        assert "max_feasibility_gap" in keys
        assert "fraction_decreasing_windows" in keys


class TestScalingBenchmark:
    def test_fields_and_positivity(self):
        r = scaling_benchmark(sizes=(16, 32), steps=30, seed=1)
        assert r.sizes == (16, 32)
        assert len(r.seconds_per_step) == 2
        assert all(t > 0.0 for t in r.seconds_per_step)
        assert math.isfinite(r.slope)

    def test_constant_degree_variant_runs(self):
        r = scaling_benchmark(sizes=(16, 32), steps=30, seed=1,
                              constant_degree=6.0)
        assert all(t > 0.0 for t in r.seconds_per_step)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            scaling_benchmark(sizes=(), steps=30)
        with pytest.raises(ConfigurationError):
            scaling_benchmark(sizes=(16, 32), steps=0)
        with pytest.raises(ConfigurationError):
            scaling_benchmark(sizes=(16, 32), steps=30, density=0.0)
