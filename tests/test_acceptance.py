"""End-to-end acceptance checks for the allocation simulator.

Each test prints one PASS/FAIL line with the numbers it measured; run
``pytest -s tests/test_acceptance.py`` to see them all.
"""

import math
import statistics
import time

import numpy as np

from dra_sim import (
    central_solve,
    effective_failure,
    er_threshold,
    erdos_renyi,
    identity_map,
    laplacian,
    log_quantizer,
    mc_union_connectivity,
    min_window,
    saturation,
    sign_power,
    smoothness_bound,
    spectral_summary,
    step_rate_bound,
    step_rate_from_sector,
    verify_sector,
)
from dra_sim.graph import WeightedGraph, union_graph
from dra_sim.scenario import (
    PRESET_NAMES,
    ScenarioConfig,
    apply_key,
    build_instance,
    default_smoothness_domain,
    preset,
    run,
    scaling_benchmark,
    trace_to_csv,
)

SHIPPED_MAPS = [
    identity_map(),
    log_quantizer(0.25),
    log_quantizer(1.0 / 8.0),
    log_quantizer(1.0),
    saturation(1.0, 5.0),
    saturation(2.0, 4.0),
    sign_power(0.5, 1e-6, 1e3),
    sign_power(1.0, 1e-3, 10.0),
]


def report(ok, name, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return ok


def overridden(name, **overrides):
    cfg = preset(name)
    for key, value in overrides.items():
        cfg = apply_key(cfg, key, value)
    return cfg


def gap_tolerance(cfg):
    return 1e-9 * (1.0 + abs(cfg.total)) * math.log2(cfg.n + 1)


def static_er_config(**over):
    base = dict(n=50, total=100.0, eta=0.01, horizon=100_000, seed=7,
                early_stop_spread=1e-6, topology_kind="er", topology_p=0.2,
                costs_kind="quadratic", costs_a_lo=0.4, costs_a_hi=1.2,
                costs_penalty="none", node_kind="identity", link_kind="identity")
    base.update(over)
    return ScenarioConfig(**base)


class TestAcceptance:
    def test_all_time_feasibility(self):
        start = time.perf_counter()
        configs = [overridden(name, seed=s) for name in PRESET_NAMES for s in range(20)]
        extremes = [("fig_fail", {"adversity.p_fail": 0.92}),
                    ("fig_delay", {"adversity.tau_bar": 6}),
                    ("dispatch_adversity",
                     {"adversity.p_fail": 0.92, "adversity.tau_bar": 6})]
        for name, over in extremes:
            configs += [overridden(name, seed=s, **over) for s in range(5)]
        worst = 0.0
        clean = True
        for cfg in configs:
            summary = run(cfg).summary
            clean &= not summary.diverged
            worst = max(worst, summary.max_feasibility_gap / gap_tolerance(cfg))
        elapsed = time.perf_counter() - start
        ok = clean and worst <= 1.0 and elapsed < 120.0
        assert report(ok, "all-time feasibility",
                      f"{len(configs)} runs, worst gap at {worst:.2e} of "
                      f"tolerance, {elapsed:.1f}s")

    def test_static_network_matches_oracle(self):
        start = time.perf_counter()
        cfg = static_er_config()
        graphs, costs, node_map, link_map = build_instance(cfg)
        spec = spectral_summary(laplacian(graphs[0]))
        u = smoothness_bound(costs, default_smoothness_domain(cfg)).u
        bound = step_rate_bound(node_map, link_map, spec.lambda2,
                                spec.lambda_max, u)
        res = run(apply_key(cfg, "eta", 0.5 * bound.eta_max))
        oracle = central_solve(costs, cfg.total)
        gap = float(np.max(np.abs(res.final_state - np.asarray(oracle.x))))
        s = res.summary
        elapsed = time.perf_counter() - start
        ok = (gap <= 1e-4 and s.final_spread <= 1e-6
              and s.executed_steps <= 100_000 and elapsed < 30.0)
        assert report(ok, "static run vs oracle",
                      f"gap {gap:.2e}, spread {s.final_spread:.2e}, "
                      f"{s.executed_steps} steps, {elapsed:.1f}s")

    def test_percolation_constants(self):
        profile = er_threshold(50, 0.2)
        p_c = profile.threshold
        probs = (0.5, 0.7, 0.85, 0.92)
        windows = tuple(min_window(p, p_c) for p in probs)
        inequalities = True
        for p, t in zip(probs, windows):
            inequalities &= effective_failure(p, t) < p_c
            if t > 0:
                inequalities &= effective_failure(p, t - 1) >= p_c
        # Larger windows than the minimum still satisfy the sufficient
        # condition; the two commonly quoted conservative choices do too.
        conservative = (effective_failure(0.85, 2) < p_c
                        and effective_failure(0.92, 4) < p_c)
        ok = (abs(p_c - 0.79592) <= 1e-5
              and windows == (0, 0, 1, 2)
              and inequalities and conservative)
        assert report(ok, "percolation constants",
                      f"p_c {p_c:.6f}, windows {windows} (a stated table "
                      f"gives 1 at p=0.7 where the direct scan gives 0 since "
                      f"0.7 is already below p_c)")

    def test_union_connectivity_monte_carlo(self):
        start = time.perf_counter()
        base = erdos_renyi(50, 0.2, (0.5, 1.0), seed=1)
        results = [mc_union_connectivity(base, 0.85, t, trials=500, seed=0)
                   for t in range(6)]
        fractions = [r.fraction for r in results]
        monotone = all(a <= b for a, b in zip(fractions, fractions[1:]))
        disjoint = results[0].wilson_high < results[4].wilson_low
        elapsed = time.perf_counter() - start
        ok = monotone and fractions[4] >= 0.90 and disjoint and elapsed < 60.0
        assert report(ok, "union connectivity Monte Carlo",
                      f"fractions {fractions}, {elapsed:.1f}s")

    def test_failure_rate_slows_but_converges(self):
        start = time.perf_counter()
        medians = []
        all_reached = True
        for p_fail in (0.0, 0.5, 0.7, 0.85, 0.92):
            steps = []
            for seed in range(10):
                cfg = overridden("fig_fail", seed=seed,
                                 **{"adversity.p_fail": p_fail})
                s = run(cfg).summary
                all_reached &= s.steps_to_threshold >= 0 and not s.diverged
                steps.append(s.steps_to_threshold)
            medians.append(statistics.median(steps))
        monotone = all(a <= b for a, b in zip(medians, medians[1:]))
        elapsed = time.perf_counter() - start
        ok = all_reached and monotone and elapsed < 180.0
        assert report(ok, "link-failure ordering",
                      f"median steps to 1% residual {medians}, {elapsed:.1f}s")

    def test_delay_budget_tradeoff(self):
        start = time.perf_counter()
        cfg = preset("fig_delay")
        graphs, costs, node_map, link_map = build_instance(cfg)
        spec = spectral_summary(laplacian(union_graph(graphs)))
        u = smoothness_bound(costs, default_smoothness_domain(cfg)).u
        kn, bn = node_map.kappa, node_map.big_k
        kl, bl = link_map.kappa, link_map.big_k
        rates = [step_rate_from_sector(kn, bn, kl, bl, spec.lambda2,
                                       spec.lambda_max, u, window=cfg.window,
                                       tau_bar=t)
                 for t in range(11)]
        strictly_decreasing = all(a > b for a, b in zip(rates, rates[1:]))

        def converges(eta, tau_bar):
            s = run(overridden("fig_delay", eta=eta,
                               **{"adversity.tau_bar": tau_bar})).summary
            return not s.diverged and s.steps_to_threshold >= 0

        eta_split = next((eta for eta in (2.0, 1.5, 1.2, 1.0, 0.8, 0.6, 0.4)
                          if converges(eta, 2) and not converges(eta, 6)), None)
        eta_all = None
        if eta_split is not None:
            eta_all = next((eta_split / d for d in (2.0, 4.0, 8.0, 16.0)
                            if all(converges(eta_split / d, t) for t in (2, 4, 6))),
                           None)
        pair = (converges(2.0, 2) and not converges(2.0, 6),
                all(converges(0.5, t) for t in (2, 4, 6)))
        elapsed = time.perf_counter() - start
        ok = (strictly_decreasing and eta_split is not None
              and eta_all is not None and elapsed < 180.0)
        assert report(ok, "delay trade-off",
                      f"certified rate falls {rates[0]:.3f} -> {rates[10]:.3f} "
                      f"over delay caps 0..10; eta {eta_split} splits caps 2 "
                      f"and 6, eta {eta_all} converges for all; quoted pair "
                      f"(2.0, 0.5) reproduces as {pair}, {elapsed:.1f}s")

    def test_sector_certificates(self):
        violations = sum(verify_sector(m, samples=100_000, seed=9).violations
                         for m in SHIPPED_MAPS)
        quantizer = log_quantizer(1.0 / 8.0)
        exact = (quantizer.kappa, quantizer.big_k)
        first = (1.0 - 1.0 / 16.0, 1.0 + 1.0 / 16.0)
        ok = (violations == 0
              and (round(exact[0], 4), round(exact[1], 4)) == (0.9394, 1.0645)
              and (round(first[0], 3), round(first[1], 3)) == (0.938, 1.062))
        assert report(ok, "sector certificates",
                      f"0 violations in {len(SHIPPED_MAPS)}x100000 samples; "
                      f"exact pair ({exact[0]:.4f}, {exact[1]:.4f}) vs "
                      f"first-order ({first[0]:.4f}, {first[1]:.4f}), which "
                      f"rounds to (0.938, 1.062)")

    def test_dispatch_reaches_oracle(self):
        start = time.perf_counter()
        uniform = run(preset("dispatch_uniform"))
        uniform_err = float(np.max(np.abs(uniform.final_state - 60.0)))
        hetero = run(preset("dispatch"))
        _, costs, _, _ = build_instance(preset("dispatch"))
        oracle = central_solve(costs, 600.0)
        hetero_err = float(np.max(np.abs(hetero.final_state
                                         - np.asarray(oracle.x))))
        feas = max(uniform.summary.max_feasibility_gap,
                   hetero.summary.max_feasibility_gap)
        elapsed = time.perf_counter() - start
        ok = (uniform_err <= 0.01 and hetero_err <= 0.1
              and feas <= 1e-9 * 601.0 and elapsed < 10.0)
        assert report(ok, "dispatch correctness",
                      f"uniform within {uniform_err:.2e} of 60, heterogeneous "
                      f"within {hetero_err:.2e} of oracle, feasibility "
                      f"{feas:.2e}, {elapsed:.1f}s")

    def test_spectral_toolkit_identities(self, hop_diameter):
        rng = np.random.default_rng(17)
        identities = True
        for _ in range(1000):
            n = int(rng.integers(4, 28))
            g = erdos_renyi(n, float(rng.uniform(0.3, 0.9)), (0.5, 1.5),
                            seed=int(rng.integers(1 << 30)))
            lap = laplacian(g)
            spec = spectral_summary(lap)
            if not spec.connected:
                continue
            x = rng.normal(size=n)
            centered = x - x.mean()
            quad = float(x @ lap @ x)
            quad_centered = float(centered @ lap @ centered)
            norm = float(centered @ centered)
            slack = 1e-9 * max(1.0, abs(quad))
            identities &= spec.lambda2 * norm <= quad + slack
            identities &= quad <= spec.lambda_max * norm + slack
            identities &= abs(quad - quad_centered) <= slack
        diam_bound = True
        for _ in range(200):
            n = int(rng.integers(4, 24))
            g = erdos_renyi(n, float(rng.uniform(0.4, 0.9)), (1.0, 1.5),
                            seed=int(rng.integers(1 << 30)))
            spec = spectral_summary(laplacian(g))
            if not spec.connected:
                continue
            diam_bound &= spec.lambda2 >= 1.0 / (n * hop_diameter(g)) - 1e-12
        monotone = True
        for _ in range(200):
            n = int(rng.integers(4, 20))
            g = erdos_renyi(n, 0.5, (0.5, 1.5), seed=int(rng.integers(1 << 30)))
            w = g.weights.copy()
            free = [(i, j) for i in range(n) for j in range(i + 1, n)
                    if w[i, j] == 0.0]
            if not free:
                continue
            i, j = free[int(rng.integers(len(free)))]
            w[i, j] = w[j, i] = 1.0
            before = spectral_summary(laplacian(g)).lambda2
            after = spectral_summary(laplacian(WeightedGraph(n, w))).lambda2
            monotone &= after >= before - 1e-12
        ok = identities and diam_bound and monotone
        assert report(ok, "spectral toolkit",
                      "two-sided quadratic bound, centering identity, "
                      "diameter lower bound, link-addition monotonicity")

    def test_per_step_cost_scaling(self):
        start = time.perf_counter()
        result = scaling_benchmark((50, 100, 200, 400), steps=200, seed=0)
        elapsed = time.perf_counter() - start
        ok = 1.6 <= result.slope <= 2.4 and elapsed < 120.0
        assert report(ok, "per-step scaling",
                      f"log-log slope {result.slope:.3f}, {elapsed:.1f}s")

    def test_trace_determinism_every_preset(self):
        mismatched = [name for name in PRESET_NAMES
                      if trace_to_csv(run(preset(name)).trace)
                      != trace_to_csv(run(preset(name)).trace)]
        ok = not mismatched
        assert report(ok, "trace determinism",
                      f"{len(PRESET_NAMES)} presets byte-identical"
                      + (f"; mismatches {mismatched}" if mismatched else ""))
