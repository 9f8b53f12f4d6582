"""Property tests for the invariants that define the simulator.

Each property holds on every instance, not only on the fixed seeds of the
other test modules: random graphs with 2-20 nodes, random failure masks,
symmetric delay schedules with tau_bar 0-4 in all three modes, the shipped
sector maps, and mixed quadratic and quartic costs with no, box or
smooth-log penalty.  The oracle is also checked against the plain
one-multiplier-at-a-time bisection, within bounds that follow from its
tolerance and the curvature, and against its KKT conditions, and the
smoothness bound against a dense sample of the curvature and against its
one-call-per-piece evaluation.
The examples are derandomized (see conftest.py).
"""

import math
import struct
from dataclasses import dataclass, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dra_sim import (
    BoxPenalty,
    ClampCounter,
    CostSet,
    DelaySchedule,
    LocalCost,
    ScenarioConfig,
    SectorMap,
    SmoothLogPenalty,
    WeightedGraph,
    apply_map_array,
    central_solve,
    erdos_renyi,
    feasible_init,
    identity_map,
    InfeasibilityError,
    NumericError,
    init_delayed_state,
    laplacian,
    log_quantizer,
    quadratic_cost,
    quartic_cost,
    run,
    saturation,
    sign_power,
    smoothness_bound,
    spectral_summary,
    step_delay_free,
    step_delayed,
    trace_to_csv,
)
from dra_sim.errors import DomainError
from dra_sim.objective import (
    _BAND_CUTS,
    _EXTRACT_MIN_SIZE,
    SmoothnessEstimate,
    _check_box_total,
    _cubic_root,
    _penalty_power,
    _row_fsums,
)
from dra_sim import dynamics, scenario
from dra_sim.scenario import PRESET_NAMES, build_instance, preset, summary_to_text

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

DELAY_MODES = ("uniform", "fixed", "per_link")
STEPS = 30

seeds = st.integers(0, 2**32 - 1)
maps = st.sampled_from(SHIPPED_MAPS)
failure_rates = st.floats(0.0, 0.95)


@st.composite
def penalties(draw):
    kind = draw(st.sampled_from(("none", "box", "smooth_log")))
    if kind == "none":
        return None
    lo = draw(st.floats(-5.0, 4.0))
    hi = lo + draw(st.floats(0.5, 10.0))
    if kind == "box":
        return BoxPenalty(lo, hi, draw(st.floats(0.5, 40.0)), draw(st.sampled_from((2, 3, 4))))
    return SmoothLogPenalty(lo, hi, draw(st.floats(0.5, 10.0)))


@st.composite
def local_costs(draw) -> LocalCost:
    pen = draw(penalties())
    if draw(st.booleans()):
        return quadratic_cost(
            draw(st.floats(0.1, 2.0)), draw(st.floats(-3.0, 3.0)), draw(st.floats(-1.0, 1.0)), penalty=pen
        )
    return quartic_cost(draw(st.floats(0.001, 0.05)), draw(st.floats(-3.0, 3.0)), penalty=pen)


@dataclass
class Instance:
    graph: WeightedGraph
    costs: list
    node_map: SectorMap
    link_map: SectorMap
    total: float
    x0: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n

    def tolerance(self) -> float:
        return 1e-9 * (1.0 + abs(self.total)) * math.log2(self.n + 1)

    def eta(self, tau_bar: int) -> float:
        """A step rate at which the state stays near x0 for the test horizon."""
        lam_max = spectral_summary(laplacian(self.graph)).lambda_max
        domain = (float(self.x0.min()) - 5.0, float(self.x0.max()) + 5.0)
        curv = smoothness_bound(self.costs, domain).max_curvature
        gain = self.node_map.big_k * self.link_map.big_k
        return 0.5 / ((1.0 + curv) * max(lam_max, 1.0) * gain * (tau_bar + 1))


@st.composite
def instances(draw) -> Instance:
    n = draw(st.integers(2, 20))
    graph = erdos_renyi(n, draw(st.floats(0.0, 1.0)), (0.5, 1.0), seed=draw(seeds))
    costs = draw(st.lists(local_costs(), min_size=n, max_size=n))
    total = draw(st.floats(-50.0, 50.0))
    noise = np.random.default_rng(draw(seeds)).uniform(-5.0, 5.0, n)
    x0 = total / n + (noise - noise.mean())
    x0[-1] = total - math.fsum(x0[:-1].tolist())
    return Instance(graph, costs, draw(maps), draw(maps), total, x0)


@given(instances(), st.integers(0, 4), st.sampled_from(DELAY_MODES), failure_rates, seeds)
@settings(max_examples=60)
def test_total_conserved_at_every_step(inst, tau_bar, mode, p_fail, seed):
    cs = CostSet(inst.costs)
    sched = DelaySchedule(tau_bar, mode, seed=seed)
    state = init_delayed_state(inst.x0, tau_bar, cs, inst.link_map)
    eta = inst.eta(tau_bar)
    m = len(inst.graph.edges()[0])
    rng = np.random.default_rng(seed)
    tol = inst.tolerance()
    for _ in range(STEPS):
        keep = rng.random(m) >= p_fail
        state = step_delayed(state, sched.links(state, inst.graph, keep), cs, inst.node_map, inst.link_map, eta)
        assert abs(math.fsum(state.x.tolist()) - inst.total) <= tol


@given(
    st.floats(1e-3, 10.0),
    st.floats(-1e3, 1e3),
    st.floats(-1e3, 1e3),
    maps,
    maps,
)
@settings(max_examples=200)
def test_edge_flow_antisymmetric(weight, grad_a, grad_b, node_map, link_map):
    # One step from 0 at eta = 1 on a single link puts -phi on node 0 and
    # +phi on node 1, phi being the flow from node 0 to node 1.
    graph = WeightedGraph(2, np.array([[0.0, weight], [weight, 0.0]]))
    costs = [quadratic_cost(0.5)] * 2

    def flows(grads):
        return step_delay_free(np.zeros(2), graph, costs, node_map, link_map, 1.0, grads=np.array(grads))

    forward, backward = flows([grad_a, grad_b]), flows([grad_b, grad_a])
    assert forward[0] == -forward[1]
    assert forward[1] == -backward[1]


@given(instances(), st.sampled_from(DELAY_MODES), failure_rates, seeds)
@settings(max_examples=60)
def test_zero_delay_is_delay_free_bit_for_bit(inst, mode, p_fail, seed):
    cs = CostSet(inst.costs)
    sched = DelaySchedule(0, mode, seed=seed)
    state = init_delayed_state(inst.x0, 0, cs, inst.link_map)
    eta = inst.eta(0)
    m = len(inst.graph.edges()[0])
    rng_keep = np.random.default_rng(seed)
    x = inst.x0.copy()
    counters = [ClampCounter() for _ in range(4)]
    for _ in range(STEPS):
        # The delay-free side steps the subgraph of the links the mask keeps.
        keep = rng_keep.random(m) >= p_fail
        up = WeightedGraph.from_edges(inst.graph.n, *(a[keep] for a in inst.graph.edges()))
        x = step_delay_free(
            x, up, cs, inst.node_map, inst.link_map, eta,
            node_counter=counters[0], link_counter=counters[1],
        )
        state = step_delayed(
            state, sched.links(state, inst.graph, keep), cs, inst.node_map, inst.link_map, eta,
            node_counter=counters[2], link_counter=counters[3],
        )
        assert state.x.tobytes() == x.tobytes()
    assert counters[0].events == counters[2].events
    assert counters[1].events == counters[3].events


def reference_delayed_step(x, pending, k, graph, sched, cs, node_map, link_map, eta, keep):
    """The delayed step with one boolean select per delay value, as a loop."""
    depth = len(pending)
    ei, ej, w = (a[keep] for a in graph.edges())
    gl = apply_map_array(link_map, cs.grad(x))
    phi = w * apply_map_array(node_map, gl[ei] - gl[ej])
    delays = sched.draw(k, ei, ej, graph.edge_count)
    for d in range(depth):
        sel = delays == d
        if sel.any():
            pending[(k + d) % depth].append((ei[sel], ej[sel], phi[sel]))
    chunks, pending[k % depth] = pending[k % depth], []
    if not chunks:  # an empty slot is applied as zeros
        return x + eta * np.zeros(x.size)
    ei, ej, phi = (np.concatenate(part) for part in zip(*chunks))
    return x + eta * (np.bincount(ej, weights=phi, minlength=x.size) - np.bincount(ei, weights=phi, minlength=x.size))


@given(instances(), st.sampled_from((1, 2, 4, 300)), st.sampled_from(DELAY_MODES), failure_rates, seeds)
@settings(max_examples=40)
def test_delay_grouping_matches_per_delay_loop(inst, tau_bar, mode, p_fail, seed):
    cs = CostSet(inst.costs)
    state = init_delayed_state(inst.x0, tau_bar, cs, inst.link_map)
    sched, ref_sched = DelaySchedule(tau_bar, mode, seed=seed), DelaySchedule(tau_bar, mode, seed=seed)
    x, pending = inst.x0.copy(), [[] for _ in range(tau_bar + 1)]
    eta = inst.eta(tau_bar)
    rng = np.random.default_rng(seed)
    for k in range(STEPS):
        keep = rng.random(len(inst.graph.edges()[0])) >= p_fail
        x = reference_delayed_step(x, pending, k, inst.graph, ref_sched, cs, inst.node_map, inst.link_map, eta, keep)
        state = step_delayed(state, sched.links(state, inst.graph, keep), cs, inst.node_map, inst.link_map, eta)
        assert state.x.tobytes() == x.tobytes()
        assert state.pending.tobytes() == np.array([replay_slot(bucket, inst.n) for bucket in pending]).tobytes()


def replay_slot(chunks, n):
    """One ring slot of the reference's queued chunks, summed flow by flow in emission order."""
    arriving, leaving = [0.0] * n, [0.0] * n
    for ei, ej, phi in chunks:
        for i, j, p in zip(ei.tolist(), ej.tolist(), phi.tolist()):
            arriving[j] += p
            leaving[i] += p
    return [arriving, leaving]


@st.composite
def scenario_configs(draw) -> ScenarioConfig:
    map_kinds = st.sampled_from(("identity", "log_quantizer", "saturation", "sign_power"))
    return ScenarioConfig(
        n=draw(st.integers(2, 12)),
        total=draw(st.floats(-50.0, 200.0)),
        eta=draw(st.floats(0.01, 1.0)),
        horizon=draw(st.integers(1, 60)),
        seed=draw(st.integers(0, 10**6)),
        record_stride=draw(st.integers(1, 5)),
        window=draw(st.integers(0, 3)),
        topology_kind=draw(st.sampled_from(("er", "cycle"))),
        topology_p=draw(st.floats(0.0, 1.0)),
        topology_cycle_ps=tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))),
        topology_switch_period=draw(st.integers(1, 10)),
        costs_kind=draw(st.sampled_from(("quartic", "quadratic"))),
        costs_penalty=draw(st.sampled_from(("none", "box", "smooth_log"))),
        node_kind=draw(map_kinds),
        link_kind=draw(map_kinds),
        p_fail=draw(failure_rates),
        tau_bar=draw(st.integers(0, 4)),
        delay_mode=draw(st.sampled_from(DELAY_MODES)),
        init_mode=draw(st.sampled_from(("equal", "random_simplex"))),
    )


@given(scenario_configs())
@settings(max_examples=20)
def test_same_config_gives_same_trace(cfg):
    assert trace_to_csv(run(cfg).trace) == trace_to_csv(run(cfg).trace)


@given(st.lists(local_costs(), min_size=1, max_size=20), st.floats(-50.0, 50.0))
@settings(max_examples=60)
def test_penalized_oracle_meets_kkt(costs, total):
    sol = central_solve(costs, total, tol=1e-9, mode="penalized")
    assert abs(math.fsum(sol.x.tolist()) - total) <= 1e-9
    # Stationarity: every marginal cost equals the shared multiplier.
    grads = CostSet(costs).grad(np.asarray(sol.x))
    assert float(np.max(np.abs(grads - sol.multiplier))) <= 1e-8 * (1.0 + abs(sol.multiplier))


@st.composite
def boxed_problems(draw):
    n = draw(st.integers(1, 20))
    costs = [
        LocalCost(c.kind, c.p1, c.p2, c.p3)
        for c in draw(st.lists(local_costs(), min_size=n, max_size=n))
    ]
    lo = [draw(st.floats(-5.0, 4.0)) for _ in range(n)]
    boxes = [(a, a + draw(st.floats(0.5, 10.0))) for a in lo]
    floor = math.fsum(b[0] for b in boxes)
    ceiling = math.fsum(b[1] for b in boxes)
    total = floor + draw(st.floats(0.01, 0.99)) * (ceiling - floor)
    return costs, boxes, total


@given(boxed_problems())
@settings(max_examples=60)
def test_exact_box_oracle_meets_kkt(problem):
    costs, boxes, total = problem
    sol = central_solve(costs, total, boxes=boxes, tol=1e-9, mode="exact_box")
    assert abs(math.fsum(sol.x.tolist()) - total) <= 1e-9
    x = np.asarray(sol.x)
    lo = np.array([b[0] for b in boxes])
    hi = np.array([b[1] for b in boxes])
    assert np.all((lo <= x) & (x <= hi))
    # Complementary slackness: a coordinate clamped at its floor would
    # rather go lower, one at its ceiling higher, and a free one sits at
    # the multiplier.
    nu = sol.multiplier
    slack = 1e-8 * (1.0 + abs(nu))
    g = CostSet(costs).base_grad(x)
    at_lo, at_hi = x == lo, x == hi
    free = ~(at_lo | at_hi)
    assert np.all(g[at_lo] >= nu - slack)
    assert np.all(g[at_hi] <= nu + slack)
    assert np.all(np.abs(g[free] - nu) <= slack)


# --------------------------------------------------------------------------
# the oracle against the plain bisection
# --------------------------------------------------------------------------


def reference_roots(cs, nu, mode, lo_box, hi_box):
    """Per-agent bisection for f_i'(x_i) = nu, one nu, every inner step taken."""
    grad = cs.grad if mode == "penalized" else cs.base_grad
    center = np.where(cs.quartic, cs.p2, -cs.p2 / (2.0 * cs.p1))
    lo = center - 1.0
    hi = center + 1.0
    span = 1.0
    for _ in range(200):
        bad = grad(hi) < nu
        if not bad.any():
            break
        span *= 2.0
        hi = np.where(bad, center + span, hi)
    else:
        raise NumericError("upper bracket")
    span = 1.0
    for _ in range(200):
        bad = grad(lo) > nu
        if not bad.any():
            break
        span *= 2.0
        lo = np.where(bad, center - span, lo)
    else:
        raise NumericError("lower bracket")
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        below = grad(mid) < nu
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    x = 0.5 * (lo + hi)
    if mode == "exact_box":
        x = np.clip(x, lo_box, hi_box)
    return x


def reference_solve(costs, total, boxes, mode, tol=1e-9):
    """The multiplier bisection one nu at a time: (x, nu, value, gap, iterations)."""
    cs = CostSet(costs)
    if boxes is not None:
        lo_box = np.array([b[0] for b in boxes])
        hi_box = np.array([b[1] for b in boxes])
    else:
        lo_box = np.where(cs.pen_kind > 0, cs.pen_lo, -np.inf)
        hi_box = np.where(cs.pen_kind > 0, cs.pen_hi, np.inf)
    if mode == "exact_box":
        if np.isfinite(lo_box).all() and total < float(lo_box.sum()) - tol:
            raise InfeasibilityError("below the box floor")
        if np.isfinite(hi_box).all() and total > float(hi_box.sum()) + tol:
            raise InfeasibilityError("above the box ceiling")

    def aggregate(nu):
        return math.fsum(reference_roots(cs, nu, mode, lo_box, hi_box).tolist())

    nu_lo, nu_hi, span = -1.0, 1.0, 1.0
    for _ in range(200):
        if aggregate(nu_hi) >= total:
            break
        span *= 2.0
        nu_hi = span
    else:
        raise InfeasibilityError("from below")
    span = 1.0
    for _ in range(200):
        if aggregate(nu_lo) <= total:
            break
        span *= 2.0
        nu_lo = -span
    else:
        raise InfeasibilityError("from above")
    for iterations in range(1, 321):
        nu = 0.5 * (nu_lo + nu_hi)
        s = aggregate(nu)
        if abs(s - total) <= tol:
            break
        if s < total:
            nu_lo = nu
        else:
            nu_hi = nu
    else:
        raise NumericError("multiplier bisection")
    x = reference_roots(cs, nu, mode, lo_box, hi_box)
    gap = abs(math.fsum(x.tolist()) - total)
    value = cs.total_value(x) if mode == "penalized" else math.fsum(cs.base_value(x).tolist())
    return x, nu, value, gap, iterations


@st.composite
def cost_lists(draw, max_size):
    """Up to ``max_size`` costs: a few drawn ones, repeated to the drawn length."""
    base = draw(st.lists(local_costs(), min_size=1, max_size=8))
    n = draw(st.integers(1, max_size))
    return [base[i % len(base)] for i in range(n)]


def loop_costset(costs) -> dict:
    """Every attribute of ``CostSet(costs)`` as a loop over the costs sets it, item by item."""
    n = len(costs)
    kind, lo, hi = np.zeros(n, dtype=int), np.full(n, -np.inf), np.full(n, np.inf)
    wt, ex, mu = np.zeros(n), np.full(n, 2, dtype=int), np.ones(n)
    for idx, c in enumerate(costs):
        if (pen := c.penalty) is not None:
            lo[idx], hi[idx] = pen.lo, pen.hi
            if isinstance(pen, BoxPenalty):
                kind[idx], wt[idx], ex[idx] = 1, pen.weight, pen.exponent
            else:
                kind[idx], mu[idx] = 2, pen.sharpness
    quartic, p1 = np.array([c.kind == "quartic" for c in costs]), np.array([c.p1 for c in costs])
    box, log = kind == 1, kind == 2
    return {
        "n": n, "_shape": (n,), "quartic": quartic, "p1": p1,
        "p2": np.array([c.p2 for c in costs]), "p3": np.array([c.p3 for c in costs]),
        "pen_kind": kind, "pen_lo": lo, "pen_hi": hi, "pen_weight": wt, "pen_exponent": ex, "pen_mu": mu,
        "_box": box, "_log": log, "_any_box": bool(box.any()), "_any_log": bool(log.any()),
        "_all_box": bool(box.all()), "_all_log": bool(log.all()), "_p1x2": 2.0 * p1, "_p1x4": 4.0 * p1,
        "_pen_wm": wt * ex, "_pen_m1": ex - 1, "_pen_square": bool((ex == 2).all()),
        "_all_quadratic": not quartic.any(), "_all_quartic": bool(quartic.all()),
    }


# Integer and float parameters, so that the arrays' dtypes are drawn too.
numbers = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
positive = st.one_of(st.integers(1, 40), st.floats(0.001, 40.0))


@st.composite
def mixed_costs(draw) -> LocalCost:
    lo = draw(numbers)
    pen = draw(st.sampled_from((
        None,
        BoxPenalty(lo, lo + draw(positive), draw(positive), draw(st.sampled_from((2, 3, 4, 2.0)))),
        SmoothLogPenalty(lo, lo + draw(positive), draw(positive)),
    )))
    if draw(st.booleans()):
        return quadratic_cost(draw(positive), draw(numbers), draw(numbers), penalty=pen)
    return quartic_cost(draw(positive), draw(numbers), penalty=pen)


# Every other cost repeats, as scenario-built lists share one penalty object.
@given(st.lists(mixed_costs(), min_size=1, max_size=40).map(lambda costs: costs + costs[::2]))
def test_costset_build_matches_the_loop(costs):
    cs = CostSet(costs)
    want = loop_costset(costs)
    assert list(vars(cs)) == list(want)
    for name, value in want.items():
        got = getattr(cs, name)
        if isinstance(value, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes(), got.flags.c_contiguous) == (
                value.dtype, value.shape, value.tobytes(), True), name
        else:
            assert type(got) is type(value) and got == value, name


@st.composite
def oracle_problems(draw):
    costs = draw(cost_lists(300))
    mode = draw(st.sampled_from(("penalized", "exact_box")))
    boxes = None
    if mode == "exact_box" and draw(st.booleans()):  # penalized mode refuses boxes
        lo = [draw(st.floats(-5.0, 4.0)) for _ in costs]
        boxes = [(a, a + draw(st.floats(0.5, 10.0))) for a in lo]
    return costs, draw(st.floats(-50.0, 50.0)), boxes, mode


def assert_matches_reference(costs, total, boxes, mode, tol=1e-9):
    """The oracle's result against the plain bisection's, within bounds that follow from tol and the curvature.

    Each x_i(nu) is nondecreasing in nu and both sums lie within tol of the
    total, so the roots at the two multipliers differ by at most 2 tol in
    sum; each method's own root error is far below 2**-40 (1 + |x_i|).  So
    sum |dx| <= d, and |d value| <= max |f'| d + max f'' d**2 plus the
    rounding of the agents' values, where f'' is taken at both ends and a
    smooth-log bump adds at most mu / 2.
    """
    try:
        want = reference_solve(costs, total, boxes, mode, tol)
    except InfeasibilityError:
        with pytest.raises(InfeasibilityError):
            central_solve(costs, total, boxes=boxes, tol=tol, mode=mode)
        return
    except NumericError:  # the plain bisection gives out: the oracle may too, or meets its own guarantees
        want = None
    try:
        sol = central_solve(costs, total, boxes=boxes, tol=tol, mode=mode)
    except NumericError:
        if want is None:
            return
        raise
    x = np.asarray(sol.x)
    cs = CostSet(costs)
    assert sol.gap == abs(math.fsum(x.tolist()) - total) <= tol
    # The KKT residual that the solution reports, and its bound.
    exact = mode == "exact_box"
    grad = cs.base_grad if exact else cs.grad
    lo, hi = (np.full(len(x), -np.inf), np.full(len(x), np.inf)) if not exact else (
        np.array([b[0] for b in boxes]) if boxes else np.where(cs.pen_kind > 0, cs.pen_lo, -np.inf),
        np.array([b[1] for b in boxes]) if boxes else np.where(cs.pen_kind > 0, cs.pen_hi, np.inf))
    free = (lo < x) & (x < hi)
    assert sol.kkt_residual == float(np.abs(grad(x) - sol.multiplier)[free].max(initial=0.0))
    assert sol.kkt_residual <= 1e-8 * (1.0 + abs(sol.multiplier))
    if want is None:
        return
    x_ref, _, value_ref, _, _ = want
    d = 2.0 * tol + 2.0**-40 * (2.0 + np.abs(x) + np.abs(x_ref)).sum()
    assert np.abs(x - x_ref).sum() <= d
    values = cs.base_value(x_ref) if exact else cs.value_per_agent(x_ref)
    curv = max(cs.curvature(x).max(), cs.curvature(x_ref).max()) + float(np.where(cs._log, cs.pen_mu, 0.0).max()) / 2
    slack = float(np.abs(grad(x_ref)).max()) * d + curv * d * d + 2.0**-50 * float(np.abs(values).sum())
    assert abs(sol.value - value_ref) <= slack


# One agent whose root at the first multiplier, nu = 0, is x = 0: the answer.
CAPPED = ([quadratic_cost(1.0)], 0.0, None, "penalized")
# Lists of 133 and 134 costs, of one quartic and one boxed quadratic repeated.
CUTOVER = 133
# Two agents x = nu / 2 meet this total at nu = 2**-7.
SECOND_ROUND = ([quadratic_cost(1.0)] * 2, 2.0**-7, None, "penalized")
# Cardano's root of this agent at nu = 22.9, above its square box, is the
# root but for a gradient 3.6e-15 too high, so its first Newton step lands on
# the upper end of its bracket, which that gradient has just moved there.
ON_BRACKET_END = (quartic_cost(0.03, -0.3, penalty=BoxPenalty(-1.0, 2.0, 2.8)), 22.9)


@given(oracle_problems())
@example(problem=CAPPED)
@example(problem=([quartic_cost(0.02, 1.0), quadratic_cost(0.5, -1.0, penalty=BoxPenalty(-1.0, 2.0, 5.0))]
                  * (CUTOVER // 2) + [quadratic_cost(1.0)], 60.0, None, "penalized"))
@example(problem=([quartic_cost(0.02, 1.0), quadratic_cost(0.5, -1.0, penalty=BoxPenalty(-1.0, 2.0, 5.0))]
                  * (CUTOVER // 2 + 1), 60.0, None, "penalized"))
@example(problem=SECOND_ROUND)
# Agents 1 and 3 end clipped to their boxes.
@example(problem=(
    [quadratic_cost(1.0, 1.0), quartic_cost(0.02, 3.0), quadratic_cost(0.5, -1.0), quartic_cost(0.01, -2.0),
     quadratic_cost(2.0)],
    2.0,
    [(-1.0, 0.5), (0.0, 2.0), (-0.5, 1.5), (-3.0, -1.0), (0.0, 0.25)],
    "exact_box",
))
# Agents of curvature 0.5 and 8: the flat one moves 16 times as far per step of nu.
@example(problem=([quadratic_cost(0.25), quadratic_cost(4.0)], 1.0, None, "penalized"))
# Agent 2's root, near 2.5, lies far above its box [-3, -2].
@example(problem=(
    [quadratic_cost(1.0), quadratic_cost(1.0, -2.0), quadratic_cost(0.5, 1.0)],
    2.5,
    [(1.0, 2.0), (0.0, 5.0), (-3.0, -2.0)],
    "exact_box",
))
# Boxes of exponent 3 and 4, which take the Newton loop, with roots above and below them.
@example(problem=([quadratic_cost(0.5, 1.0, penalty=BoxPenalty(-1.0, 1.0, 30.0, 3)),
                   quartic_cost(0.01, 2.0, penalty=BoxPenalty(-2.0, 0.5, 4.0, 4)),
                   quartic_cost(0.05, -3.0, penalty=BoxPenalty(0.0, 2.0, 40.0, 4))], 6.0, None, "penalized"))
@example(problem=([quadratic_cost(0.5, 1.0, penalty=BoxPenalty(-1.0, 1.0, 30.0, 3)),
                   quartic_cost(0.01, 2.0, penalty=BoxPenalty(-2.0, 0.5, 4.0, 4))], -9.0, None, "penalized"))
# A smooth-log penalty of sharpness 100, whose gradient turns within 0.01 of each edge.
@example(problem=([quadratic_cost(0.2, -1.0, penalty=SmoothLogPenalty(0.0, 1.0, 100.0)),
                   quartic_cost(0.03, 2.0, penalty=SmoothLogPenalty(-1.0, 0.5, 100.0))] * 3, 4.0, None, "penalized"))
# A mixed list: every base and penalty kind, square and higher boxes, inside and outside.
@example(problem=([quadratic_cost(1.0, 1.0), quartic_cost(0.02, -1.0),
                   quadratic_cost(0.3, 2.0, penalty=BoxPenalty(-1.0, 2.0, 10.0)),
                   quartic_cost(0.04, 3.0, penalty=BoxPenalty(-1.0, 2.0, 10.0)),
                   quadratic_cost(0.7, penalty=BoxPenalty(0.0, 3.0, 5.0, 3)),
                   quartic_cost(0.01, 0.0, penalty=SmoothLogPenalty(1.0, 4.0, 2.0))], 12.0, None, "penalized"))
# One agent whose first multiplier is near 22.9: its roots start on a bracket end.
@example(problem=([ON_BRACKET_END[0]], 4.172363476613655, None, "penalized"))
@settings(max_examples=40)
def test_oracle_matches_plain_bisection(problem):
    assert_matches_reference(*problem)


def test_newton_step_on_a_bracket_end_is_taken():
    # The step is taken and the root stops there, after one gradient: a
    # bracket test with strict inequalities would bisect it away.
    cost, nu = ON_BRACKET_END
    cs = CostSet([cost])
    w = cs.pen_weight
    start = cs.p2 + _cubic_root(w / (2.0 * cs.p1), (2.0 * w * (cs.p2 - cs.pen_hi) - nu) / (4.0 * cs.p1))
    g = cs.grad(start) - nu
    assert start[0] > cs.pen_hi[0] and g[0] > 0.0 and (start - g / cs.curvature(start))[0] == start[0]
    with mock.patch.object(CostSet, "grad", autospec=True, side_effect=CostSet.grad) as grad:
        x, _ = cs._roots(nu)
    assert grad.call_count == 1 and x[0] == start[0]


@pytest.mark.parametrize("closed", [CAPPED, ([quadratic_cost(0.4, 4.0, penalty=BoxPenalty(20.0, 110.0, 40.0))] * 10,
                                             600.0, None, "penalized")], ids=["one_agent", "boxed_ten"])
def test_closed_form_lists_take_one_multiplier(closed):
    # Quadratic costs inside their boxes make S(nu) linear: the first
    # multiplier, the gradients' curvature-weighted mean at the even split,
    # is already the answer.
    costs, total, _, _ = closed
    sol = central_solve(costs, total)
    assert sol.iterations == 1 and sol.gap == 0.0 and sol.kkt_residual == 0.0


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_oracle_matches_plain_bisection_on_presets(name):
    for seed in (1, 2, 3):
        costs = build_instance(replace(preset(name), seed=seed))[1]
        assert_matches_reference(costs, preset(name).total, None, "penalized")


@given(cost_lists(2000), st.floats(-20.0, 0.0), st.floats(0.5, 30.0))
@example(costs=[quartic_cost(0.03125, 0.0, penalty=BoxPenalty(0.8, 1.8, 1.0, 4))], lo=0.0, width=1.0)
@example(costs=[quadratic_cost(1.0, penalty=SmoothLogPenalty(0.0, 1.0, 100.0))], lo=-10.0, width=20.0)
@settings(max_examples=40)
def test_smoothness_bound_dominates_a_dense_sample(costs, lo, width):
    # The bound is never below the curvature on a 20,001-point grid or at a
    # penalty edge and its two neighbouring doubles.  Without a smooth-log
    # penalty it is that sample's maximum; with one, at most 1.25 times it.
    # The first example is one agent, whose (1,) exponent repeats with stride
    # 0 down the sample's (points, 1) block: numpy would square there instead
    # of calling pow.  The second one's bump peaks at 2 + 100 / 4 between the
    # points of a uniform 512-point grid.
    hi = lo + width
    cs = CostSet(list(dict.fromkeys(costs)))  # each distinct cost once, however long the list
    edges = np.concatenate([cs.pen_lo, cs.pen_hi])
    edges = edges[np.isfinite(edges)]
    xs = np.concatenate([np.linspace(lo, hi, 20001), edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)])
    pts = xs[(lo <= xs) & (xs <= hi)]
    sample = float(cs.curvature(np.broadcast_to(pts[:, None], (pts.size, cs.n))).max())
    est = smoothness_bound(costs, (lo, hi))
    assert est.u == 0.55 * est.max_curvature
    assert est.max_curvature >= sample
    if any(isinstance(c.penalty, SmoothLogPenalty) for c in costs):
        assert est.max_curvature <= 1.25 * sample
    else:
        assert est.max_curvature == sample


def per_piece_bound(costs, domain):
    """``smoothness_bound`` of a valid domain with one ``_curvature`` call per piece and the max of their maxima."""
    lo, hi = domain
    cs = CostSet(costs)
    edges = np.stack([cs.pen_lo, cs.pen_hi])
    with np.errstate(over="ignore", invalid="ignore"):
        ends = np.where(cs._log, edges + _BAND_CUTS / cs.pen_mu, np.nextafter(edges, edges + _BAND_CUTS))
        ends = np.clip(ends, lo, hi)
        rim = np.full((2, cs.n), [[lo], [hi]])
        worst = float(np.max([
            cs._curvature(np.stack([a, b]), np.clip(cs.pen_hi, a, b), np.clip(cs.pen_lo, a, b)).max()
            for a, b in [(rim, rim), *zip(ends[:-1], ends[1:])]
        ]))
    if not math.isfinite(worst):
        raise DomainError(f"the curvature over the smoothness domain {domain} is not finite")
    return SmoothnessEstimate(u=0.55 * worst, max_curvature=worst)


def bound_outcome(fn, costs, domain):
    """The bits of u and max_curvature, or the error's type and message."""
    try:
        est = fn(costs, domain)
    except Exception as err:  # noqa: BLE001  (compared, not swallowed)
        return type(err), str(err)
    return est.u.hex(), est.max_curvature.hex()


@st.composite
def bound_costs(draw):
    """1-40 quadratic and quartic costs: square boxes only, box exponents 2-7, smooth-log, none, or a mixture."""
    layout = draw(st.sampled_from(("square", "box", "smooth_log", "none", "mixture")))
    costs = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(("square", "box", "smooth_log", "none"))) if layout == "mixture" else layout
        lo = draw(st.floats(-5.0, 4.0))
        hi = lo + draw(st.floats(1e-3, 10.0))
        pen = {
            "square": lambda: BoxPenalty(lo, hi, draw(st.floats(0.5, 40.0)), 2),
            "box": lambda: BoxPenalty(lo, hi, draw(st.floats(0.5, 40.0)), draw(st.integers(2, 7))),
            "smooth_log": lambda: SmoothLogPenalty(lo, hi, draw(st.floats(0.5, 300.0))),
            "none": lambda: None,
        }[kind]()
        if draw(st.booleans()):
            costs.append(quadratic_cost(draw(st.floats(0.1, 2.0)), draw(st.floats(-3.0, 3.0)), penalty=pen))
        else:
            costs.append(quartic_cost(draw(st.floats(0.001, 0.05)), draw(st.floats(-3.0, 3.0)), penalty=pen))
    return costs


@given(bound_costs(), st.floats(-10.0, 10.0), st.floats(-2.0, 160.0), st.floats(-2.0, 160.0))
@example(costs=[quadratic_cost(1.0, penalty=BoxPenalty(0.0, 1.0, 3.0, 2))], center=0.5, below=0.0, above=0.0)
@example(costs=[quartic_cost(0.01, 1.0, penalty=BoxPenalty(0.0, 1.0, 3.0, 2))], center=0.0, below=1.0, above=155.0)
@example(costs=[quadratic_cost(1.0, penalty=BoxPenalty(0.0, 1.0, 3.0, 7))] * 3, center=0.0, below=70.0, above=1.0)
@example(costs=[quadratic_cost(1.0, penalty=SmoothLogPenalty(0.0, 1.0, 100.0))], center=0.5, below=-2.0, above=3.0)
@settings(max_examples=200)
def test_smoothness_bound_is_its_per_piece_loop(costs, center, below, above):
    # One _curvature call over every piece gives the bits of one call per
    # piece, or the same error.  One agent reaches _power's (rows, 1) path;
    # domains up to 10**160 wide overflow a quartic's or a wide box's f''.
    domain = (center - 10.0**below, center + 10.0**above)
    assert bound_outcome(smoothness_bound, costs, domain) == bound_outcome(per_piece_bound, costs, domain)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def one_row_total(cs, x):
    """``total_value`` as one row's plain evaluation: the exact sum of its costs, correctly rounded."""
    return exact_sum_or_error(cs.value_per_agent(x))


@given(st.lists(local_costs(), min_size=1, max_size=20), seeds, st.floats(-3.0, 308.0))
@example(costs=[quartic_cost(0.001, 0.0)], seed=0, exponent=77.2)
@example(costs=[quadratic_cost(0.1, 3.0, -1.0)], seed=1, exponent=154.0)
@example(costs=[quadratic_cost(0.1, penalty=SmoothLogPenalty(-5.0, 5.0, 10.0))], seed=2, exponent=307.0)
@example(costs=[quartic_cost(0.03125, 0.0, penalty=BoxPenalty(0.8, 1.8, 1.0, 2))], seed=3, exponent=0.5)
@example(costs=[quadratic_cost(0.1, penalty=SmoothLogPenalty(-5.0, 5.0, 1e300))], seed=4, exponent=10.0)
@settings(max_examples=200)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_value_bound_covers_total_value(costs, seed, exponent):
    # The examples put a tiny coefficient on a power that overflows while
    # the product would not, terms near the double range, one agent whose
    # squared box penalty a (rows, 1) block could evaluate otherwise, and a
    # smooth-log sharpness mu whose mu * (x - hi) overflows though x does not.
    cs = CostSet(costs)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, cs.n) * 10.0**exponent
    total, bound = cs.total_value(x), cs.value_bound(float(np.abs(x).max()))
    assert bound == math.inf or abs(total) <= bound
    assert bound >= cs.value_bound(float(np.abs(x).max()) / 2.0)
    rows = np.stack([x, -x, x / 3.0])
    assert same_float(total, one_row_total(cs, x))
    assert all(same_float(a, one_row_total(cs, r)) for a, r in zip(cs.row_totals(rows), rows))


@st.composite
def guard_problems(draw):
    """A CostSet of quadratic and quartic agents with box penalties of exponent 2-5, smooth-log or no
    penalties, mixed, up to the double range, and an oracle value and a divergence limit as ``run`` sets them."""
    costs = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("none", "box", "smooth_log")))
        lo = draw(st.floats(-1e6, 1e6))
        hi = lo + draw(st.floats(0.5, 1e6))
        pen = None
        if kind == "box":
            pen = BoxPenalty(lo, hi, draw(st.floats(1e-3, 1e300)), draw(st.integers(2, 5)))
        elif kind == "smooth_log":
            pen = SmoothLogPenalty(lo, hi, draw(st.floats(1e-3, 1e300)))
        p1, p2 = draw(st.floats(1e-3, 1e300)), draw(st.floats(-1e6, 1e6))
        costs.append(quadratic_cost(p1, p2, draw(st.floats(-1e6, 1e6)), pen) if draw(st.booleans())
                     else quartic_cost(p1, p2, pen))
    residual = draw(st.one_of(st.floats(0.0, 1e300), st.just(math.inf)))
    return CostSet(costs), draw(st.floats(-1e12, 1e12)), 1e9 * (residual + 1.0)


@given(guard_problems(), st.floats(0.0, 1.0))
@example(problem=(CostSet([quadratic_cost(1.0)]), 0.0, 1e9), fraction=0.5)
@example(problem=(CostSet([quadratic_cost(1e300)]), 0.0, 1e9), fraction=0.5)
@example(problem=(CostSet([quartic_cost(1.0, 0.0, BoxPenalty(-1.0, 1.0, 1.0, 5))]), -1e12, 1e9), fraction=0.0)
@settings(max_examples=300)
def test_guard_floor_rules_out_only_what_value_bound_rules_out(problem, fraction):
    """``run`` calls ``value_bound`` only above ``_guard_floor``: the guard is false at the floor and below
    it and, whenever some finite m trips it, true at the m whose max(1, m + shift) is a relative 1e-5 above
    that of the floor's next double, past the floor's margin of 1e-6."""
    cs, value, limit = problem

    def guard(m):
        return cs.value_bound(m) - value > limit

    floor = scenario._guard_floor(cs, value, limit)
    if floor >= 0.0:
        below = (floor, math.nextafter(floor, 0.0), floor * fraction, 0.0)
        assert not any(map(guard, below))
    else:
        assert floor == -math.inf
    if guard(math.nextafter(math.inf, 0.0)):  # the largest double
        shift = cs._bound[0]
        up = math.nextafter(floor, math.inf) if floor >= 0.0 else 0.0
        beyond = max(1.0, up + shift) * (1.0 + 1e-5) - shift
        assert beyond == math.inf or guard(beyond)


@given(maps, st.integers(0, 40), st.sampled_from((math.nan, math.inf, -math.inf)), st.data())
@settings(max_examples=200)
def test_every_map_rejects_a_nonfinite_input_anywhere(sector_map, n, bad, data):
    """Every kind raises one NumericError for nan or +-inf at any position of a 1-D or 2-D input, sets no
    floating-point flag on the way, counts no clamp event, and passes an empty input."""
    z = np.random.default_rng(n).uniform(-20.0, 20.0, n + 1)
    z[data.draw(st.integers(0, n))] = bad
    counter = ClampCounter()
    with np.errstate(all="raise"):
        for shaped in (z, z.reshape(1, -1), z.reshape(-1, 1)):
            with pytest.raises(NumericError, match=r"^sector map input must be finite$"):
                apply_map_array(sector_map, shaped, counter)
        assert counter.events == 0
        for empty in (np.empty(0), np.empty((0, 3)), []):
            out = apply_map_array(sector_map, empty, counter)
            assert out.shape == np.shape(empty) and out.dtype == float
    assert counter.events == 0


def same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def exact_sum_or_error(row: np.ndarray):
    """A row's exact sum: fsum's value where fsum returns, or the ValueError it raises for inf - inf.

    Where fsum's running sum overflows, the exact sum of the finite values as
    a Fraction, correctly rounded or +-inf past the double range; an infinity
    or nan among the values decides the sum as in fsum.
    """
    values = row.tolist()
    try:
        return math.fsum(values)
    except ValueError as exc:
        return exc
    except OverflowError:
        pass
    infinities = {v for v in values if math.isinf(v)}
    if len(infinities) == 2:
        return ValueError("-inf + inf")
    if any(map(math.isnan, values)):
        return math.nan
    if infinities:
        return infinities.pop()
    exact = sum(map(Fraction, values))
    try:
        return float(exact)  # int / int: correctly rounded
    except OverflowError:
        return math.inf if exact > 0 else -math.inf


SUMMAND_ROWS = ("spread", "cancel", "subnormal", "zero", "special", "threshold", "overflow")


@st.composite
def summand_blocks(draw) -> np.ndarray:
    """(rows, n) blocks, each row one hard case of a correctly rounded sum, on both sides of the cutover."""
    rows = draw(st.integers(1, 4))
    n = draw(st.one_of(st.integers(1, 40), st.integers(400, 3000)))
    rng = np.random.default_rng(draw(seeds))
    m = (n + 1).bit_length()
    block = np.empty((rows, n))
    for row in block:
        kind = draw(st.sampled_from(SUMMAND_ROWS))
        lo = draw(st.integers(-1000, 1000))
        spread = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(lo, draw(st.integers(lo, 1000)) + 1, n))
        if kind == "spread":
            row[:] = spread
        elif kind == "cancel":  # each value and its negation, shuffled: an exact zero (+ one odd value)
            half = spread[: n // 2]
            row[:] = rng.permutation(np.concatenate([half, -half, spread[2 * half.size:]]))
        elif kind == "subnormal":
            row[:] = np.ldexp(rng.uniform(-1.0, 1.0, n), rng.integers(-1074, -1018, n))
        elif kind == "zero":
            row[:] = np.where(rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0))), -0.0, 0.0)
        elif kind == "special":
            row[:] = spread
            for value in draw(st.lists(st.sampled_from((math.inf, -math.inf, math.nan)), min_size=1, max_size=2)):
                row[rng.integers(n)] = value
        elif kind == "threshold":  # the largest |value| at, just below or above the fast path's limit
            edge = 2.0 ** (1020 - m)
            row[:] = rng.uniform(-1.0, 1.0, n) * edge
            row[rng.integers(n)] = draw(st.sampled_from((edge, -edge, np.nextafter(edge, 0.0), 12.0 * edge)))
        else:  # same-signed values near the double range: fsum overflows from two on
            row[:] = rng.uniform(0.8, 1.0, n) * draw(st.sampled_from((1.7e308, -1.7e308)))
    return block


@given(summand_blocks())
@example(block=np.array([[-0.0]]))
@example(block=np.array([[5e-324, -5e-324, 2.0**-1074 * 3]]))
@example(block=np.full((1, _EXTRACT_MIN_SIZE), 0.1))
@example(block=np.full((1, _EXTRACT_MIN_SIZE - 1), 0.1))
@example(block=np.array([[2.0**1000, 1.0, -(2.0**1000), 2.0**-1000]] * 600))
@example(block=np.array([[2.0**1011] + [2.0**1007] * 2999]))
@example(block=np.array([[1.7e308, 1.7e308, -1.7e308], [1.7e308, 1.7e308, 1.0]]))
@example(block=np.array([[1.7e308, 1.7e308, -math.inf], [-1.7e308, -1.7e308, math.nan]]))
@example(block=np.array([[1.7e308, 1.7e308, math.inf, -math.inf]]))
@settings(max_examples=150)
def test_row_fsums_is_fsum_of_each_row(block):
    # fsum's value and sign of zero where fsum returns; where its running sum
    # overflows, the exact sum correctly rounded (+-inf past the double
    # range, an infinity or nan as fsum would take it); a row with inf and
    # -inf raises fsum's ValueError.  The examples are one negative zero,
    # subnormals, blocks just at and below the cutover, a spread of 2**2000
    # that cancels, a row whose largest value is 8 times the fast path's
    # limit, and overflowing running sums that end inside the double range,
    # past it, or at an infinity or nan.
    expected = [exact_sum_or_error(row) for row in block]
    if any(isinstance(e, ValueError) for e in expected):
        with pytest.raises(ValueError):
            _row_fsums(block)
        return
    got = _row_fsums(block)
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert same_bits(g, e) or (math.isnan(e) and math.isnan(g))


def plain_power(base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """pow at every entry: full-shape exponents where one agent's would repeat with stride 0."""
    if base.ndim > 1 and base.shape[-1] == 1:
        exponent = np.broadcast_to(exponent, base.shape).copy()
    return base**exponent


@given(
    st.integers(1, 64), st.sampled_from((1, 2, 3, 50, 300, 3000)), seeds,
    st.sampled_from(((1,), (2,), (3, 4, 5), (1, 2, 3, 4, 5))), st.sampled_from((0.0, 0.02, 0.1, 0.3, 1.0)),
)
@example(rows=64, n=1, seed=0, exponents=(2,), outside=0.02)
@example(rows=3000, n=1, seed=0, exponents=(2,), outside=0.05)
@example(rows=64, n=300, seed=0, exponents=(2,), outside=0.02)
@example(rows=64, n=300, seed=0, exponents=(2,), outside=1.0)
@example(rows=64, n=10, seed=0, exponents=(2,), outside=0.0)
@settings(max_examples=80)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_masked_power_is_plain_power(rows, n, seed, exponents, outside):
    # Bases as the penalties make them, max(0, x - hi), with a drawn share
    # outside the box: +0.0 inside, -0.0 where x = -0.0 meets hi = 0.0, nan
    # and inf, in blocks on both sides of the masked call's size and share
    # limits, and with none outside, where no pow is called.  n = 1 with
    # exponent 2 is the stride-0 case in which numpy squares, as the masked
    # loop would on 3000 rows with few outside; each row must equal the
    # one-row call, whichever call each takes.
    rng = np.random.default_rng(seed)
    hi = rng.choice([0.0, 1.0, 10.0], n)
    side = np.where(rng.random((rows, n)) < outside, 1.0, rng.choice([-1.0, 0.0], (rows, n)))
    x = hi + side * rng.uniform(0.0, 1e80, (rows, n))
    special = rng.random((rows, n))
    x = np.where(special < outside / 4, -0.0, np.where(special > 1.0 - outside / 4, rng.choice([math.nan, math.inf]), x))
    base = np.maximum(0.0, x - hi)
    exponent = rng.choice(exponents, n)
    got = _penalty_power(base, exponent)
    assert got.tobytes() == plain_power(base, exponent).tobytes()
    assert got.tobytes() == np.stack([_penalty_power(b, exponent) for b in base]).tobytes()


@st.composite
def start_problems(draw):
    """feasible_init arguments: n, total, mode, seed and boxes (or None) at a drawn scale."""
    n = draw(st.integers(1, 6))
    scale = 10.0 ** draw(st.integers(-6, 6))
    mode, seed = draw(st.sampled_from(("equal", "random_simplex"))), draw(st.integers(0, 2**20))
    if not draw(st.booleans()):
        return n, draw(st.floats(-10.0, 10.0)) * scale, mode, seed, None
    lo = [draw(st.floats(-10.0, 10.0)) * scale for _ in range(n)]
    boxes = [(a, a + draw(st.floats(0.1, 10.0)) * scale) for a in lo]
    floor, ceiling = math.fsum(b[0] for b in boxes), math.fsum(b[1] for b in boxes)
    return n, floor + draw(st.floats(0.0, 1.0)) * (ceiling - floor), mode, seed, boxes


@given(start_problems())
@example(problem=(3, 6.8, "equal", 0, [(-0.4, 3.3), (0.9, 2.8), (3.4, 5.7)]))
@settings(max_examples=300)
def test_feasible_init_sum_is_within_one_rounding(problem):
    # The start's correctly rounded sum is within 2**-52 max(|total|, max|x_i|)
    # of the total, but not always equal to it: the example ends 8.9e-16 above.
    n, total, mode, seed, boxes = problem
    try:
        x = feasible_init(n, total, mode, seed=seed, boxes=boxes)
    except InfeasibilityError:  # the rounded box sums miss the total, or the rebalance fails
        return
    assert abs(math.fsum(x.tolist()) - total) <= 2.0**-52 * max(abs(total), float(np.abs(x).max()))


@st.composite
def huge_boxes(draw):
    """(lo, hi, total): up to six boxes with ends at or near +-1.7e308 (or small), and a finite total."""
    magnitude = st.one_of(st.sampled_from((1.7e308, 1e308, 1.0, 0.0)), st.floats(8e307, 1.7e308))
    ends = [sorted(draw(magnitude) * draw(st.sampled_from((1.0, -1.0))) for _ in range(2))
            for _ in range(draw(st.integers(1, 6)))]
    total = draw(st.one_of(st.sampled_from((0.0, 1.0, 1e308, -1e308, 1.7e308)), st.floats(-1.79e308, 1.79e308)))
    return [a for a, _ in ends], [b for _, b in ends], total


@given(huge_boxes())
@example(problem=([1e308, 1e308, -1.7e308, -1.7e308], [1.7e308, 1.7e308, -1e308, -1e308], 0.0))
@example(problem=([1e308] * 4, [1.7e308] * 4, 1.7e308))
@example(problem=([-8e307, 8e307], [0.0, 1.7e308], 1e308))
@settings(max_examples=200)
def test_box_feasibility_is_decided_on_exact_sums(problem):
    # _check_box_total and feasible_init refuse a total exactly where the
    # Fraction sums of the floors and ceilings do, though numpy and fsum
    # sums of these ends overflow.  For a feasible total feasible_init
    # returns a vector inside the boxes, without an overflow warning: its
    # rebalance runs at a power-of-two scale at which no room or product
    # of two ends leaves the double range.
    lo, hi, total = problem
    floor, ceiling = sum(map(Fraction, lo)), sum(map(Fraction, hi))
    boxes = list(zip(lo, hi))
    if not floor <= total <= ceiling:
        side = "below the box floor" if total < floor else "above the box ceiling"
        with pytest.raises(InfeasibilityError, match=side):
            _check_box_total(np.array(lo), np.array(hi), total)
        with pytest.raises(InfeasibilityError, match=side):
            feasible_init(len(lo), total, boxes=boxes)
        return
    _check_box_total(np.array(lo), np.array(hi), total)
    x = feasible_init(len(lo), total, boxes=boxes)
    assert all(a <= v <= b for a, v, b in zip(lo, x.tolist(), hi))
    assert abs(sum(map(Fraction, x.tolist())) - Fraction(total)) <= 2.0**-52 * max(abs(total), np.abs(x).max())


def run_stepped_by_hand(cfg: ScenarioConfig):
    """``run(cfg)`` with every step taken by a reference loop's hand call of ``step_delayed``.

    The reference draws each step's failure mask as one row of uniforms
    from the run's failure stream, takes its graph from the step's topology
    phase, and calls ``step_delayed`` with ``schedule.links(state, graph,
    keep)``, which builds the step alone from its own schedule of the run's
    delay seed.  It also checks the links that the run's plan yielded for
    the step against the masked graph, ``DelaySchedule.draw`` and the ring
    slot ((k + d) % depth) * 2n, whose row 1 starts n floats later.
    """
    graphs = build_instance(cfg)[0]
    adv_seed = cfg.adversity_seed if cfg.adversity_seed >= 0 else cfg.seed
    rng = np.random.default_rng([scenario._child_seed(adv_seed, scenario._TAG_FAIL), 0xFA11])
    schedule = DelaySchedule(cfg.tau_bar, cfg.delay_mode, seed=scenario._child_seed(adv_seed, scenario._TAG_DELAY))
    depth = cfg.tau_bar + 1
    real_step = scenario.step_delayed

    def by_hand(state, links, *args, **kwargs):
        k = state.step
        graph = graphs[(k // cfg.topology_switch_period) % len(graphs)]
        keep = rng.random(graph.edge_count) >= cfg.p_fail if cfg.p_fail else None
        ei, ej, w = (a if keep is None else a[keep] for a in graph.edges())
        assert [a.tolist() for a in links[:3]] == [ei.tolist(), ej.tolist(), w.tolist()]
        if depth == 1:
            assert links[3:] == (None, None, None)
        else:
            delays = schedule.draw(k, ei, ej, graph.edge_count)
            off = (k + delays.astype(np.intp)) % depth * (2 * cfg.n)
            assert links[3].tobytes() == delays.tobytes()
            assert [links[4].tolist(), links[5].tolist()] == [(off + ej).tolist(), (off + cfg.n + ei).tolist()]
        return real_step(state, schedule.links(state, graph, keep), *args, **kwargs)

    with mock.patch.object(scenario, "step_delayed", by_hand):
        return run(cfg)


def assert_same_run(a, b):
    assert trace_to_csv(a.trace) == trace_to_csv(b.trace)
    assert summary_to_text(a.summary) == summary_to_text(b.summary)
    assert a.final_state.tobytes() == b.final_state.tobytes()


@st.composite
def plan_configs(draw):
    """Runs of every delay mode at tau_bar 0-10, with the block of the plan and the delay stream cut small."""
    cfg = replace(
        draw(scenario_configs()),
        tau_bar=draw(st.integers(0, 10)),
        horizon=draw(st.integers(1, 300)),
        early_stop_spread=draw(st.sampled_from((0.0, 1e-6))),
    )
    return cfg, draw(st.sampled_from((1 << 15, 256, 100, 40, 16)))


@given(plan_configs())
@settings(max_examples=60)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_equals_a_loop_stepped_by_hand(problem):
    # Blocks of block link-steps (one step each when a graph has more
    # links), topology phases and the horizon all cut the plan's blocks;
    # none of it shows in the outputs.
    cfg, block = problem
    with mock.patch.object(dynamics, "_BLOCK", block):
        try:
            plain = run(cfg)
        except NumericError:  # a finite state whose gradients overflow
            return
        assert_same_run(plain, run_stepped_by_hand(cfg))


def test_one_step_blocks_equal_a_loop_stepped_by_hand():
    # 16,471 links: each block of 2**15 link-steps holds one step, which the
    # plan builds on its own.
    cfg = ScenarioConfig(
        n=182, total=364.0, eta=0.05, horizon=6, seed=5, topology_p=1.0,
        topology_weight_lo=0.002, topology_weight_hi=0.004, costs_kind="quadratic", costs_penalty="none",
        p_fail=0.4, tau_bar=3, early_stop_spread=0.0,
    )
    assert build_instance(cfg)[0][0].edge_count > 2**15 // 2
    result = run(cfg)
    assert result.summary.executed_steps == 6
    assert_same_run(result, run_stepped_by_hand(cfg))


@st.composite
def stride_one_configs(draw) -> ScenarioConfig:
    """Small runs recorded at every step, some diverging and some stopping early."""
    return replace(
        draw(scenario_configs()),
        record_stride=1,
        eta=draw(st.one_of(st.floats(0.01, 1.0), st.sampled_from((4.0, 64.0, 1e4, 1e200)))),
        early_stop_spread=draw(st.sampled_from((0.0, 1e-8, 0.1, 1.0, 10.0))),
    )


@given(stride_one_configs())
@settings(max_examples=60)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_summary_agrees_with_its_stride_one_trace(cfg):
    try:
        result = run(cfg)
    except NumericError:  # a finite state whose gradients overflow
        return
    s, rows = result.summary, result.trace
    assert [r.step for r in rows] == list(range(s.executed_steps + 1))
    gaps = [abs(r.feasibility_gap) for r in rows if not math.isnan(r.feasibility_gap)]
    assert s.max_feasibility_gap == max(gaps, default=0.0)
    reached = [r.step for r in rows if r.residual <= 0.01 * s.initial_residual]
    assert s.steps_to_threshold == (reached[0] if reached else -1)
    assert same_float(s.initial_residual, rows[0].residual)
    assert same_float(s.final_residual, rows[-1].residual)
    assert s.diverged_step == (s.executed_steps if s.diverged else -1)
    assert s.diverged or s.early_stopped or s.executed_steps == cfg.horizon
