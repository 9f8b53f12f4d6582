"""End-to-end experiment runner: configs, presets, traces, and summaries.

A scenario bundles a topology process, per-agent costs, the two sector maps,
adversity settings (link failures, delays), and run controls.  ``run``
executes it deterministically: all randomness flows from named substreams of
the scenario seed, so a config and seed pin the full trajectory byte for
byte, and turning one adversity on or off does not disturb the draws of the
other.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .dynamics import (
    DelaySchedule,
    feasible_init,
    init_delayed_state,
    step_delay_free,
    step_delayed,
    step_rate_bound,
)
from .errors import ConfigurationError, DraSimError
from .graph import WeightedGraph, erdos_renyi, from_edge_list, laplacian, spectral_summary, union_graph
from .mappings import ClampCounter, SectorMap, identity_map, log_quantizer, saturation, sign_power
from .objective import (
    BoxPenalty,
    CostSet,
    LocalCost,
    SmoothLogPenalty,
    central_solve,
    load_costs_csv,
    smoothness_bound,
)

__all__ = [
    "ScenarioConfig",
    "TraceRecord",
    "RunSummary",
    "RunResult",
    "BenchmarkResult",
    "CONFIG_KEYS",
    "PRESET_NAMES",
    "PRESET_SWEEPS",
    "apply_key",
    "config_items",
    "preset",
    "build_instance",
    "default_smoothness_domain",
    "run",
    "failure_mask",
    "trace_to_csv",
    "summary_to_text",
    "scaling_benchmark",
]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Field names mirror the flat ``section.key`` grammar used by config files
    and the CLI; see ``CONFIG_KEYS`` for the mapping and per-key checks,
    which every construction runs.
    """

    n: int = 50
    total: float = 200.0
    eta: float = 0.1
    horizon: int = 3000
    seed: int = 1
    record_stride: int = 1
    early_stop_spread: float = 1e-8
    window: int = 0

    topology_kind: str = "er"
    topology_p: float = 0.2
    topology_cycle_ps: tuple[float, ...] = ()
    topology_switch_period: int = 25
    topology_weight_lo: float = 0.5
    topology_weight_hi: float = 1.0
    topology_edges_file: str = ""

    costs_kind: str = "quartic"
    costs_scale_lo: float = 0.0
    costs_scale_hi: float = 0.02
    costs_target_lo: float = 0.0
    costs_target_hi: float = 2.0
    costs_a_lo: float = 0.5
    costs_a_hi: float = 1.5
    costs_b_lo: float = 0.0
    costs_b_hi: float = 0.0
    costs_c: float = 0.0
    costs_csv: str = ""
    costs_penalty: str = "box"
    costs_box_lo: float = 1.0
    costs_box_hi: float = 10.0
    costs_penalty_weight: float = 20.0
    costs_penalty_exponent: int = 2
    costs_penalty_sharpness: float = 5.0

    node_kind: str = "identity"
    node_rho: float = 0.0009765625
    node_cap: float = 1.0
    node_d_min: float = 1e-6
    node_d_max: float = 1e3
    node_nu: float = 0.5

    link_kind: str = "identity"
    link_rho: float = 0.125
    link_cap: float = 1.0
    link_d_min: float = 1e-6
    link_d_max: float = 1e3
    link_nu: float = 0.5

    p_fail: float = 0.0
    tau_bar: int = 0
    delay_mode: str = "uniform"
    delay_symmetric: bool = True
    adversity_seed: int = -1

    init_mode: str = "equal"
    init_respect_boxes: bool = False

    def __post_init__(self) -> None:
        for key, spec in CONFIG_KEYS.items():
            _check_key(key, getattr(self, spec.attr))


@dataclass(frozen=True)
class _Key:
    attr: str
    kind: str  # int | float | str | bool | floats
    check: str = ""  # human-readable constraint, paired with `valid`
    valid: object = None  # predicate on the parsed value, or None


_MAP_KINDS = ("identity", "log_quantizer", "saturation", "sign_power")


def _positive(v) -> bool:
    return v > 0 and math.isfinite(v)


CONFIG_KEYS: dict[str, _Key] = {
    "n": _Key("n", "int", ">= 2", lambda v: v >= 2),
    "b": _Key("total", "float", "finite", math.isfinite),
    "eta": _Key("eta", "float", "> 0", _positive),
    "horizon": _Key("horizon", "int", ">= 1", lambda v: v >= 1),
    "seed": _Key("seed", "int"),
    "record_stride": _Key("record_stride", "int", ">= 1", lambda v: v >= 1),
    "early_stop": _Key("early_stop_spread", "float", ">= 0", lambda v: v >= 0),
    "window": _Key("window", "int", ">= 0", lambda v: v >= 0),
    "topology.kind": _Key("topology_kind", "str", "er|cycle|edges", ("er", "cycle", "edges").__contains__),
    "topology.p": _Key("topology_p", "float", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "topology.cycle_ps": _Key(
        "topology_cycle_ps", "floats", "each in [0, 1]", lambda vs: all(0.0 <= v <= 1.0 for v in vs)
    ),
    "topology.switch_period": _Key("topology_switch_period", "int", ">= 1", lambda v: v >= 1),
    "topology.weight_lo": _Key("topology_weight_lo", "float", "> 0", _positive),
    "topology.weight_hi": _Key("topology_weight_hi", "float", "> 0", _positive),
    "topology.edges_file": _Key("topology_edges_file", "str"),
    "costs.kind": _Key(
        "costs_kind", "str", "quartic|quadratic|csv", ("quartic", "quadratic", "csv").__contains__
    ),
    "costs.scale_lo": _Key("costs_scale_lo", "float", ">= 0", lambda v: v >= 0),
    "costs.scale_hi": _Key("costs_scale_hi", "float", "> 0", _positive),
    "costs.target_lo": _Key("costs_target_lo", "float", "finite", math.isfinite),
    "costs.target_hi": _Key("costs_target_hi", "float", "finite", math.isfinite),
    "costs.a_lo": _Key("costs_a_lo", "float", "> 0", _positive),
    "costs.a_hi": _Key("costs_a_hi", "float", "> 0", _positive),
    "costs.b_lo": _Key("costs_b_lo", "float", "finite", math.isfinite),
    "costs.b_hi": _Key("costs_b_hi", "float", "finite", math.isfinite),
    "costs.c": _Key("costs_c", "float", "finite", math.isfinite),
    "costs.csv": _Key("costs_csv", "str"),
    "costs.penalty": _Key(
        "costs_penalty", "str", "box|smooth_log|none", ("box", "smooth_log", "none").__contains__
    ),
    "costs.box_lo": _Key("costs_box_lo", "float", "finite", math.isfinite),
    "costs.box_hi": _Key("costs_box_hi", "float", "finite", math.isfinite),
    "costs.penalty_weight": _Key("costs_penalty_weight", "float", "> 0", _positive),
    "costs.penalty_exponent": _Key("costs_penalty_exponent", "int", ">= 2", lambda v: v >= 2),
    "costs.penalty_sharpness": _Key("costs_penalty_sharpness", "float", "> 0", _positive),
    "maps.node.kind": _Key("node_kind", "str", "|".join(_MAP_KINDS), _MAP_KINDS.__contains__),
    "maps.node.rho": _Key("node_rho", "float", "> 0", _positive),
    "maps.node.cap": _Key("node_cap", "float", "> 0", _positive),
    "maps.node.d_min": _Key("node_d_min", "float", "> 0", _positive),
    "maps.node.d_max": _Key("node_d_max", "float", "> 0", _positive),
    "maps.node.nu": _Key("node_nu", "float", "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "maps.link.kind": _Key("link_kind", "str", "|".join(_MAP_KINDS), _MAP_KINDS.__contains__),
    "maps.link.rho": _Key("link_rho", "float", "> 0", _positive),
    "maps.link.cap": _Key("link_cap", "float", "> 0", _positive),
    "maps.link.d_min": _Key("link_d_min", "float", "> 0", _positive),
    "maps.link.d_max": _Key("link_d_max", "float", "> 0", _positive),
    "maps.link.nu": _Key("link_nu", "float", "in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "adversity.p_fail": _Key("p_fail", "float", "in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "adversity.tau_bar": _Key("tau_bar", "int", ">= 0", lambda v: v >= 0),
    "adversity.delay_mode": _Key(
        "delay_mode", "str", "uniform|fixed|per_link", ("uniform", "fixed", "per_link").__contains__
    ),
    "adversity.symmetric": _Key("delay_symmetric", "bool"),
    "adversity.seed": _Key("adversity_seed", "int", "-1 derives from seed", lambda v: v >= -1),
    "init.mode": _Key("init_mode", "str", "equal|random_simplex", ("equal", "random_simplex").__contains__),
    "init.respect_boxes": _Key("init_respect_boxes", "bool"),
}


def _check_key(key: str, value, where: str = "") -> None:
    """Raise ConfigurationError naming ``key`` unless ``value`` meets its rule."""
    spec = CONFIG_KEYS[key]
    if spec.valid is not None and not spec.valid(value):
        prefix = f"{where}: " if where else ""
        raise ConfigurationError(f"{prefix}{key} must be {spec.check}, got {value!r}")


def apply_key(cfg: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """Return a copy of ``cfg`` with one ``section.key`` entry replaced."""
    spec = CONFIG_KEYS.get(key)
    if spec is None:
        raise ConfigurationError(f"unknown config key {key!r}")
    return replace(cfg, **{spec.attr: value})


def config_items(cfg: ScenarioConfig) -> list[tuple[str, object]]:
    """All (key, value) pairs of a config in registry order."""
    return [(key, getattr(cfg, spec.attr)) for key, spec in CONFIG_KEYS.items()]


# --------------------------------------------------------------------------
# presets
# --------------------------------------------------------------------------

# 50-agent presets use link weights of order 1/n.  With quartic curvature up
# to ~24 and box-penalty curvature 2*20 = 40, the largest Laplacian
# eigenvalue must stay well under 1 for the published step rates (0.1 .. 2.0)
# to be contractive; weights in [0.02, 0.04] put ER(50, 0.2) there while the
# 92 percent failure rate still converges inside 5000 steps at eta = 0.2.
_W50 = (0.02, 0.04)
_W10 = (0.3, 0.6)


def _preset_fig_dyn() -> ScenarioConfig:
    return ScenarioConfig(
        n=50,
        total=200.0,
        eta=0.1,
        horizon=3000,
        seed=11,
        window=99,
        topology_kind="cycle",
        topology_cycle_ps=(0.2, 0.1, 0.05, 0.01),
        topology_switch_period=25,
        topology_weight_lo=_W50[0],
        topology_weight_hi=_W50[1],
        costs_kind="quartic",
        costs_penalty="box",
        costs_box_lo=1.0,
        costs_box_hi=10.0,
        costs_penalty_weight=20.0,
        node_kind="log_quantizer",
        node_rho=0.0009765625,
        link_kind="log_quantizer",
        link_rho=0.125,
    )


def _preset_fig_dyn_logpenalty() -> ScenarioConfig:
    return replace(
        _preset_fig_dyn(),
        costs_penalty="smooth_log",
        costs_penalty_sharpness=5.0,
    )


def _preset_fig_fail() -> ScenarioConfig:
    return ScenarioConfig(
        n=50,
        total=200.0,
        eta=0.2,
        horizon=5000,
        seed=6,
        window=4,
        topology_kind="er",
        topology_p=0.2,
        topology_weight_lo=_W50[0],
        topology_weight_hi=_W50[1],
        costs_kind="quartic",
        costs_penalty="box",
        costs_box_lo=1.0,
        costs_box_hi=10.0,
        node_kind="identity",
        link_kind="identity",
        p_fail=0.5,
    )


def _preset_fig_delay() -> ScenarioConfig:
    return ScenarioConfig(
        n=50,
        total=200.0,
        eta=0.5,
        horizon=5000,
        seed=6,
        window=0,
        topology_kind="er",
        topology_p=0.2,
        topology_weight_lo=_W50[0],
        topology_weight_hi=_W50[1],
        costs_kind="quartic",
        costs_penalty="box",
        costs_box_lo=1.0,
        costs_box_hi=10.0,
        node_kind="identity",
        link_kind="log_quantizer",
        link_rho=0.125,
        tau_bar=2,
        delay_mode="uniform",
    )


def _preset_dispatch() -> ScenarioConfig:
    return ScenarioConfig(
        n=10,
        total=600.0,
        eta=0.05,
        horizon=3000,
        seed=2,
        window=0,
        topology_kind="er",
        topology_p=0.2,
        topology_weight_lo=_W10[0],
        topology_weight_hi=_W10[1],
        costs_kind="quadratic",
        costs_a_lo=0.2,
        costs_a_hi=0.8,
        costs_b_lo=2.0,
        costs_b_hi=6.0,
        costs_penalty="box",
        costs_box_lo=20.0,
        costs_box_hi=110.0,
        costs_penalty_weight=40.0,
        node_kind="identity",
        link_kind="identity",
    )


def _preset_dispatch_uniform() -> ScenarioConfig:
    return replace(
        _preset_dispatch(),
        costs_a_lo=0.4,
        costs_a_hi=0.4,
        costs_b_lo=4.0,
        costs_b_hi=4.0,
        init_mode="random_simplex",
        init_respect_boxes=True,
    )


def _preset_dispatch_adversity() -> ScenarioConfig:
    # Generator gradients sit near 60, so the link lattice has to be a few
    # tenths of a percent fine or quantization freezes the flows early.
    return replace(
        _preset_dispatch(),
        horizon=5000,
        p_fail=0.5,
        tau_bar=3,
        node_kind="sign_power",
        node_nu=0.5,
        node_d_min=1e-6,
        node_d_max=1e3,
        link_kind="log_quantizer",
        link_rho=0.00390625,
    )


_PRESETS = {
    "fig_dyn": _preset_fig_dyn,
    "fig_dyn_logpenalty": _preset_fig_dyn_logpenalty,
    "fig_fail": _preset_fig_fail,
    "fig_delay": _preset_fig_delay,
    "dispatch": _preset_dispatch,
    "dispatch_uniform": _preset_dispatch_uniform,
    "dispatch_adversity": _preset_dispatch_adversity,
}

PRESET_NAMES = tuple(_PRESETS)

# Parameter grids the named experiments are meant to be swept over.
PRESET_SWEEPS: dict[str, dict[str, tuple]] = {
    "fig_fail": {"adversity.p_fail": (0.5, 0.7, 0.85, 0.92)},
    "fig_delay": {"adversity.tau_bar": (2, 4, 6), "eta": (2.0, 0.5)},
    "dispatch_adversity": {
        "adversity.p_fail": (0.5, 0.7, 0.85, 0.92),
        "adversity.tau_bar": (3, 7, 10),
    },
}


def preset(name: str) -> ScenarioConfig:
    """A ready-to-run named scenario; see ``PRESET_NAMES`` for the catalog."""
    builder = _PRESETS.get(name)
    if builder is None:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return builder()


# --------------------------------------------------------------------------
# run records
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    """One sampled step of a run.

    ``active_links`` counts the links up during the update leaving this
    step; the terminal record repeats the count of the last update taken.
    """

    step: int
    residual: float
    feasibility_gap: float
    dispersion: float
    state_min: float
    state_max: float
    state_mean: float
    active_links: int


@dataclass(frozen=True)
class RunSummary:
    """Aggregate outcome of one run; divergence is recorded, not raised."""

    n: int
    total: float
    eta: float
    horizon: int
    executed_steps: int
    initial_residual: float
    final_residual: float
    final_spread: float
    steps_to_threshold: int
    max_feasibility_gap: float
    fraction_decreasing_windows: float
    node_clamp_events: int
    link_clamp_events: int
    early_stopped: bool
    diverged: bool
    diverged_step: int
    eta_bound_ratio: float | None
    oracle_value: float
    oracle_multiplier: float


@dataclass(frozen=True)
class RunResult:
    config: ScenarioConfig
    trace: list[TraceRecord]
    summary: RunSummary
    final_state: np.ndarray = field(repr=False)


# --------------------------------------------------------------------------
# builders
# --------------------------------------------------------------------------

_TAG_TOPOLOGY = 1
_TAG_COSTS = 2
_TAG_INIT = 3
_TAG_FAIL = 4
_TAG_DELAY = 5


def _child_seed(master: int, tag: int, index: int = 0) -> int:
    """A derived 64-bit seed for a named purpose, stable across platforms."""
    ss = np.random.SeedSequence([int(master) & 0xFFFFFFFF, tag, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _build_graphs(cfg: ScenarioConfig) -> list[WeightedGraph]:
    wr = (cfg.topology_weight_lo, cfg.topology_weight_hi)
    if cfg.topology_kind == "er":
        return [erdos_renyi(cfg.n, cfg.topology_p, wr, seed=_child_seed(cfg.seed, _TAG_TOPOLOGY, 0))]
    if cfg.topology_kind == "cycle":
        if not cfg.topology_cycle_ps:
            raise ConfigurationError("topology.cycle_ps must list at least one probability")
        return [
            erdos_renyi(cfg.n, p, wr, seed=_child_seed(cfg.seed, _TAG_TOPOLOGY, i))
            for i, p in enumerate(cfg.topology_cycle_ps)
        ]
    if not cfg.topology_edges_file:
        raise ConfigurationError("topology.kind=edges needs topology.edges_file")
    g = from_edge_list(Path(cfg.topology_edges_file).read_text())
    if g.n != cfg.n:
        raise ConfigurationError(
            f"edge list has n={g.n} but the scenario says n={cfg.n}"
        )
    return [g]


def _build_penalty(cfg: ScenarioConfig):
    if cfg.costs_penalty == "none":
        return None
    if cfg.costs_penalty == "box":
        return BoxPenalty(
            cfg.costs_box_lo, cfg.costs_box_hi, cfg.costs_penalty_weight, cfg.costs_penalty_exponent
        )
    return SmoothLogPenalty(cfg.costs_box_lo, cfg.costs_box_hi, cfg.costs_penalty_sharpness)


def _build_costs(cfg: ScenarioConfig) -> list[LocalCost]:
    if cfg.costs_kind == "csv":
        if not cfg.costs_csv:
            raise ConfigurationError("costs.kind=csv needs costs.csv")
        costs = load_costs_csv(
            cfg.costs_csv,
            penalty=cfg.costs_penalty if cfg.costs_penalty != "none" else "box",
            penalty_weight=cfg.costs_penalty_weight,
            penalty_exponent=cfg.costs_penalty_exponent,
            penalty_sharpness=cfg.costs_penalty_sharpness,
        )
        if len(costs) != cfg.n:
            raise ConfigurationError(f"cost table has {len(costs)} rows, scenario says n={cfg.n}")
        return costs
    pen = _build_penalty(cfg)
    rng = np.random.default_rng([_child_seed(cfg.seed, _TAG_COSTS), 0xC057])
    if cfg.costs_kind == "quartic":
        # 1 - U gives draws in the half-open (lo, hi], keeping scales positive.
        scales = cfg.costs_scale_lo + (cfg.costs_scale_hi - cfg.costs_scale_lo) * (1.0 - rng.random(cfg.n))
        targets = cfg.costs_target_lo + (cfg.costs_target_hi - cfg.costs_target_lo) * (1.0 - rng.random(cfg.n))
        return [LocalCost("quartic", s, t, 0.0, pen) for s, t in zip(scales, targets)]
    a = cfg.costs_a_lo + (cfg.costs_a_hi - cfg.costs_a_lo) * rng.random(cfg.n)
    b = cfg.costs_b_lo + (cfg.costs_b_hi - cfg.costs_b_lo) * rng.random(cfg.n)
    return [LocalCost("quadratic", ai, bi, cfg.costs_c, pen) for ai, bi in zip(a, b)]


def _build_map(kind: str, rho: float, cap: float, d_min: float, d_max: float, nu: float) -> SectorMap:
    if kind == "identity":
        return identity_map()
    if kind == "log_quantizer":
        return log_quantizer(rho)
    if kind == "saturation":
        return saturation(cap, d_max)
    return sign_power(nu, d_min, d_max)


def _build_maps(cfg: ScenarioConfig) -> tuple[SectorMap, SectorMap]:
    node = _build_map(cfg.node_kind, cfg.node_rho, cfg.node_cap, cfg.node_d_min, cfg.node_d_max, cfg.node_nu)
    link = _build_map(cfg.link_kind, cfg.link_rho, cfg.link_cap, cfg.link_d_min, cfg.link_d_max, cfg.link_nu)
    return node, link


def build_instance(
    cfg: ScenarioConfig,
) -> tuple[list[WeightedGraph], list[LocalCost], SectorMap, SectorMap]:
    """Materialize the deterministic pieces of a scenario.

    Returns the topology cycle, the per-agent costs, and the node and link
    maps, exactly as ``run`` would construct them from the same config.
    """
    graphs = _build_graphs(cfg)
    costs = _build_costs(cfg)
    node_map, link_map = _build_maps(cfg)
    return graphs, costs, node_map, link_map


def default_smoothness_domain(cfg: ScenarioConfig) -> tuple[float, float]:
    """The state interval used for curvature scans of a scenario's costs.

    The penalty box padded by 20 percent when one is configured, otherwise a
    symmetric band around the per-agent share of the total.
    """
    if cfg.costs_penalty != "none":
        span = cfg.costs_box_hi - cfg.costs_box_lo
        return (cfg.costs_box_lo - 0.2 * span, cfg.costs_box_hi + 0.2 * span)
    mean = cfg.total / cfg.n
    pad = max(10.0, 4.0 * abs(mean))
    return (mean - pad, mean + pad)


def failure_mask(graph: WeightedGraph, p_fail: float, rng: np.random.Generator) -> WeightedGraph:
    """The graph with each link independently dropped with probability p_fail.

    Consumes exactly one uniform per link of ``graph`` (row-major i < j
    order), which is the same draw discipline the run loop uses.
    """
    if not 0.0 <= p_fail <= 1.0:
        raise ConfigurationError(f"failure rate must be in [0, 1], got {p_fail}")
    ei, ej, w = graph.edges()
    keep = rng.random(len(ei)) >= p_fail
    weights = np.zeros((graph.n, graph.n))
    weights[ei[keep], ej[keep]] = w[keep]
    weights = weights + weights.T
    return WeightedGraph(n=graph.n, weights=weights)


# --------------------------------------------------------------------------
# the run loop
# --------------------------------------------------------------------------


def _divergence_ratio(cfg, graphs, costs, node_map, link_map) -> float | None:
    """eta over the analytical safe rate, for the divergence report."""
    try:
        union = union_graph(graphs)
        spec = spectral_summary(laplacian(union))
        if not spec.connected:
            return None
        u = smoothness_bound(costs, default_smoothness_domain(cfg)).u
        bound = step_rate_bound(
            node_map, link_map, spec.lambda2, spec.lambda_max, u,
            window=cfg.window, tau_bar=cfg.tau_bar,
        )
        return cfg.eta / bound.eta_max
    except DraSimError:
        return None


def run(cfg: ScenarioConfig) -> RunResult:
    """Execute a scenario and return its trace, summary, and final state.

    The trace samples every ``record_stride`` steps plus the terminal step.
    Divergence (non-finite state, or the residual exceeding a billion times
    its initial value) stops the run and is flagged in the summary together
    with the ratio of the configured step rate to the analytical bound.
    """
    graphs, costs, node_map, link_map = build_instance(cfg)
    cs = CostSet(costs)

    oracle = central_solve(costs, cfg.total, tol=1e-9, mode="penalized")

    boxes = None
    if cfg.init_respect_boxes:
        if cfg.costs_penalty == "none":
            raise ConfigurationError("init.respect_boxes needs a penalty with a box")
        boxes = [(cfg.costs_box_lo, cfg.costs_box_hi)] * cfg.n
    x0 = feasible_init(cfg.n, cfg.total, cfg.init_mode, seed=_child_seed(cfg.seed, _TAG_INIT), boxes=boxes)

    adv_seed = cfg.adversity_seed if cfg.adversity_seed >= 0 else cfg.seed
    rng_fail = np.random.default_rng([_child_seed(adv_seed, _TAG_FAIL), 0xFA11])
    schedule = DelaySchedule(
        cfg.tau_bar, cfg.delay_mode, seed=_child_seed(adv_seed, _TAG_DELAY), symmetric=cfg.delay_symmetric
    )

    edge_caches = [g.edges() for g in graphs]
    n_phases = len(graphs)
    switch = cfg.topology_switch_period

    node_counter = ClampCounter()
    link_counter = ClampCounter()

    state = init_delayed_state(x0, cfg.tau_bar, cs, link_map)
    horizon = cfg.horizon
    f_values = np.empty(horizon + 1)
    records: list[TraceRecord] = []
    max_gap = 0.0
    initial_residual = float("nan")
    steps_to_threshold = -1
    early_stopped = False
    diverged = False
    diverged_step = -1
    last_active = len(edge_caches[0][0])
    final_step = 0

    k = 0
    while True:
        x = state.x
        finite = bool(np.all(np.isfinite(x)))
        if finite:
            grads = cs.grad(x)
            f_val = cs.total_value(x)
            gap = math.fsum(x.tolist()) - cfg.total
            spread = float(grads.max() - grads.min())
        else:
            grads = None
            f_val = float("nan")
            gap = float("nan")
            spread = float("nan")
        f_values[k] = f_val
        residual = f_val - oracle.value
        if k == 0:
            initial_residual = residual
        if finite:
            max_gap = max(max_gap, abs(gap))
            if steps_to_threshold < 0 and residual <= 0.01 * initial_residual:
                steps_to_threshold = k
        if not finite or (residual > 1e9 * (abs(initial_residual) + 1.0)):
            diverged = True
            diverged_step = k

        stepping = (k < horizon) and not diverged
        stop_now = finite and spread <= cfg.early_stop_spread
        if stepping and not stop_now:
            phase = (k // switch) % n_phases
            graph = graphs[phase]
            ei, ej, w = edge_caches[phase]
            if cfg.p_fail > 0.0:
                keep = rng_fail.random(len(ei)) >= cfg.p_fail
                active = int(np.count_nonzero(keep))
            else:
                keep = None
                active = len(ei)
            last_active = active
        else:
            keep = None
            active = last_active

        if k % cfg.record_stride == 0 or not stepping or stop_now:
            records.append(
                TraceRecord(
                    step=k,
                    residual=float(residual),
                    feasibility_gap=float(gap),
                    dispersion=float(np.linalg.norm(grads - grads.mean())) if finite else float("nan"),
                    state_min=float(x.min()) if finite else float("nan"),
                    state_max=float(x.max()) if finite else float("nan"),
                    state_mean=float(x.mean()) if finite else float("nan"),
                    active_links=active,
                )
            )
        final_step = k
        if not stepping or stop_now:
            early_stopped = stop_now and k < horizon
            break

        state = step_delayed(
            state,
            graph,
            schedule,
            cs,
            node_map,
            link_map,
            cfg.eta,
            failure_keep=keep,
            grads=grads,
            edges=(ei, ej, w),
            node_counter=node_counter,
            link_counter=link_counter,
        )
        k += 1

    # Fraction of fixed-length windows over which the objective decreased.
    win = cfg.window + cfg.tau_bar + 1
    executed = final_step
    if executed >= win:
        starts = f_values[: executed - win + 1]
        ends = f_values[win : executed + 1]
        good = np.count_nonzero(ends <= starts + 1e-12)
        frac_decreasing = float(good / len(starts))
    else:
        frac_decreasing = float("nan")

    ratio = None
    if diverged:
        ratio = _divergence_ratio(cfg, graphs, costs, node_map, link_map)

    final_x = state.x
    final_finite = bool(np.all(np.isfinite(final_x)))
    final_grads = cs.grad(final_x) if final_finite else None
    summary = RunSummary(
        n=cfg.n,
        total=cfg.total,
        eta=cfg.eta,
        horizon=horizon,
        executed_steps=executed,
        initial_residual=float(initial_residual),
        final_residual=float(f_values[final_step] - oracle.value),
        final_spread=float(final_grads.max() - final_grads.min()) if final_finite else float("nan"),
        steps_to_threshold=steps_to_threshold,
        max_feasibility_gap=float(max_gap),
        fraction_decreasing_windows=frac_decreasing,
        node_clamp_events=node_counter.events,
        link_clamp_events=link_counter.events,
        early_stopped=early_stopped,
        diverged=diverged,
        diverged_step=diverged_step,
        eta_bound_ratio=ratio,
        oracle_value=oracle.value,
        oracle_multiplier=oracle.multiplier,
    )
    return RunResult(config=cfg, trace=records, summary=summary, final_state=final_x.copy())


# --------------------------------------------------------------------------
# serialization of outputs
# --------------------------------------------------------------------------

_TRACE_HEADER = "k,residual,feasibility_gap,dispersion,state_min,state_max,state_mean,active_links"


def _fmt(v: float) -> str:
    # repr of a builtin float is the shortest string that round-trips.
    return repr(float(v))


def trace_to_csv(trace: list[TraceRecord]) -> str:
    """Render a trace with shortest-round-trip decimal floats."""
    lines = [_TRACE_HEADER]
    for r in trace:
        lines.append(
            f"{r.step},{_fmt(r.residual)},{_fmt(r.feasibility_gap)},{_fmt(r.dispersion)},"
            f"{_fmt(r.state_min)},{_fmt(r.state_max)},{_fmt(r.state_mean)},{r.active_links}"
        )
    return "\n".join(lines) + "\n"


def summary_to_text(summary: RunSummary) -> str:
    """Flat key=value rendering of a run summary."""
    pairs = [
        ("n", summary.n),
        ("b", _fmt(summary.total)),
        ("eta", _fmt(summary.eta)),
        ("horizon", summary.horizon),
        ("executed_steps", summary.executed_steps),
        ("initial_residual", _fmt(summary.initial_residual)),
        ("final_residual", _fmt(summary.final_residual)),
        ("final_spread", _fmt(summary.final_spread)),
        ("steps_to_threshold", summary.steps_to_threshold),
        ("max_feasibility_gap", _fmt(summary.max_feasibility_gap)),
        ("fraction_decreasing_windows", _fmt(summary.fraction_decreasing_windows)),
        ("node_clamp_events", summary.node_clamp_events),
        ("link_clamp_events", summary.link_clamp_events),
        ("early_stopped", str(summary.early_stopped).lower()),
        ("diverged", str(summary.diverged).lower()),
        ("diverged_step", summary.diverged_step),
        (
            "eta_bound_ratio",
            "none" if summary.eta_bound_ratio is None else _fmt(summary.eta_bound_ratio),
        ),
        ("oracle_value", _fmt(summary.oracle_value)),
        ("oracle_multiplier", _fmt(summary.oracle_multiplier)),
    ]
    return "\n".join(f"{k}={v}" for k, v in pairs) + "\n"


# --------------------------------------------------------------------------
# scaling benchmark
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkResult:
    """Per-step timings over network sizes and the fitted log-log slope."""

    sizes: tuple[int, ...]
    seconds_per_step: tuple[float, ...]
    slope: float
    steps: int
    density: float


def scaling_benchmark(
    sizes: tuple[int, ...] = (50, 100, 200, 400),
    steps: int = 200,
    density: float = 1.0,
    seed: int = 0,
    constant_degree: float | None = None,
) -> BenchmarkResult:
    """Time the delay-free step across sizes and fit time ~ n^slope.

    Uses a quantizer node map on plain quadratic costs so the per-step work
    is dominated by the per-link transform, wall-clocked over ``steps``
    updates after a short warmup.  One update touches every link a constant
    number of times, so the expected slope is 2 for dense graphs (link
    probability ``density`` at every size) and below 2 when
    ``constant_degree`` fixes the expected degree instead.
    """
    if len(sizes) < 2:
        raise ConfigurationError("scaling_benchmark needs at least two sizes")
    if steps < 10:
        raise ConfigurationError(f"steps must be >= 10 for stable timing, got {steps}")
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    if constant_degree is not None and constant_degree <= 0.0:
        raise ConfigurationError(f"constant_degree must be positive, got {constant_degree}")
    node_map = log_quantizer(1.0 / 1024.0)
    link_map = identity_map()
    timings = []
    for n in sizes:
        p = density if constant_degree is None else min(1.0, constant_degree / (n - 1))
        g = erdos_renyi(n, p, (0.5, 1.0), seed=_child_seed(seed, _TAG_TOPOLOGY, n))
        rng = np.random.default_rng([_child_seed(seed, _TAG_COSTS, n), 0xBE7C])
        costs = [LocalCost("quadratic", a, 0.0, 0.0) for a in 0.5 + rng.random(n)]
        cs = CostSet(costs)
        edges = g.edges()
        lam = spectral_summary(laplacian(g)).lambda_max
        eta = 0.5 / max(lam, 1.0)
        x = feasible_init(n, float(n), "random_simplex", seed=seed)
        for _ in range(5):
            x = step_delay_free(x, g, cs, node_map, link_map, eta, edges=edges)
        t0 = time.perf_counter()
        for _ in range(steps):
            x = step_delay_free(x, g, cs, node_map, link_map, eta, edges=edges)
        elapsed = time.perf_counter() - t0
        timings.append(elapsed / steps)
    logs_n = np.log(np.asarray(sizes, dtype=float))
    logs_t = np.log(np.asarray(timings))
    slope = float(np.polyfit(logs_n, logs_t, 1)[0])
    return BenchmarkResult(
        sizes=tuple(int(n) for n in sizes),
        seconds_per_step=tuple(float(t) for t in timings),
        slope=slope,
        steps=steps,
        density=density,
    )
