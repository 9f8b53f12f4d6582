"""End-to-end experiment runner: configs, presets, traces, and summaries.

A scenario bundles a topology process, per-agent costs, the two sector maps,
adversity settings (link failures, delays), and run controls.  ``run``
executes it deterministically: all randomness flows from named substreams of
the scenario seed, so a config and seed pin the full trajectory byte for
byte, and turning one adversity on or off does not disturb the draws of the
other.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import time
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, get_type_hints

import numpy as np

from .dynamics import (
    DelaySchedule,
    _link_plan,
    feasible_init,
    init_delayed_state,
    step_delay_free,
    step_delayed,
    step_rate_bound,
)
from .errors import ConfigurationError, DomainError, read_input_text
from .graph import WeightedGraph, erdos_renyi, from_edge_list, laplacian, spectral_summary, union_graph
from .mappings import ClampCounter, SectorMap, identity_map, log_quantizer, saturation, sign_power
from .objective import CostSet, LocalCost, _make_penalty, _row_fsums, central_solve, load_costs_csv, smoothness_bound

__all__ = [
    "ScenarioConfig",
    "TraceRecord",
    "RunSummary",
    "RunResult",
    "CONFIG_KEYS",
    "PRESET_NAMES",
    "PRESET_SWEEPS",
    "apply_key",
    "config_items",
    "parse_config",
    "serialize_config",
    "preset",
    "build_instance",
    "default_smoothness_domain",
    "run",
    "trace_to_csv",
    "summary_to_text",
    "scaling_benchmark",
]


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------


_MAP_KINDS = ("identity", "log_quantizer", "saturation", "sign_power")


def _positive(v) -> bool:
    return v > 0 and math.isfinite(v)


def _one_of(*choices: str) -> tuple[str, object]:
    """The (check, valid) pair of a key that takes one of ``choices``."""
    return "|".join(choices), choices.__contains__


def _key(name: str, default, check: str = "", valid=None, cross_check: str = "", cross_valid=None):
    """Declare a config field: its ``section.key`` name, default, and rules.

    ``valid`` is a predicate on the value alone, described by ``check`` and
    run at every construction.  ``cross_valid`` is a predicate on the whole
    config, described by ``cross_check`` and run by ``build_instance``.
    """
    return field(default=default, metadata={"key": name, "rules": (check, valid, cross_check, cross_valid)})


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one simulation run.

    Each field declares its flat ``section.key`` name in config files and the
    CLI, its default, and its rules; ``CONFIG_KEYS`` is derived from the
    fields.  Every construction runs each key's own rule.  The rules that
    relate two keys run at the top of ``build_instance`` instead, so that
    single-key edits may pass through states that are briefly inconsistent.
    """

    n: int = _key("n", 50, ">= 2", lambda v: v >= 2)
    total: float = _key("b", 200.0, "finite", math.isfinite)
    eta: float = _key("eta", 0.1, "> 0", _positive)
    horizon: int = _key("horizon", 3000, ">= 1", lambda v: v >= 1)
    seed: int = _key("seed", 1, "in [0, 2**32)", lambda v: 0 <= v < 2**32)
    record_stride: int = _key("record_stride", 1, ">= 1", lambda v: v >= 1)
    early_stop_spread: float = _key("early_stop", 1e-8, ">= 0", lambda v: v >= 0)
    window: int = _key("window", 0, ">= 0", lambda v: v >= 0)

    topology_kind: str = _key("topology.kind", "er", *_one_of("er", "cycle", "edges"))
    topology_p: float = _key("topology.p", 0.2, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    topology_cycle_ps: tuple[float, ...] = _key(
        "topology.cycle_ps", (), "each in [0, 1]", lambda vs: all(0.0 <= v <= 1.0 for v in vs),
        "non-empty when topology.kind = cycle", lambda c: c.topology_kind != "cycle" or c.topology_cycle_ps != (),
    )
    topology_switch_period: int = _key("topology.switch_period", 25, ">= 1", lambda v: v >= 1)
    topology_weight_lo: float = _key(
        "topology.weight_lo", 0.5, "> 0", _positive, "<= topology.weight_hi unless topology.kind = edges",
        lambda c: c.topology_kind == "edges" or c.topology_weight_lo <= c.topology_weight_hi,
    )
    topology_weight_hi: float = _key("topology.weight_hi", 1.0, "> 0", _positive)
    topology_edges_file: str = _key(
        "topology.edges_file", "", cross_check="set when topology.kind = edges",
        cross_valid=lambda c: c.topology_kind != "edges" or c.topology_edges_file != "",
    )

    costs_kind: str = _key("costs.kind", "quartic", *_one_of("quartic", "quadratic", "csv"))
    costs_scale_lo: float = _key("costs.scale_lo", 0.0, ">= 0", lambda v: v >= 0)
    costs_scale_hi: float = _key("costs.scale_hi", 0.02, "> 0", _positive)
    costs_target_lo: float = _key("costs.target_lo", 0.0, "finite", math.isfinite)
    costs_target_hi: float = _key("costs.target_hi", 2.0, "finite", math.isfinite)
    costs_a_lo: float = _key("costs.a_lo", 0.5, "> 0", _positive)
    costs_a_hi: float = _key("costs.a_hi", 1.5, "> 0", _positive)
    costs_b_lo: float = _key("costs.b_lo", 0.0, "finite", math.isfinite)
    costs_b_hi: float = _key("costs.b_hi", 0.0, "finite", math.isfinite)
    costs_c: float = _key("costs.c", 0.0, "finite", math.isfinite)
    costs_csv: str = _key(
        "costs.csv", "", cross_check="set when costs.kind = csv",
        cross_valid=lambda c: c.costs_kind != "csv" or c.costs_csv != "",
    )
    costs_penalty: str = _key("costs.penalty", "box", *_one_of("box", "smooth_log", "none"))
    costs_box_lo: float = _key(
        "costs.box_lo", 1.0, "finite", math.isfinite, "< costs.box_hi unless costs.penalty = none",
        lambda c: c.costs_penalty == "none" or c.costs_box_lo < c.costs_box_hi,
    )
    costs_box_hi: float = _key("costs.box_hi", 10.0, "finite", math.isfinite)
    costs_penalty_weight: float = _key(
        "costs.penalty_weight", 20.0, "> 0", _positive,
        "such that costs.penalty_weight * costs.penalty_exponent is finite",
        lambda c: math.isfinite(c.costs_penalty_weight * c.costs_penalty_exponent),
    )
    costs_penalty_exponent: int = _key("costs.penalty_exponent", 2, ">= 2", lambda v: v >= 2)
    costs_penalty_sharpness: float = _key("costs.penalty_sharpness", 5.0, "> 0", _positive)

    node_kind: str = _key("maps.node.kind", "identity", *_one_of(*_MAP_KINDS))
    node_rho: float = _key("maps.node.rho", 0.0009765625, "> 0", _positive)
    node_cap: float = _key(
        "maps.node.cap", 1.0, "> 0", _positive, "< maps.node.d_max when maps.node.kind = saturation",
        lambda c: c.node_kind != "saturation" or c.node_cap < c.node_d_max,
    )
    node_d_min: float = _key(
        "maps.node.d_min", 1e-6, "> 0", _positive, "<= maps.node.d_max when maps.node.kind = sign_power",
        lambda c: c.node_kind != "sign_power" or c.node_d_min <= c.node_d_max,
    )
    node_d_max: float = _key("maps.node.d_max", 1e3, "> 0", _positive)
    node_nu: float = _key("maps.node.nu", 0.5, "in (0, 1]", lambda v: 0.0 < v <= 1.0)

    link_kind: str = _key("maps.link.kind", "identity", *_one_of(*_MAP_KINDS))
    link_rho: float = _key("maps.link.rho", 0.125, "> 0", _positive)
    link_cap: float = _key(
        "maps.link.cap", 1.0, "> 0", _positive, "< maps.link.d_max when maps.link.kind = saturation",
        lambda c: c.link_kind != "saturation" or c.link_cap < c.link_d_max,
    )
    link_d_min: float = _key(
        "maps.link.d_min", 1e-6, "> 0", _positive, "<= maps.link.d_max when maps.link.kind = sign_power",
        lambda c: c.link_kind != "sign_power" or c.link_d_min <= c.link_d_max,
    )
    link_d_max: float = _key("maps.link.d_max", 1e3, "> 0", _positive)
    link_nu: float = _key("maps.link.nu", 0.5, "in (0, 1]", lambda v: 0.0 < v <= 1.0)

    p_fail: float = _key("adversity.p_fail", 0.0, "in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    tau_bar: int = _key("adversity.tau_bar", 0, ">= 0", lambda v: v >= 0)
    delay_mode: str = _key("adversity.delay_mode", "uniform", *_one_of("uniform", "fixed", "per_link"))
    adversity_seed: int = _key("adversity.seed", -1, "-1 or in [0, 2**32)", lambda v: v == -1 or 0 <= v < 2**32)

    init_mode: str = _key("init.mode", "equal", *_one_of("equal", "random_simplex"))
    init_respect_boxes: bool = _key(
        "init.respect_boxes", False, cross_check="false when costs.penalty = none",
        cross_valid=lambda c: not (c.init_respect_boxes and c.costs_penalty == "none"),
    )

    def __post_init__(self) -> None:
        for key, spec in CONFIG_KEYS.items():
            _check_key(key, getattr(self, spec.attr))


@dataclass(frozen=True)
class _Key:
    """The declaration of one config key, read from its ``ScenarioConfig`` field."""

    attr: str
    type: object  # the field annotation: int, float, str, bool or tuple[float, ...]
    check: str = ""  # human-readable constraint, paired with `valid`
    valid: object = None  # predicate on the value, or None
    cross_check: str = ""  # human-readable constraint, paired with `cross_valid`
    cross_valid: object = None  # predicate on the whole config, or None


_TYPES = get_type_hints(ScenarioConfig)
CONFIG_KEYS: dict[str, _Key] = {
    f.metadata["key"]: _Key(f.name, _TYPES[f.name], *f.metadata["rules"]) for f in fields(ScenarioConfig)
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
# config text format
# --------------------------------------------------------------------------

_BOOL_WORDS = dict.fromkeys(("true", "1", "yes", "on"), True) | dict.fromkeys(("false", "0", "no", "off"), False)


def _parse_bool(raw: str) -> bool:
    value = _BOOL_WORDS.get(raw.lower())
    if value is None:
        raise ValueError(f"expected a boolean, got {raw!r}")
    return value


# Keyed by field annotation, of a config or a run summary; a type missing
# from _RENDERERS renders with str.
_PARSERS = {
    int: int, float: float, str: str, bool: _parse_bool,
    tuple[float, ...]: lambda raw: tuple(float(part) for part in raw.split(",")) if raw else (),
}
_RENDERERS = {
    float: lambda v: repr(float(v)),
    float | None: lambda v: "none" if v is None else repr(float(v)),
    bool: lambda v: "true" if v else "false",
    tuple[float, ...]: lambda vs: ", ".join(repr(float(v)) for v in vs),
}


def _split_item(text: str, where: str) -> tuple[str, str]:
    """Split a ``key = value`` item into a known key and its raw value text."""
    key, eq, raw = text.partition("=")
    key = key.strip()
    if not eq:
        raise ConfigurationError(f"{where}: expected 'key = value', got {text!r}")
    if key not in CONFIG_KEYS:
        raise ConfigurationError(f"{where}: unknown config key {key!r}")
    return key, raw


def _parse_value(key: str, raw: str, where: str):
    """Parse the text of one value as its key's type, then run the key's rule."""
    try:
        value = _PARSERS[CONFIG_KEYS[key].type](raw.strip())
    except ValueError as exc:
        raise ConfigurationError(f"{where}: bad value for {key}: {exc}") from None
    _check_key(key, value, where)
    return value


def _render_value(key: str, value) -> str:
    return _RENDERERS.get(CONFIG_KEYS[key].type, str)(value)


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat ``key = value`` scenario format.

    Blank lines and ``#`` comments are skipped.  Unknown keys and malformed
    lines are reported with their line number.  Values follow each key's
    declared type; list-valued keys take comma separated floats.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        where = f"line {lineno}"
        key, raw = _split_item(stripped, where)
        if key in values:
            raise ConfigurationError(f"{where}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw, where)
    return _config_from(values)


def _config_from(values: dict[str, object]) -> ScenarioConfig:
    """The config with the given ``section.key`` values and defaults elsewhere."""
    return ScenarioConfig(**{CONFIG_KEYS[k].attr: v for k, v in values.items()})


def serialize_config(cfg: ScenarioConfig) -> str:
    """Render a config so that ``parse_config`` reproduces it exactly."""
    lines = ["# dra-sim scenario"]
    lines.extend(f"{key} = {_render_value(key, value)}" for key, value in config_items(cfg))
    return "\n".join(lines) + "\n"


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

# Each preset is the `section.key` values on which it differs from the
# ScenarioConfig defaults; tests/test_scenario.py keeps restated defaults out.
_FIG_DYN = {
    "seed": 11, "window": 99,
    "topology.kind": "cycle", "topology.cycle_ps": (0.2, 0.1, 0.05, 0.01),
    "topology.weight_lo": _W50[0], "topology.weight_hi": _W50[1],
    "maps.node.kind": "log_quantizer", "maps.link.kind": "log_quantizer",
}
_DISPATCH = {
    "n": 10, "b": 600.0, "eta": 0.05, "seed": 2,
    "topology.weight_lo": _W10[0], "topology.weight_hi": _W10[1],
    "costs.kind": "quadratic", "costs.penalty_weight": 40.0,
    "costs.a_lo": 0.2, "costs.a_hi": 0.8,
    "costs.b_lo": 2.0, "costs.b_hi": 6.0,
    "costs.box_lo": 20.0, "costs.box_hi": 110.0,
}
_PRESETS: dict[str, dict[str, object]] = {
    "fig_dyn": _FIG_DYN,
    "fig_dyn_logpenalty": _FIG_DYN | {"costs.penalty": "smooth_log"},
    "fig_fail": {
        "eta": 0.2, "horizon": 5000, "seed": 6, "window": 4,
        "topology.weight_lo": _W50[0], "topology.weight_hi": _W50[1],
        "adversity.p_fail": 0.5,
    },
    "fig_delay": {
        "eta": 0.5, "horizon": 5000, "seed": 6,
        "topology.weight_lo": _W50[0], "topology.weight_hi": _W50[1],
        "maps.link.kind": "log_quantizer",
        "adversity.tau_bar": 2,
    },
    "dispatch": _DISPATCH,
    "dispatch_uniform": _DISPATCH | {
        "costs.a_lo": 0.4, "costs.a_hi": 0.4,
        "costs.b_lo": 4.0, "costs.b_hi": 4.0,
        "init.mode": "random_simplex", "init.respect_boxes": True,
    },
    # Generator gradients sit near 60, so the link lattice has to be a few
    # tenths of a percent fine or quantization freezes the flows early.
    "dispatch_adversity": _DISPATCH | {
        "horizon": 5000,
        "maps.node.kind": "sign_power",
        "maps.link.kind": "log_quantizer", "maps.link.rho": 0.00390625,
        "adversity.p_fail": 0.5, "adversity.tau_bar": 3,
    },
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
    values = _PRESETS.get(name)
    if values is None:
        raise ConfigurationError(
            f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}"
        )
    return _config_from(values)


# --------------------------------------------------------------------------
# run records
# --------------------------------------------------------------------------


class TraceRecord(NamedTuple):
    """One sampled step of a run, as Python numbers.

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
    total: float = field(metadata={"key": "b"})  # rendered under its config key
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


_SUMMARY_TYPES = get_type_hints(RunSummary)


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
# Most held steps, and state elements, whose objective, gap and statistics are computed as one block.
_RECORD_ROWS, _RECORD_BLOCK = 64, 1 << 15


def _child_seed(master: int, tag: int, index: int = 0) -> int:
    """A derived 64-bit seed for a named purpose, stable across platforms."""
    ss = np.random.SeedSequence([int(master) & 0xFFFFFFFF, tag, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _build_graphs(cfg: ScenarioConfig) -> list[WeightedGraph]:
    wr = (cfg.topology_weight_lo, cfg.topology_weight_hi)
    if cfg.topology_kind == "er":
        return [erdos_renyi(cfg.n, cfg.topology_p, wr, seed=_child_seed(cfg.seed, _TAG_TOPOLOGY, 0))]
    if cfg.topology_kind == "cycle":
        return [
            erdos_renyi(cfg.n, p, wr, seed=_child_seed(cfg.seed, _TAG_TOPOLOGY, i))
            for i, p in enumerate(cfg.topology_cycle_ps)
        ]
    return [from_edge_list(read_input_text(cfg.topology_edges_file, "topology.edges_file"), expect_n=cfg.n)]


def _build_costs(cfg: ScenarioConfig) -> list[LocalCost]:
    shape = (cfg.costs_penalty_weight, cfg.costs_penalty_exponent, cfg.costs_penalty_sharpness)
    if cfg.costs_kind == "csv":
        costs = load_costs_csv(cfg.costs_csv, cfg.costs_penalty, *shape)
        if len(costs) != cfg.n:
            raise ConfigurationError(f"cost table has {len(costs)} rows, scenario says n={cfg.n}")
        return costs
    pen = _make_penalty(cfg.costs_penalty, cfg.costs_box_lo, cfg.costs_box_hi, *shape)
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
    First checks the config's cross-key rules (see ``ScenarioConfig``).
    """
    for key, spec in CONFIG_KEYS.items():
        if spec.cross_valid is not None and not spec.cross_valid(cfg):
            raise ConfigurationError(f"{key} must be {spec.cross_check}, got {getattr(cfg, spec.attr)!r}")
    graphs = _build_graphs(cfg)
    costs = _build_costs(cfg)
    node_map, link_map = _build_maps(cfg)
    return graphs, costs, node_map, link_map


def default_smoothness_domain(cfg: ScenarioConfig) -> tuple[float, float]:
    """The state interval over which u bounds the curvature of a scenario's costs.

    The penalty box padded by 20 percent when one is configured, otherwise a
    symmetric band around the per-agent share of the total.
    """
    if cfg.costs_penalty != "none":
        span = cfg.costs_box_hi - cfg.costs_box_lo
        return (cfg.costs_box_lo - 0.2 * span, cfg.costs_box_hi + 0.2 * span)
    mean = cfg.total / cfg.n
    pad = max(10.0, 4.0 * abs(mean))
    return (mean - pad, mean + pad)


# --------------------------------------------------------------------------
# the run loop
# --------------------------------------------------------------------------


def _certificate(cfg: ScenarioConfig, instance: tuple, domain: tuple[float, float] | None = None) -> tuple:
    """The step-rate certificate of a scenario, from its ``build_instance`` pieces (the costs may be a ``CostSet``).

    Returns the ``SpectralSummary`` of the union of the topology phases, the
    smoothness constant u over ``domain`` (by default
    ``default_smoothness_domain``), and the ``StepRateBound``, which is None
    when the union is disconnected.
    """
    graphs, costs, node_map, link_map = instance
    spec = spectral_summary(laplacian(union_graph(graphs)))
    u = smoothness_bound(costs, domain or default_smoothness_domain(cfg)).u
    if not spec.connected:
        return spec, u, None
    bound = step_rate_bound(
        node_map, link_map, spec.lambda2, spec.lambda_max, u, window=cfg.window, tau_bar=cfg.tau_bar
    )
    return spec, u, bound


def _book_block(cs: CostSet, held: list[tuple], total: float) -> np.ndarray:
    """The (6, rows) columns of held (x, grads, lo, hi) rows of consecutive finite steps.

    Its rows are each step's objective (``CostSet.row_totals`` of the
    stacked states), gap (the correctly rounded exact sum by ``_row_fsums``,
    less the total), dispersion norm(grads - grads.mean()), min, max and
    mean; each column is bit-equal to a one-row block's.
    """
    xs, gs, lo, hi = zip(*held)
    xs, gs = np.array(xs), np.array(gs)  # np.stack's rows, in one call
    dev = gs - (gs.sum(axis=1) / xs.shape[1])[:, None]
    gaps = [s - total for s in _row_fsums(xs)]
    dispersion = np.sqrt(np.vecdot(dev, dev))  # sqrt(g.dot(g)) of each row g, bit for bit
    return np.array([cs.row_totals(xs), gaps, dispersion, lo, hi, xs.sum(axis=1) / xs.shape[1]])


def _guard_floor(cs: CostSet, value: float, limit: float) -> float:
    """The largest m up to which ``run``'s guard ``cs.value_bound(m) - value > limit`` cannot hold, or -inf.

    ``value_bound`` is nondecreasing in m up to its rounding: s = max(1, m + shift) is, rounding being
    monotone, and so are its terms c * s**e (c >= 0, e >= 1) and their sum, but for a few ulps of pow and of
    the sum, far below the relative margin 1e-6.  So where value_bound(m) * (1 + 1e-6) - value > limit is
    false, the guard is false at every m' <= m; the bisection runs over the bit patterns of the doubles >= 0,
    which they order as the doubles.
    """
    double = lambda bits: float(np.int64(bits).view(np.float64))
    first = bisect.bisect_left(range(0x7FF0000000000000), True,  # the bits of +0.0 up to inf, excluded
                               key=lambda bits: cs.value_bound(double(bits)) * (1.0 + 1e-6) - value > limit)
    return double(first - 1) if first else -math.inf


def run(cfg: ScenarioConfig) -> RunResult:
    """Execute a scenario and return its trace, summary, and final state.

    The trace samples every ``record_stride`` steps plus the terminal step.
    Divergence (non-finite state, or the residual exceeding a billion times
    its initial value) stops the run and is flagged in the summary together
    with the ratio of the configured step rate to the analytical bound.
    Finite steps are held for one block of steps at most, whose columns (objective, gap,
    dispersion, min, max, mean; gap and objective are exact sums, +-inf only past the double
    range) ``_book_block`` returns; the blocks, a nan column for a last state that is not
    finite, and the links up at each step are joined once the loop is over.
    The objective is evaluated at step 0, where it sets the divergence limit, and where
    ``CostSet.value_bound``, called above ``_guard_floor`` only, cannot rule divergence out;
    each step's live links come from one ``_link_plan``.
    """
    instance = build_instance(cfg)
    graphs, costs, node_map, link_map = instance
    cs = CostSet(costs)

    oracle = central_solve(cs, cfg.total, tol=1e-9, mode="penalized")

    boxes = [(cfg.costs_box_lo, cfg.costs_box_hi)] * cfg.n if cfg.init_respect_boxes else None
    x0 = feasible_init(cfg.n, cfg.total, cfg.init_mode, seed=_child_seed(cfg.seed, _TAG_INIT), boxes=boxes)

    adv_seed = cfg.adversity_seed if cfg.adversity_seed >= 0 else cfg.seed
    schedule = DelaySchedule(cfg.tau_bar, cfg.delay_mode, seed=_child_seed(adv_seed, _TAG_DELAY))
    fail_rng = np.random.default_rng([_child_seed(adv_seed, _TAG_FAIL), 0xFA11])
    plan = _link_plan(graphs, cfg.topology_switch_period, cfg.horizon, cfg.p_fail, fail_rng, schedule)

    node_counter, link_counter = ClampCounter(), ClampCounter()

    state = init_delayed_state(x0, cfg.tau_bar, cs, link_map)
    horizon = cfg.horizon
    blocks: list[np.ndarray] = []  # the columns of each booked block of steps
    links: list[int] = []  # links up at each step taken
    limit = 1e9 * (abs(cs.total_value(x0) - oracle.value) + 1.0)  # the residual past which a run diverges
    floor = _guard_floor(cs, oracle.value, limit)  # where max|x_i| <= floor, value_bound cannot trip the guard
    active = graphs[0].edge_count  # links up at the last step taken, which the final step repeats
    held: list[tuple] = []  # (x, grads, lo, hi) of finite steps whose columns wait
    block = max(1, min(_RECORD_ROWS, _RECORD_BLOCK // cfg.n))
    least, most = np.minimum.reduce, np.maximum.reduce  # x.min() and x.max() without their Python wrappers

    for k in range(horizon + 1):
        x = state.x
        lo, hi = float(least(x)), float(most(x))  # nan or infinite unless x is finite
        finite = math.isfinite(lo) and math.isfinite(hi)
        spread, diverged = math.nan, not finite
        if finite:
            grads = cs.grad(x)
            spread = float(most(grads) - least(grads))
            if k and max(-lo, hi) > floor and cs.value_bound(max(-lo, hi)) - oracle.value > limit:
                diverged = cs.total_value(x) - oracle.value > limit
            held.append((x, grads, lo, hi))
        done = diverged or spread <= cfg.early_stop_spread or k == horizon
        if held and (done or len(held) == block):
            blocks.append(_book_block(cs, held, cfg.total))
            held = []
        if done:
            break
        live = next(plan)
        active = len(live[0])
        links.append(active)
        state = step_delayed(
            state, live, cs, node_map, link_map, cfg.eta, grads=grads, node_counter=node_counter,
            link_counter=link_counter,
        )
        del live  # so that a one-step block's arrays go before the next step is booked

    executed = k
    links.append(active)
    if not finite:
        blocks.append(np.full((6, 1), math.nan))
    cols = np.concatenate(blocks, axis=1)  # one column per step, 0 to executed
    f_values = cols[0]
    residuals = f_values - oracle.value
    reached = np.flatnonzero(residuals <= 0.01 * residuals[0])
    # Fraction of fixed-length windows over which the objective decreased.
    win = cfg.window + cfg.tau_bar + 1
    if executed >= win:
        starts = f_values[: executed - win + 1]
        good = np.count_nonzero(f_values[win:] <= starts + 1e-12)
        frac_decreasing = float(good / len(starts))
    else:
        frac_decreasing = float("nan")

    ratio = None
    if diverged:
        with contextlib.suppress(DomainError):  # no certificate: the ratio stays unset
            bound = _certificate(cfg, (graphs, cs, node_map, link_map))[2]
            ratio = None if bound is None else cfg.eta / bound.eta_max
    summary = RunSummary(
        n=cfg.n,
        total=cfg.total,
        eta=cfg.eta,
        horizon=horizon,
        executed_steps=executed,
        initial_residual=float(residuals[0]),
        final_residual=float(residuals[-1]),
        final_spread=spread,
        steps_to_threshold=int(reached[0]) if reached.size else -1,
        max_feasibility_gap=float(np.fmax.reduce(np.abs(cols[1]), initial=0.0)),  # skips a non-finite last state's nan
        fraction_decreasing_windows=frac_decreasing,
        node_clamp_events=node_counter.events,
        link_clamp_events=link_counter.events,
        early_stopped=spread <= cfg.early_stop_spread and executed < horizon,
        diverged=diverged,
        diverged_step=executed if diverged else -1,
        eta_bound_ratio=ratio,
        oracle_value=oracle.value,
        oracle_multiplier=oracle.multiplier,
    )
    rows = [*range(0, executed, cfg.record_stride), executed]
    picked = np.concatenate((cols[:, :executed:cfg.record_stride], cols[:, executed:]), axis=1)  # rows' columns
    up = links[:executed:cfg.record_stride] + links[executed:]
    trace = list(map(TraceRecord, rows, (picked[0] - oracle.value).tolist(), *picked[1:].tolist(), up))
    return RunResult(config=cfg, trace=trace, summary=summary, final_state=x.copy())


# --------------------------------------------------------------------------
# serialization of outputs
# --------------------------------------------------------------------------

_TRACE_HEADER = "k,residual,feasibility_gap,dispersion,state_min,state_max,state_mean,active_links"


def trace_to_csv(trace: list[TraceRecord]) -> str:
    """Render a trace of Python numbers, as ``run`` gives, with shortest-round-trip floats."""
    lines = [_TRACE_HEADER]
    lines.extend("%s,%r,%r,%r,%r,%r,%r,%s" % r for r in trace)
    return "\n".join(lines) + "\n"


def summary_to_text(summary: RunSummary) -> str:
    """Flat key=value rendering of a run summary, one line per field in order."""
    lines = []
    for f in fields(RunSummary):
        render = _RENDERERS.get(_SUMMARY_TYPES[f.name], str)
        lines.append(f"{f.metadata.get('key', f.name)}={render(getattr(summary, f.name))}")
    return "\n".join(lines) + "\n"


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
    is dominated by the per-link transform: the best of three rounds over all
    sizes of ``steps`` updates each, after a short warmup, so that a slow
    phase of the host slows a round, not a size.  One update touches every link a constant
    number of times, so the expected slope is 2 for dense graphs (link
    probability ``density`` at every size) and below 2 when
    ``constant_degree`` fixes the expected degree instead.
    """
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ConfigurationError(f"scaling_benchmark needs at least two distinct sizes, got {tuple(sizes)}")
    if steps < 10:
        raise ConfigurationError(f"steps must be >= 10 for stable timing, got {steps}")
    if not 0.0 < density <= 1.0:
        raise ConfigurationError(f"density must be in (0, 1], got {density}")
    if constant_degree is not None and constant_degree <= 0.0:
        raise ConfigurationError(f"constant_degree must be positive, got {constant_degree}")
    node_map = log_quantizer(1.0 / 1024.0)
    link_map = identity_map()
    runs = []  # each size's (x after the warmup, graph, costs, eta)
    for n in sizes:
        p = density if constant_degree is None else min(1.0, constant_degree / (n - 1))
        g = erdos_renyi(n, p, (0.5, 1.0), seed=_child_seed(seed, _TAG_TOPOLOGY, n))
        rng = np.random.default_rng([_child_seed(seed, _TAG_COSTS, n), 0xBE7C])
        costs = [LocalCost("quadratic", a, 0.0, 0.0) for a in 0.5 + rng.random(n)]
        cs = CostSet(costs)
        lam = spectral_summary(laplacian(g)).lambda_max
        eta = 0.5 / max(lam, 1.0)
        x = feasible_init(n, float(n), "random_simplex", seed=seed)
        for _ in range(5):
            x = step_delay_free(x, g, cs, node_map, link_map, eta)
        runs.append((x, g, cs, eta))
    timings = [math.inf] * len(sizes)
    for _ in range(3):  # rounds
        for i, (x, g, cs, eta) in enumerate(runs):
            t0 = time.perf_counter()
            for _ in range(steps):
                x = step_delay_free(x, g, cs, node_map, link_map, eta)
            timings[i] = min(timings[i], (time.perf_counter() - t0) / steps)
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
