"""The public API: the names ``dra_sim`` re-exports, their parameters, the CLI's options, and its version.

Removing or adding a public name, a parameter of a public callable or a CLI
option is an API change: it shows here first, together with a version bump.
"""

import argparse
import importlib
import inspect
from dataclasses import fields
from pathlib import Path

import pytest

import dra_sim

PUBLIC = [
    "BoxPenalty", "CONFIG_KEYS", "ClampCounter", "ConfigurationError", "CostSet", "DelaySchedule",
    "DelayedNetworkState", "DomainError", "DraSimError", "InfeasibilityError", "LocalCost",
    "McConnectivity", "NumericError", "PRESET_NAMES", "PRESET_SWEEPS", "RunResult", "RunSummary",
    "ScenarioConfig", "SectorMap", "SmoothLogPenalty", "TraceRecord", "WeightedGraph", "__version__",
    "apply_key", "apply_map_array", "build_instance", "central_solve", "config_items",
    "default_smoothness_domain", "effective_failure", "er_threshold", "erdos_renyi", "feasible_init",
    "first_order_sector_params", "from_edge_list", "identity_map", "init_delayed_state", "is_connected",
    "laplacian", "load_costs_csv", "log_quantizer", "max_delay_bound", "mc_union_connectivity",
    "min_window", "parse_config", "preset", "quadratic_cost", "quartic_cost", "run", "saturation",
    "scaling_benchmark", "serialize_config", "sign_power", "smoothness_bound", "spectral_summary",
    "step_delay_free", "step_delayed", "step_rate_bound", "step_rate_from_sector", "summary_to_text",
    "to_edge_list", "trace_to_csv", "union_graph", "verify_sector",
]

# The modules whose __all__ the package star-imports.
REEXPORTED = ("errors", "graph", "mappings", "objective", "percolation", "dynamics", "scenario")

# Helpers that no caller in the package, the CLI or the benchmark used; each
# test moved to the form the package runs (see CHANGES.md).
REMOVED = [
    "apply_map", "sector_params", "edge_flow", "equilibrium_check", "EquilibriumReport",
    "gradient_dispersion", "sector_diagnostics", "SectorDiagnostics", "cost_value", "cost_grad",
    "cost_curvature", "aggregate_cost", "dispersion", "diameter", "failure_mask",
]

# Types callers receive but never build: importable from their module only.
RESULT_TYPES = {
    "SpectralSummary": "graph",
    "SectorCheck": "mappings",
    "SmoothnessEstimate": "objective",
    "CentralSolution": "objective",
    "PercolationProfile": "percolation",
    "StepRateBound": "dynamics",
    "BenchmarkResult": "scenario",
}


# The parameter names of every re-exported callable but the error classes (which take a message, as
# Exception does), and of DelaySchedule's public methods.  step_delayed takes a step's links, which
# DelaySchedule.links builds for one step, in place of a graph, a schedule and a failure mask (0.7.0).
SIGNATURES = {
    "BoxPenalty": ["lo", "hi", "weight", "exponent"],
    "ClampCounter": ["events"],
    "CostSet": ["costs"],
    "DelaySchedule": ["tau_bar", "mode", "seed"],
    "DelaySchedule.draw": ["self", "step", "ei", "ej", "m"],
    "DelaySchedule.links": ["self", "state", "graph", "failure_keep"],
    "DelayedNetworkState": ["x", "step", "pending"],
    "LocalCost": ["kind", "p1", "p2", "p3", "penalty"],
    "McConnectivity": ["fraction", "wilson_low", "wilson_high", "trials", "successes"],
    "RunResult": ["config", "trace", "summary", "final_state"],
    "RunSummary": [
        "n", "total", "eta", "horizon", "executed_steps", "initial_residual", "final_residual", "final_spread",
        "steps_to_threshold", "max_feasibility_gap", "fraction_decreasing_windows", "node_clamp_events",
        "link_clamp_events", "early_stopped", "diverged", "diverged_step", "eta_bound_ratio", "oracle_value",
        "oracle_multiplier",
    ],
    "ScenarioConfig": [
        "n", "total", "eta", "horizon", "seed", "record_stride", "early_stop_spread", "window", "topology_kind",
        "topology_p", "topology_cycle_ps", "topology_switch_period", "topology_weight_lo", "topology_weight_hi",
        "topology_edges_file", "costs_kind", "costs_scale_lo", "costs_scale_hi", "costs_target_lo",
        "costs_target_hi", "costs_a_lo", "costs_a_hi", "costs_b_lo", "costs_b_hi", "costs_c", "costs_csv",
        "costs_penalty", "costs_box_lo", "costs_box_hi", "costs_penalty_weight", "costs_penalty_exponent",
        "costs_penalty_sharpness", "node_kind", "node_rho", "node_cap", "node_d_min", "node_d_max", "node_nu",
        "link_kind", "link_rho", "link_cap", "link_d_min", "link_d_max", "link_nu", "p_fail", "tau_bar",
        "delay_mode", "adversity_seed", "init_mode", "init_respect_boxes",
    ],
    "SectorMap": ["kind", "kappa", "big_k", "abs_domain", "rho", "cap", "exponent"],
    "SmoothLogPenalty": ["lo", "hi", "sharpness"],
    "TraceRecord": [
        "step", "residual", "feasibility_gap", "dispersion", "state_min", "state_max", "state_mean", "active_links",
    ],
    "WeightedGraph": ["n", "weights"],
    "apply_key": ["cfg", "key", "value"],
    "apply_map_array": ["m", "z", "counter"],
    "build_instance": ["cfg"],
    "central_solve": ["costs", "total", "boxes", "tol", "mode"],
    "config_items": ["cfg"],
    "default_smoothness_domain": ["cfg"],
    "effective_failure": ["p_fail", "window"],
    "er_threshold": ["n", "p", "convention"],
    "erdos_renyi": ["n", "p", "weight_range", "seed"],
    "feasible_init": ["n", "total", "mode", "seed", "boxes"],
    "first_order_sector_params": ["m"],
    "from_edge_list": ["text", "expect_n"],
    "identity_map": [],
    "init_delayed_state": ["x0", "tau_bar", "costs", "link_map"],
    "is_connected": ["g"],
    "laplacian": ["g"],
    "load_costs_csv": ["path", "penalty", "penalty_weight", "penalty_exponent", "penalty_sharpness"],
    "log_quantizer": ["rho"],
    "max_delay_bound": ["node_map", "link_map", "lambda2", "lambda_max", "u", "window", "eta"],
    "mc_union_connectivity": ["base", "p_fail", "window", "trials", "seed"],
    "min_window": ["p_fail", "threshold"],
    "parse_config": ["text"],
    "preset": ["name"],
    "quadratic_cost": ["a", "b", "c", "penalty"],
    "quartic_cost": ["scale", "target", "penalty"],
    "run": ["cfg"],
    "saturation": ["cap", "d_max"],
    "scaling_benchmark": ["sizes", "steps", "density", "seed", "constant_degree"],
    "serialize_config": ["cfg"],
    "sign_power": ["nu", "d_min", "d_max"],
    "smoothness_bound": ["costs", "domain"],
    "spectral_summary": ["lap"],
    "step_delay_free": ["x", "graph", "costs", "node_map", "link_map", "eta", "grads", "node_counter", "link_counter"],
    "step_delayed": ["state", "links", "costs", "node_map", "link_map", "eta", "grads", "node_counter", "link_counter"],
    "step_rate_bound": ["node_map", "link_map", "lambda2", "lambda_max", "u", "window", "tau_bar"],
    "step_rate_from_sector": [
        "kappa_node", "big_k_node", "kappa_link", "big_k_link", "lambda2", "lambda_max", "u", "window", "tau_bar",
    ],
    "summary_to_text": ["summary"],
    "to_edge_list": ["g"],
    "trace_to_csv": ["trace"],
    "union_graph": ["graphs"],
    "verify_sector": ["m", "samples", "seed"],
}

# Every subcommand's option strings (a positional by its name), in declaration order.
CLI_OPTIONS = {
    "run": ["-h", "--help", "--config", "--preset", "--set", "--trace", "--summary", "--force"],
    "preset": ["-h", "--help", "name", "--list", "--write", "--set", "--force"],
    "sweep": ["-h", "--help", "--config", "--preset", "--set", "--sweep", "--out-dir", "--force"],
    "percolation": ["-h", "--help", "--n", "--p", "--p-fail", "--window", "--convention", "--trials", "--seed"],
    "bounds": ["-h", "--help", "--config", "--preset", "--set", "--domain", "--lambda2", "--lambda-max", "--u"],
    "bench": ["-h", "--help", "--sizes", "--steps", "--density", "--degree", "--seed"],
}


def test_cli_options_are_pinned():
    from dra_sim import cli

    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for a in p._actions for s in (a.option_strings or [a.dest])] for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS


def test_public_names_are_pinned():
    assert len(PUBLIC) <= 65
    assert sorted(dra_sim.__all__) == PUBLIC
    assert all(hasattr(dra_sim, name) for name in PUBLIC)


def test_signatures_are_pinned():
    public = {name: getattr(dra_sim, name) for name in PUBLIC}
    callables = {name: obj for name, obj in public.items()
                 if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception))}
    methods = {f"DelaySchedule.{name}": obj for name, obj in vars(dra_sim.DelaySchedule).items()
               if callable(obj) and not name.startswith("_")}
    got = {name: list(inspect.signature(obj).parameters) for name, obj in {**callables, **methods}.items()}
    assert got == SIGNATURES


def test_no_two_modules_export_one_name():
    seen = {}
    for module in REEXPORTED:
        for name in importlib.import_module(f"dra_sim.{module}").__all__:
            assert name not in seen, f"{name} is in both {seen[name]}.__all__ and {module}.__all__"
            seen[name] = module
    assert sorted([*seen, "__version__"]) == PUBLIC


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_is_gone(name):
    assert not hasattr(dra_sim, name)
    assert all(not hasattr(importlib.import_module(f"dra_sim.{m}"), name) for m in REEXPORTED)


def test_delayed_state_fields_are_pinned():
    # The ring depth is len(pending); the state keeps no second copy of tau_bar.
    assert [f.name for f in fields(dra_sim.DelayedNetworkState)] == ["x", "step", "pending"]


def test_central_solution_fields_are_pinned():
    # The oracle reports its KKT residual beside the gap, and iterations counts its multipliers (0.8.0).
    assert [f.name for f in fields(dra_sim.objective.CentralSolution)] == [
        "x", "multiplier", "value", "mode", "gap", "iterations", "kkt_residual"]


@pytest.mark.parametrize("name, module", sorted(RESULT_TYPES.items()))
def test_result_type_stays_in_its_module(name, module):
    mod = importlib.import_module(f"dra_sim.{module}")
    assert isinstance(getattr(mod, name), type)
    assert name not in mod.__all__
    assert not hasattr(dra_sim, name)


def test_version_matches_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as f:
        assert tomllib.load(f)["project"]["version"] == dra_sim.__version__
