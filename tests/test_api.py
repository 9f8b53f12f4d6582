"""The public API: the names ``dra_sim`` re-exports, the CLI's options, and its version.

Removing or adding a public name or a CLI option is an API change: it shows
here first, together with a version bump.
"""

import argparse
import importlib
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
