"""The hooks of ``perfbench/`` into the package still hold.

``perfbench/run.py --trace 1`` wraps functions by (namespace, attribute)
and attributes the ``apply_map_array`` calls inside ``step_delayed`` by
their order, so a refactor of the kernel could break it with no other test
failing.
"""

import importlib.util
import inspect
from pathlib import Path

import numpy as np

from dra_sim import dynamics, erdos_renyi, identity_map, log_quantizer, quadratic_cost

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_tracing()._targets()
    assert targets
    for name, places, _ in targets:
        for owner, attr in places:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_init_delayed_state_keeps_its_signature():
    params = list(inspect.signature(dynamics.init_delayed_state).parameters)
    assert params == ["x0", "tau_bar", "costs", "link_map"]


def test_step_applies_link_map_before_node_map(monkeypatch):
    g = erdos_renyi(8, 0.6, (0.5, 1.0), seed=1)
    costs = [quadratic_cost(1.0) for _ in range(8)]
    link_map, node_map = identity_map(), log_quantizer(0.25)
    calls = []
    real = dynamics.apply_map_array

    def recording(sector_map, values, counter=None):
        calls.append((sector_map, len(values)))
        return real(sector_map, values, counter)

    monkeypatch.setattr(dynamics, "apply_map_array", recording)
    x = np.arange(8, dtype=float)
    dynamics.step_delay_free(x, g, costs, node_map, link_map, 0.1)
    assert calls == [(link_map, 8), (node_map, g.edge_count)]
