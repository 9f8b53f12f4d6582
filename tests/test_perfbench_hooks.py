"""The hooks of ``perfbench/`` into the package still hold.

``perfbench/run.py --trace 1`` wraps functions by (namespace, attribute)
and attributes the ``apply_map_array`` calls inside ``step_delayed`` by
their order, so a refactor of the kernel could break it with no other test
failing.
"""

import importlib.util
import inspect
from dataclasses import replace
from pathlib import Path

import numpy as np

from dra_sim import dynamics, erdos_renyi, identity_map, log_quantizer, objective, quadratic_cost, scenario

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


def test_run_calls_per_step(monkeypatch):
    """Over one fig_delay run, the calls that ``--trace 1`` counts per step.

    ``scenario.step_delayed`` is looked up once per executed step, each step
    maps the gradients (length n) and then the link differences (one per
    link), and the loop evaluates ``CostSet.grad`` once per iteration; the
    oracle's calls are counted apart.
    """
    cfg = replace(scenario.preset("fig_delay"), horizon=300)
    node_map, link_map = scenario.build_instance(cfg)[2:]
    steps: list[list] = []
    grads = {"loop": 0, "oracle": 0}
    in_oracle = []

    real_step = scenario.step_delayed
    real_map = dynamics.apply_map_array
    real_grad = objective.CostSet.grad
    real_solve = scenario.central_solve

    def step(*args, **kwargs):
        steps.append([])
        return real_step(*args, **kwargs)

    def apply_map(sector_map, values, counter=None):
        steps[-1].append((sector_map, len(values)))
        return real_map(sector_map, values, counter)

    def grad(self, x):
        grads["oracle" if in_oracle else "loop"] += 1
        return real_grad(self, x)

    def solve(*args, **kwargs):
        in_oracle.append(True)
        try:
            return real_solve(*args, **kwargs)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(scenario, "step_delayed", step)
    monkeypatch.setattr(dynamics, "apply_map_array", apply_map)
    monkeypatch.setattr(objective.CostSet, "grad", grad)
    monkeypatch.setattr(scenario, "central_solve", solve)
    result = scenario.run(cfg)

    executed = result.summary.executed_steps
    assert executed == 300 and not result.summary.diverged
    assert len(steps) == executed
    links = scenario.build_instance(cfg)[0][0].edge_count
    assert all(calls == [(link_map, cfg.n), (node_map, links)] for calls in steps)
    assert grads["loop"] == executed + 1
    assert grads["oracle"] > 0
