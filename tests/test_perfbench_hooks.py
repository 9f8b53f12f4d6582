"""The hooks of ``perfbench/`` into the package still hold.

``perfbench/run.py --trace 1`` wraps functions by (namespace, attribute)
and attributes the ``apply_map_array`` calls inside ``step_delayed`` by
their order, so a refactor of the kernel could break it with no other test
failing.  It counts one ``step_delayed`` span per executed step, so
``scenario.run`` calls that public name, which is itself the kernel: it
takes a step's links, with no wrapper or second kernel beside it.
"""

import importlib.util
import inspect
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from dra_sim import cli, dynamics, erdos_renyi, identity_map, log_quantizer, objective, quadratic_cost, scenario

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_module(name: str, filename: str):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = load_module("perfbench_tracing", "tracing.py")._targets()
    assert targets
    for name, places, _ in targets:
        for owner, attr in places:
            assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} is gone"


def test_init_delayed_state_keeps_its_signature():
    params = list(inspect.signature(dynamics.init_delayed_state).parameters)
    assert params == ["x0", "tau_bar", "costs", "link_map"]


def test_traced_step_is_the_kernel():
    assert scenario.step_delayed is dynamics.step_delayed
    assert list(inspect.signature(dynamics.step_delayed).parameters)[:2] == ["state", "links"]


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
    """Over one delayed run, the calls that ``--trace 1`` counts per step.

    ``scenario.step_delayed`` is looked up once per executed step, each step
    maps the gradients (length n) and then the differences over the step's
    live links, and the loop evaluates ``CostSet.grad`` once per iteration;
    the oracle's calls are counted apart.  fig_delay keeps every link up;
    under dispatch_adversity's failures the node map sees each step's live
    link count, which the trace records.  Runs that stop before the horizon
    (fig_fail's early stop, the pinned divergence) take no step past their
    stop.  The loop evaluates ``CostSet.total_value`` at step 0 and then
    only at the steps whose max|x_i| lies above the run's floor from
    ``scenario._guard_floor``.
    """
    steps: list[list] = []
    grads = {"loop": 0, "oracle": 0}
    values = {"loop": 0, "oracle": 0}
    peaks_checked: list[float] = []  # max|x_i| of each state whose total_value the loop evaluates
    floors: list[float] = []
    in_oracle = []

    real_step = scenario.step_delayed
    real_map = dynamics.apply_map_array
    real_grad = objective.CostSet.grad
    real_value = objective.CostSet.total_value
    real_solve = scenario.central_solve
    real_floor = scenario._guard_floor

    def step(*args, **kwargs):
        steps.append([])
        return real_step(*args, **kwargs)

    def apply_map(sector_map, values, counter=None):
        steps[-1].append((sector_map, len(values)))
        return real_map(sector_map, values, counter)

    def grad(self, x):
        grads["oracle" if in_oracle else "loop"] += 1
        return real_grad(self, x)

    def total_value(self, x):
        values["oracle" if in_oracle else "loop"] += 1
        if not in_oracle:
            peaks_checked.append(float(np.abs(x).max()))
        return real_value(self, x)

    def guard_floor(*args):
        floors.append(real_floor(*args))
        return floors[-1]

    def solve(*args, **kwargs):
        in_oracle.append(True)
        try:
            return real_solve(*args, **kwargs)
        finally:
            in_oracle.pop()

    monkeypatch.setattr(scenario, "step_delayed", step)
    monkeypatch.setattr(dynamics, "apply_map_array", apply_map)
    monkeypatch.setattr(objective.CostSet, "grad", grad)
    monkeypatch.setattr(objective.CostSet, "total_value", total_value)
    monkeypatch.setattr(scenario, "central_solve", solve)
    monkeypatch.setattr(scenario, "_guard_floor", guard_floor)
    for name, p_fail in (("fig_delay", 0.0), ("dispatch_adversity", 0.5)):
        cfg = replace(scenario.preset(name), horizon=300)
        assert cfg.p_fail == p_fail
        steps.clear()
        grads.update(loop=0, oracle=0)
        values.update(loop=0, oracle=0)
        result = scenario.run(cfg)
        graphs, _, node_map, link_map = scenario.build_instance(cfg)

        executed = result.summary.executed_steps
        assert executed == 300 and not result.summary.diverged
        assert len(steps) == executed
        live = [r.active_links for r in result.trace[:executed]]
        if p_fail == 0.0:
            assert set(live) == {graphs[0].edge_count}
        else:
            assert len(set(live)) > 1
        assert steps == [[(link_map, cfg.n), (node_map, links)] for links in live]
        assert grads["loop"] == executed + 1
        assert grads["oracle"] > 0
        if name == "fig_delay":
            assert values == {"loop": 1, "oracle": 1}

    fig_fail = scenario.preset("fig_fail")
    diverge = replace(scenario.preset("fig_delay"), eta=8.0, horizon=400, p_fail=0.3)
    for cfg, stop in ((fig_fail, "early_stopped"), (diverge, "diverged")):
        steps.clear()
        grads.update(loop=0, oracle=0)
        values.update(loop=0, oracle=0)
        peaks_checked.clear()
        result = scenario.run(cfg)
        summary = result.summary
        executed = summary.executed_steps
        assert getattr(summary, stop) and executed < cfg.horizon
        assert len(steps) == executed
        assert grads["loop"] == executed + 1
        peaks = [max(-r.state_min, r.state_max) for r in result.trace]  # max|x_i|, nan for a state not finite
        assert [r.step for r in result.trace] == list(range(executed + 1))
        assert peaks_checked[1:] == [m for m in peaks[1:] if m > floors[-1]]
        assert values["loop"] == len(peaks_checked)
    assert values["loop"] > 1


def test_traced_run_counts_match_its_trace(monkeypatch, tmp_path):
    """The checks of ``perfbench/run.py --trace 1``, through its own modules.

    One span of ``step_delayed`` per executed step, and the node-map spans
    of those steps sum to the live links of the trace.
    """
    tracing = load_module("perfbench_tracing", "tracing.py")
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    layers = load_module("perfbench_layers", "layers.py")
    cfg = replace(scenario.preset("dispatch_adversity"), horizon=200)
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    try:
        result = scenario.run(cfg)
        counts = layers.Spans(tracer.take(), tracer.names).counts()
    finally:
        tracer.uninstall()
    executed = result.summary.executed_steps
    assert executed == 200
    assert counts["steps"] == executed
    assert counts["link_flows"] == sum(r.active_links for r in result.trace if r.step < executed)
    assert counts["grad_loop"] == executed + 1


def test_traced_sweep_counts_match_its_jobs(monkeypatch, tmp_path, capsys):
    """``--trace 1`` counts a sweep's ``step_delayed`` spans against its jobs' executed steps.

    With one worker the jobs run in this process, so the tracer sees every span.
    """
    tracing = load_module("perfbench_tracing", "tracing.py")
    monkeypatch.setitem(sys.modules, "tracing", tracing)
    layers = load_module("perfbench_layers", "layers.py")
    monkeypatch.setenv("DRA_SIM_THREADS", "1")
    out = tmp_path / "sweep"
    tracer = tracing.Tracer(tmp_path / "spool")
    tracer.install()
    try:
        code = cli.main(["sweep", "--preset", "dispatch_adversity", "--set", "horizon=200",
                         "--sweep", "adversity.p_fail=0.5,0.92", "--out-dir", str(out)])
        counts = layers.Spans(tracer.take(), tracer.names).counts()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    executed = []
    for job in range(2):
        summary = dict(line.split("=", 1) for line in (out / f"summary_{job:03d}.txt").read_text().splitlines())
        executed.append(int(summary["executed_steps"]))
    assert counts["steps"] == sum(executed) == 400
