"""Per-layer metrics from the spans of one traced pass.

Times named ``*.s`` are seconds summed over the pass; ``us_per_*`` and
``ns_per_*`` are means; ``self`` times exclude the spans of traced callees.
Counts are exact and repeat for one seed.  A metric of a layer the workload
never calls reads 0.
"""

from __future__ import annotations

import statistics

import numpy as np

from dra_sim import scenario

from tracing import RUN, SETUP_NAMES

PER_LAYER = [
    # (name, unit, better)
    ("scenario.steps", "count", "lower"),
    ("scenario.run.self_us_per_step", "us", "lower"),
    *[(f"scenario.run_s.{p}", "s", "lower") for p in scenario.PRESET_NAMES],
    ("scenario.layer_calls_per_step", "count/step", "lower"),
    ("scenario.build_instance.s", "s", "lower"),
    ("scenario.trace_to_csv.us_per_row", "us", "lower"),
    ("scenario.output_bytes", "B", "lower"),
    ("dynamics.step_delayed.self_us_per_step", "us", "lower"),
    ("dynamics.step_delayed.us_p50", "us", "lower"),
    ("dynamics.step_delayed.us_p99", "us", "lower"),
    ("dynamics.DelaySchedule.draw.us_per_call", "us", "lower"),
    ("dynamics.link_flows", "count", "lower"),
    ("dynamics.ns_per_link_flow", "ns", "lower"),
    ("dynamics.init.s", "s", "lower"),
    ("objective.CostSet.grad.calls_loop", "count", "lower"),
    ("objective.CostSet.grad.calls_oracle", "count", "lower"),
    ("objective.CostSet.grad.us_per_call", "us", "lower"),
    ("objective.CostSet.total_value.us_per_call", "us", "lower"),
    ("objective.central_solve.s", "s", "lower"),
    ("objective.central_solve.iterations", "count", "lower"),
    ("objective.smoothness_bound.s", "s", "lower"),
    ("mappings.apply_map_array.link_us_per_call", "us", "lower"),
    ("mappings.apply_map_array.node_us_per_call", "us", "lower"),
    ("mappings.clamp_events", "count", "lower"),
    ("graph.erdos_renyi.s", "s", "lower"),
    ("graph.spectral_summary.s", "s", "lower"),
    ("graph.dense_bytes", "B_computed", "lower"),
    ("percolation.mc_union_connectivity.trials_per_s", "1/s", "higher"),
    ("cli.sweep.job_s_p50", "s", "lower"),
    ("cli.sweep.job_s_max", "s", "lower"),
    ("cli.sweep.pool_utilization", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
]

class Spans:
    """A span table with its derived columns: duration, self time, phase flags."""

    def __init__(self, table: np.ndarray, names: list[str]):
        self.t = table
        self.ids = {name: i for i, name in enumerate(names)}
        n = len(table)
        parent = table["parent"]
        self.dur = (table["end"] - table["start"]).astype(float)
        has = parent >= 0
        self.self_ns = self.dur - np.bincount(parent[has], weights=self.dur[has], minlength=n)
        # loop: in a run's step loop (not under its set-up calls);
        # oracle: under a central_solve call.
        name_l, par_l = table["name"].tolist(), parent.tolist()
        run_id = self.ids.get(RUN, -1)
        oracle_id = self.ids.get("objective.central_solve", -1)
        setup_ids = {self.ids[s] for s in SETUP_NAMES if s in self.ids}
        loop = [False] * n
        oracle = [False] * n
        for i in range(n):
            p = par_l[i]
            if p >= 0:
                loop[i] = name_l[i] not in setup_ids if name_l[p] == run_id else loop[p]
                oracle[i] = oracle[p] or name_l[i] == oracle_id
            else:
                oracle[i] = name_l[i] == oracle_id
        self.loop = np.array(loop, dtype=bool)
        self.oracle = np.array(oracle, dtype=bool)
        # Inside step_delayed the link map comes first (length n), then the
        # node map over the active links.
        step = self.mask("dynamics.step_delayed")
        apply_idx = np.flatnonzero(self.mask("mappings.apply_map_array") & has)
        apply_idx = apply_idx[step[parent[apply_idx]]]
        _, first = np.unique(parent[apply_idx], return_index=True)
        self.link_apply = np.zeros(n, dtype=bool)
        self.link_apply[apply_idx[first]] = True
        self.node_apply = np.zeros(n, dtype=bool)
        self.node_apply[apply_idx] = True
        self.node_apply &= ~self.link_apply

    def mask(self, name: str) -> np.ndarray:
        return self.t["name"] == self.ids.get(name, -1)

    def total_s(self, *names: str) -> float:
        return float(sum(self.dur[self.mask(n)].sum() for n in names)) / 1e9

    def mean_us(self, sel: np.ndarray) -> float:
        return float(self.dur[sel].mean()) / 1e3 if sel.any() else 0.0

    def counts(self) -> dict[str, int]:
        """The exact counts, which repeat for one seed."""
        grad = self.mask("objective.CostSet.grad")
        return {
            "steps": int(np.count_nonzero(self.mask("dynamics.step_delayed"))),
            "link_flows": int(self.t["aux"][self.node_apply].sum()),
            "grad_loop": int(np.count_nonzero(grad & self.loop)),
            "grad_oracle": int(np.count_nonzero(grad & self.oracle)),
            "oracle_iterations": int(self.t["aux"][self.mask("objective.central_solve")].sum()),
            "loop_calls": int(np.count_nonzero(self.loop)),
        }


def layer_metrics(sp: Spans, res, workers: int, worker_label: str | None) -> dict[str, float]:
    """Every per-layer metric but ``trace.overhead_pct`` from one traced pass."""
    t = sp.t
    c = sp.counts()
    steps = c["steps"]
    per_step = 1.0 / steps if steps else 0.0
    run = sp.mask(RUN)
    step = sp.mask("dynamics.step_delayed")
    csv = sp.mask("scenario.trace_to_csv")
    mc = sp.mask("percolation.mc_union_connectivity")
    step_us = sp.dur[step] / 1e3
    m = {
        "scenario.steps": steps,
        "scenario.run.self_us_per_step": float(sp.self_ns[run].sum()) / 1e3 * per_step,
        "scenario.layer_calls_per_step": c["loop_calls"] * per_step,
        "scenario.build_instance.s": sp.total_s("scenario.build_instance"),
        "scenario.trace_to_csv.us_per_row": float(sp.dur[csv].sum()) / 1e3 / max(int(t["aux"][csv].sum()), 1),
        "scenario.output_bytes": res.out_bytes,
        "dynamics.step_delayed.self_us_per_step": float(sp.self_ns[step].sum()) / 1e3 * per_step,
        "dynamics.step_delayed.us_p50": float(np.percentile(step_us, 50)) if steps else 0.0,
        "dynamics.step_delayed.us_p99": float(np.percentile(step_us, 99)) if steps else 0.0,
        "dynamics.DelaySchedule.draw.us_per_call": sp.mean_us(sp.mask("dynamics.DelaySchedule.draw")),
        "dynamics.link_flows": c["link_flows"],
        "dynamics.ns_per_link_flow": float(sp.dur[step].sum()) / max(c["link_flows"], 1),
        "dynamics.init.s": sp.total_s("dynamics.feasible_init", "dynamics.init_delayed_state"),
        "objective.CostSet.grad.calls_loop": c["grad_loop"],
        "objective.CostSet.grad.calls_oracle": c["grad_oracle"],
        "objective.CostSet.grad.us_per_call": sp.mean_us(sp.mask("objective.CostSet.grad")),
        "objective.CostSet.total_value.us_per_call": sp.mean_us(sp.mask("objective.CostSet.total_value")),
        "objective.central_solve.s": sp.total_s("objective.central_solve"),
        "objective.central_solve.iterations": c["oracle_iterations"],
        "objective.smoothness_bound.s": sp.total_s("objective.smoothness_bound"),
        "mappings.apply_map_array.link_us_per_call": sp.mean_us(sp.link_apply),
        "mappings.apply_map_array.node_us_per_call": sp.mean_us(sp.node_apply),
        "mappings.clamp_events": sum(r.clamp_events for r in res.runs),
        "graph.erdos_renyi.s": sp.total_s("graph.erdos_renyi"),
        "graph.spectral_summary.s": sp.total_s("graph.spectral_summary"),
        "graph.dense_bytes": res.dense_bytes,
        "percolation.mc_union_connectivity.trials_per_s":
            float(t["aux"][mc].sum()) / (float(sp.dur[mc].sum()) / 1e9) if mc.any() else 0.0,
    }

    # Median run time per preset; a run belongs to the label of its operation.
    by_label: dict[str, list[float]] = {}
    for op, d in zip(t["op"][run].tolist(), (sp.dur[run] / 1e9).tolist()):
        by_label.setdefault(res.op_labels.get(op, worker_label), []).append(d)
    for p in scenario.PRESET_NAMES:
        m[f"scenario.run_s.{p}"] = statistics.median(by_label[p]) if p in by_label else 0.0

    # A sweep job spans its worker's run and the trace serialization after it.
    jobs = []
    if worker_label is not None:
        worker_ops = sorted(set(t["op"][run].tolist()) - set(res.op_labels))
        roots = t["parent"] < 0
        for op in worker_ops:
            sel = roots & (t["op"] == op)
            jobs.append(float(t["end"][sel].max() - t["start"][sel].min()) / 1e9)
    m["cli.sweep.job_s_p50"] = statistics.median(jobs) if jobs else 0.0
    m["cli.sweep.job_s_max"] = max(jobs) if jobs else 0.0
    m["cli.sweep.pool_utilization"] = sum(jobs) / (workers * res.raw_seconds("sweep")) if jobs else 0.0
    return m
