"""Span tracing of dra_sim's public functions, installed from outside the package.

``install`` replaces each traced function in every namespace it is looked up
from (``scenario`` imports most names directly, so patching the defining
module alone would miss the run loop) with a wrapper that records one span:
name, start, end, parent span and operation id, plus one integer ``aux``
taken from the call (oracle iterations, input length, trace rows, trials).
Spans live in flat arrays in memory.  Forked sweep workers inherit the
wrappers; each one spools its own spans to ``spans_<pid>_<seq>.npy`` files
after every root span, and the parent loads them when the sweep is over.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from pathlib import Path

import numpy as np

SPAN_DTYPE = np.dtype(
    [("name", "i4"), ("start", "i8"), ("end", "i8"), ("parent", "i4"), ("op", "i4"), ("aux", "i8")]
)

RUN = "scenario.run"

# The run loop's set-up phase: spans under these (inside a run) are not
# per-step layer calls.
SETUP_NAMES = frozenset(
    ("scenario.build_instance", "objective.central_solve", "dynamics.feasible_init", "dynamics.init_delayed_state")
)


def _targets():
    """(span name, [(namespace, attribute), ...], aux) for every traced function."""
    from dra_sim import cli, dynamics, graph, objective, percolation, scenario

    return [
        (RUN, [(scenario, "run"), (cli, "run")], None),
        ("scenario.build_instance", [(scenario, "build_instance")], None),
        ("scenario.trace_to_csv", [(scenario, "trace_to_csv"), (cli, "trace_to_csv")], lambda a, k, r: len(a[0])),
        ("objective.central_solve", [(objective, "central_solve"), (scenario, "central_solve")],
         lambda a, k, r: r.iterations),
        ("objective.CostSet.grad", [(objective.CostSet, "grad")], None),
        ("objective.CostSet.total_value", [(objective.CostSet, "total_value")], None),
        ("objective.smoothness_bound", [(objective, "smoothness_bound"), (scenario, "smoothness_bound")], None),
        ("dynamics.feasible_init", [(dynamics, "feasible_init"), (scenario, "feasible_init")], None),
        ("dynamics.init_delayed_state", [(dynamics, "init_delayed_state"), (scenario, "init_delayed_state")], None),
        ("dynamics.step_delayed", [(dynamics, "step_delayed"), (scenario, "step_delayed")], None),
        ("dynamics.DelaySchedule.draw", [(dynamics.DelaySchedule, "draw")], None),
        ("dynamics.step_rate_bound", [(dynamics, "step_rate_bound"), (scenario, "step_rate_bound")], None),
        ("dynamics.max_delay_bound", [(dynamics, "max_delay_bound")], None),
        ("mappings.apply_map_array", [(dynamics, "apply_map_array")], lambda a, k, r: len(r)),
        ("graph.erdos_renyi", [(graph, "erdos_renyi"), (scenario, "erdos_renyi")], None),
        ("graph.union_graph", [(graph, "union_graph"), (scenario, "union_graph")], None),
        ("graph.laplacian", [(graph, "laplacian"), (scenario, "laplacian")], None),
        ("graph.spectral_summary", [(graph, "spectral_summary"), (scenario, "spectral_summary")], None),
        ("percolation.mc_union_connectivity", [(percolation, "mc_union_connectivity")], lambda a, k, r: r.trials),
    ]


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = spool_dir
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._clear()
        self.op = -1
        self.active = False
        self.in_child = False
        self._spooled = 0
        self._saved: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._after_fork)

    def _clear(self) -> None:
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.aux_col = array("q")
        self.stack: list[int] = []

    def _after_fork(self) -> None:
        if self.active:
            self._clear()
            self.in_child = True
            self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self) -> int:
        """Start a new operation; later root spans carry its id."""
        self.op += 1
        return self.op

    def wrap(self, name: str, fn, aux=None):
        nid = self.name_id(name)
        run_id = self.name_id(RUN)
        clock = time.perf_counter_ns
        tr = self

        def traced(*args, **kwargs):
            stack = tr.stack
            if not stack and tr.in_child and nid == run_id:
                tr.op += 1
            idx = len(tr.start_col)
            tr.name_col.append(nid)
            tr.parent_col.append(stack[-1] if stack else -1)
            tr.op_col.append(tr.op)
            tr.aux_col.append(0)
            tr.end_col.append(0)
            tr.start_col.append(0)
            stack.append(idx)
            tr.start_col[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.end_col[idx] = clock()
                stack.pop()
            if aux is not None:
                tr.aux_col[idx] = aux(args, kwargs, result)
            if tr.in_child and not stack:
                tr._spool()
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        wrapped: dict[int, object] = {}
        for name, places, aux in _targets():
            for owner, attr in places:
                fn = getattr(owner, attr)
                if id(fn) not in wrapped:
                    wrapped[id(fn)] = self.wrap(name, fn, aux)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapped[id(fn)])
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()
        self.active = False

    def table(self) -> np.ndarray:
        out = np.empty(len(self.start_col), dtype=SPAN_DTYPE)
        for field, col in (("name", self.name_col), ("start", self.start_col), ("end", self.end_col),
                           ("parent", self.parent_col), ("op", self.op_col), ("aux", self.aux_col)):
            out[field] = np.frombuffer(col, dtype=out.dtype[field]) if len(col) else []
        return out

    def _spool(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"spans_{os.getpid()}_{self._spooled:05d}.npy"
        np.save(path, self.table())
        self._spooled += 1
        self._clear()

    def take(self) -> np.ndarray:
        """Return and forget the spans recorded in this process."""
        out = self.table()
        self._clear()
        return out


def merge_spooled(spool_dir: Path, first_index: int, first_op: int) -> np.ndarray:
    """Load and delete the workers' spool files as one span table.

    The table is meant to follow ``first_index`` spans of the parent, so
    parent indices are shifted by that, and each worker's operation ids are
    renumbered from ``first_op`` so that they are unique.
    """
    def order(path: Path) -> tuple[int, ...]:
        return tuple(int(x) for x in path.stem.split("_")[1:])

    tables = []
    offset = first_index
    ops: dict[tuple[int, int], int] = {}
    for path in sorted(spool_dir.glob("spans_*.npy"), key=order):
        pid = order(path)[0]
        t = np.load(path)
        path.unlink()
        t["parent"] = np.where(t["parent"] >= 0, t["parent"] + offset, -1)
        local = t["op"].copy()
        for op in np.unique(local).tolist():
            t["op"][local == op] = ops.setdefault((pid, op), first_op + len(ops))
        offset += len(t)
        tables.append(t)
    return np.concatenate(tables) if tables else np.empty(0, dtype=SPAN_DTYPE)
