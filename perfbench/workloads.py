"""The three benchmark workloads: inputs from a seed, one timed pass, checks.

A pass is a batch in one process, a closed loop with a single caller.  For
each config of the workload, in turn:

1. set-up: the work ``run`` does before its first step, issued through the
   same public calls;
2. analysis: the step-rate certificate, if the config gets one, and on
   ``sparse_scale`` the Monte Carlo union-connectivity estimate;
3. run: ``scenario.run`` plus the trace serialization.

On ``sweep_grid`` the runs are one ``dra-sim sweep`` through ``cli.main``
after the loop.

Every program output is checked after the pass, outside its timings.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import reference
from dra_sim import cli, dynamics, graph, objective, percolation, scenario
from dra_sim.errors import DomainError

WORKLOADS = ("preset_ensemble", "sparse_scale", "sweep_grid")

_TAG_ENSEMBLE, _TAG_EXTREME, _TAG_SPARSE, _TAG_ADVERSITY, _TAG_MC, _TAG_SWEEP = range(1, 7)

# The overrides of the all-time feasibility acceptance test.
EXTREMES = (
    ("fig_fail", {"adversity.p_fail": 0.92}),
    ("fig_delay", {"adversity.tau_bar": 6}),
    ("dispatch_adversity", {"adversity.p_fail": 0.92, "adversity.tau_bar": 6}),
)
SPARSE_N = 3000
SPARSE_DEGREE = 15.0
SPARSE_HORIZON = 1000
MC_WINDOWS = (0, 1, 2)
MC_TRIALS = 100
SWEEP_PRESET = "dispatch_adversity"
SWEEP_GRID = (("adversity.p_fail", (0.5, 0.7, 0.85, 0.92)), ("adversity.tau_bar", (3, 7, 10)))
CERT_REPEATS = 5
WARMUP_HORIZON = 100
WARMUP_TRIALS = 2
TRACE_HEADER = scenario.trace_to_csv([]).rstrip("\n")
_SUMMARY_KEYS = ("executed_steps", "diverged", "max_feasibility_gap", "oracle_value",
                 "node_clamp_events", "link_clamp_events")


def derive(seed: int, tag: int, index: int = 0) -> int:
    """A 31-bit config seed for one purpose, derived from the benchmark seed."""
    ss = np.random.SeedSequence([seed % 2**32, tag, index])
    return int(ss.generate_state(1, np.uint32)[0] >> 1)


def with_keys(cfg: scenario.ScenarioConfig, items: dict) -> scenario.ScenarioConfig:
    for key, value in items.items():
        cfg = scenario.apply_key(cfg, key, value)
    return cfg


@dataclass
class Workload:
    name: str
    configs: list[tuple[str, scenario.ScenarioConfig]]  # (label, config): every config it runs
    certified: list[int]  # indices into configs that get a certificate
    in_process: bool = True  # run the configs through scenario.run, else one sweep
    mc: tuple[int, ...] = ()  # union windows of a Monte Carlo estimate on each config
    mc_trials: int = 0
    mc_seed: int = 0
    sweep_base: scenario.ScenarioConfig | None = None
    # Each certificate is computed this many times and timed by its mean:
    # at n <= 50 one takes about 12 ms, too short to time once.
    cert_repeats: int = 1
    # Operations last seconds in numpy's large-array code, where the main
    # thread mostly leaves the interpreter lock free, so the machine-speed
    # reference is sampled from a second thread during them too.  With
    # short, interpreter-bound operations that thread would disturb them.
    long_ops: bool = False

    def shrunk(self) -> Workload:
        """The workload at a short horizon, one config per label, used to warm up."""
        firsts = {}
        for i, (label, cfg) in enumerate(self.configs):
            firsts.setdefault(label, (i, replace(cfg, horizon=WARMUP_HORIZON)))
        cut = [(label, cfg) for label, (_, cfg) in firsts.items()]
        certified = [k for k, (i, _) in enumerate(firsts.values()) if i in self.certified]
        base = replace(self.sweep_base, horizon=WARMUP_HORIZON) if self.sweep_base else None
        return replace(self, configs=cut, certified=certified, mc_trials=min(self.mc_trials, WARMUP_TRIALS),
                       sweep_base=base)


def make_workload(name: str, seed: int) -> Workload:
    if name == "preset_ensemble":
        # One derived seed per preset keeps a pass near 7 s, so that three
        # passes fit a run; the benchmark seed varies the instances across runs.
        configs = [
            (p, with_keys(scenario.preset(p), {"seed": derive(seed, _TAG_ENSEMBLE, k)}))
            for k, p in enumerate(scenario.PRESET_NAMES)
        ]
        certified = list(range(len(configs)))
        for j, (p, over) in enumerate(EXTREMES):
            cfg = with_keys(scenario.preset(p), {"seed": derive(seed, _TAG_EXTREME, j), **over})
            configs.append((p + "+extreme", cfg))
        return Workload(name, configs, certified, cert_repeats=CERT_REPEATS)
    if name == "sparse_scale":
        n = SPARSE_N
        cfg = scenario.ScenarioConfig(
            n=n, total=4.0 * n, eta=0.2, horizon=SPARSE_HORIZON, seed=derive(seed, _TAG_SPARSE),
            topology_kind="er", topology_p=SPARSE_DEGREE / (n - 1),
            topology_weight_lo=0.02, topology_weight_hi=0.04,
            costs_kind="quartic", costs_penalty="box", costs_box_lo=1.0, costs_box_hi=10.0,
            node_kind="identity", link_kind="log_quantizer", link_rho=0.125,
            p_fail=0.5, tau_bar=2, delay_mode="uniform", adversity_seed=derive(seed, _TAG_ADVERSITY),
        )
        return Workload(name, [("sparse", cfg)], [0], mc=MC_WINDOWS, mc_trials=MC_TRIALS,
                        mc_seed=derive(seed, _TAG_MC), long_ops=True)
    if name == "sweep_grid":
        # The preset's own instance, which every grid point runs without
        # diverging; the seed draws the failures and delays.
        base = with_keys(scenario.preset(SWEEP_PRESET), {"adversity.seed": derive(seed, _TAG_SWEEP)})
        keys = [k for k, _ in SWEEP_GRID]
        # The job order of the sweep: the last key varies fastest.
        configs = [
            (SWEEP_PRESET, with_keys(base, dict(zip(keys, combo))))
            for combo in itertools.product(*(values for _, values in SWEEP_GRID))
        ]
        return Workload(name, configs, list(range(len(configs))), in_process=False, sweep_base=base,
                        cert_repeats=CERT_REPEATS)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


# --------------------------------------------------------------------------
# results of one pass
# --------------------------------------------------------------------------


@dataclass
class RunFacts:
    """What one run (or sweep job) produced, kept after its outputs are dropped."""

    label: str
    n: int
    total: float
    executed_steps: int
    diverged: bool
    max_gap: float
    min_residual: float
    oracle_value: float
    clamp_events: int
    link_flows: int
    rows: int
    out_bytes: int
    sha256: str
    error: str = ""

    def fingerprint(self) -> tuple:
        return (self.label, self.executed_steps, self.link_flows, self.clamp_events, self.rows,
                self.out_bytes, self.sha256)


@dataclass
class PassResult:
    raw_wall: float = 0.0
    wall: float = 0.0  # scaled to the reference machine, see reference.py
    # (kind, scaled seconds, repeats, raw seconds) of every timed operation,
    # in the same order on every pass: "setup", "analysis", "run" (the run
    # call), "serialize", "sweep".
    timings: list[tuple[str, float, int, float]] = field(default_factory=list)
    rest: float = 0.0  # scaled time of the pass outside its operations
    sweep_exit: int = 0
    runs: list[RunFacts] = field(default_factory=list)
    certs: list[tuple[str, dict]] = field(default_factory=list)
    mcs: list[tuple[int, object]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    check_s: float = 0.0  # time of in-pass checks, kept out of ``wall``
    op_labels: dict[int, str] = field(default_factory=dict)
    dense_bytes: int = 0
    out_bytes: int = 0

    @property
    def steps(self) -> int:
        return sum(r.executed_steps for r in self.runs)

    def seconds(self, kind: str) -> float:
        """Scaled seconds of one call of each operation of this kind."""
        return sum(s / r for k, s, r, _ in self.timings if k == kind)

    def raw_seconds(self, kind: str) -> float:
        return sum(raw for k, _, _, raw in self.timings if k == kind)

    def fingerprint(self) -> tuple:
        return tuple(r.fingerprint() for r in self.runs)


def _facts_from_trace(label, cfg, summary: dict, csv: str) -> RunFacts:
    try:
        return _parse_outputs(label, cfg, summary, csv)
    except (KeyError, ValueError, IndexError) as exc:
        return _missing(label, cfg, f"outputs do not parse: {exc!r}")


def _parse_outputs(label, cfg, summary: dict, csv: str) -> RunFacts:
    lines = csv.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    executed = int(summary["executed_steps"])
    return RunFacts(
        label=label,
        n=cfg.n,
        total=cfg.total,
        executed_steps=executed,
        diverged=summary["diverged"] in (True, "true"),
        max_gap=max(float(summary["max_feasibility_gap"]), max((abs(float(r[2])) for r in rows), default=0.0)),
        min_residual=min((float(r[1]) for r in rows), default=math.nan),
        oracle_value=float(summary["oracle_value"]),
        clamp_events=int(summary["node_clamp_events"]) + int(summary["link_clamp_events"]),
        link_flows=sum(int(r[7]) for r in rows if int(r[0]) < executed),
        rows=len(rows),
        out_bytes=len(csv.encode()),
        sha256=hashlib.sha256(csv.encode()).hexdigest(),
        error="" if lines and lines[0] == TRACE_HEADER else "trace header differs",
    )


def _setup(cfg: scenario.ScenarioConfig):
    """The work ``run`` does before its first step, through the public calls."""
    graphs, costs, node_map, link_map = scenario.build_instance(cfg)
    cs = objective.CostSet(costs)
    objective.central_solve(costs, cfg.total, tol=1e-9, mode="penalized")
    boxes = [(cfg.costs_box_lo, cfg.costs_box_hi)] * cfg.n if cfg.init_respect_boxes else None
    x0 = dynamics.feasible_init(cfg.n, cfg.total, cfg.init_mode, seed=cfg.seed, boxes=boxes)
    dynamics.init_delayed_state(x0, cfg.tau_bar, cs, link_map)
    return graphs, costs, node_map, link_map


def _certificate(cfg, instance) -> dict:
    """Step-rate certificate of a config; no bound exists for a disconnected union."""
    graphs, costs, node_map, link_map = instance
    union = graph.union_graph(graphs)
    spec = graph.spectral_summary(graph.laplacian(union))
    u = objective.smoothness_bound(costs, scenario.default_smoothness_domain(cfg)).u
    cert = {"union": union, "connected": spec.connected, "eta_max": None, "delay_budget": None}
    try:
        cert["eta_max"] = dynamics.step_rate_bound(
            node_map, link_map, spec.lambda2, spec.lambda_max, u, window=cfg.window, tau_bar=cfg.tau_bar
        ).eta_max
        cert["delay_budget"] = dynamics.max_delay_bound(
            node_map, link_map, spec.lambda2, spec.lambda_max, u, cfg.window, cfg.eta
        )
    except DomainError as exc:
        cert["domain_error"] = str(exc)
    return cert


def run_pass(work: Workload, out_dir: Path, tracer=None) -> PassResult:
    """One timed pass of ``work``; see the module docstring."""
    res = PassResult()
    clock = time.perf_counter

    sampler = reference.Sampler()
    spans = []

    def timed(kind: str, label: str, fn, *args, repeats: int = 1, during: bool = work.long_ops):
        """Time one operation by the mean of its repeats; an exception is returned, not raised."""
        sampler.sample()
        if tracer is not None:
            res.op_labels[tracer.begin()] = label
        t = clock()
        try:
            with sampler.during() if during else contextlib.nullcontext():
                for _ in range(repeats):
                    out = fn(*args)
        except Exception as exc:  # the pass goes on; the failure is counted
            out = exc
        spans.append((kind, t, clock(), repeats))
        return out

    def finish() -> None:
        res.raw_wall = clock() - t_pass - res.check_s - sampler.spent
        sampler.sample(force=True)
        res.timings = [(kind, (b - a) * sampler.factor(a, b), k, b - a) for kind, a, b, k in spans]
        res.rest = (res.raw_wall - sum(b - a for _, a, b, _ in spans)) * sampler.mean_factor()
        res.wall = sum(t[1] for t in res.timings) + res.rest

    t_pass = clock()
    setup_errors = {}
    outputs = []
    for i, (label, cfg) in enumerate(work.configs):
        inst = timed("setup", "setup", _setup, cfg)
        if isinstance(inst, Exception):
            setup_errors[i] = f"setup: {inst!r}"
        else:
            res.dense_bytes = max(res.dense_bytes, 8 * cfg.n * cfg.n * len(inst[0]))
        if i in work.certified:
            cert = timed("analysis", "certificate", _certificate, cfg, inst, repeats=work.cert_repeats)
            if isinstance(cert, Exception):
                cert = {"error": repr(cert)}
            else:
                # Cross-check the spectral verdict by graph search, untimed.
                t = clock()
                cert["searched_connected"] = graph.is_connected(cert.pop("union"))
                res.check_s += clock() - t
            res.certs.append((label, cert))
        for window in work.mc:
            base = None if isinstance(inst, Exception) else inst[0][0]
            est = timed("analysis", "mc", percolation.mc_union_connectivity,
                        base, cfg.p_fail, window, work.mc_trials, work.mc_seed)
            res.mcs.append((window, est))
        del inst
        if work.in_process:
            result = timed("run", label, scenario.run, cfg)
            if isinstance(result, Exception):
                outputs.append((label, cfg, f"run: {result!r}"))
                continue
            summary = {k: getattr(result.summary, k) for k in _SUMMARY_KEYS}
            csv = timed("serialize", label, scenario.trace_to_csv, result.trace)
            outputs.append((label, cfg, (summary, csv)))
            del result

    if work.in_process:
        finish()
        for label, cfg, out in outputs:
            res.runs.append(_missing(label, cfg, out) if isinstance(out, str) else _facts_from_trace(label, cfg, *out))
        res.out_bytes = sum(r.out_bytes for r in res.runs)
    else:
        job_dir = out_dir / "sweep"
        shutil.rmtree(job_dir, ignore_errors=True)
        cfg_path = out_dir / "sweep_base.cfg"
        cfg_path.write_text(cli.serialize_config(work.sweep_base))
        argv = ["sweep", "--config", str(cfg_path), "--out-dir", str(job_dir)]
        for key, values in SWEEP_GRID:
            argv += ["--sweep", f"{key}={','.join(str(v) for v in values)}"]
        # The parent only waits on the workers here, so it samples meanwhile.
        code = timed("sweep", "sweep", _sweep, argv, during=True)
        res.sweep_exit = code if isinstance(code, int) else -1
        finish()
        _collect_sweep(work, job_dir, res)
    for i, err in setup_errors.items():
        res.runs[i].error = "; ".join(e for e in (err, res.runs[i].error) if e)
    return res


def _sweep(argv: list[str]) -> int:
    """``dra-sim sweep`` in this process, with a worker per CPU, its job lines muted."""
    old = os.environ.get("DRA_SIM_THREADS")
    os.environ["DRA_SIM_THREADS"] = str(nproc())
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)
    finally:
        if old is None:
            del os.environ["DRA_SIM_THREADS"]
        else:
            os.environ["DRA_SIM_THREADS"] = old


def _collect_sweep(work: Workload, job_dir: Path, res: PassResult) -> None:
    if res.sweep_exit != 0:
        res.errors.append(f"sweep exited {res.sweep_exit}")
    table = job_dir / "sweep_summary.csv"
    errors = {}
    if table.exists():
        for line in table.read_text().splitlines()[1:]:
            job, _, rest = line.partition(",")
            err = rest.rsplit(",", 1)[-1].strip('"')
            if err:
                errors[int(job)] = err
    else:
        res.errors.append("sweep wrote no sweep_summary.csv")
    # Every file the sweep wrote counts as output, the job table included.
    res.out_bytes = sum(p.stat().st_size for p in job_dir.iterdir()) if job_dir.exists() else 0
    for index, (label, cfg) in enumerate(work.configs):
        trace = job_dir / f"trace_{index:03d}.csv"
        summ = job_dir / f"summary_{index:03d}.txt"
        if not (trace.exists() and summ.exists()):
            res.runs.append(_missing(label, cfg, errors.get(index, "outputs missing")))
            continue
        kv = dict(line.partition("=")[::2] for line in summ.read_text().splitlines())
        facts = _facts_from_trace(label, cfg, kv, trace.read_text())
        facts.error = errors.get(index, facts.error)
        res.runs.append(facts)


def _missing(label, cfg, error: str) -> RunFacts:
    return RunFacts(label, cfg.n, cfg.total, 0, False, math.nan, math.nan, math.nan, 0, 0, 0, 0, "", error)


# --------------------------------------------------------------------------
# correctness
# --------------------------------------------------------------------------


def gap_tolerance(n: int, total: float) -> float:
    return 1e-9 * (1.0 + abs(total)) * math.log2(n + 1)


def check_pass(res: PassResult) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over the operations of one pass.

    An operation is one run or sweep job, one certificate or one Monte
    Carlo call.
    """
    problems = list(res.errors)
    failed = 0
    for r in res.runs:
        bad = []
        if r.error:
            bad.append(r.error)
        if r.diverged:
            bad.append("diverged")
        if not r.max_gap <= gap_tolerance(r.n, r.total):
            bad.append(f"feasibility gap {r.max_gap!r}")
        if not r.min_residual >= -1e-9 * (1.0 + abs(r.oracle_value)):
            bad.append(f"residual {r.min_residual!r} below the oracle")
        if bad:
            failed += 1
            problems.append(f"run {r.label}: {'; '.join(bad)}")
    for label, cert in res.certs:
        bad = _check_certificate(cert)
        if bad:
            failed += 1
            problems.append(f"certificate {label}: {bad}")
    previous = -1.0
    for window, est in res.mcs:
        ok = isinstance(est, percolation.McConnectivity)
        if ok:
            ok = est.wilson_low <= est.fraction <= est.wilson_high and est.fraction >= previous
            previous = est.fraction
        if not ok:
            failed += 1
            problems.append(f"monte carlo window {window}: {est!r}")
    attempted = len(res.runs) + len(res.certs) + len(res.mcs)
    if res.errors:
        failed = max(failed, 1)
    return attempted, failed, problems


def _check_certificate(cert: dict) -> str:
    if "error" in cert:
        return cert["error"]
    if cert["connected"] != cert["searched_connected"]:
        return "spectral connectivity disagrees with graph search"
    if not cert["connected"]:
        return "" if "domain_error" in cert else "bound given for a disconnected union"
    eta_max, budget = cert["eta_max"], cert["delay_budget"]
    if eta_max is None or not (math.isfinite(eta_max) and eta_max > 0.0):
        return f"step-rate bound {eta_max!r}"
    if budget is None or not math.isfinite(budget):
        return f"delay budget {budget!r}"
    return ""


def nproc() -> int:
    return len(os.sched_getaffinity(0))
