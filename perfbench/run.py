"""Benchmark of dra-sim: three workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout (nothing needs installing):

    python3 perfbench/run.py --workload preset_ensemble --seed 1 --seconds 25 --trace 0

``--trace 0`` warms up, then repeats untraced passes of the workload until
``--seconds`` have passed (at least two) and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs one untraced pass and one traced
pass, reports the per-layer metrics of the traced pass and the tracing
overhead, checks that both passes wrote byte-identical traces, and checks
that the exact counts repeat for one seed and move with the seed.  The
spans of the traced pass are written to ``.perfbench_out/``.

Every output is checked (see ``workloads.check_pass``).  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_PASSES = 2
# Start no pass that could end after this many seconds of the process.
TIME_CAP_S = 150.0

END_TO_END = [
    ("wall_s", "s"),
    ("steps_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("setup_s", "s"),
    ("analysis_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _import_package():
    """Import dra_sim from this checkout's ``src``, or exit with status 2."""
    src = ROOT / "src"
    if not (src / "dra_sim" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no dra_sim package under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import dra_sim

    if Path(dra_sim.__file__).resolve().parent != (src / "dra_sim").resolve():
        sys.stderr.write(f"perfbench: imported dra_sim from {dra_sim.__file__}, not from {src}\n")
        sys.exit(2)


def _blas_threads() -> str:
    """The thread count of the BLAS library numpy has loaded, when it tells."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        maps = Path("/proc/self/maps").read_text().split()
    except OSError:
        maps = []
    for path in sorted({m for m in maps if "blas" in m.lower() and ".so" in m}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def _peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def _end_to_end(passes, work) -> dict[str, float]:
    """End-to-end metrics from the median over the passes of each operation.

    Times are in reference-scaled seconds (see reference.py).  A pass time
    is the sum of its operations' medians and of the median remainder.
    """
    ops = range(len(passes[0].timings))
    med = [statistics.median(p.timings[i][1] for p in passes) for i in ops]
    per_call = [m / passes[0].timings[i][2] for i, m in zip(ops, med)]

    def total(kind: str) -> float:
        return sum(s for i, s in zip(ops, per_call) if passes[0].timings[i][0] == kind)

    wall = sum(med) + statistics.median(p.rest for p in passes)
    steps = passes[0].steps
    return {
        "wall_s": wall,
        "steps_per_s": steps / total("run") if work.in_process else steps / wall,
        "runs_per_s": len(passes[0].runs) / wall,
        "setup_s": total("setup"),
        "analysis_s": total("analysis"),
        "peak_rss_mb": _peak_rss_mb(with_children=not work.in_process),
    }


def _measure(work, seconds: float, started: float, problems: list[str]):
    from workloads import run_pass

    passes = []
    t0 = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t0 < seconds:
        elapsed = time.perf_counter() - started
        if passes and elapsed + passes[-1].raw_wall > TIME_CAP_S:
            break
        passes.append(run_pass(work, OUT))
        kinds = [[t[0] for t in p.timings] for p in (passes[0], passes[-1])]
        if passes[-1].fingerprint() != passes[0].fingerprint() or kinds[0] != kinds[1]:
            problems.append(f"pass {len(passes) - 1} differs from pass 0 in counts or trace hashes")
    return passes


def _traced(work, workload: str, seed: int, problems: list[str]):
    """One untraced and one traced pass, the per-layer metrics and the count probes."""
    import numpy as np

    import layers
    import workloads
    from tracing import Tracer, merge_spooled

    plain = workloads.run_pass(work, OUT)
    spool = OUT / "spool"
    shutil.rmtree(spool, ignore_errors=True)
    tracer = Tracer(spool)
    tracer.install()
    try:
        traced = workloads.run_pass(work, OUT, tracer)
        table = tracer.take()
        if not work.in_process:
            table = np.concatenate([table, merge_spooled(spool, len(table), tracer.op + 1)])
        sp = layers.Spans(table, tracer.names)
        workers = 1 if work.in_process else workloads.nproc()
        worker_label = None if work.in_process else workloads.SWEEP_PRESET
        metrics = layers.layer_metrics(sp, traced, workers, worker_label)
        metrics["trace.overhead_pct"] = 100.0 * (traced.wall / plain.wall - 1.0)
        np.savez(OUT / f"spans_{workload}.npz", spans=table, names=np.array(tracer.names))
        if traced.fingerprint() != plain.fingerprint():
            problems.append("the traced pass wrote other traces or counts than the untraced pass")
        spanned = sp.counts()
        if (spanned["steps"], spanned["link_flows"]) != (traced.steps, sum(r.link_flows for r in traced.runs)):
            problems.append(f"spans count {spanned} but the traces {traced.steps} steps")
        _count_probes(work, workloads.make_workload(workload, seed + 1), tracer, problems)
    finally:
        tracer.uninstall()
    return plain, traced, metrics


def _count_probes(work, other, tracer, problems: list[str]) -> None:
    """The exact counts of the first config repeat for one seed and move with the seed."""
    import layers
    from dra_sim import scenario

    def counts(cfg):
        tracer.take()
        summary = scenario.run(cfg).summary
        found = layers.Spans(tracer.take(), tracer.names).counts()
        found["clamp_events"] = summary.node_clamp_events + summary.link_clamp_events
        return found

    first = counts(work.configs[0][1])
    again = counts(work.configs[0][1])
    moved = counts(other.configs[0][1])
    print(f"count probe, first config: {first}")
    print(f"count probe, seed + 1:     {moved}")
    if again != first:
        problems.append(f"counts differ between two runs of one config: {first} vs {again}")
    if moved == first:
        problems.append("counts did not change with the seed")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_package()
    OUT.mkdir(exist_ok=True)
    (OUT / "tmp").mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(OUT / "tmp")
    import numpy as np

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    print(
        f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        f"nproc={workloads.nproc()} python={platform.python_version()} numpy={np.__version__} "
        f"blas_threads={_blas_threads()}"
    )
    work = workloads.make_workload(args.workload, args.seed)

    # Warm-up: a short-horizon pass runs every code path once, at full
    # problem size, so first-call costs (LAPACK workspace and BLAS threads
    # for eigvalsh, the allocator, the worker pool) stay out of the timings.
    t = time.perf_counter()
    workloads.run_pass(work.shrunk(), OUT)
    print(f"warm-up pass: {time.perf_counter() - t:.3f} s (not reported)")

    problems: list[str] = []
    if args.trace:
        plain, traced, metrics = _traced(work, args.workload, args.seed, problems)
        checked = [plain, traced]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        checked = _measure(work, args.seconds, started, problems)
        metrics = _end_to_end(checked, work)
        units = dict(END_TO_END)

    attempted = failed = 0
    for p in checked:
        a, f, found = workloads.check_pass(p)
        attempted += a
        failed += f
        problems += found
    if not args.trace:
        for k, p in enumerate(checked):
            print(f"pass {k}: wall_s_raw={p.raw_wall:.4f} wall_s={p.wall:.4f} setup_s={p.seconds('setup'):.4f} "
                  f"analysis_s={p.seconds('analysis'):.4f} run_s={p.seconds('run') + p.seconds('sweep'):.4f}")
    for r in checked[0].runs:
        print(f"run {r.label}: steps={r.executed_steps} trace_sha256={r.sha256}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(f"error_rate = {failed / max(attempted, 1)!r} ratio")
    for problem in problems:
        print(f"problem: {problem}")
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
