"""Command line front end.

Subcommands: run, preset, sweep, percolation, bounds, bench.  Exit codes:
0 success, 1 bad configuration or input, 2 run diverged, 3 numeric failure.
Existing output files are never overwritten unless --force is given.
"""

from __future__ import annotations

import argparse
import errno
import itertools
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .dynamics import max_delay_bound, step_rate_bound, step_rate_from_sector
from .errors import ConfigurationError, DraSimError, NumericError, read_input_text
from .graph import erdos_renyi
from .mappings import first_order_sector_params
from .percolation import effective_failure, er_threshold, mc_union_connectivity, min_window
from .scenario import (
    CONFIG_KEYS,
    PRESET_NAMES,
    PRESET_SWEEPS,
    RunResult,
    ScenarioConfig,
    _certificate,
    _parse_value,
    _render_value,
    _split_item,
    apply_key,
    build_instance,
    default_smoothness_domain,
    parse_config,
    preset,
    run,
    scaling_benchmark,
    serialize_config,
    summary_to_text,
    trace_to_csv,
)

__all__ = ["main", "parse_config", "serialize_config"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_NUMERIC = 3


# --------------------------------------------------------------------------
# config sources
# --------------------------------------------------------------------------


def _apply_sets(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    for item in assignments:
        where = f"--set {item!r}"
        key, raw = _split_item(item, where)
        cfg = apply_key(cfg, key, _parse_value(key, raw, where))
    return cfg


def _load_config(args) -> ScenarioConfig:
    if getattr(args, "preset", None):
        cfg = preset(args.preset)
    elif getattr(args, "config", None):
        cfg = parse_config(read_input_text(args.config, "--config"))
    else:
        raise ConfigurationError("give either --config FILE or --preset NAME")
    return _apply_sets(cfg, args.set or [])


def _unwritable(path: str | Path, exc: OSError) -> ConfigurationError:
    """The error for an output path that could not be written, naming it."""
    # mkdir(exist_ok=True) raises FileExistsError only where a file stands in for a directory.
    reason = os.strerror(errno.ENOTDIR) if isinstance(exc, FileExistsError) else exc.strerror
    return ConfigurationError(f"cannot write {str(path)!r}: {reason}")


def _write_text(path: str | Path, text: str, force: bool) -> None:
    target = Path(path)
    if target.exists() and not force:
        raise ConfigurationError(f"{target} exists; pass --force to overwrite")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    except OSError as exc:
        raise _unwritable(target, exc) from None


def _write_run(result: RunResult, trace_path: str | None, summary_path: str | None, force: bool) -> str:
    """Write a run's trace CSV and summary text where paths are given; return the summary text."""
    if trace_path:
        _write_text(trace_path, trace_to_csv(result.trace), force)
    text = summary_to_text(result.summary)
    if summary_path:
        _write_text(summary_path, text, force)
    return text


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------


def _cmd_run(args) -> int:
    result = run(_load_config(args))
    sys.stdout.write(_write_run(result, args.trace, args.summary, args.force))
    return EXIT_DIVERGED if result.summary.diverged else EXIT_OK


def _cmd_preset(args) -> int:
    if args.list:
        for name in PRESET_NAMES:
            sweeps = PRESET_SWEEPS.get(name)
            extra = ""
            if sweeps:
                extra = "  sweeps: " + "; ".join(
                    f"{k} in {{{', '.join(map(str, vs))}}}" for k, vs in sweeps.items()
                )
            sys.stdout.write(f"{name}{extra}\n")
        return EXIT_OK
    if not args.name:
        raise ConfigurationError("give a preset name or --list")
    cfg = _apply_sets(preset(args.name), args.set or [])
    text = serialize_config(cfg)
    if args.write:
        _write_text(args.write, text, args.force)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _sweep_worker(job: tuple[ScenarioConfig, str, str]) -> tuple[bool, str, str]:
    cfg, trace_path, summary_path = job
    try:
        result = run(cfg)
        _write_run(result, trace_path, summary_path, force=True)
        return result.summary.diverged, "", ""
    except NumericError as exc:
        return False, "numeric", str(exc)
    except DraSimError as exc:
        return False, "config", str(exc)


def _worker_cap(n_jobs: int) -> int:
    raw = os.environ.get("DRA_SIM_THREADS", "")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ConfigurationError(f"DRA_SIM_THREADS must be an integer, got {raw!r}") from None
        if cap < 1:
            raise ConfigurationError(f"DRA_SIM_THREADS must be >= 1, got {cap}")
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_jobs, cap))


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    grids: list[tuple[str, tuple]] = []
    if args.sweep:
        for item in args.sweep:
            where = f"--sweep {item!r}"
            key, raw = _split_item(item, where)
            if CONFIG_KEYS[key].type == tuple[float, ...]:
                raise ConfigurationError(f"{where}: {key} takes a list of values and cannot be swept")
            vals = tuple(_parse_value(key, part, where) for part in raw.split(",") if part.strip())
            if not vals:
                raise ConfigurationError(f"{where}: no values")
            grids.append((key, vals))
    elif args.preset and args.preset in PRESET_SWEEPS:
        grids = [(k, vs) for k, vs in PRESET_SWEEPS[args.preset].items()]
    if not grids:
        raise ConfigurationError("nothing to sweep: pass --sweep key=v1,v2 or a preset with a grid")

    out_dir = Path(args.out_dir)
    if out_dir.is_dir() and any(out_dir.iterdir()) and not args.force:
        raise ConfigurationError(f"{out_dir} is not empty; pass --force to reuse it")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out_dir, exc) from None

    keys = [k for k, _ in grids]
    jobs, labels = [], []
    for index, combo in enumerate(itertools.product(*(vs for _, vs in grids))):
        cfg = base
        for key, value in zip(keys, combo):
            cfg = apply_key(cfg, key, value)
        labels.append(";".join(f"{k}={_render_value(k, v)}" for k, v in zip(keys, combo)))
        jobs.append((cfg, str(out_dir / f"trace_{index:03d}.csv"), str(out_dir / f"summary_{index:03d}.txt")))

    # Both maps give the results in job order.
    workers = _worker_cap(len(jobs))
    if workers == 1:
        results = list(map(_sweep_worker, jobs))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, jobs))

    lines = ["job,overrides,diverged,error"]
    any_diverged = any_config = any_numeric = False
    for index, (diverged, kind, msg) in enumerate(results):
        any_diverged |= diverged
        any_config |= kind == "config"
        any_numeric |= kind == "numeric"
        err = f"{kind}: {msg}" if kind else ""
        label, quoted = labels[index].replace('"', '""'), err.replace('"', '""')  # RFC 4180
        lines.append(f'{index:03d},"{label}",{str(diverged).lower()},"{quoted}"')
        sys.stdout.write(f"job {index:03d} [{labels[index]}] " + (err or ("diverged" if diverged else "ok")) + "\n")
    _write_text(out_dir / "sweep_summary.csv", "\n".join(lines) + "\n", force=True)
    if any_numeric:
        return EXIT_NUMERIC
    if any_config:
        return EXIT_CONFIG
    if any_diverged:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_percolation(args) -> int:
    for flag, value in (("--window", args.window), ("--trials", args.trials)):
        if value < 0:
            raise ConfigurationError(f"{flag} must be >= 0, got {value}")
    profile = er_threshold(args.n, args.p, convention=args.convention)
    out = [
        ("n", args.n),
        ("p", repr(float(args.p))),
        ("mean_degree", repr(profile.mean_degree)),
        ("threshold", "none" if profile.threshold is None else repr(profile.threshold)),
        ("convention", profile.convention),
    ]
    if profile.warning:
        out.append(("warning", profile.warning))
    if args.p_fail > 0.0:
        out.append(("p_fail", repr(float(args.p_fail))))
        out.append(("window", args.window))
        out.append(("effective_failure", repr(effective_failure(args.p_fail, args.window))))
        if profile.threshold is not None:
            out.append(("min_window", min_window(args.p_fail, profile.threshold)))
    if args.trials > 0:
        base = erdos_renyi(args.n, args.p, seed=args.seed)
        mc = mc_union_connectivity(base, args.p_fail, args.window, trials=args.trials, seed=args.seed)
        out.append(("mc_fraction", repr(mc.fraction)))
        out.append(("mc_wilson_low", repr(mc.wilson_low)))
        out.append(("mc_wilson_high", repr(mc.wilson_high)))
        out.append(("mc_trials", mc.trials))
    sys.stdout.write("\n".join(f"{k}={v}" for k, v in out) + "\n")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    cfg = _load_config(args)
    instance = build_instance(cfg)
    node_map, link_map = instance[2:]
    overrides = (args.lambda2, args.lambda_max, args.u)
    if any(v is not None for v in overrides):
        if any(v is None for v in overrides):
            raise ConfigurationError("--lambda2, --lambda-max, and --u must be given together")
        lam2, lam_max, u = overrides
        connected, domain_lines = lam2 > 0.0, []
        bound = step_rate_bound(node_map, link_map, *overrides, cfg.window, cfg.tau_bar) if connected else None
    else:
        if args.domain:
            try:
                lo, hi = (float(part) for part in args.domain.split(","))
            except ValueError:
                raise ConfigurationError(f"--domain needs two numbers lo,hi, got {args.domain!r}") from None
            domain = (lo, hi)
        else:
            domain = default_smoothness_domain(cfg)
        spec, u, bound = _certificate(cfg, instance, domain)
        lam2, lam_max, connected = spec.lambda2, spec.lambda_max, spec.connected
        domain_lines = [("domain_lo", repr(float(domain[0]))), ("domain_hi", repr(float(domain[1])))]
    out = [
        ("lambda2", repr(float(lam2))),
        ("lambda_max", repr(float(lam_max))),
        ("connected", str(connected).lower()),
        *domain_lines,
        ("u", repr(float(u))),
        ("kappa_node", repr(node_map.kappa)),
        ("big_k_node", repr(node_map.big_k)),
        ("kappa_link", repr(link_map.kappa)),
        ("big_k_link", repr(link_map.big_k)),
        ("window", cfg.window),
        ("tau_bar", cfg.tau_bar),
    ]
    if bound is not None:
        fn, fl = first_order_sector_params(node_map), first_order_sector_params(link_map)
        eta_max_first_order = step_rate_from_sector(
            fn[0], fn[1], fl[0], fl[1], lam2, lam_max, u, window=cfg.window, tau_bar=cfg.tau_bar
        )
        budget = max_delay_bound(node_map, link_map, lam2, lam_max, u, cfg.window, cfg.eta)
        out.append(("eta_max", repr(bound.eta_max)))
        out.append(("eta_max_first_order", repr(eta_max_first_order)))
        out.append(("eta", repr(float(cfg.eta))))
        out.append(("eta_ratio", repr(float(cfg.eta) / bound.eta_max)))
        out.append(("max_delay_budget", repr(budget)))
    else:
        out.append(("eta_max", "none"))
        out.append(("note", "union graph disconnected; no contraction bound exists"))
    sys.stdout.write("\n".join(f"{k}={v}" for k, v in out) + "\n")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        sizes = tuple(int(part) for part in args.sizes.split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"--sizes needs comma separated integers, got {args.sizes!r}") from None
    result = scaling_benchmark(
        sizes, steps=args.steps, density=args.density, seed=args.seed, constant_degree=args.degree
    )
    for n, t in zip(result.sizes, result.seconds_per_step):
        sys.stdout.write(f"n={n} seconds_per_step={repr(t)}\n")
    sys.stdout.write(f"slope={repr(result.slope)}\n")
    return EXIT_OK


# --------------------------------------------------------------------------
# parser
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route usage problems through
    # the config-error path so exit 2 stays reserved for divergence.
    def error(self, message: str):
        raise ConfigurationError(message)


def _add_config_source(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario config file")
    p.add_argument("--preset", help="named preset to start from")
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dra-sim", description="Resilient distributed resource allocation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario")
    _add_config_source(p_run)
    p_run.add_argument("--trace", help="write the trace CSV here")
    p_run.add_argument("--summary", help="write the summary text here")
    p_run.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_run.set_defaults(func=_cmd_run)

    p_preset = sub.add_parser("preset", help="print or write a named preset (run it with run --preset)")
    p_preset.add_argument("name", nargs="?", help="preset name")
    p_preset.add_argument("--list", action="store_true", help="list available presets")
    p_preset.add_argument("--write", help="write the preset config here")
    p_preset.add_argument("--set", action="append", metavar="KEY=VALUE", help="override a config key")
    p_preset.add_argument("--force", action="store_true", help="overwrite an existing --write file")
    p_preset.set_defaults(func=_cmd_preset)

    p_sweep = sub.add_parser("sweep", help="run a parameter grid in parallel")
    _add_config_source(p_sweep)
    p_sweep.add_argument("--sweep", action="append", metavar="KEY=V1,V2,...", help="values to sweep")
    p_sweep.add_argument("--out-dir", required=True, help="directory for per-job traces and summaries")
    p_sweep.add_argument("--force", action="store_true", help="reuse a non-empty output directory")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_perc = sub.add_parser("percolation", help="connectivity thresholds under link failures")
    p_perc.add_argument("--n", type=int, required=True)
    p_perc.add_argument("--p", type=float, required=True, help="base link probability")
    p_perc.add_argument("--p-fail", type=float, default=0.0)
    p_perc.add_argument("--window", type=int, default=0)
    p_perc.add_argument("--convention", choices=("half", "standard"), default="half")
    p_perc.add_argument("--trials", type=int, default=0, help="Monte Carlo trials (0 skips)")
    p_perc.add_argument("--seed", type=int, default=0)
    p_perc.set_defaults(func=_cmd_percolation)

    p_bounds = sub.add_parser("bounds", help="spectral, smoothness, and step-rate bounds of a scenario")
    _add_config_source(p_bounds)
    p_bounds.add_argument("--domain", help="lo,hi interval over which u bounds the curvature")
    p_bounds.add_argument("--lambda2", type=float, help="use this algebraic connectivity instead of building the graph")
    p_bounds.add_argument("--lambda-max", type=float, help="use this largest eigenvalue")
    p_bounds.add_argument("--u", type=float, help="use this smoothness constant")
    p_bounds.set_defaults(func=_cmd_bounds)

    p_bench = sub.add_parser("bench", help="per-step cost versus network size")
    p_bench.add_argument("--sizes", default="50,100,200,400")
    p_bench.add_argument("--steps", type=int, default=200)
    p_bench.add_argument("--density", type=float, default=1.0)
    p_bench.add_argument("--degree", type=float, help="fix the expected degree instead of the density")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except NumericError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return EXIT_NUMERIC
    except DraSimError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
