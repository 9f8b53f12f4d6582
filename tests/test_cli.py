"""Tests for the command line front end: config text, subcommands, exit codes."""

import csv
import io
import math

import pytest

from dra_sim import cli, graph
from dra_sim.cli import main, parse_config, serialize_config
from dra_sim.errors import ConfigurationError, NumericError
from dra_sim.scenario import PRESET_NAMES, preset

MINIMAL = """\
n = 10
b = 20.0
eta = 0.02
topology.kind = er
topology.p = 0.5
costs.kind = quadratic
costs.penalty = none
"""


def kv_lines(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def write_small_config(tmp_path, **extra):
    lines = [MINIMAL.rstrip()]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    path = tmp_path / "scenario.cfg"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestParseConfig:
    def test_minimal_file_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.n == 10
        assert cfg.total == 20.0
        assert cfg.horizon >= 1
        assert cfg.node_kind == "identity"
        assert cfg.p_fail == 0.0

    def test_comments_and_blanks_skipped(self):
        cfg = parse_config("# a comment\n\n" + MINIMAL + "\n# tail\n")
        assert cfg.n == 10

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_config("n = 10\nnot a key value pair\n")

    def test_unknown_key_reports_name_and_line(self):
        with pytest.raises(ConfigurationError, match="line 3.*topology.shape"):
            parse_config("n = 10\nb = 1.0\ntopology.shape = ring\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigurationError, match="line 2.*duplicate"):
            parse_config("n = 10\nn = 12\n")

    def test_bad_value_type_reports_line(self):
        with pytest.raises(ConfigurationError, match="line 1.*eta"):
            parse_config("eta = fast\n")

    def test_out_of_range_value_names_key_and_line(self):
        text = MINIMAL + "adversity.p_fail = 1.5\n"
        lineno = len(text.strip().splitlines())
        with pytest.raises(ConfigurationError) as exc:
            parse_config(text)
        assert "adversity.p_fail" in str(exc.value)
        assert f"line {lineno}" in str(exc.value)

    def test_bool_words(self):
        assert parse_config(MINIMAL + "init.respect_boxes = off\n").init_respect_boxes is False
        assert parse_config(MINIMAL + "init.respect_boxes = yes\n").init_respect_boxes is True
        with pytest.raises(ConfigurationError):
            parse_config(MINIMAL + "init.respect_boxes = maybe\n")

    def test_float_list_values(self):
        text = MINIMAL.replace("topology.kind = er", "topology.kind = cycle")
        cfg = parse_config(text + "topology.cycle_ps = 0.2, 0.1, 0.05\n")
        assert cfg.topology_cycle_ps == (0.2, 0.1, 0.05)


class TestSerializeConfig:
    def test_round_trip_every_preset(self):
        for name in PRESET_NAMES:
            cfg = preset(name)
            assert parse_config(serialize_config(cfg)) == cfg

    def test_serialized_text_reparses_after_edit(self):
        text = serialize_config(preset("fig_delay"))
        edited = text.replace("eta = 0.5", "eta = 0.25")
        assert parse_config(edited).eta == 0.25


class TestRunCommand:
    def test_writes_trace_and_summary(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=50)
        trace = tmp_path / "trace.csv"
        summary = tmp_path / "summary.txt"
        code = main(["run", "--config", str(cfg),
                     "--trace", str(trace), "--summary", str(summary)])
        assert code == 0
        assert trace.read_text().startswith("k,residual,")
        assert "diverged=false" in summary.read_text()
        # summary also goes to stdout
        assert "final_residual=" in capsys.readouterr().out

    def test_same_seed_gives_identical_bytes(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=80, **{"adversity.p_fail": 0.3})
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["run", "--config", str(cfg), "--trace", str(a)]) == 0
        assert main(["run", "--config", str(cfg), "--trace", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        trace = tmp_path / "trace.csv"
        trace.write_text("sentinel")
        code = main(["run", "--config", str(cfg), "--trace", str(trace)])
        assert code == 1
        assert trace.read_text() == "sentinel"
        assert "--force" in capsys.readouterr().err
        code = main(["run", "--config", str(cfg), "--trace", str(trace), "--force"])
        assert code == 0
        assert trace.read_text().startswith("k,")

    def test_set_overrides_config(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        summary = tmp_path / "s.txt"
        code = main(["run", "--config", str(cfg), "--set", "horizon=5",
                     "--summary", str(summary)])
        assert code == 0
        capsys.readouterr()
        assert "horizon=5" in summary.read_text()

    def test_exit_codes_for_bad_invocations(self, tmp_path, capsys):
        assert main(["run"]) == 1
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1
        cfg = write_small_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--set", "eta=-1"]) == 1
        assert main(["run", "--config", str(cfg), "--set", "bogus.key=1"]) == 1
        assert main(["not-a-command"]) == 1
        capsys.readouterr()

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        assert main(["run", "--config", str(cfg), "--set", "seed=-7"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "seed must be in [0, 2**32), got -7" in captured.err

    def test_divergence_exits_two(self, capsys):
        code = main(["run", "--preset", "fig_delay", "--set", "eta=2.0",
                     "--set", "adversity.tau_bar=4"])
        out = capsys.readouterr().out
        assert code == 2
        assert "diverged=true" in out

    def test_penalty_weight_times_exponent_must_be_finite(self, capsys):
        code = main(["run", "--preset", "dispatch", "--set", "costs.penalty_weight=1e308"])
        assert code == 1
        err = capsys.readouterr().err
        assert "costs.penalty_weight must be such that" in err
        assert "no multiplier" not in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cost_sum_overflow_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(
            "n = 3\nb = 29.1\neta = 1.778\nseed = 3\nearly_stop = 0\ntopology.p = 1\n"
            "costs.kind = quadratic\ncosts.a_lo = 0.5\ncosts.a_hi = 1.5\ncosts.b_lo = -3\ncosts.b_hi = 3\n"
            "costs.penalty = box\ncosts.box_lo = 0\ncosts.box_hi = 10\n"
            "costs.penalty_weight = 4e307\ncosts.penalty_exponent = 4\n"
            "maps.node.kind = saturation\nmaps.node.cap = 1\nmaps.node.d_max = 10\n"
        )
        code = main(["run", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 2
        assert "diverged=true" in out and "final_residual=inf" in out

    def test_numeric_failure_exits_three(self, tmp_path, capsys):
        # No multiplier meets the total: near nu = 1e300, where the gradient
        # 2e-300 x + 1e300 meets nu, the next double of nu moves each root
        # by about 1e584, past the double range.
        rows = ["i,kind,p1,p2,p3,lo,hi"]
        rows += [f"{i},quadratic,1e-300,1e300,0,," for i in range(4)]
        csv = tmp_path / "costs.csv"
        csv.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(
            "n = 4\nb = 8.0\neta = 0.01\nhorizon = 5\n"
            "topology.kind = er\ntopology.p = 0.9\n"
            f"costs.kind = csv\ncosts.csv = {csv}\n"
        )
        code = main(["run", "--config", str(cfg)])
        assert code == 3
        assert "numeric error" in capsys.readouterr().err


class TestPresetCommand:
    def test_list_names_all_presets(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig_dyn", "fig_dyn_logpenalty", "fig_fail", "fig_delay",
                     "dispatch", "dispatch_uniform", "dispatch_adversity"):
            assert name in out
        assert "adversity.p_fail" in out

    def test_print_matches_serializer(self, capsys):
        assert main(["preset", "fig_dyn"]) == 0
        assert capsys.readouterr().out == serialize_config(preset("fig_dyn"))

    def test_write_then_reparse(self, tmp_path, capsys):
        target = tmp_path / "fig_dyn.cfg"
        assert main(["preset", "fig_dyn", "--write", str(target)]) == 0
        assert parse_config(target.read_text()) == preset("fig_dyn")
        assert main(["preset", "fig_dyn", "--write", str(target)]) == 1
        assert main(["preset", "fig_dyn", "--write", str(target), "--force"]) == 0
        capsys.readouterr()

    def test_run_flag_executes(self, tmp_path, capsys):
        # A preset runs through `run --preset`; `preset` itself has no --run flag.
        assert main(["preset", "dispatch_uniform", "--run"]) == 1
        assert "--run" in capsys.readouterr().err
        trace = tmp_path / "t.csv"
        code = main(["run", "--preset", "dispatch_uniform", "--set", "horizon=50",
                     "--trace", str(trace)])
        assert code == 0
        assert trace.exists()
        assert "executed_steps=" in capsys.readouterr().out

    def test_unknown_name_exits_one(self, capsys):
        assert main(["preset", "fig_unknown"]) == 1
        assert main(["preset"]) == 1
        capsys.readouterr()


class TestSweepCommand:
    def test_grid_outputs_and_summary(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        cfg = write_small_config(tmp_path, horizon=40)
        out = tmp_path / "out"
        code = main(["sweep", "--config", str(cfg),
                     "--sweep", "eta=0.01,0.02",
                     "--sweep", "adversity.p_fail=0.0,0.5",
                     "--out-dir", str(out)])
        assert code == 0
        for i in range(4):
            assert (out / f"trace_{i:03d}.csv").exists()
            assert (out / f"summary_{i:03d}.txt").exists()
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert rows[0] == "job,overrides,diverged,error"
        assert len(rows) == 5
        assert "eta=0.01" in rows[1] and "adversity.p_fail=0.5" in rows[2]
        stdout = capsys.readouterr().out
        assert stdout.count("ok") == 4

    def test_nonempty_out_dir_needs_force(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        cfg = write_small_config(tmp_path, horizon=10)
        out = tmp_path / "out"
        out.mkdir()
        (out / "old.txt").write_text("x")
        args = ["sweep", "--config", str(cfg), "--sweep", "eta=0.01",
                "--out-dir", str(out)]
        assert main(args) == 1
        assert main(args + ["--force"]) == 0
        capsys.readouterr()

    def test_worker_pool_runs_jobs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "2")
        cfg = write_small_config(tmp_path, horizon=30)
        out = tmp_path / "pool"
        code = main(["sweep", "--config", str(cfg), "--sweep", "seed=1,2",
                     "--out-dir", str(out)])
        assert code == 0
        assert (out / "trace_001.csv").exists()
        capsys.readouterr()

    def test_divergent_point_sets_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        out = tmp_path / "div"
        code = main(["sweep", "--preset", "fig_delay",
                     "--set", "adversity.tau_bar=4", "--set", "horizon=100",
                     "--sweep", "eta=0.01,8.0", "--out-dir", str(out)])
        assert code == 2
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert ",false," in rows[1]
        assert ",true," in rows[2]
        capsys.readouterr()

    def test_preset_default_grid_is_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        out = tmp_path / "grid"
        # fig_fail sweeps p_fail over four values; cut the horizon for speed
        code = main(["sweep", "--preset", "fig_fail", "--set", "horizon=20",
                     "--set", "n=12", "--out-dir", str(out)])
        assert code == 0
        assert (out / "trace_003.csv").exists()
        assert not (out / "trace_004.csv").exists()
        capsys.readouterr()

    def test_thread_cap_must_be_positive_int(self, tmp_path, capsys, monkeypatch):
        cfg = write_small_config(tmp_path, horizon=10)
        out = tmp_path / "x"
        monkeypatch.setenv("DRA_SIM_THREADS", "zero")
        assert main(["sweep", "--config", str(cfg), "--sweep", "seed=1",
                     "--out-dir", str(out)]) == 1
        monkeypatch.setenv("DRA_SIM_THREADS", "0")
        assert main(["sweep", "--config", str(cfg), "--sweep", "seed=1",
                     "--out-dir", str(out)]) == 1
        capsys.readouterr()

    def test_default_cap_is_the_cpus_this_process_may_use(self, monkeypatch):
        # Under taskset or a CPU-limited container the affinity mask, not the machine, sizes the pool.
        monkeypatch.delenv("DRA_SIM_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert (cli._worker_cap(100), cli._worker_cap(2)) == (3, 2)
        monkeypatch.setenv("DRA_SIM_THREADS", "8")
        assert cli._worker_cap(100) == 8
        monkeypatch.delenv("DRA_SIM_THREADS")
        monkeypatch.delattr(cli.os, "sched_getaffinity")  # a platform without affinity masks
        assert cli._worker_cap(100) == 64

    def test_summary_table_doubles_quotes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        cfg = write_small_config(tmp_path, horizon=5)

        def table(out, argv):
            assert main(["sweep", "--config", str(cfg), "--set", "topology.kind=edges", *argv,
                         "--out-dir", str(tmp_path / out)]) == 1
            return list(csv.reader(io.StringIO((tmp_path / out / "sweep_summary.csv").read_text())))

        def error(path):
            return f"config: topology.edges_file: cannot read {str(path)!r}: No such file or directory"

        missing = tmp_path / 'no,"such.edges'
        rows = table("a", ["--set", f"topology.edges_file={missing}", "--sweep", "seed=1,2"])
        assert rows == [["job", "overrides", "diverged", "error"],
                        ["000", "seed=1", "false", error(missing)], ["001", "seed=2", "false", error(missing)]]
        quoted = tmp_path / 'a"b.edges'
        rows = table("b", ["--sweep", f"topology.edges_file={quoted}"])
        assert rows[1] == ["000", f"topology.edges_file={quoted}", "false", error(quoted)]
        capsys.readouterr()

    def test_numeric_error_column_and_exit_code(self, tmp_path, capsys, monkeypatch):
        # A numeric failure exits 3, ahead of a config error in another job.
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        run = cli.run
        errors = {2: NumericError("gradient overflow"), 3: ConfigurationError("bad input")}

        def failing(cfg):
            if cfg.seed in errors:
                raise errors[cfg.seed]
            return run(cfg)

        monkeypatch.setattr(cli, "run", failing)
        cfg = write_small_config(tmp_path, horizon=10)
        out = tmp_path / "numeric"
        assert main(["sweep", "--config", str(cfg), "--sweep", "seed=1,2,3", "--out-dir", str(out)]) == 3
        rows = list(csv.reader(io.StringIO((out / "sweep_summary.csv").read_text())))
        assert [row[3] for row in rows[1:]] == ["", "numeric: gradient overflow", "config: bad input"]
        assert "job 001 [seed=2] numeric: gradient overflow\n" in capsys.readouterr().out

    def test_sweep_requires_values(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        assert main(["sweep", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "y")]) == 1
        capsys.readouterr()

    def test_list_valued_key_cannot_be_swept(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        out = tmp_path / "cycle"
        assert main(["sweep", "--config", str(cfg), "--sweep", "topology.cycle_ps=0.5,0.25",
                     "--out-dir", str(out)]) == 1
        assert "topology.cycle_ps" in capsys.readouterr().err
        assert not out.exists()


class TestPercolationCommand:
    def test_threshold_and_window_output(self, capsys):
        code = main(["percolation", "--n", "50", "--p", "0.2",
                     "--p-fail", "0.85"])
        assert code == 0
        got = kv_lines(capsys.readouterr().out)
        assert got["n"] == "50"
        assert float(got["mean_degree"]) == 4.9
        assert float(got["threshold"]) == 1.0 - 1.0 / 4.9
        assert got["convention"] == "half"
        assert got["min_window"] == "1"
        assert float(got["effective_failure"]) == 0.85

    def test_standard_convention(self, capsys):
        assert main(["percolation", "--n", "50", "--p", "0.2",
                     "--convention", "standard"]) == 0
        got = kv_lines(capsys.readouterr().out)
        assert float(got["mean_degree"]) == 9.8
        assert float(got["threshold"]) == 1.0 - 1.0 / 9.8

    def test_undefined_threshold_prints_warning(self, capsys):
        assert main(["percolation", "--n", "11", "--p", "0.2"]) == 0
        got = kv_lines(capsys.readouterr().out)
        assert got["threshold"] == "none"
        assert "warning" in got

    def test_links_that_always_fail_have_no_window(self, capsys):
        # p_fail = 1 is an accepted rate, but no union window reconnects.
        code = main(["percolation", "--n", "50", "--p", "0.2", "--p-fail", "1.0", "--trials", "3"])
        assert code == 0
        got = kv_lines(capsys.readouterr().out)
        assert got["min_window"] == "none"
        assert float(got["effective_failure"]) == 1.0
        assert (got["mc_fraction"], got["mc_trials"]) == ("0.0", "3")

    def test_monte_carlo_block(self, capsys):
        code = main(["percolation", "--n", "20", "--p", "0.3",
                     "--p-fail", "0.5", "--window", "2", "--trials", "50"])
        assert code == 0
        got = kv_lines(capsys.readouterr().out)
        frac = float(got["mc_fraction"])
        assert 0.0 <= float(got["mc_wilson_low"]) <= frac
        assert frac <= float(got["mc_wilson_high"]) <= 1.0
        assert got["mc_trials"] == "50"

    def test_bad_parameters_exit_one(self, capsys):
        assert main(["percolation", "--n", "1", "--p", "0.2"]) == 1
        assert main(["percolation", "--n", "50", "--p", "0.0"]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize("flag, value", [("--trials", "-5"), ("--window", "-3")])
    def test_negative_count_is_one_error_line(self, capsys, flag, value):
        assert main(["percolation", "--n", "50", "--p", "0.2", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {flag} must be >= 0, got {value}\n"

    @pytest.mark.parametrize("value", ["-0.5", "nan"])
    def test_bad_failure_rate_is_one_error_line(self, capsys, value):
        assert main(["percolation", "--n", "50", "--p", "0.2", "--p-fail", value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: failure rate must be in [0, 1], got {float(value)}\n"

    def test_negative_seed_is_one_error_line(self, capsys):
        assert main(["percolation", "--n", "50", "--p", "0.2", "--trials", "10", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "seed" in captured.err


class TestBoundsCommand:
    def test_raw_constants_mode(self, capsys):
        code = main(["bounds", "--preset", "fig_delay",
                     "--set", "adversity.tau_bar=0",
                     "--lambda2", "0.044", "--lambda-max", "0.311",
                     "--u", "0.115"])
        assert code == 0
        got = kv_lines(capsys.readouterr().out)
        assert float(got["eta_max"]) == 3.279471361593397
        assert float(got["eta_max_first_order"]) == 3.2850913980321925
        assert float(got["max_delay_budget"]) == 5.558942723186794
        assert float(got["kappa_link"]) == 0.9394130628134758
        assert float(got["big_k_link"]) == 1.0644944589178593
        assert got["connected"] == "true"

    def test_raw_disconnected_constants_report_no_bound(self, capsys):
        assert main(["bounds", "--preset", "fig_delay",
                     "--lambda2", "0", "--lambda-max", "0.311", "--u", "0.115"]) == 0
        got = kv_lines(capsys.readouterr().out)
        assert got["connected"] == "false" and got["eta_max"] == "none"
        assert got["note"] == "union graph disconnected; no contraction bound exists"

    @pytest.mark.parametrize("flag, values", [
        ("--lambda2", ("inf", "inf", "1")), ("--lambda2", ("nan", "1", "1")),
        ("--lambda-max", ("0.1", "inf", "1")), ("--u", ("0.1", "1", "inf")),
    ])
    def test_nonfinite_raw_constant_is_one_error_line(self, capsys, flag, values):
        lam2, lam_max, u = values
        assert main(["bounds", "--preset", "fig_delay", "--lambda2", lam2, "--lambda-max", lam_max, "--u", u]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {flag} must be finite, got ") and captured.err.count("\n") == 1

    def test_raw_constants_must_come_together(self, capsys):
        assert main(["bounds", "--preset", "fig_delay",
                     "--lambda2", "0.1"]) == 1
        capsys.readouterr()

    def test_scenario_mode_reports_spectrum_and_ratio(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10, seed=3)
        assert main(["bounds", "--config", str(cfg)]) == 0
        got = kv_lines(capsys.readouterr().out)
        lam2 = float(got["lambda2"])
        lam_max = float(got["lambda_max"])
        assert 0.0 < lam2 <= lam_max
        assert float(got["u"]) > 0.0
        eta_max = float(got["eta_max"])
        assert math.isclose(float(got["eta_ratio"]), 0.02 / eta_max, rel_tol=1e-12)
        assert float(got["eta_max_first_order"]) > 0.0
        assert "domain_lo" in got and "domain_hi" in got

    def test_delay_shrinks_bound(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        main(["bounds", "--config", str(cfg)])
        base = float(kv_lines(capsys.readouterr().out)["eta_max"])
        main(["bounds", "--config", str(cfg), "--set", "adversity.tau_bar=4"])
        delayed = float(kv_lines(capsys.readouterr().out)["eta_max"])
        assert delayed < base

    def test_eta_ratio_is_a_diverged_runs_ratio(self, capsys):
        sets = ["--set", "eta=8", "--set", "horizon=400", "--set", "adversity.p_fail=0.3"]
        assert main(["run", "--preset", "fig_delay", *sets]) == 2
        ratio = kv_lines(capsys.readouterr().out)["eta_bound_ratio"]
        assert main(["bounds", "--preset", "fig_delay", *sets]) == 0
        assert kv_lines(capsys.readouterr().out)["eta_ratio"] == ratio == "3627.8429959182968"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edge", ["1e308", "1e300"])
    def test_diverged_run_without_a_finite_smoothness_bound(self, edge, capsys):
        # A box of +-1e308 pads to an infinite smoothness domain, and on the
        # padded +-1e300 box the curvature overflows: either way the run has
        # no certificate, so it reports no ratio, and bounds is one error.
        sets = ["--set", "eta=8", "--set", "horizon=50",
                "--set", f"costs.box_lo=-{edge}", "--set", f"costs.box_hi={edge}"]
        assert main(["run", "--preset", "fig_delay", *sets]) == 2
        captured = capsys.readouterr()
        assert captured.err == ""
        assert kv_lines(captured.out)["eta_bound_ratio"] == "none"
        assert main(["bounds", "--preset", "fig_delay", *sets]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_custom_domain_flag(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path, horizon=10)
        assert main(["bounds", "--config", str(cfg), "--domain=-5,5"]) == 0
        got = kv_lines(capsys.readouterr().out)
        assert float(got["domain_lo"]) == -5.0
        assert float(got["domain_hi"]) == 5.0
        assert main(["bounds", "--config", str(cfg), "--domain", "5"]) == 1
        capsys.readouterr()


class TestBenchCommand:
    def test_reports_per_size_timings_and_slope(self, capsys):
        code = main(["bench", "--sizes", "16,32", "--steps", "20"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("n=16 seconds_per_step=")
        assert lines[1].startswith("n=32 seconds_per_step=")
        assert float(lines[0].split("=")[-1]) > 0.0
        assert lines[-1].startswith("slope=")
        assert math.isfinite(float(lines[-1].split("=")[1]))

    def test_constant_degree_at_sparse_sizes(self, capsys, monkeypatch):
        # n = 10^4 is above the dense eigvalsh cutoff: the step rate's
        # lambda_max comes from the Lanczos iteration.
        sizes = []
        lanczos = graph._lanczos_extremes
        monkeypatch.setattr(graph, "_lanczos_extremes", lambda lap: sizes.append(lap.shape[0]) or lanczos(lap))
        assert main(["bench", "--degree", "15", "--sizes", "2000,10000", "--steps", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1].startswith("n=10000 seconds_per_step=")
        assert lines[-1].startswith("slope=")
        assert math.isfinite(float(lines[-1].split("=")[1]))
        assert sizes == [10000]

    def test_repeated_size_is_one_error_line(self, capsys):
        # One size twice leaves no slope to fit.
        assert main(["bench", "--sizes", "50,50", "--steps", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: scaling_benchmark needs at least two distinct sizes, got (50, 50)\n"

    def test_bad_sizes_exit_one(self, capsys):
        assert main(["bench", "--sizes", "", "--steps", "20"]) == 1
        assert main(["bench", "--sizes", "16,32", "--steps", "0"]) == 1
        capsys.readouterr()

    def test_negative_seed_is_one_error_line(self, capsys):
        assert main(["bench", "--sizes", "10,12", "--steps", "10", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "seed" in captured.err


class TestOutsideInputErrors:
    """Malformed or missing outside input ends in exit 1 with a message naming it."""

    def run_error(self, capsys, argv):
        assert main(argv) == 1
        return capsys.readouterr().err

    def test_bounds_domain_not_numbers(self, tmp_path, capsys):
        cfg = write_small_config(tmp_path)
        err = self.run_error(capsys, ["bounds", "--config", str(cfg), "--domain", "a,b"])
        assert err.startswith("error: --domain")

    def test_bench_sizes_not_integers(self, capsys):
        err = self.run_error(capsys, ["bench", "--sizes", "50,x", "--steps", "20"])
        assert err.startswith("error: --sizes")

    def test_cost_table_bound_not_a_number(self, tmp_path, capsys):
        table = tmp_path / "costs.csv"
        rows = ["i,kind,p1,p2,p3,lo,hi"] + [f"{i},quadratic,1.0,0.0,0,x,5" for i in range(10)]
        table.write_text("\n".join(rows) + "\n")
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", "costs.kind=csv",
                                      "--set", f"costs.csv={table}"])
        assert "bad cost row at line 2" in err

    def test_cost_table_coefficient_not_finite(self, tmp_path, capsys):
        table = tmp_path / "costs.csv"
        rows = ["i,kind,p1,p2,p3,lo,hi", "0,quadratic,1.0,nan,0,,"]
        rows += [f"{i},quadratic,1.0,0.0,0,," for i in range(1, 10)]
        table.write_text("\n".join(rows) + "\n")
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", "costs.kind=csv",
                                      "--set", f"costs.csv={table}"])
        assert err == "error: line 2: cost coefficients must be finite, got p2=nan, p3=0.0\n"

    def test_edge_list_negative_node_count(self, tmp_path, capsys):
        edges = tmp_path / "net.edges"
        edges.write_text("n=-2\n")
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", "topology.kind=edges",
                                      "--set", f"topology.edges_file={edges}"])
        assert "'n=-2'" in err

    @pytest.mark.parametrize("kind_key, kind, file_key", [
        ("topology.kind", "edges", "topology.edges_file"),
        ("costs.kind", "csv", "costs.csv"),
    ])
    def test_missing_input_file(self, tmp_path, capsys, kind_key, kind, file_key):
        missing = tmp_path / "missing.txt"
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", f"{kind_key}={kind}",
                                      "--set", f"{file_key}={missing}"])
        assert err.startswith("error: ") and str(missing) in err

    def test_config_file_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_bytes(b"\xff\xfe" + MINIMAL.encode("utf-16-le"))
        err = self.run_error(capsys, ["run", "--config", str(cfg)])
        assert err.startswith("error: --config: ") and f"{str(cfg)!r} is not UTF-8 text" in err

    def test_config_path_is_a_directory(self, tmp_path, capsys):
        err = self.run_error(capsys, ["run", "--config", str(tmp_path)])
        assert err.startswith(f"error: --config: cannot read {str(tmp_path)!r}")

    @pytest.mark.parametrize("kind_key, kind, file_key", [
        ("topology.kind", "edges", "topology.edges_file"),
        ("costs.kind", "csv", "costs.csv"),
    ])
    def test_input_file_not_utf8(self, tmp_path, capsys, kind_key, kind, file_key):
        data = tmp_path / "data.txt"
        data.write_bytes(b"\xff\xfe" + "n=10\n".encode("utf-16-le"))
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", f"{kind_key}={kind}",
                                      "--set", f"{file_key}={data}"])
        assert err.startswith("error: ") and f"{str(data)!r} is not UTF-8 text" in err

    def test_edge_list_node_count_checked_before_allocating(self, tmp_path, capsys):
        edges = tmp_path / "net.edges"
        edges.write_text("n=100000000\n0 1 1.0\n")
        cfg = write_small_config(tmp_path, horizon=5)
        err = self.run_error(capsys, ["run", "--config", str(cfg), "--set", "topology.kind=edges",
                                      "--set", f"topology.edges_file={edges}"])
        assert "edge list has n=100000000 but n=10 was expected" in err

    def test_missing_input_file_in_sweep_is_a_job_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "2")
        missing = tmp_path / "missing.edges"
        cfg = write_small_config(tmp_path, horizon=5)
        out = tmp_path / "out"
        assert main(["sweep", "--config", str(cfg), "--set", "topology.kind=edges",
                     "--set", f"topology.edges_file={missing}",
                     "--sweep", "seed=1,2", "--out-dir", str(out)]) == 1
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(rows) == 3
        for row in rows[1:]:
            assert f',"config: topology.edges_file: cannot read {str(missing)!r}' in row
        capsys.readouterr()


class TestUnwritableOutputs:
    """An output path that cannot be written is a configuration error naming it."""

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_sweep_records_the_job_and_finishes_the_others(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("DRA_SIM_THREADS", threads)
        out = tmp_path / "out"
        (out / "trace_001.csv").mkdir(parents=True)
        code = main(["sweep", "--preset", "dispatch", "--sweep", "seed=1,2,3", "--set", "horizon=50",
                     "--out-dir", str(out), "--force"])
        assert code == 1
        rows = (out / "sweep_summary.csv").read_text().strip().splitlines()
        assert len(rows) == 4
        assert rows[2].endswith(f',"config: cannot write {str(out / "trace_001.csv")!r}: Is a directory"')
        assert rows[1].endswith(',""') and rows[3].endswith(',""')
        for i in (0, 2):
            assert (out / f"summary_{i:03d}.txt").read_text().startswith("n=10\n")
        captured = capsys.readouterr()
        assert captured.out.count("] ok\n") == 2 and "job 001 [seed=2] config: cannot write" in captured.out
        assert captured.err == ""

    def test_sweep_out_dir_that_is_a_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("DRA_SIM_THREADS", "1")
        out = tmp_path / "out"
        out.write_text("x")
        code = main(["sweep", "--preset", "dispatch", "--sweep", "seed=1", "--out-dir", str(out), "--force"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {str(out)!r}") and err.count("\n") == 1
        assert err == f"error: cannot write {str(out)!r}: Not a directory\n"

    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_run_prints_one_error_line(self, tmp_path, capsys, flag):
        target = tmp_path / "taken"
        target.mkdir()
        code = main(["run", "--preset", "dispatch", "--set", "horizon=20", flag, str(target), "--force"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {str(target)!r}: Is a directory\n"
        assert captured.out == ""

    def test_run_output_under_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = main(["run", "--preset", "dispatch", "--set", "horizon=20", "--trace", str(blocker / "t.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {str(blocker / 't.csv')!r}: ")
        summary = blocker / "y.txt"
        code = main(["run", "--preset", "dispatch", "--set", "horizon=20", "--summary", str(summary), "--force"])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {str(summary)!r}: Not a directory\n"
