"""Tests for config parsing, the experiment harness, and schedule comparison."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from etdopt.cli import (
    CSV_HEADER,
    REFERENCE_TOL,
    ConfigFileError,
    ExperimentConfig,
    build_instance,
    compare_schedules,
    main,
    parse_config,
    run_experiment,
)
from etdopt.engine import suggested_stepsizes
from etdopt.graph import generate_random_graph
from etdopt.objective import instance_hash, make_lasso_instance
from etdopt.reference import reference_to_text, solve_centralized


def small_cfg(tmp_path, **kwargs) -> ExperimentConfig:
    base = dict(
        problem="lasso",
        n=6,
        m=4,
        p=2,
        tau=0.1,
        graph_r=0.6,
        beta=0.05,
        eta=(2.0,),
        rounds=60,
        seeds=(1,),
        out=str(tmp_path / "runs"),
    )
    base.update(kwargs)
    return ExperimentConfig(**base)


class TestParseConfig:
    def test_empty_file_gives_benchmark_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        cfg = parse_config(str(path))
        assert cfg.problem == "lasso"
        assert (cfg.n, cfg.p, cfg.m) == (100, 3, 50)
        assert cfg.graph_r == 0.4
        assert cfg.eta == (0.6,)
        assert cfg.beta == 0.0025
        assert cfg.schedule == "poly:20:1.2"
        assert cfg.tau == 0.1
        assert cfg.effective_rounds() == 2000
        assert cfg.seeds == (1,)

    def test_no_file_same_defaults(self, tmp_path):
        empty = tmp_path / "e.cfg"
        empty.write_text("")
        assert parse_config() == parse_config(str(empty))

    def test_periodic_schedule_key(self, tmp_path):
        path = tmp_path / "p.cfg"
        path.write_text("schedule = everyN:4\n")
        assert parse_config(str(path)).schedule == "everyN:4"

    def test_negative_beta_rejected(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("beta = -1\n")
        with pytest.raises(ConfigFileError):
            parse_config(str(path))

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "u.cfg"
        path.write_text("n = 10\nwidget = 3\n")
        with pytest.raises(ConfigFileError, match=":2"):
            parse_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "m.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigFileError, match=":1"):
            parse_config(str(path))

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# a comment\n\nn = 12  # trailing\n")
        assert parse_config(str(path)).n == 12

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "f.cfg"
        path.write_text("rounds = 100\nproblem = lasso\n")
        cfg = parse_config(str(path), {"rounds": 7, "problem": "quadratic"})
        assert cfg.rounds == 7
        assert cfg.problem == "quadratic"

    def test_eta_and_seed_lists(self, tmp_path):
        path = tmp_path / "l.cfg"
        path.write_text("eta = 1.0, 2.0, 3.0\nseeds = 4,5\nn = 3\n")
        cfg = parse_config(str(path))
        assert cfg.eta == (1.0, 2.0, 3.0)
        assert cfg.seeds == (4, 5)
        assert np.array_equal(cfg.eta_vector(3), [1.0, 2.0, 3.0])

    def test_override_without_a_flag_named_by_its_key(self):
        with pytest.raises(ConfigFileError, match="flag --tau: tau: "):
            parse_config(overrides={"tau": "abc"})

    def test_out_of_range_file_value_rejected_under_override(self, tmp_path):
        path = tmp_path / "b.cfg"
        path.write_text("beta = -1\n")
        with pytest.raises(ConfigFileError, match=r"b\.cfg:1: beta: "):
            parse_config(str(path), {"beta": "0.1"})

    def test_bad_schedule_spec_rejected(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("schedule = poly:oops:2\n")
        with pytest.raises(ConfigFileError):
            parse_config(str(path))

    def test_problem_round_defaults(self):
        assert ExperimentConfig(problem="logistic").effective_rounds() == 5000
        assert ExperimentConfig(problem="quadratic").effective_rounds() == 2000


class TestRunExperiment:
    def test_writes_trace_and_summary(self, tmp_path):
        cfg = small_cfg(tmp_path)
        result = run_experiment(cfg)
        assert result.exit_code == 0
        (run_dir,) = result.run_dirs
        csv_text = (run_dir / "trace.csv").read_text()
        lines = csv_text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 62  # header + rounds 0..60
        summary = (run_dir / "summary.txt").read_text()
        assert "stepsize_margin" in summary
        assert "broadcasts_agent0" in summary
        assert "diverged 0" in summary

    def test_csv_first_row_residual_one(self, tmp_path):
        cfg = small_cfg(tmp_path, problem="quadratic", eta=(3.0,), beta=0.2)
        result = run_experiment(cfg)
        row0 = (result.run_dirs[0] / "trace.csv").read_text().splitlines()[1].split(",")
        assert row0[0] == "0"
        assert float(row0[3]) == pytest.approx(1.0)

    def test_residual_falls_back_when_optimum_is_pinned_at_start(self, tmp_path):
        # heavy l1 weight pins the optimum at the all-zero start point, so the
        # residual column degrades to unnormalized distances
        cfg = small_cfg(tmp_path, tau=5.0)
        result = run_experiment(cfg)
        rows = (result.run_dirs[0] / "trace.csv").read_text().splitlines()[1:]
        assert float(rows[0].split(",")[3]) == 0.0
        assert all(np.isfinite(float(r.split(",")[3])) for r in rows)

    def test_rerun_byte_identical(self, tmp_path):
        cfg_a = small_cfg(tmp_path / "a")
        cfg_b = small_cfg(tmp_path / "b")
        csv_a = (run_experiment(cfg_a).run_dirs[0] / "trace.csv").read_bytes()
        csv_b = (run_experiment(cfg_b).run_dirs[0] / "trace.csv").read_bytes()
        assert csv_a == csv_b

    def test_two_seeds_two_runs(self, tmp_path):
        cfg = small_cfg(tmp_path, seeds=(1, 2))
        result = run_experiment(cfg)
        assert len(result.run_dirs) == 2
        a = (result.run_dirs[0] / "trace.csv").read_bytes()
        b = (result.run_dirs[1] / "trace.csv").read_bytes()
        assert a != b

    def test_summary_digest_matches_fresh_instance(self, tmp_path):
        cfg = small_cfg(tmp_path, seeds=(1, 2))
        result = run_experiment(cfg)
        for seed, run_dir in zip(cfg.seeds, result.run_dirs):
            summary = dict(line.partition(" ")[::2]
                           for line in (run_dir / "summary.txt").read_text().splitlines())
            assert summary["instance"] == instance_hash(build_instance(cfg, seed))

    def test_cache_leaves_only_final_names(self, tmp_path):
        cfg = small_cfg(tmp_path)
        run_experiment(cfg)
        objective = build_instance(cfg, 1)
        digest = instance_hash(objective)
        cache = tmp_path / "runs" / "cache"
        name = f"reference_{digest}_tol1e-10.txt"
        assert [p.name for p in cache.iterdir()] == [name]
        assert (cache / name).read_text() == reference_to_text(
            solve_centralized(objective, tol=REFERENCE_TOL), digest)

    def test_stale_reference_file_is_not_trusted(self, tmp_path):
        cfg = small_cfg(tmp_path)
        first = run_experiment(cfg)
        (ref_path,) = (tmp_path / "runs" / "cache").glob("reference_*.txt")
        solved = ref_path.read_text()
        summary_path = first.run_dirs[0] / "summary.txt"

        def stable_summary():
            return [line for line in summary_path.read_text().splitlines()
                    if not line.startswith("seconds_per_round ")]

        before = stable_summary()
        stale, count = re.subn(r"(?m)^f_star .*$", "f_star -1000", solved)
        assert count == 1
        ref_path.write_text(stale)
        again = run_experiment(cfg)
        assert again.exit_code == 0
        assert ref_path.read_text() == solved
        assert stable_summary() == before

    def test_divergent_run_recorded_and_flagged(self, tmp_path):
        cfg = small_cfg(tmp_path, problem="quadratic", eta=(0.001,), beta=1.0,
                        rounds=400)
        result = run_experiment(cfg)
        assert result.exit_code == 1
        assert result.diverged_runs
        csv_lines = (result.run_dirs[0] / "trace.csv").read_text().splitlines()
        assert csv_lines[-1].endswith("nan,nan,nan,nan,nan")
        assert "diverged 1" in (result.run_dirs[0] / "summary.txt").read_text()

    def test_overflowing_polynomial_threshold_run_completes(self, tmp_path):
        # 35**200 is past the float range; the threshold underflows instead.
        result = run_experiment(small_cfg(tmp_path, schedule="poly:1:200", rounds=50))
        assert result.exit_code == 0
        assert len((result.run_dirs[0] / "trace.csv").read_text().splitlines()) == 52

    def test_certificate_block_written(self, tmp_path):
        cfg = small_cfg(tmp_path, certificate=True, beta=0.05, eta=(3.0,),
                        schedule="poly:0.5:1.5", rounds=100)
        result = run_experiment(cfg)
        summary = (result.run_dirs[0] / "summary.txt").read_text()
        assert "consensus_bound_holds 1" in summary


class TestGapReductionOnDefaults:
    def test_default_config_gap_shrinks_with_rounds(self, tmp_path):
        # full-size benchmark defaults; the long-run ergodic gap must be far
        # below the early one
        cfg = parse_config(None, {"out": str(tmp_path / "runs")})
        result = run_experiment(cfg)
        assert result.exit_code == 0
        rows = (result.run_dirs[0] / "trace.csv").read_text().splitlines()[1:]
        gap = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
        assert gap[2000] < gap[200]


class TestNonDegenerateLasso:
    def test_certificate_holds_where_the_minimizer_is_not_zero(self, tmp_path):
        # The default lasso (tau 0.1) is solved at x* = 0 and runs at stepsize
        # margin -0.965. At tau 0.01 the minimizer has nonzero entries, and
        # the suggested stepsizes give a positive margin.
        objective, _ = make_lasso_instance(100, 3, 50, tau=0.01, seed=1)
        eta, beta = suggested_stepsizes(generate_random_graph(100, 0.4, 1), objective)
        cfg = parse_config(None, {
            "tau": 0.01, "rounds": 500, "certificate": True, "out": str(tmp_path / "runs"),
            "beta": repr(float(beta)), "eta": ",".join(repr(float(e)) for e in eta)})
        result = run_experiment(cfg)
        assert result.exit_code == 0
        (run_dir,) = result.run_dirs
        summary = dict(line.partition(" ")[::2]
                       for line in (run_dir / "summary.txt").read_text().splitlines())
        reference = solve_centralized(objective, tol=REFERENCE_TOL)
        (ref_path,) = (tmp_path / "runs" / "cache").glob("reference_*.txt")
        assert ref_path.read_text() == reference_to_text(reference, instance_hash(objective))
        assert reference.certified
        assert np.count_nonzero(reference.x_star) > 0
        assert float(summary["stepsize_margin"]) > 0.0
        assert float(summary["max_trigger_slack"]) <= 0.0
        assert summary["consensus_bound_holds"] == "1"
        assert summary["objective_bounds_hold"] == "1"


class TestCompareSchedules:
    def test_zero_against_itself_ratio_one(self, tmp_path):
        cfg = small_cfg(tmp_path, compare=("zero",), rounds=800)
        result = run_experiment(cfg)
        table = result.tables[1]
        reached = [
            (count, ratio)
            for count, ratio in zip(table.broadcasts["zero"], table.ratios["zero"])
            if count is not None
        ]
        assert reached, "at least one threshold should be reached"
        assert all(ratio == pytest.approx(1.0) for _, ratio in reached)

    def test_frozen_schedule_never_reaches(self, tmp_path):
        # A threshold above every deviation (an infinite base is rejected).
        cfg = small_cfg(tmp_path, compare=("poly:1e300:2", "zero"), rounds=800)
        result = run_experiment(cfg)
        table = result.tables[1]
        assert all(c is None for c in table.broadcasts["poly:1e+300:2"])
        rendered = table.render()
        assert "—" in rendered

    def test_triggered_schedule_saves_broadcasts(self, tmp_path):
        cfg = small_cfg(tmp_path, compare=("poly:1:1.5", "zero"), rounds=800)
        result = run_experiment(cfg)
        table = result.tables[1]
        for count, base in zip(table.broadcasts["poly:1:1.5"], table.broadcasts["zero"]):
            if count is not None and base is not None:
                assert count <= base

    def test_canonical_specs_name_the_runs(self, tmp_path):
        cfg = small_cfg(tmp_path, problem="quadratic", eta=(6.0,), rounds=5,
                        compare=("POLY:20:1.2", "exp:1:0.9^0.1", "everyn:3"))
        result = run_experiment(cfg)
        specs = ["poly:20:1.2", "exp:1:0.9895192582062144", "everyN:3", "zero"]
        names = ["quadratic_s1_poly-20-1_2", "quadratic_s1_exp-1-0_9895192582062144",
                 "quadratic_s1_everyN-3", "quadratic_s1_zero"]
        runs = Path(cfg.out)
        assert {p.name for p in runs.iterdir() if p.is_dir()} == {*names, "cache"}
        assert [p.name for p in result.run_dirs] == names
        for spec, name in zip(specs, names):
            assert f"schedule {spec}" in (runs / name / "summary.txt").read_text().splitlines()
        rows = (runs / "compare_quadratic_s1.txt").read_text().splitlines()[1:]
        assert [row.split()[0] for row in rows] == specs

    def test_threshold_needs_consensus_as_well_as_gap(self, tmp_path):
        # the logistic comparison workload: at round 3 of the zero schedule
        # the ergodic gap is 0.022 while the consensus error is 11.1
        cfg = small_cfg(tmp_path, problem="logistic", n=100, m=50, mi=8, graph_r=0.06,
                        beta=0.05, eta=(32.0,), graph_seed=1, compare=("zero",), rounds=5)
        result = run_experiment(cfg)
        table = result.tables[1]
        assert table.broadcasts["zero"] == [None, None, None, None]
        rows = np.loadtxt(result.run_dirs[0] / "trace.csv", delimiter=",", skiprows=1)
        assert rows[3, 1] < 0.1 < rows[3, 2]

    def test_reached_thresholds_hold_both_errors(self, tmp_path):
        cfg = small_cfg(tmp_path, compare=("poly:1:1.5", "zero"), rounds=800)
        result = run_experiment(cfg)
        table = result.tables[1]
        for spec, run_dir in zip(table.schedules, result.run_dirs):
            rows = np.loadtxt(run_dir / "trace.csv", delimiter=",", skiprows=1)
            for thr, count in zip(table.thresholds, table.broadcasts[spec]):
                both = (rows[:, 0] >= 1) & (rows[:, 1] <= thr) & (rows[:, 2] <= thr)
                if count is None:
                    assert not both.any()
                else:
                    assert rows[np.argmax(both), 4] == count


class TestMain:
    def test_smoke_run(self, tmp_path, capsys):
        cfg_path = tmp_path / "smoke.cfg"
        cfg_path.write_text("n = 8\nm = 3\n")
        code = main(
            [
                "--config", str(cfg_path),
                "--problem", "quadratic",
                "--rounds", "30",
                "--seed", "3",
                "--out", str(tmp_path / "o"),
                "--beta", "0.2",
                "--eta", "3.0",
                "--graph-r", "0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_bound_skips_the_certificate(self, tmp_path):
        # A schedule base of 1e200 squares past the float range in the bound:
        # an infinite bound holds vacuously and must not be reported.
        assert main(["--problem", "quadratic", "--certificate", "--schedule", "poly:1e200:2",
                     "--rounds", "20", "--graph-r", "0.1", "--beta", "0.02", "--eta", "6",
                     "--out", str(tmp_path / "o")]) == 0
        summary = next((tmp_path / "o").glob("*/summary.txt")).read_text()
        assert "broadcasts_total 100" in summary
        assert "certificate_skipped" in summary
        assert "_hold" not in summary

    @pytest.mark.filterwarnings("ignore:stepsize condition violated:UserWarning")
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_reported_without_runtime_warnings(self, tmp_path, capsys):
        # Every overflow on the way to the non-finite iterate is expected.
        assert main(["--problem", "quadratic", "--rounds", "400", "--eta", "0.001",
                     "--beta", "1", "--out", str(tmp_path / "o")]) == 1
        assert "diverged: quadratic seed=1 " in capsys.readouterr().err

    def test_bad_flag_value_exits_2(self, tmp_path):
        assert main(["--beta", "-3", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("line", ["n = -5", "m = 0", "p = 0", "mi = 0", "eta = nan",
                                      "beta = inf", "eta = 1, 2", "seeds = -1"])
    def test_out_of_range_config_value_exits_2(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(line + "\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--rounds", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if line != "eta = 1, 2":  # the one check across keys has no single line to name
            key = line.split()[0]
            assert f"bad.cfg:1: {key}: " in err

    # --seed sets the `seeds` key. Each value goes through its key's parser,
    # the one a file line goes through, not through argparse.
    @pytest.mark.parametrize("flag_value", ["--problem foo", "--rounds abc", "--rounds 1.5",
                                            "--beta abc", "--graph-r x", "--seed abc",
                                            "--beta -1"])
    def test_rejected_flag_named_as_typed(self, tmp_path, capsys, flag_value):
        flag = flag_value.split()[0]
        assert main([*flag_value.split(), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: flag {flag}: ")
        assert "usage:" not in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_schedule_flag_exits_2(self, tmp_path, capsys):
        assert main(["--schedule", "poly:2^1e5:1", "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_removed_variant_key_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "variant.cfg"
        cfg_path.write_text("variant = smooth\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "unknown key 'variant'" in err

    @pytest.mark.parametrize("line", ["reference_tol = 1e-8", "dual_radius = 5",
                                      "enforce_stepsize = true"])
    def test_removed_run_option_keys_exit_2(self, tmp_path, capsys, line):
        cfg_path = tmp_path / "removed.cfg"
        cfg_path.write_text(line + "\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"unknown key '{line.split()[0]}'" in err

    @pytest.mark.parametrize("spec", ["poly:inf:2", "poly:1e400:2", "exp:inf:0.97"])
    def test_non_finite_schedule_exits_2(self, tmp_path, capsys, spec):
        assert main(["--schedule", spec, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "o").exists()

    def test_unconnectable_graph_exits_2(self, tmp_path, capsys):
        # an edge budget of round(0.1 * 10) = 1 cannot connect 5 nodes
        cfg_path = tmp_path / "sparse.cfg"
        cfg_path.write_text("n = 5\ngraph_r = 0.1\n")
        assert main(["--config", str(cfg_path), "--out", str(tmp_path / "o"),
                     "--rounds", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cannot connect 5 nodes" in err

    def test_unreadable_config_exits_2(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_module_entry_point_runs_without_runpy_warning(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "etdopt.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
