"""Exit codes, file outputs, and printed diagnostics of the console tool."""

import dataclasses
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gpconsensus import cli, engine
from gpconsensus.cli import main
from gpconsensus.config import SimConfig, parse_config_text
from gpconsensus.engine import prepare_run
from oracles import read_trajectory_csv

BETA_STOCK = 23.838114035243105
ETA_BAR_STOCK = 0.09764858224315007
EPSILON_STOCK = 0.7811886579452005


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang, marker):
    """The first fenced README block in ``lang`` that contains ``marker``."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    return next(body for kind, body in blocks if kind == lang and marker in body)


def write_config(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestValidate:
    def test_case_d_prints_derived_bounds(self, capsys):
        assert main(["validate", "--case", "d"]) == 0
        out = capsys.readouterr().out
        assert "config ok" in out
        assert f"beta = {BETA_STOCK!r}" in out
        assert f"eta_bar = {ETA_BAR_STOCK!r}" in out
        assert f"epsilon = {EPSILON_STOCK!r}" in out
        assert "domain_ok = true" in out

    def test_rejects_delta_too_large_for_compensated_law(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "delta = 0.3\n")
        assert main(["validate", "--case", "d", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("config error:")

    def test_requires_case_or_config(self, capsys):
        assert main(["validate"]) == 1
        assert "provide --case and/or --config" in capsys.readouterr().err

    def test_sampled_initial_states_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "initial_states = sample\n")
        assert main(["validate", "--case", "a", "--config", cfg]) == 0
        assert "sampled at run time" in capsys.readouterr().out

    def test_initial_state_outside_domain_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "initial_states = 2.0, 0.15, -0.06, -0.71\n")
        assert main(["validate", "--case", "d", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "agent 1 is 2.0, outside [-1.5, 1.5]" in err

    @pytest.mark.parametrize(
        "line", ["t_end = nan", "t_end = inf", "dt = inf", "sigma_f = inf", "lip_f = nan"]
    )
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, line + "\n")
        assert main(["validate", "--case", "d", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert f"{line.split()[0]} must be finite" in err


class TestRun:
    def test_writes_trajectory_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.05\n")
        out_dir = tmp_path / "out"
        code = main(
            ["run", "--case", "d", "--config", cfg, "--seed", "3", "--out", str(out_dir)]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "case=d seed=3" in stdout
        traj_path = out_dir / "trajectory_d.csv"
        assert traj_path.exists()
        assert (out_dir / "summary.csv").exists()
        meta, header, mat = read_trajectory_csv(traj_path)
        assert meta["case"] == "d"
        assert meta["seed"] == "3"
        assert mat.shape[0] == 6  # 0.05 s at stride 10; final step lands on the stride

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.05\n")
        dirs = [tmp_path / "r1", tmp_path / "r2"]
        for d in dirs:
            assert main(["run", "--case", "d", "--config", cfg, "--out", str(d)]) == 0
        capsys.readouterr()
        for name in ("trajectory_d.csv", "summary.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_unknown_case_is_config_error(self, capsys):
        assert main(["run", "--case", "z"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_missing_case_and_config(self, capsys):
        assert main(["run"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_negative_seed_rejected(self, capsys):
        assert main(["run", "--case", "a", "--seed", "-1"]) == 1
        assert "seed must be >= 0" in capsys.readouterr().err

    def test_disconnected_topology_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "edges = 1-2, 3-4\n")
        assert main(["run", "--case", "a", "--config", cfg]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_database_overflow_exits_numerical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.5\nmax_points = 5\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--case", "d", "--config", cfg, "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "case=d" in err

    def test_initial_state_outside_domain_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "initial_states = 2.0, 0.15, -0.06, -0.71\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--case", "d", "--config", cfg, "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "agent 1 is 2.0, outside [-1.5, 1.5]" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "line",
        [
            "t_end = nan",
            "t_end = inf",
            "dt = inf",
            "sigma_f = inf",
            "plant = affine\nplant.f_offset = nan\nplant.f_slope = 0",
        ],
    )
    def test_non_finite_float_is_config_error(self, tmp_path, capsys, line):
        cfg = write_config(tmp_path, line + "\n")
        out_dir = tmp_path / "out"
        code = main(["run", "--case", "d", "--config", cfg, "--out", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "must be finite" in err
        assert not out_dir.exists()

    def test_gamma_failure_warns_on_stderr(self, tmp_path, capsys):
        # case d at t_end = 0.5 ends with gamma_ok = false
        cfg = write_config(tmp_path, "t_end = 0.5\n")
        out_dir = tmp_path / "out"
        assert main(["run", "--case", "d", "--config", cfg, "--out", str(out_dir)]) == 0
        assert "bound-validity (gamma) condition fails" in capsys.readouterr().err
        assert "gamma_ok = false" in (out_dir / "summary.csv").read_text(encoding="utf-8")

    def test_domain_escape_exits_numerical(self, tmp_path, capsys):
        # unmodelled drift of +50 pushes every state out of [-1.5, 1.5]
        cfg = write_config(
            tmp_path,
            "plant = affine\nplant.f_offset = 50\nplant.f_slope = 0\n"
            "learning = offline\noffline_dataset_size = 0\nt_end = 0.5\n",
        )
        out_dir = tmp_path / "out"
        code = main(["run", "--case", "c", "--config", cfg, "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure:")
        assert "outside [-1.5, 1.5]" in err
        assert "case=c" in err
        assert not out_dir.exists()


class TestMonteCarlo:
    def test_sweep_writes_series_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.1\n")
        out_dir = tmp_path / "mc"
        code = main(
            [
                "montecarlo", "--config", cfg, "--cases", "a,d",
                "--runs", "2", "--seed", "11", "--out", str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "case=a runs=2 median_final_err=" in captured.out
        assert "case=d runs=2 median_final_err=" in captured.out
        # both case d runs end with gamma_ok = false, both case a runs true
        assert "(gamma) condition fails at t_end in 2 of 4 runs" in captured.err
        mc_text = (out_dir / "montecarlo.csv").read_text(encoding="utf-8")
        assert "case,run,seed,t,err,err_mean,err_max,err_min" in mc_text
        assert "# base_seed = 11" in mc_text
        assert (out_dir / "summary.csv").exists()

    @pytest.fixture
    def no_runs(self, monkeypatch):
        """Fails the test if the sweep starts any run."""

        def no_run(*args, **kwargs):
            raise AssertionError("a run started on a rejected sweep")

        monkeypatch.setattr(engine, "_mc_worker", no_run)

    def test_config_error_stops_before_the_sweep(self, tmp_path, capsys, no_runs):
        cfg = write_config(tmp_path, "initial_states = 2.0, 0.15, -0.06, -0.71\n")
        out_dir = tmp_path / "mc"
        assert main(["montecarlo", "--config", cfg, "--runs", "1", "--out", str(out_dir)]) == 1
        assert "agent 1 is 2.0, outside [-1.5, 1.5]" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_zero_runs_rejected(self, tmp_path, capsys, no_runs):
        cfg = write_config(tmp_path, "t_end = 0.1\n")
        assert main(["montecarlo", "--config", cfg, "--runs", "0"]) == 1
        assert "runs must be >= 1, got 0" in capsys.readouterr().err

    def test_jobs_below_one_rejected(self, tmp_path, capsys, no_runs):
        cfg = write_config(tmp_path, "t_end = 0.1\n")
        for jobs in ("0", "-3"):
            assert main(["montecarlo", "--config", cfg, "--runs", "1", "--jobs", jobs]) == 1
            assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err

    @pytest.mark.parametrize("cases", ["a,b", "b,a"])
    def test_every_listed_case_validated_before_the_sweep(
        self, tmp_path, capsys, no_runs, cases
    ):
        # case a's 150-point offline grid exceeds max_points; case b has none
        cfg = write_config(tmp_path, "max_points = 100\nt_end = 0.02\n")
        out_dir = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--cases", cases, "--runs", "2"]
        assert main(argv + ["--out", str(out_dir)]) == 1
        assert "offline_dataset_size 150 exceeds max_points 100" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_output_bytes_independent_of_jobs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.05\n")
        outputs = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"mc_jobs{jobs}"
            argv = ["montecarlo", "--config", cfg, "--cases", "a,b,c,d", "--runs", "2"]
            assert main(argv + ["--jobs", jobs, "--out", str(out_dir)]) == 0
            outputs.append(
                [(out_dir / name).read_bytes() for name in ("montecarlo.csv", "summary.csv")]
            )
        capsys.readouterr()
        assert outputs[0] == outputs[1]

    def test_unknown_case_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.1\n")
        assert main(["montecarlo", "--config", cfg, "--cases", "a,z"]) == 1
        assert "unknown case 'z'" in capsys.readouterr().err

    def test_repeated_case_rejected(self, tmp_path, capsys, no_runs):
        cfg = write_config(tmp_path, "t_end = 0.02\n")
        out_dir = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--cases", "a,a", "--runs", "2"]
        assert main(argv + ["--out", str(out_dir)]) == 1
        assert "cases lists a case more than once: ('a', 'a')" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_empty_case_list_rejected(self, tmp_path, capsys, no_runs):
        cfg = write_config(tmp_path, "t_end = 0.1\n")
        assert main(["montecarlo", "--config", cfg, "--cases", " , "]) == 1
        assert "cases lists no case" in capsys.readouterr().err

    def test_csv_rows_follow_listed_case_order(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.02\n")
        out_dir = tmp_path / "mc"
        argv = ["montecarlo", "--config", cfg, "--cases", "d,a", "--runs", "2"]
        assert main(argv + ["--out", str(out_dir)]) == 0
        capsys.readouterr()
        for name in ("montecarlo.csv", "summary.csv"):
            text = (out_dir / name).read_text(encoding="utf-8")
            rows = [ln for ln in text.splitlines() if not ln.startswith("#")][1:]
            first_case = [row.split(",")[0] for row in rows]
            assert first_case[0] == "d" and first_case[-1] == "a"
            assert first_case == sorted(first_case, key="da".index)

    def test_failed_runs_reported_not_fatal(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "t_end = 0.3\nmax_points = 3\n")
        out_dir = tmp_path / "mc"
        code = main(
            [
                "montecarlo", "--config", cfg, "--cases", "d",
                "--runs", "1", "--seed", "0", "--out", str(out_dir),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "case=d runs=0 median_final_err=nan" in captured.out
        assert "1 runs failed" in captured.err
        assert (out_dir / "summary.csv").exists()


class TestAppendix:
    def test_matches_closed_form_and_writes_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "ap"
        code = main(
            [
                "appendix", "--x0", "1,0", "--eps", "0.05",
                "--t-end", "1.0", "--out", str(out_dir),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        sup_line = next(ln for ln in stdout.splitlines() if ln.startswith("sup |x_sim"))
        assert float(sup_line.rsplit("=", 1)[1]) <= 1e-3
        drift_line = next(ln for ln in stdout.splitlines() if "mean drift" in ln)
        assert float(drift_line.rsplit("=", 1)[1]) <= 1e-3
        assert (out_dir / "trajectory_appendix.csv").exists()

    def test_without_out_prints_only(self, tmp_path, capsys):
        assert main(["appendix", "--t-end", "0.5"]) == 0
        stdout = capsys.readouterr().out
        assert "sup |x_sim - x_closed|" in stdout
        assert "wrote" not in stdout

    def test_bad_x0_shapes(self, capsys):
        assert main(["appendix", "--x0", "1,2,3"]) == 1
        assert "exactly two values" in capsys.readouterr().err
        assert main(["appendix", "--x0", "one,two"]) == 1
        assert "expects 'x1,x2'" in capsys.readouterr().err


class TestParserBehavior:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        assert "run" in capsys.readouterr().out

    def test_unknown_flag_is_config_error(self, capsys):
        assert main(["run", "--case", "a", "--bogus"]) == 1
        assert "config error:" in capsys.readouterr().err

    def test_module_is_runnable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gpconsensus.cli", "validate", "--case", "a"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "config ok" in proc.stdout


class TestReadme:
    def test_scenario_example_is_a_valid_config_naming_every_key(self):
        text = readme_block("ini", "# scenario.cfg")
        prepare_run(parse_config_text(text))
        keys = {
            line.split("#", 1)[0].partition("=")[0].strip()
            for line in text.splitlines()
        } - {""}
        every = {f.name for f in dataclasses.fields(SimConfig)}
        assert keys == every - {"plant_params", "case_label"}

    def test_cli_examples_parse(self):
        commands = [
            shlex.split(line)[1:]
            for line in readme_block("sh", "gpconsensus run").splitlines()
            if line.startswith("gpconsensus ")
        ]
        assert [argv[0] for argv in commands] == ["run", "montecarlo", "appendix", "validate"]
        parser = cli.build_parser()
        for argv in commands:
            assert callable(parser.parse_args(argv).func)
