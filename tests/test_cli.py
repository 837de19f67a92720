"""CLI tests, run in-process through main(argv) so exit codes and output
can be asserted directly. One subprocess test covers the installed
console-script wiring."""

import os
import subprocess
import sys

import numpy as np
import pytest

import blindcrb
from blindcrb import (
    SystemConfig,
    crb_fast,
    default_anchor,
    generate_symbols,
    make_precoder,
)
from blindcrb.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_USAGE,
    main,
)

RUN_CONFIG = """\
# tiny smoke plan
M = 4
L = 2
N = 6

snr_db_grid = 10, 20
n_channels = 2
n_trials = 1
"""


@pytest.fixture
def run_config(tmp_path):
    path = tmp_path / "plan.cfg"
    path.write_text(RUN_CONFIG)
    return path


class TestRun:
    def test_writes_csv_file(self, run_config, tmp_path):
        out = tmp_path / "result.csv"
        assert main(["run", "--config", str(run_config), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("snr_db,crb_avg,mse_avg")
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "10"
        assert lines[2].split(",")[0] == "20"

    def test_stdout_mode(self, run_config, capsys):
        assert main(["run", "--config", str(run_config)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("snr_db,")
        assert len(lines) == 3

    def test_deterministic_output(self, run_config, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["run", "--config", str(run_config), "--out", str(a)])
        main(["run", "--config", str(run_config), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_override_beats_config(self, run_config, capsys):
        code = main(
            [
                "run", "--config", str(run_config),
                "--override", "n_trials=2", "--dump-config",
            ]
        )
        assert code == EXIT_OK
        assert "n_trials = 2" in capsys.readouterr().out

    def test_seed_flag_overrides_master_seed(self, run_config, capsys):
        main(["run", "--config", str(run_config), "--seed", "99", "--dump-config"])
        assert "master_seed = 99" in capsys.readouterr().out

    def test_dump_config_round_trips(self, run_config, tmp_path, capsys):
        main(["run", "--config", str(run_config), "--dump-config"])
        dumped = capsys.readouterr().out
        again = tmp_path / "dumped.cfg"
        again.write_text(dumped)
        main(["run", "--config", str(again), "--dump-config"])
        assert capsys.readouterr().out == dumped

    def test_defaults_without_config(self, capsys):
        main(["run", "--dump-config"])
        out = capsys.readouterr().out
        assert "M = 12" in out
        assert "L = 4" in out
        assert "snr_db_grid = 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0" in out

    def test_default_plan_has_enough_windows(self, capsys):
        # the estimator's noise subspace is well defined only when the
        # N - w + 1 windows can span the w M signal dimensions
        main(["run", "--dump-config"])
        lines = capsys.readouterr().out.splitlines()
        values = dict(line.split(" = ", 1) for line in lines)
        M, N, w = (int(values[k]) for k in ("M", "N", "window_blocks"))
        assert N - w + 1 >= w * M


class TestRunErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M = 4\nbogus = 1\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "unknown key 'bogus'" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M 4\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "line 1" in capsys.readouterr().err

    def test_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("M = four\n")
        assert main(["run", "--config", str(cfg)]) == EXIT_USAGE
        assert "bad value for M" in capsys.readouterr().err

    def test_invalid_plan_values(self, capsys):
        # parses fine, fails model validation: L >= M
        assert main(["run", "--override", "L=12", "--dump-config"]) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]])
    def test_snr_point_without_finite_noise_variance(self, dump, capsys):
        code = main(["run", "--override", "snr_db_grid=10,nan", *dump])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "SNR point" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]])
    def test_windows_longer_than_frame(self, dump, capsys):
        # rejected as configuration before any trial runs, not excluded
        # trial by trial into a numerical failure
        code = main(["run", "--override", "window_blocks=30", *dump])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "window_blocks" in captured.err

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == EXIT_USAGE

    def test_malformed_override(self, run_config):
        assert (
            main(["run", "--config", str(run_config), "--override", "n_trials"])
            == EXIT_USAGE
        )

    def test_unknown_override_key(self, run_config):
        assert (
            main(["run", "--config", str(run_config), "--override", "h=1"])
            == EXIT_USAGE
        )

    @pytest.mark.parametrize("key", ["sigma2", "shrinkage"])
    def test_keys_that_change_nothing_are_unknown(self, run_config, key, capsys):
        # the harness sets sigma2 from the SNR grid, and a diagonal load
        # leaves the estimate unchanged, so run takes neither
        code = main(["run", "--config", str(run_config), "--override", f"{key}=0.5"])
        assert code == EXIT_USAGE
        assert f"unknown key '{key}'" in capsys.readouterr().err


class TestCrb:
    def test_trace_matches_library(self, capsys):
        code = main(
            [
                "crb",
                "--override", "M=4", "--override", "L=2", "--override", "N=3",
                "--override", "h=1, 0.5+0.5j, -0.25j",
                "--override", "sigma2=0.5",
                "--override", "seed=3",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        trace_line = out.splitlines()[0]

        cfg = SystemConfig(M=4, L=2, N=3, sigma2=0.5)
        pre = make_precoder(cfg)
        h = np.array([1, 0.5 + 0.5j, -0.25j])
        s = generate_symbols("qpsk", 4, 3, 3).sN
        expected = crb_fast(h, s, pre, default_anchor(h), 0.5, 3)
        assert trace_line == f"trace = {expected.trace:.12g}"

    def test_explicit_symbols_and_anchor(self, tmp_path, capsys):
        s = generate_symbols("qpsk", 4, 3, 8).sN
        s_text = ", ".join(repr(complex(v)).strip("()") for v in s)
        cfg_file = tmp_path / "crb.cfg"
        cfg_file.write_text(
            "M = 4\nL = 2\nN = 3\nh = 1, 0.5, 0.25\nd = 0\n"
            f"s_n = {s_text}\n"
        )
        assert main(["crb", "--config", str(cfg_file)]) == EXIT_OK
        out = capsys.readouterr().out

        cfg = SystemConfig(M=4, L=2, N=3)
        pre = make_precoder(cfg)
        expected = crb_fast(np.array([1, 0.5, 0.25]), s, pre, 0, 1.0, 3)
        assert out.splitlines()[0] == f"trace = {expected.trace:.12g}"

    def test_requires_taps(self, capsys):
        assert main(["crb"]) == EXIT_USAGE
        assert "'h'" in capsys.readouterr().err

    def test_rejects_wrong_tap_count(self):
        assert main(["crb", "--override", "h=1, 2"]) == EXIT_USAGE

    def test_rejects_bad_anchor(self):
        assert (
            main(["crb", "--override", "h=1,2,3,4,5", "--override", "d=9"])
            == EXIT_USAGE
        )

    def test_invalid_config_rejected_before_dump(self, capsys):
        code = main(
            [
                "crb", "--override", "h=1,2,3", "--override", "M=2",
                "--override", "L=2", "--dump-config",
            ]
        )
        assert code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("sigma2", ["0", "-1", "nan", "inf", "1e400"])
    def test_nonpositive_sigma2_rejected_before_dump(self, sigma2, capsys):
        # an infinite sigma2 is a configuration error too, not a
        # numerical failure of the bound
        code = main(
            [
                "crb", "--override", "h=1,2,3,4,5",
                "--override", f"sigma2={sigma2}", "--dump-config",
            ]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert (
            f"error: sigma2 must be positive and finite, got {float(sigma2)}"
            in captured.err
        )

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("h", "1, nan, -0.1j"),
            ("h", "1, inf, -0.1j"),
            ("s_n", "1, 1, 1, 1, 1, nan, 1, 1, 1, 1, 1, 1"),
        ],
    )
    def test_nonfinite_numbers_rejected(self, key, value, dump, capsys):
        code = main(
            [
                "crb", "--override", "M=4", "--override", "L=2",
                "--override", "N=3", "--override", "h=1, 0.5, 0.25",
                "--override", f"{key}={value}", *dump,
            ]
        )
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} must be finite, got a non-finite entry\n"

    def test_out_flag_not_accepted(self, tmp_path):
        out = tmp_path / "x"
        assert main(["crb", "--override", "h=1,2,3,4,5", "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()

    def test_rank_deficient_channel_exits_numerical(self, capsys):
        # a tap vector with a null on the DFT grid kills one subcarrier of
        # the multicarrier system, so K loses column rank
        code = main(
            [
                "crb",
                "--override", "M=4", "--override", "L=1", "--override", "N=3",
                "--override", "inner_kind=idft",
                "--override", "h=1, -1",
            ]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_takes_no_config_flags(self):
        assert main(["selftest", "--seed", "5"]) == EXIT_USAGE


class TestParsing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE


class TestConsoleScript:
    def test_entry_point_runs(self):
        # The child imports the same package as the tests, installed or not.
        src = os.path.dirname(os.path.dirname(blindcrb.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "blindcrb.cli", "selftest"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert "all checks passed" in proc.stdout
