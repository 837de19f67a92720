"""CLI tests, run in-process through main(argv) so exit codes and output
can be asserted directly. One subprocess test covers the installed
console-script wiring."""

import dataclasses
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import blindcrb
from blindcrb import cli
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
from helpers import SMALLEST_NORMAL, SUBNORMAL_SIGMA2

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

    def test_bad_bool_value(self, capsys):
        assert main(["run", "--override", "compute_zp_reference=maybe"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: override: bad value for compute_zp_reference: "
            "expected true or false, got 'maybe'\n"
        )

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

    def test_snr_point_with_subnormal_noise_variance(self, capsys):
        # 3230 dB gives sigma2 = 1e-323, a subnormal that underflows every
        # bound it scales; the plan refuses it before any trial runs.
        code = main([
            "run", "--override", "snr_db_grid=3230",
            "--override", "n_channels=2", "--override", "n_trials=2",
        ])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SNR point 3230.0 dB")
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

    def test_unwritable_out(self, run_config, tmp_path, capsys, monkeypatch):
        # refused before the plan runs
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args))
        for out in (tmp_path / "missing" / "x.csv", tmp_path):
            code = main(["run", "--config", str(run_config), "--out", str(out)])
            assert code == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot write") and str(out) in captured.err
            assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()
        assert calls == []

    def test_write_failure_after_the_run(self, run_config, tmp_path, capsys, monkeypatch):
        def refuse(records, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_csv", refuse)
        out = tmp_path / "x.csv"
        code = main(["run", "--config", str(run_config), "--out", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write output: disk full")
        assert "Traceback" not in captured.err

    def test_numerical_failure_writes_no_out_file(self, tmp_path, capsys):
        # the seed-3 zp/IDFT plan exceeds its exclusion budget
        out = tmp_path / "x.csv"
        code = main(
            [
                "run", "--override", "redundancy_kind=zp", "--override", "inner_kind=idft",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == EXIT_NUMERICAL
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert not out.exists()

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

    def test_dump_config_text_and_round_trip(self, tmp_path, capsys):
        # Every kind of value a crb config holds, in its canonical text:
        # complex taps and symbols, an explicit anchor, a float, strings.
        overrides = [
            "M=4", "L=2", "N=3", "redundancy_kind=zp", "inner_kind=idft",
            "h=1, 0.5+0.5j, -0.25j",
            "s_n=1, -1j, 0.5+0.5j, 1, 1, 1, -1, 1, 1, 1j, 1, 1e-3-2j",
            "d=1", "sigma2=0.5",
        ]
        argv = ["crb", *[a for o in overrides for a in ("--override", o)], "--seed", "7"]
        assert main(argv + ["--dump-config"]) == EXIT_OK
        dumped = capsys.readouterr().out
        assert dumped == (
            "M = 4\nL = 2\nN = 3\nredundancy_kind = zp\ninner_kind = idft\n"
            "sigma2 = 0.5\n"
            "h = 1+0j, 0.5+0.5j, -0.25j\n"
            "s_n = 1+0j, -1j, 0.5+0.5j, 1+0j, 1+0j, 1+0j, -1+0j, 1+0j, 1+0j, "
            "1j, 1+0j, 0.001-2j\n"
            "d = 1\nseed = 7\n"
        )
        cfg_file = tmp_path / "crb.cfg"
        cfg_file.write_text(dumped)
        assert main(["crb", "--config", str(cfg_file), "--dump-config"]) == EXIT_OK
        assert capsys.readouterr().out == dumped
        assert main(argv) == EXIT_OK
        trace_line = capsys.readouterr().out.splitlines()[0]
        assert trace_line == "trace = 0.494264284877"
        assert main(["crb", "--config", str(cfg_file)]) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == trace_line

    def test_requires_taps(self, capsys):
        assert main(["crb"]) == EXIT_USAGE
        assert "'h'" in capsys.readouterr().err

    def test_rejects_wrong_tap_count(self):
        assert main(["crb", "--override", "h=1, 2"]) == EXIT_USAGE

    def test_rejects_wrong_symbol_count(self, capsys):
        argv = ["crb", "--override", "M=4", "--override", "L=2", "--override", "N=3",
                "--override", "h=1, 0.5, 0.25", "--override", "s_n=" + ", ".join(["1"] * 11)]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: s_n must have N*M = 12 entries, got 11\n"

    def test_rejects_bad_anchor(self):
        for d in ("9", "1.5"):
            assert (
                main(["crb", "--override", "h=1,2,3,4,5", "--override", f"d={d}"])
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

    @pytest.mark.parametrize(
        "sigma2",
        ["0", "-1", "nan", "inf", "1e400", *(repr(float(v)) for v in SUBNORMAL_SIGMA2)],
    )
    def test_nonpositive_sigma2_rejected_before_dump(self, sigma2, capsys):
        # an infinite or subnormal sigma2 is a configuration error too,
        # not a numerical failure of the bound
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
            f"error: sigma2 must be a normal positive finite number, got {float(sigma2)}"
            in captured.err
        )

    @pytest.mark.parametrize(
        "sigma2,code,output",
        [
            # a subnormal sigma2: refused as configuration, with no warning
            ("1e-320", EXIT_USAGE, "error: sigma2 must be a normal positive finite number"),
            # a normal one whose 1/sigma2 would overflow D0: sigma2 times
            # the bound at unit noise, with no warning
            ("1e-307", EXIT_OK, "trace = 1.11915298019e-308"),
            # the smallest normal sigma2 is accepted; its bound is subnormal
            (repr(float(SMALLEST_NORMAL)), EXIT_OK, "trace = 2.49019803989e-309"),
        ],
    )
    def test_sigma2_at_the_normal_edge(self, sigma2, code, output, capsys):
        argv = ["crb", "--override", "h=0.8, 0.4, 0.3, 0.2, 0.1", "--override", f"sigma2={sigma2}"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out + captured.err).startswith(output)
        assert "Traceback" not in captured.err

    def test_bound_beyond_the_float_range_exits_numerical(self, capsys):
        # sigma2 = 1.7e308 times a unit-noise trace of about 110 leaves the
        # float range: the bound is refused, naming sigma2, with no warning
        argv = [
            "crb", "--override", "h=1, 0.99, 0.2", "--override", "L=2",
            "--override", "M=4", "--override", "N=2", "--override", "sigma2=1.7e308",
        ]
        assert main(argv) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: the bound at sigma2 = 1.7e+308 leaves the float range\n"
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

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]])
    @pytest.mark.parametrize(
        "seed_args", [["--seed", "-1"], ["--override", "seed=-1"]],
        ids=["flag", "override"],
    )
    def test_negative_seed_rejected(self, seed_args, dump, capsys):
        # refused as a usage error before any frame is drawn from it, as
        # run refuses a negative master seed
        code = main(["crb", "--override", "h=1, 0.5, 0.25, 0.1, 0.05", *seed_args, *dump])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be nonnegative, got -1\n"

    @pytest.mark.parametrize("dump", [[], ["--dump-config"]])
    @pytest.mark.parametrize("anchor", [[], ["--override", "d=0"]], ids=["default", "d=0"])
    @pytest.mark.parametrize("exponent", ["e159", "e-161"])
    def test_extreme_tap_scale(self, exponent, anchor, dump, capsys):
        # The taps 0.8, ..., 0.1 times 1e160 or 1e-160 give the unscaled
        # trace: the bound does not see the taps' scale, and the default
        # anchor squares no tap, so nothing overflows under the suite's
        # warning rule.
        def taps(exp):
            return ["--override", "h=" + ", ".join(f"{t}{exp}" for t in (8, 4, 3, 2, 1))]

        assert main(["crb", *taps("e-1")]) == EXIT_OK
        unscaled = capsys.readouterr().out.splitlines()[0]
        assert main(["crb", *taps(exponent), *anchor, *dump]) == EXIT_OK
        out = capsys.readouterr().out.splitlines()
        assert out[0] == ("M = 12" if dump else unscaled)

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

    def test_taps_near_float_max_give_the_scaled_bound(self, capsys):
        # Finite taps near the float maximum: the fast route takes them at
        # their power of two, 2^-1024, so the sweep does not overflow and
        # prints what the same taps times 2^-1024 give, with no warning.
        taps = [1.5e308 + 1.5e308j, 1e308, 1, 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["crb", "--override", "h=1.5e308+1.5e308j, 1e308, 1, 1, 1"]) == EXIT_OK
            out = capsys.readouterr().out
            scaled = [t * 2.0**-1024 for t in taps]
            scaled = ", ".join(f"{t.real!r}+{t.imag!r}j" for t in scaled)
            assert main(["crb", "--override", f"h={scaled}"]) == EXIT_OK
        assert out.splitlines()[0] == "trace = 0.106253992202"
        assert capsys.readouterr().out == out


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out

    def test_draws_and_synthesises_through_the_model(self, monkeypatch):
        # Every check draws its channel with draw_channel, and the gradient
        # check makes its noisy frame and its likelihood's clean frames
        # with synthesize_observation.
        draws, frames = [], []
        draw, synthesize = cli.draw_channel, cli.synthesize_observation

        def counted_draw(*args):
            draws.append(args)
            return draw(*args)

        def counted_synthesize(*args):
            frames.append(args)
            return synthesize(*args)

        monkeypatch.setattr(cli, "draw_channel", counted_draw)
        monkeypatch.setattr(cli, "synthesize_observation", counted_synthesize)
        assert main(["selftest"]) == EXIT_OK
        assert len(draws) == 5
        sigma2s = [args[3] for args in frames]
        assert sigma2s[0] > 0 and len(sigma2s) > 1
        assert all(v == 0 for v in sigma2s[1:])

    def test_failed_checks_exit_selftest(self, monkeypatch, capsys):
        # A fast route off by 1e-6 fails every two-path check.
        def perturbed(*args):
            result = crb_fast(*args)
            return dataclasses.replace(result, C=result.C * (1 + 1e-6))

        monkeypatch.setattr(cli, "crb_fast", perturbed)
        assert main(["selftest"]) == cli.EXIT_SELFTEST
        lines = capsys.readouterr().out.splitlines()
        assert [": FAIL (rel err 1.00e-06)" in line for line in lines[:4]] == [True] * 4
        assert lines[4].startswith("selftest gradients: ok")
        assert lines[5:] == ["selftest: 4 check(s) failed"]

    def test_takes_no_config_flags(self):
        assert main(["selftest", "--seed", "5"]) == EXIT_USAGE


class TestParsing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    def test_no_arguments_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE


def workflow_commands():
    """The blindcrb command lines of the CI workflow's Console script step,
    read from the YAML as plain text: the step's lines up to the next
    step that start with "blindcrb "."""
    workflow = Path(__file__).resolve().parents[1] / ".github/workflows/tests.yml"
    lines = workflow.read_text().splitlines()
    start = lines.index("      - name: Console script")
    end = next(i for i in range(start + 1, len(lines)) if "- name:" in lines[i])
    return [line.strip() for line in lines[start:end] if line.strip().startswith("blindcrb ")]


class TestConsoleScript:
    @pytest.mark.parametrize("command", workflow_commands())
    def test_workflow_command_exits_ok(self, command, capsys):
        # The step runs the installed entry point; this runs the same
        # arguments in process, under the suite's RuntimeWarning rule, so
        # a broken line fails here before the workflow's first run.
        assert main(shlex.split(command)[1:]) == EXIT_OK, capsys.readouterr().err

    def test_workflow_has_console_script_lines(self):
        # an empty parameter set would skip the test above, not fail it
        assert workflow_commands()

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
