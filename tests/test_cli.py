"""CLI tests, run in-process through main(argv) so exit codes and output
can be asserted directly. One subprocess test covers the installed
console-script wiring. Every command line the CLI refuses is a row of
one table, REFUSED, which one body, the refused fixture, checks."""

import dataclasses
import os
import shlex
import subprocess
import sys
import warnings
from collections import namedtuple
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


# A refused command line, keyed in REFUSED by the name of the test that
# runs it (and a label where a test runs more than one): its words as a
# shell splits them and its stderr text (the whole of stderr if the text
# ends in a newline, else its start), both formatted with {tmp} and the
# test's parameters; its exit code; and the text of {tmp}/plan.cfg.
Row = namedtuple("Row", "argv err code config", defaults=(EXIT_USAGE, RUN_CONFIG))
PLAN = "run --config {tmp}/plan.cfg"
CRB_M4 = 'crb --override M=4 --override L=2 --override N=3 --override "h=1, 0.5, 0.25"'
DUMP = pytest.mark.parametrize("dump", ["", "--dump-config"], ids=["dump0", "dump1"])
BAD_SIGMA2 = ["0", "-1", "nan", "inf", "1e400", *(repr(float(v)) for v in SUBNORMAL_SIGMA2)]

REFUSED = {
    "test_unknown_key":
        Row(PLAN, "error: line 2: unknown key 'bogus'\n", config="M = 4\nbogus = 1\n"),
    "test_malformed_line":
        Row(PLAN, "error: line 1: expected 'key = value', got 'M 4'\n", config="M 4\n"),
    "test_bad_value": Row(
        PLAN,
        "error: line 1: bad value for M: invalid literal for int() with base 10: 'four'\n",
        config="M = four\n",
    ),
    "test_bad_bool_value": Row(
        "run --override compute_zp_reference=maybe",
        "error: override: bad value for compute_zp_reference: "
        "expected true or false, got 'maybe'\n",
    ),
    # parses fine, fails model validation: L >= M
    "test_invalid_plan_values":
        Row("run --override L=12 --dump-config", "error: need 1 <= L < M, got M=12, L=12\n"),
    "test_snr_point_without_finite_noise_variance": Row(
        "run --override snr_db_grid=10,nan {dump}",
        "error: SNR point nan dB has no normal positive finite sigma2\n",
    ),
    # 3230 dB gives sigma2 = 1e-323, a subnormal that underflows every
    # bound it scales; the plan refuses it before any trial runs.
    "test_snr_point_with_subnormal_noise_variance": Row(
        "run --override snr_db_grid=3230 --override n_channels=2 --override n_trials=2",
        "error: SNR point 3230.0 dB has no normal positive finite sigma2\n",
    ),
    # rejected as configuration before any trial runs, not excluded
    # trial by trial into a numerical failure
    "test_windows_longer_than_frame": Row(
        "run --override window_blocks=30 {dump}",
        "error: window_blocks must not exceed the frame's N blocks\n",
    ),
    "test_window_of_one_block": Row(
        "run --override window_blocks=1 {dump}", "error: need at least 2 blocks per window, got 1\n"
    ),
    "test_missing_config_file": Row(
        "run --config {tmp}/nope.cfg",
        "error: cannot read config: [Errno 2] No such file or directory: '{tmp}/nope.cfg'\n",
    ),
    "test_unwritable_out missing directory": Row(
        PLAN + " --out {tmp}/missing/x.csv",
        "error: cannot write output {tmp}/missing/x.csv: not a file in an existing directory\n",
    ),
    "test_unwritable_out directory": Row(
        PLAN + " --out {tmp}",
        "error: cannot write output {tmp}: not a file in an existing directory\n",
    ),
    "test_write_failure_after_the_run":
        Row(PLAN + " --out {tmp}/x.csv", "error: cannot write output: disk full\n"),
    # the seed-3 zp/IDFT plan exceeds its exclusion budget
    "test_numerical_failure_writes_no_out_file": Row(
        "run --override redundancy_kind=zp --override inner_kind=idft --seed 3 --out {tmp}/x.csv",
        "numerical failure: ",
        EXIT_NUMERICAL,
    ),
    "test_malformed_override": Row(
        PLAN + " --override n_trials", "error: override: expected 'key = value', got 'n_trials'\n"
    ),
    "test_unknown_override_key":
        Row(PLAN + " --override h=1", "error: override: unknown key 'h'\n"),
    # the harness sets sigma2 from the SNR grid, and a diagonal load
    # leaves the estimate unchanged, so run takes neither
    "test_keys_that_change_nothing_are_unknown":
        Row(PLAN + " --override {key}=0.5", "error: override: unknown key '{key}'\n"),
    "test_requires_taps": Row("crb", "error: the crb command needs channel taps (key 'h')\n"),
    "test_rejects_wrong_tap_count":
        Row('crb --override "h=1, 2"', "error: h must have L+1 = 5 taps, got 2\n"),
    "test_rejects_wrong_symbol_count": Row(
        CRB_M4 + ' --override "s_n=1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1"',
        "error: s_n must have N*M = 12 entries, got 11\n",
    ),
    "test_rejects_bad_anchor d=9":
        Row("crb --override h=1,2,3,4,5 --override d=9", "error: anchor index 9 outside 0..4\n"),
    "test_rejects_bad_anchor d=1.5": Row(
        "crb --override h=1,2,3,4,5 --override d=1.5",
        "error: override: bad value for d: invalid literal for int() with base 10: '1.5'\n",
    ),
    "test_invalid_config_rejected_before_dump": Row(
        "crb --override h=1,2,3 --override M=2 --override L=2 --dump-config",
        "error: need 1 <= L < M, got M=2, L=2\n",
    ),
    # an infinite or subnormal sigma2 is a configuration error, not a numerical failure
    "test_nonpositive_sigma2_rejected_before_dump": Row(
        "crb --override h=1,2,3,4,5 --override sigma2={sigma2} --dump-config",
        "error: sigma2 must be a normal positive finite number, got {value}\n",
    ),
    "test_sigma2_at_the_normal_edge": Row(
        'crb --override "h=0.8, 0.4, 0.3, 0.2, 0.1" --override sigma2={sigma2}',
        "error: sigma2 must be a normal positive finite number, got {sigma2}\n",
    ),
    # sigma2 = 1.7e308 times a unit-noise trace of about 110 leaves the
    # float range: the bound is refused, naming sigma2, with no warning
    "test_bound_beyond_the_float_range_exits_numerical": Row(
        'crb --override "h=1, 0.99, 0.2" --override L=2 --override M=4 --override N=2'
        " --override sigma2=1.7e308",
        "numerical failure: the bound at sigma2 = 1.7e+308 leaves the float range\n",
        EXIT_NUMERICAL,
    ),
    "test_nonfinite_numbers_rejected": Row(
        CRB_M4 + ' --override "{key}={value}" {dump}',
        "error: {key} must be finite, got a non-finite entry\n",
    ),
    # refused before any frame is drawn from it, as run refuses a negative master seed
    "test_negative_seed_rejected": Row(
        'crb --override "h=1, 0.5, 0.25, 0.1, 0.05" {seed_args} {dump}',
        "error: seed must be nonnegative, got -1\n",
    ),
    "test_out_flag_not_accepted": Row(
        "crb --override h=1,2,3,4,5 --out {tmp}/x", "error: unrecognized arguments: --out {tmp}/x\n"
    ),
    # a tap vector with a null on the DFT grid kills one subcarrier of
    # the multicarrier system, so K loses column rank
    "test_rank_deficient_channel_exits_numerical": Row(
        "crb --override M=4 --override L=1 --override N=3 --override inner_kind=idft"
        ' --override "h=1, -1"',
        "numerical failure: K is column-rank-deficient (diag ratio ",
        EXIT_NUMERICAL,
    ),
    "test_takes_no_config_flags":
        Row("selftest --seed 5", "error: unrecognized arguments: --seed 5\n"),
    "test_no_arguments_is_usage_error":
        Row("", "error: the following arguments are required: command\n"),
    # argparse's list of choices reads differently across Python versions
    "test_unknown_command_is_usage_error":
        Row("frobnicate", "error: argument command: invalid choice: 'frobnicate' (choose from "),
}


@pytest.fixture
def refused(request, tmp_path, capsys):
    """The refusal body, on the calling test's rows of REFUSED: the row's
    exit code, an empty stdout, the row's stderr text and no traceback."""
    node = request.node
    fields = {"tmp": tmp_path, **(node.callspec.params if hasattr(node, "callspec") else {})}
    rows = [row for key, row in REFUSED.items() if key.split()[0] == node.originalname]
    assert rows

    def check():
        for row in rows:
            (tmp_path / "plan.cfg").write_text(row.config)
            assert main(shlex.split(row.argv.format(**fields))) == row.code
            captured = capsys.readouterr()
            assert captured.out == ""
            err = row.err.format(**fields)
            assert captured.err[: None if err.endswith("\n") else len(err)] == err
            assert "Traceback" not in captured.err

    return check


def refusal(self, refused):
    """A test that runs its rows of REFUSED and checks nothing more."""
    refused()


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
    test_unknown_key = refusal
    test_malformed_line = refusal
    test_bad_value = refusal
    test_bad_bool_value = refusal
    test_invalid_plan_values = refusal
    test_snr_point_with_subnormal_noise_variance = refusal
    test_missing_config_file = refusal
    test_malformed_override = refusal
    test_unknown_override_key = refusal

    @DUMP
    def test_snr_point_without_finite_noise_variance(self, dump, refused):
        refused()

    @DUMP
    def test_windows_longer_than_frame(self, dump, refused):
        refused()

    @DUMP
    def test_window_of_one_block(self, dump, refused):
        refused()

    def test_unwritable_out(self, refused, tmp_path, monkeypatch):
        # refused before the plan runs
        calls = []
        monkeypatch.setattr(cli, "run_experiment", lambda *args: calls.append(args))
        refused()
        assert not (tmp_path / "missing").exists()
        assert calls == []

    def test_write_failure_after_the_run(self, refused, monkeypatch):
        def refuse(records, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_csv", refuse)
        refused()

    def test_numerical_failure_writes_no_out_file(self, refused, tmp_path):
        refused()
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("key", ["sigma2", "shrinkage"])
    def test_keys_that_change_nothing_are_unknown(self, key, refused):
        refused()


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

    test_requires_taps = refusal
    test_rejects_wrong_tap_count = refusal
    test_rejects_wrong_symbol_count = refusal
    test_rejects_bad_anchor = refusal
    test_invalid_config_rejected_before_dump = refusal
    test_bound_beyond_the_float_range_exits_numerical = refusal
    test_rank_deficient_channel_exits_numerical = refusal

    @pytest.mark.parametrize(
        "sigma2,value", [(text, float(text)) for text in BAD_SIGMA2], ids=BAD_SIGMA2
    )
    def test_nonpositive_sigma2_rejected_before_dump(self, sigma2, value, refused):
        refused()

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
    def test_sigma2_at_the_normal_edge(self, sigma2, code, output, refused, capsys):
        if code == EXIT_USAGE:
            return refused()
        argv = ["crb", "--override", "h=0.8, 0.4, 0.3, 0.2, 0.1", "--override", f"sigma2={sigma2}"]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert (captured.out + captured.err).startswith(output)
        assert "Traceback" not in captured.err

    @DUMP
    @pytest.mark.parametrize(
        "key,value",
        [
            ("h", "1, nan, -0.1j"),
            ("h", "1, inf, -0.1j"),
            ("s_n", "1, 1, 1, 1, 1, nan, 1, 1, 1, 1, 1, 1"),
        ],
    )
    def test_nonfinite_numbers_rejected(self, key, value, dump, refused):
        refused()

    @DUMP
    @pytest.mark.parametrize(
        "seed_args", ["--seed -1", "--override seed=-1"], ids=["flag", "override"]
    )
    def test_negative_seed_rejected(self, seed_args, dump, refused):
        refused()

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

    def test_out_flag_not_accepted(self, refused, tmp_path):
        refused()
        assert not (tmp_path / "x").exists()

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

    test_takes_no_config_flags = refusal


class TestParsing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == EXIT_OK

    test_no_arguments_is_usage_error = refusal
    test_unknown_command_is_usage_error = refusal


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
