"""Golden CSV files: small plans whose exact CSV text is kept under
tests/golden/, so that any change that moves a printed digit shows up as a
diff of those files.

Each plan runs 5 channels x 2 trials at M=12, L=4 over the default 7-point
SNR grid: cp and zp, identity and IDFT inner precoders, N in {8, 25}
(zero padding with the per-block reference bound), one zero-padding plan
with 3-block windows, one long zp/IDFT frame (N=100, 3 channels x 2
trials), and the seed-3 zp/IDFT plan whose exclusions exceed
the budget, kept as the text of its ExclusionBudgetExceeded message.
Two more files keep the exact stdout of `blindcrb crb` for one cp/IDFT
and one zp/IDFT instance at the command's default M=12, L=4, N=25, so
the single-channel fast bound has a byte check too, and one keeps the
four two-path lines of `blindcrb selftest`, the two bound routes'
agreement on its fixed instances.

The files pin the output of one numpy/BLAS build. When a change is meant
to move digits, regenerate them from the repository root with

    PYTHONPATH=src python tests/test_golden_csv.py

and commit the diff with the change, saying in CHANGES.md which digits
moved and by how much.
"""

import contextlib
import io
from pathlib import Path

import pytest

from blindcrb import (
    EstimatorSettings,
    ExclusionBudgetExceeded,
    ExperimentPlan,
    SystemConfig,
    format_csv,
    run_experiment,
)
from blindcrb.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SNR_DB_GRID = (10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)


def plan(kind, inner, N, seed=0, channels=5, trials=2, window_blocks=2):
    return ExperimentPlan(
        config=SystemConfig(M=12, L=4, N=N, redundancy_kind=kind, inner_kind=inner),
        snr_db_grid=SNR_DB_GRID,
        n_channels=channels,
        n_trials=trials,
        master_seed=seed,
        estimator_settings=EstimatorSettings(window_blocks),
        compute_zp_reference=kind == "zp",
    )


PLANS = {
    f"{kind}-{inner}-N{N}.csv": plan(kind, inner, N)
    for kind in ("cp", "zp")
    for inner in ("identity", "idft")
    for N in (8, 25)
}
PLANS["zp-identity-N40-w3.csv"] = plan("zp", "identity", 40, window_blocks=3)
PLANS["zp-idft-N25-seed3-20x5.txt"] = plan(
    "zp", "idft", 25, seed=3, channels=20, trials=5
)
PLANS["zp-idft-N100.csv"] = plan("zp", "idft", 100, channels=3)


CRB_TAPS = "0.5+0.1j, -0.4+0.3j, 0.3-0.2j, 0.2+0.25j, -0.1+0.15j"
CRB_ARGS = {
    f"crb-{kind}-idft-N25.txt": [
        "crb", "--override", f"redundancy_kind={kind}", "--override", "inner_kind=idft",
        "--override", f"h={CRB_TAPS}", "--override", "sigma2=0.01", "--override", "seed=1",
    ]
    for kind in ("cp", "zp")
}

SELFTEST_GOLDEN = "selftest-two-path.txt"


def render_crb(argv) -> str:
    """The stdout of one blindcrb crb command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def render_selftest_two_path() -> str:
    """The two-path lines of the stdout of blindcrb selftest, which must
    pass."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["selftest"]) == EXIT_OK
    lines = out.getvalue().splitlines(keepends=True)
    return "".join(line for line in lines if line.startswith("selftest two-path "))


def render(p: ExperimentPlan) -> str:
    """The plan's CSV text, or its budget message when it raises one."""
    try:
        return format_csv(run_experiment(p))
    except ExclusionBudgetExceeded as err:
        return f"ExclusionBudgetExceeded: {err}\n"


@pytest.mark.parametrize("name", sorted(PLANS))
def test_output_matches_golden_file(name):
    assert render(PLANS[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(CRB_ARGS))
def test_crb_stdout_matches_golden_file(name):
    assert render_crb(CRB_ARGS[name]) == (GOLDEN / name).read_text()


def test_selftest_two_path_matches_golden_file():
    got = render_selftest_two_path().splitlines()
    want = (GOLDEN / SELFTEST_GOLDEN).read_text().splitlines()
    assert len(got) == len(want) == 4
    for got_line, want_line in zip(got, want):
        assert got_line == want_line


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, p in PLANS.items():
        (GOLDEN / name).write_text(render(p))
        print(f"wrote {GOLDEN / name}")
    for name, argv in CRB_ARGS.items():
        (GOLDEN / name).write_text(render_crb(argv))
        print(f"wrote {GOLDEN / name}")
    (GOLDEN / SELFTEST_GOLDEN).write_text(render_selftest_two_path())
    print(f"wrote {GOLDEN / SELFTEST_GOLDEN}")
