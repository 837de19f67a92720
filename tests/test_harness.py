"""Monte Carlo harness tests: seeding, the per-cell protocol, exclusion
accounting, and CSV output.

Two bodies over two tables hold the harness's central checks, each row
keyed by the test that runs it. check_records runs a plan of RECORDS under
each of its partitions into groups of channels and chunks of trials
(run_experiment's own, chunks of 1, 4 or 15 trials, one-channel groups):
the records equal, bit for bit, those of the frame-by-frame loop and of
each SNR point run alone, and the D0 functions and the estimator run once
per group and per chunk. check_exclusions runs a failure of EXCLUSIONS,
injected into D0 or into the estimator stub, and checks the exclusions
per cell, or the message of the budget breach, and the rows that reach
the estimator. The stub returns the true channel (reconstructed from the
documented seed fan-out) up to a complex scale, so after ambiguity
resolution an included trial's squared error vanishes.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from blindcrb import harness
from blindcrb import (
    CSV_HEADER,
    ExclusionBudgetExceeded,
    ExperimentPlan,
    IllConditioned,
    ResultRecord,
    SystemConfig,
    build_redundancy,
    draw_channel,
    format_csv,
    run_experiment,
    sigma2_from_snr_db,
    write_csv,
)
from blindcrb.crb_blind import COND_LIMIT, _conditioned
import helpers
from helpers import run_cell, run_experiment_per_frame, run_with, traced_peak


def channel_sequence(plan):
    """True channels in draw order, from the documented seed fan-out:
    SeedSequence([master_seed, stream, index]) with stream 0 for channels."""
    seeds = [np.random.SeedSequence([plan.master_seed, 0, i]) for i in range(plan.n_channels)]
    return [draw_channel(plan.config.L, np.random.default_rng(seed)) for seed in seeds]


def numbered_estimator(plan, live=None, failures=(), rows=None):
    """Estimator stub that numbers the rows it is given over a run.

    Row t serves the (channel, trial) pair live[t], by default every trial
    in the documented order (channel i, then trial j), and comes back as
    that channel's taps times 2+1j at every SNR point of the plan, so its
    squared error vanishes once the ambiguity is resolved. Each failure
    (rows, SNR points, how) spoils those rows at those points: "nan" makes
    them NaN and "anchor" zeroes their anchor tap. rows, when given,
    collects every row the stub is handed."""
    channels = channel_sequence(plan)
    if live is None:
        live = list(np.ndindex(plan.n_channels, plan.n_trials))
    H = np.array([(2 + 1j) * channels[i].h for i, _ in live])
    H = np.repeat(H[:, None], len(plan.snr_db_grid), axis=1)
    for r, s, how in failures:
        if how == "nan":
            H[r, s] = np.nan
        else:
            H[r, s, channels[live[r][0]].d] = 0.0
    seen = [] if rows is None else rows

    def estimate(Y, precoder, window_blocks):
        first = len(seen)
        seen.extend(Y)
        return H[first: len(seen)].copy()

    return estimate


def information(fn, calls, nan_channels=(), first_frame=None):
    """Wrap a D0 function to append each call's index to calls. The
    members of its channel stack whose index is in nan_channels come back
    NaN, as a channel that fails a gate does, and the first frame of the
    first channel it is given, in a (C, T, ...) stack or alone in a
    (T, ...) batch, gets the D0 first_frame instead of its own."""

    def wrapped(*args, **kwargs):
        calls.append(len(calls))
        D0 = fn(*args, **kwargs)
        D0[list(nan_channels)] = np.nan
        if first_frame is not None:
            D0[(0,) * (D0.ndim - 2)] = first_frame
        return D0

    return wrapped


def small_plan(**overrides):
    kwargs = dict(
        config=SystemConfig(M=4, L=2, N=14),
        snr_db_grid=(10.0, 20.0),
        n_channels=2,
        n_trials=2,
        master_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


_rng = np.random.default_rng(3)
# The records table's systems, by id: M=4, L=2, N=14 under cp with either
# inner precoder, a random custom redundancy and zero padding (run with the
# reference); and M=12, L=4, N=8, where N - w + 1 < wM, so the estimate
# depends on rounding and any change in the floating-point operations
# shows in mse_avg.
SYSTEMS = {
    "cp-identity": SystemConfig(M=4, L=2, N=14),
    "cp-idft": SystemConfig(M=4, L=2, N=14, inner_kind="idft"),
    "custom": SystemConfig(
        M=4, L=2, N=14, redundancy_kind="custom",
        custom_redundancy=_rng.standard_normal((6, 4)) + 1j * _rng.standard_normal((6, 4)),
    ),
    "zp-reference": SystemConfig(M=4, L=2, N=14, redundancy_kind="zp"),
    "M12-N8-idft": SystemConfig(M=12, L=4, N=8, inner_kind="idft"),
}
GRID = (10.0, 20.0, 30.0)
# A partition of a run into groups of channels and chunks of trials: None
# is run_experiment's own, an integer k forces chunks of k trials, and
# ONE_CHANNEL_GROUPS sets the byte budget to 1 byte, which makes each
# channel a group and each trial a chunk.
ONE_CHANNEL_GROUPS = "one-channel groups"

# The records table. Per test: its systems by row id, the (id suffix,
# grid, n_channels, n_trials) each runs at, and the partitions each runs
# under.
RECORDS = {
    "test_csv_equals_per_frame_run": (
        list(SYSTEMS),
        [("", (0.0, 10.0, 20.0, 30.0, 40.0), 3, 3), ("-one-point", (20.0,), 4, 5)],
        [None],
    ),
    "test_records_do_not_depend_on_chunks": (
        ["cp-identity", "zp-reference", "M12-N8-idft"], [("", GRID, 5, 3)], [1, 4, 15]
    ),
    "test_experiment_equals_cells_run_alone": (
        ["cp-identity", "cp-idft", "custom", "zp-reference"], [("", GRID, 2, 2)], [None]
    ),
    "test_one_channel_groups_give_same_csv": (
        ["cp-identity", "zp-reference", "M12-N8-idft"],
        [("", GRID, 5, 3), ("-one-point", (20.0,), 5, 3)],
        [None, ONE_CHANNEL_GROUPS],
    ),
    "test_bound_information_once_per_group": (
        {"small_plan": "cp-identity", "zp_plan": "zp-reference"}, [("", GRID, 2, 3)], [None]
    ),
}


def record_rows(test):
    """Parametrize a test with the rows of RECORDS[test], each a plan and
    its partitions."""
    names, sizes, partitions = RECORDS[test]
    ids = names if isinstance(names, dict) else {name: name for name in names}
    return pytest.mark.parametrize("plan,partitions", [
        pytest.param(small_plan(
            config=SYSTEMS[name], compute_zp_reference=name == "zp-reference",
            snr_db_grid=grid, n_channels=n_channels, n_trials=n_trials,
        ), partitions, id=row_id + suffix)
        for suffix, grid, n_channels, n_trials in sizes
        for row_id, name in ids.items()
    ])


def check_records(plan, partitions, monkeypatch):
    """The records body. Each SNR point run alone gives the record of the
    frame-by-frame loop, and under each partition run_experiment gives
    those records and their CSV text. Equal records are equal in every bit
    of every float, which the CSV's 12 digits cannot show: the sums take
    their terms in trial order, and at one SNR point numpy's pairwise sum
    over the trial axis would not. The D0 functions run once per group,
    and the estimator once per chunk of consecutive trials with every SNR
    point of each; by default every row's channels are one group and its
    chunks hold several trials."""
    want = run_experiment_per_frame(plan)
    assert all(r.excluded_trials == 0 for r in want)
    assert [run_cell(plan, snr) for snr in plan.snr_db_grid] == want
    trials, n_snr = plan.n_channels * plan.n_trials, len(plan.snr_db_grid)
    default_chunk = harness._chunk_size(plan.config, n_snr, plan.window_blocks)
    assert default_chunk >= 2
    estimate = harness.subspace_estimate
    for partition in partitions:
        fast, zp, shapes = [], [], []  # shapes: (trials, SNR points) per estimator call
        with monkeypatch.context() as patch:
            patch.setattr(harness, "fast_information", information(harness.fast_information, fast))
            patch.setattr(harness, "zp_information", information(harness.zp_information, zp))
            patch.setattr(
                harness, "subspace_estimate",
                lambda Y, *args: shapes.append(Y.shape[:-1]) or estimate(Y, *args),
            )
            groups, chunk = 1, default_chunk
            if partition == ONE_CHANNEL_GROUPS:
                patch.setattr(harness, "_GROUP_BYTES", 1)
                groups, chunk = plan.n_channels, 1
            elif partition:
                patch.setattr(harness, "_chunk_size", lambda *args, k=partition: k)
                chunk = partition
            got = run_experiment(plan)
        assert format_csv(got) == format_csv(want)
        assert got == want
        assert len(fast) == groups
        assert len(zp) == (groups if plan.compute_zp_reference else 0)
        assert shapes == [(min(chunk, trials - t), n_snr) for t in range(0, trials, chunk)]


SEVEN_POINTS = tuple(np.arange(10.0, 41.0, 5.0))
EVERY = slice(None)

# The exclusion table. Per test: the plan's grid, n_channels and n_trials;
# the failure injected into D0 (information's keywords); the estimator's
# failures (numbered_estimator's); the excluded trials per cell, or the
# message of the ExclusionBudgetExceeded the run raises; the estimator rows.
EXCLUSIONS = {
    "test_exclusions_under_budget_are_counted":
        ((20.0,), 1, 101, {}, [(0, EVERY, "nan")], [1], 101),
    "test_budget_breach_raises":
        ((20.0,), 2, 2, {}, [(EVERY, EVERY, "nan")], "4 of 4 trials excluded at 20.0 dB", 4),
    # all 101 channels are one group, whose member 1 comes back NaN
    "test_rank_deficient_channel_excluded_in_every_cell":
        (GRID, 101, 2, {"nan_channels": [1]}, [], [2, 2, 2], 200),
    "test_singular_frame_makes_no_row":
        (SEVEN_POINTS, 1, 101, {"first_frame": np.ones((3, 3))}, [], [1] * 7, 100),
    "test_estimator_failure_excluded_in_its_own_cell_only":
        (GRID, 1, 101, {}, [(0, 1, "nan")], [0, 1, 0], 101),
    # a finite row that cannot be resolved fails like a NaN row
    "test_zero_anchor_excluded_in_its_own_cell_only":
        (GRID, 1, 101, {}, [(2, 2, "anchor")], [0, 0, 1], 101),
    "test_failed_trial_excluded_in_every_cell":
        (GRID, 1, 101, {}, [(5, EVERY, "nan")], [1, 1, 1], 101),
    # 1 of 4 trials fails at 20 dB and 4 at 30 dB; the lower point is named
    "test_first_cell_over_budget_is_named": (
        GRID, 2, 2, {}, [(0, 1, "nan"), (slice(4), 2, "nan")],
        "1 of 4 trials excluded at 20.0 dB", 4,
    ),
}


def check_exclusions(monkeypatch, test):
    """The exclusion body, on the row EXCLUSIONS[test]. With the failures
    injected, the run excludes the row's count of trials from each cell
    and the included trials' squared errors vanish, or it raises the
    row's ExclusionBudgetExceeded message. The channels are one group, so
    D0 runs once, and the estimator gets the row's count of rows, each
    with every SNR point: a frame whose bound fails gets no row, and the
    rows after it move up."""
    grid, n_channels, n_trials, d0_failures, failures, excluded, n_rows = EXCLUSIONS[test]
    plan = small_plan(snr_db_grid=grid, n_channels=n_channels, n_trials=n_trials)
    calls, rows = [], []
    monkeypatch.setattr(
        harness, "fast_information", information(harness.fast_information, calls, **d0_failures)
    )
    dropped = {(i, j) for i in d0_failures.get("nan_channels", ()) for j in range(plan.n_trials)}
    if "first_frame" in d0_failures:
        dropped.add((0, 0))
    live = [t for t in np.ndindex(plan.n_channels, plan.n_trials) if t not in dropped]
    monkeypatch.setattr(
        harness, "subspace_estimate", numbered_estimator(plan, live, failures, rows)
    )
    if isinstance(excluded, str):
        with pytest.raises(ExclusionBudgetExceeded, match=f"^{re.escape(excluded)}$"):
            run_experiment(plan)
    else:
        records = run_experiment(plan)
        assert [r.excluded_trials for r in records] == excluded
        assert all(r.mse_avg <= 1e-25 for r in records)
    assert len(calls) == 1
    assert len(rows) == n_rows
    assert all(len(yN) == len(plan.snr_db_grid) for yN in rows)


class TestSnrConversion:
    @pytest.mark.parametrize(
        "snr,expected", [(0.0, 1.0), (10.0, 0.1), (30.0, 1e-3), (-10.0, 10.0)]
    )
    def test_values(self, snr, expected):
        assert sigma2_from_snr_db(snr) == pytest.approx(expected, rel=1e-12)


class TestDrawChannel:
    def test_unit_norm_and_anchor(self):
        for seed in range(20):
            ch = draw_channel(4, seed)
            assert abs(np.linalg.norm(ch.h) - 1.0) <= 1e-12
            assert ch.d == np.argmax(np.abs(ch.h) ** 2)

    def test_deterministic(self):
        a = draw_channel(3, 5)
        b = draw_channel(3, 5)
        np.testing.assert_array_equal(a.h, b.h)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            draw_channel(0, 1)

    @pytest.mark.parametrize("L", [True, 2.0])
    def test_rejects_non_integer_order(self, L):
        with pytest.raises(ValueError, match="^L must be an integer"):
            draw_channel(L, 0)


class TestPlanValidation:
    def test_grid_normalized_to_floats(self):
        plan = small_plan(snr_db_grid=(10, 20, 30))
        assert plan.snr_db_grid == (10.0, 20.0, 30.0)
        assert all(isinstance(v, float) for v in plan.snr_db_grid)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(snr_db_grid=()), dict(snr_db_grid=(20.0, 10.0)), dict(snr_db_grid=(10.0, 10.0)),
            dict(n_channels=0), dict(n_trials=0), dict(master_seed=-1),
            dict(snr_db_grid=(True, 10.0)), dict(snr_db_grid=np.array([False, True])),
            dict(snr_db_grid=(np.complex128(10.0),)), dict(snr_db_grid=(10 + 0j,)),
            dict(snr_db_grid=(10**400,)), dict(snr_db_grid=(-10**400,)),
            # a grid is a 1-D sequence, and the reference switch a bool
            dict(snr_db_grid=10.0), dict(snr_db_grid=np.float64(5.0)),
            dict(snr_db_grid=[[10.0, 20.0]]),
            *(
                dict(config=SYSTEMS["zp-reference"], compute_zp_reference=v)
                for v in ("yes", None, 2)
            ),
        ],
    )
    def test_rejects_bad_plans(self, overrides):
        with pytest.raises(ValueError):
            small_plan(**overrides)

    @pytest.mark.parametrize(
        "field,build",
        [
            ("n_channels", lambda: small_plan(n_channels=2.0)),
            ("n_trials", lambda: small_plan(n_trials=2.5)),
            ("master_seed", lambda: small_plan(master_seed=1.5)),
            ("n_trials", lambda: small_plan(n_trials=True)),
            ("window_blocks", lambda: small_plan(window_blocks=2.5)),
            ("M", lambda: SystemConfig(M=6.0, L=2, N=14)),
        ],
        ids=["n_channels", "n_trials", "master_seed", "bool", "window_blocks", "M"],
    )
    def test_rejects_non_integer_sizes(self, field, build):
        # caught when built, not by a TypeError in the middle of a run
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            build()

    def test_accepts_numpy_integers(self):
        plan = small_plan(
            config=SystemConfig(M=np.int32(4), L=np.int64(2), N=np.int64(14)),
            n_channels=np.int64(2),
            n_trials=np.uint8(2),
            master_seed=np.int64(7),
            window_blocks=np.int16(2),
        )
        assert format_csv(run_experiment(plan)) == format_csv(run_experiment(small_plan()))

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, 4000.0, -4000.0, 3230.0])
    def test_rejects_snr_without_positive_finite_sigma2(self, snr):
        # 4000 dB underflows sigma2 to 0; -4000 dB overflows it; 3230 dB
        # gives a subnormal 1e-323, which underflows every bound it scales
        with pytest.raises(ValueError, match=f"SNR point {snr} dB"):
            small_plan(snr_db_grid=(snr,))

    def test_windows_must_fit_in_the_frame(self):
        with pytest.raises(ValueError, match="window_blocks"):
            small_plan(window_blocks=15)
        plan = small_plan(window_blocks=14)
        assert plan.window_blocks == plan.config.N

    def test_zp_reference_needs_zero_padding(self):
        with pytest.raises(ValueError, match="zero padding"):
            small_plan(compute_zp_reference=True)
        for on in (True, np.True_):
            plan = small_plan(config=SYSTEMS["zp-reference"], compute_zp_reference=on)
            assert plan.compute_zp_reference

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    def test_zp_reference_takes_a_custom_zero_padding(self, inner):
        # One test of zero padding, F = [Ftilde; 0], whatever the
        # redundancy kind: a custom zero padding gives the "zp" plan's
        # records, the redundancy label aside.
        zp = SystemConfig(M=4, L=2, N=14, redundancy_kind="zp", inner_kind=inner)
        custom = replace(
            zp, redundancy_kind="custom", custom_redundancy=build_redundancy("zp", 4, 2)
        )
        want = run_experiment(small_plan(config=zp, compute_zp_reference=True))
        got = run_experiment(small_plan(config=custom, compute_zp_reference=True))
        assert [r.crb_zp_ref_avg for r in got] == [r.crb_zp_ref_avg for r in want]
        assert [replace(r, redundancy_kind="zp") for r in got] == want

    def test_zp_reference_refuses_a_custom_non_zero_padding(self):
        rng = np.random.default_rng(12)
        custom = SystemConfig(
            M=4, L=2, N=14, redundancy_kind="custom",
            custom_redundancy=rng.standard_normal((6, 4)),
        )
        with pytest.raises(ValueError, match="zero padding"):
            small_plan(config=custom, compute_zp_reference=True)
        assert not small_plan(config=custom).compute_zp_reference


class TestResultRecordValidation:
    @staticmethod
    def record(**overrides):
        kwargs = dict(
            snr_db=10.0, crb_avg=1.0, mse_avg=0.0, crb_zp_ref_avg=0.5,
            n_blocks=8, redundancy_kind="zp", inner_kind="identity",
            seed=0, excluded_trials=0,
        )
        kwargs.update(overrides)
        return ResultRecord(**kwargs)

    def test_rejects_nonpositive_crb(self):
        with pytest.raises(ValueError, match="crb_avg"):
            self.record(crb_avg=0.0)

    def test_rejects_negative_mse(self):
        with pytest.raises(ValueError, match="mse_avg"):
            self.record(mse_avg=-1.0)

    def test_accepts_finite_averages(self):
        assert self.record().crb_zp_ref_avg == 0.5
        assert self.record(crb_zp_ref_avg=None).crb_zp_ref_avg is None

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_crb(self, value):
        with pytest.raises(ValueError, match="crb_avg"):
            self.record(crb_avg=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_nonfinite_mse(self, value):
        with pytest.raises(ValueError, match="mse_avg"):
            self.record(mse_avg=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0, -1.0])
    def test_rejects_bad_zp_reference(self, value):
        with pytest.raises(ValueError, match="crb_zp_ref_avg"):
            self.record(crb_zp_ref_avg=value)


class TestRunCell:
    def test_oracle_estimator_gives_zero_mse(self):
        plan = small_plan(snr_db_grid=(20.0,))
        record = run_with(plan, numbered_estimator(plan))[0]
        assert record.mse_avg <= 1e-25
        assert record.crb_avg > 0
        assert record.excluded_trials == 0
        assert record.snr_db == 20.0
        assert record.n_blocks == 14
        assert record.redundancy_kind == "cp"
        assert record.seed == 7

    def test_subspace_estimator_stays_above_bound(self):
        plan = small_plan(n_channels=3, n_trials=3)
        record = run_cell(plan, 20.0)
        assert record.mse_avg >= record.crb_avg > 0

    def test_deterministic_across_runs(self):
        plan = small_plan()
        r1 = run_cell(plan, 15.0)
        r2 = run_cell(plan, 15.0)
        assert format_csv([r1]) == format_csv([r2])

    def test_seed_changes_results(self):
        r1 = run_cell(small_plan(master_seed=1), 15.0)
        r2 = run_cell(small_plan(master_seed=2), 15.0)
        assert r1.mse_avg != r2.mse_avg

    def test_exclusions_under_budget_are_counted(self, monkeypatch):
        check_exclusions(monkeypatch, "test_exclusions_under_budget_are_counted")

    def test_budget_breach_raises(self, monkeypatch):
        check_exclusions(monkeypatch, "test_budget_breach_raises")

    def test_zp_reference_column(self):
        plan = small_plan(
            config=SYSTEMS["zp-reference"], n_channels=2, n_trials=1, compute_zp_reference=True
        )
        record = run_cell(plan, 20.0)
        assert record.crb_zp_ref_avg is not None
        assert 0 < record.crb_zp_ref_avg <= record.crb_avg

    def test_reference_column_absent_by_default(self):
        record = run_cell(small_plan(), 20.0)
        assert record.crb_zp_ref_avg is None


class TestRunExperiment:
    def test_one_record_per_grid_point_in_order(self):
        plan = small_plan(snr_db_grid=(5.0, 15.0, 25.0), n_channels=1, n_trials=1)
        records = run_with(plan, numbered_estimator(plan))
        assert [r.snr_db for r in records] == [5.0, 15.0, 25.0]

    def test_crb_decreases_with_snr(self):
        plan = small_plan(snr_db_grid=(0.0, 20.0), n_channels=2, n_trials=1)
        lo, hi = run_with(plan, numbered_estimator(plan))
        assert hi.crb_avg < lo.crb_avg
        assert lo.mse_avg <= 1e-25 and hi.mse_avg <= 1e-25


class TestStackedMatchesPerFrame:
    """run_experiment estimates all SNR points of a trial in one stacked
    call and inverts all of a channel's bounds in another; its records
    must match the frame-by-frame loop byte for byte."""

    @record_rows("test_csv_equals_per_frame_run")
    def test_csv_equals_per_frame_run(self, plan, partitions, monkeypatch):
        check_records(plan, partitions, monkeypatch)

    def test_long_frame_peak_memory(self):
        # One trial's 7 frames and their windows at a time peaks near
        # 13 MB; stacking the channel's whole 5 x 7 grid peaks near 45 MB.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=1000), snr_db_grid=SEVEN_POINTS,
            n_channels=1, n_trials=5, master_seed=0,
        )
        records, peak = traced_peak(run_experiment, plan)
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
        assert all(r.excluded_trials == 0 for r in records)

    def test_long_frame_plan_peak_memory(self):
        # Channels are grouped by a byte budget: N=1000 channels go one per
        # group, which peaks near 8 MB here; one group of all six peaks
        # near 25 MB.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=1000), snr_db_grid=(20.0,),
            n_channels=6, n_trials=5, master_seed=0,
        )
        records, peak = traced_peak(run_experiment, plan)
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
        assert records[0].excluded_trials == 0


class TestChannelGroups:
    """The channels go in groups sized by the byte budget, which bounds
    what a group holds before its trials run and changes no record
    (test_one_channel_groups_give_same_csv)."""

    @staticmethod
    def group_stage(config, n_channels, n_trials):
        # What run_experiment computes for a group of channels: the
        # channels, every trial's frame and D0, and under zero padding the
        # reference's D0 as well.
        precoder = harness.make_precoder(config)
        hs = np.array([
            draw_channel(config.L, harness._stream_rng(0, 0, i)).h for i in range(n_channels)
        ])
        sNs = np.array([
            [
                harness.generate_symbols(
                    "qpsk", config.M, config.N, harness._stream_rng(0, 1, i, j)
                ).sN
                for j in range(n_trials)
            ]
            for i in range(n_channels)
        ])
        harness.fast_information(hs, sNs, precoder)
        if precoder.zero_padding:
            harness.zp_information(hs, sNs, precoder)

    # Zero padding with the reference, whose sweep settles at step 2, and
    # cp/IDFT without it, whose sweep refreshes its members' step maps for
    # 10-23 steps, or at every step.
    SYSTEMS = (("zp", "identity"), ("cp", "idft"))

    @pytest.mark.parametrize(
        "N,n_trials,least",
        [(8, 5, 2), (25, 5, 10), (100, 3, 4), (25, 20, 3), (50, 5, 6), (200, 5, 1)],
    )
    def test_group_fits_the_budget(self, N, n_trials, least):
        # The per-channel size _group_size assumes covers the group's
        # frames and D0 stage. Every benchmark plan (10 channels x 5 trials
        # at N=25, 4 x 3 at N=100) stays one group.
        for kind, inner in self.SYSTEMS:
            config = SystemConfig(M=12, L=4, N=N, redundancy_kind=kind, inner_kind=inner)
            n = harness._group_size(config, n_trials)
            assert n >= least
            self.group_stage(config, n, n_trials)  # numpy's first calls allocate more
            peak = traced_peak(self.group_stage, config, n, n_trials)[1]
            assert peak <= harness._GROUP_BYTES, (kind, inner)

    def test_long_channel_is_a_group_of_one(self):
        # A channel is never split: one N=1000 channel of 5 trials is a
        # group of its own by design, and its stage peaks near 2.6 times
        # the budget.
        for kind, inner in self.SYSTEMS:
            config = SystemConfig(M=12, L=4, N=1000, redundancy_kind=kind, inner_kind=inner)
            assert harness._group_size(config, 5) == 1
            peak = traced_peak(self.group_stage, config, 1, 5)[1]
            assert peak < 3 * harness._GROUP_BYTES, (kind, inner)


class TestTrialChunks:
    """The estimator takes the trials in chunks sized by the byte budget,
    which bound its working set and change no record (the default chunks
    against one-trial chunks is test_one_channel_groups_give_same_csv)."""

    @record_rows("test_records_do_not_depend_on_chunks")
    def test_records_do_not_depend_on_chunks(self, plan, partitions, monkeypatch):
        # chunks of 4 cross the 3-trial channels and add to running sums
        # that are not zero
        check_records(plan, partitions, monkeypatch)

    @pytest.mark.parametrize(
        "N,window_blocks,n_snr",
        [(8, 2, 7), (25, 2, 7), (25, 2, 1), (38, 3, 3), (38, 3, 1), (40, 3, 3),
         (100, 2, 1)],
    )
    def test_chunk_fits_the_budget(self, N, window_blocks, n_snr):
        # The per-trial size _chunk_size assumes covers what the estimator
        # and the ambiguity resolution allocate for a chunk, its frames
        # included, on the covariance route and at the identifiability
        # border (N=25 with 2-block windows, N=38 with 3-block windows,
        # where the penalty's A and its conjugate outweigh qr's copy of
        # the windows).
        config = SystemConfig(M=12, L=4, N=N)
        precoder = harness.make_precoder(config)
        k = harness._chunk_size(config, n_snr, window_blocks)
        assert k >= 2

        def estimate_chunk():
            rng = np.random.default_rng(0)
            Y = np.empty((k, n_snr, N * config.P - config.L), dtype=complex)
            Y.real = rng.standard_normal(Y.shape)
            Y.imag = rng.standard_normal(Y.shape)
            h_hats = harness.subspace_estimate(Y, precoder, window_blocks)
            harness.resolve_ambiguity(h_hats, 0, 1.0)

        estimate_chunk()  # numpy's first calls in a process allocate more
        assert traced_peak(estimate_chunk)[1] <= harness._GROUP_BYTES

    def test_trial_stage_peak_memory(self, monkeypatch):
        # The desk plan's estimator calls take 8 trials of 7 frames each,
        # and the run peaks near 2.5 MB; one call for all 50 trials peaks
        # near 8.7 MB. The bound is the chunked peak plus about 40%.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=25, inner_kind="idft"), snr_db_grid=SEVEN_POINTS,
            n_channels=10, n_trials=5, master_seed=0,
        )
        assert traced_peak(run_experiment, plan)[1] < 3.5e6
        monkeypatch.setattr(harness, "_chunk_size", lambda *args: 50)
        assert traced_peak(run_experiment, plan)[1] > 3.5e6


class TestSnrSharing:
    """Each (channel, trial) is drawn once, the bound information of all
    of a channel's trials is computed in one call, and every trial is then
    evaluated at every SNR point; the cells must come out as if each were
    run alone, and a failure excludes a trial from the cells it fails in
    only."""

    @record_rows("test_experiment_equals_cells_run_alone")
    def test_experiment_equals_cells_run_alone(self, plan, partitions, monkeypatch):
        check_records(plan, partitions, monkeypatch)

    @record_rows("test_bound_information_once_per_group")
    def test_bound_information_once_per_group(self, plan, partitions, monkeypatch):
        check_records(plan, partitions, monkeypatch)

    @record_rows("test_one_channel_groups_give_same_csv")
    def test_one_channel_groups_give_same_csv(self, plan, partitions, monkeypatch):
        check_records(plan, partitions, monkeypatch)

    def test_rank_deficient_channel_excluded_in_every_cell(self, monkeypatch):
        check_exclusions(monkeypatch, "test_rank_deficient_channel_excluded_in_every_cell")

    def test_singular_frame_makes_no_row(self, monkeypatch):
        check_exclusions(monkeypatch, "test_singular_frame_makes_no_row")

    def test_estimator_failure_excluded_in_its_own_cell_only(self, monkeypatch):
        check_exclusions(monkeypatch, "test_estimator_failure_excluded_in_its_own_cell_only")

    def test_zero_anchor_excluded_in_its_own_cell_only(self, monkeypatch):
        check_exclusions(monkeypatch, "test_zero_anchor_excluded_in_its_own_cell_only")

    def test_failed_trial_excluded_in_every_cell(self, monkeypatch):
        check_exclusions(monkeypatch, "test_failed_trial_excluded_in_every_cell")

    def test_first_cell_over_budget_is_named(self, monkeypatch):
        check_exclusions(monkeypatch, "test_first_cell_over_budget_is_named")

    def test_frame_at_cond_limit_decided_once(self, monkeypatch):
        # An anchor-reduced information within 3e-4 of COND_LIMIT, where
        # rounding decides the conditioning gate differently at different
        # noise levels. The frame's bound is decided once, at unit noise,
        # so the frame is in every cell or in none.
        plan = small_plan(snr_db_grid=SEVEN_POINTS, n_channels=1, n_trials=101)
        d = channel_sequence(plan)[0].d
        sigma2s = np.array([sigma2_from_snr_db(s) for s in plan.snr_db_grid])
        rng = np.random.default_rng(0)
        U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        for delta in np.linspace(-3e-4, 3e-4, 61):
            Dd = U @ np.diag([1.0, (1 + delta) / COND_LIMIT]) @ U.conj().T
            accepted = _conditioned(Dd / sigma2s[:, None, None])[1]
            if 0 < accepted.sum() < accepted.size:
                break
        else:
            pytest.fail("no information near COND_LIMIT splits the grid's decisions")
        keep = np.arange(plan.config.L + 1) != d
        D0 = np.eye(plan.config.L + 1, dtype=complex)
        D0[np.ix_(keep, keep)] = Dd
        for module in (harness, helpers):
            monkeypatch.setattr(
                module,
                "fast_information",
                information(module.fast_information, [], first_frame=D0),
            )
        monkeypatch.setattr(harness, "subspace_estimate", numbered_estimator(plan))
        records = run_experiment(plan)
        assert len({r.excluded_trials for r in records}) == 1
        assert all(r.mse_avg <= 1e-25 for r in records)
        # the per-frame oracle decides the frame once too
        oracle = run_experiment_per_frame(plan)
        assert [r.excluded_trials for r in oracle] == [1] * len(records)

    def test_estimator_raise_propagates(self):
        # a raise cannot be charged to one trial of a stacked call, so the
        # run stops instead of excluding a chunk whose size the byte
        # budget sets
        plan = small_plan(snr_db_grid=GRID)

        def estimate(Y, precoder, window_blocks):
            raise IllConditioned("stub", float("inf"))

        with pytest.raises(IllConditioned, match="stub"):
            run_with(plan, estimate)

    def test_template_sigma2_is_never_read(self):
        plans = [
            small_plan(config=SystemConfig(M=4, L=2, N=14, sigma2=sigma2))
            for sigma2 in (1.0, 7.5)
        ]
        csvs = [format_csv(run_experiment(plan)) for plan in plans]
        assert csvs[0] == csvs[1]


class TestCsv:
    header_fields = CSV_HEADER.split(",")

    def make_records(self):
        plan = small_plan(n_channels=1, n_trials=1)
        return run_with(plan, numbered_estimator(plan))

    def test_header_exact(self):
        assert CSV_HEADER == (
            "snr_db,crb_avg,mse_avg,crb_zp_ref_avg,n_blocks,redundancy,"
            "inner,seed,excluded_trials"
        )
        text = format_csv(self.make_records())
        assert text.splitlines()[0] == CSV_HEADER

    def test_rows_parse_back(self):
        records = self.make_records()
        lines = format_csv(records).splitlines()
        assert len(lines) == 1 + len(records)
        for record, line in zip(records, lines[1:]):
            fields = dict(zip(self.header_fields, line.split(",")))
            assert float(fields["snr_db"]) == record.snr_db
            assert float(fields["crb_avg"]) == pytest.approx(record.crb_avg, rel=1e-11)
            assert float(fields["mse_avg"]) == pytest.approx(record.mse_avg, rel=1e-11, abs=1e-300)
            assert fields["crb_zp_ref_avg"] == ""
            assert int(fields["n_blocks"]) == record.n_blocks
            assert fields["redundancy"] == record.redundancy_kind
            assert fields["inner"] == record.inner_kind
            assert int(fields["seed"]) == record.seed
            assert int(fields["excluded_trials"]) == record.excluded_trials

    def test_twelve_significant_digits(self):
        record = ResultRecord(
            snr_db=10.0, crb_avg=1.0 / 3.0, mse_avg=2.0 / 3.0,
            crb_zp_ref_avg=None, n_blocks=8, redundancy_kind="cp",
            inner_kind="identity", seed=0, excluded_trials=0,
        )
        line = format_csv([record]).splitlines()[1]
        assert line.split(",")[1] == "0.333333333333"
        assert line.split(",")[2] == "0.666666666667"

    def test_write_csv_matches_format_csv(self, tmp_path):
        records = self.make_records()
        path = tmp_path / "out.csv"
        write_csv(records, path)
        assert path.read_text() == format_csv(records)

    def test_readme_plan_golden(self):
        # the README library example, pinned byte for byte
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=25, redundancy_kind="cp", inner_kind="idft"),
            snr_db_grid=(10, 20, 30), n_channels=20, n_trials=5, master_seed=0,
        )
        assert format_csv(run_experiment(plan)) == (
            CSV_HEADER + "\n"
            "10,0.0120921159441,0.349609323377,,25,cp,idft,0,0\n"
            "20,0.00120921159441,0.0753598596488,,25,cp,idft,0,0\n"
            "30,0.000120921159441,0.0127816578735,,25,cp,idft,0,0\n"
        )
