"""Monte Carlo harness tests: seeding, the per-cell protocol, exclusion
accounting, and CSV output.

The oracle for the protocol wiring is an estimator stub that returns the
true channel (reconstructed from the documented seed fan-out) up to a
complex scale: after ambiguity resolution the cell's mse_avg must vanish.
"""

import tracemalloc

import numpy as np
import pytest

from blindcrb import harness
from blindcrb import (
    CSV_HEADER,
    EstimatorSettings,
    ExclusionBudgetExceeded,
    ExperimentPlan,
    IllConditioned,
    ResultRecord,
    SystemConfig,
    draw_channel,
    format_csv,
    run_experiment,
    sigma2_from_snr_db,
    write_csv,
)
from helpers import run_cell, run_experiment_per_frame


def channel_sequence(plan):
    """True channels in draw order, from the documented seed fan-out:
    SeedSequence([master_seed, stream, index]) with stream 0 for channels."""
    return [
        draw_channel(
            plan.config.L,
            np.random.default_rng(np.random.SeedSequence([plan.master_seed, 0, i])),
        )
        for i in range(plan.n_channels)
    ]


def oracle_estimator(plan, fail_trials=()):
    """Estimator stub returning the true channel scaled by 2+1j at every
    SNR point of the stack it is given.

    Calls arrive in the documented order (channel i, then trial j), one
    per trial, so call k serves trial t = k, whose channel is
    t // n_trials. The stub raises a numerical error for the trials t in
    fail_trials, which excludes them from every cell. The trial counter
    wraps at one cell's worth of trials so a single stub can serve
    repeated runs."""
    channels = channel_sequence(plan)
    per_cell = plan.n_channels * plan.n_trials
    state = {"call": 0}

    def estimate(yN, precoder, settings):
        t = state["call"] % per_cell
        state["call"] += 1
        if t in fail_trials:
            raise IllConditioned("stub", float("inf"))
        return np.tile((2 + 1j) * channels[t // plan.n_trials].h, (len(yN), 1))

    return estimate


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


class TestPlanValidation:
    def test_grid_normalized_to_floats(self):
        plan = small_plan(snr_db_grid=(10, 20, 30))
        assert plan.snr_db_grid == (10.0, 20.0, 30.0)
        assert all(isinstance(v, float) for v in plan.snr_db_grid)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(snr_db_grid=()),
            dict(snr_db_grid=(20.0, 10.0)),
            dict(snr_db_grid=(10.0, 10.0)),
            dict(n_channels=0),
            dict(n_trials=0),
            dict(master_seed=-1),
        ],
    )
    def test_rejects_bad_plans(self, overrides):
        with pytest.raises(ValueError):
            small_plan(**overrides)

    @pytest.mark.parametrize("snr", [np.nan, np.inf, -np.inf, 4000.0, -4000.0])
    def test_rejects_snr_without_positive_finite_sigma2(self, snr):
        # 4000 dB underflows sigma2 to 0; -4000 dB overflows it
        with pytest.raises(ValueError, match="SNR point"):
            small_plan(snr_db_grid=(snr,))

    def test_windows_must_fit_in_the_frame(self):
        with pytest.raises(ValueError, match="window_blocks"):
            small_plan(estimator_settings=EstimatorSettings(window_blocks=15))
        plan = small_plan(estimator_settings=EstimatorSettings(window_blocks=14))
        assert plan.estimator_settings.window_blocks == plan.config.N

    def test_zp_reference_needs_zero_padding(self):
        with pytest.raises(ValueError, match="zero padding"):
            small_plan(compute_zp_reference=True)
        plan = small_plan(
            config=SystemConfig(M=4, L=2, N=14, redundancy_kind="zp"),
            compute_zp_reference=True,
        )
        assert plan.compute_zp_reference


class TestResultRecordValidation:
    def test_rejects_nonpositive_crb(self):
        with pytest.raises(ValueError, match="crb_avg"):
            ResultRecord(
                snr_db=10.0, crb_avg=0.0, mse_avg=0.0, crb_zp_ref_avg=None,
                n_blocks=8, redundancy_kind="cp", inner_kind="identity",
                seed=0, excluded_trials=0,
            )

    def test_rejects_negative_mse(self):
        with pytest.raises(ValueError, match="mse_avg"):
            ResultRecord(
                snr_db=10.0, crb_avg=1.0, mse_avg=-1.0, crb_zp_ref_avg=None,
                n_blocks=8, redundancy_kind="cp", inner_kind="identity",
                seed=0, excluded_trials=0,
            )


    @staticmethod
    def record(**overrides):
        kwargs = dict(
            snr_db=10.0, crb_avg=1.0, mse_avg=0.0, crb_zp_ref_avg=0.5,
            n_blocks=8, redundancy_kind="zp", inner_kind="identity",
            seed=0, excluded_trials=0,
        )
        kwargs.update(overrides)
        return ResultRecord(**kwargs)

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
        plan = small_plan()
        record = run_cell(plan, 20.0, estimate_fn=oracle_estimator(plan))
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

    def test_exclusions_under_budget_are_counted(self):
        plan = small_plan(n_channels=1, n_trials=101)
        record = run_cell(
            plan, 20.0, estimate_fn=oracle_estimator(plan, fail_trials={0})
        )
        assert record.excluded_trials == 1
        assert record.mse_avg <= 1e-25

    def test_budget_breach_raises(self):
        plan = small_plan()

        def always_fails(yN, precoder, settings):
            return np.full((len(yN), plan.config.L + 1), np.nan + 0j)

        with pytest.raises(ExclusionBudgetExceeded, match="excluded"):
            run_cell(plan, 20.0, estimate_fn=always_fails)

    def test_zp_reference_column(self):
        plan = small_plan(
            config=SystemConfig(M=4, L=2, N=14, redundancy_kind="zp"),
            n_channels=2,
            n_trials=1,
            compute_zp_reference=True,
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
        records = run_experiment(plan, estimate_fn=oracle_estimator(plan))
        assert [r.snr_db for r in records] == [5.0, 15.0, 25.0]

    def test_estimate_of_wrong_shape_rejected(self):
        plan = small_plan()
        channel = channel_sequence(plan)[0]
        with pytest.raises(ValueError, match="shape"):
            run_experiment(plan, estimate_fn=lambda yN, p, s: channel.h)

    def test_crb_decreases_with_snr(self):
        plan = small_plan(snr_db_grid=(0.0, 20.0), n_channels=2, n_trials=1)
        lo, hi = run_experiment(plan, estimate_fn=oracle_estimator(plan))
        assert hi.crb_avg < lo.crb_avg
        assert lo.mse_avg <= 1e-25 and hi.mse_avg <= 1e-25


def idft_plan(**overrides):
    return small_plan(
        config=SystemConfig(M=4, L=2, N=14, inner_kind="idft"), **overrides
    )


def zp_plan(**overrides):
    return small_plan(
        config=SystemConfig(M=4, L=2, N=14, redundancy_kind="zp"),
        compute_zp_reference=True,
        **overrides,
    )


def custom_plan(**overrides):
    rng = np.random.default_rng(3)
    custom = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    return small_plan(
        config=SystemConfig(
            M=4, L=2, N=14, redundancy_kind="custom", custom_redundancy=custom
        ),
        **overrides,
    )


def counting(fn, calls, fail_at=()):
    """Wrap a stacked D0 function to append each call's index to calls;
    the members of its channel stack whose index is in fail_at come back
    NaN, as a channel that fails a gate does."""

    def wrapped(*args, **kwargs):
        calls.append(len(calls))
        D0 = fn(*args, **kwargs)
        D0[list(fail_at)] = np.nan
        return D0

    return wrapped


def rounding_plan(**overrides):
    # N - w + 1 < wM: the estimate depends on rounding, so any change in
    # the floating-point operations shows in mse_avg
    return small_plan(
        config=SystemConfig(M=12, L=4, N=8, inner_kind="idft"), **overrides
    )


class TestStackedMatchesPerFrame:
    """run_experiment estimates all SNR points of a trial in one stacked
    call and inverts all of a channel's bounds in another; its records
    must match the frame-by-frame loop byte for byte."""

    @pytest.mark.parametrize(
        "make_plan",
        [small_plan, idft_plan, custom_plan, zp_plan, rounding_plan],
        ids=["cp-identity", "cp-idft", "custom", "zp-reference", "M12-N8-idft"],
    )
    def test_csv_equals_per_frame_run(self, make_plan):
        plan = make_plan(
            snr_db_grid=(0.0, 10.0, 20.0, 30.0, 40.0), n_channels=3, n_trials=3
        )
        stacked = format_csv(run_experiment(plan))
        assert stacked == format_csv(run_experiment_per_frame(plan))

    def test_long_frame_peak_memory(self):
        # One trial's 7 frames and their windows at a time peaks near
        # 13 MB; stacking the channel's whole 5 x 7 grid peaks near 45 MB.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=1000),
            snr_db_grid=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
            n_channels=1,
            n_trials=5,
            master_seed=0,
        )
        tracemalloc.start()
        try:
            records = run_experiment(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"
        assert all(r.excluded_trials == 0 for r in records)

    def test_long_frame_plan_peak_memory(self):
        # Channels are grouped by a byte budget: N=1000 channels go one per
        # group, which peaks near 8 MB here; one group of all six peaks
        # near 25 MB.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=1000),
            snr_db_grid=(20.0,),
            n_channels=6,
            n_trials=5,
            master_seed=0,
        )
        tracemalloc.start()
        try:
            records = run_experiment(plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"
        assert records[0].excluded_trials == 0


class TestSnrSharing:
    """Each (channel, trial) is drawn once, the bound information of all
    of a channel's trials is computed in one call, and every trial is then
    evaluated at every SNR point; the cells must come out as if each were
    run alone."""

    grid = (10.0, 20.0, 30.0)

    @pytest.mark.parametrize(
        "make_plan",
        [small_plan, idft_plan, custom_plan, zp_plan],
        ids=["cp-identity", "cp-idft", "custom", "zp-reference"],
    )
    def test_experiment_equals_cells_run_alone(self, make_plan):
        plan = make_plan(snr_db_grid=self.grid)
        together = format_csv(run_experiment(plan))
        alone = format_csv([run_cell(plan, snr) for snr in plan.snr_db_grid])
        assert together == alone

    @pytest.mark.parametrize("make_plan", [small_plan, zp_plan])
    def test_bound_information_once_per_group(self, make_plan, monkeypatch):
        plan = make_plan(snr_db_grid=self.grid, n_channels=2, n_trials=3)
        fast, zp, estimates = [], [], []
        monkeypatch.setattr(
            harness, "fast_information", counting(harness.fast_information, fast)
        )
        monkeypatch.setattr(
            harness, "zp_information", counting(harness.zp_information, zp)
        )
        subspace_estimate = harness.subspace_estimate

        def estimate(yN, precoder, settings):
            estimates.append(len(yN))
            return subspace_estimate(yN, precoder, settings)

        monkeypatch.setattr(harness, "subspace_estimate", estimate)
        records = run_experiment(plan)
        trials = plan.n_channels * plan.n_trials
        # both channels fit in one group
        assert len(fast) == 1
        assert len(zp) == (1 if plan.compute_zp_reference else 0)
        # one stacked call per trial, one row per SNR point
        assert estimates == [len(self.grid)] * trials
        assert all(r.excluded_trials == 0 for r in records)

    def test_rank_deficient_channel_excluded_in_every_cell(self, monkeypatch):
        plan = small_plan(snr_db_grid=self.grid, n_channels=101, n_trials=2)
        kept = [c for i, c in enumerate(channel_sequence(plan)) if i != 1]
        fast, estimates = [], []
        monkeypatch.setattr(
            harness,
            "fast_information",
            counting(harness.fast_information, fast, fail_at={1}),
        )

        def estimate(yN, precoder, settings):
            t = len(estimates)
            estimates.append(yN)
            return np.tile((2 + 1j) * kept[t // plan.n_trials].h, (len(yN), 1))

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [2, 2, 2]
        assert all(r.mse_avg <= 1e-25 for r in records)
        # all 101 channels fit in one group, whose member 1 comes back NaN
        assert len(fast) == 1
        # the excluded channel's trials make no estimator calls
        assert len(estimates) == 200
        assert all(len(yN) == len(self.grid) for yN in estimates)

    @pytest.mark.parametrize(
        "make_plan", [small_plan, zp_plan, rounding_plan],
        ids=["cp-identity", "zp-reference", "M12-N8-idft"],
    )
    def test_one_channel_groups_give_same_csv(self, make_plan, monkeypatch):
        plan = make_plan(snr_db_grid=self.grid, n_channels=5, n_trials=3)
        calls = []
        monkeypatch.setattr(
            harness, "fast_information", counting(harness.fast_information, calls)
        )
        grouped = format_csv(run_experiment(plan))
        assert len(calls) == 1
        monkeypatch.setattr(harness, "_GROUP_BYTES", 1)
        alone = format_csv(run_experiment(plan))
        assert len(calls) == 1 + plan.n_channels
        assert alone == grouped

    def test_estimator_failure_excluded_in_its_own_cell_only(self):
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        channel = channel_sequence(plan)[0]
        calls = []

        def estimate(yN, precoder, settings):
            calls.append(yN)
            h_hats = np.tile((2 + 1j) * channel.h, (len(yN), 1))
            if len(calls) == 1:
                h_hats[1] = np.nan  # the first trial's 20 dB point fails
            return h_hats

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [0, 1, 0]
        assert len(calls) == 101
        assert all(len(yN) == len(self.grid) for yN in calls)
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_zero_anchor_excluded_in_its_own_cell_only(self):
        # a finite row that cannot be resolved fails like a NaN row
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        channel = channel_sequence(plan)[0]
        calls = []

        def estimate(yN, precoder, settings):
            calls.append(yN)
            h_hats = np.tile((2 + 1j) * channel.h, (len(yN), 1))
            if len(calls) == 3:
                h_hats[2, channel.d] = 0.0  # the third trial's 30 dB point
            return h_hats

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [0, 0, 1]
        assert len(calls) == 101
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_estimator_raise_excluded_in_every_cell(self):
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        records = run_experiment(plan, estimate_fn=oracle_estimator(plan, {5}))
        assert [r.excluded_trials for r in records] == [1, 1, 1]
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_first_cell_over_budget_is_named(self):
        plan = small_plan(snr_db_grid=self.grid)
        channels = channel_sequence(plan)
        # SNR index -> how many of its first trials fail: 1 at 20 dB, 4 at 30 dB
        fails = {1: 1, 2: 4}
        calls = []

        def estimate(yN, precoder, settings):
            k = len(calls)  # trial number
            calls.append(yN)
            h_hats = np.tile(channels[k // plan.n_trials].h, (len(yN), 1))
            for s, n_failing in fails.items():
                if k < n_failing:
                    h_hats[s] = np.nan
            return h_hats

        with pytest.raises(
            ExclusionBudgetExceeded, match=r"^1 of 4 trials excluded at 20\.0 dB$"
        ):
            run_experiment(plan, estimate_fn=estimate)

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
        return run_experiment(plan, estimate_fn=oracle_estimator(plan))

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
            snr_db_grid=(10, 20, 30),
            n_channels=20,
            n_trials=5,
            master_seed=0,
        )
        assert format_csv(run_experiment(plan)) == (
            CSV_HEADER + "\n"
            "10,0.0120921159441,0.349609323377,,25,cp,idft,0,0\n"
            "20,0.00120921159441,0.0753598596488,,25,cp,idft,0,0\n"
            "30,0.000120921159441,0.0127816578735,,25,cp,idft,0,0\n"
        )
