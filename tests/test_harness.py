"""Monte Carlo harness tests: seeding, the per-cell protocol, exclusion
accounting, and CSV output.

The oracle for the protocol wiring is an estimator stub that returns the
true channel (reconstructed from the documented seed fan-out) up to a
complex scale: after ambiguity resolution the cell's mse_avg must vanish.
"""

import numpy as np
import pytest

from blindcrb import (
    CSV_HEADER,
    ChannelEstimate,
    ExclusionBudgetExceeded,
    ExperimentPlan,
    IllConditioned,
    ResultRecord,
    SystemConfig,
    draw_channel,
    format_csv,
    run_cell,
    run_experiment,
    sigma2_from_snr_db,
    write_csv,
)


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


def oracle_estimator(plan, fail_calls=()):
    """Estimator stub returning the true channel scaled by 2+1j; raises a
    numerical error on the per-cell call indices in fail_calls. The call
    counter wraps at one cell's worth of trials so a single stub can serve
    a whole experiment."""
    channels = channel_sequence(plan)
    per_cell = plan.n_channels * plan.n_trials
    state = {"call": 0}

    def estimate(yN, config, precoder, settings):
        k = state["call"] % per_cell
        state["call"] += 1
        if k in fail_calls:
            raise IllConditioned("stub", float("inf"))
        return ChannelEstimate(h_hat=(2 + 1j) * channels[k // plan.n_trials].h)

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
            assert ch.hd0 == ch.h[ch.d]

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
        record = run_cell(plan, 20.0, estimate_fn=oracle_estimator(plan, fail_calls={0}))
        assert record.excluded_trials == 1
        assert record.mse_avg <= 1e-25

    def test_budget_breach_raises(self):
        plan = small_plan()

        def always_fails(yN, config, precoder, settings):
            raise IllConditioned("stub", float("inf"))

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

    def test_crb_decreases_with_snr(self):
        plan = small_plan(snr_db_grid=(0.0, 20.0), n_channels=2, n_trials=1)
        lo, hi = run_experiment(plan, estimate_fn=oracle_estimator(plan))
        assert hi.crb_avg < lo.crb_avg


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
