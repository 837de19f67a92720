"""Monte Carlo harness tests: seeding, the per-cell protocol, exclusion
accounting, and CSV output.

The oracle for the protocol wiring is an estimator stub that returns the
true channel (reconstructed from the documented seed fan-out) up to a
complex scale: after ambiguity resolution the cell's mse_avg must vanish.
"""

from dataclasses import replace

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
    build_redundancy,
    draw_channel,
    format_csv,
    run_experiment,
    sigma2_from_snr_db,
    write_csv,
)
from blindcrb.crb_blind import COND_LIMIT, _conditioned
import helpers
from helpers import run_cell, run_experiment_per_frame, traced_peak


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
    SNR point of every trial of the stack it is given.

    Rows arrive in the documented order (channel i, then trial j), so row
    number t over a run serves trial t, whose channel is t // n_trials.
    The stub returns NaN at every SNR point of the trials t in
    fail_trials, which excludes them from every cell. The row counter
    wraps at one cell's worth of trials so a single stub can serve
    repeated runs."""
    channels = channel_sequence(plan)
    per_cell = plan.n_channels * plan.n_trials
    state = {"row": 0}

    def estimate(Y, precoder, settings):
        h_hats = np.empty(Y.shape[:-1] + (plan.config.L + 1,), dtype=complex)
        for h_hat in h_hats:
            t = state["row"] % per_cell
            state["row"] += 1
            h_hat[:] = (2 + 1j) * channels[t // plan.n_trials].h
            if t in fail_trials:
                h_hat[:] = np.nan
        return h_hats

    return estimate


def counting_estimates(shapes):
    """Wrap the subspace estimator to append each call's stack shape
    (trials, SNR points) to shapes."""
    subspace_estimate = harness.subspace_estimate

    def estimate(Y, precoder, settings):
        shapes.append(Y.shape[:-1])
        return subspace_estimate(Y, precoder, settings)

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
            dict(snr_db_grid=()),
            dict(snr_db_grid=(20.0, 10.0)),
            dict(snr_db_grid=(10.0, 10.0)),
            dict(n_channels=0),
            dict(n_trials=0),
            dict(master_seed=-1),
            dict(snr_db_grid=(True, 10.0)),
            dict(snr_db_grid=np.array([False, True])),
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
            ("window_blocks", lambda: EstimatorSettings(2.5)),
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
            estimator_settings=EstimatorSettings(np.int16(2)),
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

        def always_fails(Y, precoder, settings):
            return np.full(Y.shape[:-1] + (plan.config.L + 1,), np.nan + 0j)

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


def first_frame_information(fn, D0):
    """Wrap a D0 function so that the first frame of the first channel it
    is given, in a (C, T, ...) stack or alone in a (T, ...) batch, gets D0
    instead of its own."""

    def wrapped(*args, **kwargs):
        D0s = fn(*args, **kwargs)
        D0s[(0,) * (D0s.ndim - 2)] = D0
        return D0s

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
        "make_plan,shape",
        [
            (make_plan, shape)
            for shape in [((0.0, 10.0, 20.0, 30.0, 40.0), 3, 3), ((20.0,), 4, 5)]
            for make_plan in [small_plan, idft_plan, custom_plan, zp_plan, rounding_plan]
        ],
        ids=[
            name + suffix
            for suffix in ["", "-one-point"]
            for name in ["cp-identity", "cp-idft", "custom", "zp-reference", "M12-N8-idft"]
        ],
    )
    def test_csv_equals_per_frame_run(self, make_plan, shape):
        # Equal records are equal in every bit of every float, which the
        # CSV's 12 digits cannot show: the sums take their terms in trial
        # order, and at one SNR point numpy's pairwise sum over the trial
        # axis would not.
        grid, n_channels, n_trials = shape
        plan = make_plan(snr_db_grid=grid, n_channels=n_channels, n_trials=n_trials)
        stacked = run_experiment(plan)
        per_frame = run_experiment_per_frame(plan)
        assert format_csv(stacked) == format_csv(per_frame)
        assert stacked == per_frame

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
        records, peak = traced_peak(run_experiment, plan)
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

    @pytest.mark.parametrize(
        "make_plan", [small_plan, zp_plan, rounding_plan],
        ids=["cp-identity", "zp-reference", "M12-N8-idft"],
    )
    def test_records_do_not_depend_on_chunks(self, make_plan, monkeypatch):
        # Chunks of 4 cross the 3-trial channels and add to running sums
        # that are not zero; the records must match one-trial chunks to
        # the last bit, which the CSV's 12 digits would not show.
        plan = make_plan(snr_db_grid=(10.0, 20.0, 30.0), n_channels=5, n_trials=3)
        records = {}
        for size in (1, 4, 15):
            monkeypatch.setattr(harness, "_chunk_size", lambda *args, k=size: k)
            records[size] = run_experiment(plan)
        assert records[4] == records[1]
        assert records[15] == records[1]

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
            h_hats = harness.subspace_estimate(
                Y, precoder, EstimatorSettings(window_blocks)
            )
            harness.resolve_ambiguity(h_hats, 0, 1.0)

        estimate_chunk()  # numpy's first calls in a process allocate more
        assert traced_peak(estimate_chunk)[1] <= harness._GROUP_BYTES

    def test_trial_stage_peak_memory(self, monkeypatch):
        # The desk plan's estimator calls take 8 trials of 7 frames each,
        # and the run peaks near 2.5 MB; one call for all 50 trials peaks
        # near 8.7 MB. The bound is the chunked peak plus about 40%.
        plan = ExperimentPlan(
            config=SystemConfig(M=12, L=4, N=25, inner_kind="idft"),
            snr_db_grid=(10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0),
            n_channels=10,
            n_trials=5,
            master_seed=0,
        )
        assert traced_peak(run_experiment, plan)[1] < 3.5e6
        monkeypatch.setattr(harness, "_chunk_size", lambda *args: 50)
        assert traced_peak(run_experiment, plan)[1] > 3.5e6


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
        # Equal records are equal in every bit of every float, which the
        # CSV's 12 digits cannot show.
        plan = make_plan(snr_db_grid=self.grid)
        together = run_experiment(plan)
        alone = [run_cell(plan, snr) for snr in plan.snr_db_grid]
        assert format_csv(together) == format_csv(alone)
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
        monkeypatch.setattr(harness, "subspace_estimate", counting_estimates(estimates))
        records = run_experiment(plan)
        trials = plan.n_channels * plan.n_trials
        # both channels fit in one group
        assert len(fast) == 1
        assert len(zp) == (1 if plan.compute_zp_reference else 0)
        # all trials fit in one stacked call, one row per trial and SNR point
        assert estimates == [(trials, len(self.grid))]
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

        def estimate(Y, precoder, settings):
            t = np.arange(len(estimates), len(estimates) + len(Y))  # row numbers
            estimates.extend(Y)
            h = np.array([kept[k].h for k in t // plan.n_trials])
            return np.repeat((2 + 1j) * h[:, None], Y.shape[1], axis=1)

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [2, 2, 2]
        assert all(r.mse_avg <= 1e-25 for r in records)
        # all 101 channels fit in one group, whose member 1 comes back NaN
        assert len(fast) == 1
        # the excluded channel's trials make no estimator rows
        assert len(estimates) == 200
        assert all(len(yN) == len(self.grid) for yN in estimates)

    def test_frame_at_cond_limit_decided_once(self, monkeypatch):
        # An anchor-reduced information within 3e-4 of COND_LIMIT, where
        # rounding decides the conditioning gate differently at different
        # noise levels. The frame's bound is decided once, at unit noise,
        # so the frame is in every cell or in none.
        plan = small_plan(
            snr_db_grid=tuple(np.arange(10.0, 41.0, 5.0)), n_channels=1, n_trials=101
        )
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
                first_frame_information(module.fast_information, D0),
            )
        records = run_experiment(plan, estimate_fn=oracle_estimator(plan))
        assert len({r.excluded_trials for r in records}) == 1
        assert all(r.mse_avg <= 1e-25 for r in records)
        # the per-frame oracle decides the frame once too
        oracle = run_experiment_per_frame(plan)
        assert [r.excluded_trials for r in oracle] == [1] * len(records)

    def test_singular_frame_makes_no_row(self, monkeypatch):
        # a frame whose bound fails is excluded from every cell and never
        # reaches the estimator
        plan = small_plan(
            snr_db_grid=tuple(np.arange(10.0, 41.0, 5.0)), n_channels=1, n_trials=101
        )
        monkeypatch.setattr(
            harness,
            "fast_information",
            first_frame_information(harness.fast_information, np.ones((3, 3))),
        )
        oracle, rows = oracle_estimator(plan), []

        def estimate(Y, precoder, settings):
            rows.extend(Y)
            return oracle(Y, precoder, settings)

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [1] * len(plan.snr_db_grid)
        assert len(rows) == 100
        assert all(r.mse_avg <= 1e-25 for r in records)

    @pytest.mark.parametrize(
        "make_plan,grid",
        [
            (make_plan, points)
            for points in [grid, (20.0,)]
            for make_plan in [small_plan, zp_plan, rounding_plan]
        ],
        ids=[
            name + suffix
            for suffix in ["", "-one-point"]
            for name in ["cp-identity", "zp-reference", "M12-N8-idft"]
        ],
    )
    def test_one_channel_groups_give_same_csv(self, make_plan, grid, monkeypatch):
        # the byte budget also sizes the estimator's chunks of trials:
        # several trials a call by default, one at a budget of 1 byte. The
        # records must match to the last bit, which the CSV's 12 digits
        # cannot show; at one SNR point a pairwise sum over the trials
        # would not (TestStackedMatchesPerFrame).
        plan = make_plan(snr_db_grid=grid, n_channels=5, n_trials=3)
        calls, shapes = [], []
        monkeypatch.setattr(
            harness, "fast_information", counting(harness.fast_information, calls)
        )
        monkeypatch.setattr(harness, "subspace_estimate", counting_estimates(shapes))
        grouped = run_experiment(plan)
        trials = plan.n_channels * plan.n_trials
        assert len(calls) == 1
        assert len(shapes) < trials
        assert sum(k for k, _ in shapes) == trials
        assert all(n_snr == len(grid) for _, n_snr in shapes)
        shapes.clear()
        monkeypatch.setattr(harness, "_GROUP_BYTES", 1)
        alone = run_experiment(plan)
        assert len(calls) == 1 + plan.n_channels
        assert shapes == [(1, len(grid))] * trials
        assert format_csv(alone) == format_csv(grouped)
        assert alone == grouped

    def test_estimator_failure_excluded_in_its_own_cell_only(self):
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        channel = channel_sequence(plan)[0]
        rows = []

        def estimate(Y, precoder, settings):
            first = len(rows)
            rows.extend(Y)
            h_hats = np.tile((2 + 1j) * channel.h, Y.shape[:-1] + (1,))
            if first == 0:
                h_hats[0, 1] = np.nan  # the first trial's 20 dB point fails
            return h_hats

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [0, 1, 0]
        assert len(rows) == 101
        assert all(len(yN) == len(self.grid) for yN in rows)
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_zero_anchor_excluded_in_its_own_cell_only(self):
        # a finite row that cannot be resolved fails like a NaN row
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        channel = channel_sequence(plan)[0]
        rows = []

        def estimate(Y, precoder, settings):
            first = len(rows)
            rows.extend(Y)
            h_hats = np.tile((2 + 1j) * channel.h, Y.shape[:-1] + (1,))
            if first <= 2 < len(rows):
                # the third trial's 30 dB point
                h_hats[2 - first, 2, channel.d] = 0.0
            return h_hats

        records = run_experiment(plan, estimate_fn=estimate)
        assert [r.excluded_trials for r in records] == [0, 0, 1]
        assert len(rows) == 101
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_failed_trial_excluded_in_every_cell(self):
        # a trial that is NaN at every SNR point drops out of every cell
        plan = small_plan(snr_db_grid=self.grid, n_channels=1, n_trials=101)
        records = run_experiment(plan, estimate_fn=oracle_estimator(plan, {5}))
        assert [r.excluded_trials for r in records] == [1, 1, 1]
        assert all(r.mse_avg <= 1e-25 for r in records)

    def test_estimator_raise_propagates(self):
        # a raise cannot be charged to one trial of a stacked call, so the
        # run stops instead of excluding a chunk whose size the byte
        # budget sets
        plan = small_plan(snr_db_grid=self.grid)

        def estimate(Y, precoder, settings):
            raise IllConditioned("stub", float("inf"))

        with pytest.raises(IllConditioned, match="stub"):
            run_experiment(plan, estimate_fn=estimate)

    def test_first_cell_over_budget_is_named(self):
        plan = small_plan(snr_db_grid=self.grid)
        channels = channel_sequence(plan)
        # SNR index -> how many of its first trials fail: 1 at 20 dB, 4 at 30 dB
        fails = {1: 1, 2: 4}
        rows = []

        def estimate(Y, precoder, settings):
            t = np.arange(len(rows), len(rows) + len(Y))  # trial numbers
            rows.extend(Y)
            h = np.array([channels[k].h for k in t // plan.n_trials])
            h_hats = np.repeat(h[:, None], Y.shape[1], axis=1)
            for s, n_failing in fails.items():
                h_hats[t < n_failing, s] = np.nan
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
