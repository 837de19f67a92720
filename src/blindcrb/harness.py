"""Monte Carlo comparison of the subspace estimator against the bound.

Protocol: draw n_channels unit-norm channels; for each channel run
n_trials independent trials, each with a fresh QPSK frame and noise
realization, and evaluate every trial at every SNR point of the grid.
At each point the noise draw is scaled to that point's variance, the
channel is estimated blindly, its scale is resolved against the true
anchor tap h[d], and the squared error goes into that point's cell; the
bound trace is evaluated at the same (channel, frame, anchor) via the
fast route. Averages over the included trials of a cell give its mse_avg
and crb_avg.

The run fills one per-trial table and then reduces it. For every
(channel, trial) the table holds the bound at unit noise (and the
zero-padding reference's, when the plan asks for it) and the squared
error at every SNR point: 8 n_channels n_trials (n_snr + 1 or 2) bytes,
about 3 kB for 10 channels of 5 trials at 7 SNR points.

Fill: groups of channels, then chunks of trials; a trial's SNR points
are evaluated together. What does not depend on the noise level is
computed before the SNR points and shared by all of them. The channels
go in groups, as many per group as keep their frames and the bound's
working set on them (which the bound counts, crb_blind._channel_bytes)
within one byte budget (_GROUP_BYTES), so 10 channels of 5 N=25 frames
are one group and a long-frame channel a group of its own. Per group:
the channels are drawn, then every trial's frame, and one call per D0
function gives the bound's reduced information with the noise factored
out, D0, for every (channel, trial) of the group at once (and the
zero-padding reference's D0 when the plan asks for it). Each step of the
fast route's sweep is one stacked QR of the channels' windows still
moving, which no frame enters, and one stacked product that applies the
step maps to every trial's frame. The group's (channel, trial) stack of
D0 is inverted in one stacked call at unit noise, each channel at its
own anchor, and the traces are the group's unit bounds in the table;
the Fisher information is D0 / sigma2, so the bound at an SNR point is
sigma2 times the unit one. Then the group's (channel, trial) pairs whose
unit bounds are finite are walked in order, in chunks of consecutive
trials, as many per chunk as keep the chunk's frames and the
estimator's working set on them (which the estimator counts,
estimator._frame_bytes) within the same byte budget, and at least one.
Per chunk, one synthesize_observation call per trial gives its frames
at every SNR point, each the noiseless frame plus the trial's one unit
noise draw scaled to that point's variance; the (trial, SNR point)
stack of frames goes to the estimator (given no sigma2) in one stacked
call, the rows' ambiguity is resolved in another, each against its own
channel's anchor, and each trial's squared errors are written to its
row of the table. Nothing is summed while the groups run.

Reduce: once every group has run, a trial is in a cell exactly when its
squared error there is finite, so one isfinite of the error table gives
every cell's excluded count. The cells are checked in ascending SNR
order, and the first whose exclusions reach 1% of its trials fails.
Otherwise each cell's squared errors, bounds and reference bounds (each
sigma2 times its unit bound) are summed one trial at a time, in trial
order, an excluded trial adding 0.0, which changes no bit; a pairwise
sum over the trials would round differently. numpy's stacked operations
do on each member what they do on one matrix or frame, and each channel
of a stacked sweep refreshes its step map until its own carry repeats,
so these are the floating-point operations of a cell-by-cell run, and a
cell's record depends neither on which other cells run with it nor on
the grouping or the chunking.

SNR convention: symbols have unit power and channels unit norm, so
snr_db = 10 log10(1 / sigma2).

Randomness is reproducible: a master seed fans out through
numpy SeedSequence([master_seed, stream, indices...]) with stream tags
0 = channel draw (per channel index), 1 = symbol frame and 2 = noise
(per channel and trial index); every stream is independent, so drawing a
group's frames ahead of its trials changes no draw. Trials that fail
numerically are excluded and counted per cell. A frame's bound is
decided once, at unit noise: a frame whose bound or reference bound is
not finite there, because its channel failed a gate of D0 (a
rank-deficient K, an ill-conditioned zero-padding symbol block: its
member of the stacked D0 is NaN) or the inversion was refused, never
goes to the estimator, so its squared errors stay NaN and it is
excluded from every cell. The stacked estimator and ambiguity
resolution mark a failed member NaN instead of raising, so a trial that
reaches them is excluded from a cell exactly when its estimate or anchor
tap there is not finite. The stage that excluded a trial is read off the
table: a unit bound that is not finite means the bound, and a finite one
beside a non-finite squared error the estimator or the anchor tap.
An exception raised by the estimator propagates: excluding the chunk it
came from would make the exclusions depend on the byte budget.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
import numpy as np

# crb_fast and crb_zp_per_block are not called here; they stay bound because
# perfbench/spans.py traces them by their attribute names on this module.
from .crb_blind import (
    _channel_bytes,
    _invert_reduced,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    fast_information,
    zp_information,
)
from .errors import ExclusionBudgetExceeded
from .estimator import EstimatorSettings, _frame_bytes, resolve_ambiguity, subspace_estimate
from .model import (
    Channel,
    SystemConfig,
    _bools,
    _require_integers,
    _require_positive_sigma2,
    generate_symbols,
    make_precoder,
    synthesize_observation,
)

_STREAM_CHANNEL = 0
_STREAM_SYMBOLS = 1
_STREAM_NOISE = 2

# Bytes that one group of channels may hold in frames and the bound's
# working set on them at once, which crb_blind._channel_bytes counts (see
# _group_size), and that one estimator call may hold in frames and the
# estimator's working set on them, which estimator._frame_bytes counts
# (see _chunk_size). At M=12, L=4, 10 channels x 5 trials of N=25 blocks
# fit in one group (a traced peak of 1.55 MB), and 5 channels x 3 trials
# of N=100 (1.66 MB), under zero padding with the reference as under
# cp/IDFT; a channel is never split, so one N=1000 channel of 5 trials
# (5.5 MB, 2.6 times the budget) is a group of its own. At
# N=25, the estimator's identifiability border with 2-block windows, 8
# trials of 7 SNR points go to one estimator call, and at N=1000 one
# trial.
_GROUP_BYTES = 2 << 20

# Largest tolerated fraction of excluded trials per cell.
EXCLUSION_BUDGET = 0.01

CSV_HEADER = (
    "snr_db,crb_avg,mse_avg,crb_zp_ref_avg,n_blocks,redundancy,inner,"
    "seed,excluded_trials"
)


def sigma2_from_snr_db(snr_db: float) -> float:
    """Noise variance for unit-power symbols over a unit-norm channel."""
    return float(10.0 ** (-snr_db / 10.0))


def _stream_rng(master_seed: int, stream: int, *indices: int) -> np.random.Generator:
    seq = np.random.SeedSequence([master_seed, stream, *indices])
    return np.random.default_rng(seq)


def draw_channel(L: int, rng) -> Channel:
    """Draw L+1 iid complex Gaussian taps, normalize to unit norm, and
    anchor on the strongest tap."""
    _require_integers(L=L)
    if L < 1:
        raise ValueError(f"channel order must be at least 1, got {L}")
    gen = np.random.default_rng(rng)
    taps = (gen.standard_normal(L + 1) + 1j * gen.standard_normal(L + 1)) / np.sqrt(2)
    taps /= np.linalg.norm(taps)
    return Channel(h=taps, d=default_anchor(taps))


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a frame configuration swept over an SNR grid.

    The config's sigma2 is never read: each SNR point gives its cell's
    noise variance, which must pass model._require_positive_sigma2, the
    rule every bound applies to a noise variance. The grid must be
    nonempty, strictly increasing and free of bools, and window_blocks at
    most N. compute_zp_reference needs a config whose precoder is zero
    padding by Precoder.zero_padding, the test zp_information applies,
    whatever its redundancy kind.
    """

    config: SystemConfig
    snr_db_grid: tuple
    n_channels: int
    n_trials: int
    master_seed: int
    estimator_settings: EstimatorSettings = field(default_factory=EstimatorSettings)
    compute_zp_reference: bool = False

    def __post_init__(self):
        if _bools(self.snr_db_grid):
            raise ValueError(f"SNR grid must hold numbers, not bools, got {self.snr_db_grid}")
        grid = tuple(float(v) for v in self.snr_db_grid)
        if len(grid) == 0:
            raise ValueError("SNR grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("SNR grid must be strictly increasing")
        for snr_db in grid:
            try:
                _require_positive_sigma2(sigma2_from_snr_db(snr_db))
            except (OverflowError, ValueError):
                message = f"SNR point {snr_db} dB has no normal positive finite sigma2"
                raise ValueError(message) from None
        object.__setattr__(self, "snr_db_grid", grid)
        _require_integers(
            n_channels=self.n_channels, n_trials=self.n_trials, master_seed=self.master_seed
        )
        if self.n_channels < 1 or self.n_trials < 1:
            raise ValueError("need at least one channel and one trial per cell")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.compute_zp_reference and not make_precoder(self.config).zero_padding:
            raise ValueError("the per-block reference bound applies to zero padding only")
        if self.estimator_settings.window_blocks > self.config.N:
            raise ValueError("window_blocks must not exceed the frame's N blocks")


@dataclass(frozen=True)
class ResultRecord:
    """Averaged outcome of one (SNR, configuration) cell. The averages
    must be finite: a NaN that reached one would mean a failed trial was
    averaged in instead of excluded."""

    snr_db: float
    crb_avg: float
    mse_avg: float
    crb_zp_ref_avg: float | None
    n_blocks: int
    redundancy_kind: str
    inner_kind: str
    seed: int
    excluded_trials: int

    def __post_init__(self):
        if not (self.crb_avg > 0 and math.isfinite(self.crb_avg)):
            raise ValueError(f"crb_avg must be finite and positive, got {self.crb_avg}")
        if not (self.mse_avg >= 0 and math.isfinite(self.mse_avg)):
            raise ValueError(f"mse_avg must be finite and nonnegative, got {self.mse_avg}")
        if self.crb_zp_ref_avg is not None and not (
            self.crb_zp_ref_avg > 0 and math.isfinite(self.crb_zp_ref_avg)
        ):
            raise ValueError(
                f"crb_zp_ref_avg must be finite and positive, got {self.crb_zp_ref_avg}"
            )


def _group_size(config: SystemConfig, n_trials: int) -> int:
    """Channels per group: as many as fit _GROUP_BYTES, and at least one,
    so a channel whose frames alone exceed the budget is a group of its
    own. A channel takes n_trials frames, each 16 NM bytes, and the
    bound's working set on them, crb_blind._channel_bytes."""
    stage = _channel_bytes(config.P, config.M, config.N, n_trials)
    return max(1, _GROUP_BYTES // (16 * n_trials * config.N * config.M + stage))


def _chunk_size(config: SystemConfig, n_snr: int, window_blocks: int) -> int:
    """Trials per estimator call: as many as fit _GROUP_BYTES, and at
    least one. A trial takes n_snr frames, each 16 (NP - L) bytes and the
    estimator's working set on it, estimator._frame_bytes."""
    working = _frame_bytes(config.P, config.M, config.N, window_blocks)
    return max(1, _GROUP_BYTES // (n_snr * (16 * (config.N * config.P - config.L) + working)))


def run_experiment(plan: ExperimentPlan, estimate_fn=None) -> list:
    """Run every cell of the plan; one record per SNR point, ascending.

    estimate_fn replaces the subspace estimator when given (for oracle
    tests). It is called once per chunk of trials, with every SNR point
    of each: it receives (Y, precoder, settings), where Y is the
    (k, len(grid), NP - L) stack whose row r holds the r-th trial's
    frames, row s of those the frame at grid point s, and no noise
    variance, and returns the (k, len(grid), L+1) unresolved taps. Rows
    come in the order channel i, trial j, and the chunks follow each
    other in that order: over a run, row number t = i * n_trials + j.
    A frame whose bound fails (see the module docstring) has no row and
    takes no row number, so the rows after it move up. A row that is not
    finite, or whose anchor tap is too small to resolve, excludes that
    trial from that point's cell only; a failed trial must come back as
    NaN, because an exception raised by the call propagates. A record
    does not depend on which other points share the grid, nor on how the
    trials are chunked.
    """
    if estimate_fn is None:
        estimate_fn = subspace_estimate
    config = plan.config
    precoder = make_precoder(config)
    n_snr = len(plan.snr_db_grid)
    sigma2s = np.array([sigma2_from_snr_db(s) for s in plan.snr_db_grid])
    # The per-trial table: each (channel, trial)'s bounds at unit noise
    # (the bound's, then the reference's) and its squared error at each
    # SNR point, NaN where its bound failed and not finite where its
    # estimate or anchor tap did.
    units = np.empty((1 + plan.compute_zp_reference, plan.n_channels, plan.n_trials))
    err = np.full((plan.n_channels, plan.n_trials, n_snr), np.nan)
    group_size = _group_size(config, plan.n_trials)
    chunk_size = _chunk_size(config, n_snr, plan.estimator_settings.window_blocks)
    for first in range(0, plan.n_channels, group_size):
        group = range(first, min(first + group_size, plan.n_channels))
        channels = [
            draw_channel(config.L, _stream_rng(plan.master_seed, _STREAM_CHANNEL, i))
            for i in group
        ]
        sNs = np.array([
            [
                generate_symbols(
                    "qpsk",
                    config.M,
                    config.N,
                    _stream_rng(plan.master_seed, _STREAM_SYMBOLS, i, j),
                ).sN
                for j in range(plan.n_trials)
            ]
            for i in group
        ])
        hs = np.array([channel.h for channel in channels])
        # D0 of the bound and of the zero-padding reference, NaN where a
        # channel failed the rank gate or the J11 gate.
        D0s = [fast_information(hs, sNs, precoder)]
        if plan.compute_zp_reference:
            D0s.append(zp_information(hs, sNs, precoder))
        # Traces at unit noise, NaN where D0 failed a gate or its
        # inversion was refused; sigma2 scales them.
        anchors = np.array([channel.d for channel in channels])
        units[:, group] = _invert_reduced(np.stack(D0s), anchors[:, None]).trace
        # The live (member, trial) pairs in order, in chunks; a frame
        # whose bound failed gets no estimator row.
        live = np.argwhere(np.isfinite(units[:, group]).all(axis=0))
        for start in range(0, len(live), chunk_size):
            c, j = live[start: start + chunk_size].T
            Y = np.empty((c.size, n_snr, config.N * config.P - config.L), np.complex128)
            for Y_r, c_r, j_r in zip(Y, c, j):
                Y_r[:] = synthesize_observation(
                    precoder, hs[c_r], sNs[c_r, j_r], sigma2s,
                    _stream_rng(plan.master_seed, _STREAM_NOISE, group[c_r], j_r),
                )
            h_hats = estimate_fn(Y, precoder, plan.estimator_settings)
            if np.shape(h_hats) != (c.size, n_snr, config.L + 1):
                raise ValueError(
                    f"estimate_fn returned shape {np.shape(h_hats)}, "
                    f"expected {(c.size, n_snr, config.L + 1)}"
                )
            d = anchors[c]
            h_res = resolve_ambiguity(h_hats, d[:, None], hs[c, d][:, None])
            # Not finite where the estimate or its anchor tap failed.
            err[first + c, j] = np.sum(np.abs(h_res - hs[c][:, None]) ** 2, axis=-1)
    ok = np.isfinite(err)
    excluded = np.sum(~ok, axis=(0, 1))
    total = plan.n_channels * plan.n_trials
    for snr_db, n_excluded in zip(plan.snr_db_grid, excluded):
        if n_excluded / total >= EXCLUSION_BUDGET:
            raise ExclusionBudgetExceeded(
                f"{n_excluded} of {total} trials excluded at {snr_db} dB"
            )
    # Per SNR point: sums of squared errors, bounds and reference bounds
    # over the included trials, one trial at a time in trial order (a
    # pairwise sum over the trials would round otherwise); an excluded
    # trial adds 0.0, which changes no bit.
    sums = np.zeros((3, n_snr))
    for i, j in np.ndindex(ok.shape[:2]):
        terms = [err[i, j], *units[:, i, j, None] * sigma2s]
        sums[: len(terms)] += np.where(ok[i, j], terms, 0.0)
    included = total - excluded
    mse, crb, zp = sums
    return [
        ResultRecord(
            snr_db=plan.snr_db_grid[s],
            crb_avg=float(crb[s] / included[s]),
            mse_avg=float(mse[s] / included[s]),
            crb_zp_ref_avg=(
                float(zp[s] / included[s]) if plan.compute_zp_reference else None
            ),
            n_blocks=config.N,
            redundancy_kind=config.redundancy_kind,
            inner_kind=config.inner_kind,
            seed=plan.master_seed,
            excluded_trials=int(excluded[s]),
        )
        for s in range(n_snr)
    ]


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def format_csv(records) -> str:
    """Render records as CSV text, floats at 12 significant digits."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for r in records:
        zp = "" if r.crb_zp_ref_avg is None else _fmt(r.crb_zp_ref_avg)
        out.write(
            f"{_fmt(r.snr_db)},{_fmt(r.crb_avg)},{_fmt(r.mse_avg)},{zp},"
            f"{r.n_blocks},{r.redundancy_kind},{r.inner_kind},"
            f"{r.seed},{r.excluded_trials}\n"
        )
    return out.getvalue()


def write_csv(records, path):
    """Write records to path; identical inputs yield identical bytes."""
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(records))
