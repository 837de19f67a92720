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

Loop order: groups of channels, then channel, then trial; a trial's SNR
points are evaluated together. What does not depend on the noise level
is computed before the SNR points and shared by all of them. The
channels go in groups, as many per group as keep its frames, precoded
streams and null-space coordinates within one byte budget (_GROUP_BYTES),
so a desk-scale plan is one group and a long-frame channel a group of its
own. Per group: the channels are drawn, then every trial's frame, and
one call per D0 function gives the bound's reduced information with the
noise factored out, D0, for every (channel, trial) of the group at once
(and the zero-padding reference's D0 when the plan asks for it). The
group's (channel, trial, SNR point) stack of D0 / sigma2 is inverted in
one stacked call, each channel at its own anchor. Then per channel and
trial, the noiseless frame is synthesised and the unit noise drawn,
y = clean + sqrt(sigma2/2) * noise is formed at every SNR point, the
stack of frames goes to the estimator (given no sigma2) in one stacked
call, the rows' ambiguity is resolved in another, and each SNR point's
squared error and bound are added to its running sums. numpy's stacked
operations do on each member what they do on one matrix or frame, each
channel of a stacked sweep switches to its steady map at its own step,
and every sum takes its terms in trial order, so these are the
floating-point operations of a cell-by-cell run, and a cell's record
depends neither on which other cells run with it nor on the grouping.
Batching per trial, not per channel, keeps the estimator's working set
at one trial's n_snr frames and their windows.

SNR convention: symbols have unit power and channels unit norm, so
snr_db = 10 log10(1 / sigma2).

Randomness is reproducible: a master seed fans out through
numpy SeedSequence([master_seed, stream, indices...]) with stream tags
0 = channel draw (per channel index), 1 = symbol frame and 2 = noise
(per channel and trial index); every stream is independent, so drawing a
group's frames ahead of its trials changes no draw. Trials that fail
numerically are excluded and counted per cell. A failed gate of D0 (a
rank-deficient K, an ill-conditioned zero-padding symbol block) depends
on the channel alone: its member of the stacked D0 is NaN, and all of
that channel's trials are excluded from every cell without an estimator
call. A NumericalError raised by the estimator excludes that trial from
every cell. The stacked estimator, ambiguity resolution and inversion
mark a failed member NaN instead of raising, so a trial is included in a
cell exactly when its estimate, anchor tap and bounds there are finite.
Once every trial has run, the cells are checked in ascending SNR order
and the first whose exclusions reach 1% of its trials fails.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field
import numpy as np

# crb_fast and crb_zp_per_block are not called here; they stay bound because
# perfbench/spans.py traces them by their attribute names on this module.
from .crb_blind import (
    _invert_reduced,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    fast_information,
    zp_information,
)
from .errors import ExclusionBudgetExceeded, NumericalError
from .estimator import EstimatorSettings, subspace_estimate, resolve_ambiguity
from .model import (
    Channel,
    SystemConfig,
    _as_rng,
    draw_noise,
    generate_symbols,
    make_precoder,
    synthesize_observation,
)

_STREAM_CHANNEL = 0
_STREAM_SYMBOLS = 1
_STREAM_NOISE = 2

# Bytes that one group of channels may hold in frames, precoded streams
# and null-space coordinates at once (see _group_size). At M=12, L=4, 10
# channels x 5 trials of N=25 blocks fit in one group (1.4 MB), and an
# N=1000 channel of 5 trials (5.4 MB) is a group of its own.
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
    if L < 1:
        raise ValueError(f"channel order must be at least 1, got {L}")
    gen = _as_rng(rng)
    taps = (gen.standard_normal(L + 1) + 1j * gen.standard_normal(L + 1)) / np.sqrt(2)
    taps /= np.linalg.norm(taps)
    return Channel(h=taps, d=default_anchor(taps))


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: a frame configuration swept over an SNR grid.

    The config's sigma2 is never read: each SNR point gives its cell's
    noise variance, which must be positive and finite. The grid must be
    nonempty and strictly increasing, and window_blocks at most N.
    """

    config: SystemConfig
    snr_db_grid: tuple
    n_channels: int
    n_trials: int
    master_seed: int
    estimator_settings: EstimatorSettings = field(default_factory=EstimatorSettings)
    compute_zp_reference: bool = False

    def __post_init__(self):
        grid = tuple(float(v) for v in self.snr_db_grid)
        if len(grid) == 0:
            raise ValueError("SNR grid must not be empty")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("SNR grid must be strictly increasing")
        for snr_db in grid:
            try:
                sigma2 = sigma2_from_snr_db(snr_db)
            except OverflowError:
                sigma2 = math.inf
            if not 0 < sigma2 < math.inf:
                raise ValueError(f"SNR point {snr_db} dB has no positive finite sigma2")
        object.__setattr__(self, "snr_db_grid", grid)
        if self.n_channels < 1 or self.n_trials < 1:
            raise ValueError("need at least one channel and one trial per cell")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.compute_zp_reference and self.config.redundancy_kind != "zp":
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
    """Channels per group: as many as fit _GROUP_BYTES, at about
    16 T N (M + P + 2 L (L+1)) bytes a channel for its frames, their
    precoded streams and their null-space coordinates (twice, for the
    zero-padding reference), and at least one."""
    M, L = config.M, config.L
    per_channel = 16 * n_trials * config.N * (2 * M + L + 2 * L * (L + 1))
    return max(1, _GROUP_BYTES // per_channel)


def run_experiment(plan: ExperimentPlan, estimate_fn=None) -> list:
    """Run every cell of the plan; one record per SNR point, ascending.

    estimate_fn replaces the subspace estimator when given (for oracle
    tests). It is called once per trial, with the trial's frame at every
    SNR point: it receives (Y, precoder, settings), where Y is the
    (len(grid), NP - L) stack whose row s is the frame at grid point s,
    and no noise variance, and returns the (len(grid), L+1) unresolved
    taps. A NumericalError raised by the call excludes the trial from
    every cell; a row that is not finite, or whose anchor tap is too small
    to resolve, excludes it from that point's cell only. Calls come in the
    order channel i, trial j: call number k = i * n_trials + j. A channel
    whose bound information fails a gate makes no estimator calls and
    takes no call numbers, so the calls after it move up. A record does not depend
    on which other points share the grid.
    """
    if estimate_fn is None:
        estimate_fn = subspace_estimate
    config = plan.config
    precoder = make_precoder(config)
    n_snr = len(plan.snr_db_grid)
    sigma2s = np.array([sigma2_from_snr_db(s) for s in plan.snr_db_grid])
    # Row s scales a unit noise draw to the variance of SNR point s.
    noise_scales = np.sqrt(sigma2s / 2)[:, None]
    # Per SNR point: sums over the included trials, and the excluded count.
    mse, crb, zp = np.zeros((3, n_snr))
    excluded = np.zeros(n_snr, dtype=int)
    group_size = _group_size(config, plan.n_trials)
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
        # (1 or 2, channels, trials, L+1, L+1): D0 of the bound and of the
        # zero-padding reference. A channel that fails a gate comes back
        # NaN, row 0 for the rank gate and row 1 for the J11 gate.
        D0s = [fast_information(hs, sNs, precoder)]
        if plan.compute_zp_reference:
            D0s.append(zp_information(hs, sNs, precoder.Ftilde))
        D0s = np.stack(D0s)
        failed = np.isnan(D0s).any(axis=(0, 2, 3, 4))
        # (1 or 2, channels, trials, SNR points) traces, NaN where an
        # inversion was refused.
        anchors = np.array([channel.d for channel in channels])
        traces = _invert_reduced(
            D0s[:, :, :, None] / sigma2s[:, None, None], anchors[:, None, None]
        ).trace
        bounds = traces[0]
        refs = traces[1] if plan.compute_zp_reference else np.zeros_like(bounds)
        for i, channel, frames, bounds_i, refs_i, failed_i in zip(
            group, channels, sNs, bounds, refs, failed
        ):
            if failed_i:
                excluded += plan.n_trials
                continue
            h, d = channel.h, channel.d
            for j, (sN, bound, ref) in enumerate(zip(frames, bounds_i, refs_i)):
                clean = synthesize_observation(precoder, h, sN, 0.0, None)
                noise = draw_noise(
                    clean.size, _stream_rng(plan.master_seed, _STREAM_NOISE, i, j)
                )
                try:
                    h_hats = estimate_fn(
                        clean + noise_scales * noise, precoder, plan.estimator_settings
                    )
                except NumericalError:
                    excluded += 1
                    continue
                if np.shape(h_hats) != (n_snr, config.L + 1):
                    raise ValueError(
                        f"estimate_fn returned shape {np.shape(h_hats)}, "
                        f"expected {(n_snr, config.L + 1)}"
                    )
                err = np.sum(np.abs(resolve_ambiguity(h_hats, d, h[d]) - h) ** 2, axis=-1)
                # Not finite where the estimate, its anchor tap or an inversion failed.
                ok = np.isfinite(err + bound + ref)
                mse += np.where(ok, err, 0.0)
                crb += np.where(ok, bound, 0.0)
                zp += np.where(ok, ref, 0.0)
                excluded += ~ok
    total = plan.n_channels * plan.n_trials
    for snr_db, n_excluded in zip(plan.snr_db_grid, excluded):
        if n_excluded / total >= EXCLUSION_BUDGET:
            raise ExclusionBudgetExceeded(
                f"{n_excluded} of {total} trials excluded at {snr_db} dB"
            )
    included = total - excluded
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
