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

Loop order: channel, then trial; a trial's SNR points are evaluated
together. What does not depend on the noise level is computed before the
SNR points and shared by all of them. Per channel: the channel is drawn,
then every trial's frame, noiseless received frame and unit noise draw,
and then one call per D0 function gives the bound's reduced information
with the noise factored out, D0, for all of the channel's trials at once
(and the zero-padding reference's D0 when the plan asks for it). The
channel's (trial, SNR point) stack of D0 / sigma2 is inverted in one
stacked call. Per trial, y = clean + sqrt(sigma2/2) * noise is formed at
every SNR point, and the stack of frames goes to the estimator (given no
sigma2) in one stacked call; then each SNR point resolves its row's
ambiguity and adds to its cell, in ascending order. numpy's stacked
operations do on each member what they do on one matrix or frame, so
these are the floating-point operations of a cell-by-cell run, and a
cell's record does not depend on which other cells run with it. Batching
per trial, not per channel, keeps the estimator's working set at one
trial's n_snr frames and their windows.

SNR convention: symbols have unit power and channels unit norm, so
snr_db = 10 log10(1 / sigma2).

Randomness is reproducible: a master seed fans out through
numpy SeedSequence([master_seed, stream, indices...]) with stream tags
0 = channel draw (per channel index), 1 = symbol frame and 2 = noise
(per channel and trial index); drawing a channel's frames ahead of its
trials changes no draw. Trials that fail numerically are excluded and
counted per cell. A failure of D0 (a rank-deficient K, an ill-conditioned
zero-padding symbol block) depends on the channel alone, so it excludes
all of that channel's trials from every cell. The stacked estimator and
inversion mark a failed member NaN instead of raising, so a failed
estimate, a refused inversion or a failed ambiguity resolution excludes
one trial from its own cell only. Once every trial has run, the cells are
checked in ascending SNR order and the first whose exclusions reach 1% of
its trials fails.
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


@dataclass
class _Cell:
    """Running sums of one SNR point."""

    snr_db: float
    sigma2: float
    mse: float = 0.0
    crb: float = 0.0
    zp: float = 0.0
    included: int = 0
    excluded: int = 0


def run_experiment(plan: ExperimentPlan, estimate_fn=None) -> list:
    """Run every cell of the plan; one record per SNR point, ascending.

    estimate_fn replaces the subspace estimator when given (for oracle
    tests). It is called once per trial, with the trial's frame at every
    SNR point: it receives (Y, precoder, settings), where Y is the
    (len(grid), NP - L) stack whose row s is the frame at grid point s,
    and no noise variance, and returns the (len(grid), L+1) unresolved
    taps. A row with a non-finite entry is a failed estimate and excludes
    the trial from that point's cell only; a NumericalError raised by the
    call excludes the trial from every cell. Calls come in the order
    channel i, trial j: call number k = i * n_trials + j. A channel whose
    bound information raises makes no estimator calls and takes no call
    numbers, so the calls after it move up. A record does not depend on
    which other points share the grid.
    """
    if estimate_fn is None:
        estimate_fn = subspace_estimate
    config = plan.config
    precoder = make_precoder(config)
    cells = [_Cell(s, sigma2_from_snr_db(s)) for s in plan.snr_db_grid]
    sigma2s = np.array([cell.sigma2 for cell in cells])
    # Row s scales a unit noise draw to the variance of SNR point s.
    noise_scales = np.sqrt(sigma2s / 2)[:, None]
    for i in range(plan.n_channels):
        channel = draw_channel(
            config.L, _stream_rng(plan.master_seed, _STREAM_CHANNEL, i)
        )
        h, d = channel.h, channel.d
        frames, cleans, noises = [], [], []
        for j in range(plan.n_trials):
            sN = generate_symbols(
                "qpsk",
                config.M,
                config.N,
                _stream_rng(plan.master_seed, _STREAM_SYMBOLS, i, j),
            ).sN
            clean = synthesize_observation(precoder, h, sN, 0.0, None)
            frames.append(sN)
            cleans.append(clean)
            noises.append(draw_noise(
                clean.size, _stream_rng(plan.master_seed, _STREAM_NOISE, i, j)
            ))
        sNs = np.stack(frames)
        try:
            D0s = fast_information(h, sNs, precoder, config.N)
            if plan.compute_zp_reference:
                D0s_zp = zp_information(h, sNs, precoder.Ftilde)
        except NumericalError:
            for cell in cells:
                cell.excluded += plan.n_trials
            continue
        # (n_trials, n_snr) traces, NaN where an inversion was refused.
        bounds = _invert_reduced(D0s[:, None] / sigma2s[:, None, None], d).trace
        refs = (
            _invert_reduced(D0s_zp[:, None] / sigma2s[:, None, None], d).trace
            if plan.compute_zp_reference else np.zeros_like(bounds)
        )
        for clean, noise, bound, ref in zip(cleans, noises, bounds, refs):
            try:
                h_hats = estimate_fn(
                    clean + noise_scales * noise, precoder, plan.estimator_settings
                )
            except NumericalError:
                for cell in cells:
                    cell.excluded += 1
                continue
            if np.shape(h_hats) != (len(cells), config.L + 1):
                raise ValueError(
                    f"estimate_fn returned shape {np.shape(h_hats)}, "
                    f"expected {(len(cells), config.L + 1)}"
                )
            ok = np.isfinite(h_hats).all(axis=-1) & np.isfinite(bound + ref)
            for s, cell in enumerate(cells):
                if not ok[s]:
                    cell.excluded += 1
                    continue
                try:
                    h_hat = resolve_ambiguity(h_hats[s], d, h[d])
                except NumericalError:
                    cell.excluded += 1
                    continue
                cell.mse += float(np.sum(np.abs(h_hat - h) ** 2))
                cell.crb += float(bound[s])
                cell.zp += float(ref[s])
                cell.included += 1
    total = plan.n_channels * plan.n_trials
    for cell in cells:
        if cell.excluded / total >= EXCLUSION_BUDGET:
            raise ExclusionBudgetExceeded(
                f"{cell.excluded} of {total} trials excluded at {cell.snr_db} dB"
            )
    return [
        ResultRecord(
            snr_db=float(cell.snr_db),
            crb_avg=cell.crb / cell.included,
            mse_avg=cell.mse / cell.included,
            crb_zp_ref_avg=(
                cell.zp / cell.included if plan.compute_zp_reference else None
            ),
            n_blocks=config.N,
            redundancy_kind=config.redundancy_kind,
            inner_kind=config.inner_kind,
            seed=plan.master_seed,
            excluded_trials=cell.excluded,
        )
        for cell in cells
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
