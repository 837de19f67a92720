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

Loop order: channel, then trial, then SNR point in ascending order. What
does not depend on the noise level is computed once per (channel, trial)
and shared by every SNR point: the channel, the frame, the noiseless
received frame, the unit noise draw, and the bound's reduced information
with the noise factored out, D0 (and the zero-padding reference's D0 when
the plan asks for it). Per SNR point three steps remain: y = clean +
sqrt(sigma2/2) * noise, the estimator with resolve_ambiguity, and the
inversion of D0 / sigma2. These are the floating-point operations of a
cell-by-cell run, so a cell's record does not depend on which other
cells run with it.

SNR convention: symbols have unit power and channels unit norm, so
snr_db = 10 log10(1 / sigma2).

Randomness is reproducible: a master seed fans out through
numpy SeedSequence([master_seed, stream, indices...]) with stream tags
0 = channel draw (per channel index), 1 = symbol frame and 2 = noise
(per channel and trial index). Trials that raise a NumericalError are
excluded and counted per cell: a failure of D0 (a rank-deficient K, an
ill-conditioned zero-padding symbol block) excludes the trial from every
cell, a failure of the estimator or of the inversion from its own cell
only. Once every trial has run, the cells are checked in ascending SNR
order and the first whose exclusions reach 1% of its trials fails.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
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
    """One experiment: a configuration template swept over an SNR grid.

    The template's sigma2 is never read: each cell sets sigma2 from its
    SNR point. The grid must be nonempty and strictly increasing.
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
        object.__setattr__(self, "snr_db_grid", grid)
        if self.n_channels < 1 or self.n_trials < 1:
            raise ValueError("need at least one channel and one trial per cell")
        if self.master_seed < 0:
            raise ValueError("master seed must be nonnegative")
        if self.compute_zp_reference and self.config.redundancy_kind != "zp":
            raise ValueError("the per-block reference bound applies to zero padding only")


@dataclass(frozen=True)
class ResultRecord:
    """Averaged outcome of one (SNR, configuration) cell."""

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
        if not self.crb_avg > 0:
            raise ValueError(f"crb_avg must be positive, got {self.crb_avg}")
        if self.mse_avg < 0:
            raise ValueError(f"mse_avg must be nonnegative, got {self.mse_avg}")


def run_cell(plan: ExperimentPlan, snr_db: float, estimate_fn=None) -> ResultRecord:
    """Run every trial of one SNR cell and average.

    estimate_fn replaces the subspace estimator when given (for oracle
    tests); it receives (yN, config, precoder, settings) and returns an
    unresolved ChannelEstimate.
    """
    return _run_grid(plan, (snr_db,), estimate_fn)[0]


def run_experiment(plan: ExperimentPlan, estimate_fn=None) -> list:
    """Run every cell of the plan; one record per SNR point, ascending.

    Each (channel, trial) is drawn and its bound information computed
    once, then evaluated at every SNR point, so estimate_fn is called in
    the order channel i, trial j, SNR point s: call number
    (i * n_trials + j) * len(grid) + s, with the config of that point
    (its sigma2 set from the grid). A trial whose bound information
    raises makes no estimator calls. Each record equals
    run_cell(plan, snr_db, estimate_fn) for its point.
    """
    return _run_grid(plan, plan.snr_db_grid, estimate_fn)


@dataclass
class _Cell:
    """Running sums of one SNR point."""

    snr_db: float
    config: SystemConfig
    mse: float = 0.0
    crb: float = 0.0
    zp: float = 0.0
    included: int = 0
    excluded: int = 0


def _run_grid(plan: ExperimentPlan, grid, estimate_fn) -> list:
    """One record per SNR point of grid, in the loop order of the module
    docstring."""
    if estimate_fn is None:
        estimate_fn = subspace_estimate
    config = plan.config
    precoder = make_precoder(config)
    cells = [_Cell(s, replace(config, sigma2=sigma2_from_snr_db(s))) for s in grid]
    for i in range(plan.n_channels):
        channel = draw_channel(
            config.L, _stream_rng(plan.master_seed, _STREAM_CHANNEL, i)
        )
        h, d = channel.h, channel.d
        for j in range(plan.n_trials):
            sN = generate_symbols(
                "qpsk",
                config.M,
                config.N,
                _stream_rng(plan.master_seed, _STREAM_SYMBOLS, i, j),
            ).sN
            clean = synthesize_observation(
                config, precoder, h, sN, None, sigma2=0.0
            ).yN
            noise = draw_noise(
                clean.size, _stream_rng(plan.master_seed, _STREAM_NOISE, i, j)
            )
            try:
                D0 = fast_information(h, sN, precoder, config.N)
                if plan.compute_zp_reference:
                    D0_zp = zp_information(h, sN, precoder.Ftilde)
            except NumericalError:
                for cell in cells:
                    cell.excluded += 1
                continue
            for cell in cells:
                sigma2 = cell.config.sigma2
                yN = clean + np.sqrt(sigma2 / 2) * noise
                try:
                    est = estimate_fn(
                        yN, cell.config, precoder, plan.estimator_settings
                    )
                    est = resolve_ambiguity(est, d, h[d])
                    bound = _invert_reduced(D0 / sigma2, d, "fast")
                    if plan.compute_zp_reference:
                        ref = _invert_reduced(D0_zp / sigma2, d, "zp_per_block")
                        cell.zp += ref.trace
                except NumericalError:
                    cell.excluded += 1
                    continue
                cell.mse += float(np.sum(np.abs(est.h_hat - h) ** 2))
                cell.crb += bound.trace
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
