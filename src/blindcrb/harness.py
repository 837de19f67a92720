"""Monte Carlo comparison of the subspace estimator against the bound.

Protocol per cell (one SNR point): draw n_channels unit-norm channels; for
each channel run n_trials independent trials drawing a fresh QPSK frame and
noise realization. Every trial estimates the channel blindly, resolves the
scale against the true anchor tap, and accumulates the squared error; the
bound trace is evaluated at the same (channel, frame, anchor) via the fast
route. Averages over all included trials give mse_avg and crb_avg.

SNR convention: symbols have unit power and channels unit norm, so
snr_db = 10 log10(1 / sigma2).

Randomness is reproducible: a master seed fans out through
numpy SeedSequence([master_seed, stream, indices...]) with stream tags
0 = channel draw (per channel index), 1 = symbol frame and 2 = noise
(per channel and trial index). Trials that raise a NumericalError are
excluded and counted; a cell fails outright when exclusions reach 1% of
its trials.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field, replace
import numpy as np

from .crb_blind import crb_fast, crb_zp_per_block, default_anchor
from .errors import ExclusionBudgetExceeded, NumericalError
from .estimator import EstimatorSettings, subspace_estimate, resolve_ambiguity
from .model import (
    Channel,
    SystemConfig,
    _as_rng,
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

    The template's sigma2 is replaced per cell from the grid. The grid
    must be nonempty and strictly increasing.
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
    sigma2 = sigma2_from_snr_db(snr_db)
    config = replace(plan.config, sigma2=sigma2)
    precoder = make_precoder(config)
    if estimate_fn is None:
        estimate_fn = subspace_estimate
    mse_sum = 0.0
    crb_sum = 0.0
    zp_sum = 0.0
    included = 0
    excluded = 0
    for i in range(plan.n_channels):
        channel = draw_channel(
            config.L, _stream_rng(plan.master_seed, _STREAM_CHANNEL, i)
        )
        for j in range(plan.n_trials):
            frame = generate_symbols(
                "qpsk",
                config.M,
                config.N,
                _stream_rng(plan.master_seed, _STREAM_SYMBOLS, i, j),
            )
            obs = synthesize_observation(
                config,
                precoder,
                channel.h,
                frame.sN,
                _stream_rng(plan.master_seed, _STREAM_NOISE, i, j),
            )
            try:
                est = estimate_fn(
                    obs.yN, config, precoder, plan.estimator_settings
                )
                est = resolve_ambiguity(est, channel.d, channel.hd0)
                bound = crb_fast(
                    channel.h, frame.sN, precoder, channel.d, sigma2, config.N
                )
                if plan.compute_zp_reference:
                    ref = crb_zp_per_block(
                        channel.h,
                        frame.sN,
                        precoder.Ftilde,
                        channel.d,
                        sigma2,
                        config.M,
                        config.L,
                        config.N,
                    )
                    zp_sum += ref.trace
            except NumericalError:
                excluded += 1
                continue
            mse_sum += float(np.sum(np.abs(est.h_hat - channel.h) ** 2))
            crb_sum += bound.trace
            included += 1
    total = plan.n_channels * plan.n_trials
    if excluded / total >= EXCLUSION_BUDGET:
        raise ExclusionBudgetExceeded(
            f"{excluded} of {total} trials excluded at {snr_db} dB"
        )
    return ResultRecord(
        snr_db=float(snr_db),
        crb_avg=crb_sum / included,
        mse_avg=mse_sum / included,
        crb_zp_ref_avg=(zp_sum / included) if plan.compute_zp_reference else None,
        n_blocks=config.N,
        redundancy_kind=config.redundancy_kind,
        inner_kind=config.inner_kind,
        seed=plan.master_seed,
        excluded_trials=excluded,
    )


def run_experiment(plan: ExperimentPlan, estimate_fn=None) -> list:
    """Run every cell of the plan in ascending SNR order."""
    return [run_cell(plan, snr_db, estimate_fn) for snr_db in plan.snr_db_grid]


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
