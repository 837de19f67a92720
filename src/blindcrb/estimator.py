"""Blind subspace channel estimator for redundant block transmission.

The received frame is cut into overlapping windows of window_blocks
consecutive blocks (unit stride). Each window z(n) obeys the same linear
model as a short frame, z(n) = K_w s_w(n) + noise, with
K_w = G H (I_w kron F) of full column rank wM. The sample covariance of
the windows therefore splits into a rank-wM signal subspace plus a noise
subspace of dimension (w-1)L, fixed from the model, never from eigenvalue
gaps.

A noise eigenvector u satisfies u^H K_w = u^H G H (I_w kron F) = 0, and
through the Hankel rearrangement of its zero-padded lift that condition is
linear in the taps: the row u^H G H equals the conjugated Hankel matrix of
the lift applied to h. Because only the product with the block precoder
vanishes, each eigenvector contributes the penalty
|u^H G H(h) (I_w kron F)|^2, a Hankel quadratic form weighted by the
precoder Gram I_w kron F F^H, which the true channel annihilates. The
estimate is the unit-norm minimizer (smallest eigenvector) of the
accumulated penalty Q; it carries the inherent blind scale ambiguity until
resolve_ambiguity pins the anchor tap.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .errors import InsufficientData, SolverDegenerate, ZeroAnchorTap
from .model import Precoder, SystemConfig

# Relative eigenvalue-gap floor below which the minimizer is ambiguous.
DEGENERACY_RTOL = 1e-10

ANCHOR_FLOOR = 1e-12


@dataclass(frozen=True)
class EstimatorSettings:
    """Settings of the subspace estimator.

    window_blocks is the number of consecutive blocks per window (at least
    2, at most the frame's N, checked at use). There is no diagonal load:
    it would shift every eigenvalue equally and leave the estimate as is.
    """

    window_blocks: int = 2

    def __post_init__(self):
        if self.window_blocks < 2:
            raise ValueError(
                f"need at least 2 blocks per window, got {self.window_blocks}"
            )


@dataclass(frozen=True, eq=False)
class ChannelEstimate:
    """Estimated taps h_hat (length L+1). subspace_estimate returns them
    up to the blind complex scale; resolve_ambiguity fixes that scale."""

    h_hat: np.ndarray


def hankel_rearrange(U: np.ndarray, P: int, L: int) -> np.ndarray:
    """Hankel rearrangement of the zero-padded columns of U.

    U has wP - L rows for a whole number w >= 1 of blocks of P samples.
    Its columns are padded with L zero rows top and bottom (the lift
    G^H U), and column j becomes the wP x (L+1) Hankel matrix with
    constant anti-diagonals. Returns the wP x (L+1) x n stack with entry
    [r, c, j] = pad(U)[r + c, j].
    """
    U = np.asarray(U, dtype=np.complex128)
    rows = U.shape[0] + L  # Hankel row count, wP
    w, rem = divmod(rows, P)
    if rem != 0 or w < 1:
        raise ValueError(
            f"basis rows {U.shape[0]} do not match whole blocks of {P}"
        )
    padded = np.zeros((rows + L, U.shape[1]), dtype=np.complex128)
    padded[L: L + U.shape[0]] = U
    idx = np.arange(rows)[:, None] + np.arange(L + 1)[None, :]
    return padded[idx, :]


def channel_from_noise_subspace(
    noise_basis: np.ndarray, F: np.ndarray, L: int
) -> np.ndarray:
    """Channel direction from vectors (approximately) orthogonal to the
    window signal subspace.

    noise_basis has the window dimension wP - L as row count, with P taken
    from the composite precoder F (P x M); columns need not be orthonormal,
    only to span the noise subspace. Returns the unit-norm smallest
    eigenvector of the accumulated precoder-weighted Hankel penalty.
    """
    noise_basis = np.asarray(noise_basis, dtype=np.complex128)
    F = np.asarray(F, dtype=np.complex128)
    if noise_basis.ndim != 2 or noise_basis.shape[1] == 0:
        raise InsufficientData("noise subspace is empty")
    P, M = F.shape
    hankels = hankel_rearrange(noise_basis, P, L)
    w = hankels.shape[0] // P
    n_vecs = noise_basis.shape[1]
    # Fold the precoder in: (I_w kron F^H) applied down each Hankel column
    # turns the penalty into sum over vectors of |u^H G H(h) (I kron F)|^2.
    blocks = hankels.reshape(w, P, (L + 1) * n_vecs)
    folded = (F.conj().T @ blocks).reshape(w * M, L + 1, n_vecs)
    Q = np.einsum("mak,mbk->ab", folded, folded.conj())
    vals, vecs = np.linalg.eigh(Q)
    scale = max(vals[-1], 0.0)
    if vals[1] - vals[0] <= DEGENERACY_RTOL * max(scale, 1e-300):
        raise SolverDegenerate(
            "penalty spectrum has no isolated minimum "
            f"(two smallest eigenvalues {vals[0]:.3e}, {vals[1]:.3e})"
        )
    return vecs[:, 0]


def subspace_estimate(
    yN: np.ndarray,
    config: SystemConfig,
    precoder: Precoder,
    settings: EstimatorSettings = EstimatorSettings(),
) -> ChannelEstimate:
    """Estimate the channel direction from one received frame.

    Returns an unresolved ChannelEstimate; apply resolve_ambiguity with a
    known anchor tap to fix the blind scale. Raises InsufficientData when
    the frame cannot supply the required windows and SolverDegenerate when
    the penalty minimizer is not isolated.

    The noise subspace is well defined only when the N - w + 1 windows
    can span the wM-dimensional signal subspace, N - w + 1 >= wM. With
    fewer windows the sample covariance has a degenerate zero eigenspace,
    the kept eigenvectors are chosen by rounding, and the estimate is not
    reproducible under one-ulp changes of yN. This is not checked.
    """
    yN = np.asarray(yN, dtype=np.complex128)
    M, L, N, P = config.M, config.L, config.N, config.P
    if yN.shape != (N * P - L,):
        raise ValueError(f"expected {N * P - L} samples, got shape {yN.shape}")
    w = settings.window_blocks
    if w > N:
        raise InsufficientData(f"windows of {w} blocks do not fit in {N} blocks")
    dim = w * P - L
    n_windows = N - w + 1
    Z = np.empty((dim, n_windows), dtype=np.complex128)
    for n in range(n_windows):
        Z[:, n] = yN[n * P: n * P + dim]
    cov = Z @ Z.conj().T / n_windows
    if np.real(np.trace(cov)) <= 0:
        raise InsufficientData("sample covariance carries no energy")
    n_noise = (w - 1) * L  # dim minus the model rank wM
    _, vecs = np.linalg.eigh(cov)
    h_hat = channel_from_noise_subspace(vecs[:, :n_noise], precoder.F, L)
    return ChannelEstimate(h_hat=h_hat)


def resolve_ambiguity(estimate: ChannelEstimate, d: int, hd0: complex) -> ChannelEstimate:
    """Rescale an estimate so its anchor tap equals the known value hd0.

    Raises ZeroAnchorTap when the estimated anchor tap is below 1e-12 in
    magnitude. The returned estimate has h_hat[d] == hd0 exactly.
    """
    h = np.asarray(estimate.h_hat, dtype=np.complex128)
    if not 0 <= d < h.size:
        raise ValueError(f"anchor index {d} outside 0..{h.size - 1}")
    if abs(h[d]) < ANCHOR_FLOOR:
        raise ZeroAnchorTap(
            f"estimated anchor tap magnitude {abs(h[d]):.3e} below {ANCHOR_FLOOR:g}"
        )
    scaled = (hd0 / h[d]) * h
    scaled[d] = hd0  # exact, not up to rounding of the division
    return ChannelEstimate(h_hat=scaled)
