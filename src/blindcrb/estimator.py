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

Batches: subspace_estimate, channel_from_noise_subspace,
resolve_ambiguity and hankel_rearrange take one item or a stack of them
along leading axes, and run each numpy step once for the whole stack;
numpy's stacked matmul, einsum and eigh do on each member what they do on
one item, so a member's result does not depend on the stack it came in. A
numerical failure of one member (a frame without energy, a penalty
without an isolated minimum, an anchor tap too small or not finite)
makes that member's taps NaN and leaves the others; a failure of the
whole batch (a bad shape, windows wider than the frame) raises. Given a
single item, each raises the typed error it always has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import InsufficientData, SolverDegenerate, ZeroAnchorTap
from .model import Precoder

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


def hankel_rearrange(U: np.ndarray, P: int, L: int) -> np.ndarray:
    """Hankel rearrangement of the zero-padded columns of U.

    U is (..., wP - L, n): wP - L rows for a whole number w >= 1 of blocks
    of P samples. Its columns are padded with L zero rows top and bottom
    (the lift G^H U), and column j becomes the wP x (L+1) Hankel matrix
    with constant anti-diagonals. Returns the (..., wP, L+1, n) stack with
    entry [..., r, c, j] = pad(U)[..., r + c, j].
    """
    U = np.asarray(U, dtype=np.complex128)
    rows = U.shape[-2] + L  # Hankel row count, wP
    w, rem = divmod(rows, P)
    if rem != 0 or w < 1:
        raise ValueError(
            f"basis rows {U.shape[-2]} do not match whole blocks of {P}"
        )
    padded = np.zeros(U.shape[:-2] + (rows + L, U.shape[-1]), dtype=np.complex128)
    padded[..., L: L + U.shape[-2], :] = U
    idx = np.arange(rows)[:, None] + np.arange(L + 1)[None, :]
    return padded[..., idx, :]


def channel_from_noise_subspace(
    noise_basis: np.ndarray, F: np.ndarray, L: int
) -> np.ndarray:
    """Channel direction from vectors (approximately) orthogonal to the
    window signal subspace.

    noise_basis is (wP - L, n) or a stack (..., wP - L, n), with P taken
    from the composite precoder F (P x M); columns need not be
    orthonormal, only to span the noise subspace. Returns the unit-norm
    smallest eigenvector of the accumulated precoder-weighted Hankel
    penalty, (L+1,) or (..., L+1). A basis whose penalty has no isolated
    minimum raises SolverDegenerate, or gives a NaN row in a stack.
    """
    noise_basis = np.asarray(noise_basis, dtype=np.complex128)
    F = np.asarray(F, dtype=np.complex128)
    if noise_basis.ndim < 2 or noise_basis.shape[-1] == 0:
        raise InsufficientData("noise subspace is empty")
    P, M = F.shape
    batch = noise_basis.shape[:-2]
    hankels = hankel_rearrange(noise_basis, P, L)
    w = hankels.shape[-3] // P
    n_vecs = noise_basis.shape[-1]
    # Fold the precoder in: (I_w kron F^H) applied down each Hankel column
    # turns the penalty into sum over vectors of |u^H G H(h) (I kron F)|^2.
    blocks = hankels.reshape(batch + (w, P, (L + 1) * n_vecs))
    folded = (F.conj().T @ blocks).reshape(batch + (w * M, L + 1, n_vecs))
    Q = np.einsum("...mak,...mbk->...ab", folded, folded.conj())
    vals, vecs = np.linalg.eigh(Q)
    scale = np.maximum(vals[..., -1], 1e-300)
    degenerate = vals[..., 1] - vals[..., 0] <= DEGENERACY_RTOL * scale
    if not batch and degenerate:
        raise SolverDegenerate(
            "penalty spectrum has no isolated minimum "
            f"(two smallest eigenvalues {vals[0]:.3e}, {vals[1]:.3e})"
        )
    h = vecs[..., 0]
    h[degenerate] = np.nan
    return h


def subspace_estimate(
    yN: np.ndarray,
    precoder: Precoder,
    settings: EstimatorSettings = EstimatorSettings(),
) -> np.ndarray:
    """Estimate the channel direction from one received frame, or from
    each frame of an (S, NP - L) stack.

    N is read off the frame length NP - L. Returns the L+1 taps up to the
    blind complex scale, (L+1,) or (S, L+1); resolve_ambiguity with a
    known anchor tap fixes it. Raises InsufficientData when the frame
    cannot supply the required windows. A frame whose sample covariance
    carries no energy raises InsufficientData and one whose penalty
    minimizer is not isolated raises SolverDegenerate; in a stack, either
    makes that frame's row NaN instead.

    The noise subspace is well defined only when the N - w + 1 windows
    can span the wM-dimensional signal subspace, N - w + 1 >= wM. With
    fewer windows the sample covariance has a degenerate zero eigenspace,
    the kept eigenvectors are chosen by rounding, and the estimate is not
    reproducible under one-ulp changes of yN. This is not checked.
    """
    yN = np.asarray(yN, dtype=np.complex128)
    P, M = precoder.F.shape
    L = P - M
    if yN.ndim not in (1, 2) or (yN.shape[-1] + L) % P != 0:
        raise ValueError(f"expected NP - L samples for a whole N, got shape {yN.shape}")
    N = (yN.shape[-1] + L) // P
    w = settings.window_blocks
    if w > N:
        raise InsufficientData(f"windows of {w} blocks do not fit in {N} blocks")
    dim = w * P - L
    n_windows = N - w + 1
    # Column n of a frame's Z is its window yN[nP: nP + dim].
    Z = yN[..., np.arange(dim)[:, None] + P * np.arange(n_windows)]
    cov = Z @ Z.conj().swapaxes(-1, -2) / n_windows
    silent = ~(np.real(np.trace(cov, axis1=-2, axis2=-1)) > 0)
    if yN.ndim == 1 and silent:
        raise InsufficientData("sample covariance carries no energy")
    cov[silent] = 0.0  # a NaN frame would fail the eigh of the whole stack
    n_noise = (w - 1) * L  # dim minus the model rank wM
    _, vecs = np.linalg.eigh(cov)
    h = channel_from_noise_subspace(vecs[..., :n_noise], precoder.F, L)
    h[silent] = np.nan
    return h


def resolve_ambiguity(h_hat: np.ndarray, d: int, hd0: complex) -> np.ndarray:
    """Rescale estimated taps so the anchor tap equals the known value hd0.

    h_hat is (L+1,) or a stack (..., L+1). Given one row, raises
    ZeroAnchorTap when its anchor tap is below 1e-12 in magnitude or not
    finite; in a stack, such a row comes back NaN. The returned taps have
    [..., d] == hd0 exactly.
    """
    h = np.asarray(h_hat, dtype=np.complex128)
    if not 0 <= d < h.shape[-1]:
        raise ValueError(f"anchor index {d} outside 0..{h.shape[-1] - 1}")
    anchor = h[..., d]
    mag = np.abs(anchor)
    if h.ndim == 1 and not math.isfinite(mag):
        raise ZeroAnchorTap(f"estimated anchor tap {anchor} is not finite")
    if h.ndim == 1 and mag < ANCHOR_FLOOR:
        raise ZeroAnchorTap(
            f"estimated anchor tap magnitude {mag:.3e} below {ANCHOR_FLOOR:g}"
        )
    failed = ~(np.isfinite(mag) & (mag >= ANCHOR_FLOOR))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (hd0 / anchor)[..., None] * h
    scaled[..., d] = hd0  # exact, not up to rounding of the division
    scaled[failed] = np.nan
    return scaled
