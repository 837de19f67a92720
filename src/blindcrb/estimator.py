"""Blind subspace channel estimator for redundant block transmission.

The received frame is cut into overlapping windows of window_blocks
consecutive blocks (unit stride), once, as a strided view of the frame
that both routes below start from. Each window z(n) obeys the same linear
model as a short frame, z(n) = K_w s_w(n) + noise, with
K_w = G H (I_w kron F) of full column rank wM. The sample covariance of
the windows therefore splits into a rank-wM signal subspace plus a noise
subspace of dimension (w-1)L, fixed from the model, never from eigenvalue
gaps. At the identifiability border, N - w + 1 = wM windows, the windows
span exactly wM dimensions, the covariance is singular, and its noise
subspace is the complement of the windows' span: the estimator takes it
there from the Householder reflectors of one QR of the windows, applied
to the (w-1)L unit vectors past the windows' rank, forming neither Q nor
R, and from the eigh at every other N. Whether a frame can be used is
decided once, before either route, by the package's one rule
(model._usable): every sample finite and one nonzero; the windows are
cut from the frames it hands back, a failed one zeroed. At the border
the QR's |diag R| is also a rank gate: a frame whose windows have rank
below wM, which leaves the complement wider than the noise subspace, is
refused as an unusable one is. The covariance route copies the windows'
view once, in the np.ldexp that scales it by the power of two putting
the frame's peak in [0.5, 1), as crb_blind scales the taps: an exact
scaling that changes no rounding, so a frame's size neither overflows
nor underflows Z Z^H.
_on_border decides the route, and _frame_bytes counts each route's
working set per frame for the harness's chunks.

A noise eigenvector u satisfies u^H K_w(h) = 0, and K_w(h) is linear in
the taps: K_w(h) = sum_l h_l K_{w,l} with the model's per-tap factors for
a w-block frame (model.build_K's K_l). So u^H K_w(h) = sum_l h_l
u^H K_{w,l}, and with row l of A the vector (K_{w,l}^H u)^T, each
eigenvector contributes the penalty |u^H K_w(h)|^2 = h^H A A^H h, which
the true channel annihilates. The estimate is the unit-norm minimizer
(smallest eigenvector) of the accumulated penalty Q = sum over u of
A A^H; it carries the inherent blind scale ambiguity until
resolve_ambiguity pins the anchor tap.

Batches: subspace_estimate and resolve_ambiguity take one item or a
stack of them along leading axes, and run each numpy step once for the
whole stack; numpy's stacked matmul, qr and eigh do on each member what
they do on one item, so a member's result does not depend on the stack
it came in. A numerical failure of one member (a frame with an entry
that is not finite or without a nonzero entry, a frame whose penalty has
no isolated minimum, an anchor tap too small or not finite) makes that
member's taps NaN and leaves the others; a failure of the whole batch
(a bad shape, windows wider than the frame) raises. Given a single item,
each raises the typed error it always has.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .crb_core import COND_LIMIT, RANK_RTOL
from .errors import InsufficientData, SolverDegenerate, ZeroAnchorTap
from .model import Precoder, _anchor_mask, _require_integers, _tap_factors, _usable


@dataclass(frozen=True)
class EstimatorSettings:
    """Settings of the subspace estimator.

    window_blocks is the number of consecutive blocks per window (at least
    2, at most the frame's N, checked at use). There is no diagonal load:
    it would shift every eigenvalue equally and leave the estimate as is.
    """

    window_blocks: int = 2

    def __post_init__(self):
        _require_integers(window_blocks=self.window_blocks)
        if self.window_blocks < 2:
            raise ValueError(
                f"need at least 2 blocks per window, got {self.window_blocks}"
            )


def _penalty_minimum(basis: np.ndarray, F: np.ndarray, L: int, w: int) -> np.ndarray:
    """Channel direction from a noise basis of w-block windows, (wP - L, n)
    or a stack (..., wP - L, n), with P taken from the composite precoder
    F (P x M): the unit-norm smallest eigenvector of Q, (L+1,) or
    (..., L+1), where h^H Q h is the sum over the basis vectors u of
    |u^H K_w(h)|^2. The basis must be nonempty and finite, and sized so
    that its penalty neither overflows nor underflows, as
    subspace_estimate's orthonormal bases are. A penalty with no isolated
    minimum raises SolverDegenerate, or gives a NaN row in a stack."""
    P, M = F.shape
    batch = basis.shape[:-2]
    # Row l of A holds K_l^H u for every noise vector u, so
    # h^H Q h = sum over u of |u^H K_w(h)|^2.
    KH = np.concatenate([f[L: w * P].conj().T for f in _tap_factors(F, L, w)])
    A = (KH @ basis).reshape(batch + (L + 1, w * M * basis.shape[-1]))
    Q = A @ A.conj().swapaxes(-1, -2)
    vals, vecs = np.linalg.eigh(Q)
    scale = np.maximum(vals[..., -1], 1e-300)
    degenerate = vals[..., 1] - vals[..., 0] <= RANK_RTOL * scale
    if not batch and degenerate:
        raise SolverDegenerate(
            "penalty spectrum has no isolated minimum "
            f"(two smallest eigenvalues {vals[0]:.3e}, {vals[1]:.3e})"
        )
    h = vecs[..., 0]
    h[degenerate] = np.nan
    return h


def _complement(W: np.ndarray):
    """Orthonormal basis of the complement of the span of the k rows of a
    k x dim matrix W of rank k < dim, or of each member of a stack: the
    last dim - k columns of the complete Q of W^T, (..., dim, dim - k).
    They are Q e_k .. Q e_(dim-1), taken by applying the k Householder
    reflectors of W^T's QR, last to first, to those unit vectors, so that
    neither Q nor R is formed (Golub & Van Loan, Matrix Computations,
    5.1.6). A zero member has zero reflectors and gets the unit vectors.
    qr's copy of W keeps W's memory order, so when each member's rows are
    contiguous and in order, as in a view of a C-ordered stack, every step
    takes the same strides for a member as for it alone, and the member
    gets the same bytes. Returns the basis and each member's smallest and
    largest |diag R|, low and high, for the rank gate: a member whose rows
    have rank below k has low <= RANK_RTOL * high, and its basis is not
    the complement."""
    h, tau = np.linalg.qr(W.swapaxes(-1, -2), mode="raw")
    k, dim = h.shape[-2:]
    # Row i of h holds R's diagonal entry i, then reflector i's vector v_i
    # past its unit entry i.
    diag = np.abs(h[..., range(k), range(k)])
    h[..., range(k), range(k)] = 1
    # Row j of X is the basis vector that starts as e_(k+j).
    X = np.zeros(h.shape[:-2] + (dim - k, dim), np.complex128)
    X[..., range(dim - k), range(k, dim)] = 1
    for i in range(k - 1, -1, -1):
        # I - tau_i v_i v_i^H; v_i and the rows' entries before i are zero
        v = h[..., i, None, i:]
        rows = X[..., i:]
        rows -= (rows @ (tau[..., i, None, None] * v.conj()).swapaxes(-1, -2)) * v
    return X.swapaxes(-1, -2), diag.min(axis=-1), diag.max(axis=-1)


def _on_border(M: int, N: int, w: int) -> bool:
    """Whether N blocks give exactly wM windows of w blocks, the
    identifiability border, where the noise basis is the complement of the
    windows' span (_complement) and not the covariance's eigenvectors."""
    return N - w + 1 == w * M


def _frame_bytes(P: int, M: int, N: int, w: int) -> int:
    """Bytes that subspace_estimate holds per frame of a stack at once,
    beyond the frame itself, for frames of N blocks of P samples and
    w-block windows of dim = wP - L samples, n = N - w + 1 of them. The
    windows are a view of the frames. Off the border, a frame takes
    16 (2 dim n + 3 dim^2): the copy of its windows and their conjugate,
    and the covariance, its eigenvectors and the eigh workspace. At the
    border, n = wM and a frame takes
    16 (dim wM + (w-1)L (dim + 2 (L+1) wM)): qr's copy of the windows,
    the (w-1)L basis vectors, and the penalty's (L+1) x wM(w-1)L matrix A
    with its conjugate. The sum over-counts, since qr's copy is freed
    before A is made."""
    L = P - M
    dim, n = w * P - L, N - w + 1
    if _on_border(M, N, w):
        return 16 * (dim * n + (w - 1) * L * (dim + 2 * (L + 1) * n))
    return 16 * (2 * dim * n + 3 * dim * dim)


def subspace_estimate(
    yN: np.ndarray,
    precoder: Precoder,
    settings: EstimatorSettings = EstimatorSettings(),
) -> np.ndarray:
    """Estimate the channel direction from one received frame, or from
    each frame of a (..., NP - L) stack.

    N is read off the frame length NP - L. Returns the L+1 taps up to the
    blind complex scale, (L+1,) or (..., L+1); resolve_ambiguity with a
    known anchor tap fixes it. Raises InsufficientData when the frame
    cannot supply the required windows. A frame is usable when every
    sample is finite and one is nonzero, on either route; one that is not
    raises InsufficientData, as does a frame at the border whose windows
    have rank below wM, and one whose penalty minimizer is not isolated
    raises SolverDegenerate; in a stack, each makes that frame's row NaN
    instead.

    The noise subspace is well defined only when the N - w + 1 windows
    can span the wM-dimensional signal subspace, N - w + 1 >= wM. At
    equality it is the orthogonal complement of the windows' span, the
    last (w-1)L columns of the complete Q of the dim x wM window matrix
    Z, which this takes without forming the covariance, Q or R: it
    applies the wM Householder reflectors of Z's QR to those columns'
    unit vectors. Working on Z itself, its rounding error grows with
    cond(Z), not cond(Z)^2. The rank gate reads |diag R| of that QR
    against RANK_RTOL. Both routes read Z from one strided view of
    the frames, which the QR copies. Above the border the noise subspace
    is the bottom (w-1)L eigenvectors of the covariance
    Z Z^H / (N - w + 1), formed from one C-ordered copy of the view,
    which one np.ldexp makes while scaling it by the power of two that
    puts the frame's peak in [0.5, 1): an exact scaling, so no frame is
    too large or too small for the product. With fewer windows the
    covariance has a degenerate zero eigenspace, the kept eigenvectors
    are chosen by rounding, and the estimate is not reproducible under
    one-ulp changes of yN. This is not checked.
    """
    yN = np.asarray(yN, dtype=np.complex128, order="C")
    P, M = precoder.F.shape
    L = P - M
    if yN.ndim == 0 or (yN.shape[-1] + L) % P != 0:
        raise ValueError(f"expected NP - L samples for a whole N, got shape {yN.shape}")
    N = (yN.shape[-1] + L) // P
    w = settings.window_blocks
    if w > N:
        raise InsufficientData(f"windows of {w} blocks do not fit in {N} blocks")
    dim = w * P - L
    n_noise = (w - 1) * L  # dim minus the model rank wM
    # One rule for both routes: the windows are cut from the frames _usable
    # returns, a failed one zeroed, and its row comes back NaN. A single
    # frame's message reads yN, since a zeroed frame hides why it failed.
    ok, exponent, frames = _usable(yN)
    failed = ~ok
    if yN.ndim == 1 and failed:
        raise InsufficientData(
            "frame carries no energy"
            if _usable(yN, allow_zero=True)[0]
            else "frame has samples that are not finite"
        )
    if n_noise == 0:
        raise InsufficientData("noise subspace is empty")
    # Row n of a frame's windows is the view frames[nP: nP + dim].
    windows = np.lib.stride_tricks.sliding_window_view(frames, dim, axis=-1)[..., ::P, :]
    if _on_border(M, N, w):
        noise, low, high = _complement(windows)
        # Windows of rank below wM leave more than (w-1)L dimensions
        # unspanned, and the basis is not the noise subspace.
        deficient = low <= RANK_RTOL * high
        if yN.ndim == 1 and deficient:
            raise InsufficientData(
                f"windows are rank-deficient (diag ratio {low:.3e} / {high:.3e})"
            )
        failed |= deficient
    else:
        # Column n of a frame's Z is its window n times the power of two that
        # puts the frame's peak in [0.5, 1), which changes no rounding and
        # keeps Z Z^H from overflowing or underflowing. ldexp's output is a
        # fresh C-ordered copy, so each frame's windows stay contiguous.
        Z = np.ldexp(windows.view(np.float64), -exponent[..., None, None], order="C")
        Z = Z.view(np.complex128).swapaxes(-1, -2)
        cov = Z @ Z.conj().swapaxes(-1, -2)
        cov /= N - w + 1
        del Z  # the windows are the largest array; the eigh does not need them
        noise = np.linalg.eigh(cov)[1][..., :n_noise]
    # Both routes give orthonormal bases, zeroed frames included.
    h = _penalty_minimum(noise, precoder.F, L, w)
    h[failed] = np.nan
    return h


def resolve_ambiguity(h_hat: np.ndarray, d, hd0) -> np.ndarray:
    """Rescale estimated taps so the anchor tap equals the known value hd0.

    h_hat is (L+1,) or a stack (..., L+1). d is the anchor index and hd0
    its known value, each a scalar or an array broadcast over the stack's
    leading axes, one anchor per row. Given one row, raises ZeroAnchorTap
    when its anchor tap is not finite or, in magnitude, below the row's
    norm over COND_LIMIT, the package's one singular-value floor (a row
    with a tap that is not finite has no finite floor, so it fails too);
    in a stack, such a row comes back NaN. The floor is relative, so a
    row times a power of two resolves to the same taps. The returned taps
    have [..., d] == hd0 exactly.
    """
    h = np.asarray(h_hat, dtype=np.complex128)
    at = np.broadcast_to(_anchor_mask(d, h.shape[-1]), h.shape)
    anchor = h[at].reshape(h.shape[:-1])
    mag = np.abs(anchor)
    # hypot, unlike a sum of squares, neither overflows on huge taps nor
    # warns on taps that are not finite
    floor = np.hypot.reduce(np.abs(h), axis=-1) / COND_LIMIT
    if h.ndim == 1 and not math.isfinite(mag):
        raise ZeroAnchorTap(f"estimated anchor tap {anchor} is not finite")
    if h.ndim == 1 and not mag >= floor:
        raise ZeroAnchorTap(f"estimated anchor tap magnitude {mag:.3e} below {floor:.3e}")
    failed = ~(np.isfinite(mag) & (mag >= floor))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (hd0 / anchor)[..., None] * h
    # exact, not up to rounding of the division
    scaled[at] = np.broadcast_to(hd0, h.shape[:-1]).ravel()
    scaled[failed] = np.nan
    return scaled
