"""Cramer-Rao bound for blind channel estimation from one received frame.

The parameter vector stacks the L+1 channel taps and the NM transmitted
symbols; both are unknown to a blind receiver. The model is invariant under
the scalar exchange (h / c, c s_N), so the Fisher information is singular
and the bound is computed under the constraint that one anchor tap h[d] is
known. Two routes to the same L x L bound over the remaining taps:

* crb_direct assembles the Fisher blocks, reduces the symbol block by a
  Schur complement, deletes the anchor row/column, and inverts:
  C = inv(E_d (J00 - J01 inv(J11) J01^H) E_d^H).
* crb_fast rewrites the Schur complement through the left null space of K:
  entry (i, k) of the reduced information D is
  v_i^H (I - K pinv(K)) v_k / sigma2 where v_k = K_k s_N is a lag-k
  window of the transmitted stream x_N = (I_N kron F) s_N, so D is the
  Gram of the windows' coordinates in that null space. _sweep finds them
  by a banded QR that never forms K, from its repeating block T(h) F,
  the tap sum of the model's one-block factors of F. Each of its N steps
  applies a step map, rows of the Q^H of a small window of K, to every
  column at once; the map is refreshed until the window stops changing
  and once more at the last step. Its docstring gives the algorithm and
  its cost.

The noise variance enters the bound as one factor: fast_information and
zp_information return the reduced information with the noise factored
out, D0 = sigma2 D, which depends only on the channel and the frame,
and crb_fast and crb_zp_per_block return sigma2 times the
anchor-reduced inverse of D0 (_invert_reduced), never forming D0 /
sigma2. A caller that sweeps the noise level inverts D0 once, at unit
noise, and scales that bound by sigma2 per level, the same product;
_invert_reduced refuses a product that leaves the float range.
Only crb_direct forms the textbook information with its 1/sigma2
(fim_blocks), so the two routes stay independent. Both D0 functions
take the system's precoder and a batch of T frames sent over one
channel and return T matrices D0. One check, _channel_stack, holds the
taps and frames to the precoder for both and hands the frames back as
whole blocks of M symbols, whose shape gives both every dimension but
L; zp_information also refuses a precoder that is not zero padding. Only
the windows v_k depend on the frame, so one sweep serves the batch: its
step maps, carried rows and rank gate are the channel's, and each map is
applied to the frames' windows side by side. zp_information likewise
takes one QR of its P x M block T(h) Ftilde per batch, the tap sum of the
model's one-block factors of the inner precoder.
Both also take a stack of C channels, (C, L+1) taps with (C, T, NM)
frames, and return (C, T, L+1, L+1): one sweep, or one stacked QR, runs
every channel at once, one stacked product takes the Grams of every
member's coordinates, and each member gets the bytes it would get
alone; _channel_bytes states what the two hold per channel of a stack,
so a caller can size its stacks to a byte budget. A single channel
that fails a gate raises; in a channel stack the failed member comes
back NaN and the others are unchanged. The first
gate is model._usable, the package's one test of an input's entries: a
tap or frame that is not finite, or taps or a frame with no nonzero
entry, raise IllConditioned from crb_direct (through build_K and
fim_blocks), crb_fast and crb_zp_per_block alike. In a batch of frames
a failed frame is a NaN member, for one channel as in a stack, and so
is every frame of a stacked channel whose taps fail. crb_fast and
crb_zp_per_block are batches of one. The same call gives each channel's
taps the power of two that puts their peak in [0.5, 1), and both D0
functions take the taps at that scale: the bound does not see it and
the scaling changes no rounding, so taps near the float maximum or far
below one give the bound of the same taps at unit size. crb_direct
forms J11 from the taps as given.

Both routes reject ill-conditioned inversions instead of returning noise,
so Monte Carlo callers can count and exclude pathological draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .crb_core import _J11, COND_LIMIT, RANK_RTOL, _hermitize
from .errors import IllConditioned, NumericalError, RankDeficient
from .model import Precoder, _anchor_mask, _require_positive_sigma2, _tap_factors, _tap_sum
from .model import _usable

# The sweep switches to its steady-state map once the sign-normalised
# carried K block moves by at most this much, relative to its Frobenius
# norm, from one step to the next; once settled it moves by less than
# 1e-15 (M=12, L=4, cp and zp, 32 channels each).
_STEADY_RTOL = 1e-14

# The matrix whose refused inversion IllConditioned names when the
# anchor-reduced information fails its gate.
_REDUCED = "anchor-reduced information E_d D E_d^H"


def default_anchor(h: np.ndarray) -> int:
    """Anchor tap index: the strongest tap, lowest index on ties."""
    h = np.asarray(h)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("channel taps must form a nonempty 1-D array")
    return int(np.argmax(np.abs(h)))


@dataclass(frozen=True, eq=False)
class FimBlocks:
    """Fisher information of (h, s_N) in block form.

    J00 is (L+1) x (L+1) over the taps, J01 is (L+1) x NM, J11 is NM x NM
    over the symbols; the full matrix is [[J00, J01], [J01^H, J11]].
    """

    J00: np.ndarray
    J01: np.ndarray
    J11: np.ndarray


@dataclass(frozen=True, eq=False)
class CrbResult:
    """An L x L bound over the non-anchor taps.

    C is Hermitian positive semidefinite and trace its (real) trace. From
    a stack of informations, C is the (..., L, L) stack of bounds and
    trace the array of their traces, NaN where the inversion was refused.
    """

    C: np.ndarray
    trace: float | np.ndarray


def fim_blocks(K: np.ndarray, K_list, sN: np.ndarray, sigma2: float) -> FimBlocks:
    """Fisher information blocks for the observation y = K s + noise.

    K must be sum_l h[l] K_list[l]; sN is the symbol frame the information
    is evaluated at. Entries: J00[i,j] = s^H K_i^H K_j s / sigma2,
    J01[i,:] = s^H K_i^H K / sigma2, J11 = K^H K / sigma2. A frame with
    a sample that is not finite raises IllConditioned, as on the fast
    route, and so does a block that leaves the float range (a sigma2 near
    the smallest normal, say), without a warning; an all-zero frame gives
    exact zero tap blocks, which crb_direct refuses at its anchor-reduced
    gate with the same error.
    """
    _require_positive_sigma2(sigma2)
    K = np.asarray(K, dtype=np.complex128)
    sN = np.asarray(sN, dtype=np.complex128)
    if sN.shape != (K.shape[1],):
        raise ValueError(f"expected {K.shape[1]} symbols, got shape {sN.shape}")
    if not _usable(sN, allow_zero=True)[0]:
        raise IllConditioned(_REDUCED, math.inf)
    # Row l holds (K_l s)^T; all blocks derive from it and K.
    W = np.array([Kl @ sN for Kl in K_list])
    with np.errstate(over="ignore", invalid="ignore"):
        J00 = _hermitize((W.conj() @ W.T) / sigma2)
        J01 = (W.conj() @ K) / sigma2
        J11 = _hermitize((K.conj().T @ K) / sigma2)
    if not all(np.isfinite(J).all() for J in (J00, J01, J11)):
        raise IllConditioned(_REDUCED, math.inf)
    return FimBlocks(J00=J00, J01=J01, J11=J11)


def _delete_anchor(D: np.ndarray, d) -> np.ndarray:
    """D without its anchor row and column; d is an int or an integer
    array broadcast over the stack's leading axes, one anchor per member."""
    n = D.shape[-1]
    keep = ~_anchor_mask(d, n)
    keep = np.broadcast_to(keep[..., :, None] & keep[..., None, :], D.shape)
    return D[keep].reshape(D.shape[:-2] + (n - 1, n - 1))


def _conditioned(A: np.ndarray):
    """cond(A) of a matrix or of each matrix of a stack, and whether it is
    below COND_LIMIT. A matrix with a non-finite entry has cond inf: only
    the finite ones go to the SVD, which would fail for the whole stack."""
    finite = np.isfinite(A).all(axis=(-2, -1))
    cond = np.full(finite.shape, np.inf)
    cond[finite] = np.linalg.cond(A[finite])
    return cond, cond < COND_LIMIT


def _invert_reduced(D: np.ndarray, d, sigma2: float = 1.0) -> CrbResult:
    """Delete the anchor row/column of the reduced information, invert,
    and scale the bound and its trace by sigma2.

    D is one (L+1) x (L+1) information, which raises IllConditioned when
    its anchor-reduced part is ill-conditioned, or a (..., L+1, L+1)
    stack, whose ill-conditioned members get a NaN bound and trace. d is
    the anchor index, an int or an integer array broadcast over the
    stack's leading axes. Given the noise-free information D0 and a
    noise variance, this is the bound at that variance: C is sigma2 times
    the bound at unit noise and the trace sigma2 times its trace, the
    product the harness forms per SNR point. The default, 1, leaves the
    bound as inverted. A bound that sigma2 scales out of the float range
    raises NumericalError naming sigma2, or in a stack is NaN, without a
    warning.
    """
    Dd = _delete_anchor(np.asarray(D), d)
    cond, ok = _conditioned(Dd)
    if Dd.ndim == 2 and not ok:
        raise IllConditioned(_REDUCED, float(cond))
    C = np.full(Dd.shape, np.nan, dtype=np.complex128)
    # Only the accepted members: a singular one would fail inv for all.
    C[ok] = _hermitize(np.linalg.inv(Dd[ok]))
    with np.errstate(over="ignore", invalid="ignore"):
        trace = np.real(np.trace(C, axis1=-2, axis2=-1)) * sigma2
        C *= sigma2
    # A bound that sigma2 scales out of the float range is refused.
    scaled_out = ok & ~(np.isfinite(trace) & np.isfinite(C).all(axis=(-2, -1)))
    if Dd.ndim == 2 and scaled_out:
        raise NumericalError(f"the bound at sigma2 = {sigma2!r} leaves the float range")
    C[scaled_out] = np.nan
    trace = np.where(scaled_out, np.nan, trace)
    return CrbResult(C=C, trace=float(trace) if Dd.ndim == 2 else trace)


def _schur_reduce(blocks: FimBlocks) -> np.ndarray:
    """J00 - J01 inv(J11) J01^H, rejecting ill-conditioned symbol blocks."""
    cond, ok = _conditioned(blocks.J11)
    if not ok:
        raise IllConditioned(_J11, float(cond))
    X = np.linalg.solve(blocks.J11, blocks.J01.conj().T)
    return _hermitize(blocks.J00 - blocks.J01 @ X)


def crb_direct(blocks: FimBlocks, d: int) -> CrbResult:
    """Bound over the non-anchor taps via the explicit Schur reduction."""
    return _invert_reduced(_schur_reduce(blocks), d)


def crb_fast(
    h: np.ndarray,
    sN: np.ndarray,
    precoder: Precoder,
    d: int,
    sigma2: float,
    N: int,
) -> CrbResult:
    """Bound over the non-anchor taps via the left-null-space route:
    sigma2 times the anchor-reduced inverse of the frame's D0, which the
    sweep of fast_information gives on a batch of one frame. The result
    at sigma2 is sigma2 times the result at 1, bit for bit, in C and in
    the trace; sigma2 must pass model._require_positive_sigma2."""
    _require_positive_sigma2(sigma2)
    sN = np.asarray(sN, dtype=np.complex128)
    M = precoder.F.shape[1]
    if sN.shape != (N * M,):
        raise ValueError(f"expected {N * M} symbols, got shape {sN.shape}")
    return _invert_reduced(fast_information(h, sN[None], precoder)[0], d, sigma2)


def _channel_stack(h, sNs, precoder: Precoder, min_blocks: int):
    """Taps and frames as a (C, L+1) stack of channels with their frames
    as (C, T, N, M) blocks, whether they were one channel's (L+1,) taps
    with its (T, NM) frames, and the (C, T) mask of the members that
    failed model._usable. The frames must hold at least min_blocks whole
    blocks of M symbols, so the blocks are a view of the frames, and the
    channel order must fit the precoder's P x M composite F: L < M and
    P = M + L; the D0 functions read C, T, N and M off the blocks and L
    off the taps. Each channel's taps come back at
    their power of two, times the 2^-e of model._usable that puts their
    largest real or imaginary part in [0.5, 1). D0 does not depend on
    the taps' scale and the scaling changes no rounding, so the taps'
    size neither overflows nor underflows the products that follow.

    A channel whose taps fail fails all its members, a frame that fails
    its own; model._usable returns both zeroed, so no product meets them,
    and the caller sets the failed members NaN. Taps of one channel that
    fail raise IllConditioned instead, the class the direct route raises:
    zero taps give a zero J11 = K^H K / sigma2. A failed frame is a member
    of the batch even for one channel, so crb_fast and crb_zp_per_block
    meet its NaN information at their anchor-reduced gate."""
    P, M = precoder.F.shape
    h = np.asarray(h, dtype=np.complex128)
    sNs = np.asarray(sNs, dtype=np.complex128)
    if h.ndim not in (1, 2) or h.shape[-1] < 2:
        raise ValueError(
            f"need (L+1,) taps or a (C, L+1) stack of them, L >= 1, got shape {h.shape}"
        )
    if (
        sNs.ndim != h.ndim + 1 or sNs.shape[:-2] != h.shape[:-1] or sNs.shape[-2] < 1
        or sNs.shape[-1] % M or sNs.shape[-1] < min_blocks * M
    ):
        raise ValueError(
            f"expected a stack of frames of at least {min_blocks} whole blocks "
            f"of {M} symbols per channel, got shape {sNs.shape} for taps {h.shape}"
        )
    L = h.shape[-1] - 1
    if not L < M or P != M + L:
        raise ValueError(f"channel order {L} inconsistent with precoder shape {P}x{M}")
    single = h.ndim == 1
    if single:
        h, sNs = h[None], sNs[None]
    (taps_ok, exponent, h), (frames_ok, _, sNs) = _usable(h), _usable(sNs)
    if single and not taps_ok[0]:
        raise IllConditioned(_J11, math.inf)
    h = np.ldexp(h.view(np.float64), -exponent[:, None]).view(np.complex128)
    blocks = sNs.reshape(sNs.shape[:2] + (sNs.shape[2] // M, M))
    return h, blocks, single, ~(taps_ok[:, None] & frames_ok)


def fast_information(h: np.ndarray, sNs: np.ndarray, precoder: Precoder) -> np.ndarray:
    """The reduced information of the fast route times sigma2, D0 = sigma2 D,
    for a batch of frames sent over one channel, or for a stack of channels.

    h is one channel's (L+1,) taps and sNs a (T, NM) stack of frames of
    N >= 2 blocks; the result is the (T, L+1, L+1) stack of their D0, the
    Gram of each frame's windows V^T[r, k] = x[L+r-k] in the left null
    space of K (see _sweep), whose block B = T(h) F is the tap sum of
    the model's one-block factors of F. D0 depends only on the channel and
    the frame: the bound of frame t at any noise level sigma2 is sigma2
    times the anchor-reduced inverse of D0[t]. A rank-deficient K raises
    RankDeficient for the whole batch, and taps that model._usable
    refuses raise IllConditioned (see _channel_stack); a frame that it
    refuses comes back NaN. With (C, L+1) taps and (C, T, NM) frames, one
    sweep runs every channel and the result is (C, T, L+1, L+1); each
    member equals its channel's result alone, and a channel whose K fails
    the rank gate, or whose taps fail model._usable, comes back NaN
    instead of raising. So does a member whose Gram leaves the float
    range (a frame near 1e160, say), without a warning.
    """
    h, sNs, single, failed = _channel_stack(h, sNs, precoder, 2)
    (C, T, N, M), L = sNs.shape, h.shape[1] - 1
    B = _tap_sum(h, _tap_factors(precoder.F, L, 1))
    x = (sNs @ precoder.F.T).reshape(C, T, N * (M + L))
    # Row r of member c holds row r of its frames' V^T: a view of x, never
    # copied.
    Vt = sliding_window_view(x, L + 1, axis=2)[..., ::-1].transpose(0, 2, 1, 3)
    fins, low, high = _sweep(B, Vt)
    deficient = low <= RANK_RTOL * high
    if single and deficient[0]:
        raise RankDeficient(
            f"K is column-rank-deficient (diag ratio {low[0]:.3e} / {high[0]:.3e})"
        )
    X = fins.transpose(0, 2, 1, 3)
    with np.errstate(over="ignore", invalid="ignore"):
        D0 = _hermitize(X.conj().swapaxes(-1, -2) @ X)
    D0[failed | deficient[:, None] | ~np.isfinite(D0).all(axis=(-2, -1))] = np.nan
    return D0[0] if single else D0


def _sweep(B: np.ndarray, cols: np.ndarray):
    """The coordinates of cols in the left null space of K, from a banded
    QR of K that never forms it, for a stack of channels in one sweep.

    B is the (C, P+L, M) stack of the channels' blocks T(h) F, each
    repeating down its K, P rows lower in each column block, so
    consecutive blocks overlap in L rows. cols is any (C, NP-L, ...) array
    aligned with the members' rows of K, a strided view say, whose
    trailing axes are the window columns. Returns the (C, (N-1)L, ...)
    coordinates X, with X^H X = cols^H (I - K pinv(K)) cols over the
    flattened columns for each member, and each member's smallest and
    largest |diag(R)| of the K columns, low and high, for the rank gate.
    M and L are read off B, N off cols.

    Every step is of one kind. Step n's window stacks the L rows carried
    from step n-1 over the P rows of block n; its columns are the K block
    and L marker columns, the identity on the window's last L rows, which
    block n+1 also touches. Take a complete QR of the window. Rows 0..M-1
    of R close block n; rows M..M+L-1 carry on, their block n+1 entries
    read off the markers. Rows M.. of Q^H are the step map G: the last L
    of them are orthogonal to the K block and zero on the rows block n+1
    touches, so they are left-null-space directions of K. Applied to the
    window's [carried; new] rows of cols, G gives the next carried rows
    and a finished row block of C. Step 0 starts from a zero carry, so the
    rows it would finish lie on the empty carry rows and are dropped. The
    last step is an ordinary step whose L rows past the end of K are zero
    in the K block and in cols.

    LAPACK leaves the diagonal of R real but of either sign, so the
    carried rows of R and of G are scaled by the signs of their L x L
    K-block diagonal; the scaling is exact, and without it the carry can
    flip sign from step to step and never repeat. The carry follows a
    Riccati recursion to a fixed point. Once a member's carried K block
    matches the previous step's within _STEADY_RTOL, its later middle
    windows have the columns of the one just factored, so its G is kept
    until the last step, which refreshes it once more. A carry that does
    not repeat within the frame (a zero close to the unit circle can keep
    it moving) refreshes G at every step. A step takes one stacked QR of
    the members still refreshing and one stacked product of the whole
    stack; every stacked call does on each member what it does on one
    matrix, so a member's coordinates do not depend on the stack.

    The QR never sees cols, so the carry, G and the rank gate do not
    depend on them, and the frames of a batch ride side by side, each
    getting the block of C^H C its own sweep would. A finished row block
    is fixed up to a unitary rotation, which C^H C does not see.

    low and high are running extremes over the refreshed windows: each
    refresh folds its windows' |diag(R)| of the K columns into its
    members' two numbers with fmin and fmax, which skip NaN. The rank
    gate (low <= RANK_RTOL * high, applied by fast_information) fails a
    member whose smallest |diag(R)| collapses. Each is the distance of a
    column of K from the span of the ones before it, the same for any QR
    of K, and the smallest singular value never exceeds it, so a collapse
    proves rank deficiency. Draws that slip past it are still caught by
    the conditioning gate on the reduced information.

    With c columns and n* refreshes out of N steps (n* = N when the carry
    never repeats), O(n* (M+2L)^2 (M+L) + N L (M+2L) c) time and
    O((M+2L)(M+L+c) + N L c) memory besides cols, for the window's
    arrays and the finished rows, against O((NM)^3) and O((NM)^2) for a
    dense QR of K; a batch of T frames has c = T(L+1). A stack takes C
    times as much.
    """
    C, M = B.shape[0], B.shape[2]
    L = (B.shape[1] - M) // 2
    P = M + L
    N = (cols.shape[1] + L) // P
    shape = cols.shape[2:]
    # The window: columns [K block | markers], rows [carry; new], and the
    # same rows of cols. Only the carry changes until the last step.
    W = np.zeros((C, M + 2 * L, M + L), dtype=np.complex128)
    W[:, L:, :M] = B[:, L:]
    W[:, M + L:, M:] = np.eye(L)
    V = np.zeros((C, M + 2 * L, math.prod(shape)), dtype=np.complex128)
    new_v = V[:, L:].reshape((C, P) + shape)
    c = V.shape[2]
    G = np.empty((C, 2 * L, M + 2 * L), dtype=np.complex128)
    carry = np.zeros((C, L, L), dtype=np.complex128)
    low, high = np.full(C, np.nan), np.full(C, np.nan)
    # Row block n holds the rows step n finishes; step 0 finishes none.
    fin = np.empty((C, N, L, c), dtype=np.complex128)
    out = np.empty((C, 2 * L, c), dtype=np.complex128)
    q = np.arange(C)  # the members whose G is refreshed
    for n in range(N):
        if n < N - 1:
            new_v[...] = cols[:, n * P: (n + 1) * P]
        else:
            new_v[:, :M] = cols[:, n * P:]
            new_v[:, M:] = 0
            W[:, L + M:, :M] = 0
            q = np.arange(C)
        if len(q):
            Q, R = np.linalg.qr(W[q], mode="complete")
            d = R.diagonal(axis1=-2, axis2=-1)
            diag = np.abs(d[:, :M])
            low[q] = np.fmin(low[q], np.fmin.reduce(diag, axis=1))
            high[q] = np.fmax(high[q], np.fmax.reduce(diag, axis=1))
            sign = np.copysign(1.0, d[:, M:, None].real)
            Q[:, :, M: M + L] *= sign.swapaxes(-1, -2)
            G[q] = Q[:, :, M:].conj().swapaxes(-1, -2)
            step = sign * R[:, M: M + L, M:]
            moved, size = (step - carry[q]).view(float), step.view(float)
            carry[q] = step
            np.matmul(carry, B[:, :L], out=W[:, :L, :M])
            # A member refreshes again while its carried block still moves;
            # a NaN carry stops, its coordinates being NaN either way.
            q = q[
                np.einsum("cij,cij->c", moved, moved)
                > _STEADY_RTOL ** 2 * np.einsum("cij,cij->c", size, size)
            ]
        np.matmul(G, V, out=out)
        V[:, :L] = out[:, :L]
        fin[:, n] = out[:, L:]
    return fin[:, 1:].reshape((C, (N - 1) * L) + shape), low, high


def crb_zp_per_block(
    h: np.ndarray,
    sN: np.ndarray,
    precoder: Precoder,
    d: int,
    sigma2: float,
) -> CrbResult:
    """Reference bound for zero padding keeping all NP received samples.

    Zero padding decouples the blocks, so the full observation is
    y(n) = T(h) Ftilde s(n) + noise with T(h) the tall P x M convolution
    matrix; nothing is discarded, unlike the frame model which drops the
    first L samples. The result is never above the frame bound in the
    positive semidefinite order. precoder is the system's, as for
    crb_fast, and must be zero padding, F = [Ftilde; 0]; any other raises
    ValueError. The dimensions come from the inputs: M and P from the
    precoder, L from the taps, which must give P = M + L, and N from the
    length of sN. The reduced information is the Gram of the
    blocks' coordinates in the L-dimensional left null space of the one
    P x M block T(h) Ftilde (see zp_information); neither the NM x NM
    symbol block nor any Kronecker product is formed. As in crb_fast, the
    bound is sigma2 times the anchor-reduced inverse of D0, so the result
    at sigma2 is sigma2 times the result at 1, bit for bit, and sigma2
    must pass model._require_positive_sigma2.
    """
    _require_positive_sigma2(sigma2)
    return _invert_reduced(zp_information(h, np.asarray(sN)[None], precoder)[0], d, sigma2)


def zp_information(h: np.ndarray, sNs: np.ndarray, precoder: Precoder) -> np.ndarray:
    """The reduced information of crb_zp_per_block times sigma2, for a
    (T, NM) stack of frames sent over one channel; returns the
    (T, L+1, L+1) stack. With (C, L+1) taps and (C, T, NM) frames it
    returns (C, T, L+1, L+1), each member equal to its channel's result
    alone; a channel that fails the J11 gate comes back NaN there instead
    of raising IllConditioned. A member whose Gram leaves the float range
    is NaN, as in fast_information. It takes the system's precoder and checks
    the taps and frames against it, usability included, as
    fast_information does, and refuses a precoder that is not zero
    padding, F = [Ftilde; 0].

    Like fast_information, it depends only on the channel and the frame;
    the bound of frame t is sigma2 times the anchor-reduced inverse of
    the result's [t]. The symbol block is I_N kron A^H A, where
    A = T(h) Ftilde is the tap sum of the model's one-block factors
    J_l Ftilde, so D0 sums N terms U_n^H (I - A pinv(A)) U_n, column l of
    U_n being J_l Ftilde s_n, block n's inner-precoded symbols delayed by
    l. The projector is Qp Qp^H, Qp the last L columns of A's complete Q,
    so D0 is the Gram of the coordinates Qp^H U_n, read off the factors'
    products Qp^H J_l Ftilde: PSD by construction, with no cancellation.
    The same QR gives the J11 gate: A = Q R, so A^H A = R^H R and
    cond(J11) = cond(R)^2, read off the M x M triangle of R. The one QR
    of A serves the gate, the projector and the batch, and one stacked QR
    serves a stack of channels; O(M^3 + N M L(L+1) T) time per channel.
    """
    if not precoder.zero_padding:
        raise ValueError("the reference bound applies to zero padding only, F = [Ftilde; 0]")
    h, sNs, single, failed = _channel_stack(h, sNs, precoder, 1)
    (C, T, N, M), L = sNs.shape, h.shape[1] - 1
    factors = _tap_factors(precoder.Ftilde, L, 1)
    A = _tap_sum(h, factors)
    Q, R = np.linalg.qr(A, mode="complete")
    cond = _conditioned(R[:, :M])[0] ** 2
    ok = cond < COND_LIMIT
    if single and not ok[0]:
        raise IllConditioned(_J11, float(cond[0]))
    # lags[c, m, j, l] = (Qp^H J_l Ftilde)[c, j, m], so s_n^T lags[c] is
    # Qp^H U_n, block n's L rows of W.
    Qp = Q[:, :, M:]
    lags = (Qp.conj().swapaxes(1, 2)[:, None] @ np.stack(factors)).transpose(0, 3, 2, 1)
    W = sNs @ lags.reshape(C, 1, M, L * (L + 1))
    X = W.reshape(C, T, N * L, L + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        D0 = _hermitize(X.conj().swapaxes(-1, -2) @ X)
    D0[failed | ~ok[:, None] | ~np.isfinite(D0).all(axis=(-2, -1))] = np.nan
    return D0[0] if single else D0


def _channel_bytes(P: int, M: int, N: int, T: int) -> int:
    """Bytes that fast_information, and zp_information after it, hold per
    channel of a stack at once, beyond the channel's T frames of N blocks
    of M symbols, each block sent as P = M + L samples. A channel takes
    16 (10 (M+2L)^2 + T N (P + 2L(L+1))): the sweep's window of M + 2L
    rows with its complete QR and step map, and per frame its precoded
    stream of NP samples and its N L (L+1) null-space coordinates,
    counted twice: the Gram that gives D0 takes a conjugate copy of the
    whole stack of coordinates. zp_information runs after the sweep's
    arrays are freed, and its coordinates and their conjugate copy are of
    the same size."""
    L = P - M
    return 16 * (10 * (M + 2 * L) ** 2 + T * N * (P + 2 * L * (L + 1)))
