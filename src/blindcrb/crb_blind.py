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
  by a banded QR that never forms K; its docstring gives the algorithm
  and its cost.

The bound scales exactly as sigma2: fast_information and zp_information
return the reduced information with the noise factored out,
D0 = sigma2 D, which depends only on the channel and the frame, so a
caller that sweeps the noise level computes it once and inverts
D0 / sigma2 per level. Both take a batch of T frames sent over one
channel and return T matrices D0. Only the windows v_k depend on the
frame, so one sweep serves the batch: its rotations, carried rows and
rank gate are the channel's, and the frames' windows ride along side by
side. zp_information likewise takes one QR of its P x M block per batch.
Both also take a stack of C channels, (C, L+1) taps with (C, T, NM)
frames, and return (C, T, L+1, L+1): one sweep, or one stacked QR, runs
every channel at once, and each member gets the bytes it would get
alone. A single channel that fails a gate raises; in a channel stack the
failed member comes back NaN and the others are unchanged. crb_fast and
crb_zp_per_block are batches of one.

Both routes reject ill-conditioned inversions instead of returning noise,
so Monte Carlo callers can count and exclude pathological draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .crb_core import RANK_RTOL, _hermitize
from .errors import IllConditioned, RankDeficient
from .model import Precoder, build_channel_toeplitz

COND_LIMIT = 1e12
# The sweep switches to its steady-state map once the sign-normalised
# carried K block moves by at most this much, relative to its Frobenius
# norm, from one step to the next; once settled it moves by less than
# 1e-15 (M=12, L=4, cp and zp, 32 channels each).
_STEADY_RTOL = 1e-14


def default_anchor(h: np.ndarray) -> int:
    """Anchor tap index: the strongest tap, lowest index on ties."""
    h = np.asarray(h)
    if h.ndim != 1 or h.size == 0:
        raise ValueError("channel taps must form a nonempty 1-D array")
    return int(np.argmax(np.abs(h) ** 2))


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
    J01[i,:] = s^H K_i^H K / sigma2, J11 = K^H K / sigma2.
    """
    _require_positive_sigma2(sigma2)
    K = np.asarray(K, dtype=np.complex128)
    sN = np.asarray(sN, dtype=np.complex128)
    if sN.shape != (K.shape[1],):
        raise ValueError(f"expected {K.shape[1]} symbols, got shape {sN.shape}")
    # Row l holds (K_l s)^T; all blocks derive from it and K.
    W = np.array([Kl @ sN for Kl in K_list])
    J00 = (W.conj() @ W.T) / sigma2
    J01 = (W.conj() @ K) / sigma2
    J11 = (K.conj().T @ K) / sigma2
    return FimBlocks(J00=_hermitize(J00), J01=J01, J11=_hermitize(J11))


def _require_positive_sigma2(sigma2: float):
    if not 0 < sigma2 < math.inf:
        raise ValueError(f"sigma2 must be positive and finite, got {sigma2}")


def _delete_anchor(D: np.ndarray, d) -> np.ndarray:
    """D without its anchor row and column; d is an int or an integer
    array broadcast over the stack's leading axes, one anchor per member."""
    n = D.shape[-1]
    d = np.asarray(d)
    bad = d[(d < 0) | (d >= n)]
    if bad.size:
        raise ValueError(f"anchor index {bad[0]} outside 0..{n - 1}")
    keep = np.arange(n) != d[..., None]
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


def _require_conditioned(A: np.ndarray, name: str):
    """Raise IllConditioned unless cond(A) is finite and below COND_LIMIT."""
    cond, ok = _conditioned(A)
    if not ok:
        raise IllConditioned(name, float(cond))


def _invert_reduced(D: np.ndarray, d) -> CrbResult:
    """Delete the anchor row/column of the reduced information and invert.

    D is one (L+1) x (L+1) information, which raises IllConditioned when
    its anchor-reduced part is ill-conditioned, or a (..., L+1, L+1)
    stack, whose ill-conditioned members get a NaN bound and trace. d is
    the anchor index, an int or an integer array broadcast over the
    stack's leading axes.
    """
    Dd = _delete_anchor(np.asarray(D), d)
    cond, ok = _conditioned(Dd)
    if Dd.ndim == 2 and not ok:
        raise IllConditioned("anchor-reduced information E_d D E_d^H", float(cond))
    C = np.full(Dd.shape, np.nan, dtype=np.complex128)
    # Only the accepted members: a singular one would fail inv for all.
    C[ok] = _hermitize(np.linalg.inv(Dd[ok]))
    trace = np.real(np.trace(C, axis1=-2, axis2=-1))
    return CrbResult(C=C, trace=float(trace) if Dd.ndim == 2 else trace)


def _schur_reduce(blocks: FimBlocks) -> np.ndarray:
    """J00 - J01 inv(J11) J01^H, rejecting ill-conditioned symbol blocks."""
    _require_conditioned(blocks.J11, "symbol information block J11")
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
    the sweep of fast_information on a batch of one frame, scaled by
    1/sigma2 and inverted."""
    _require_positive_sigma2(sigma2)
    sN = np.asarray(sN, dtype=np.complex128)
    M = precoder.F.shape[1]
    if sN.shape != (N * M,):
        raise ValueError(f"expected {N * M} symbols, got shape {sN.shape}")
    D0 = fast_information(h, sN[None], precoder)[0]
    return _invert_reduced(D0 / sigma2, d)


def _channel_stack(h, sNs, M: int, min_blocks: int):
    """Taps and frames as a (C, L+1) stack of channels with their
    (C, T, NM) frames, and whether they were one channel's (L+1,) taps
    with its (T, NM) frames. The frames must hold at least min_blocks
    whole blocks of M symbols."""
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
    single = h.ndim == 1
    return (h[None], sNs[None], True) if single else (h, sNs, False)


def fast_information(h: np.ndarray, sNs: np.ndarray, precoder: Precoder) -> np.ndarray:
    """The reduced information of the fast route times sigma2, D0 = sigma2 D,
    for a batch of frames sent over one channel, or for a stack of channels.

    h is one channel's (L+1,) taps and sNs a (T, NM) stack of frames of
    N >= 2 blocks; the result is the (T, L+1, L+1) stack of their D0, the
    Gram of each frame's windows V^T[r, k] = x[L+r-k] in the left null
    space of K (see _sweep). D0 depends only on the channel and the frame:
    the bound of frame t at any noise level is the anchor-reduced inverse
    of D0[t] / sigma2. A rank-deficient K raises RankDeficient for the
    whole batch. With (C, L+1) taps and (C, T, NM) frames, one sweep runs
    every channel and the result is (C, T, L+1, L+1); each member equals
    its channel's result alone, and a channel whose K fails the rank gate
    comes back NaN instead of raising.
    """
    P, M = precoder.F.shape
    h, sNs, single = _channel_stack(h, sNs, M, 2)
    C, T = sNs.shape[:2]
    L, N = h.shape[1] - 1, sNs.shape[2] // M
    if not L < M or P != M + L:
        raise ValueError(f"channel order {L} inconsistent with precoder shape {P}x{M}")
    B = np.stack([build_channel_toeplitz(taps, P + L, P) for taps in h]) @ precoder.F
    x = (sNs.reshape(C, T, N, M) @ precoder.F.T).reshape(C, T, N * P)
    # Row r of member c holds row r of its frames' V^T: a view of x, never
    # copied.
    Vt = sliding_window_view(x, L + 1, axis=2)[..., ::-1].transpose(0, 2, 1, 3)
    fins = _sweep(B[0], Vt[0])[None] if single else _sweep(B, Vt)
    D0 = np.empty((C, T, L + 1, L + 1), dtype=np.complex128)
    for D0_c, fin in zip(D0, fins):  # one channel's conj at a time
        fin = fin.transpose(1, 0, 2)
        D0_c[...] = _hermitize(fin.conj().swapaxes(-1, -2) @ fin)
    return D0[0] if single else D0


def _sweep(B: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The coordinates of cols in the left null space of K, from a banded
    QR of K that never forms it.

    B is the (P+L) x M block T(h) F that repeats down K, P rows lower in
    each column block, so consecutive blocks overlap in L rows. cols is
    any (NP-L, ...) array aligned with K's rows, a strided view say, whose
    trailing axes are the window columns. The result C is ((N-1)L, ...),
    with C^H C = cols^H (I - K pinv(K)) cols over the flattened columns.
    M and L are read off B, N off cols. B may also be a (C, P+L, M) stack
    of channels' blocks, with cols (C, NP-L, ...) and a (C, (N-1)L, ...)
    result; one sweep runs them all.

    Step n stacks the L rows carried from step n-1 over the P new rows of
    block n, appends L marker columns (the identity on the window's last L
    rows, which block n+1 also touches) and the rows of cols, and takes
    the R factor of that window. Rows 0..M-1 of R close block n; rows
    M..M+L-1 carry on, their block n+1 entries read off the markers; the
    last L rows are zero in every later column of K, so their cols part is
    a finished row block of C (zero below R when cols has fewer than L
    columns). Step 0 has no carry and the last step no markers.

    The sweep has two phases. LAPACK leaves the diagonal of R real but of
    either sign, so after each QR step the carried rows are scaled by the
    signs of their L x L K-block diagonal; the scaling is exact, and
    without it the carry can flip sign from step to step and never repeat.
    The carry follows a Riccati recursion to a fixed point. Once its K
    block matches the previous step's within _STEADY_RTOL, every later
    middle window has the same K and marker columns, hence the same
    reflectors, and rows M.. of the Q^H of one complete QR of those
    columns, G (carry rows sign-scaled the same way), map each remaining
    middle step's [carried; new] rows of cols to the next carry and the
    finished rows in one (2L) x (M+2L) product. The steady window's
    |diag(R)| fills the rank gate's remaining rows, and the last step is a
    QR again. A carry that does not repeat within the frame (a zero close
    to the unit circle can keep it moving) keeps a QR at every step.

    In a stack each member switches to its own G at the step where its
    own carry repeats. A step takes one stacked QR of the members still
    factoring and, once any member has switched, one stacked product of
    the whole stack, whose rows for a member still factoring (G is zero
    there) its QR step replaces. Every stacked call does on each member
    what it does on one matrix, so a member's coordinates do not depend
    on the stack.

    The reflectors of the K and marker columns come first, so they, the
    carry and the rank gate do not depend on cols. The reflectors the
    later columns bring in, and G in place of a QR step, only rotate the
    finished rows, which C^H C does not see: the frames of a batch ride
    side by side, each getting the block of C^H C its own sweep would.

    The rank gate raises RankDeficient when the smallest |diag(R)| of the
    K columns collapses; in a stack the member's coordinates come back NaN
    instead. Each is the distance of a column of K from the span of the
    ones before it, the same for any QR of K, and the smallest singular
    value never exceeds it, so a collapse proves rank deficiency. Draws
    that slip past it are still caught by the conditioning gate on the
    reduced information.

    With c columns and n* QR steps out of N (n* = N when the carry never
    repeats), O(n* M^2 (M + c) + (N - n*) L (M+2L) c) time and
    O(NP + N L c) memory besides cols, against O((NM)^3) and O((NM)^2)
    for a dense QR of K; a batch of T frames has c = T(L+1). A stack
    takes C times as much.
    """
    single = B.ndim == 2
    if single:
        B, cols = B[None], cols[None]
    C, M = B.shape[0], B.shape[2]
    L = (B.shape[1] - M) // 2
    P = M + L
    N = (cols.shape[1] + L) // P
    shape = cols.shape[2:]
    # The window of a middle step: columns [K block | markers | cols], rows
    # [carry; new]. Only the carry and the new rows of cols change.
    W = np.zeros((C, M + 2 * L, M + L + math.prod(shape)), dtype=np.complex128)
    W[:, L:, :M] = B[:, L:]
    W[:, M + L:, M: M + L] = np.eye(L)
    V = W[:, :, M + L:]
    new_v = V[:, L:].reshape((C, P) + shape)
    c = V.shape[2]
    diag = np.empty((C, N, M))
    # Row block n-1 of fin holds the rows step n finishes, of which a QR
    # step leaves min(L, c) and the rest zero.
    fin = np.zeros((C, (N - 1) * L, c), dtype=np.complex128)
    k = min(L, c)
    out = np.empty((C, 2 * L, c), dtype=np.complex128)
    # Zero until a member settles, so the stacked product leaves finite
    # rows, which its QR step then replaces, for a member still factoring.
    G = np.zeros((C, 2 * L, M + 2 * L), dtype=np.complex128)
    carry = np.empty((C, L, L), dtype=np.complex128)
    steady = np.zeros(C, dtype=bool)
    members = np.arange(C)  # the members still taking QR steps
    for n in range(N - 1):
        new_v[...] = cols[:, n * P: (n + 1) * P]
        done = (n - 1) * L
        if len(members):
            # A slice while the members are consecutive: views, not copies.
            q = members
            if members[-1] - members[0] == len(members) - 1:
                q = slice(members[0], members[-1] + 1)
            R = np.linalg.qr(W[q] if n else W[q, L:], mode="r")
        if len(members) < C:
            np.matmul(G, V, out=out)
            V[:, :L] = out[:, :L]
            fin[:, done: done + L] = out[:, L:]
        if not len(members):
            continue
        diag[q, n] = np.abs(R.diagonal(axis1=-2, axis2=-1)[:, :M])
        if n:  # no rows finish at step 0
            fin[q, done: done + k] = R[:, M + L:, M + L:]
        sign = _carry_signs(R, M, L)
        previous = carry[q].copy()  # carry[q] is a view when q is a slice
        carry[q] = sign * R[:, M: M + L, M: M + L]
        W[q, :L, :M] = carry[q] @ B[q, :L]
        V[q, :L] = sign * R[:, M: M + L, M + L:]
        if not 0 < n < N - 2:
            continue
        settled = [i for i, p in zip(members, previous) if _repeats(carry[i], p)]
        if settled:
            # Every later middle window of these members has the K and
            # marker columns of the next one, so rows M.. of their Q^H map
            # its [carry; new] rows of cols to the next carry and the
            # finished rows.
            Q, R = np.linalg.qr(W[settled, :, : M + L], mode="complete")
            G[settled] = Q[:, :, M:].conj().swapaxes(-1, -2)
            G[settled, :L] *= _carry_signs(R, M, L)
            diag[settled, n + 1: N - 1] = np.abs(
                R.diagonal(axis1=-2, axis2=-1)[:, None, :M]
            )
            steady[settled] = True
            members = np.flatnonzero(~steady)
    # The last step: the carry over the M rows left, and no markers.
    new_v[:, :M] = cols[:, (N - 1) * P:]
    R = np.linalg.qr(np.delete(W[:, : L + M], np.s_[M: M + L], axis=2), mode="r")
    diag[:, N - 1] = np.abs(R.diagonal(axis1=-2, axis2=-1)[:, :M])
    fin[:, (N - 2) * L: (N - 2) * L + k] = R[:, M:, M:]
    low, high = diag.min(axis=(1, 2)), diag.max(axis=(1, 2))
    failed = low <= RANK_RTOL * high
    if single and failed[0]:
        raise RankDeficient(
            f"K is column-rank-deficient (diag ratio {low[0] / high[0]:.3e})"
        )
    fin[failed] = np.nan
    fin = fin.reshape(fin.shape[:2] + shape)
    return fin[0] if single else fin


def _repeats(carry: np.ndarray, previous: np.ndarray) -> bool:
    """Whether the carried K block moved by at most _STEADY_RTOL of its
    Frobenius norm since the previous step."""
    d = carry - previous
    return np.vdot(d, d).real <= _STEADY_RTOL ** 2 * np.vdot(carry, carry).real


def _carry_signs(R: np.ndarray, M: int, L: int) -> np.ndarray:
    """The signs of the carried rows' K-block diagonal as an (L, 1) column,
    or a (..., L, 1) stack of them for a stack of R.

    LAPACK leaves the diagonal of R real but of either sign; scaling the
    carried rows by these signs is exact and makes that diagonal positive,
    so a carry that has stopped changing also stops changing sign.
    """
    diagonal = R.diagonal(axis1=-2, axis2=-1)
    return np.copysign(1.0, diagonal[..., M: M + L].real)[..., None]


def crb_zp_per_block(
    h: np.ndarray,
    sN: np.ndarray,
    Ftilde: np.ndarray,
    d: int,
    sigma2: float,
) -> CrbResult:
    """Reference bound for zero padding keeping all NP received samples.

    Zero padding decouples the blocks, so the full observation is
    y(n) = T(h) Ftilde s(n) + noise with T(h) the tall P x M convolution
    matrix; nothing is discarded, unlike the frame model which drops the
    first L samples. The result is never above the frame bound in the
    positive semidefinite order. Callers must ensure the system actually
    uses zero padding; Ftilde is the square inner precoder only. The
    dimensions come from the inputs: L from the taps, M from Ftilde and N
    from the length of sN. The reduced information is the Gram of the
    blocks' coordinates in the L-dimensional left null space of the one
    P x M block T(h) Ftilde (see zp_information); neither the NM x NM
    symbol block nor any Kronecker product is formed.
    """
    _require_positive_sigma2(sigma2)
    sN = np.asarray(sN, dtype=np.complex128)
    D0 = zp_information(h, sN[None], Ftilde)[0]
    return _invert_reduced(D0 / sigma2, d)


def zp_information(h: np.ndarray, sNs: np.ndarray, Ftilde: np.ndarray) -> np.ndarray:
    """The reduced information of crb_zp_per_block times sigma2, for a
    (T, NM) stack of frames sent over one channel; returns the
    (T, L+1, L+1) stack. With (C, L+1) taps and (C, T, NM) frames it
    returns (C, T, L+1, L+1), each member equal to its channel's result
    alone; a channel that fails the J11 gate comes back NaN there instead
    of raising IllConditioned.

    Like fast_information, it depends only on the channel and the frame;
    the bound of frame t is the anchor-reduced inverse of the result's
    [t] over sigma2. The symbol block is I_N kron A^H A, A = T(h) Ftilde,
    so D0 sums N terms U_n^H (I - A pinv(A)) U_n, column l of U_n being
    block n's inner-precoded symbols delayed by l. The projector is
    Qp Qp^H, Qp the last L columns of A's complete Q, so D0 is the Gram of
    the coordinates Qp^H U_n: PSD by construction, with no cancellation.
    The gate on A^H A and the QR of A serve the batch, and one stacked QR
    serves a stack of channels; O(M^3 + N M L(L+1) T) time per channel.
    """
    Ftilde = np.asarray(Ftilde, dtype=np.complex128)
    if Ftilde.ndim != 2 or Ftilde.shape[0] != Ftilde.shape[1]:
        raise ValueError(
            f"inner precoder must be square, got shape {Ftilde.shape}; "
            "pass the square inner precoder, not the composite"
        )
    M = Ftilde.shape[0]
    h, sNs, single = _channel_stack(h, sNs, M, 1)
    C, T = sNs.shape[:2]
    L, N = h.shape[1] - 1, sNs.shape[2] // M
    A = np.stack([build_channel_toeplitz(taps, M + L, M) for taps in h]) @ Ftilde
    cond, ok = _conditioned(A.conj().swapaxes(-1, -2) @ A)
    if single and not ok[0]:
        raise IllConditioned("symbol information block J11", float(cond[0]))
    Qp = np.linalg.qr(A[ok], mode="complete")[0][:, :, M:]
    # lags[c, m, j, l] = conj(Qp[c, l + m, j]): lag l reads rows l..l+M-1
    # of Qp, so s_n^T Ftilde^T lags[c] is Qp^H U_n, block n's L rows of W.
    lags = sliding_window_view(Qp.conj(), M, axis=1).transpose(0, 3, 2, 1)
    kept = len(Qp)
    lags = lags.reshape(kept, 1, M, L * (L + 1))
    W = sNs[ok].reshape(kept, T, N, M) @ (Ftilde.T @ lags)
    W = W.reshape(kept, T, N * L, L + 1)
    D0 = np.full((C, T, L + 1, L + 1), np.nan, dtype=np.complex128)
    for c, W_c in zip(np.flatnonzero(ok), W):  # one channel's conj at a time
        D0[c] = _hermitize(W_c.conj().swapaxes(-1, -2) @ W_c)
    return D0[0] if single else D0
