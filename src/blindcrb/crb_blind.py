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
  window of the transmitted stream x_N = (I_N kron F) s_N. It never forms
  K: every column block of K is the same (P+L) x M block
  B = T(h) F, and consecutive blocks overlap in L rows, so a block
  Householder sweep (a banded QR) over N windows of at most M+2L rows
  triangularizes K one block at a time. The rows each step leaves with
  zeros in every remaining column span the left null space, and D
  accumulates from the windows v_k carried through the same rotations.
  Cost: O(N M^3) time and O(NP) memory, against O((NM)^3) and
  O((NM)^2) for a dense QR of K.

The bound scales exactly as sigma2: fast_information and zp_information
return the reduced information with the noise factored out,
D0 = sigma2 D, which depends only on the channel and the frame, so a
caller that sweeps the noise level computes it once and inverts
D0 / sigma2 per level. Both take a batch of T frames sent over one
channel and return T matrices D0. Only the windows v_k depend on the
frame, so one sweep serves the batch: its rotations, carried rows and
rank gate are the channel's, and the frames' windows ride along side by
side, in O(NP + N L T(L+1)) memory. crb_fast and crb_zp_per_block are
batches of one.

Both routes reject ill-conditioned inversions instead of returning noise,
so Monte Carlo callers can count and exclude pathological draws.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .crb_core import RANK_RTOL, _hermitize
from .errors import IllConditioned, RankDeficient
from .model import Precoder, SystemConfig, build_channel_toeplitz

COND_LIMIT = 1e12


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
    if not sigma2 > 0:
        raise ValueError(f"sigma2 must be positive, got {sigma2}")


def _delete_anchor(D: np.ndarray, d: int) -> np.ndarray:
    if not 0 <= d < D.shape[-1]:
        raise ValueError(f"anchor index {d} outside 0..{D.shape[-1] - 1}")
    return np.delete(np.delete(D, d, axis=-2), d, axis=-1)


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


def _invert_reduced(D: np.ndarray, d: int) -> CrbResult:
    """Delete the anchor row/column of the reduced information and invert.

    D is one (L+1) x (L+1) information, which raises IllConditioned when
    its anchor-reduced part is ill-conditioned, or a (..., L+1, L+1)
    stack, whose ill-conditioned members get a NaN bound and trace.
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
    D0 = fast_information(h, sN[None], precoder, N)[0]
    return _invert_reduced(D0 / sigma2, d)


def fast_information(
    h: np.ndarray,
    sNs: np.ndarray,
    precoder: Precoder,
    N: int,
) -> np.ndarray:
    """The reduced information of the fast route times sigma2, D0 = sigma2 D,
    for a batch of frames sent over one channel.

    sNs is a (T, NM) stack of T frames; the result is the (T, L+1, L+1)
    stack of their D0. The bound of frame t is the anchor-reduced inverse
    of D0[t] / sigma2, so D0 depends only on the channel and the frame and
    serves every noise level.

    Sweeps the column blocks of K in order. Step n stacks the L rows
    carried from step n-1 over the P new rows of block n, appends L marker
    columns (the identity on the window's last L rows, which block n+1
    also touches) and then, side by side, each frame's rows of V^T,
    V^T[r, k] = x[L+r-k], and takes the R factor of that window. Rows
    0..M-1 of R close block n; rows M..M+L-1 carry on, their block n+1
    entries read off the markers; the last L rows are zero in every later
    column, so they are finished left-null-space rows, and frame t's
    columns of them, fin_t, add fin_t^H fin_t to D0[t]. Step 0 has no
    carry and the last step no markers; (N-1)L rows finish in all.

    Only the V^T columns depend on the frame. The reflectors that
    triangularize the K and marker columns come first, so they, the carry
    and the rank gate are the same for every frame of the batch. The
    reflectors the later frame columns bring in act on the finished rows
    alone; they rotate those rows, which leaves the Gram of each frame's
    columns, and so each D0[t], unchanged.

    The rank gate works on |diag(R)| of the K columns, the distance of
    each column of K from the span of the ones before it, which is the
    same for any QR of K: the smallest singular value never exceeds the
    smallest diagonal magnitude, so a collapsed diagonal proves rank
    deficiency. It reads only the channel, so it rejects every frame of
    the batch or none. Draws that slip past it are still caught by the
    conditioning gate on the reduced information.

    O(N M^2 (M + T(L+1))) time and O(NP + N L T(L+1)) memory: V^T is a
    strided view of the transmitted streams, and neither K nor
    I_N kron F is formed.
    """
    h = np.asarray(h, dtype=np.complex128)
    sNs = np.asarray(sNs, dtype=np.complex128)
    P, M = precoder.F.shape
    L = h.size - 1
    if P != M + L:
        raise ValueError(
            f"channel order {L} inconsistent with precoder shape {P}x{M}"
        )
    if sNs.ndim != 2 or sNs.shape[0] < 1 or sNs.shape[1] != N * M:
        raise ValueError(
            f"expected a stack of frames of {N * M} symbols, got shape {sNs.shape}"
        )
    # Validates N the way every frame-level entry point does.
    SystemConfig(M=M, L=L, N=N)
    T = sNs.shape[0]
    B = build_channel_toeplitz(h, P + L, P) @ precoder.F
    x = (sNs.reshape(T, N, M) @ precoder.F.T).reshape(T, N * P)
    # Vt[t, r] is row r of frame t's V^T; a view of x, never copied whole.
    Vt = sliding_window_view(x, L + 1, axis=1)[:, :, ::-1]
    # The window of a middle step: columns [K block | markers | V^T of
    # frame 0 | ... | V^T of frame T-1], rows [carry; new]. Only the carry
    # rows and the new V^T rows change from step to step.
    W = np.zeros((M + 2 * L, M + L + T * (L + 1)), dtype=np.complex128)
    W[L:, :M] = B[L:]
    W[M + L:, M: M + L] = np.eye(L)
    new_v = W[L:, M + L:].reshape(P, T, L + 1)
    diag = np.empty((N, M))
    # fin[t] holds frame t's columns of the finished rows, step by step.
    fin = np.empty((T, (N - 1) * L, L + 1), dtype=np.complex128)
    for n in range(N - 1):
        new_v[...] = Vt[:, n * P: (n + 1) * P].transpose(1, 0, 2)
        R = np.linalg.qr(W if n else W[L:], mode="r")
        diag[n] = np.abs(R.diagonal()[:M])
        if n:  # no rows finish at step 0
            fin[:, (n - 1) * L: n * L] = (
                R[M + L:, M + L:].reshape(L, T, L + 1).transpose(1, 0, 2)
            )
        W[:L, :M] = R[M: M + L, M: M + L] @ B[:L]
        W[:L, M + L:] = R[M: M + L, M + L:]
    # The last step: the carry over the M rows left, and no markers.
    new_v[:M] = Vt[:, (N - 1) * P:].transpose(1, 0, 2)
    R = np.linalg.qr(np.delete(W[: L + M], np.s_[M: M + L], axis=1), mode="r")
    diag[N - 1] = np.abs(R.diagonal()[:M])
    fin[:, (N - 2) * L:] = R[M:, M:].reshape(L, T, L + 1).transpose(1, 0, 2)
    if diag.min() <= RANK_RTOL * diag.max():
        raise RankDeficient(
            f"K is column-rank-deficient (diag ratio {diag.min() / diag.max():.3e})"
        )
    return _hermitize(fin.conj().swapaxes(-1, -2) @ fin)


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
    from the length of sN. One M x M solve serves all N blocks; neither
    the NM x NM symbol block nor any Kronecker product is formed.
    """
    _require_positive_sigma2(sigma2)
    sN = np.asarray(sN, dtype=np.complex128)
    D0 = zp_information(h, sN[None], Ftilde)[0]
    return _invert_reduced(D0 / sigma2, d)


def zp_information(h: np.ndarray, sNs: np.ndarray, Ftilde: np.ndarray) -> np.ndarray:
    """The reduced information of crb_zp_per_block times sigma2, for a
    (T, NM) stack of frames sent over one channel; returns the
    (T, L+1, L+1) stack.

    Like fast_information, it depends only on the channel and the frame;
    the bound of frame t is the anchor-reduced inverse of the result's
    [t] over sigma2. The Gram A^H A, its conditioning gate and its one
    solve serve every frame of the batch.
    """
    h = np.asarray(h, dtype=np.complex128)
    sNs = np.asarray(sNs, dtype=np.complex128)
    Ftilde = np.asarray(Ftilde, dtype=np.complex128)
    if h.ndim != 1 or h.size < 2:
        raise ValueError(f"need a 1-D array of at least 2 taps, got shape {h.shape}")
    if Ftilde.ndim != 2 or Ftilde.shape[0] != Ftilde.shape[1]:
        raise ValueError(
            f"inner precoder must be square, got shape {Ftilde.shape}; "
            "pass the square inner precoder, not the composite"
        )
    M = Ftilde.shape[0]
    if sNs.ndim != 2 or sNs.shape[0] < 1:
        raise ValueError(f"expected a stack of frames, got shape {sNs.shape}")
    T = sNs.shape[0]
    N, rem = divmod(sNs.shape[1], M)
    if rem or N < 1:
        raise ValueError(
            f"expected whole blocks of {M} symbols, got shape {sNs.shape}"
        )
    L = h.size - 1
    P = M + L
    # sigma2 J11 = I_N kron A^H A and row l of sigma2 J01 holds the blocks
    # (T_l z_n)^H A, so the Schur complement is a sum of N per-block terms
    # against the one M x M Gram A^H A.
    A = build_channel_toeplitz(h, P, M) @ Ftilde
    gram = A.conj().T @ A
    _require_conditioned(gram, "symbol information block J11")
    z = sNs.reshape(T, N, M) @ Ftilde.T
    # U[t, :, n, l] = T_l z_n of frame t: block n's inner-precoded symbols
    # delayed by l.
    U = np.zeros((T, P, N, L + 1), dtype=np.complex128)
    for l in range(L + 1):
        U[:, l: l + M, :, l] = z.transpose(0, 2, 1)
    Y = A.conj().T @ U.reshape(T, P, -1)
    # One solve for every frame: the right-hand sides side by side.
    X = np.linalg.solve(gram, Y.transpose(1, 0, 2).reshape(M, -1))
    X = X.reshape(M, T, -1).transpose(1, 0, 2)
    Y = Y.reshape(T, M, N, L + 1)
    X = X.reshape(T, M, N, L + 1)
    return _hermitize(np.einsum("tpni,tpnk->tik", U.conj(), U)
                      - np.einsum("tmni,tmnk->tik", Y.conj(), X))
