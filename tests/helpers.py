"""Shared builders for randomized test instances, the explicit
selection-matrix oracles that the model's per-tap factors, their tap sums
T(h) F and T(h) Ftilde, K and K_l are checked against, the dense routes and
bases that the banded bounds are checked against, the estimator's
covariance-eigh route and complete-QR border basis that its border route
is checked against, the estimator's penalty on a given noise basis, a
fixed stack of channels and the check that a D0 function gives each of
them its bytes alone, the peak memory of a call, a count of QR calls, a
one-point run of an experiment plan, the frame-by-frame run that the
stacked harness is checked against, the powers of two the taps are
scaled by in the bound routes' scale tests, and the noise variances at
the lower edge of the normal floats that every sigma2 check is held to."""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
from hypothesis import strategies as st

from blindcrb import (
    EstimatorSettings,
    ExclusionBudgetExceeded,
    InsufficientData,
    NumericalError,
    RankDeficient,
    ResultRecord,
    SystemConfig,
    build_K,
    crb_direct,
    draw_channel,
    fim_blocks,
    fix_column_phases,
    generate_symbols,
    make_precoder,
    resolve_ambiguity,
    run_experiment,
    sigma2_from_snr_db,
    subspace_estimate,
    synthesize_observation,
)
from blindcrb.crb_blind import _invert_reduced, fast_information, zp_information
from blindcrb.crb_core import RANK_RTOL
from blindcrb.estimator import _penalty_minimum
from blindcrb.harness import EXCLUSION_BUDGET
from blindcrb.model import draw_noise


def random_unit_channel(L, rng):
    h = (rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)) / np.sqrt(2)
    return h / np.linalg.norm(h)



# The exponents k of the float range, each end drawn as often as the rest:
# near them, taps of unit norm times 2^k overflow or underflow the bound
# routes' products unless the route rescales them.
EXPONENTS = st.sampled_from([(-1022, -1010), (-1009, 1012), (1013, 1023)]).flatmap(
    lambda band: st.integers(*band)
)

# The smallest noise variance the package accepts, and positive ones
# below it, which every sigma2 check refuses: the smallest subnormal, a
# subnormal near 1e-320, and the subnormal just below SMALLEST_NORMAL.
SMALLEST_NORMAL = np.finfo(np.float64).smallest_normal
SUBNORMAL_SIGMA2 = (5e-324, 1e-320, np.nextafter(SMALLEST_NORMAL, 0))
# Normal noise variances for the bounds' scaling tests, capped where
# sigma2 times a bound of up to about 1e100 stays finite.
NOISE_VARIANCES = st.floats(SMALLEST_NORMAL, 1e200)


def normal_or_zero(h):
    """Whether every real or imaginary part of h is zero or a normal float."""
    parts = np.abs(h.view(np.float64))
    tiny = np.finfo(np.float64).tiny
    return bool(np.all((parts == 0) | ((parts >= tiny) & np.isfinite(parts))))


def random_instance(
    rng,
    M=4,
    L=2,
    N=3,
    sigma2=0.5,
    redundancy_kind="cp",
    inner_kind="identity",
):
    """One complete (config, precoder, h, sN) draw."""
    config = SystemConfig(
        M=M,
        L=L,
        N=N,
        sigma2=sigma2,
        redundancy_kind=redundancy_kind,
        inner_kind=inner_kind,
    )
    precoder = make_precoder(config)
    h = random_unit_channel(L, rng)
    sN = generate_symbols("qpsk", M, N, rng).sN
    return config, precoder, h, sN


def channel_stack(kind, inner, N, M=6, L=2, C=4, T=3, seed=90):
    """(precoder, taps, frames) of C random channels with T QPSK frames
    each, (C, L+1) taps and (C, T, NM) frames, under cp, zp or a random
    custom redundancy and an identity or IDFT inner precoder."""
    rng = np.random.default_rng(seed)
    custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
    precoder = make_precoder(SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom if kind == "custom" else None,
    ))
    hs = np.stack([random_unit_channel(L, rng) for _ in range(C)])
    frames = np.stack([
        [generate_symbols("qpsk", M, N, rng).sN for _ in range(T)] for _ in range(C)
    ])
    return precoder, hs, frames


def assert_members_alone(information, precoder, hs, frames):
    """A D0 function on a (C, T) stack of channels and frames: each
    channel's (T, L+1, L+1) member has the bytes of that channel alone.
    Returns the stack's D0."""
    stack = information(hs, frames, precoder)
    assert stack.shape == frames.shape[:2] + (hs.shape[1],) * 2
    for h, f, member in zip(hs, frames, stack):
        assert member.tobytes() == information(h, f, precoder).tobytes()
    return stack


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc sees while it runs."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_qr(monkeypatch):
    """The shapes of the np.linalg.qr calls made from here on, a list that
    each call appends to."""
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


def run_cell(plan, snr_db, estimate_fn=None):
    """The record of one SNR point: the plan run with that point as its
    only grid point."""
    return run_experiment(replace(plan, snr_db_grid=(snr_db,)), estimate_fn)[0]


def run_experiment_per_frame(plan):
    """run_experiment as a loop over channel, trial and SNR point, with one
    subspace_estimate call per 1-D frame and one _invert_reduced call per
    2-D matrix: the same draws, operations and exclusions, one item at a
    time. Each frame's bound is decided once, at unit noise, and scaled by
    each point's sigma2; a frame whose bound is refused there is excluded
    from every cell. run_experiment's stacked calls must give the same
    records."""
    config = plan.config
    precoder = make_precoder(config)
    sigma2s = [sigma2_from_snr_db(s) for s in plan.snr_db_grid]
    n_snr = len(sigma2s)
    mse, crb, zp = [0.0] * n_snr, [0.0] * n_snr, [0.0] * n_snr
    included, excluded = [0] * n_snr, [0] * n_snr

    def stream(*indices):
        seq = np.random.SeedSequence([plan.master_seed, *indices])
        return np.random.default_rng(seq)

    for i in range(plan.n_channels):
        channel = draw_channel(config.L, stream(0, i))
        h, d = channel.h, channel.d
        frames, cleans, noises = [], [], []
        for j in range(plan.n_trials):
            sN = generate_symbols("qpsk", config.M, config.N, stream(1, i, j)).sN
            clean = synthesize_observation(precoder, h, sN, 0.0, None)
            frames.append(sN)
            cleans.append(clean)
            noises.append(draw_noise(clean.size, stream(2, i, j)))
        try:
            D0s = fast_information(h, np.stack(frames), precoder)
            if plan.compute_zp_reference:
                D0s_zp = zp_information(h, np.stack(frames), precoder)
        except NumericalError:
            excluded = [e + plan.n_trials for e in excluded]
            continue
        for j, (clean, noise) in enumerate(zip(cleans, noises)):
            try:
                unit = _invert_reduced(D0s[j], d).trace
                if plan.compute_zp_reference:
                    unit_zp = _invert_reduced(D0s_zp[j], d).trace
            except NumericalError:
                excluded = [e + 1 for e in excluded]
                continue
            for s, sigma2 in enumerate(sigma2s):
                yN = clean + np.sqrt(sigma2 / 2) * noise
                try:
                    h_hat = subspace_estimate(yN, precoder, plan.estimator_settings)
                    h_hat = resolve_ambiguity(h_hat, d, h[d])
                except NumericalError:
                    excluded[s] += 1
                    continue
                mse[s] += float(np.sum(np.abs(h_hat - h) ** 2))
                crb[s] += unit * sigma2
                if plan.compute_zp_reference:
                    zp[s] += unit_zp * sigma2
                included[s] += 1
    total = plan.n_channels * plan.n_trials
    for snr_db, e in zip(plan.snr_db_grid, excluded):
        if e / total >= EXCLUSION_BUDGET:
            raise ExclusionBudgetExceeded(f"{e} of {total} trials excluded at {snr_db} dB")
    return [
        ResultRecord(
            snr_db=snr_db,
            crb_avg=crb[s] / included[s],
            mse_avg=mse[s] / included[s],
            crb_zp_ref_avg=zp[s] / included[s] if plan.compute_zp_reference else None,
            n_blocks=config.N,
            redundancy_kind=config.redundancy_kind,
            inner_kind=config.inner_kind,
            seed=plan.master_seed,
            excluded_trials=excluded[s],
        )
        for s, snr_db in enumerate(plan.snr_db_grid)
    ]


def channel_from_noise_subspace(noise_basis, F, L):
    """The estimator's channel direction from a noise basis of whole-block
    windows, (wP - L, n) or a stack (..., wP - L, n), with w read off its
    rows: the unit-norm minimizer of the subspace penalty, NaN (or
    SolverDegenerate for one basis) where it has no isolated minimum."""
    basis = np.asarray(noise_basis, dtype=np.complex128)
    w = (basis.shape[-2] + L) // F.shape[0]
    return _penalty_minimum(basis, F, L, w)


def subspace_estimate_eigh(yN, precoder, settings=EstimatorSettings()):
    """subspace_estimate with the noise subspace always taken from the
    eigh of the windows' sample covariance, at every N: the reference
    that the estimator's QR route at the identifiability border is
    checked against, and that it must match byte for byte elsewhere.
    Finite frames only."""
    yN = np.asarray(yN, dtype=np.complex128)
    P, M = precoder.F.shape
    L = P - M
    N = (yN.shape[-1] + L) // P
    w = settings.window_blocks
    dim = w * P - L
    n_windows = N - w + 1
    Z = yN[..., np.arange(dim)[:, None] + P * np.arange(n_windows)]
    cov = Z @ Z.conj().swapaxes(-1, -2)
    cov /= n_windows
    silent = ~(np.real(np.trace(cov, axis1=-2, axis2=-1)) > 0)
    if yN.ndim == 1 and silent:
        raise InsufficientData("sample covariance carries no energy")
    cov[silent] = 0.0
    _, vecs = np.linalg.eigh(cov)
    h = channel_from_noise_subspace(vecs[..., : (w - 1) * L], precoder.F, L)
    h[silent] = np.nan
    return h


def complement_complete_qr(Z):
    """The last dim - k columns of the complete Q of a dim x k window
    matrix Z, or of each member of a stack: LAPACK forms all of Q. The
    reference for the estimator's basis at the identifiability border,
    which applies the reflectors to those columns alone."""
    return np.linalg.qr(Z, mode="complete")[0][..., Z.shape[-1]:]


def subspace_estimate_complete_qr(yN, precoder, settings=EstimatorSettings()):
    """subspace_estimate at the identifiability border, N - w + 1 = wM,
    with the noise basis taken from the complete QR of the windows
    (complement_complete_qr): the reference for the estimator's border
    route. Frames that are finite; a frame without energy gives a NaN
    row, as in subspace_estimate."""
    yN = np.asarray(yN, dtype=np.complex128)
    P, M = precoder.F.shape
    L = P - M
    N = (yN.shape[-1] + L) // P
    w = settings.window_blocks
    dim = w * P - L
    n_windows = N - w + 1
    if n_windows != w * M:
        raise ValueError("not at the identifiability border")
    Z = yN[..., np.arange(dim)[:, None] + P * np.arange(n_windows)]
    silent = ~np.any(yN != 0, axis=-1)
    h = _penalty_minimum(complement_complete_qr(Z), precoder.F, L, w)
    h[silent] = np.nan
    return h


def frame_energy(pre, frames):
    """||x_t||^2 of each frame's transmitted stream, as a (T, 1, 1) array."""
    x = frames.reshape(frames.shape[0], -1, pre.F.shape[1]) @ pre.F.T
    return np.sum(np.abs(x) ** 2, axis=(1, 2))[:, None, None]


def random_psd(n, rng, rank=None):
    """Random Hermitian PSD matrix B^H B, optionally rank-limited."""
    r = n if rank is None else rank
    B = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return B.conj().T @ B


def assert_psd(A, scale_tol=1e-10, msg=""):
    """Eigenvalue floor check: min eig >= -scale_tol * max eig."""
    vals = np.linalg.eigvalsh(A)
    floor = -scale_tol * max(vals[-1], 1e-300)
    assert vals[0] >= floor, f"{msg} min eig {vals[0]:.3e} below {floor:.3e}"


def build_selection_matrices(N, P, L):
    """Build the receive-window selector G and the shift matrices J_l.

    G is (NP-L) x (NP+L) and picks samples L .. NP-1 of the full
    convolution output (one 1 per row). J_l is (NP+L) x NP with ones on
    subdiagonal l, so that sum_l h_l J_l reproduces the tall convolution
    matrix of h.

    Returns (G, [J_0, ..., J_L]).
    """
    if N < 1 or P < 1 or L < 0 or L >= P:
        raise ValueError(f"inconsistent dimensions N={N}, P={P}, L={L}")
    NP = N * P
    G = np.eye(NP - L, NP + L, k=L)
    J = [np.eye(NP + L, NP, k=-l) for l in range(L + 1)]
    return G, J


def block_diag_precoder(F, N):
    """The frame-level precoder I_N kron F mapping s_N to x_N."""
    return np.kron(np.eye(N), F)


def selection_product(h, F, N=1):
    """(sum_l h_l J_l)(I_N kron F) for the taps h, with the J_l of
    build_selection_matrices: the full convolution of h with the precoded
    stream as a matrix, which is T(h) F for one block (N = 1)."""
    _, J = build_selection_matrices(N, F.shape[0], len(h) - 1)
    return sum(hl * Jl for hl, Jl in zip(h, J)) @ block_diag_precoder(F, N)


def crb_fast_dense(h, sN, precoder, d, sigma2, N):
    """The left-null-space bound from a dense QR of the whole of K.

    Same reduced information as crb_fast, D = V^* (I - Q Q^H) V^T / sigma2
    with Q the reduced Q factor of K, and the same rank gate on
    |diag(R)|; returns the inverse of D with the anchor deleted.
    O((NM)^3) time and O((NM)^2) memory.
    """
    P, M = precoder.F.shape
    L = len(h) - 1
    config = SystemConfig(M=M, L=L, N=N, sigma2=sigma2)
    K, _ = build_K(config, precoder, h)
    Q, R = np.linalg.qr(K, mode="reduced")
    diag = np.abs(np.diagonal(R))
    if diag.min() <= RANK_RTOL * diag.max():
        raise RankDeficient(f"K is column-rank-deficient ({diag.min() / diag.max():.3e})")
    x = block_diag_precoder(precoder.F, N) @ sN
    V = np.stack([x[L - k: N * P - k] for k in range(L + 1)])
    D = V.conj() @ (V.T - Q @ (Q.conj().T @ V.T)) / sigma2
    return np.linalg.inv(np.delete(np.delete(D, d, 0), d, 1))


def crb_zp_kron(h, sN, Ftilde, d, sigma2, M, L, N):
    """The zero-padding reference bound through fim_blocks and crb_direct
    on the full NP x NM block-diagonal model I_N kron T(h) Ftilde."""
    P = M + L
    eye_N = np.eye(N)
    K = np.kron(eye_N, selection_product(h, Ftilde))
    K_list = [np.kron(eye_N, np.eye(P, M, k=-l) @ Ftilde) for l in range(L + 1)]
    return crb_direct(fim_blocks(K, K_list, sN, sigma2), d).C


def assembled_fim(blocks):
    """The full (L+1+NM) x (L+1+NM) Fisher information matrix
    [[J00, J01], [J01^H, J11]] of a FimBlocks."""
    top = np.hstack([blocks.J00, blocks.J01])
    bottom = np.hstack([blocks.J01.conj().T, blocks.J11])
    return np.vstack([top, bottom])


@dataclass(frozen=True, eq=False)
class NullSpaceBasis:
    """Left null space of K and its zero padding.

    utilde: (NP-L) x (N-1)L orthonormal basis with K^H utilde = 0.
    ghu: utilde zero-padded by L rows top and bottom ((NP+L) x (N-1)L).
    """

    utilde: np.ndarray
    ghu: np.ndarray


def left_null_basis(K: np.ndarray, L: int) -> NullSpaceBasis:
    """Orthonormal basis of the left null space of K, with its padding.

    K must be tall with full column rank; the basis has
    rows(K) - cols(K) columns (which equals (N-1)L for the frame model),
    ordered by the SVD's descending singular values with column phases
    fixed as in crb_core. ghu pads L zero rows above and below, which is
    exactly G^H applied to the basis.
    """
    K = np.asarray(K, dtype=np.complex128)
    if K.ndim != 2 or K.shape[0] <= K.shape[1]:
        raise ValueError(f"K must be strictly tall, got shape {K.shape}")
    if L < 1:
        raise ValueError(f"channel order must be at least 1, got {L}")
    rows, cols = K.shape
    U, s, _ = np.linalg.svd(K, full_matrices=True)
    if s[cols - 1] <= RANK_RTOL * s[0]:
        raise RankDeficient(
            f"K is column-rank-deficient (sv ratio {s[cols - 1] / s[0]:.3e})"
        )
    utilde = fix_column_phases(U[:, cols:])
    ghu = np.zeros((rows + 2 * L, rows - cols), dtype=np.complex128)
    ghu[L: L + rows] = utilde
    return NullSpaceBasis(utilde=utilde, ghu=ghu)
