"""Shared builders for randomized test instances, and the explicit
selection-matrix oracles that build_K's factors are checked against."""

import numpy as np

from blindcrb import (
    SystemConfig,
    generate_symbols,
    make_precoder,
)


def random_unit_channel(L, rng):
    h = (rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)) / np.sqrt(2)
    return h / np.linalg.norm(h)


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
