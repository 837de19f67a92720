"""Discrete-time baseband model of a redundant block transmission system.

A frame carries N blocks of M information symbols. Each block s(n) is mixed
by a square inner precoder Ftilde (identity for single-carrier, unitary IDFT
for multicarrier), then expanded to P = M + L samples by a tall redundancy
matrix R (cyclic prefix or zero padding), so the transmitted block is
x(n) = R Ftilde s(n). The composite precoder is F = R Ftilde.

The frame passes through an FIR channel h of order L (L+1 taps) and circular
complex Gaussian noise of per-sample variance sigma2 is added (real and
imaginary parts each carry sigma2/2). The receiver discards the first L
samples of the frame, which are corrupted by the unknown previous frame, and
keeps y_N of length NP - L:

    y_N = K s_N + e_N,    K = G H (I_N kron F),

where H is the tall (NP+L) x NP convolution matrix of h, G cuts the first
and last L samples of the full convolution, and s_N stacks the N blocks.
Writing H = sum_l h_l J_l over shift matrices J_l gives the per-tap factors
K_l = G J_l (I_N kron F) with K = sum_l h_l K_l, which the Fisher
information computations build on.

All vectors are 1-D complex128 arrays; matrices are 2-D complex128 unless
they are pure 0/1 selection patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from .crb_core import RANK_RTOL

REDUNDANCY_KINDS = ("cp", "zp", "custom")
INNER_KINDS = ("identity", "idft", "custom")
MODULATIONS = ("qpsk",)


def _as_rng(rng) -> np.random.Generator:
    """Accept either an integer seed or an existing Generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


@dataclass(frozen=True)
class SystemConfig:
    """Static description of one transmission configuration.

    Attributes
    ----------
    M : int
        Symbols per block.
    L : int
        Channel order (the channel has L+1 taps). Must satisfy 1 <= L < M.
    N : int
        Blocks per frame, at least 2.
    sigma2 : float
        Noise variance per received sample, strictly positive.
    redundancy_kind : str
        One of "cp", "zp", "custom".
    inner_kind : str
        One of "identity", "idft", "custom".
    custom_redundancy, custom_inner : ndarray or None
        Explicit matrices for the "custom" kinds; validated by
        make_precoder.
    """

    M: int
    L: int
    N: int
    sigma2: float = 1.0
    redundancy_kind: str = "cp"
    inner_kind: str = "identity"
    custom_redundancy: np.ndarray | None = None
    custom_inner: np.ndarray | None = None

    def __post_init__(self):
        if self.M < 1 or self.L < 1 or self.L >= self.M:
            raise ValueError(
                f"need 1 <= L < M, got M={self.M}, L={self.L}"
            )
        if self.N < 2:
            raise ValueError(f"need at least 2 blocks, got N={self.N}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if self.redundancy_kind not in REDUNDANCY_KINDS:
            raise ValueError(f"unknown redundancy kind {self.redundancy_kind!r}")
        if self.inner_kind not in INNER_KINDS:
            raise ValueError(f"unknown inner precoder kind {self.inner_kind!r}")
        if self.redundancy_kind == "custom" and self.custom_redundancy is None:
            raise ValueError("custom redundancy kind needs custom_redundancy")
        if self.inner_kind == "custom" and self.custom_inner is None:
            raise ValueError("custom inner kind needs custom_inner")

    @property
    def P(self) -> int:
        """Samples per transmitted block, M + L."""
        return self.M + self.L


@dataclass(frozen=True, eq=False)
class Precoder:
    """Inner precoder Ftilde (M x M) and the composite F = R @ Ftilde
    (P x M, full column rank) with the redundancy matrix R."""

    Ftilde: np.ndarray
    F: np.ndarray


@dataclass(frozen=True, eq=False)
class Channel:
    """FIR channel taps with the anchor tap used to fix the blind scale.

    h has L+1 taps and d indexes the anchor tap, which must be nonzero;
    h[d] is the known value the ambiguity resolution pins.
    """

    h: np.ndarray
    d: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 1 or h.size < 2:
            raise ValueError("channel needs a 1-D array of at least 2 taps")
        if not 0 <= self.d < h.size:
            raise ValueError(f"anchor index {self.d} outside 0..{h.size - 1}")
        if h[self.d] == 0:
            raise ValueError("anchor tap must be nonzero")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True, eq=False)
class SymbolFrame:
    """One frame of NM transmitted symbols."""

    sN: np.ndarray


@dataclass(frozen=True, eq=False)
class Observation:
    """Received frame y_N of length NP - L."""

    yN: np.ndarray


def build_redundancy(kind: str, M: int, L: int) -> np.ndarray:
    """Build the tall redundancy matrix R of shape (M+L) x M.

    Parameters
    ----------
    kind : str
        "cp" prepends the last L entries of the block (cyclic prefix);
        "zp" appends L zero samples (zero padding).
    M, L : int
        Block length and redundancy length, 1 <= L < M.

    Returns
    -------
    ndarray
        Complex (M+L) x M matrix of zeros and ones.
    """
    if not 1 <= L < M:
        raise ValueError(f"need 1 <= L < M, got M={M}, L={L}")
    eye = np.eye(M, dtype=np.complex128)
    if kind == "cp":
        return np.vstack([eye[M - L:], eye])
    if kind == "zp":
        return np.vstack([eye, np.zeros((L, M), dtype=np.complex128)])
    raise ValueError(f"cannot build redundancy of kind {kind!r}")


def build_inner_precoder(kind: str, M: int) -> np.ndarray:
    """Build the square inner precoder: identity, or the unitary IDFT with
    entries exp(+2j pi m n / M) / sqrt(M)."""
    if M < 1:
        raise ValueError(f"block length must be positive, got {M}")
    if kind == "identity":
        return np.eye(M, dtype=np.complex128)
    if kind == "idft":
        n = np.arange(M)
        return np.exp(2j * np.pi * np.outer(n, n) / M) / np.sqrt(M)
    raise ValueError(f"cannot build inner precoder of kind {kind!r}")


def _require_full_column_rank(A: np.ndarray, name: str):
    s = np.linalg.svd(A, compute_uv=False)
    if s.size == 0 or s[-1] <= RANK_RTOL * s[0]:
        raise ValueError(f"{name} must have full column rank")


def make_precoder(config: SystemConfig) -> Precoder:
    """Assemble the Precoder for a configuration, validating shapes and rank."""
    if config.redundancy_kind == "custom":
        R = np.asarray(config.custom_redundancy, dtype=np.complex128)
        if R.shape != (config.P, config.M):
            raise ValueError(
                f"custom redundancy must be {config.P}x{config.M}, got {R.shape}"
            )
        _require_full_column_rank(R, "custom redundancy")
    else:
        R = build_redundancy(config.redundancy_kind, config.M, config.L)
    if config.inner_kind == "custom":
        Ftilde = np.asarray(config.custom_inner, dtype=np.complex128)
        if Ftilde.shape != (config.M, config.M):
            raise ValueError(
                f"custom inner precoder must be {config.M}x{config.M}, "
                f"got {Ftilde.shape}"
            )
        _require_full_column_rank(Ftilde, "custom inner precoder")
    else:
        Ftilde = build_inner_precoder(config.inner_kind, config.M)
    F = R @ Ftilde
    _require_full_column_rank(F, "composite precoder")
    return Precoder(Ftilde=Ftilde, F=F)


def build_channel_toeplitz(h: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Build the tall banded Toeplitz convolution matrix of the taps h.

    For taps of order L = len(h) - 1, rows must equal cols + L; entry
    (i, j) = h[i - j] for 0 <= i - j <= L, so applying it to a length-cols
    sequence yields the full convolution.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size < 1:
        raise ValueError("taps must form a nonempty 1-D array")
    L = h.size - 1
    if rows - cols != L:
        raise ValueError(
            f"shape {rows}x{cols} inconsistent with channel order {L}"
        )
    T = np.zeros((rows, cols), dtype=np.complex128)
    idx = np.arange(cols)
    for l in range(L + 1):
        T[idx + l, idx] = h[l]
    return T


def build_K(config: SystemConfig, precoder: Precoder, h: np.ndarray):
    """Build the composite matrix K and its per-tap factors K_l.

    Uses the identity K_l = X[L-l : NP-l, :] with X = I_N kron F (rows of
    the block precoder shifted by the tap lag), so no (NP+L)-sized
    intermediates are formed. Only the dimensions of config are read.

    Returns
    -------
    (K, K_list)
        K is (NP-L) x NM with K = sum_l h[l] * K_list[l]; K_list has
        L+1 entries K_l = G J_l (I_N kron F), read-only views into one
        shared X.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size != config.L + 1:
        raise ValueError(f"expected {config.L + 1} taps, got shape {np.shape(h)}")
    L = config.L
    NP = config.N * config.P
    X = np.kron(np.eye(config.N), precoder.F)
    X.flags.writeable = False
    K_list = [X[L - l: NP - l, :] for l in range(L + 1)]
    K = np.zeros((NP - L, config.N * config.M), dtype=np.complex128)
    for hl, Kl in zip(h, K_list):
        K += hl * Kl
    return K, K_list


def generate_symbols(modulation: str, M: int, N: int, rng) -> SymbolFrame:
    """Draw one frame of N*M unit-power symbols.

    Only "qpsk" is supported: symbols are (+-1 +-j)/sqrt(2), chosen
    uniformly. rng may be an integer seed or a numpy Generator; the same
    seed reproduces the same frame.
    """
    if modulation not in MODULATIONS:
        raise ValueError(f"unsupported modulation {modulation!r}")
    if M < 1 or N < 1:
        raise ValueError(f"frame dimensions must be positive, got M={M}, N={N}")
    gen = _as_rng(rng)
    bits = gen.integers(0, 2, size=(2, N * M))
    sN = ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2)
    return SymbolFrame(sN=sN.astype(np.complex128))


def synthesize_observation(
    config: SystemConfig,
    precoder: Precoder,
    h: np.ndarray,
    sN: np.ndarray,
    rng,
    sigma2: float | None = None,
) -> Observation:
    """Simulate one received frame y_N = K s_N + e_N.

    K s_N is computed as a convolution of the taps with the precoded
    stream, in O(NPL) time without forming K.

    sigma2 overrides the configured noise variance when given; passing 0
    yields the noiseless frame (the config itself must keep sigma2 > 0).
    """
    sN = np.asarray(sN, dtype=np.complex128)
    if sN.shape != (config.N * config.M,):
        raise ValueError(
            f"expected {config.N * config.M} symbols, got shape {sN.shape}"
        )
    var = config.sigma2 if sigma2 is None else sigma2
    if var < 0:
        raise ValueError(f"noise variance must be nonnegative, got {var}")
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size != config.L + 1:
        raise ValueError(f"expected {config.L + 1} taps, got shape {np.shape(h)}")
    # K s_N is the full convolution of h with the precoded stream x_N
    # minus its first and last L samples.
    x = (sN.reshape(config.N, config.M) @ precoder.F.T).ravel()
    y = np.convolve(h, x)[config.L: config.N * config.P]
    if var > 0:
        y = y + np.sqrt(var / 2) * draw_noise(y.size, rng)
    return Observation(yN=y)


def draw_noise(size: int, rng) -> np.ndarray:
    """Circular complex Gaussian noise with unit-variance real and
    imaginary parts; scaled by sqrt(sigma2/2) it has variance sigma2."""
    gen = _as_rng(rng)
    return gen.standard_normal(size) + 1j * gen.standard_normal(size)


def loglik_gradients(
    yN: np.ndarray,
    config: SystemConfig,
    precoder: Precoder,
    h: np.ndarray,
    sN: np.ndarray,
):
    """Conjugate Wirtinger gradients of the log-likelihood.

    With residual e = y_N - K s_N, the derivative with respect to the
    conjugated tap l is s_N^H K_l^H e / sigma2 and with respect to the
    conjugated frame it is K^H e / sigma2.

    Returns (grad_h, grad_s) of lengths L+1 and NM.
    """
    if not config.sigma2 > 0:
        raise ValueError("gradients need strictly positive noise variance")
    yN = np.asarray(yN, dtype=np.complex128)
    sN = np.asarray(sN, dtype=np.complex128)
    K, K_list = build_K(config, precoder, h)
    if yN.shape != (K.shape[0],):
        raise ValueError(f"expected {K.shape[0]} samples, got shape {yN.shape}")
    e = yN - K @ sN
    grad_h = np.array([np.vdot(Kl @ sN, e) for Kl in K_list]) / config.sigma2
    grad_s = K.conj().T @ e / config.sigma2
    return grad_h, grad_s
