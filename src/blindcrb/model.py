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
Writing H = sum_l h_l J_l over shift matrices J_l gives the uncut per-tap
factors J_l (I_N kron F). They are the package's one builder of the
channel's convolution matrices: _tap_factors builds them, _tap_sum weights
them by the taps, and
* rows L..NP-1 of the factors are K_l = G J_l (I_N kron F), and of their
  tap sum K = sum_l h_l K_l (build_K); the estimator's penalty takes the
  K_l of a w-block window;
* with N = 1 the tap sum is the (P+L) x M block T(h) F that repeats down
  K, which the fast bound's sweep reads, and over the inner precoder it
  is the zero-padding block T(h) Ftilde.
synthesize_observation applies K to a frame as a convolution of the taps
with the precoded stream, with no matrix, and adds the noise: it is the
package's one place that turns noise variances into received frames.
_usable is the package's one test of whether taps or a frame can be
used at all, the exact power of two that scales one, and the stack with
its failed members zeroed: no caller zeroes a member itself.

All vectors are 1-D complex128 arrays; matrices are 2-D complex128 unless
they are pure 0/1 selection patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .crb_core import _J11, RANK_RTOL
from .errors import IllConditioned

REDUNDANCY_KINDS = ("cp", "zp", "custom")
INNER_KINDS = ("identity", "idft", "custom")
MODULATIONS = ("qpsk",)

# The QPSK symbols (2 b0 - 1 + j (2 b1 - 1)) / sqrt(2), indexed by 2 b0 + b1.
_QPSK = (np.array([-1, -1, 1, 1]) + 1j * np.array([-1, 1, -1, 1])) / np.sqrt(2)


def _require_integers(**fields):
    """Raise ValueError naming the first field that is not a Python or
    numpy integer; a bool is not a size, count or seed."""
    for name, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _bools(value) -> list:
    """The bools in a value that a caller passed for a number: the value
    itself if it is a bool, the entries of a bool array, and any bool
    inside a Python list or tuple, which numpy would turn into its value.
    A numeric array is only checked for its dtype."""
    if isinstance(value, (list, tuple)):
        return [found for item in value for found in _bools(item)]
    return list(np.ravel(value)) if np.asarray(value).dtype == bool else []


def _require_positive_sigma2(sigma2: float):
    """The package's one test of a noise variance that scales a bound:
    raise ValueError unless sigma2 is one normal, positive, finite number
    (a Python or numpy scalar, or a 0-d array). A bool is not a noise
    variance, nor is a list or an array of them, and a subnormal one
    would leave the bounds it scales short of bits or out of range."""
    if np.ndim(sigma2) != 0:
        raise ValueError(f"sigma2 must be a single number, got {sigma2}")
    if _bools(sigma2) or not np.finfo(float).smallest_normal <= sigma2 < math.inf:
        raise ValueError(f"sigma2 must be a normal positive finite number, got {sigma2}")


def _anchor_mask(d, n: int) -> np.ndarray:
    """The (..., n) mask of the anchor tap among n taps; d is an index or
    an array of them broadcast over a stack's leading axes, one anchor per
    member. Raises ValueError for an anchor that names no tap: out of
    range, not integral, or a bool (see _bools)."""
    bad = _bools(d)
    d = np.asarray(d)
    bad = bad or d[(d < 0) | (d >= n) | (d != np.floor(d))]
    if len(bad):
        raise ValueError(f"anchor index {bad[0]} outside 0..{n - 1}")
    return np.arange(n) == d[..., None]


def _usable(x, allow_zero: bool = False):
    """The package's one test of taps and frames, and the one place that
    applies it. For each member of a stack along the last axis: whether it
    can be used (every entry finite and, unless allow_zero, one nonzero),
    the exponent e of the power of two that puts its largest real or
    imaginary part, times 2^-e, in [0.5, 1), and the stack to use. That
    is x as a C-ordered complex128 array, x itself when it already is one,
    if every member passes, and otherwise a copy with each failed member
    zeroed, so no product meets it; a caller sets the failed members'
    results NaN, or given a single item raises its typed error."""
    x = np.ascontiguousarray(x, dtype=np.complex128)
    parts = x.view(np.float64)
    # the largest |entry| without an array of them; NaN propagates
    peak = np.maximum(parts.max(axis=-1), -parts.min(axis=-1))
    ok = np.isfinite(peak) & (allow_zero | (peak > 0))
    return ok, np.frexp(peak)[1], x if ok.all() else np.where(ok[..., None], x, 0.0)


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
        A normal positive finite number, by _require_positive_sigma2, and
        read nowhere in the package: functions that need a noise variance
        take it as an argument.
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
        _require_integers(M=self.M, L=self.L, N=self.N)
        if self.M < 1 or self.L < 1 or self.L >= self.M:
            raise ValueError(
                f"need 1 <= L < M, got M={self.M}, L={self.L}"
            )
        if self.N < 2:
            raise ValueError(f"need at least 2 blocks, got N={self.N}")
        _require_positive_sigma2(self.sigma2)
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

    @property
    def zero_padding(self) -> bool:
        """Whether F = [Ftilde; 0]: each block is its inner-precoded
        symbols followed by P - M zero samples. The one test of zero
        padding, whatever kind of redundancy built F."""
        P, M = self.F.shape
        return np.array_equal(self.F, np.vstack([self.Ftilde, np.zeros((P - M, M))]))


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
        if h[_anchor_mask(self.d, h.size)] == 0:
            raise ValueError("anchor tap must be nonzero")
        object.__setattr__(self, "h", h)


@dataclass(frozen=True, eq=False)
class SymbolFrame:
    """One frame of NM transmitted symbols."""

    sN: np.ndarray


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


def _custom_matrix(A, shape: tuple, name: str) -> np.ndarray:
    """A given matrix as complex128, checked to have the given shape and
    full column rank."""
    A = np.asarray(A, dtype=np.complex128)
    if A.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {A.shape}")
    _require_full_column_rank(A, name)
    return A


def make_precoder(config: SystemConfig) -> Precoder:
    """Assemble the Precoder for a configuration, validating shapes and rank."""
    M, P = config.M, config.P
    if config.redundancy_kind == "custom":
        R = _custom_matrix(config.custom_redundancy, (P, M), "custom redundancy")
    else:
        R = build_redundancy(config.redundancy_kind, M, config.L)
    if config.inner_kind == "custom":
        Ftilde = _custom_matrix(config.custom_inner, (M, M), "custom inner precoder")
    else:
        Ftilde = build_inner_precoder(config.inner_kind, M)
    F = R @ Ftilde
    _require_full_column_rank(F, "composite precoder")
    return Precoder(Ftilde=Ftilde, F=F)


def _tap_factors(F: np.ndarray, L: int, N: int) -> list:
    """The L+1 per-tap factors J_l (I_N kron F) of an N-block frame, each
    (NP+L) x NM: read-only views X[L-l : NP+2L-l, :] into one X that pads
    I_N kron F (block diagonal, assigned block by block) with L zero rows
    above and below. Rows L..NP-1 of factor l are K_l; with N = 1, the
    factors' tap sum is T(h) F."""
    P, M = F.shape
    X = np.zeros((N * P + 2 * L, N * M), dtype=np.complex128)
    blocks = np.arange(N)
    X[L: L + N * P].reshape(N, P, N, M)[blocks, :, blocks, :] = F
    X.flags.writeable = False
    return [X[L - l: N * P + 2 * L - l] for l in range(L + 1)]


def _tap_sum(h: np.ndarray, factors) -> np.ndarray:
    """sum_l h[..., l] * factors[l] for one channel's (L+1,) taps or a
    (C, L+1) stack, adding one tap at a time in l order, elementwise, so
    a member of a stack gets the bytes of its channel alone."""
    total = np.zeros(h.shape[:-1] + factors[0].shape, dtype=np.complex128)
    for l, factor in enumerate(factors):
        total += h[..., l, None, None] * factor
    return total


def build_K(config: SystemConfig, precoder: Precoder, h: np.ndarray):
    """Build the composite matrix K and its per-tap factors K_l.

    K_l and K are rows L..NP-1 of _tap_factors' J_l (I_N kron F) and of
    their tap sum H (I_N kron F). Only the dimensions of config are read.

    A tap that is not finite raises IllConditioned, as on every bound
    route: K, and with it the symbol information block J11 = K^H K /
    sigma2, would not be finite. All-zero taps give K = 0, which
    crb_direct refuses at its J11 gate with the same error.

    Returns
    -------
    (K, K_list)
        K is (NP-L) x NM with K = sum_l h[l] * K_list[l]; K_list has
        L+1 entries K_l = G J_l (I_N kron F), read-only views into one
        shared array.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size != config.L + 1:
        raise ValueError(f"expected {config.L + 1} taps, got shape {np.shape(h)}")
    if not _usable(h, allow_zero=True)[0]:
        raise IllConditioned(_J11, math.inf)
    factors = _tap_factors(precoder.F, config.L, config.N)
    rows = slice(config.L, config.N * config.P)
    return _tap_sum(h, factors)[rows], [factor[rows] for factor in factors]


def generate_symbols(modulation: str, M: int, N: int, rng) -> SymbolFrame:
    """Draw one frame of N*M unit-power symbols.

    Only "qpsk" is supported: symbols are (+-1 +-j)/sqrt(2), chosen
    uniformly. rng may be an integer seed or a numpy Generator; the same
    seed reproduces the same frame.
    """
    if modulation not in MODULATIONS:
        raise ValueError(f"unsupported modulation {modulation!r}")
    _require_integers(M=M, N=N)
    if M < 1 or N < 1:
        raise ValueError(f"frame dimensions must be positive, got M={M}, N={N}")
    gen = np.random.default_rng(rng)
    bits = gen.integers(0, 2, size=(2, N * M))
    # bits[0] picks the sign of the real part and bits[1] of the imaginary.
    return SymbolFrame(sN=_QPSK[2 * bits[0] + bits[1]])


def synthesize_observation(
    precoder: Precoder,
    h: np.ndarray,
    sN: np.ndarray,
    sigma2: float | np.ndarray,
    rng,
) -> np.ndarray:
    """Simulate the received frame y_N = K s_N + e_N of length NP - L at
    one noise variance, or at each of a 1-D array of them.

    P and M are read off precoder.F, L = P - M must match the taps, and N
    is read off the symbol count. K s_N is computed as a convolution of
    the taps with the precoded stream, in O(NPL) time without forming K.
    The noise is sqrt(sigma2/2) times one draw_noise of the frame's size
    from rng. Given one variance, returns the (NP - L,) frame; sigma2 = 0
    yields the noiseless frame and draws nothing from rng. Given an
    array, returns one row per variance, (len(sigma2), NP - L): every row
    scales the same unit noise, so row r is the frame that variance r
    alone gives from the same rng, and a row of variance 0 is the
    noiseless frame. Variances must be nonnegative and finite numbers, not
    bools (see _bools).
    """
    variances = np.asarray(sigma2, dtype=np.float64)
    in_range = np.all((0 <= variances) & (variances < math.inf))
    if _bools(sigma2) or variances.ndim > 1 or not in_range:
        raise ValueError(
            f"noise variance must be nonnegative and finite, got {sigma2}"
        )
    P, M = precoder.F.shape
    L = P - M
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim != 1 or h.size != L + 1:
        raise ValueError(f"expected {L + 1} taps, got shape {np.shape(h)}")
    sN = np.asarray(sN, dtype=np.complex128)
    N, rem = divmod(sN.size, M)
    if sN.ndim != 1 or rem != 0 or N < 1:
        raise ValueError(f"expected whole blocks of {M} symbols, got {sN.shape}")
    # K s_N is the full convolution of h with the precoded stream x_N
    # minus its first and last L samples.
    x = (sN.reshape(N, M) @ precoder.F.T).ravel()
    y = np.convolve(h, x)[L: N * P]
    if variances.ndim or variances > 0:
        y = y + np.multiply.outer(np.sqrt(variances / 2), draw_noise(y.size, rng))
    return y


def draw_noise(size: int, rng) -> np.ndarray:
    """Circular complex Gaussian noise with unit-variance real and
    imaginary parts; scaled by sqrt(sigma2/2) it has variance sigma2."""
    gen = np.random.default_rng(rng)
    noise = np.empty(size, dtype=np.complex128)
    noise.real = gen.standard_normal(size)
    noise.imag = gen.standard_normal(size)
    return noise


def loglik_gradients(
    yN: np.ndarray,
    config: SystemConfig,
    precoder: Precoder,
    h: np.ndarray,
    sN: np.ndarray,
    sigma2: float,
):
    """Conjugate Wirtinger gradients of the log-likelihood at variance sigma2.

    With residual e = y_N - K s_N, the derivative with respect to the
    conjugated tap l is s_N^H K_l^H e / sigma2 and with respect to the
    conjugated frame it is K^H e / sigma2.

    Returns (grad_h, grad_s) of lengths L+1 and NM.
    """
    _require_positive_sigma2(sigma2)
    yN = np.asarray(yN, dtype=np.complex128)
    sN = np.asarray(sN, dtype=np.complex128)
    K, K_list = build_K(config, precoder, h)
    if yN.shape != (K.shape[0],):
        raise ValueError(f"expected {K.shape[0]} samples, got shape {yN.shape}")
    e = yN - K @ sN
    grad_h = np.array([np.vdot(Kl @ sN, e) for Kl in K_list]) / sigma2
    grad_s = K.conj().T @ e / sigma2
    return grad_h, grad_s
