"""Subspace estimator tests.

The estimator takes its noise basis by one of two routes, the rows of one
table: border, N - w + 1 = wM, where it is the complement of the windows'
span (_complement), checked against the complete QR of the windows; and
covariance, every other N, where it is the eigh of the windows'
covariance, checked byte for byte against helpers.subspace_estimate_eigh.
Each shared property has one body, run over both rows on drawn frames
(`cases`) and on fixed M=12, L=4 frames (`fixed_case`). The draws are
derandomized, and the suite makes any RuntimeWarning an error.
"""

import math
import re
import warnings
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blindcrb import (
    InsufficientData, Precoder, SolverDegenerate, SystemConfig,
    ZeroAnchorTap, build_K, default_anchor, draw_channel, generate_symbols, make_precoder,
    resolve_ambiguity, subspace_estimate, synthesize_observation,
)
from blindcrb.estimator import _complement
from blindcrb.model import draw_noise
from helpers import (
    block_diag_precoder, build_selection_matrices, channel_from_noise_subspace,
    complement_complete_qr, count_qr, left_null_basis, normal_or_zero, random_unit_channel,
    subspace_estimate_complete_qr, subspace_estimate_eigh,
)


def estimate_resolved(pre, h, yN):
    d = default_anchor(h)
    return resolve_ambiguity(subspace_estimate(yN, pre), d, h[d])


class TestNoiselessRecovery:
    def test_exact_subspace_bypass(self):
        # feed the true window-model null space directly: recovery down at
        # machine precision, independent of any covariance estimation
        cfg = SystemConfig(M=6, L=2, N=8)
        pre = make_precoder(cfg)
        h = random_unit_channel(2, np.random.default_rng(54))
        w = 2
        K_w, _ = build_K(SystemConfig(M=6, L=2, N=w), pre, h)
        basis = left_null_basis(K_w, cfg.L)
        direction = channel_from_noise_subspace(basis.utilde, pre.F, cfg.L)
        d = default_anchor(h)
        aligned = resolve_ambiguity(direction, d, h[d])
        assert np.linalg.norm(aligned - h) < 1e-12

    @pytest.mark.parametrize(
        "kind,inner", [("cp", "identity"), ("cp", "idft"), ("zp", "identity"), ("zp", "idft")]
    )
    def test_exact_on_clean_frames(self, kind, inner):
        assert check_recovery(fixed_case(kind, inner, 25, 2, 0))

    def test_exact_with_three_block_windows(self):
        # wider windows need N - w + 1 >= wM windows; N=50 suffices
        assert check_recovery(fixed_case("cp", "idft", 50, 3, 0))


def test_rank_deficient_border_frame_refused():
    # The noiseless border frames of seeds 0 and 1 have 4 x 4 symbol
    # windows of rank 3, and a basis of their windows' complement would put
    # the estimate 15.4 and 0.92 from the taps. The rank gate refuses them,
    # alone and as NaN rows of a stack; seeds 2 and 3 (rank 4) recover and
    # keep their bytes in the stack.
    pre = make_precoder(SystemConfig(M=2, L=1, N=5))
    channel = draw_channel(1, 1)
    Y = np.stack([
        synthesize_observation(pre, channel.h, generate_symbols("qpsk", 2, 5, seed).sN, 0.0, None)
        for seed in range(4)
    ])
    H = subspace_estimate(Y, pre)
    for y in Y[:2]:
        with pytest.raises(InsufficientData, match=r"^windows are rank-deficient \(diag ratio"):
            subspace_estimate(y, pre)
    assert np.isnan(H[:2]).all()
    for y, row in zip(Y[2:], H[2:]):
        assert subspace_estimate(y, pre).tobytes() == row.tobytes()
        aligned = resolve_ambiguity(row, channel.d, channel.h[channel.d])
        assert np.linalg.norm(aligned - channel.h) < 1e-15


class TestNoisyBehaviour:
    def test_reasonable_at_high_snr(self):
        pre = make_precoder(SystemConfig(M=12, L=4, N=25))
        h = random_unit_channel(4, np.random.default_rng(55))
        s = generate_symbols("qpsk", 12, 25, 56).sN
        y = synthesize_observation(pre, h, s, 1e-3, 57)
        h_hat = estimate_resolved(pre, h, y)
        err = np.linalg.norm(h_hat - h) ** 2
        assert 0 < err < 0.1

    def test_error_grows_with_noise(self):
        pre25 = make_precoder(SystemConfig(M=12, L=4, N=25))
        h = random_unit_channel(4, np.random.default_rng(58))
        s = generate_symbols("qpsk", 12, 25, 59).sN
        errs = []
        for sigma2 in (1e-4, 1e-1):
            trial_errs = []
            for seed in range(10):
                y = synthesize_observation(pre25, h, s, sigma2, seed)
                h_hat = estimate_resolved(pre25, h, y)
                trial_errs.append(np.linalg.norm(h_hat - h) ** 2)
            errs.append(np.mean(trial_errs))
        assert errs[0] < errs[1]

    def test_scale_invariance_after_resolution(self):
        # N is large enough that the windows span the window space; below
        # that the sample covariance is singular and its bottom eigenspace
        # (and hence the estimate) is not well defined
        pre = make_precoder(SystemConfig(M=4, L=2, N=14))
        h = random_unit_channel(2, np.random.default_rng(60))
        s = generate_symbols("qpsk", 4, 14, 61).sN
        y = synthesize_observation(pre, h, s, 1e-3, 62)
        a = estimate_resolved(pre, h, y)
        b = estimate_resolved(pre, h, (3 - 4j) * y)
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestFailureModes:
    def test_zero_frame_rejected(self):
        cfg = SystemConfig(M=6, L=2, N=8)
        pre = make_precoder(cfg)
        y = np.zeros(8 * 8 - 2, dtype=complex)
        with pytest.raises(InsufficientData, match="energy"):
            subspace_estimate(y, pre)

    def test_window_wider_than_frame(self):
        cfg = SystemConfig(M=6, L=2, N=3)
        pre = make_precoder(cfg)
        y = np.ones(3 * 8 - 2, dtype=complex)
        with pytest.raises(InsufficientData, match="blocks"):
            subspace_estimate(y, pre, window_blocks=4)

    def test_wrong_length_rejected(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones(10, dtype=complex), pre)

    def test_square_precoder_has_no_noise_subspace(self):
        # P = M leaves no redundancy, so the windows' noise subspace is
        # empty, for one frame and for a stack alike
        pre = Precoder(Ftilde=np.eye(4), F=np.eye(4))
        for yN in (np.ones(12), np.ones((2, 12))):
            with pytest.raises(InsufficientData, match="noise subspace is empty"):
                subspace_estimate(yN, pre)

    def test_degenerate_penalty_detected(self):
        # an all-zero "noise vector" gives a zero penalty matrix: no
        # isolated minimizer
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        with pytest.raises(SolverDegenerate):
            channel_from_noise_subspace(np.zeros((14, 1)), pre.F, 2)


@dataclass(frozen=True)
class Case:
    """Taps h, a QPSK frame sN sent with the precoder pre, its noiseless
    received frame clean and a stack Y of noisy copies, in windows of
    window_blocks blocks."""

    pre: Precoder
    window_blocks: int
    h: np.ndarray
    sN: np.ndarray
    clean: np.ndarray
    Y: np.ndarray

    def estimate(self, yN):
        return subspace_estimate(yN, self.pre, self.window_blocks)


def make_case(M, L, N, w, kind, inner, rng, sigma2, zeroed=()):
    """A Case of M x L blocks, N of them, with cp, zp or a random custom
    redundancy under an identity, IDFT or random custom inner precoder, and
    one noisy copy per noise variance in sigma2, zeroed where zeroed says."""
    def custom(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    pre = make_precoder(SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom(M + L, M) if kind == "custom" else None,
        custom_inner=custom(M, M) if inner == "custom" else None,
    ))
    h = random_unit_channel(L, rng)
    sN = generate_symbols("qpsk", M, N, rng).sN
    clean = synthesize_observation(pre, h, sN, 0.0, None)
    sigma2 = np.asarray(sigma2, dtype=float)
    Y = clean + np.sqrt(sigma2[:, None] / 2) * draw_noise((sigma2.size, clean.size), rng)
    Y[np.asarray(zeroed, dtype=bool)] = 0
    return Case(pre, w, h, sN, clean, Y)


class TestPenalty:
    """The estimator's penalty on a basis that is not a null space,
    against the dense penalty sum_u |u^H K_w(h)|^2 built from explicit
    selection, shift and block-precoder matrices."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_smallest_eigenvector_of_dense_penalty(self, kind, inner, w):
        M, L = 4, 2
        cfg = SystemConfig(M=M, L=L, N=w, redundancy_kind=kind, inner_kind=inner)
        pre = make_precoder(cfg)
        P = cfg.P
        G, J = build_selection_matrices(w, P, L)
        X = block_diag_precoder(pre.F, w)
        rng = np.random.default_rng(10 * w + len(kind + inner))
        U = rng.standard_normal((w * P - L, 3)) + 1j * rng.standard_normal((w * P - L, 3))
        # row l of A stacks K_l^H u over the basis vectors u
        A = np.stack([((G @ Jl @ X).conj().T @ U).ravel() for Jl in J])
        vals, vecs = np.linalg.eigh(A @ A.conj().T)
        assert vals[1] - vals[0] > 1e-3 * vals[-1]
        ref = vecs[:, 0]
        h = channel_from_noise_subspace(U, pre.F, L)
        phase = np.vdot(h, ref)
        assert np.linalg.norm(h * phase / abs(phase) - ref) < 1e-10


class TestStacks:
    """A stack of noise bases gives, member by member, what one basis
    gives, and a failed member gives NaN without touching the others."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("N", [8, 25])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_stack_equals_items(self, kind, inner, N, w):
        pre = make_case(4, 2, N, w, kind, inner, np.random.default_rng(70), []).pre
        rng = np.random.default_rng(N + w)
        shape = (3, w * pre.F.shape[0] - 2, 2)
        bases = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked = channel_from_noise_subspace(bases, pre.F, 2)
        for basis, row in zip(bases, stacked):
            assert np.array_equal(channel_from_noise_subspace(basis, pre.F, 2), row)

    @pytest.mark.parametrize("bad", ["zero"])
    def test_degenerate_basis_gives_nan_row_alone(self, bad):
        # a zero basis gives a zero penalty, which has no isolated minimum
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        bases = np.random.default_rng(71).standard_normal((3, 14, 2)) + 0j
        bases[2] = 0
        H = channel_from_noise_subspace(bases, pre.F, 2)
        assert np.isnan(H[2]).all()
        for s in (0, 1):
            assert np.array_equal(channel_from_noise_subspace(bases[s], pre.F, 2), H[s])
        with pytest.raises(SolverDegenerate):
            channel_from_noise_subspace(bases[2], pre.F, 2)

    def test_zero_frame_gives_nan_row_alone(self):
        check_unusable(fixed_case("cp", "idft", 25, 2, 4, M=4, L=2), 1, "zero", 0)

    # Empty stacks at M=12, L=4 on either route: N=25 is the QR border,
    # N=100 the covariance eigh.
    @pytest.mark.parametrize("kind,M,L,N,lead", [
        pytest.param("cp", 4, 2, 25, (2, 3), id="cp"),
        pytest.param("zp", 4, 2, 25, (2, 3), id="zp"),
        pytest.param("zp", 12, 4, 25, (0,), id="zp-empty-N25"),
        pytest.param("zp", 12, 4, 100, (2, 0), id="zp-empty-N100"),
    ])
    def test_any_leading_axes(self, kind, M, L, N, lead):
        case = fixed_case(kind, "idft", N, 2, 6, M=M, L=L)
        check_stack(replace(case, Y=case.Y[: math.prod(lead)]), lead)

    def test_batch_failures_raise(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=3))
        with pytest.raises(InsufficientData, match="blocks"):
            subspace_estimate(np.ones((2, 22), dtype=complex), pre, 4)
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 2, 21), dtype=complex), pre)
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 21), dtype=complex), pre)


# Largest distance between the border route's unit-norm estimate and the
# eigh route's, after phase alignment, on the fixed M=12, L=4 border frames:
# 2.6e-12 measured over 20 channels x 7 noise levels of each. The eigh's
# error grows as cond(Z)^2 (it reached 5.7e-11 over 786 draws of `cases`
# at M=12, L=4, custom precoders at noise variance 1 the worst), so drawn
# cases are held to their complete-QR oracle instead, whose error grows as
# cond(Z).
BORDER_TOL = 1e-10
# The border basis against complement_complete_qr's, which differs from
# it only in rounding: over 600 border draws without custom inner precoders
# at noise variances 1 down to 1e-6, the projectors differed by at most
# 1.0e-15 and the phase-aligned unit-norm estimates by at most 1.1e-14.
PROJECTOR_TOL = 1e-14
COMPLETE_QR_TOL = 1e-12


def aligned_distance(H, ref):
    """Largest distance of H's rows, turned to ref's blind phase, from ref's."""
    phase = np.sum(ref.conj() * H, axis=-1)
    aligned = H * (phase.conj() / np.abs(phase))[..., None]
    return np.max(np.linalg.norm(aligned - ref, axis=-1), initial=0.0)


def agrees_with_complete_qr(case, H):
    # The basis from the reflectors spans what complete QR's last columns
    # span; the estimate matches complete QR's up to rounding and the blind
    # phase (not to the byte: LAPACK applies the reflectors in blocks).
    (P, M), w, Y = case.pre.F.shape, case.window_blocks, case.Y
    L = P - M
    dim, n = w * P - L, w * M
    windows = Y[..., P * np.arange(n)[:, None] + np.arange(dim)]
    bases = _complement(windows)[0], complement_complete_qr(windows.swapaxes(-1, -2))
    assert bases[0].shape == bases[1].shape == (len(Y), dim, (w - 1) * L)
    projectors = [B @ B.conj().swapaxes(-1, -2) for B in bases]
    assert np.all(np.abs(projectors[0] - projectors[1]) <= PROJECTOR_TOL)
    ref = subspace_estimate_complete_qr(Y, case.pre, case.window_blocks)
    usable = np.any(Y != 0, axis=-1)
    assert np.isnan(ref[~usable]).all()
    assert aligned_distance(H[usable], ref[usable]) <= COMPLETE_QR_TOL


def agrees_with_eigh(case, H):
    assert H.tobytes() == subspace_estimate_eigh(case.Y, case.pre, case.window_blocks).tobytes()


# The noise-basis routes of subspace_estimate, each with the check of the
# estimates H of case.Y against its oracle.
ROWS = {"border": agrees_with_complete_qr, "covariance": agrees_with_eigh}


def row_property(max_examples=40):
    """A property of every row, its body drawing from st.data()."""
    examples = settings(derandomize=True, deadline=None, max_examples=max_examples)
    return lambda body: pytest.mark.parametrize("row", ROWS)(examples(given(st.data())(body)))


@st.composite
def cases(draw, row, min_size=0, max_size=4):
    """A Case of the row: M=12, L=4, or M in 2..6 with L in 1..min(3, M-1);
    w in {2, 3}; N = wM + w - 1 on the border row, any other N from w to
    twice that on the covariance row; cp, zp or custom redundancy under an
    identity, IDFT or custom inner precoder; min_size to max_size noisy
    copies at noise variances 1 down to 1e-6, any of them zeroed."""
    w = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        M, L = 12, 4
    else:
        M = draw(st.integers(2, 6))
        L = draw(st.integers(1, min(3, M - 1)))
    border = w * M + w - 1
    N = border if row == "border" else draw(st.integers(w, 2 * border).filter(border.__ne__))
    kind = draw(st.sampled_from(["cp", "zp", "custom"]))
    inner = draw(st.sampled_from(["identity", "idft", "custom"]))
    size = draw(st.integers(min_size, max_size))
    sigma2 = draw(st.lists(st.sampled_from([1.0, 1e-2, 1e-4, 1e-6]), min_size=size, max_size=size))
    zeroed = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return make_case(M, L, N, w, kind, inner, rng, sigma2, zeroed)


def check_recovery(case):
    # Where the frame's wM x (N - w + 1) symbol windows have full row rank
    # (so on or above the border), noiseless windows span the signal
    # subspace and the resolved estimate is the taps. On the border, where
    # they are square, rank-deficient ones are refused (see
    # test_rank_deficient_border_frame_refused); elsewhere they are
    # skipped. Returns whether the frame was checked.
    M, w = case.pre.F.shape[1], case.window_blocks
    n = case.sN.size // M - w + 1
    symbol_windows = case.sN[np.arange(w * M)[:, None] + M * np.arange(n)]
    if np.linalg.matrix_rank(symbol_windows) < w * M:
        if n == w * M:
            with pytest.raises(InsufficientData, match="^windows are rank-deficient"):
                case.estimate(case.clean)
        return n == w * M
    d = default_anchor(case.h)
    h_hat = resolve_ambiguity(case.estimate(case.clean), d, case.h[d])
    assert np.linalg.norm(h_hat - case.h) < 1e-6
    return True


def check_stack(case, lead):
    # A stack with leading axes lead gives each member the bytes of the
    # frame alone, and a zeroed member NaN.
    H = case.estimate(case.Y.reshape(lead + case.Y.shape[-1:]))
    assert H.shape == lead + case.h.shape
    for y, row in zip(case.Y, H.reshape(-1, case.h.size)):
        if np.any(y):
            assert case.estimate(y).tobytes() == row.tobytes()
        else:
            assert np.isnan(row).all()


NOT_FINITE = "^frame has samples that are not finite$"
# A value that spoils one sample of a frame, or with zero the whole frame.
SPOILERS = {"inf": (np.inf, NOT_FINITE), "-inf": (-np.inf, NOT_FINITE),
            "nan": (complex(0.0, np.nan), NOT_FINITE), "zero": (0.0, "^frame carries no energy$")}


def check_unusable(case, member, bad, where):
    # A frame with a sample that is not finite, or without energy, raises
    # alone; in a stack its row is NaN and the others keep their bytes.
    value, message = SPOILERS[bad]
    Y = case.Y.copy()
    Y[member, where % Y.shape[-1] if value else slice(None)] = value
    with pytest.raises(InsufficientData, match=message):
        case.estimate(Y[member])
    G, H = case.estimate(Y), case.estimate(case.Y)
    assert np.isnan(G[member]).all()
    others = np.arange(len(Y)) != member
    assert G[others].tobytes() == H[others].tobytes()


def check_scaling(case, member, k, scales=(1e160, 1e-170)):
    # A member times 2^k keeps the stack's bytes, and times each of scales
    # it gives its bytes times that number's mantissa and leaves the other
    # rows' bytes: its size costs nothing beyond the rounding of the
    # product. Returns how far those estimates lie from the member's own.
    H = case.estimate(case.Y)
    Y = case.Y.copy()
    Y[member] *= 2.0**k
    assert case.estimate(Y).tobytes() == H.tobytes()
    distance = 0.0
    for scale in scales:
        Y[member] = scale * case.Y[member]
        G = case.estimate(Y)
        assert np.delete(G, member, 0).tobytes() == np.delete(H, member, 0).tobytes()
        Y[member] = np.frexp(scale)[0] * case.Y[member]
        assert G.tobytes() == case.estimate(Y).tobytes()
        distance = max(distance, np.linalg.norm(G[member] - H[member]))
    return distance


@row_property()
def test_noiseless_recovery(row, data):
    assume(check_recovery(data.draw(cases(row, max_size=0))))


@row_property(max_examples=60)
def test_agrees_with_oracle(row, data):
    case = data.draw(cases(row))
    ROWS[row](case, case.estimate(case.Y))


@row_property()
def test_stack_member_equals_frame_alone(row, data):
    case = data.draw(cases(row))
    S = len(case.Y)
    leads = [(S,)] + [(a, S // a) for a in (1, 2, 3) if S % a == 0]
    check_stack(case, data.draw(st.sampled_from(leads)))


@row_property()
def test_unusable_frame_fails_alone(row, data):
    case = data.draw(cases(row, min_size=1))
    member = data.draw(st.integers(0, len(case.Y) - 1))
    bad, where = data.draw(st.sampled_from(sorted(SPOILERS))), data.draw(st.integers(0, 10**6))
    check_unusable(case, member, bad, where)


@row_property()
def test_power_of_two_keeps_the_bytes(row, data):
    case = data.draw(cases(row, min_size=1))
    member = data.draw(st.integers(0, len(case.Y) - 1))
    k = data.draw(st.sampled_from([-1000, -600, -7, 9, 600, 1000]))
    assume(normal_or_zero(2.0**k * case.Y[member]))
    check_scaling(case, member, k)


def fixed_case(kind, inner, N, w, S, M=12, L=4):
    """S noisy copies of one M x L frame, noise variances 1e-1 down to 1e-4."""
    return make_case(M, L, N, w, kind, inner, np.random.default_rng(70), np.logspace(-1, -4, S))


# (N, w) with N - w + 1 = wM at M=12: the border row's fixed frames.
BORDER = [(25, 2), (38, 3)]


class TestBorderRoute:
    """Each row's oracle and stack bytes on fixed M=12, L=4 frames."""

    @pytest.mark.parametrize(
        "N,w,qr_calls", [(25, 2, 1), (38, 3, 1), (24, 2, 0), (26, 2, 0), (40, 3, 0)]
    )
    def test_qr_only_at_the_border(self, monkeypatch, N, w, qr_calls):
        calls = count_qr(monkeypatch)
        case = make_case(12, 4, N, w, "cp", "idft", np.random.default_rng(70), [0.1, 1e-2, 1e-3])
        case.estimate(case.Y)
        assert len(calls) == qr_calls

    @pytest.mark.parametrize("N,w", BORDER)
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_qr_route_agrees_with_eigh_route(self, kind, inner, N, w):
        case = fixed_case(kind, inner, N, w, 7)
        H = case.estimate(case.Y)
        ROWS["border"](case, H)
        eigh = subspace_estimate_eigh(case.Y, case.pre, case.window_blocks)
        assert aligned_distance(H, eigh) < BORDER_TOL

    @pytest.mark.parametrize("N,w", [(8, 2), (24, 2), (26, 2), (40, 3), (100, 2)])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_eigh_route_off_the_border(self, kind, inner, N, w):
        case = fixed_case(kind, inner, N, w, 7)
        ROWS["covariance"](case, case.estimate(case.Y))

    @pytest.mark.parametrize("N,w", BORDER + [(26, 2), (40, 3), (100, 2)])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_stack_member_equals_frame_alone(self, kind, N, w):
        check_stack(fixed_case(kind, "idft", N, w, 6), (2, 3))


class TestUnusableFrames:
    """The usability rule on fixed zp/IDFT frames, N=25 on the border row
    and N=100 on the covariance row."""

    @pytest.mark.parametrize("bad,message", [
        ("inf", NOT_FINITE), ("nan", NOT_FINITE), ("zero", "^frame carries no energy$"),
    ])
    @pytest.mark.parametrize("N", [25, 100])
    def test_alone_raises(self, N, bad, message):
        assert SPOILERS[bad][1] == message
        check_unusable(fixed_case("zp", "idft", N, 2, 1), 0, bad, 7)

    @pytest.mark.parametrize("bad", ["inf", "nan", "zero"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_nan_row_in_a_stack(self, N, bad):
        check_unusable(fixed_case("zp", "idft", N, 2, 4), 2, bad, 7)

    @pytest.mark.parametrize("k", [600, -600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_power_of_two_keeps_the_bytes(self, N, k):
        check_scaling(fixed_case("zp", "idft", N, 2, 4), 2, k, scales=())

    # On or above the border the product moves the estimate by at most
    # 3.5e-14 (measured over every fixed frame there); below it, where
    # one-ulp changes of a frame move the estimate, by up to 2.
    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["1e160", "1e-170"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_extreme_scale_keeps_the_estimate(self, N, scale):
        assert check_scaling(fixed_case("zp", "idft", N, 2, 4), 2, 0, [scale]) < 1e-13


class TestSettings:
    """The estimator's one setting, subspace_estimate's window_blocks."""

    def test_defaults(self):
        # two blocks per window unless told otherwise
        case = fixed_case("cp", "idft", 50, 3, 2)
        default = subspace_estimate(case.Y, case.pre)
        assert default.tobytes() == subspace_estimate(case.Y, case.pre, 2).tobytes()
        assert default.tobytes() != subspace_estimate(case.Y, case.pre, 3).tobytes()

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(window_blocks=1), "need at least 2 blocks per window, got 1"),
            (dict(window_blocks=2.5), "window_blocks must be an integer, got 2.5"),
            (dict(window_blocks=True), "window_blocks must be an integer, got True"),
        ],
        ids=["kwargs0", "2.5", "True"],
    )
    def test_rejects_bad_values(self, kwargs, message):
        pre = make_precoder(SystemConfig(M=4, L=2, N=14))
        with pytest.raises(ValueError, match=f"^{message}$"):
            subspace_estimate(np.ones(14 * 6 - 2), pre, **kwargs)


class TestResolveAmbiguity:
    def test_undoes_complex_scaling(self):
        h = np.array([1.0 + 0.5j, -0.3, 0.2j])
        out = resolve_ambiguity((0.7 - 1.1j) * h, 0, h[0])
        np.testing.assert_allclose(out, h, atol=1e-14)

    def test_anchor_exact(self):
        h = np.array([0.3, 0.9 + 0.1j])
        out = resolve_ambiguity(2.7j * h, 1, h[1])
        assert out[1] == h[1]

    def test_identity_when_already_aligned(self):
        h = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = resolve_ambiguity(h.copy(), 2, 3.0)
        np.testing.assert_allclose(out, h, atol=1e-15)

    def test_zero_anchor_rejected(self):
        with pytest.raises(ZeroAnchorTap):
            resolve_ambiguity(np.array([0.0, 1.0], dtype=complex), 0, 1.0)

    @pytest.mark.parametrize(
        "anchor", [np.nan, np.inf, complex(0, np.nan), complex(-np.inf, 1)]
    )
    def test_nonfinite_anchor_rejected(self, anchor):
        with pytest.raises(ZeroAnchorTap, match="not finite"):
            resolve_ambiguity(np.array([anchor, 1.0], dtype=complex), 0, 1.0)

    def test_anchor_index_validated(self):
        for d in (3, 1.5, True, False, None, "1", 1 + 0j):
            message = f"anchor index {d} outside 0..2"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                resolve_ambiguity(np.ones(3, dtype=complex), d, 1.0)

    @pytest.mark.parametrize(
        "anchor,message",
        [
            (0.0, "estimated anchor tap magnitude 0.000e+00 below 1.000e-12"),
            (1e-13, "estimated anchor tap magnitude 1.000e-13 below 1.000e-12"),
            (np.nan, "estimated anchor tap (nan+0j) is not finite"),
            (complex(0, np.inf), "estimated anchor tap infj is not finite"),
        ],
    )
    def test_row_messages(self, anchor, message):
        with pytest.raises(ZeroAnchorTap) as exc:
            resolve_ambiguity(np.array([1.0, anchor], dtype=complex), 1, 1.0)
        assert str(exc.value) == message

    def test_floor_is_relative_to_the_row(self):
        # 2^-43 is below 1e-12, and so is the row's norm; the anchor is
        # most of that norm, so the row resolves as [1, 2] does.
        row = np.ldexp(np.array([1.0, 2.0]), -43)
        assert np.array_equal(resolve_ambiguity(row, 0, 1.0), [1, 2])
        with pytest.raises(ZeroAnchorTap, match="below 2.000e-25"):
            resolve_ambiguity(np.array([1e-26, 2e-13]), 0, 1.0)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(-60, 60),
        st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
    )
    def test_power_of_two_scaling_gives_the_same_bytes(self, seed, n, k, hd0):
        rng = np.random.default_rng(seed)
        rows = rng.standard_normal((5, n)) + 1j * rng.standard_normal((5, n))
        rows /= np.linalg.norm(rows, axis=-1, keepdims=True)
        d = rng.integers(0, n, 5)
        scaled = np.ldexp(rows.view(np.float64), k).view(np.complex128)
        want = resolve_ambiguity(rows, d, hd0)
        got = resolve_ambiguity(scaled, d, hd0)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        for row, d_r, w in zip(scaled, d, want):
            assert np.array_equal(resolve_ambiguity(row, d_r, hd0).view(np.uint64),
                                  w.view(np.uint64))

    @pytest.mark.parametrize("hd0", [0.4 - 0.3j, np.complex128(-1.2j), 0.7])
    def test_stack_equals_rows(self, hd0):
        rng = np.random.default_rng(31)
        stack = rng.standard_normal((2, 5, 4)) + 1j * rng.standard_normal((2, 5, 4))
        stack *= 10.0 ** rng.uniform(-6, 6, (2, 5, 1))
        out = resolve_ambiguity(stack, 2, hd0)
        rows = np.array([[resolve_ambiguity(r, 2, hd0) for r in s] for s in stack])
        assert np.array_equal(out, rows)
        assert (out[..., 2] == hd0).all()

    @pytest.mark.parametrize(
        "anchor", [0.0, 1e-13, np.nan, np.inf, complex(0, np.nan)]
    )
    def test_failed_anchor_gives_nan_row_alone(self, anchor):
        h = np.array([0.3 + 0.1j, -0.9, 0.2j])
        stack = np.stack([2.0 * h, h, -1j * h])
        stack[1, 1] = anchor
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no division by the bad anchor
            out = resolve_ambiguity(stack, 1, h[1])
        assert np.isnan(out[1]).all()
        for k in (0, 2):
            assert np.array_equal(out[k], resolve_ambiguity(stack[k], 1, h[1]))

    def test_stack_anchor_index_validated(self):
        for d in (3, 1.5, True, False, None, "1", 1 + 0j):
            message = f"anchor index {d} outside 0..2"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                resolve_ambiguity(np.ones((2, 3), dtype=complex), d, 1.0)

    def test_per_row_anchors_equal_rows(self):
        # one anchor index and value per row of a (trial, SNR point) stack,
        # broadcast over the SNR points, as the harness passes them
        rng = np.random.default_rng(32)
        stack = rng.standard_normal((6, 3, 5)) + 1j * rng.standard_normal((6, 3, 5))
        stack *= 10.0 ** rng.uniform(-6, 6, (6, 3, 1))
        d = np.array([0, 4, 2, 2, 1, 3])
        hd0 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        out = resolve_ambiguity(stack, d[:, None], hd0[:, None])
        rows = np.array([
            [resolve_ambiguity(r, d_i, hd0_i) for r in s]
            for s, d_i, hd0_i in zip(stack, d, hd0)
        ])
        assert np.array_equal(out.view(np.uint64), rows.view(np.uint64))
        assert (out[np.arange(6), :, d] == hd0[:, None]).all()

    @pytest.mark.parametrize(
        "d,bad",
        [
            (np.array([0, 3]), 3),
            (np.array([-1, 0]), -1),
            (np.array([0, 1.5]), 1.5),
            (np.array([True, False]), True),
            ([0, True], True),  # a bool in a list, which numpy casts to 1
        ],
    )
    def test_per_row_anchor_index_validated(self, d, bad):
        with pytest.raises(ValueError, match=f"^anchor index {bad} outside 0..2$"):
            resolve_ambiguity(np.ones((2, 3), dtype=complex), d, 1.0)
