"""Subspace estimator tests.

The strongest checks are exact-recovery ones: on a noiseless frame the
sample covariance's noise subspace is exact, so the estimate must match
the true channel to numerical precision once the blind scale is resolved.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindcrb import (
    EstimatorSettings,
    InsufficientData,
    Precoder,
    SolverDegenerate,
    SystemConfig,
    ZeroAnchorTap,
    build_K,
    default_anchor,
    generate_symbols,
    make_precoder,
    resolve_ambiguity,
    subspace_estimate,
    synthesize_observation,
)
from blindcrb.estimator import _complement
from blindcrb.model import draw_noise
from helpers import (
    block_diag_precoder,
    build_selection_matrices,
    channel_from_noise_subspace,
    complement_complete_qr,
    left_null_basis,
    random_unit_channel,
    subspace_estimate_complete_qr,
    subspace_estimate_eigh,
)


def estimate_resolved(pre, h, yN, settings=EstimatorSettings()):
    d = default_anchor(h)
    return resolve_ambiguity(subspace_estimate(yN, pre, settings), d, h[d])


class TestNoiselessRecovery:
    @pytest.mark.parametrize(
        "kind,inner",
        [("cp", "identity"), ("cp", "idft"), ("zp", "identity"), ("zp", "idft")],
    )
    def test_exact_on_clean_frames(self, kind, inner):
        cfg = SystemConfig(M=12, L=4, N=25, redundancy_kind=kind, inner_kind=inner)
        pre = make_precoder(cfg)
        h = random_unit_channel(4, np.random.default_rng(50))
        s = generate_symbols("qpsk", 12, 25, 51).sN
        y = synthesize_observation(pre, h, s, 0.0, 0)
        h_hat = estimate_resolved(pre, h, y)
        assert np.linalg.norm(h_hat - h) < 1e-6

    def test_exact_with_three_block_windows(self):
        # wider windows need N - w + 1 >= wM windows; N=50 suffices
        cfg = SystemConfig(M=12, L=4, N=50)
        pre = make_precoder(cfg)
        h = random_unit_channel(4, np.random.default_rng(52))
        s = generate_symbols("qpsk", 12, 50, 53).sN
        y = synthesize_observation(pre, h, s, 0.0, 0)
        h_hat = estimate_resolved(pre, h, y, settings=EstimatorSettings(window_blocks=3))
        assert np.linalg.norm(h_hat - h) < 1e-6

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
            subspace_estimate(y, pre, EstimatorSettings(window_blocks=4))

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


def noisy_stack(kind, inner, N, S=4, seed=70, M=4, L=2):
    """An M x L precoder (M=4, L=2 by default) and one frame's
    (S, NP - L) stack of noisy copies, noise variances 1e-1 down to
    1e-4."""
    rng = np.random.default_rng(seed)
    custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
    cfg = SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom if kind == "custom" else None,
    )
    pre = make_precoder(cfg)
    h = random_unit_channel(L, rng)
    clean = synthesize_observation(pre, h, generate_symbols("qpsk", M, N, rng).sN, 0.0, None)
    noise = draw_noise(clean.size, rng)
    return pre, clean + np.sqrt(np.logspace(-1, -4, S) / 2)[:, None] * noise


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
    """A stack gives, member by member, what one item gives, and a failed
    member gives NaN without touching the others."""

    @pytest.mark.parametrize("w", [2, 3])
    @pytest.mark.parametrize("N", [8, 25])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_stack_equals_items(self, kind, inner, N, w):
        pre, Y = noisy_stack(kind, inner, N)
        settings = EstimatorSettings(window_blocks=w)
        H = subspace_estimate(Y, pre, settings)
        assert H.shape == (len(Y), 3)
        for y, row in zip(Y, H):
            assert np.array_equal(subspace_estimate(y, pre, settings), row)
        rng = np.random.default_rng(N + w)
        shape = (3, w * pre.F.shape[0] - 2, 2)
        bases = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        stacked = channel_from_noise_subspace(bases, pre.F, 2)
        for basis, row in zip(bases, stacked):
            assert np.array_equal(channel_from_noise_subspace(basis, pre.F, 2), row)

    def test_zero_frame_gives_nan_row_alone(self):
        pre, Y = noisy_stack("cp", "idft", 25)
        Y[1] = 0
        H = subspace_estimate(Y, pre)
        assert np.isnan(H[1]).all()
        for s in (0, 2, 3):
            assert np.array_equal(subspace_estimate(Y[s], pre), H[s])

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

    def test_batch_failures_raise(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=3))
        with pytest.raises(InsufficientData, match="blocks"):
            subspace_estimate(np.ones((2, 22), dtype=complex), pre, EstimatorSettings(4))
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 2, 21), dtype=complex), pre)
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 21), dtype=complex), pre)

    # Empty stacks at M=12, L=4 on either route: N=25 is the QR border,
    # N=100 the covariance eigh.
    @pytest.mark.parametrize("kind,M,L,N,lead", [
        pytest.param("cp", 4, 2, 25, (2, 3), id="cp"),
        pytest.param("zp", 4, 2, 25, (2, 3), id="zp"),
        pytest.param("zp", 12, 4, 25, (0,), id="zp-empty-N25"),
        pytest.param("zp", 12, 4, 100, (2, 0), id="zp-empty-N100"),
    ])
    def test_any_leading_axes(self, kind, M, L, N, lead):
        pre, Y = noisy_stack(kind, "idft", N, S=6, M=M, L=L)
        Y = Y[: math.prod(lead)]
        H = subspace_estimate(Y.reshape(lead + Y.shape[-1:]), pre)
        assert H.shape == lead + (L + 1,)
        assert np.array_equal(H, subspace_estimate(Y, pre).reshape(H.shape))


# (N, w) with N - w + 1 = wM at M=12: the estimator's identifiability
# border, where the noise subspace is the complement of the windows' span.
BORDER = [(25, 2), (38, 3)]
# Largest distance between the border route's unit-norm estimate and the
# eigh route's, after phase alignment: 2.6e-12 measured over 20 channels x
# 7 noise levels of each case of test_qr_route_agrees_with_eigh_route, so
# this leaves a factor of about 40.
BORDER_TOL = 1e-10
# The border basis against complement_complete_qr's, which differs from
# it only in rounding: over 600 draws of border_stacks' configurations at noise
# variances 1 down to 1e-6, the projectors differed by at most 1.0e-15
# and the phase-aligned unit-norm estimates by at most 1.1e-14.
PROJECTOR_TOL = 1e-14
COMPLETE_QR_TOL = 1e-12


@st.composite
def border_stacks(draw):
    """(precoder, w, stack) at the identifiability border N = wM + w - 1:
    M=12, L=4 at w=2 (N=25) or w=3 (N=38), or small M and L, under
    cp/zp/custom x identity/IDFT. The stack holds 0 to 4 noisy copies of
    one frame, any of them zeroed (a failed frame)."""
    w = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        M, L = 12, 4
    else:
        M = draw(st.integers(2, 6))
        L = draw(st.integers(1, min(3, M - 1)))
    N = w * M + w - 1
    kind = draw(st.sampled_from(["cp", "zp", "custom"]))
    inner = draw(st.sampled_from(["identity", "idft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
    pre = make_precoder(SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom if kind == "custom" else None,
    ))
    h = random_unit_channel(L, rng)
    sN = generate_symbols("qpsk", M, N, rng).sN
    clean = synthesize_observation(pre, h, sN, 0.0, None)
    size = draw(st.integers(0, 4))
    sigma2 = draw(st.lists(
        st.sampled_from([1.0, 1e-2, 1e-4, 1e-6]), min_size=size, max_size=size
    ))
    Y = clean + np.sqrt(np.array(sigma2)[:, None] / 2) * draw_noise(
        (len(sigma2), clean.size), rng
    )
    Y[draw(st.lists(st.booleans(), min_size=len(Y), max_size=len(Y)))] = 0
    return pre, w, Y


class TestBorderRoute:
    """At the border the estimator takes the noise subspace from one
    stacked QR of the windows; everywhere else from the covariance eigh
    that helpers.subspace_estimate_eigh keeps as the reference."""

    @pytest.mark.parametrize("N,w", BORDER)
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_qr_route_agrees_with_eigh_route(self, kind, inner, N, w):
        pre, Y = noisy_stack(kind, inner, N, S=7, M=12, L=4)
        settings = EstimatorSettings(window_blocks=w)
        got = subspace_estimate(Y, pre, settings)
        ref = subspace_estimate_eigh(Y, pre, settings)
        phase = np.sum(ref.conj() * got, axis=-1)
        aligned = got * (phase.conj() / np.abs(phase))[:, None]
        assert np.max(np.linalg.norm(aligned - ref, axis=-1)) < BORDER_TOL

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(border_stacks())
    def test_border_route_agrees_with_complete_qr(self, case):
        # The basis from the reflectors spans what complete QR's last
        # columns span; the estimate matches complete QR's up to rounding
        # and the blind phase (not to the byte: LAPACK applies the
        # reflectors in blocks); a member gets its row alone.
        pre, w, Y = case
        P, M = pre.F.shape
        L = P - M
        dim, n = w * P - L, w * M
        windows = Y[..., P * np.arange(n)[:, None] + np.arange(dim)]
        got = _complement(windows)
        ref = complement_complete_qr(windows.swapaxes(-1, -2))
        assert got.shape == ref.shape == (len(Y), dim, (w - 1) * L)
        projectors = [B @ B.conj().swapaxes(-1, -2) for B in (got, ref)]
        assert np.all(np.abs(projectors[0] - projectors[1]) <= PROJECTOR_TOL)
        settings_ = EstimatorSettings(window_blocks=w)
        H = subspace_estimate(Y, pre, settings_)
        ref = subspace_estimate_complete_qr(Y, pre, settings_)
        assert H.shape == ref.shape == (len(Y), L + 1)
        failed = ~np.any(Y != 0, axis=-1)
        assert np.isnan(H[failed]).all() and np.isnan(ref[failed]).all()
        phase = np.sum(ref[~failed].conj() * H[~failed], axis=-1)
        aligned = H[~failed] * (phase.conj() / np.abs(phase))[:, None]
        assert np.all(np.linalg.norm(aligned - ref[~failed], axis=-1) <= COMPLETE_QR_TOL)
        for y, row, bad in zip(Y, H, failed):
            if bad:
                with pytest.raises(InsufficientData):
                    subspace_estimate(y, pre, settings_)
            else:
                assert subspace_estimate(y, pre, settings_).tobytes() == row.tobytes()

    @pytest.mark.parametrize(
        "N,w,qr_calls", [(25, 2, 1), (38, 3, 1), (24, 2, 0), (26, 2, 0), (40, 3, 0)]
    )
    def test_qr_only_at_the_border(self, monkeypatch, N, w, qr_calls):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        pre, Y = noisy_stack("cp", "idft", N, S=3, M=12, L=4)
        subspace_estimate(Y, pre, EstimatorSettings(window_blocks=w))
        assert len(calls) == qr_calls

    @pytest.mark.parametrize("N,w", [(8, 2), (24, 2), (26, 2), (40, 3), (100, 2)])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_eigh_route_off_the_border(self, kind, inner, N, w):
        pre, Y = noisy_stack(kind, inner, N, S=7, M=12, L=4)
        settings = EstimatorSettings(window_blocks=w)
        got = subspace_estimate(Y, pre, settings)
        assert got.tobytes() == subspace_estimate_eigh(Y, pre, settings).tobytes()

    # Off the border too: the covariance route's copy of the windows keeps
    # each member's windows contiguous, as the border route's view does.
    @pytest.mark.parametrize("N,w", BORDER + [(26, 2), (40, 3), (100, 2)])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_stack_member_equals_frame_alone(self, kind, N, w):
        pre, Y = noisy_stack(kind, "idft", N, S=6, M=12, L=4)
        settings = EstimatorSettings(window_blocks=w)
        H = subspace_estimate(Y.reshape(2, 3, -1), pre, settings).reshape(6, -1)
        for y, row in zip(Y, H):
            assert subspace_estimate(y, pre, settings).tobytes() == row.tobytes()


class TestUnusableFrames:
    """Both routes take and refuse the same frames. A frame with a sample
    that is not finite, or without energy, fails alone: InsufficientData
    given alone, a NaN row in a stack. A frame scaled far from unit size
    gives its unscaled estimate. No case warns (the suite makes
    RuntimeWarning an error) or touches the other rows of its stack."""

    @staticmethod
    def spoil(y, bad):
        if bad == "zero":
            y[:] = 0.0
        else:
            y[7] = {"inf": np.inf, "nan": complex(0.0, np.nan)}[bad]

    @pytest.mark.parametrize("bad,message", [
        ("inf", "^frame has samples that are not finite$"),
        ("nan", "^frame has samples that are not finite$"),
        ("zero", "^frame carries no energy$"),
    ])
    @pytest.mark.parametrize("N", [25, 100])
    def test_alone_raises(self, N, bad, message):
        pre, Y = noisy_stack("zp", "idft", N, S=1, M=12, L=4)
        self.spoil(Y[0], bad)
        with pytest.raises(InsufficientData, match=message):
            subspace_estimate(Y[0], pre)

    @pytest.mark.parametrize("bad", ["inf", "nan", "zero"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_nan_row_in_a_stack(self, N, bad):
        pre, Y = noisy_stack("zp", "idft", N, S=4, M=12, L=4)
        self.spoil(Y[2], bad)
        H = subspace_estimate(Y, pre)
        assert np.isnan(H[2]).all()
        for s in (0, 1, 3):
            assert subspace_estimate(Y[s], pre).tobytes() == H[s].tobytes()

    @staticmethod
    def scaled(N, scale):
        pre, Y = noisy_stack("zp", "idft", N, S=4, M=12, L=4)
        H = subspace_estimate(Y, pre)
        Y[2] *= scale
        return H, subspace_estimate(Y, pre)

    @pytest.mark.parametrize("scale", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_power_of_two_keeps_the_bytes(self, N, scale):
        H, G = self.scaled(N, scale)
        assert G.tobytes() == H.tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e-170], ids=["1e160", "1e-170"])
    @pytest.mark.parametrize("N", [25, 100])
    def test_extreme_scale_keeps_the_estimate(self, N, scale):
        H, G = self.scaled(N, scale)
        assert G[[0, 1, 3]].tobytes() == H[[0, 1, 3]].tobytes()
        assert np.isfinite(G[2]).all()
        assert np.linalg.norm(G[2] - H[2]) < 1e-13


class TestSettings:
    def test_defaults(self):
        s = EstimatorSettings()
        assert s.window_blocks == 2

    @pytest.mark.parametrize("kwargs", [dict(window_blocks=1)])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            EstimatorSettings(**kwargs)


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
        for d in (3, 1.5, True, False):
            with pytest.raises(ValueError, match=f"^anchor index {d} outside 0..2$"):
                resolve_ambiguity(np.ones(3, dtype=complex), d, 1.0)

    @pytest.mark.parametrize(
        "anchor,message",
        [
            (0.0, "estimated anchor tap magnitude 0.000e+00 below 1e-12"),
            (1e-13, "estimated anchor tap magnitude 1.000e-13 below 1e-12"),
            (np.nan, "estimated anchor tap (nan+0j) is not finite"),
            (complex(0, np.inf), "estimated anchor tap infj is not finite"),
        ],
    )
    def test_row_messages(self, anchor, message):
        with pytest.raises(ZeroAnchorTap) as exc:
            resolve_ambiguity(np.array([1.0, anchor], dtype=complex), 1, 1.0)
        assert str(exc.value) == message

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
        for d in (3, 1.5, True, False):
            with pytest.raises(ValueError, match=f"^anchor index {d} outside 0..2$"):
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
