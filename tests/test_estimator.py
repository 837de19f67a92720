"""Subspace estimator tests.

The strongest checks are exact-recovery ones: on a noiseless frame the
sample covariance's noise subspace is exact, so the estimate must match
the true channel to numerical precision once the blind scale is resolved.
"""

import warnings

import numpy as np
import pytest

from blindcrb import (
    EstimatorSettings,
    InsufficientData,
    SolverDegenerate,
    SystemConfig,
    ZeroAnchorTap,
    build_K,
    channel_from_noise_subspace,
    default_anchor,
    generate_symbols,
    make_precoder,
    resolve_ambiguity,
    subspace_estimate,
    synthesize_observation,
)
from blindcrb.model import draw_noise
from helpers import left_null_basis, random_unit_channel


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

    def test_empty_noise_basis_rejected(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        with pytest.raises(InsufficientData, match="empty"):
            channel_from_noise_subspace(np.empty((14, 0)), pre.F, 2)

    def test_basis_rows_must_fill_blocks(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        with pytest.raises(ValueError, match="blocks"):
            channel_from_noise_subspace(np.ones((13, 2)), pre.F, 2)

    def test_degenerate_penalty_detected(self):
        # an all-zero "noise vector" gives a zero penalty matrix: no
        # isolated minimizer
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        with pytest.raises(SolverDegenerate):
            channel_from_noise_subspace(np.zeros((14, 1)), pre.F, 2)


def noisy_stack(kind, inner, N, S=4, seed=70):
    """An M=4, L=2 precoder and one frame's (S, NP - L) stack of noisy
    copies, noise variances 1e-1 down to 1e-4."""
    rng = np.random.default_rng(seed)
    M, L = 4, 2
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

    def test_degenerate_basis_gives_nan_row_alone(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=8))
        bases = np.random.default_rng(71).standard_normal((3, 14, 2)) + 0j
        bases[2] = 0
        H = channel_from_noise_subspace(bases, pre.F, 2)
        assert np.isnan(H[2]).all()
        for s in (0, 1):
            assert np.array_equal(channel_from_noise_subspace(bases[s], pre.F, 2), H[s])

    def test_batch_failures_raise(self):
        pre = make_precoder(SystemConfig(M=6, L=2, N=3))
        with pytest.raises(InsufficientData, match="blocks"):
            subspace_estimate(np.ones((2, 22), dtype=complex), pre, EstimatorSettings(4))
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 2, 22), dtype=complex), pre)
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones((2, 21), dtype=complex), pre)


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
        with pytest.raises(ValueError, match="anchor"):
            resolve_ambiguity(np.ones(3, dtype=complex), 3, 1.0)

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
        with pytest.raises(ValueError, match="anchor"):
            resolve_ambiguity(np.ones((2, 3), dtype=complex), 3, 1.0)
