"""Subspace estimator tests.

The strongest checks are exact-recovery ones: on a noiseless frame the
sample covariance's noise subspace is exact, so the estimate must match
the true channel to numerical precision once the blind scale is resolved.
"""

import numpy as np
import pytest

from blindcrb import (
    ChannelEstimate,
    EstimatorSettings,
    InsufficientData,
    SolverDegenerate,
    SystemConfig,
    ZeroAnchorTap,
    build_K,
    channel_from_noise_subspace,
    default_anchor,
    generate_symbols,
    left_null_basis,
    make_precoder,
    resolve_ambiguity,
    subspace_estimate,
    synthesize_observation,
)
from helpers import random_unit_channel


def estimate_resolved(cfg, pre, h, yN, settings=EstimatorSettings()):
    d = default_anchor(h)
    est = subspace_estimate(yN, cfg, pre, settings)
    return resolve_ambiguity(est, d, h[d]).h_hat


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
        y = synthesize_observation(cfg, pre, h, s, rng=0, sigma2=0.0).yN
        h_hat = estimate_resolved(cfg, pre, h, y)
        assert np.linalg.norm(h_hat - h) < 1e-6

    def test_exact_with_three_block_windows(self):
        # wider windows need N - w + 1 >= wM windows; N=50 suffices
        cfg = SystemConfig(M=12, L=4, N=50)
        pre = make_precoder(cfg)
        h = random_unit_channel(4, np.random.default_rng(52))
        s = generate_symbols("qpsk", 12, 50, 53).sN
        y = synthesize_observation(cfg, pre, h, s, rng=0, sigma2=0.0).yN
        h_hat = estimate_resolved(
            cfg, pre, h, y, settings=EstimatorSettings(window_blocks=3)
        )
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
        aligned = resolve_ambiguity(ChannelEstimate(direction), d, h[d]).h_hat
        assert np.linalg.norm(aligned - h) < 1e-12


class TestNoisyBehaviour:
    def test_reasonable_at_high_snr(self):
        cfg = SystemConfig(M=12, L=4, N=25, sigma2=1e-3)
        pre = make_precoder(cfg)
        h = random_unit_channel(4, np.random.default_rng(55))
        s = generate_symbols("qpsk", 12, 25, 56).sN
        y = synthesize_observation(cfg, pre, h, s, rng=57).yN
        h_hat = estimate_resolved(cfg, pre, h, y)
        err = np.linalg.norm(h_hat - h) ** 2
        assert 0 < err < 0.1

    def test_error_grows_with_noise(self):
        pre25 = make_precoder(SystemConfig(M=12, L=4, N=25))
        h = random_unit_channel(4, np.random.default_rng(58))
        s = generate_symbols("qpsk", 12, 25, 59).sN
        errs = []
        for sigma2 in (1e-4, 1e-1):
            cfg = SystemConfig(M=12, L=4, N=25, sigma2=sigma2)
            trial_errs = []
            for seed in range(10):
                y = synthesize_observation(cfg, pre25, h, s, rng=seed).yN
                h_hat = estimate_resolved(cfg, pre25, h, y)
                trial_errs.append(np.linalg.norm(h_hat - h) ** 2)
            errs.append(np.mean(trial_errs))
        assert errs[0] < errs[1]

    def test_scale_invariance_after_resolution(self):
        # N is large enough that the windows span the window space; below
        # that the sample covariance is singular and its bottom eigenspace
        # (and hence the estimate) is not well defined
        cfg = SystemConfig(M=4, L=2, N=14, sigma2=1e-3)
        pre = make_precoder(cfg)
        h = random_unit_channel(2, np.random.default_rng(60))
        s = generate_symbols("qpsk", 4, 14, 61).sN
        y = synthesize_observation(cfg, pre, h, s, rng=62).yN
        a = estimate_resolved(cfg, pre, h, y)
        b = estimate_resolved(cfg, pre, h, (3 - 4j) * y)
        np.testing.assert_allclose(a, b, atol=1e-8)


class TestFailureModes:
    def test_zero_frame_rejected(self):
        cfg = SystemConfig(M=6, L=2, N=8)
        pre = make_precoder(cfg)
        y = np.zeros(8 * 8 - 2, dtype=complex)
        with pytest.raises(InsufficientData, match="energy"):
            subspace_estimate(y, cfg, pre)

    def test_window_wider_than_frame(self):
        cfg = SystemConfig(M=6, L=2, N=3)
        pre = make_precoder(cfg)
        y = np.ones(3 * 8 - 2, dtype=complex)
        with pytest.raises(InsufficientData, match="blocks"):
            subspace_estimate(y, cfg, pre, EstimatorSettings(window_blocks=4))

    def test_wrong_length_rejected(self):
        cfg = SystemConfig(M=6, L=2, N=8)
        pre = make_precoder(cfg)
        with pytest.raises(ValueError, match="samples"):
            subspace_estimate(np.ones(10, dtype=complex), cfg, pre)

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
        est = ChannelEstimate(h_hat=(0.7 - 1.1j) * h)
        out = resolve_ambiguity(est, 0, h[0])
        np.testing.assert_allclose(out.h_hat, h, atol=1e-14)

    def test_anchor_exact(self):
        h = np.array([0.3, 0.9 + 0.1j])
        out = resolve_ambiguity(ChannelEstimate(h_hat=2.7j * h), 1, h[1])
        assert out.h_hat[1] == h[1]

    def test_identity_when_already_aligned(self):
        h = np.array([1.0, 2.0, 3.0], dtype=complex)
        out = resolve_ambiguity(ChannelEstimate(h_hat=h.copy()), 2, 3.0)
        np.testing.assert_allclose(out.h_hat, h, atol=1e-15)

    def test_zero_anchor_rejected(self):
        est = ChannelEstimate(h_hat=np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(ZeroAnchorTap):
            resolve_ambiguity(est, 0, 1.0)

    def test_anchor_index_validated(self):
        est = ChannelEstimate(h_hat=np.ones(3, dtype=complex))
        with pytest.raises(ValueError, match="anchor"):
            resolve_ambiguity(est, 3, 1.0)
