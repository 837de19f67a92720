"""Model-layer tests: structured matrix builders, symbol/observation
synthesis, and the Wirtinger log-likelihood gradients.

The independent oracles here are plain time-domain convolution
(np.convolve on the padded block stream) and central finite differences
of a locally defined log-likelihood."""

import numpy as np
import pytest

from blindcrb import (
    Channel,
    SystemConfig,
    build_inner_precoder,
    build_K,
    build_redundancy,
    generate_symbols,
    loglik_gradients,
    make_precoder,
    synthesize_observation,
)
from blindcrb.model import _tap_factors, _tap_sum, _usable, draw_noise
from helpers import (
    SMALLEST_NORMAL,
    SUBNORMAL_SIGMA2,
    block_diag_precoder,
    build_channel_toeplitz,
    build_selection_matrices,
    random_instance,
    random_unit_channel,
)


def conv_stream(F, sN, N):
    """Transmitted sample stream x_N = (I_N kron F) s_N via block reshape."""
    M = F.shape[1]
    return (sN.reshape(N, M) @ F.T).ravel()


def conv_observe(F, h, sN, N):
    """Oracle: full convolution of the stream, first L samples dropped,
    trailing L-sample tail dropped."""
    L = len(h) - 1
    NP = N * F.shape[0]
    return np.convolve(conv_stream(F, sN, N), h)[L:NP]


class TestRedundancy:
    def test_cp_pattern_m4_l2(self):
        R = build_redundancy("cp", 4, 2)
        expected = np.array(
            [
                [0, 0, 1, 0],
                [0, 0, 0, 1],
                [1, 0, 0, 0],
                [0, 1, 0, 0],
                [0, 0, 1, 0],
                [0, 0, 0, 1],
            ],
            dtype=complex,
        )
        np.testing.assert_array_equal(R, expected)

    def test_zp_pattern_m2_l1(self):
        R = build_redundancy("zp", 2, 1)
        np.testing.assert_array_equal(R, np.array([[1, 0], [0, 1], [0, 0]], dtype=complex))

    def test_cp_prepends_block_tail(self):
        rng = np.random.default_rng(3)
        for M, L in [(4, 2), (5, 1), (8, 3), (6, 5)]:
            R = build_redundancy("cp", M, L)
            u = rng.standard_normal(M) + 1j * rng.standard_normal(M)
            x = R @ u
            np.testing.assert_allclose(x[:L], u[M - L:], rtol=0, atol=0)
            np.testing.assert_allclose(x[L:], u, rtol=0, atol=0)

    def test_zp_appends_zeros(self):
        R = build_redundancy("zp", 5, 2)
        u = np.arange(5) + 0j
        x = R @ u
        np.testing.assert_array_equal(x[:5], u)
        np.testing.assert_array_equal(x[5:], 0)

    @pytest.mark.parametrize("M,L", [(4, 4), (4, 5), (3, 0), (0, 1), (-2, 1)])
    def test_rejects_bad_dimensions(self, M, L):
        with pytest.raises(ValueError):
            build_redundancy("cp", M, L)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_redundancy("blocky", 4, 2)


class TestInnerPrecoder:
    def test_identity(self):
        np.testing.assert_array_equal(build_inner_precoder("identity", 3), np.eye(3))

    def test_idft_m2(self):
        W = build_inner_precoder("idft", 2)
        np.testing.assert_allclose(
            W, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15
        )

    @pytest.mark.parametrize("M", [2, 3, 8, 12, 16])
    def test_idft_unitary(self, M):
        W = build_inner_precoder("idft", M)
        np.testing.assert_allclose(W @ W.conj().T, np.eye(M), atol=1e-12)

    def test_idft_sign_convention(self):
        # entry (m, n) must carry the positive exponent
        W = build_inner_precoder("idft", 4)
        assert np.isclose(W[1, 1] * np.sqrt(4), 1j)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            build_inner_precoder("dct", 4)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError, match="block length must be positive, got 0"):
            build_inner_precoder("identity", 0)


class TestChannelToeplitz:
    # The tap sum of the N=1 factors of F = I is T(h) itself.
    def test_identity_channel_is_padded_eye(self):
        h = np.array([1.0, 0.0, 0.0])
        T = _tap_sum(h, _tap_factors(np.eye(5), 2, 1))
        np.testing.assert_array_equal(T[:5], np.eye(5))
        np.testing.assert_array_equal(T[5:], 0)

    def test_tall_two_tap_pattern(self):
        h0, h1 = 0.8 - 0.1j, 0.3 + 0.5j
        T = _tap_sum(np.array([h0, h1]), _tap_factors(np.eye(3), 1, 1))
        expected = np.array(
            [
                [h0, 0, 0],
                [h1, h0, 0],
                [0, h1, h0],
                [0, 0, h1],
            ]
        )
        np.testing.assert_array_equal(T, expected)


def precoder_of(kind, inner, M=5, L=2):
    custom = np.random.default_rng(9).standard_normal((M + L, M)) if kind == "custom" else None
    return make_precoder(
        SystemConfig(M=M, L=L, N=2, redundancy_kind=kind, inner_kind=inner,
                     custom_redundancy=custom)
    )


class TestTapFactors:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_factors_are_shifted_block_precoders(self, kind, inner, N):
        pre = precoder_of(kind, inner)
        P, M = pre.F.shape
        L = P - M
        _, J = build_selection_matrices(N, P, L)
        X = block_diag_precoder(pre.F, N)
        factors = _tap_factors(pre.F, L, N)
        assert len(factors) == L + 1
        for l, factor in enumerate(factors):
            assert factor.shape == (N * P + L, N * M)
            assert not factor.flags.writeable
            np.testing.assert_array_equal(factor, J[l] @ X)

    def test_stacked_tap_sum_is_each_channel_alone(self):
        pre = precoder_of("cp", "idft")
        rng = np.random.default_rng(10)
        hs = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        factors = _tap_factors(pre.F, 2, 3)
        stacked = _tap_sum(hs, factors)
        for h, member in zip(hs, stacked):
            np.testing.assert_array_equal(member, _tap_sum(h, factors))

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_blocks_match_toeplitz_oracle(self, kind, inner):
        # B = T(h) F, the sweep's block, and A = T(h) Ftilde, the
        # zero-padding block, from the N=1 factors.
        pre = precoder_of(kind, inner)
        P, M = pre.F.shape
        L = P - M
        rng = np.random.default_rng(11)
        for _ in range(5):
            h = random_unit_channel(L, rng)
            for G, rows in ((pre.F, P), (pre.Ftilde, M)):
                block = _tap_sum(h, _tap_factors(G, L, 1))
                oracle = build_channel_toeplitz(h, rows + L, rows) @ G
                np.testing.assert_allclose(
                    block, oracle, rtol=0, atol=1e-15 * np.abs(oracle).max()
                )


class TestSelectionMatrices:
    def test_j0_is_padded_identity(self):
        G, J = build_selection_matrices(2, 3, 1)
        np.testing.assert_array_equal(J[0][:6], np.eye(6))
        np.testing.assert_array_equal(J[0][6:], 0)

    def test_tap_sum_reproduces_toeplitz(self):
        rng = np.random.default_rng(5)
        for N, P, L in [(2, 3, 1), (3, 5, 2), (2, 6, 4)]:
            NP = N * P
            h = rng.standard_normal(L + 1) + 1j * rng.standard_normal(L + 1)
            G, J = build_selection_matrices(N, P, L)
            H = build_channel_toeplitz(h, NP + L, NP)
            np.testing.assert_allclose(
                sum(h[l] * J[l] for l in range(L + 1)), H, atol=0
            )
            # and G cuts the first and last L rows
            np.testing.assert_array_equal(G @ H, H[L:NP])

    def test_g_selects_one_sample_per_row(self):
        G, _ = build_selection_matrices(3, 4, 2)
        assert G.shape == (10, 14)
        assert np.sum(G) == 10
        np.testing.assert_array_equal(np.sum(G, axis=1), np.ones(10))
        # rows pick samples L .. NP-1
        cols = np.argmax(G, axis=1)
        np.testing.assert_array_equal(cols, np.arange(2, 12))


class TestBuildK:
    def test_unit_pulse_channel_gives_k0(self):
        cfg = SystemConfig(M=4, L=2, N=3, redundancy_kind="cp")
        pre = make_precoder(cfg)
        h = np.array([1.0, 0.0, 0.0])
        K, K_list = build_K(cfg, pre, h)
        np.testing.assert_array_equal(K, K_list[0])

    def test_tap_sum_identity(self):
        rng = np.random.default_rng(7)
        for kind in ("cp", "zp"):
            cfg, pre, h, _ = random_instance(rng, M=5, L=2, N=3, redundancy_kind=kind)
            K, K_list = build_K(cfg, pre, h)
            np.testing.assert_allclose(
                K, sum(h[l] * K_list[l] for l in range(3)), atol=1e-12
            )

    def test_factors_match_selection_matrix_products(self):
        rng = np.random.default_rng(8)
        cfg, pre, h, _ = random_instance(rng, M=4, L=2, N=3, inner_kind="idft")
        _, K_list = build_K(cfg, pre, h)
        G, J = build_selection_matrices(cfg.N, cfg.P, cfg.L)
        X = block_diag_precoder(pre.F, cfg.N)
        for l in range(cfg.L + 1):
            np.testing.assert_allclose(K_list[l], G @ J[l] @ X, atol=1e-12)

    def test_tiny_zp_convolution_oracle(self):
        cfg = SystemConfig(M=2, L=1, N=2, redundancy_kind="zp")
        pre = make_precoder(cfg)
        rng = np.random.default_rng(9)
        h = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        K, _ = build_K(cfg, pre, h)
        np.testing.assert_allclose(K @ s, conv_observe(pre.F, h, s, 2), atol=1e-13)

    def test_linearity_in_taps(self):
        rng = np.random.default_rng(10)
        cfg, pre, h, _ = random_instance(rng)
        K1, _ = build_K(cfg, pre, h)
        K2, _ = build_K(cfg, pre, (2 - 1j) * h)
        np.testing.assert_allclose(K2, (2 - 1j) * K1, atol=1e-12)

    def test_factors_are_read_only_views_of_one_block_precoder(self):
        rng = np.random.default_rng(11)
        cfg, pre, h, _ = random_instance(rng, M=4, L=2, N=3)
        _, K_list = build_K(cfg, pre, h)
        for Kl in K_list[1:]:
            assert np.shares_memory(K_list[0], Kl)
        for Kl in K_list:
            with pytest.raises(ValueError, match="read-only"):
                Kl[0, 0] = 1

    def test_rejects_wrong_tap_count(self):
        cfg = SystemConfig(M=4, L=2, N=3)
        pre = make_precoder(cfg)
        with pytest.raises(ValueError, match="taps"):
            build_K(cfg, pre, np.ones(2))


class TestSymbols:
    def test_unit_modulus(self):
        s = generate_symbols("qpsk", 10, 10, 0).sN
        # 1/sqrt(2) is inexact in binary; allow a few ulp
        assert np.max(np.abs(np.abs(s) ** 2 - 1.0)) <= 4e-16

    def test_constellation_points(self):
        s = generate_symbols("qpsk", 10, 10, 1).sN
        assert set(np.round(s * np.sqrt(2)).astype(complex)) <= {
            1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j,
        }

    def test_mean_shrinks(self):
        s = generate_symbols("qpsk", 25, 40, 2).sN
        assert s.size == 1000
        assert abs(np.mean(s)) < 0.1

    def test_seed_determinism(self):
        a = generate_symbols("qpsk", 6, 4, 42).sN
        b = generate_symbols("qpsk", 6, 4, 42).sN
        np.testing.assert_array_equal(a, b)

    def test_rejects_unknown_modulation(self):
        with pytest.raises(ValueError, match="modulation"):
            generate_symbols("16qam", 4, 2, 0)

    @pytest.mark.parametrize("M,N,field", [(2.0, 2, "M"), (2, True, "N")])
    def test_rejects_non_integer_size(self, M, N, field):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            generate_symbols("qpsk", M, N, 0)

    @pytest.mark.parametrize("M,N", [(0, 3), (4, 0)])
    def test_rejects_empty_frame(self, M, N):
        with pytest.raises(ValueError, match="frame dimensions must be positive"):
            generate_symbols("qpsk", M, N, 1)


class TestDrawsPinned:
    """Symbols and noise equal, bit for bit, the plain formulas they are
    defined by, drawn from the same generator calls; every CSV depends on
    these draws, so a faster formulation must not move one bit."""

    seeds = (0, 1, 7, 42, 2**31 - 1)

    @pytest.mark.parametrize("N", [1, 8, 25, 100])
    def test_symbols(self, N):
        for seed in self.seeds:
            bits = np.random.default_rng(seed).integers(0, 2, size=(2, N * 12))
            expected = ((2 * bits[0] - 1) + 1j * (2 * bits[1] - 1)) / np.sqrt(2)
            sN = generate_symbols("qpsk", 12, N, seed).sN
            assert sN.dtype == np.complex128
            assert np.array_equal(sN.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("size", [1, 124, 396, 1596])
    def test_noise(self, size):
        for seed in self.seeds:
            gen = np.random.default_rng(seed)
            expected = gen.standard_normal(size) + 1j * gen.standard_normal(size)
            noise = draw_noise(size, np.random.default_rng(seed))
            assert noise.dtype == np.complex128
            assert np.array_equal(noise.view(np.uint64), expected.view(np.uint64))


class TestSynthesize:
    def test_frozen_noiseless_example(self):
        cfg = SystemConfig(M=2, L=1, N=2, redundancy_kind="zp")
        pre = make_precoder(cfg)
        y = synthesize_observation(pre, np.array([1.0, 2.0]), np.ones(4), 0.0, 0)
        np.testing.assert_allclose(y, [3, 2, 1, 3, 2], atol=1e-15)

    @pytest.mark.parametrize("kind,inner", [("cp", "identity"), ("cp", "idft"), ("zp", "idft")])
    def test_convolution_oracle(self, kind, inner):
        rng = np.random.default_rng(12)
        cfg, pre, h, s = random_instance(
            rng, M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner
        )
        y = synthesize_observation(pre, h, s, 0.0, 0)
        np.testing.assert_allclose(y, conv_observe(pre.F, h, s, 4), atol=1e-13)

    @pytest.mark.parametrize("N", [2, 25])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_noiseless_frame_matches_dense_K(self, kind, N):
        rng = np.random.default_rng(14)
        M, L = 6, 2
        custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
        cfg = SystemConfig(
            M=M, L=L, N=N, redundancy_kind=kind, inner_kind="idft",
            custom_redundancy=custom if kind == "custom" else None,
        )
        pre = make_precoder(cfg)
        h = random_unit_channel(L, rng)
        s = generate_symbols("qpsk", M, N, rng).sN
        y = synthesize_observation(pre, h, s, 0.0, 0)
        ref = build_K(cfg, pre, h)[0] @ s
        assert np.linalg.norm(y - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_rejects_wrong_tap_count(self):
        cfg = SystemConfig(M=4, L=2, N=3)
        s = generate_symbols("qpsk", 4, 3, 0).sN
        with pytest.raises(ValueError, match="taps"):
            synthesize_observation(make_precoder(cfg), np.ones(2), s, 1.0, 0)

    def test_rejects_partial_block(self):
        cfg = SystemConfig(M=4, L=2, N=3)
        with pytest.raises(ValueError, match="whole blocks"):
            synthesize_observation(make_precoder(cfg), np.ones(3), np.ones(10), 1.0, 0)

    @pytest.mark.parametrize(
        "sigma2",
        [np.nan, -1.0, np.inf, True]
        + [np.array(g) for g in ([0.1, np.nan], [0.1, np.inf], [0.1, -1.0], [True, False])]
        + [np.array([[0.1, 0.2]]), np.array([[0.5]])]
        + [[0.1, True], (0.1, np.bool_(True))],
        ids=["nan", "-1.0", "inf", "bool", "grid-nan", "grid-inf", "grid-neg", "grid-bool",
             "2d", "2d-1x1", "list-bool", "tuple-bool"],
    )
    def test_rejects_nan_or_negative_noise_variance(self, sigma2):
        # NaN fails every comparison, so a `< 0` test would let it through
        # and return the noiseless frame; an infinite variance would give
        # a frame of infinities. A grid of variances is 1-D, and each of
        # its entries must pass.
        rng = np.random.default_rng(18)
        _, pre, h, s = random_instance(rng)
        with pytest.raises(ValueError, match="noise variance"):
            synthesize_observation(pre, h, s, sigma2, 0)

    def test_observation_length(self):
        for M, L, N in [(4, 2, 3), (12, 4, 8), (5, 1, 2)]:
            cfg = SystemConfig(M=M, L=L, N=N)
            pre = make_precoder(cfg)
            s = generate_symbols("qpsk", M, N, 0).sN
            y = synthesize_observation(pre, random_unit_channel(L, np.random.default_rng(0)), s, 1.0, 1)
            assert y.shape == (N * (M + L) - L,)

    def test_scalar_ambiguity_invariance(self):
        rng = np.random.default_rng(13)
        cfg, pre, h, s = random_instance(rng, M=4, L=2, N=3)
        c = 2 + 1j
        y1 = synthesize_observation(pre, h, s, 0.0, 0)
        y2 = synthesize_observation(pre, h / c, c * s, 0.0, 0)
        np.testing.assert_allclose(y1, y2, atol=1e-12)

    def test_noise_variance_calibration(self):
        pre = make_precoder(SystemConfig(M=4, L=2, N=4))
        h = np.zeros(3, dtype=complex)
        h[0] = 1.0
        s = np.zeros(16, dtype=complex)
        rng = np.random.default_rng(99)
        power = np.mean(
            [
                np.mean(np.abs(synthesize_observation(pre, h, s, 0.25, rng)) ** 2)
                for _ in range(200)
            ]
        )
        assert abs(power - 0.25) < 0.01

    def test_noise_seed_determinism(self):
        rng = np.random.default_rng(14)
        cfg, pre, h, s = random_instance(rng)
        y1 = synthesize_observation(pre, h, s, 0.5, 77)
        y2 = synthesize_observation(pre, h, s, 0.5, 77)
        np.testing.assert_array_equal(y1, y2)

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_scaled_unit_noise_is_the_noisy_frame(self, kind, inner):
        # The noise is sqrt(sigma2/2) times one unit draw_noise of the
        # frame's size from rng, added to the noiseless frame.
        rng = np.random.default_rng(15)
        for sigma2 in (1e-3, 0.7):
            _, pre, h, s = random_instance(
                rng, M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner,
            )
            clean = synthesize_observation(pre, h, s, 0.0, None)
            seed = np.random.SeedSequence([3, 2, 1, 0])
            noise = draw_noise(clean.size, np.random.default_rng(seed))
            noisy = synthesize_observation(
                pre, h, s, sigma2, np.random.default_rng(seed)
            )
            assert np.array_equal(clean + np.sqrt(sigma2 / 2) * noise, noisy)


class TestSynthesizeGrid:
    """A 1-D array of noise variances gives one frame per variance, all
    scaling one unit noise draw: the harness makes a trial's frames at
    every SNR point in one call, so each row must be the frame that
    variance alone gives from the same seed."""

    grid = np.array([0.0, 1e-3, 0.25, 7.0])

    @staticmethod
    def instance(kind="cp", inner="identity"):
        rng = np.random.default_rng(21)
        _, pre, h, s = random_instance(
            rng, M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner,
        )
        return pre, h, s

    @staticmethod
    def seeded():
        return np.random.default_rng(np.random.SeedSequence([3, 2, 1, 0]))

    @pytest.mark.parametrize("kind,inner", [("cp", "identity"), ("zp", "idft")])
    def test_rows_are_scalar_calls(self, kind, inner):
        pre, h, s = self.instance(kind, inner)
        rows = synthesize_observation(pre, h, s, self.grid, self.seeded())
        assert rows.shape == (self.grid.size, 4 * 7 - 2)
        for row, sigma2 in zip(rows, self.grid):
            alone = synthesize_observation(pre, h, s, sigma2, self.seeded())
            assert np.array_equal(row.view(np.uint64), alone.view(np.uint64))

    def test_one_point_grid_is_the_scalar_call(self):
        pre, h, s = self.instance()
        rows = synthesize_observation(pre, h, s, np.array([0.3]), self.seeded())
        alone = synthesize_observation(pre, h, s, 0.3, self.seeded())
        assert rows.shape == (1, alone.size)
        assert np.array_equal(rows[0].view(np.uint64), alone.view(np.uint64))

    def test_zero_variance_row_is_the_clean_frame(self):
        pre, h, s = self.instance()
        rows = synthesize_observation(pre, h, s, self.grid, self.seeded())
        clean = synthesize_observation(pre, h, s, 0.0, None)
        assert np.array_equal(rows[0], clean)
        assert not np.array_equal(rows[1], clean)

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [1e-3, 0.25, 7.0]])
    def test_consumes_one_unit_noise_draw(self, grid):
        pre, h, s = self.instance()
        gen, ref = self.seeded(), self.seeded()
        rows = synthesize_observation(pre, h, s, np.array(grid), gen)
        draw_noise(rows.shape[1], ref)
        assert gen.bit_generator.state == ref.bit_generator.state


class TestGradients:
    def test_zero_residual_gives_zero_gradients(self):
        rng = np.random.default_rng(15)
        cfg, pre, h, s = random_instance(rng)
        y = synthesize_observation(pre, h, s, 0.0, 0)
        grad_h, grad_s = loglik_gradients(y, cfg, pre, h, s, 0.5)
        np.testing.assert_allclose(grad_h, 0, atol=1e-12)
        np.testing.assert_allclose(grad_s, 0, atol=1e-12)

    def test_symbol_gradient_closed_form(self):
        rng = np.random.default_rng(16)
        sigma2 = 0.3
        cfg, pre, h, s = random_instance(rng)
        y = synthesize_observation(pre, h, s, sigma2, 1)
        _, grad_s = loglik_gradients(y, cfg, pre, h, s, sigma2)
        K, _ = build_K(cfg, pre, h)
        np.testing.assert_array_equal(grad_s, K.conj().T @ (y - K @ s) / sigma2)

    def test_zero_taps_give_finite_gradients(self):
        # K = 0 leaves the residual y: the tap gradient is s^H K_l^H y /
        # sigma2 and the frame gradient zero, with no warning or error.
        rng = np.random.default_rng(20)
        cfg, pre, h, s = random_instance(rng)
        y = synthesize_observation(pre, h, s, 0.3, 2)
        zero = np.zeros_like(h)
        grad_h, grad_s = loglik_gradients(y, cfg, pre, zero, s, 0.3)
        _, K_list = build_K(cfg, pre, h)
        np.testing.assert_array_equal(grad_h, [np.vdot(Kl @ s, y) / 0.3 for Kl in K_list])
        np.testing.assert_array_equal(grad_s, 0)

    @pytest.mark.parametrize("sigma2", [0.0, -0.5, np.nan, np.inf, True])
    def test_rejects_nonpositive_or_nan_sigma2(self, sigma2):
        rng = np.random.default_rng(19)
        cfg, pre, h, s = random_instance(rng)
        y = synthesize_observation(pre, h, s, 0.0, None)
        with pytest.raises(ValueError, match="sigma2 must be a normal positive"):
            loglik_gradients(y, cfg, pre, h, s, sigma2)

    def test_rejects_wrong_sample_count(self):
        # M=4, L=2, N=3 frames hold NP - L = 16 samples
        cfg, pre, h, s = random_instance(np.random.default_rng(21))
        with pytest.raises(ValueError, match="expected 16 samples"):
            loglik_gradients(np.ones(5, dtype=complex), cfg, pre, h, s, 0.5)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(17)
        eps, sigma2 = 1e-6, 0.5
        for trial in range(10):
            kind = ("cp", "zp")[trial % 2]
            inner = ("identity", "idft")[(trial // 2) % 2]
            cfg, pre, h, s = random_instance(
                rng, M=4, L=2, N=3, redundancy_kind=kind, inner_kind=inner,
            )
            y = synthesize_observation(pre, h, s, sigma2, trial)

            def loglik(taps, frame):
                e = y - conv_observe(pre.F, taps, frame, cfg.N)
                return -float(np.real(np.vdot(e, e))) / sigma2

            grad_h, grad_s = loglik_gradients(y, cfg, pre, h, s, sigma2)
            scale_h = np.max(np.abs(grad_h))
            for l in range(cfg.L + 1):
                delta = np.zeros_like(h)
                delta[l] = eps
                d_re = (loglik(h + delta, s) - loglik(h - delta, s)) / (2 * eps)
                d_im = (loglik(h + 1j * delta, s) - loglik(h - 1j * delta, s)) / (2 * eps)
                fd = (d_re + 1j * d_im) / 2
                assert abs(fd - grad_h[l]) <= 1e-6 * scale_h
            scale_s = np.max(np.abs(grad_s))
            for k in rng.choice(s.size, size=3, replace=False):
                delta = np.zeros_like(s)
                delta[k] = eps
                d_re = (loglik(h, s + delta) - loglik(h, s - delta)) / (2 * eps)
                d_im = (loglik(h, s + 1j * delta) - loglik(h, s - 1j * delta)) / (2 * eps)
                fd = (d_re + 1j * d_im) / 2
                assert abs(fd - grad_s[k]) <= 1e-6 * scale_s


class TestUsable:
    """_usable hands back the stack it judged. The byte budgets of
    crb_blind._channel_bytes and estimator._frame_bytes count no copy of
    the frames, so a stack whose members all pass must come back as the
    caller's array itself."""

    @staticmethod
    def stack():
        rng = np.random.default_rng(3)
        return rng.standard_normal((2, 3, 8)) + 1j * rng.standard_normal((2, 3, 8))

    def test_usable_stack_is_not_copied(self):
        x = self.stack()
        ok, exponent, usable = _usable(x)
        assert usable is x
        assert ok.all() and exponent.shape == (2, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0], ids=["nan", "inf", "zero"])
    def test_failed_member_zeroed_in_a_copy(self, bad):
        x = self.stack()
        if bad:
            x[1, 2, 5] = bad
        else:
            x[1, 2] = 0
        before = x.copy()
        ok, _, usable = _usable(x)
        assert usable is not x
        np.testing.assert_array_equal(x, before)
        assert ok.sum() == 5 and not ok[1, 2]
        assert not usable[1, 2].any()
        assert usable[ok].tobytes() == x[ok].tobytes()
        assert usable.dtype == np.complex128 and usable.flags.c_contiguous

    def test_allow_zero_passes_a_zero_member_uncopied(self):
        x = self.stack()
        x[0, 1] = 0
        ok, _, usable = _usable(x, allow_zero=True)
        assert ok.all() and usable is x


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(M=4, L=4, N=3),          # L == M
            dict(M=4, L=0, N=3),          # L < 1
            dict(M=0, L=1, N=3),
            dict(M=4, L=2, N=1),          # N < 2
            dict(M=4, L=2, N=3, sigma2=0.0),
            dict(M=4, L=2, N=3, sigma2=-1.0),
            dict(M=4, L=2, N=3, sigma2=float("inf")),
            dict(M=4, L=2, N=3, redundancy_kind="cyclic"),
            dict(M=4, L=2, N=3, inner_kind="dft"),
            dict(M=4, L=2, N=3, inner_kind="custom"),  # no custom_inner
            dict(M=4, L=2, N=3, sigma2=True),
            *(dict(M=4, L=2, N=3, sigma2=v) for v in SUBNORMAL_SIGMA2),
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SystemConfig(**kwargs)

    @pytest.mark.parametrize("sigma2", [[1.0], np.array([0.5, 1.0]), np.ones((1, 1))])
    def test_rejects_non_scalar_sigma2(self, sigma2):
        with pytest.raises(ValueError, match=r"^sigma2 must be a single number, got "):
            SystemConfig(M=4, L=2, N=3, sigma2=sigma2)

    @pytest.mark.parametrize(
        "sigma2", [np.float64(0.5), np.int32(3), np.array(0.5), SMALLEST_NORMAL]
    )
    def test_accepts_numpy_scalar_sigma2(self, sigma2):
        assert SystemConfig(M=4, L=2, N=3, sigma2=sigma2).sigma2 == sigma2

    @pytest.mark.parametrize("d", [-1, 3, 1.5, True, False])
    def test_channel_anchor_names_a_tap(self, d):
        with pytest.raises(ValueError, match=f"^anchor index {d} outside 0..2$"):
            Channel(h=np.ones(3), d=d)

    @pytest.mark.parametrize(
        "h,message",
        [([0.0, 1.0, 1.0], "anchor tap must be nonzero"),
         ([1.0], "channel needs a 1-D array of at least 2 taps")],
    )
    def test_channel_taps_checked(self, h, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            Channel(h=np.array(h), d=0)

    def test_p_property(self):
        assert SystemConfig(M=12, L=4, N=8).P == 16

    def test_custom_precoder_roundtrip(self):
        base = SystemConfig(M=4, L=2, N=3)
        R = build_redundancy("cp", 4, 2)
        W = build_inner_precoder("idft", 4)
        cfg = SystemConfig(
            M=4, L=2, N=3,
            redundancy_kind="custom", inner_kind="custom",
            custom_redundancy=R, custom_inner=W,
        )
        pre = make_precoder(cfg)
        ref = make_precoder(
            SystemConfig(M=4, L=2, N=3, redundancy_kind="cp", inner_kind="idft")
        )
        np.testing.assert_allclose(pre.F, ref.F, atol=1e-15)
        assert base.P == cfg.P

    def test_custom_requires_full_rank(self):
        R = np.zeros((6, 4))
        with pytest.raises(ValueError, match="rank"):
            make_precoder(
                SystemConfig(M=4, L=2, N=3, redundancy_kind="custom", custom_redundancy=R)
            )

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(redundancy_kind="custom", custom_redundancy=np.eye(6, 3)),
             r"^custom redundancy must be 6x4, got \(6, 3\)$"),
            (dict(inner_kind="custom", custom_inner=np.eye(4, 3)),
             r"^custom inner precoder must be 4x4, got \(4, 3\)$"),
            (dict(inner_kind="custom", custom_inner=np.ones((4, 4))),
             "^custom inner precoder must have full column rank$"),
        ],
    )
    def test_custom_shape_and_rank_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_precoder(SystemConfig(M=4, L=2, N=3, **kwargs))

    def test_custom_requires_matrix(self):
        with pytest.raises(ValueError, match="custom"):
            SystemConfig(M=4, L=2, N=3, redundancy_kind="custom")
