"""Tests for the blind-estimation bound: Fisher blocks, the two
independent computation routes, the left-null-space machinery, and the
zero-padding per-block reference.

The main oracles are (a) brute-force inversion of the full assembled
Fisher matrix with the anchor row/column deleted and (b) an elementwise
reconstruction of the reduced information from explicit selection and
shift matrices."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from blindcrb import (
    FimBlocks,
    IllConditioned,
    NumericalError,
    Precoder,
    RankDeficient,
    SystemConfig,
    build_K,
    build_redundancy,
    crb_constrained,
    crb_direct,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    draw_channel,
    fim_blocks,
    generate_symbols,
    make_precoder,
    subspace_estimate,
    synthesize_observation,
)
from blindcrb.crb_blind import (
    COND_LIMIT,
    _invert_reduced,
    _sweep,
    fast_information,
    zp_information,
)
from blindcrb.crb_core import RANK_RTOL
from helpers import (
    SMALLEST_NORMAL,
    SUBNORMAL_SIGMA2,
    assembled_fim,
    assert_psd,
    block_diag_precoder,
    build_channel_toeplitz,
    build_selection_matrices,
    crb_fast_dense,
    crb_zp_kron,
    left_null_basis,
    random_instance,
    random_unit_channel,
)


def make_blocks(cfg, pre, h, s):
    K, K_list = build_K(cfg, pre, h)
    return fim_blocks(K, K_list, s, cfg.sigma2), K


class TestDefaultAnchor:
    def test_picks_strongest_tap(self):
        assert default_anchor(np.array([0.1, 2.0, -0.5])) == 1

    def test_tie_goes_to_lowest_index(self):
        assert default_anchor(np.array([1.0, -1.0])) == 0

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            default_anchor(np.array([]))


class TestFimBlocks:
    def test_zero_symbols_kill_channel_blocks(self):
        rng = np.random.default_rng(20)
        cfg, pre, h, s = random_instance(rng)
        K, K_list = build_K(cfg, pre, h)
        blocks = fim_blocks(K, K_list, np.zeros_like(s), cfg.sigma2)
        np.testing.assert_array_equal(blocks.J00, 0)
        np.testing.assert_array_equal(blocks.J01, 0)
        np.testing.assert_allclose(
            blocks.J11, K.conj().T @ K / cfg.sigma2, atol=1e-14
        )

    def test_hermitian_and_psd(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            kind = ("cp", "zp")[trial % 2]
            cfg, pre, h, s = random_instance(rng, redundancy_kind=kind)
            blocks, _ = make_blocks(cfg, pre, h, s)
            J = assembled_fim(blocks)
            scale = np.linalg.norm(J)
            assert np.linalg.norm(J - J.conj().T) <= 1e-12 * scale
            assert_psd(J, scale_tol=1e-10, msg="Fisher information not PSD")

    def test_annihilates_scalar_ambiguity_direction(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            cfg, pre, h, s = random_instance(rng, M=5, L=2, N=3)
            blocks, _ = make_blocks(cfg, pre, h, s)
            J = assembled_fim(blocks)
            direction = np.concatenate([h, -s])
            residual = np.linalg.norm(J @ direction)
            assert residual <= 1e-10 * np.linalg.norm(J)

    def test_inverse_noise_scaling(self):
        rng = np.random.default_rng(23)
        cfg, pre, h, s = random_instance(rng, sigma2=1.0)
        K, K_list = build_K(cfg, pre, h)
        b1 = fim_blocks(K, K_list, s, 1.0)
        b4 = fim_blocks(K, K_list, s, 4.0)
        np.testing.assert_allclose(assembled_fim(b4), assembled_fim(b1) / 4, atol=1e-14)

    def test_rejects_bad_sigma2_and_shape(self):
        rng = np.random.default_rng(24)
        cfg, pre, h, s = random_instance(rng)
        K, K_list = build_K(cfg, pre, h)
        for sigma2 in (0.0, np.inf, True):
            with pytest.raises(ValueError, match="sigma2"):
                fim_blocks(K, K_list, s, sigma2)
        with pytest.raises(ValueError, match="symbols"):
            fim_blocks(K, K_list, s[:-1], cfg.sigma2)


class TestCrbDirect:
    def test_full_inverse_oracle(self):
        rng = np.random.default_rng(25)
        for kind in ("cp", "zp"):
            cfg, pre, h, s = random_instance(
                rng, M=4, L=2, N=3, redundancy_kind=kind
            )
            blocks, _ = make_blocks(cfg, pre, h, s)
            d = default_anchor(h)
            result = crb_direct(blocks, d)
            J = assembled_fim(blocks)
            Jd = np.delete(np.delete(J, d, axis=0), d, axis=1)
            C_full = np.linalg.inv(Jd)
            np.testing.assert_allclose(
                result.C,
                C_full[: cfg.L, : cfg.L],
                atol=1e-9 * np.linalg.norm(result.C),
            )
            assert result.trace == pytest.approx(np.real(np.trace(result.C)))

    def test_matches_constrained_bound_with_anchor_pinned(self):
        rng = np.random.default_rng(26)
        cfg, pre, h, s = random_instance(rng, M=4, L=2, N=3)
        blocks, _ = make_blocks(cfg, pre, h, s)
        d = default_anchor(h)
        result = crb_direct(blocks, d)
        J = assembled_fim(blocks)
        pin = np.zeros((1, J.shape[0]))
        pin[0, d] = 1.0
        B = crb_constrained(J, pin)
        B_taps = np.delete(np.delete(B, d, axis=0), d, axis=1)[: cfg.L, : cfg.L]
        np.testing.assert_allclose(
            result.C, B_taps, atol=1e-9 * np.linalg.norm(result.C)
        )

    def test_noise_scaling(self):
        rng = np.random.default_rng(27)
        cfg, pre, h, s = random_instance(rng, sigma2=0.5)
        K, K_list = build_K(cfg, pre, h)
        d = default_anchor(h)
        c1 = crb_direct(fim_blocks(K, K_list, s, 0.5), d)
        c4 = crb_direct(fim_blocks(K, K_list, s, 2.0), d)
        np.testing.assert_allclose(c4.C, 4 * c1.C, atol=1e-11 * np.linalg.norm(c4.C))

    def test_result_hermitian_psd(self):
        rng = np.random.default_rng(28)
        cfg, pre, h, s = random_instance(rng)
        blocks, _ = make_blocks(cfg, pre, h, s)
        result = crb_direct(blocks, default_anchor(h))
        np.testing.assert_array_equal(result.C, result.C.conj().T)
        assert_psd(result.C, scale_tol=1e-12)

    def test_singular_symbol_block_is_rejected(self):
        blocks = FimBlocks(
            J00=np.eye(3), J01=np.zeros((3, 4)), J11=np.ones((4, 4))
        )
        with pytest.raises(IllConditioned) as exc:
            crb_direct(blocks, 0)
        assert "J11" in exc.value.matrix_name

    def test_singular_reduced_information_is_rejected(self):
        blocks = FimBlocks(
            J00=np.diag([1.0, 1.0, 0.0]).astype(complex),
            J01=np.zeros((3, 4)),
            J11=np.eye(4),
        )
        with pytest.raises(IllConditioned) as exc:
            crb_direct(blocks, 0)
        assert "anchor-reduced" in exc.value.matrix_name

    def test_rejects_anchor_out_of_range(self):
        blocks = FimBlocks(
            J00=np.eye(3), J01=np.zeros((3, 4)), J11=np.eye(4)
        )
        for d in (3, 1.5, True, False):
            with pytest.raises(ValueError, match=f"^anchor index {d} outside 0..2$"):
                crb_direct(blocks, d)


class TestLeftNullBasis:
    def test_dimension_matches_frame_model(self):
        cfg = SystemConfig(M=12, L=4, N=8)
        pre = make_precoder(cfg)
        h = random_unit_channel(4, np.random.default_rng(29))
        K, _ = build_K(cfg, pre, h)
        basis = left_null_basis(K, cfg.L)
        assert basis.utilde.shape == (124, 28)  # (N-1)L columns
        assert np.linalg.norm(K.conj().T @ basis.utilde) <= 1e-9
        np.testing.assert_allclose(
            basis.utilde.conj().T @ basis.utilde, np.eye(28), atol=1e-12
        )

    def test_padding_rows_are_exact_zeros(self):
        rng = np.random.default_rng(30)
        cfg, pre, h, _ = random_instance(rng, M=5, L=2, N=3)
        K, _ = build_K(cfg, pre, h)
        basis = left_null_basis(K, cfg.L)
        assert basis.ghu.shape == (K.shape[0] + 4, K.shape[0] - K.shape[1])
        np.testing.assert_array_equal(basis.ghu[:2], 0)
        np.testing.assert_array_equal(basis.ghu[-2:], 0)
        np.testing.assert_array_equal(basis.ghu[2:-2], basis.utilde)

    def test_projector_identity(self):
        rng = np.random.default_rng(31)
        cfg, pre, h, _ = random_instance(rng, M=6, L=2, N=3)
        K, _ = build_K(cfg, pre, h)
        basis = left_null_basis(K, cfg.L)
        projector = np.eye(K.shape[0]) - K @ np.linalg.pinv(K)
        np.testing.assert_allclose(
            projector, basis.utilde @ basis.utilde.conj().T, atol=1e-9
        )

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        cfg, pre, h, _ = random_instance(rng)
        K, _ = build_K(cfg, pre, h)
        np.testing.assert_array_equal(
            left_null_basis(K, cfg.L).utilde, left_null_basis(K, cfg.L).utilde
        )

    def test_rejects_rank_deficient(self):
        rng = np.random.default_rng(33)
        A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        A = np.hstack([A, A[:, :1]])
        with pytest.raises(RankDeficient):
            left_null_basis(A, 1)

    def test_rejects_non_tall(self):
        with pytest.raises(ValueError, match="tall"):
            left_null_basis(np.eye(3), 1)


class TestCrbFast:
    def test_agrees_with_direct_across_configs(self):
        rng = np.random.default_rng(37)
        cases = [
            (M, L, N, kind, inner)
            for kind in ("cp", "zp")
            for inner in ("identity", "idft")
            for (M, L, N) in [(4, 2, 3), (5, 1, 2), (6, 3, 4), (8, 2, 2), (4, 3, 5)]
        ]
        for M, L, N, kind, inner in cases:
            cfg, pre, h, s = random_instance(
                rng, M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner
            )
            blocks, _ = make_blocks(cfg, pre, h, s)
            d = default_anchor(h)
            direct = crb_direct(blocks, d)
            fast = crb_fast(h, s, pre, d, cfg.sigma2, cfg.N)
            rel = np.linalg.norm(fast.C - direct.C) / np.linalg.norm(direct.C)
            assert rel <= 1e-8, f"paths disagree ({rel:.2e}) at {(M, L, N, kind, inner)}"

    @pytest.mark.parametrize("sigma2", [[1.0], (0.5,), np.array([0.5, 1.0])])
    def test_rejects_non_scalar_sigma2(self, sigma2):
        rng = np.random.default_rng(39)
        cfg, pre, h, s = random_instance(rng)
        with pytest.raises(ValueError, match=r"^sigma2 must be a single number, got "):
            crb_fast(h, s, pre, 0, sigma2, cfg.N)

    @pytest.mark.parametrize(
        "sigma2",
        [np.float64(0.5), np.float32(0.5), np.int64(2), np.array(0.5), SMALLEST_NORMAL],
    )
    def test_accepts_numpy_scalar_sigma2(self, sigma2):
        rng = np.random.default_rng(39)
        cfg, pre, h, s = random_instance(rng)
        want = crb_fast(h, s, pre, 0, float(sigma2), cfg.N).C
        assert np.array_equal(crb_fast(h, s, pre, 0, sigma2, cfg.N).C, want)

    def test_reduced_information_elementwise_oracle(self):
        rng = np.random.default_rng(38)
        cfg, pre, h, s = random_instance(rng, M=4, L=2, N=3, inner_kind="idft")
        d = default_anchor(h)
        fast = crb_fast(h, s, pre, d, cfg.sigma2, cfg.N)

        # reduced information straight from the definition, with explicit
        # selection/shift matrices and the orthogonal projector
        K, _ = build_K(cfg, pre, h)
        G, J = build_selection_matrices(cfg.N, cfg.P, cfg.L)
        X = block_diag_precoder(pre.F, cfg.N)
        xN = X @ s
        U = left_null_basis(K, cfg.L).utilde
        proj = U @ U.conj().T
        n = cfg.L + 1
        D = np.empty((n, n), dtype=complex)
        for i in range(n):
            for k in range(n):
                D[i, k] = (
                    xN.conj() @ J[i].T @ G.conj().T @ proj @ G @ J[k] @ xN
                ) / cfg.sigma2
        C_oracle = np.linalg.inv(np.delete(np.delete(D, d, 0), d, 1))
        np.testing.assert_allclose(
            fast.C, C_oracle, atol=1e-9 * np.linalg.norm(C_oracle)
        )

    def test_noise_scaling(self):
        rng = np.random.default_rng(39)
        cfg, pre, h, s = random_instance(rng)
        d = default_anchor(h)
        c1 = crb_fast(h, s, pre, d, 0.3, cfg.N)
        c3 = crb_fast(h, s, pre, d, 0.9, cfg.N)
        np.testing.assert_allclose(c3.C, 3 * c1.C, atol=1e-11 * np.linalg.norm(c3.C))

    def test_rejects_mismatched_inputs(self):
        rng = np.random.default_rng(40)
        cfg, pre, h, s = random_instance(rng, M=4, L=2, N=3)
        with pytest.raises(ValueError, match="inconsistent"):
            crb_fast(np.ones(2), s, pre, 0, 1.0, cfg.N)
        with pytest.raises(ValueError, match="symbols"):
            crb_fast(h, s[:-1], pre, 0, 1.0, cfg.N)
        for sigma2 in (0.0, np.inf, True, *SUBNORMAL_SIGMA2):
            with pytest.raises(ValueError, match="sigma2"):
                crb_fast(h, s, pre, 0, sigma2, cfg.N)
        # Whole blocks, but not N of them.
        with pytest.raises(ValueError, match="symbols"):
            crb_fast(h, s, pre, 0, 1.0, cfg.N + 1)
        # fast_information reads N off the frames, and one block is too few.
        with pytest.raises(ValueError):
            fast_information(h, s[None, : cfg.M], pre)


class TestCrbFastSweep:
    """The banded sweep against the dense QR of the whole of K."""

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_matches_dense_qr_oracle(self, kind, inner):
        rng = np.random.default_rng(47)
        M, L = 6, 2
        for N in (2, 3, 8, 60):
            custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
            cfg = SystemConfig(
                M=M, L=L, N=N, sigma2=0.3, redundancy_kind=kind, inner_kind=inner,
                custom_redundancy=custom if kind == "custom" else None,
            )
            pre = make_precoder(cfg)
            h = random_unit_channel(L, rng)
            frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(3)])
            d = default_anchor(h)
            batch = fast_information(h, frames, pre)
            assert batch.shape == (3, L + 1, L + 1)
            for s, D0 in zip(frames, batch):
                dense = crb_fast_dense(h, s, pre, d, cfg.sigma2, N)
                fast = crb_fast(h, s, pre, d, cfg.sigma2, N).C
                single = fast_information(h, s[None], pre)[0]
                np.testing.assert_array_equal(
                    fast, cfg.sigma2 * _invert_reduced(single, d).C
                )
                for C in (fast, _invert_reduced(D0 / cfg.sigma2, d).C):
                    rel = np.linalg.norm(C - dense) / np.linalg.norm(dense)
                    assert rel <= 1e-12, f"sweep and dense QR differ ({rel:.2e}) at N={N}"

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("eps,rejected", [(0.0, True), (1e-12, True),
                                              (1e-6, False), (1e-3, False)])
    def test_rank_gate_matches_dense_oracle(self, inner, eps, rejected):
        # A channel zero on the DFT grid makes K rank-deficient under CP.
        M, L, N = 8, 2, 6
        cfg = SystemConfig(M=M, L=L, N=N, sigma2=0.01, inner_kind=inner)
        pre = make_precoder(cfg)
        h = np.poly([np.exp(2j * np.pi / M) * (1 + eps), 0.5 + 0.3j])
        s = generate_symbols("qpsk", M, N, 3).sN
        frames = np.stack([s] + [generate_symbols("qpsk", M, N, k).sN for k in (4, 5)])
        d = default_anchor(h)
        routes = (crb_fast, crb_fast_dense)
        if rejected:
            for route in routes:
                with pytest.raises(RankDeficient):
                    route(h, s, pre, d, cfg.sigma2, N)
            with pytest.raises(RankDeficient):
                fast_information(h, frames, pre)
        else:
            fast = crb_fast(h, s, pre, d, cfg.sigma2, N)
            dense = crb_fast_dense(h, s, pre, d, cfg.sigma2, N)
            assert np.isfinite(fast.trace) and np.all(np.isfinite(dense))
            assert np.all(np.isfinite(fast_information(h, frames, pre)))

    @staticmethod
    def count_qr(monkeypatch):
        """Record the shape of each np.linalg.qr call made from here on."""
        calls = []
        qr = np.linalg.qr

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counting)
        return calls

    @pytest.mark.parametrize("kind,most", [("zp", 3), ("cp", 40)])
    def test_steady_state_engages(self, monkeypatch, kind, most):
        # Once the carry repeats, the step map is kept, not refreshed: zero
        # padding repeats at step 1 (QRs at step 0, step 1 and the last
        # step), cyclic prefixing after tens of steps. No QR sees the
        # frames: each factors one (M+2L) x (M+L) window of K and markers,
        # for one frame as for five.
        M, L, N = 12, 4, 1000
        pre = make_precoder(SystemConfig(M=M, L=L, N=N, redundancy_kind=kind))
        h = random_unit_channel(L, np.random.default_rng(48))
        for T in (1, 5):
            frames = np.stack([generate_symbols("qpsk", M, N, 49 + t).sN for t in range(T)])
            calls = self.count_qr(monkeypatch)
            fast_information(h, frames, pre)
            assert len(calls) <= most, f"{len(calls)} QR calls for N={N}, T={T}"
            assert set(calls) == {(1, M + 2 * L, M + L)}

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    def test_carry_that_never_settles_keeps_qr_steps(self, monkeypatch, inner):
        # A zero 1e-3 outside the unit circle on the DFT grid: the carry
        # is still moving at the end of the frame.
        M, L, N = 8, 2, 60
        cfg = SystemConfig(M=M, L=L, N=N, sigma2=0.01, inner_kind=inner)
        pre = make_precoder(cfg)
        h = np.poly([np.exp(2j * np.pi / M) * (1 + 1e-3), 0.5 + 0.3j])
        s = generate_symbols("qpsk", M, N, 3).sN
        d = default_anchor(h)
        dense = crb_fast_dense(h, s, pre, d, cfg.sigma2, N)
        calls = self.count_qr(monkeypatch)
        fast = crb_fast(h, s, pre, d, cfg.sigma2, N).C
        assert len(calls) == N
        rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
        assert rel <= 1e-12, f"sweep and dense QR differ ({rel:.2e})"

    @pytest.mark.parametrize("settles", [True, False])
    def test_engine_carries_any_columns(self, monkeypatch, settles):
        # _sweep on columns that are not stream windows: a random block
        # and a received frame, whose one column is fewer than L. The Gram
        # of the coordinates it returns is the dense-QR projection
        # C^H (I - K pinv(K)) C, on a channel whose carry settles within
        # the frame and on the one of test_carry_that_never_settles_keeps_qr_steps.
        M, L, N = 8, 2, 60
        P = M + L
        cfg = SystemConfig(M=M, L=L, N=N)
        pre = make_precoder(cfg)
        rng = np.random.default_rng(51)
        zero = 0.9 if settles else np.exp(2j * np.pi / M) * (1 + 1e-3)
        h = np.poly([zero, 0.5 + 0.3j])
        B = build_channel_toeplitz(h, P + L, P) @ pre.F
        Q = np.linalg.qr(build_K(cfg, pre, h)[0])[0]
        block = rng.standard_normal((N * P - L, 3)) + 1j * rng.standard_normal((N * P - L, 3))
        y = synthesize_observation(pre, h, generate_symbols("qpsk", M, N, rng).sN, 0.1, rng)
        for cols in (block, y):
            calls = self.count_qr(monkeypatch)
            (coords,), (low,), (high,) = _sweep(B[None], cols[None])
            assert low > RANK_RTOL * high
            assert (len(calls) < N) == settles
            assert coords.shape == ((N - 1) * L,) + cols.shape[1:]
            C = cols.reshape(len(cols), -1)
            X = coords.reshape(len(coords), -1)
            projected = C.conj().T @ (C - Q @ (Q.conj().T @ C))
            np.testing.assert_allclose(
                X.conj().T @ X, projected, rtol=0, atol=1e-10 * np.linalg.norm(C) ** 2
            )
        # A zero on the DFT grid makes K rank-deficient under CP.
        h = np.poly([np.exp(2j * np.pi / M), 0.5 + 0.3j])
        B = build_channel_toeplitz(h, P + L, P) @ pre.F
        _, (low,), (high,) = _sweep(B[None], block[None])
        assert low <= RANK_RTOL * high

    @pytest.mark.parametrize("N", [60, 200])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("eps,rejected", [(0.0, True), (1e-12, True),
                                              (1e-6, False), (1e-3, False)])
    def test_rank_gate_on_long_frames(self, inner, eps, rejected, N):
        # The decisions of test_rank_gate_matches_dense_oracle at N=6 hold
        # on long frames. The eps=0 carry settles within 10 steps, so the
        # gate reads the windows factored until then and the last one; the
        # others refresh their step map at every step.
        M, L = 8, 2
        pre = make_precoder(SystemConfig(M=M, L=L, N=N, inner_kind=inner))
        h = np.poly([np.exp(2j * np.pi / M) * (1 + eps), 0.5 + 0.3j])
        frames = np.stack([generate_symbols("qpsk", M, N, k).sN for k in (3, 4)])
        if rejected:
            with pytest.raises(RankDeficient):
                fast_information(h, frames, pre)
        else:
            assert np.all(np.isfinite(fast_information(h, frames, pre)))

    def test_long_frame_memory_scaling_and_monotonicity(self):
        # A dense K at this size would take 3.1 GB.
        M, L, N = 12, 4, 1000
        pre = make_precoder(SystemConfig(M=M, L=L, N=N))
        h = random_unit_channel(L, np.random.default_rng(48))
        s = generate_symbols("qpsk", M, N, 49).sN
        d = default_anchor(h)
        tracemalloc.start()
        try:
            c1 = crb_fast(h, s, pre, d, 1.0, N)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
        c4 = crb_fast(h, s, pre, d, 4.0, N)
        assert c4.trace == pytest.approx(4 * c1.trace, rel=1e-12)
        # A longer frame that extends the same one never raises the bound.
        short, longer = (crb_fast(h, s[: n * M], pre, d, 1.0, n) for n in (200, 400))
        assert longer.trace <= short.trace

    def test_long_frame_batch_memory(self):
        # V^T of the batch is read through a view of the streams, never
        # copied whole: a copy alone would take 6.4 MB here.
        M, L, N, T = 12, 4, 1000, 5
        pre = make_precoder(SystemConfig(M=M, L=L, N=N))
        h = random_unit_channel(L, np.random.default_rng(48))
        frames = np.stack([generate_symbols("qpsk", M, N, 49 + t).sN for t in range(T)])
        tracemalloc.start()
        try:
            batch = fast_information(h, frames, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
        assert batch.shape == (T, L + 1, L + 1)

    def test_long_frame_zp_reference_batch_memory(self):
        # Only the L null-space coordinates of each delayed block are
        # formed: the (T, P, N, L+1) delayed blocks with a Schur complement
        # built from them peak at 24 MB at this size.
        M, L, N, T = 12, 4, 1000, 5
        pre = make_precoder(SystemConfig(M=M, L=L, N=N, redundancy_kind="zp"))
        h = random_unit_channel(L, np.random.default_rng(48))
        frames = np.stack([generate_symbols("qpsk", M, N, 49 + t).sN for t in range(T)])
        tracemalloc.start()
        try:
            batch = zp_information(h, frames, pre)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"
        assert batch.shape == (T, L + 1, L + 1)

    def test_forms_no_kron(self, monkeypatch):
        rng = np.random.default_rng(50)
        cfg, pre, h, s = random_instance(rng, redundancy_kind="zp")

        def no_kron(*args):
            raise AssertionError("np.kron called")

        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(AssertionError):
            np.kron(np.eye(2), pre.F)
        build_K(cfg, pre, h)
        crb_fast(h, s, pre, default_anchor(h), cfg.sigma2, cfg.N)
        crb_zp_per_block(h, s, pre, 0, cfg.sigma2)
        y = synthesize_observation(pre, h, s, cfg.sigma2, 0)
        subspace_estimate(y, pre)


class TestInvertReducedStack:
    """The anchor-reduced inversion of a (trial, SNR) stack, member by
    member, against one matrix at a time."""

    @pytest.mark.parametrize("N", [8, 25])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_stack_equals_items(self, kind, inner, N):
        rng = np.random.default_rng(80)
        M, L = 4, 2
        custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
        pre = make_precoder(SystemConfig(
            M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
            custom_redundancy=custom if kind == "custom" else None,
        ))
        h = random_unit_channel(L, rng)
        d = default_anchor(h)
        frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(3)])
        sigma2s = np.logspace(0, -4, 5)
        stack = fast_information(h, frames, pre)[:, None] / sigma2s[:, None, None]
        result = _invert_reduced(stack, d)
        assert result.C.shape == (3, 5, L, L) and result.trace.shape == (3, 5)
        for t in range(3):
            for s in range(5):
                one = _invert_reduced(stack[t, s], d)
                assert np.array_equal(result.C[t, s], one.C)
                assert result.trace[t, s] == one.trace

    def test_ill_conditioned_member_gives_nan_alone(self):
        good = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]], dtype=complex)
        singular = np.diag([1.0, 1.0, 0.0]).astype(complex)
        stack = np.stack([good, singular, 2 * good])
        result = _invert_reduced(stack, 0)
        assert np.isnan(result.C[1]).all() and np.isnan(result.trace[1])
        for k in (0, 2):
            one = _invert_reduced(stack[k], 0)
            assert np.array_equal(result.C[k], one.C)
            assert result.trace[k] == one.trace
        with pytest.raises(IllConditioned, match="anchor-reduced"):
            _invert_reduced(singular, 0)
        refused = _invert_reduced(singular[None], 0)
        assert np.isnan(refused.trace).all()

    def test_nonfinite_member_gives_nan_alone(self):
        # cond of a NaN matrix would fail the SVD of the whole stack
        good = np.array([[2.0, 0.5, 0.1], [0.5, 1.0, 0.2], [0.1, 0.2, 3.0]], dtype=complex)
        broken = good.copy()
        broken[1, 2] = np.nan
        stack = np.stack([good, broken, 2 * good, np.full((3, 3), np.inf + 0j)])
        result = _invert_reduced(stack, 0)
        assert np.isnan(result.C[[1, 3]]).all() and np.isnan(result.trace[[1, 3]]).all()
        for k in (0, 2):
            one = _invert_reduced(stack[k], 0)
            assert np.array_equal(result.C[k], one.C)
            assert result.trace[k] == one.trace
        with pytest.raises(IllConditioned, match="anchor-reduced"):
            _invert_reduced(broken, 0)


    def test_per_member_anchors(self):
        # One anchor per channel, broadcast over its (trial, SNR) members.
        rng = np.random.default_rng(81)
        C, T, S, n = 4, 3, 2, 4
        A = rng.standard_normal((C, T, S, n, n)) + 1j * rng.standard_normal((C, T, S, n, n))
        stack = A @ A.conj().swapaxes(-1, -2) + 0.1 * np.eye(n)
        stack[2, 1, 0] = np.diag([1.0, 1.0, 1.0, 0.0])  # singular at any anchor but 3
        d = np.array([0, 3, 1, 2])
        result = _invert_reduced(stack, d[:, None, None])
        assert result.C.shape == (C, T, S, n - 1, n - 1)
        for c in range(C):
            for t in range(T):
                for s in range(S):
                    if (c, t, s) == (2, 1, 0):
                        assert np.isnan(result.C[c, t, s]).all()
                        assert np.isnan(result.trace[c, t, s])
                        with pytest.raises(IllConditioned, match="anchor-reduced"):
                            _invert_reduced(stack[c, t, s], d[c])
                        continue
                    one = _invert_reduced(stack[c, t, s], d[c])
                    assert np.array_equal(result.C[c, t, s], one.C)
                    assert result.trace[c, t, s] == one.trace
        for bad, d in (
            (4, [0, 4, 1, 2]), (1.5, [0, 1.5, 1, 2]), (False, [False, True] * 2)
        ):
            with pytest.raises(ValueError, match=f"anchor index {bad} outside"):
                _invert_reduced(stack, np.array(d)[:, None, None])


class TestChannelStack:
    """fast_information and zp_information on a stack of channels against
    each channel alone: the same bytes, and a failed member NaN alone."""

    @staticmethod
    def stack_instance(kind, inner, N, M=6, L=2, C=4, T=3, seed=90):
        rng = np.random.default_rng(seed)
        custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
        pre = make_precoder(SystemConfig(
            M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
            custom_redundancy=custom if kind == "custom" else None,
        ))
        hs = np.stack([random_unit_channel(L, rng) for _ in range(C)])
        frames = np.stack([
            [generate_symbols("qpsk", M, N, rng).sN for _ in range(T)] for _ in range(C)
        ])
        return pre, hs, frames

    @staticmethod
    def assert_members_alone(info, hs, frames):
        stack = info(hs, frames)
        assert stack.shape == frames.shape[:2] + (hs.shape[1],) * 2
        for h, f, member in zip(hs, frames, stack):
            assert np.array_equal(member, info(h, f))
        return stack

    @pytest.mark.parametrize("N", [2, 8, 25, 100])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_members_equal_channels_alone(self, kind, inner, N):
        pre, hs, frames = self.stack_instance(kind, inner, N)
        self.assert_members_alone(lambda h, f: fast_information(h, f, pre), hs, frames)
        if kind == "zp":
            self.assert_members_alone(
                lambda h, f: zp_information(h, f, pre), hs, frames
            )

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    def test_members_settle_at_their_own_steps(self, monkeypatch, inner):
        # Channels whose carries settle at different steps, next to the
        # one of test_carry_that_never_settles_keeps_qr_steps: each member
        # keeps its step map from its own step on.
        M, L, N = 8, 2, 60
        pre = make_precoder(SystemConfig(M=M, L=L, N=N, inner_kind=inner))
        zeros = (0.9, 0.5j, np.exp(2j * np.pi / M) * (1 + 1e-3), -0.8)
        hs = np.stack([np.poly([z, 0.5 + 0.3j]) for z in zeros])
        frames = np.stack([
            [generate_symbols("qpsk", M, N, 10 * c + t).sN for t in range(2)]
            for c in range(len(zeros))
        ])
        qr_calls = []
        for h, f in zip(hs, frames):
            calls = TestCrbFastSweep.count_qr(monkeypatch)
            fast_information(h, f, pre)
            qr_calls.append(len(calls))
        monkeypatch.undo()
        assert qr_calls[2] == N and len(set(qr_calls)) == len(zeros)
        self.assert_members_alone(lambda h, f: fast_information(h, f, pre), hs, frames)

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    def test_rank_deficient_member_is_nan_alone(self, inner):
        # A zero on the DFT grid makes K rank-deficient under CP.
        M, L, N = 8, 2, 60
        pre, hs, frames = self.stack_instance("cp", inner, N, M=M, L=L)
        hs[1] = np.poly([np.exp(2j * np.pi / M), 0.5 + 0.3j])
        stack = fast_information(hs, frames, pre)
        assert np.isnan(stack[1]).all()
        for c in (0, 2, 3):
            assert np.array_equal(stack[c], fast_information(hs[c], frames[c], pre))
        with pytest.raises(RankDeficient, match=r"column-rank-deficient \(diag ratio"):
            fast_information(hs[1], frames[1], pre)
        assert np.isnan(fast_information(hs[1:2], frames[1:2], pre)).all()

    def test_ill_conditioned_zp_member_is_nan_alone(self):
        # A NaN tap fails the J11 gate, alone or in a stack.
        pre, hs, frames = self.stack_instance("zp", "idft", 25)
        hs[2, 1] = np.nan
        stack = zp_information(hs, frames, pre)
        assert np.isnan(stack[2]).all()
        for c in (0, 1, 3):
            assert np.array_equal(stack[c], zp_information(hs[c], frames[c], pre))
        with pytest.raises(IllConditioned, match="J11"):
            zp_information(hs[2], frames[2], pre)
        assert np.isnan(zp_information(hs[2:3], frames[2:3], pre)).all()

    def test_empty_stack_gives_empty_result(self):
        # _channel_stack hands the frames back as (C, T, N, M) blocks; with
        # no channel, N is read off the frame length, not inferred.
        pre, hs, frames = self.stack_instance("zp", "identity", 8)
        for info in (fast_information, zp_information):
            stack = info(hs[:0], frames[:0], pre)
            assert stack.shape == (0, 3, 3, 3)

    def test_rejects_mismatched_stacks(self):
        pre, hs, frames = self.stack_instance("zp", "identity", 8)
        for info in (
            lambda h, f: fast_information(h, f, pre),
            lambda h, f: zp_information(h, f, pre),
        ):
            with pytest.raises(ValueError, match="frames"):
                info(hs, frames[:3])  # three channels' frames for four channels
            with pytest.raises(ValueError, match="frames"):
                info(hs, frames[0])  # one channel's frames for a stack
            with pytest.raises(ValueError, match="taps"):
                info(hs[None], frames[None])
            for taps in (np.ones(()), hs[0, :1], hs[:, :1]):  # a scalar, or one tap
                message = (
                    "need (L+1,) taps or a (C, L+1) stack of them, L >= 1, "
                    f"got shape {taps.shape}"
                )
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    info(taps, frames)


@pytest.mark.parametrize("kind", ["cp", "zp"])
def test_nan_tap_rejected_alike_by_every_route(kind):
    # a NaN tap must end in the package's typed error on all three routes,
    # not in numpy's LinAlgError from the SVD of a NaN matrix
    cfg = SystemConfig(M=4, L=2, N=5, redundancy_kind=kind)
    pre = make_precoder(cfg)
    # the reference applies to zero padding only; its inner precoder is
    # the same identity under either kind
    zp = make_precoder(replace(cfg, redundancy_kind="zp"))
    h = np.array([1.0, np.nan, -0.1j])
    s = generate_symbols("qpsk", cfg.M, cfg.N, 0).sN
    routes = (
        lambda: crb_direct(make_blocks(cfg, pre, h, s)[0], 0),
        lambda: crb_fast(h, s, pre, 0, 1.0, cfg.N),
        lambda: crb_zp_per_block(h, s, zp, 0, 1.0),
    )
    for route in routes:
        with pytest.raises(IllConditioned):
            route()


@pytest.mark.parametrize("x", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["cp", "zp"])
def test_unusable_tap_rejected_alike_at_every_entry_point(kind, x):
    # One NaN or infinite tap raises IllConditioned at every entry point,
    # with no warning on the way (the suite makes RuntimeWarning an error),
    # and is a NaN member of a stack whose other member keeps its bytes.
    cfg = SystemConfig(M=12, L=4, N=25, redundancy_kind=kind)
    pre = make_precoder(cfg)
    h = np.array([0.5, 0.5, x, 0.5, 0.2])
    s = generate_symbols("qpsk", cfg.M, cfg.N, np.random.default_rng(1)).sN
    routes = [
        lambda: build_K(cfg, pre, h),
        lambda: fast_information(h, s[None], pre),
        lambda: crb_fast(h, s, pre, 0, 1.0, cfg.N),
    ]
    if kind == "zp":
        routes += [
            lambda: zp_information(h, s[None], pre),
            lambda: crb_zp_per_block(h, s, pre, 0, 1.0),
        ]
    for route in routes:
        with pytest.raises(IllConditioned, match="J11"):
            route()
    good = random_unit_channel(cfg.L, np.random.default_rng(2))
    for info in [fast_information] + [zp_information] * (kind == "zp"):
        stack = info(np.stack([good, h]), np.stack([s[None], s[None]]), pre)
        assert np.isnan(stack[1]).all()
        assert np.array_equal(stack[0], info(good, s[None], pre))


@pytest.mark.xfail(reason="no gate rejects an uninformative frame when L=1")
@pytest.mark.parametrize("route", ["direct", "fast"])
def test_uninformative_frame_rejected_when_L_is_1(route):
    # A constant frame says nothing about the taps, so D0 is rounding
    # noise (5e-32 here), but the 1 x 1 anchor-reduced information always
    # has cond 1 and passes every gate: crb_fast returns a trace of 2e31
    # and crb_direct one of -1e15.
    cfg = SystemConfig(M=2, L=1, N=2)
    pre = make_precoder(cfg)
    channel = draw_channel(1, 1)
    s = generate_symbols("qpsk", 2, 2, 15).sN
    with pytest.raises(NumericalError):
        if route == "fast":
            crb_fast(channel.h, s, pre, channel.d, 1.0, cfg.N)
        else:
            crb_direct(make_blocks(cfg, pre, channel.h, s)[0], channel.d)


class TestZpPerBlock:
    def make_zp(self, rng, M=6, L=2, N=4, inner="identity"):
        return random_instance(
            rng, M=M, L=L, N=N, redundancy_kind="zp", inner_kind=inner
        )

    def test_never_above_frame_bound(self):
        rng = np.random.default_rng(41)
        for inner in ("identity", "idft"):
            cfg, pre, h, s = self.make_zp(rng, inner=inner)
            d = default_anchor(h)
            frame = crb_fast(h, s, pre, d, cfg.sigma2, cfg.N)
            full = crb_zp_per_block(h, s, pre, d, cfg.sigma2)
            assert_psd(
                frame.C - full.C,
                scale_tol=1e-10,
                msg="per-block reference exceeded the frame bound",
            )
            assert full.trace > 0

    def test_margin_positive_and_shrinks_with_more_blocks(self):
        rng = np.random.default_rng(42)
        margins = []
        for N in (2, 4, 8):
            cfg, pre, h, s = self.make_zp(rng, M=6, L=2, N=N)
            # same channel for every N keeps the comparison clean
            h = random_unit_channel(2, np.random.default_rng(7))
            s = generate_symbols("qpsk", 6, N, 11).sN
            d = default_anchor(h)
            frame = crb_fast(h, s, pre, d, cfg.sigma2, cfg.N)
            full = crb_zp_per_block(h, s, pre, d, cfg.sigma2)
            margins.append(10 * np.log10(frame.trace / full.trace))
        assert all(m > 0 for m in margins)
        assert margins[2] < margins[0]

    def test_matches_direct_blocks_built_from_padded_model(self):
        # independent construction: simulate the per-block model as one
        # big linear map and push it through the generic machinery
        rng = np.random.default_rng(43)
        cfg, pre, h, s = self.make_zp(rng, M=4, L=2, N=3)
        d = default_anchor(h)
        full = crb_zp_per_block(h, s, pre, d, cfg.sigma2)

        T = build_channel_toeplitz(h, cfg.P, cfg.M)
        K = np.kron(np.eye(cfg.N), T @ pre.Ftilde)
        K_list = [
            np.kron(np.eye(cfg.N), np.eye(cfg.P, cfg.M, k=-l) @ pre.Ftilde)
            for l in range(cfg.L + 1)
        ]
        blocks = fim_blocks(K, K_list, s, cfg.sigma2)
        J = assembled_fim(blocks)
        Jd = np.delete(np.delete(J, d, axis=0), d, axis=1)
        C_full = np.linalg.inv(Jd)[: cfg.L, : cfg.L]
        np.testing.assert_allclose(full.C, C_full, atol=1e-9 * np.linalg.norm(C_full))

    def test_matches_kron_oracle_long_frame(self):
        rng = np.random.default_rng(51)
        for inner in ("identity", "idft"):
            cfg, pre, h, s = self.make_zp(rng, M=6, L=2, N=25, inner=inner)
            d = default_anchor(h)
            full = crb_zp_per_block(h, s, pre, d, cfg.sigma2)
            oracle = crb_zp_kron(h, s, pre.Ftilde, d, cfg.sigma2, cfg.M, cfg.L, cfg.N)
            np.testing.assert_allclose(full.C, oracle, atol=1e-12 * np.linalg.norm(oracle))
            frames = np.stack([s] + [generate_symbols("qpsk", 6, 25, rng).sN for _ in range(2)])
            batch = zp_information(h, frames, pre)
            for f, D0 in zip(frames, batch):
                oracle = crb_zp_kron(h, f, pre.Ftilde, d, cfg.sigma2, cfg.M, cfg.L, cfg.N)
                C = _invert_reduced(D0 / cfg.sigma2, d).C
                np.testing.assert_allclose(C, oracle, atol=1e-12 * np.linalg.norm(oracle))

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-6, 1e-5, 1e-3])
    def test_j11_gate_switches_with_cond_of_j11(self, eps):
        # The gate reads cond(J11) = cond(R)^2 off the QR of A = T(h) Ftilde.
        # Its decisions must be the rule cond(A^H A) >= COND_LIMIT, taken
        # here from the Toeplitz oracle, over 20 channels and one NaN-tap
        # member; cond(J11) grows as 1/eps^2 and crosses the limit between
        # eps = 1e-6 and 1e-5.
        M, L = 12, 4
        rng = np.random.default_rng(53)
        hs = np.array(
            [random_unit_channel(L, rng) for _ in range(20)] + [[1.0, np.nan, 0.5, 0.5, 0.5]]
        )
        frames = np.array([[generate_symbols("qpsk", M, 3, rng).sN] * 2 for _ in hs])
        Ftilde = np.diag([1.0] * (M - 1) + [eps]).astype(complex)
        pre = Precoder(Ftilde, build_redundancy("zp", M, L) @ Ftilde)
        failed = np.isnan(zp_information(hs, frames, pre)).all(axis=(1, 2, 3))
        rule = []
        for h in hs[:-1]:
            A = build_channel_toeplitz(h, M + L, M) @ Ftilde
            rule.append(np.linalg.cond(A.conj().T @ A) >= COND_LIMIT)
        assert failed.tolist() == rule + [True]
        assert rule == [eps <= 1e-6] * 20

    def test_singular_inner_precoder_rejected(self):
        rng = np.random.default_rng(52)
        cfg, pre, h, s = self.make_zp(rng)
        Ftilde = np.diag([1.0] * (cfg.M - 1) + [0.0]).astype(complex)
        singular = Precoder(Ftilde, build_redundancy("zp", cfg.M, cfg.L) @ Ftilde)
        with pytest.raises(IllConditioned) as exc:
            crb_zp_per_block(h, s, singular, 0, cfg.sigma2)
        assert "J11" in exc.value.matrix_name

    def test_rejects_composite_precoder(self):
        # A cyclic prefix, or the composite F in the inner slot: neither
        # is the zero padding F = [Ftilde; 0] the reference assumes.
        rng = np.random.default_rng(44)
        cfg, pre, h, s = self.make_zp(rng)
        cp = make_precoder(replace(cfg, redundancy_kind="cp"))
        message = "the reference bound applies to zero padding only, F = [Ftilde; 0]"
        for bad in (cp, Precoder(Ftilde=pre.F, F=pre.F)):
            with pytest.raises(ValueError, match=re.escape(message)):
                crb_zp_per_block(h, s, bad, 0, cfg.sigma2)
            with pytest.raises(ValueError, match=re.escape(message)):
                zp_information(h, s[None], bad)

    def test_rejects_partial_block(self):
        rng = np.random.default_rng(47)
        cfg, pre, h, s = self.make_zp(rng)
        with pytest.raises(ValueError, match="whole blocks"):
            crb_zp_per_block(h, s[:-1], pre, 0, cfg.sigma2)

    def test_rejects_wrong_tap_count(self):
        # The taps must fit the precoder: L + 1 = P - M + 1 of them, for
        # one channel and for a stack alike.
        rng = np.random.default_rng(45)
        cfg, pre, h, s = self.make_zp(rng)
        with pytest.raises(ValueError, match="taps"):
            crb_zp_per_block(h[:1], s, pre, 0, cfg.sigma2)
        for taps in (h[:-1], np.append(h, 0.1)):  # one tap too few, one too many
            with pytest.raises(ValueError, match="inconsistent with precoder shape"):
                crb_zp_per_block(taps, s, pre, 0, cfg.sigma2)
            with pytest.raises(ValueError, match="inconsistent with precoder shape"):
                zp_information(np.stack([taps] * 2), np.stack([s[None]] * 2), pre)

    @pytest.mark.parametrize(
        "sigma2", [0.0, np.inf, np.nan, True, np.array(True), *SUBNORMAL_SIGMA2]
    )
    def test_rejects_bad_sigma2(self, sigma2):
        rng = np.random.default_rng(46)
        cfg, pre, h, s = self.make_zp(rng)
        with pytest.raises(ValueError, match="sigma2 must be a normal positive finite number"):
            crb_zp_per_block(h, s, pre, 0, sigma2)

    def test_accepts_smallest_normal_sigma2(self):
        rng = np.random.default_rng(46)
        cfg, pre, h, s = self.make_zp(rng)
        unit = crb_zp_per_block(h, s, pre, 0, 1.0)
        at = crb_zp_per_block(h, s, pre, 0, SMALLEST_NORMAL)
        assert np.array_equal(at.C, SMALLEST_NORMAL * unit.C)
        assert at.trace == SMALLEST_NORMAL * unit.trace


class TestPrecoderInsensitivity:
    def test_cp_gram_ignores_unitary_inner(self):
        # the symbol-averaged reduced information depends on F only
        # through F F^H, which a unitary inner precoder leaves unchanged
        plain = make_precoder(SystemConfig(M=12, L=4, N=8, inner_kind="identity"))
        spread = make_precoder(SystemConfig(M=12, L=4, N=8, inner_kind="idft"))
        np.testing.assert_allclose(
            plain.F @ plain.F.conj().T, spread.F @ spread.F.conj().T, atol=1e-12
        )

    def test_average_bound_nearly_identical(self):
        rng = np.random.default_rng(46)
        h = random_unit_channel(2, rng)
        d = default_anchor(h)
        traces = {}
        for inner in ("identity", "idft"):
            cfg = SystemConfig(M=8, L=2, N=8, sigma2=0.01, inner_kind=inner)
            pre = make_precoder(cfg)
            vals = []
            for t in range(500):
                s = generate_symbols("qpsk", 8, 8, 1000 + t).sN
                vals.append(crb_fast(h, s, pre, d, cfg.sigma2, cfg.N).trace)
            traces[inner] = np.mean(vals)
        gap_db = abs(10 * np.log10(traces["identity"] / traces["idft"]))
        assert gap_db < 0.15, f"average bounds differ by {gap_db:.3f} dB"
