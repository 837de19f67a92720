"""Model-layer tests: structured matrix builders, symbol/observation
synthesis, the Wirtinger log-likelihood gradients, and the one
noise-variance rule, model._require_positive_sigma2, as one table: each
entry point that applies it (SystemConfig, fim_blocks, crb_fast,
crb_zp_per_block, loglik_gradients) refuses every value of one list with
the rule's message and takes every value of another as float(sigma2).

The model's constructions are the rows of one table, ROWS, each with one
oracle: the selection-matrix product of helpers.build_selection_matrices
and block_diag_precoder, or np.convolve of the taps with the precoded
stream. One body per property runs the rows on each test's fixed
instance and on SWEEP, a seeded draw per cp/zp/custom redundancy x
identity/IDFT/custom inner precoder x N in {1, 2, 3, 25}. The gradients
meet central finite differences of a locally defined log-likelihood."""

import itertools
import re
from collections import namedtuple
from dataclasses import astuple
from decimal import Decimal
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from blindcrb import (
    Channel,
    Precoder,
    SystemConfig,
    build_inner_precoder,
    build_K,
    build_redundancy,
    crb_fast,
    crb_zp_per_block,
    fim_blocks,
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
    build_selection_matrices,
    random_instance,
    random_unit_channel,
    selection_product,
)

GRID = (0.0, 1e-3, 0.25, 7.0)


def model(pre, h, s, grid=GRID):
    """An instance, which holds the L, N and P that build_K reads of a
    config: a precoder, one channel's (L+1,) taps or a (C, L+1) stack, a
    frame s of N >= 1 blocks and the grid row's noise variances. L is read
    off the taps, so F may be any P x M block with L < P."""
    h, (P, M) = np.asarray(h), pre.F.shape
    return SimpleNamespace(pre=pre, h=h, s=s, grid=grid, L=h.shape[-1] - 1, N=len(s) // M, P=P)


def seeded():
    """The generator each noise draw of the grid row starts from."""
    return np.random.default_rng(np.random.SeedSequence([3, 2, 1, 0]))


def shifted(m):
    """The selector G and the [J_l (I_N kron F)] of the instance m."""
    G, J = build_selection_matrices(m.N, m.P, m.L)
    return G, [Jl @ block_diag_precoder(m.pre.F, m.N) for Jl in J]


def convolution(m):
    """The convolution of the taps with the precoded stream (I_N kron F) s_N,
    less its first L samples and its L-sample tail."""
    x = (m.s.reshape(m.N, -1) @ m.pre.F.T).ravel()
    return np.convolve(x, m.h)[m.L: m.N * m.P]


def noisy(m, clean):
    """clean plus sqrt(sigma2/2) times one unit noise draw from seeded(),
    one row per noise variance of the grid."""
    noise = draw_noise(clean.size, seeded())
    return clean + np.multiply.outer(np.sqrt(np.array(m.grid) / 2), noise)


# A construction of the model: build(m) is what the package makes of the
# instance m, oracle(m) what it must equal, within atol plus rtol times
# the oracle's largest entry.
Row = namedtuple("Row", "name build oracle atol rtol")
FACTORS = Row("J_l (I_N kron F)", lambda m: _tap_factors(m.pre.F, m.L, m.N),
              lambda m: shifted(m)[1], 0.0, 0.0)
TAP_SUM_F = Row("T(h) F", lambda m: _tap_sum(m.h, _tap_factors(m.pre.F, m.L, m.N)),
                lambda m: selection_product(m.h, m.pre.F, m.N), 0.0, 1e-15)
TAP_SUM_FTILDE = Row("T(h) Ftilde", lambda m: _tap_sum(m.h, _tap_factors(m.pre.Ftilde, m.L, m.N)),
                     lambda m: selection_product(m.h, m.pre.Ftilde, m.N), 0.0, 1e-15)
K_MATRIX = Row("K", lambda m: build_K(m, m.pre, m.h)[0],
               lambda m: shifted(m)[0] @ selection_product(m.h, m.pre.F, m.N), 1e-12, 0.0)
K_S = Row("K s", lambda m: build_K(m, m.pre, m.h)[0] @ m.s, convolution, 1e-13, 0.0)
K_L = Row("K_l", lambda m: build_K(m, m.pre, m.h)[1],
          lambda m: [shifted(m)[0] @ JX for JX in shifted(m)[1]], 1e-12, 0.0)
FRAME = Row("noiseless frame", lambda m: synthesize_observation(m.pre, m.h, m.s, 0.0, None),
            convolution, 1e-13, 0.0)
GRID_ROWS = Row("grid rows", lambda m: synthesize_observation(m.pre, m.h, m.s, m.grid, seeded()),
                lambda m: noisy(m, convolution(m)), 1e-13, 0.0)
ROWS = [FACTORS, TAP_SUM_F, TAP_SUM_FTILDE, K_MATRIX, K_S, K_L, FRAME, GRID_ROWS]


def check_oracle(rows, models, exact=False):
    """Each row's construction equals its oracle within the row's
    tolerance, or exactly if exact is set."""
    for m, row in itertools.product(models, rows):
        want = np.asarray(row.oracle(m))
        atol = 0.0 if exact else row.atol + row.rtol * np.abs(want).max()
        np.testing.assert_allclose(row.build(m), want, rtol=0, atol=atol, err_msg=row.name)


def check_linear(rows, models, c=2 - 1j):
    """Each row gives c times its construction at c h, within 1e-12."""
    for m, row in itertools.product(models, rows):
        got, want = row.build(model(m.pre, c * m.h, m.s)), c * row.build(m)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=row.name)


def check_stack(rows, models):
    """Each row, given a stack of taps, gives each member the bytes of its
    channel alone."""
    for m, row in itertools.product(models, rows):
        for h, member in zip(m.h, row.build(m)):
            assert member.tobytes() == row.build(model(m.pre, h, m.s)).tobytes(), row.name


def check_views(rows, models):
    """Each row's per-tap factors are L+1 read-only views of one array."""
    for m, row in itertools.product(models, rows):
        factors = row.build(m)
        assert len(factors) == m.L + 1
        for factor in factors:
            assert np.shares_memory(factors[0], factor)
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 1


def check_grid(models):
    """The grid row takes one unit noise draw from the generator, and is,
    bit for bit, the noiseless frame plus that draw scaled per variance:
    each of its frames is the call at that variance alone from the same
    seed, and equals the noiseless frame where the variance is 0."""
    for m in models:
        gen, ref = seeded(), seeded()
        rows = synthesize_observation(m.pre, m.h, m.s, np.array(m.grid), gen)
        draw_noise(rows.shape[-1], ref)
        assert gen.bit_generator.state == ref.bit_generator.state
        clean = FRAME.build(m)
        assert rows.shape == (len(m.grid), clean.size)
        assert rows.tobytes() == noisy(m, clean).tobytes()
        for row, sigma2 in zip(rows, m.grid):
            alone = synthesize_observation(m.pre, m.h, m.s, sigma2, seeded())
            assert row.tobytes() == alone.tobytes()
            assert np.array_equal(row, clean) == (sigma2 == 0)


def complex_normal(shape, rng):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def sweep(rng):
    """One instance per redundancy x inner precoder x N, with M in 2..6,
    L in 1..min(3, M-1), unit-norm taps and a QPSK frame."""
    kinds = itertools.product(["cp", "zp", "custom"], ["identity", "idft", "custom"])
    for (kind, inner), N in itertools.product(kinds, [1, 2, 3, 25]):
        M = int(rng.integers(2, 7))
        L = int(rng.integers(1, min(3, M - 1) + 1))
        # the precoder does not depend on N, which SystemConfig keeps >= 2
        pre = make_precoder(SystemConfig(M=M, L=L, N=2, redundancy_kind=kind, inner_kind=inner,
                                         custom_redundancy=complex_normal((M + L, M), rng),
                                         custom_inner=complex_normal((M, M), rng)))
        yield model(pre, random_unit_channel(L, rng), generate_symbols("qpsk", M, N, rng).sN)


SWEEP = list(sweep(np.random.default_rng(43)))


def plain(P):
    """The identity as the precoder, whose factors are the J_l."""
    return Precoder(Ftilde=np.eye(P), F=np.eye(P))


def drawn(rng, grid=GRID, **kwargs):
    """random_instance's precoder, taps and frame as an instance."""
    return model(*random_instance(rng, **kwargs)[1:], grid)


def precoder_of(kind, inner, M=5, L=2):
    custom = np.random.default_rng(9).standard_normal((M + L, M)) if kind == "custom" else None
    return make_precoder(
        SystemConfig(M=M, L=L, N=2, redundancy_kind=kind, inner_kind=inner,
                     custom_redundancy=custom)
    )


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
    # The tap sum of the one-block factors of F = I is T(h) itself.
    def test_identity_channel_is_padded_eye(self):
        check_oracle([TAP_SUM_F], [model(plain(5), [1.0, 0.0, 0.0], np.ones(5))], exact=True)

    def test_tall_two_tap_pattern(self):
        h = [0.8 - 0.1j, 0.3 + 0.5j]
        check_oracle([TAP_SUM_F], [model(plain(3), h, np.ones(3))], exact=True)


class TestTapFactors:
    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_factors_are_shifted_block_precoders(self, kind, inner, N):
        m = model(precoder_of(kind, inner), np.ones(3), np.ones(5 * N))
        check_oracle([FACTORS], [m])
        check_views([FACTORS], [m])

    def test_stacked_tap_sum_is_each_channel_alone(self):
        hs = complex_normal((4, 3), np.random.default_rng(10))
        check_stack([TAP_SUM_F], [model(precoder_of("cp", "idft"), hs, np.ones(15))])
        stacks = [model(m.pre, np.stack([m.h, m.h[::-1], 1j * m.h]), m.s) for m in SWEEP]
        check_stack([TAP_SUM_F, TAP_SUM_FTILDE], stacks)

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_blocks_match_toeplitz_oracle(self, kind, inner):
        # B = T(h) F, the sweep's block, and A = T(h) Ftilde, the
        # zero-padding block, from the one-block factors.
        pre, rng = precoder_of(kind, inner), np.random.default_rng(11)
        models = [model(pre, random_unit_channel(2, rng), np.ones(5)) for _ in range(5)]
        check_oracle([TAP_SUM_F, TAP_SUM_FTILDE], models)


class TestSelectionMatrices:
    # Under F = I_P the factors are the J_l themselves, K is rows L..NP-1
    # of T(h) and K_l rows L..NP-1 of J_l; each is met exactly.
    def test_j0_is_padded_identity(self):
        check_oracle([FACTORS], [model(plain(3), [1.0, 0.0], np.ones(6))])

    def test_tap_sum_reproduces_toeplitz(self):
        rng = np.random.default_rng(5)
        models = [model(plain(P), complex_normal(L + 1, rng), np.ones(N * P))
                  for N, P, L in [(2, 3, 1), (3, 5, 2), (2, 6, 4)]]
        check_oracle([TAP_SUM_F, K_MATRIX], models, exact=True)
        check_oracle(ROWS, SWEEP)

    def test_g_selects_one_sample_per_row(self):
        check_oracle([K_MATRIX, K_L], [model(plain(4), np.ones(3), np.ones(12))], exact=True)


class TestBuildK:
    def test_unit_pulse_channel_gives_k0(self):
        # both meet G J_0 (I_N kron F) exactly, so K is K_0
        pre = make_precoder(SystemConfig(M=4, L=2, N=3))
        check_oracle([K_MATRIX, K_L], [model(pre, [1.0, 0.0, 0.0], np.ones(12))], exact=True)

    def test_tap_sum_identity(self):
        # K and each K_l meet their oracles, which sum as K = sum h_l K_l
        rng = np.random.default_rng(7)
        models = [drawn(rng, M=5, L=2, N=3, redundancy_kind=kind) for kind in ("cp", "zp")]
        check_oracle([K_MATRIX, K_L], models)

    def test_factors_match_selection_matrix_products(self):
        check_oracle([K_L], [drawn(np.random.default_rng(8), M=4, L=2, N=3, inner_kind="idft")])

    def test_tiny_zp_convolution_oracle(self):
        pre = make_precoder(SystemConfig(M=2, L=1, N=2, redundancy_kind="zp"))
        rng = np.random.default_rng(9)
        check_oracle([K_S], [model(pre, complex_normal(2, rng), complex_normal(4, rng))])

    def test_linearity_in_taps(self):
        check_linear([K_MATRIX], [drawn(np.random.default_rng(10))])
        check_linear([TAP_SUM_F, TAP_SUM_FTILDE, K_MATRIX, FRAME], SWEEP)

    def test_factors_are_read_only_views_of_one_block_precoder(self):
        check_views([K_L], [drawn(np.random.default_rng(11), M=4, L=2, N=3)])
        check_views([FACTORS, K_L], SWEEP)

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
        check_oracle([FRAME], [drawn(rng, M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner)])

    @pytest.mark.parametrize("N", [2, 25])
    @pytest.mark.parametrize("kind", ["cp", "zp", "custom"])
    def test_noiseless_frame_matches_dense_K(self, kind, N):
        # K s and the frame meet one oracle
        rng = np.random.default_rng(14)
        pre = make_precoder(SystemConfig(M=6, L=2, N=N, redundancy_kind=kind, inner_kind="idft",
                                         custom_redundancy=complex_normal((8, 6), rng)))
        h = random_unit_channel(2, rng)
        check_oracle([K_S, FRAME], [model(pre, h, generate_symbols("qpsk", 6, N, rng).sN)])

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
        + [[0.1, True], (0.1, np.bool_(True))]
        + [np.complex128(0.5 + 0.5j), np.array([0.1, 0.2 + 0j])],
        ids=["nan", "-1.0", "inf", "bool", "grid-nan", "grid-inf", "grid-neg", "grid-bool",
             "2d", "2d-1x1", "list-bool", "tuple-bool", "complex", "grid-complex"],
    )
    def test_rejects_nan_or_negative_noise_variance(self, sigma2):
        # NaN fails every comparison, so a `< 0` test would let it through
        # and return the noiseless frame; an infinite variance would give
        # a frame of infinities. A grid of variances is 1-D, and each of
        # its entries must pass. A complex one is refused before the cast
        # to float would drop its imaginary part.
        rng = np.random.default_rng(18)
        _, pre, h, s = random_instance(rng)
        with pytest.raises(ValueError, match="noise variance"):
            synthesize_observation(pre, h, s, sigma2, 0)

    def test_observation_length(self):
        # the oracle's NP - L samples, and so many in each row of a grid
        models = [drawn(np.random.default_rng(0), (1.0,), M=M, L=L, N=N)
                  for M, L, N in [(4, 2, 3), (12, 4, 8), (5, 1, 2)]]
        check_oracle([FRAME, GRID_ROWS], models)

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
        check_grid([drawn(np.random.default_rng(14), (0.5,))])

    @pytest.mark.parametrize("inner", ["identity", "idft"])
    @pytest.mark.parametrize("kind", ["cp", "zp"])
    def test_scaled_unit_noise_is_the_noisy_frame(self, kind, inner):
        rng = np.random.default_rng(15)
        check_grid([
            drawn(rng, (sigma2,), M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner)
            for sigma2 in (1e-3, 0.7)
        ])


class TestSynthesizeGrid:
    """A 1-D array of noise variances gives one frame per variance: the
    harness makes a trial's frames at every SNR point in one call."""

    @staticmethod
    def instance(kind="cp", inner="identity", grid=GRID):
        rng = np.random.default_rng(21)
        return drawn(rng, grid, M=5, L=2, N=4, redundancy_kind=kind, inner_kind=inner)

    @pytest.mark.parametrize("kind,inner", [("cp", "identity"), ("zp", "idft")])
    def test_rows_are_scalar_calls(self, kind, inner):
        check_grid([self.instance(kind, inner)])

    def test_one_point_grid_is_the_scalar_call(self):
        check_grid([self.instance(grid=(0.3,))])

    def test_zero_variance_row_is_the_clean_frame(self):
        check_grid([self.instance()] + SWEEP)

    @pytest.mark.parametrize("grid", [[0.0, 0.0], [1e-3, 0.25, 7.0]])
    def test_consumes_one_unit_noise_draw(self, grid):
        check_grid([self.instance(grid=tuple(grid))])


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
                e = y - convolution(model(pre, taps, frame))
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


def _sigma2_entry_points():
    """Each entry point of model._require_positive_sigma2 as a function of
    sigma2 that returns what it computes from it, on one zp instance whose
    taps and frame are small enough that fim_blocks' K^H K / sigma2 and
    the tap blocks stay in the float range at the smallest normal sigma2."""
    cfg, pre, h, s = random_instance(np.random.default_rng(19), redundancy_kind="zp")
    h, s = h / 2, s / 8
    K, K_list = build_K(cfg, pre, h)
    y = synthesize_observation(pre, h, s, 0.0, None)
    return {
        "SystemConfig": lambda v: (float(SystemConfig(M=4, L=2, N=3, sigma2=v).sigma2),),
        "fim_blocks": lambda v: astuple(fim_blocks(K, K_list, s, v)),
        "crb_fast": lambda v: astuple(crb_fast(h, s, pre, 0, v, cfg.N)),
        "crb_zp_per_block": lambda v: astuple(crb_zp_per_block(h, s, pre, 0, v)),
        "loglik_gradients": lambda v: loglik_gradients(y, cfg, pre, h, s, v),
    }


SIGMA2_ENTRY_POINTS = _sigma2_entry_points()
# The rule refuses all of these with its message, and takes each of the
# accepted as float(sigma2).
REFUSED_SIGMA2 = {
    "0": 0.0, "-0.5": -0.5, "-1": -1.0, "nan": np.nan, "+inf": np.inf, "-inf": -np.inf,
    "True": True, "array(True)": np.array(True), "list": [1.0], "tuple": (0.5,),
    "vector": np.array([0.5, 1.0]), "1x1": np.ones((1, 1)),
    **{repr(float(v)): v for v in SUBNORMAL_SIGMA2},
    "complex128(0.5)": np.complex128(0.5), "complex128(0.5+0.5j)": np.complex128(0.5 + 0.5j),
    "0-d complex": np.array(0.5 + 0j), "str": "0.5", "None": None,
    "Fraction": Fraction(1, 2), "Decimal": Decimal("0.5"),
}
ACCEPTED_SIGMA2 = {
    "float64": np.float64(0.5), "float32": np.float32(0.5), "int32": np.int32(3),
    "int64": np.int64(2), "0-d": np.array(0.5), "smallest-normal": SMALLEST_NORMAL,
    "int 2**70": 2**70,
}


@pytest.mark.parametrize("sigma2", REFUSED_SIGMA2.values(), ids=REFUSED_SIGMA2)
@pytest.mark.parametrize("entry", SIGMA2_ENTRY_POINTS)
def test_noise_variance_refused(entry, sigma2):
    kind = "single number" if np.ndim(sigma2) else "normal positive finite number"
    with pytest.raises(ValueError, match=f"^{re.escape(f'sigma2 must be a {kind}, got {sigma2}')}$"):
        SIGMA2_ENTRY_POINTS[entry](sigma2)


@pytest.mark.parametrize("sigma2", ACCEPTED_SIGMA2.values(), ids=ACCEPTED_SIGMA2)
@pytest.mark.parametrize("entry", SIGMA2_ENTRY_POINTS)
def test_noise_variance_accepted(entry, sigma2):
    run = SIGMA2_ENTRY_POINTS[entry]
    assert [np.asarray(x).tobytes() for x in run(sigma2)] == [
        np.asarray(x).tobytes() for x in run(float(sigma2))
    ]


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
