"""Property tests of the fast route's reduced information D0 over random
small configurations: M in 2..8, L in 1..min(3, M-1), N in 2..60, 1 to 3
frames, cyclic prefix or zero padding, identity or IDFT inner precoder.
Over that range some sweeps refresh their step map at every step and
others keep it once their carry repeats, so both are checked.

Rounding errors in D0 scale with the energy of the frame, not with D0,
which cancels to rounding level for a frame that says nothing about the
taps (a constant frame, say), so D0's tolerances are relative to that
energy. One test scales the taps by powers of two over the float range,
under a custom redundancy too, and asks for D0's bytes; another asks
crb_fast at a noise variance for the bytes of that variance times its
bound at unit noise. The examples are
derandomized, so every run draws the same instances."""

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from blindcrb import (
    IllConditioned,
    SystemConfig,
    build_K,
    crb_fast,
    default_anchor,
    generate_symbols,
    make_precoder,
)
from blindcrb.crb_blind import _sweep, fast_information
from helpers import (
    EXPONENTS,
    NOISE_VARIANCES,
    build_channel_toeplitz,
    crb_fast_dense,
    frame_energy,
    normal_or_zero,
    random_unit_channel,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def instances(draw):
    """(precoder, h, frames, N) of one random configuration."""
    M = draw(st.integers(2, 8))
    L = draw(st.integers(1, min(3, M - 1)))
    N = draw(st.integers(2, 60))
    T = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["cp", "zp"]))
    inner = draw(st.sampled_from(["identity", "idft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pre = make_precoder(SystemConfig(M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner))
    h = random_unit_channel(L, rng)
    frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(T)])
    return pre, h, frames, N


@PROPERTY_SETTINGS
@given(instances())
def test_hermitian_psd(instance):
    pre, h, frames, N = instance
    D0 = fast_information(h, frames, pre)
    np.testing.assert_array_equal(D0, D0.conj().swapaxes(-1, -2))
    assert np.all(np.linalg.eigvalsh(D0)[:, :1] >= -1e-12 * frame_energy(pre, frames)[:, 0])


@PROPERTY_SETTINGS
@given(instances(), st.floats(0.1, 10.0), st.floats(-np.pi, np.pi))
def test_blind_scale_invariance(instance, magnitude, phase):
    # K(c h) = c K(h) has the same left null space, so D0 cannot move.
    pre, h, frames, N = instance
    D0 = fast_information(h, frames, pre)
    scaled = fast_information(magnitude * np.exp(1j * phase) * h, frames, pre)
    assert np.all(np.abs(scaled - D0) <= 1e-12 * frame_energy(pre, frames))


@PROPERTY_SETTINGS
@given(instances())
def test_batch_member_equals_batch_of_one(instance):
    pre, h, frames, N = instance
    batch = fast_information(h, frames, pre)
    singles = np.concatenate([fast_information(h, frame[None], pre) for frame in frames])
    assert np.all(np.abs(singles - batch) <= 1e-13 * frame_energy(pre, frames))


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_channel_stack_member_equals_channel_alone(instance, seed, C):
    # The same in a stack of channels as alone, byte for byte: each member
    # keeps its step map from its own step on.
    pre, h, frames, N = instance
    rng = np.random.default_rng(seed)
    M = pre.F.shape[1]
    hs = np.stack([h] + [random_unit_channel(h.size - 1, rng) for _ in range(C - 1)])
    stack = np.stack([frames] + [
        np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in frames])
        for _ in range(C - 1)
    ])
    D0 = fast_information(hs, stack, pre)
    for h_c, f, member in zip(hs, stack, D0):
        np.testing.assert_array_equal(member, fast_information(h_c, f, pre))


@PROPERTY_SETTINGS
@given(instances())
def test_bound_matches_dense_qr_oracle(instance):
    pre, h, frames, N = instance
    d = default_anchor(h)
    try:
        fast = crb_fast(h, frames[0], pre, d, 1.0, N).C
    except IllConditioned:
        reject()  # a frame that carries no information has no bound
    dense = crb_fast_dense(h, frames[0], pre, d, 1.0, N)
    rel = np.linalg.norm(fast - dense) / np.linalg.norm(dense)
    assert rel <= 1e-10, f"sweep and dense QR differ ({rel:.2e})"


@PROPERTY_SETTINGS
@given(instances(), NOISE_VARIANCES)
def test_bound_is_sigma2_times_unit_bound(instance, sigma2):
    # The noise variance enters as one product, never as D0 / sigma2.
    pre, h, frames, N = instance
    d = default_anchor(h)
    try:
        unit = crb_fast(h, frames[0], pre, d, 1.0, N)
    except IllConditioned:
        reject()  # a frame that carries no information has no bound
    at = crb_fast(h, frames[0], pre, d, sigma2, N)
    assert at.C.tobytes() == (sigma2 * unit.C).tobytes()
    assert at.trace.hex() == (sigma2 * unit.trace).hex()


@st.composite
def column_blocks(draw):
    """(config, precoder, taps, cols) of a stack of 1 to 4 channels, each
    with its own block of 1 to 2L+2 random columns aligned with K's rows."""
    M = draw(st.integers(2, 8))
    L = draw(st.integers(1, min(3, M - 1)))
    N = draw(st.integers(2, 60))
    width = draw(st.integers(1, 2 * L + 2))
    C = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["cp", "zp"]))
    inner = draw(st.sampled_from(["identity", "idft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    config = SystemConfig(M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner)
    hs = np.stack([random_unit_channel(L, rng) for _ in range(C)])
    rows = N * (M + L) - L
    cols = rng.standard_normal((C, rows, width)) + 1j * rng.standard_normal((C, rows, width))
    return config, make_precoder(config), hs, cols


@PROPERTY_SETTINGS
@given(column_blocks())
def test_sweep_projects_any_columns(blocks):
    # On columns that are not stream windows, each member's coordinates
    # have the Gram C^H (I - Q Q^H) C of a dense QR of its K, and are the
    # bytes of its sweep alone.
    config, pre, hs, cols = blocks
    P, L = pre.F.shape[0], hs.shape[1] - 1
    B = np.stack([build_channel_toeplitz(h, P + L, P) @ pre.F for h in hs])
    coords, low, high = _sweep(B, cols)
    assert coords.shape == (len(hs), (config.N - 1) * L, cols.shape[2])
    for h, B_c, C, X, low_c, high_c in zip(hs, B, cols, coords, low, high):
        alone = _sweep(B_c[None], C[None])
        np.testing.assert_array_equal(X, alone[0][0])
        assert (low_c, high_c) == (alone[1][0], alone[2][0])
        Q = np.linalg.qr(build_K(config, pre, h)[0])[0]
        projected = C.conj().T @ (C - Q @ (Q.conj().T @ C))
        np.testing.assert_allclose(
            X.conj().T @ X, projected, rtol=0, atol=1e-10 * np.linalg.norm(C) ** 2
        )


@PROPERTY_SETTINGS
@given(
    st.integers(2, 8), st.integers(1, 3), st.integers(2, 40), st.integers(1, 3),
    st.sampled_from(["cp", "zp", "custom"]), st.sampled_from(["identity", "idft"]),
    EXPONENTS, st.integers(0, 2**32 - 1),
)
def test_taps_at_any_power_of_two_keep_the_bytes(M, L, N, T, kind, inner, k, seed):
    # D0 does not see the taps' scale, and the route takes every channel's
    # taps at their own power of two, so taps 2^k h give h's bytes however
    # large or small 2^k is. A stack of one channel gives a failed gate as
    # NaN, so every outcome is compared by its bytes; the suite's warning
    # rule fails any overflow or underflow warning.
    L = min(L, M - 1)
    rng = np.random.default_rng(seed)
    custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
    pre = make_precoder(SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom if kind == "custom" else None,
    ))
    h = random_unit_channel(L, rng)
    scaled = 2.0**k * h
    assume(normal_or_zero(scaled))
    frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(T)])[None]
    D0 = fast_information(h[None], frames, pre)
    assert fast_information(scaled[None], frames, pre).tobytes() == D0.tobytes()
