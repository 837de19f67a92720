"""Property tests of the zero-padding reference information D0 of
zp_information over random small zero-padding configurations: M in 2..8,
L in 1..min(3, M-1), N in 2..60, 1 to 3 frames, identity or IDFT inner
precoder. D0 is checked on its own, against the Schur-complement oracle
on the full block-diagonal model, and against the frame bound it
references.

As for the fast route, D0's tolerances are relative to the energy of the
frame, taps scaled by a power of two over the float range, under a
custom inner precoder too, must give D0's bytes, and the bound at a
noise variance must be the bytes of that variance times its bound at
unit noise. The examples are
derandomized, so every run draws the same instances."""

import numpy as np
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from blindcrb import (
    NumericalError,
    SystemConfig,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    generate_symbols,
    make_precoder,
)
from blindcrb.crb_blind import _invert_reduced, zp_information
from helpers import (
    EXPONENTS,
    NOISE_VARIANCES,
    assert_psd,
    crb_zp_kron,
    frame_energy,
    normal_or_zero,
    random_unit_channel,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


@st.composite
def instances(draw):
    """(precoder, h, frames, N) of one random zero-padding configuration."""
    M = draw(st.integers(2, 8))
    L = draw(st.integers(1, min(3, M - 1)))
    N = draw(st.integers(2, 60))
    T = draw(st.integers(1, 3))
    inner = draw(st.sampled_from(["identity", "idft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pre = make_precoder(SystemConfig(M=M, L=L, N=N, redundancy_kind="zp", inner_kind=inner))
    h = random_unit_channel(L, rng)
    frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(T)])
    return pre, h, frames, N


@PROPERTY_SETTINGS
@given(instances(), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_channel_stack_member_equals_channel_alone(instance, seed, C):
    pre, h, frames, N = instance
    rng = np.random.default_rng(seed)
    M = pre.Ftilde.shape[0]
    hs = np.stack([h] + [random_unit_channel(h.size - 1, rng) for _ in range(C - 1)])
    stack = np.stack([frames] + [
        np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in frames])
        for _ in range(C - 1)
    ])
    D0 = zp_information(hs, stack, pre)
    for h_c, f, member in zip(hs, stack, D0):
        np.testing.assert_array_equal(member, zp_information(h_c, f, pre))


@PROPERTY_SETTINGS
@given(instances())
def test_hermitian_psd(instance):
    pre, h, frames, N = instance
    D0 = zp_information(h, frames, pre)
    np.testing.assert_array_equal(D0, D0.conj().swapaxes(-1, -2))
    assert np.all(np.linalg.eigvalsh(D0)[:, :1] >= -1e-12 * frame_energy(pre, frames)[:, 0])


@PROPERTY_SETTINGS
@given(instances(), st.floats(0.1, 10.0), st.floats(-np.pi, np.pi))
def test_blind_scale_invariance(instance, magnitude, phase):
    # T(c h) Ftilde = c T(h) Ftilde has the same left null space.
    pre, h, frames, N = instance
    D0 = zp_information(h, frames, pre)
    scaled = zp_information(magnitude * np.exp(1j * phase) * h, frames, pre)
    assert np.all(np.abs(scaled - D0) <= 1e-12 * frame_energy(pre, frames))


@PROPERTY_SETTINGS
@given(instances())
def test_batch_member_equals_batch_of_one(instance):
    pre, h, frames, N = instance
    batch = zp_information(h, frames, pre)
    for frame, D0 in zip(frames, batch):
        np.testing.assert_array_equal(zp_information(h, frame[None], pre)[0], D0)


@PROPERTY_SETTINGS
@given(instances())
def test_bound_matches_kron_oracle(instance):
    pre, h, frames, N = instance
    M, L = pre.Ftilde.shape[0], h.size - 1
    d = default_anchor(h)
    batch = zp_information(h, frames, pre)
    for frame, D0 in zip(frames, batch):
        try:
            C = _invert_reduced(D0, d).C
        except NumericalError:
            reject()  # a frame that carries no information has no bound
        oracle = crb_zp_kron(h, frame, pre.Ftilde, d, 1.0, M, L, N)
        rel = np.linalg.norm(C - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10, f"projection and Schur routes differ ({rel:.2e})"


@PROPERTY_SETTINGS
@given(instances(), NOISE_VARIANCES)
def test_bound_is_sigma2_times_unit_bound(instance, sigma2):
    # The noise variance enters as one product, never as D0 / sigma2.
    pre, h, frames, N = instance
    d = default_anchor(h)
    try:
        unit = crb_zp_per_block(h, frames[0], pre, d, 1.0)
    except NumericalError:
        reject()  # a frame that carries no information has no bound
    at = crb_zp_per_block(h, frames[0], pre, d, sigma2)
    assert at.C.tobytes() == (sigma2 * unit.C).tobytes()
    assert at.trace.hex() == (sigma2 * unit.trace).hex()


@PROPERTY_SETTINGS
@given(instances())
def test_reference_never_above_frame_bound(instance):
    # Keeping the L samples the frame model drops can only add information.
    pre, h, frames, N = instance
    d = default_anchor(h)
    try:
        frame = crb_fast(h, frames[0], pre, d, 1.0, N).C
    except NumericalError:
        reject()
    full = crb_zp_per_block(h, frames[0], pre, d, 1.0).C
    assert_psd(frame - full, scale_tol=1e-10, msg="reference exceeded the frame bound")


@PROPERTY_SETTINGS
@given(
    st.integers(2, 8), st.integers(1, 3), st.integers(2, 40), st.integers(1, 3),
    st.sampled_from(["identity", "idft", "custom"]),
    EXPONENTS, st.integers(0, 2**32 - 1),
)
def test_taps_at_any_power_of_two_keep_the_bytes(M, L, N, T, inner, k, seed):
    # As on the fast route: taps 2^k h give h's bytes. Only a zero-padding
    # F = [Ftilde; 0] has this bound, so the custom case is a custom inner
    # precoder under zero padding.
    L = min(L, M - 1)
    rng = np.random.default_rng(seed)
    custom = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    pre = make_precoder(SystemConfig(
        M=M, L=L, N=N, redundancy_kind="zp", inner_kind=inner,
        custom_inner=custom if inner == "custom" else None,
    ))
    h = random_unit_channel(L, rng)
    scaled = 2.0**k * h
    assume(normal_or_zero(scaled))
    frames = np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in range(T)])[None]
    D0 = zp_information(h[None], frames, pre)
    assert zp_information(scaled[None], frames, pre).tobytes() == D0.tobytes()
