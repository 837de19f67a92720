"""Property tests of the fast route's reduced information D0 over random
small configurations: M in 2..8, L in 1..min(3, M-1), N in 2..60, 1 to 3
frames, cyclic prefix or zero padding, identity or IDFT inner precoder.
Over that range some sweeps stay in their QR steps to the end and others
switch to the steady-state map, so both phases are checked.

Rounding errors in D0 scale with the energy of the frame, not with D0,
which cancels to rounding level for a frame that says nothing about the
taps (a constant frame, say), so D0's tolerances are relative to that
energy. The examples are derandomized, so every run draws the same
instances."""

import numpy as np
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from blindcrb import (
    IllConditioned,
    SystemConfig,
    crb_fast,
    default_anchor,
    generate_symbols,
    make_precoder,
)
from blindcrb.crb_blind import fast_information
from helpers import crb_fast_dense, frame_energy, random_unit_channel

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
    # switches to its steady map at its own step.
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
