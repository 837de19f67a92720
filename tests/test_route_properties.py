"""Property tests of the bound routes, one body per property run over a
table of routes:

- fast: fast_information's D0 and crb_fast, against the dense QR of K
  (helpers.crb_fast_dense), over cp, zp and custom redundancy;
- zp: zp_information's D0 and crb_zp_per_block, against the Schur
  complement on the full block-diagonal model (helpers.crb_zp_kron), over
  zero padding built as "zp" or as a custom redundancy equal to it;
- direct: crb_direct through build_K and fim_blocks, which has no D0 and
  runs the usability rule only.

Every route draws identity, IDFT and custom inner precoders. The
instances have M in 2..8, L in 1..min(3, M-1), N in 2..60 (2..40 for the
power-of-two scaling) and 1 to 3 frames. On each route with a D0, D0 is
Hermitian PSD, blind to the taps' scale, the same for a frame in a batch
and alone, the same bytes for a channel in a stack and alone and for
taps times any power of two over the float range; the bound agrees with
the route's dense oracle within 1e-10 and is, bit for bit, sigma2 times
its bound at unit noise, the smallest normal sigma2 included. Rounding
errors in D0 scale with the energy of the frame, not with D0, which
cancels to rounding level for a frame that says nothing about the taps
(a constant frame, say), so D0's tolerances are relative to that energy.
Over these ranges some sweeps refresh their step map at every step and
others keep it once their carry repeats, so both are checked. Some
properties hold for one route: _sweep projects any columns, a block or
one column without a trailing axis, and its rank gate passes where a
dense QR's |diag R| does (fast); the reference is positive and never
lies above the frame bound, and the frame's D0 is, within 1e-13 of its
largest entry, the reference's D0 of the frame's last N - 1 blocks (zp),
also on a fixed zp/IDFT frame of N = 400 blocks, past the draws. On a
fixed stack, each D0 function gives an empty stack an empty result and
refuses taps and frames that do not match; helpers.assert_members_alone,
the stack body, also runs on test_crb_blind's fixed stacks up to
N = 100. Every route refuses an anchor that names no tap with one
message.

The usability rule (model._usable: every entry finite and one nonzero)
is checked on every route over instances with M in 2..6 and N in 2..6,
and on fixed inputs. An unusable input is a NaN, +inf or -inf tap,
all-zero taps, or a frame with one NaN, +inf or -inf sample. Alone, it
raises IllConditioned at the route's bound, naming J11 for the taps and
the anchor-reduced information for a frame; a route's D0 raises the same
for the taps and gives the frame's NaN member of its batch. In a (C, T)
stack, the failed member is NaN, all of a channel's frames for a tap,
and every other member keeps its bytes. Every route refuses the same
way a usable frame times 1e160, whose information leaves the float range
(a fixed zero-padding input), and the direct route also refuses, with the
same error, blocks that leave the float range at a sigma2 near the
smallest normal. The suite's warning rule fails any case that warns.
The examples are derandomized, so every run draws the same instances."""

import re
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from blindcrb import (
    IllConditioned,
    NumericalError,
    SystemConfig,
    build_K,
    build_redundancy,
    crb_direct,
    crb_fast,
    crb_zp_per_block,
    default_anchor,
    fim_blocks,
    generate_symbols,
    make_precoder,
)
from blindcrb.crb_blind import _sweep, fast_information, zp_information
from blindcrb.crb_core import RANK_RTOL
from helpers import (
    EXPONENTS,
    NOISE_VARIANCES,
    SMALLEST_NORMAL,
    assert_members_alone,
    assert_psd,
    build_channel_toeplitz,
    channel_stack,
    crb_fast_dense,
    crb_zp_kron,
    frame_energy,
    normal_or_zero,
    random_unit_channel,
)

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def dims(pre, s):
    """(M, L, N) of a frame s sent with the precoder pre."""
    P, M = pre.F.shape
    return M, P - M, s.size // M


def direct_bound(h, s, pre, d, sigma2):
    M, L, N = dims(pre, s)
    return crb_direct(fim_blocks(*build_K(SystemConfig(M=M, L=L, N=N), pre, h), s, sigma2), d)


@dataclass(frozen=True)
class Route:
    """A bound route. bound(h, s, pre, d, sigma2) is its CrbResult for one
    frame; information(h, frames, pre) its D0, None on the direct route;
    oracle(h, s, pre, d) the dense bound at unit noise it is checked
    against. zero_padding says whether it takes zero-padding precoders
    only, and batch_rtol how far a frame's D0 in a batch may lie from its
    D0 alone, relative to the frame's energy."""

    name: str
    bound: Callable
    information: Callable | None = None
    oracle: Callable | None = None
    zero_padding: bool = False
    batch_rtol: float = 0.0


FAST = Route(
    "fast",
    lambda h, s, pre, d, sigma2: crb_fast(h, s, pre, d, sigma2, dims(pre, s)[2]),
    fast_information,
    lambda h, s, pre, d: crb_fast_dense(h, s, pre, d, 1.0, dims(pre, s)[2]),
    batch_rtol=1e-13,
)
ZP = Route(
    "zp",
    crb_zp_per_block,
    zp_information,
    lambda h, s, pre, d: crb_zp_kron(h, s, pre.Ftilde, d, 1.0, *dims(pre, s)),
    zero_padding=True,
)
DIRECT = Route("direct", direct_bound)
D0_ROUTES = [FAST, ZP]
ROUTES = [FAST, ZP, DIRECT]

def over(routes):
    return pytest.mark.parametrize("route", routes, ids=lambda r: r.name)


def random_matrix(rows, cols, rng):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def draw_frames(config, rng, *shape):
    return np.array(
        [generate_symbols("qpsk", config.M, config.N, rng).sN for _ in range(np.prod(shape))]
    ).reshape(shape + (-1,))


@st.composite
def systems(draw, route, max_M=8, max_N=60):
    """(config, precoder, rng) of one random configuration that the route
    takes, with M in 2..max_M, L in 1..min(3, M-1), N in 2..max_N: cp, zp
    or a random custom redundancy, or on a zero-padding route "zp" or a
    custom redundancy equal to it, under an identity, IDFT or random
    custom inner precoder."""
    M = draw(st.integers(2, max_M))
    L = draw(st.integers(1, min(3, M - 1)))
    N = draw(st.integers(2, max_N))
    kind = draw(st.sampled_from(["zp", "custom"] if route.zero_padding else ["cp", "zp", "custom"]))
    inner = draw(st.sampled_from(["identity", "idft", "custom"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if route.zero_padding:
        redundancy = build_redundancy("zp", M, L)
    else:
        redundancy = random_matrix(M + L, M, rng)
    config = SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=redundancy if kind == "custom" else None,
        custom_inner=random_matrix(M, M, rng) if inner == "custom" else None,
    )
    return config, make_precoder(config), rng


@st.composite
def instances(draw, route, max_N=60):
    """(precoder, h, frames) of one random configuration with 1 to 3
    frames, from systems."""
    config, pre, rng = draw(systems(route, max_N=max_N))
    T = draw(st.integers(1, 3))
    return pre, random_unit_channel(config.L, rng), draw_frames(config, rng, T)


def bound_or_reject(route, h, s, pre, d, sigma2=1.0, refused=IllConditioned):
    try:
        return route.bound(h, s, pre, d, sigma2)
    except refused:
        reject()  # a frame that carries no information has no bound


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data())
def test_hermitian_psd(route, data):
    pre, h, frames = data.draw(instances(route))
    D0 = route.information(h, frames, pre)
    np.testing.assert_array_equal(D0, D0.conj().swapaxes(-1, -2))
    assert np.all(np.linalg.eigvalsh(D0)[:, :1] >= -1e-12 * frame_energy(pre, frames)[:, 0])


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), st.floats(0.1, 10.0), st.floats(-np.pi, np.pi))
def test_blind_scale_invariance(route, data, magnitude, phase):
    # K(c h) = c K(h) and T(c h) Ftilde = c T(h) Ftilde have the same left
    # null space, so D0 cannot move.
    pre, h, frames = data.draw(instances(route))
    D0 = route.information(h, frames, pre)
    scaled = route.information(magnitude * np.exp(1j * phase) * h, frames, pre)
    assert np.all(np.abs(scaled - D0) <= 1e-12 * frame_energy(pre, frames))


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data())
def test_batch_member_equals_batch_of_one(route, data):
    pre, h, frames = data.draw(instances(route))
    batch = route.information(h, frames, pre)
    singles = np.concatenate([route.information(h, frame[None], pre) for frame in frames])
    assert np.all(np.abs(singles - batch) <= route.batch_rtol * frame_energy(pre, frames))


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), st.integers(0, 2**32 - 1), st.integers(2, 4))
def test_channel_stack_member_equals_channel_alone(route, data, seed, C):
    # The same in a stack of channels as alone, byte for byte: on the fast
    # route each member keeps its step map from its own step on.
    pre, h, frames = data.draw(instances(route))
    rng = np.random.default_rng(seed)
    M, L, N = dims(pre, frames[0])
    hs = np.stack([h] + [random_unit_channel(L, rng) for _ in range(C - 1)])
    stack = np.stack([frames] + [
        np.stack([generate_symbols("qpsk", M, N, rng).sN for _ in frames])
        for _ in range(C - 1)
    ])
    assert_members_alone(route.information, pre, hs, stack)


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), EXPONENTS)
def test_taps_at_any_power_of_two_keep_the_bytes(route, data, k):
    # D0 does not see the taps' scale, and the route takes every channel's
    # taps at their own power of two, so taps 2^k h give h's bytes however
    # large or small 2^k is. A stack of one channel gives a failed gate as
    # NaN, so every outcome is compared by its bytes; the suite's warning
    # rule fails any overflow or underflow warning.
    pre, h, frames = data.draw(instances(route, max_N=40))
    scaled = 2.0**k * h
    assume(normal_or_zero(scaled))
    D0 = route.information(h[None], frames[None], pre)
    assert route.information(scaled[None], frames[None], pre).tobytes() == D0.tobytes()


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data())
def test_bound_matches_dense_oracle(route, data):
    # Each frame's bound, where the route gives one, within 1e-10 of the
    # route's dense oracle. A frame that carries no information has no
    # bound; at L = 1 no gate refuses it (ROADMAP item 2, pinned by the
    # strict xfail test_uninformative_frame_rejected_when_L_is_1), and
    # both bounds are then rounding noise, so such a frame, whose D0 is
    # at rounding level of its energy, is not compared.
    pre, h, frames = data.draw(instances(route))
    d = default_anchor(h)
    checked = 0
    for frame in frames:
        try:
            C = route.bound(h, frame, pre, d, 1.0).C
        except IllConditioned:
            continue
        D0 = route.information(h, frame[None], pre)
        if h.size == 2 and np.all(np.abs(D0) <= 1e-12 * frame_energy(pre, frame[None])):
            continue
        oracle = route.oracle(h, frame, pre, d)
        rel = np.linalg.norm(C - oracle) / np.linalg.norm(oracle)
        assert rel <= 1e-10, f"{route.name} route and its oracle differ ({rel:.2e})"
        checked += 1
    assume(checked)


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), NOISE_VARIANCES)
def test_bound_is_sigma2_times_unit_bound(route, data, sigma2):
    # The noise variance enters as one product, never as D0 / sigma2, also
    # at the smallest normal sigma2.
    pre, h, frames = data.draw(instances(route))
    d = default_anchor(h)
    unit = bound_or_reject(route, h, frames[0], pre, d)
    for s2 in (sigma2, SMALLEST_NORMAL):
        at = route.bound(h, frames[0], pre, d, s2)
        assert at.C.tobytes() == (s2 * unit.C).tobytes()
        assert at.trace.hex() == (s2 * unit.trace).hex()


@st.composite
def column_blocks(draw):
    """(config, precoder, taps, cols) of a stack of 1 to 4 channels, each
    with its own block of 1 to 2L+2 random columns aligned with K's rows,
    or one column without a trailing axis."""
    config, pre, rng = draw(systems(FAST))
    L = config.L
    width = draw(st.integers(1, 2 * L + 2))
    C = draw(st.integers(1, 4))
    hs = np.stack([random_unit_channel(L, rng) for _ in range(C)])
    cols = random_matrix(C * (config.N * config.P - L), width, rng).reshape(C, -1, width)
    return config, pre, hs, cols[..., 0] if draw(st.booleans()) else cols


@PROPERTY_SETTINGS
@given(column_blocks())
def test_sweep_projects_any_columns(blocks):
    # On columns that are not stream windows, each member's coordinates
    # have the Gram C^H (I - Q Q^H) C of a dense QR of its K, and are the
    # bytes of its sweep alone; its rank gate passes where the dense QR's
    # |diag R| does.
    config, pre, hs, cols = blocks
    P, L = pre.F.shape[0], hs.shape[1] - 1
    B = np.stack([build_channel_toeplitz(h, P + L, P) @ pre.F for h in hs])
    coords, low, high = _sweep(B, cols)
    assert coords.shape == (len(hs), (config.N - 1) * L) + cols.shape[2:]
    for h, B_c, C, X, low_c, high_c in zip(hs, B, cols, coords, low, high):
        alone = _sweep(B_c[None], C[None])
        np.testing.assert_array_equal(X, alone[0][0])
        assert (low_c, high_c) == (alone[1][0], alone[2][0])
        Q, R = np.linalg.qr(build_K(config, pre, h)[0])
        diag = np.abs(np.diagonal(R))
        assert (low_c > RANK_RTOL * high_c) == (diag.min() > RANK_RTOL * diag.max())
        C, X = C.reshape(len(C), -1), X.reshape(len(X), -1)
        projected = C.conj().T @ (C - Q @ (Q.conj().T @ C))
        np.testing.assert_allclose(
            X.conj().T @ X, projected, rtol=0, atol=1e-10 * np.linalg.norm(C) ** 2
        )


@PROPERTY_SETTINGS
@given(instances(ZP))
def test_reference_never_above_frame_bound(instance):
    # Keeping the L samples the frame model drops can only add information.
    pre, h, frames = instance
    d = default_anchor(h)
    frame = bound_or_reject(FAST, h, frames[0], pre, d, refused=NumericalError).C
    full = crb_zp_per_block(h, frames[0], pre, d, 1.0)
    assert_psd(frame - full.C, scale_tol=1e-10, msg="reference exceeded the frame bound")
    assert full.trace > 0


def assert_frame_bound_is_bound_of_last_blocks(pre, h, frames):
    # Under zero padding, F = [Ftilde; 0], K = blockdiag(A[L:], A, ..., A)
    # with A = T(h) Ftilde (P x M). A[L:] is square, so while h_L != 0
    # block 0 adds no left-null direction, and the frame's D0 is the
    # reference's D0 of its last N - 1 blocks.
    M = pre.F.shape[1]
    try:
        D0 = fast_information(h, frames, pre)
        last = zp_information(h, frames[:, M:], pre)
    except NumericalError:
        reject()
    assert np.all(np.abs(D0 - last) <= 1e-13 * np.abs(D0).max())


@PROPERTY_SETTINGS
@given(instances(ZP))
def test_frame_bound_is_bound_of_last_blocks(instance):
    assert_frame_bound_is_bound_of_last_blocks(*instance)


def test_frame_bound_is_bound_of_last_blocks_at_N400():
    # past the dense oracles' N = 60
    pre = make_precoder(SystemConfig(M=12, L=4, N=400, redundancy_kind="zp", inner_kind="idft"))
    rng = np.random.default_rng(0)
    h = random_unit_channel(4, rng)
    frames = np.array([generate_symbols("qpsk", 12, 400, rng).sN for _ in range(2)])
    assert_frame_bound_is_bound_of_last_blocks(pre, h, frames)


@over(D0_ROUTES)
def test_empty_stack_gives_empty_result(route):
    # _channel_stack hands the frames back as (C, T, N, M) blocks; with no
    # channel, N is read off the frame length, not inferred.
    pre, hs, frames = channel_stack("zp", "identity", 8)
    assert route.information(hs[:0], frames[:0], pre).shape == (0, 3, 3, 3)


@over(D0_ROUTES)
def test_rejects_mismatched_stacks(route):
    pre, hs, frames = channel_stack("zp", "identity", 8)
    for taps, f, message in (
        (hs, frames[:3], "frames"),  # three channels' frames for four channels
        (hs, frames[0], "frames"),  # one channel's frames for a stack
        (hs[None], frames[None], "taps"),
    ):
        with pytest.raises(ValueError, match=message):
            route.information(taps, f, pre)
    for taps in (np.ones(()), hs[0, :1], hs[:, :1]):  # a scalar, or one tap
        message = f"need (L+1,) taps or a (C, L+1) stack of them, L >= 1, got shape {taps.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            route.information(taps, frames, pre)


@over(ROUTES)
def test_anchor_out_of_range_refused(route):
    # An anchor names one of the L + 1 = 3 taps, and no bool does.
    pre, hs, frames = channel_stack("zp", "identity", 3)
    for d in (-1, 3, 1.5, True, False):
        with pytest.raises(ValueError, match=f"^anchor index {d} outside 0..2$"):
            route.bound(hs[0], frames[0, 0], pre, d, 1.0)


BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@st.composite
def spoilers(draw):
    """(value, on_taps, where): what spoils one channel's taps or one
    frame, whether it is the taps, and the index it lands on."""
    on_taps = draw(st.booleans())
    value = draw(st.sampled_from(sorted(BAD) + ["zero"] * on_taps))
    return value, on_taps, draw(st.integers(0, 10**6))


def spoil(h, s, spoiler):
    """Spoil the taps h or the frame s in place."""
    value, on_taps, where = spoiler
    if value == "zero":
        h[:] = 0
    elif value == "x1e160":  # a finite frame whose Gram overflows
        s *= 1e160
    elif on_taps:
        h[where % h.size] = BAD[value]
    else:
        s[where % s.size] = BAD[value]


def assert_refused_alone(route, pre, h, s, on_taps, sigma2=1.0):
    """Unusable taps or frame alone: the route's bound raises
    IllConditioned naming the block that failed, and its D0 raises the
    same for the taps or gives the frame's NaN member."""
    with pytest.raises(IllConditioned, match="J11" if on_taps else "anchor-reduced"):
        route.bound(h, s, pre, 0, sigma2)
    if route.information is None:
        return
    if on_taps:
        with pytest.raises(IllConditioned, match="J11"):
            route.information(h, s[None], pre)
    else:
        assert np.isnan(route.information(h, s[None], pre)).all()


def assert_failed_member_is_nan(route, pre, hs, frames, spoiler, c, t):
    """Spoil channel c's taps or its frame t in a (C, T) stack: the failed
    members are NaN, all of channel c's frames for its taps, and every
    other member keeps its bytes."""
    bad_hs, bad_frames = hs.copy(), frames.copy()
    spoil(bad_hs[c], bad_frames[c, t], spoiler)
    failed = np.zeros(frames.shape[:2], dtype=bool)
    failed[c] |= spoiler[1]
    failed[c, t] = True
    stack = route.information(bad_hs, bad_frames, pre)
    assert np.isnan(stack[failed]).all()
    np.testing.assert_array_equal(stack[~failed], route.information(hs, frames, pre)[~failed])
    for other in set(range(len(hs))) - {c}:
        np.testing.assert_array_equal(stack[other], route.information(hs[other], frames[other], pre))
    if not spoiler[1]:  # one channel's batch follows the stack's rule
        np.testing.assert_array_equal(route.information(bad_hs[c], bad_frames[c], pre), stack[c])


@over(ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), spoilers())
def test_unusable_input_refused_alone(route, data, spoiler):
    config, pre, rng = data.draw(systems(route, max_M=6, max_N=6))
    h = random_unit_channel(config.L, rng)
    s = draw_frames(config, rng, 1)[0]
    spoil(h, s, spoiler)
    assert_refused_alone(route, pre, h, s, spoiler[1])


@over(D0_ROUTES)
@PROPERTY_SETTINGS
@given(st.data(), spoilers(), st.integers(2, 3), st.integers(1, 3), st.integers(0, 8))
def test_failed_member_is_nan_and_the_others_keep_their_bytes(
    route, data, spoiler, C, T, member
):
    config, pre, rng = data.draw(systems(route, max_M=6, max_N=6))
    hs = np.array([random_unit_channel(config.L, rng) for _ in range(C)])
    frames = draw_frames(config, rng, C, T)
    assert_failed_member_is_nan(route, pre, hs, frames, spoiler, *divmod(member % (C * T), T))


# Fixed inputs of the usability rule: (M, L, N, taps, frame seed, spoiler,
# sigma2), each run through the bodies above. Spoiled taps on every route;
# on every route under zero padding, a usable frame times 1e160, whose
# information overflows and which each route refuses as it refuses a frame
# that is not finite; on the direct route, usable inputs at a sigma2 whose
# blocks K^H K / sigma2 overflow.
FIXED_TAPS = {
    "M4-nan-tap": (4, 2, 5, [1.0, 1.0, -0.1j], 0, ("nan", True, 1), 1.0),
    "M12-nan-tap": (12, 4, 25, [0.5, 0.5, 0.5, 0.5, 0.2], 1, ("nan", True, 2), 1.0),
    "M12-inf-tap": (12, 4, 25, [0.5, 0.5, 0.5, 0.5, 0.2], 1, ("+inf", True, 2), 1.0),
}
FIXED_FRAMES = {
    "M12-frame-x1e160": (12, 4, 25, [0.5, 0.5, 0.3, 0.5, 0.2], 0, ("x1e160", False, 0), 1.0),
}
FIXED_SIGMA2 = {
    f"M12-sigma2-{float(sigma2)!r}": (12, 4, 25, [0.8, 0.4, 0.3, 0.2, 0.1], 0, None, sigma2)
    for sigma2 in (SMALLEST_NORMAL, 1e-306)
}
FIXED_CASES = [
    pytest.param(route, kind, case, id=f"{route.name}-{kind}-{name}")
    for cases, routes, kinds in (
        (FIXED_TAPS, ROUTES, ("cp", "zp")),
        (FIXED_FRAMES, ROUTES, ("zp",)),
        (FIXED_SIGMA2, [DIRECT], ("cp", "zp")),
    )
    for name, case in cases.items()
    for route in routes
    for kind in kinds
    if kind == "zp" or not route.zero_padding
]


@pytest.mark.parametrize("route, kind, case", FIXED_CASES)
def test_fixed_input_refused(route, kind, case):
    M, L, N, taps, seed, spoiler, sigma2 = case
    pre = make_precoder(SystemConfig(M=M, L=L, N=N, redundancy_kind=kind))
    h = np.array(taps, dtype=np.complex128)
    s = generate_symbols("qpsk", M, N, seed).sN
    if spoiler is None:
        assert_refused_alone(route, pre, h, s, False, sigma2)
        return
    good = random_unit_channel(L, np.random.default_rng(2))
    hs, frames = np.stack([good, h]), np.stack([s[None], s[None]])
    spoil(h, s, spoiler)
    assert_refused_alone(route, pre, h, s, spoiler[1], sigma2)
    if route.information is not None:
        assert_failed_member_is_nan(route, pre, hs, frames, spoiler, 1, 0)
