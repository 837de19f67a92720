"""Property tests of the package's one usability rule for taps and frames
(model._usable: every entry finite and one nonzero) over small
cp/zp/custom x identity/IDFT configurations, M in 2..6, L in
1..min(3, M-1), N in 2..6. The unusable inputs are a NaN, +inf or -inf
tap, all-zero taps, and a frame with one NaN, +inf or -inf sample.

Alone, such an input raises the same error class, IllConditioned, at
every bound entry point: crb_direct through build_K and fim_blocks,
crb_fast, and under zero padding crb_zp_per_block; fast_information and
zp_information raise it for the taps and give the frame's NaN member of
their batch. In a (C, T) stack of fast_information or zp_information,
the failed member is NaN, all of a channel's frames for a tap, and every
other member keeps its bytes. No case warns. The examples are
derandomized, so every run draws the same instances."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindcrb import (
    IllConditioned,
    SystemConfig,
    build_K,
    crb_direct,
    crb_fast,
    crb_zp_per_block,
    fim_blocks,
    generate_symbols,
    make_precoder,
)
from blindcrb.crb_blind import fast_information, zp_information
from helpers import random_unit_channel

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)

BAD = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@st.composite
def instances(draw):
    """(config, precoder, rng) of one random small configuration."""
    M = draw(st.integers(2, 6))
    L = draw(st.integers(1, min(3, M - 1)))
    N = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["cp", "zp", "custom"]))
    inner = draw(st.sampled_from(["identity", "idft"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    custom = rng.standard_normal((M + L, M)) + 1j * rng.standard_normal((M + L, M))
    config = SystemConfig(
        M=M, L=L, N=N, redundancy_kind=kind, inner_kind=inner,
        custom_redundancy=custom if kind == "custom" else None,
    )
    return config, make_precoder(config), rng


@st.composite
def spoilers(draw):
    """A function that spoils one channel's taps or one frame in place,
    and whether it spoils the taps."""
    on_taps = draw(st.booleans())
    value = draw(st.sampled_from(sorted(BAD) + ["zero"] * on_taps))
    where = draw(st.integers(0, 10**6))

    def spoil(h, s):
        if value == "zero":
            h[:] = 0
        elif on_taps:
            h[where % h.size] = BAD[value]
        else:
            s[where % s.size] = BAD[value]

    return spoil, on_taps


def draw_frames(config, rng, *shape):
    return np.array(
        [generate_symbols("qpsk", config.M, config.N, rng).sN for _ in range(np.prod(shape))]
    ).reshape(shape + (-1,))


@PROPERTY_SETTINGS
@given(instances(), spoilers())
def test_every_entry_point_raises_one_class(instance, spoiler):
    config, pre, rng = instance
    spoil, on_taps = spoiler
    h = random_unit_channel(config.L, rng)
    s = draw_frames(config, rng, 1)[0]
    spoil(h, s)
    routes = [
        lambda: crb_direct(fim_blocks(*build_K(config, pre, h), s, 1.0), 0),
        lambda: crb_fast(h, s, pre, 0, 1.0, config.N),
    ]
    informations = [fast_information]
    if pre.zero_padding:
        routes.append(lambda: crb_zp_per_block(h, s, pre, 0, 1.0))
        informations.append(zp_information)
    for route in routes:
        with pytest.raises(IllConditioned):
            route()
    for info in informations:
        if on_taps:
            with pytest.raises(IllConditioned):
                info(h, s[None], pre)
        else:
            assert np.isnan(info(h, s[None], pre)).all()


@PROPERTY_SETTINGS
@given(instances(), spoilers(), st.integers(2, 3), st.integers(1, 3), st.integers(0, 8))
def test_failed_member_is_nan_and_the_others_keep_their_bytes(
    instance, spoiler, C, T, member
):
    config, pre, rng = instance
    spoil, on_taps = spoiler
    hs = np.array([random_unit_channel(config.L, rng) for _ in range(C)])
    frames = draw_frames(config, rng, C, T)
    c, t = divmod(member % (C * T), T)
    bad_hs, bad_frames = hs.copy(), frames.copy()
    spoil(bad_hs[c], bad_frames[c, t])
    failed = np.zeros((C, T), dtype=bool)
    failed[c] |= on_taps
    failed[c, t] = True
    for info in [fast_information] + [zp_information] * pre.zero_padding:
        stack = info(bad_hs, bad_frames, pre)
        assert np.isnan(stack[failed]).all()
        np.testing.assert_array_equal(stack[~failed], info(hs, frames, pre)[~failed])
        for other in set(range(C)) - {c}:
            np.testing.assert_array_equal(stack[other], info(hs[other], frames[other], pre))
        if not on_taps:  # one channel's batch follows the stack's rule
            np.testing.assert_array_equal(info(bad_hs[c], bad_frames[c], pre), stack[c])
