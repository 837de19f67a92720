"""The package's public surface: __all__ is sorted, complete and free of
names that the package no longer carries."""

import blindcrb

REMOVED = (
    "ChannelEstimate", "NullSpaceBasis", "Observation", "build_channel_toeplitz",
    "hankel_rearrange", "left_null_basis", "run_cell",
)


def test_all_is_sorted_without_duplicates():
    assert blindcrb.__all__ == sorted(set(blindcrb.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in blindcrb.__all__ if not hasattr(blindcrb, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in blindcrb.__all__
        assert not hasattr(blindcrb, name)
