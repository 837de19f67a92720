"""The package's public surface: __all__ is sorted, complete, free of
names that the package no longer carries, and free of names that only
tests use."""

import io
import tokenize
from pathlib import Path

import blindcrb

REMOVED = (
    "ChannelEstimate", "EstimatorSettings", "NullSpaceBasis", "Observation",
    "build_channel_toeplitz", "channel_from_noise_subspace", "hankel_rearrange",
    "left_null_basis", "run_cell",
)

# The paper's complex-parameter bounds stay public though the package
# itself does not call them (ROADMAP item 11).
PAPER_BOUNDS = ("crb_constrained", "crb_unconstrained", "schur_cov_bound")


def test_all_is_sorted_without_duplicates():
    assert blindcrb.__all__ == sorted(set(blindcrb.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in blindcrb.__all__ if not hasattr(blindcrb, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in blindcrb.__all__
        assert not hasattr(blindcrb, name)


def code_names(path):
    """The NAME tokens of a module's code, docstrings and comments aside,
    without the name that each def or class statement binds."""
    names, defining = set(), False
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type == tokenize.NAME and not defining:
            names.add(token.string)
        defining = token.string in ("def", "class")
    return names


def test_every_exported_name_is_used_by_the_package():
    # __init__.py only re-exports, so its names are no use
    package = Path(blindcrb.__file__).parent
    used = set().union(*(code_names(p) for p in package.glob("*.py") if p.name != "__init__.py"))
    unused = sorted(set(blindcrb.__all__) - used - set(PAPER_BOUNDS))
    assert unused == []
