"""Suite-wide warning rules that pyproject.toml cannot state portably.

numpy's ComplexWarning (a complex value cast to a real array, dropping
its imaginary part) fails the suite, like a RuntimeWarning. The class
lives in numpy.exceptions from numpy 1.25 on and only at the top level
before that, so it is looked up here rather than named in a filter string.
"""

import numpy as np

ComplexWarning = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings",
        f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}",
    )
