"""Exception types shared across the package.

Every numerical failure derives from NumericalError, so a caller can
catch it with a single except clause. Given a stack, the package's
stacked functions report the same failures as NaN members instead, which
is how a Monte Carlo trial fails without stopping the run. Anything else
(bad shapes, bad arguments) is a plain ValueError.

Taps, frames and noise bases meet one usability rule first
(model._usable): every entry finite and one nonzero. The bound routes
refuse taps or a frame that break it with IllConditioned (the direct
one at its J11 and anchor-reduced gates for zero taps or a zero frame),
the estimator a frame with InsufficientData and a noise basis with
SolverDegenerate.
"""


class NumericalError(Exception):
    """Base class for numerical failures that callers may catch and exclude."""


class IllConditioned(NumericalError):
    """A matrix that must be inverted has condition number above the limit."""

    def __init__(self, matrix_name: str, cond: float):
        super().__init__(
            f"{matrix_name} is ill-conditioned (condition estimate {cond:.3e})"
        )
        self.matrix_name = matrix_name
        self.cond = cond


class RankDeficient(NumericalError):
    """A matrix required to have full rank does not."""


class InsufficientData(NumericalError):
    """The observation cannot support the requested subspace decomposition."""


class SolverDegenerate(NumericalError):
    """The estimator's eigenproblem has no isolated minimizer."""


class ZeroAnchorTap(NumericalError):
    """The anchor tap of a channel estimate is too small to divide by, or
    not finite."""


class ExclusionBudgetExceeded(NumericalError):
    """Too large a fraction of Monte Carlo trials failed for the cell to stand."""
