"""Cramer-Rao machinery for complex parameter vectors.

The Fisher information matrix convention is the complex n x n form
J = E[g g^H] built from conjugate Wirtinger gradients g = d lnp / d theta*,
not the doubled real-parameter form. Three bounds are provided:

* crb_unconstrained: covariance >= pinv(J), valid for any unbiased
  estimator, singular J included.
* crb_constrained: covariance >= U (U^H J U)^+ U^H for estimators obeying
  a holomorphic constraint f(theta) = 0 whose Jacobian has full row rank;
  U is any orthonormal basis of that Jacobian's null space and the bound
  does not depend on the choice.
* schur_cov_bound: the covariance inequality
  cov(y,y) >= cov(y,x) cov(x,x)^+ cov(x,y) underlying both, returned as
  the Schur-complement residual's counterpart Sigma22 - Sigma21
  pinv(Sigma11) Sigma12.

The package has one singular-value floor, COND_LIMIT = 1e12: the bound
routes refuse to invert a matrix whose condition number reaches it, and
pseudo-inverses here treat singular values below 1 / COND_LIMIT = 1e-12
of the largest as zero. Its one rank tolerance, RANK_RTOL = 1e-10, is the
relative floor of every full-rank check and eigen-gap test.
"""

from __future__ import annotations

import numpy as np

from .errors import RankDeficient

# Condition number at which an inversion is refused; its reciprocal is
# the pseudo-inverses' relative cutoff.
COND_LIMIT = 1e12
# Relative singular-value floor for every full-rank check in the package,
# and relative eigenvalue-gap floor of the estimator's minimizer.
RANK_RTOL = 1e-10
HERMITIAN_RTOL = 1e-12


def _require_hermitian(J: np.ndarray, name: str = "J") -> np.ndarray:
    J = np.asarray(J, dtype=np.complex128)
    if J.ndim != 2 or J.shape[0] != J.shape[1]:
        raise ValueError(f"{name} must be square, got shape {J.shape}")
    scale = np.linalg.norm(J)
    if np.linalg.norm(J - J.conj().T) > HERMITIAN_RTOL * max(scale, 1e-300):
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return J


def _hermitize(A: np.ndarray) -> np.ndarray:
    """Symmetrize away the rounding skew of a nominally Hermitian product,
    or of each matrix of a (..., n, n) stack."""
    return (A + A.conj().swapaxes(-1, -2)) / 2


def fix_column_phases(U: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Removes the per-column phase arbitrariness of singular vector bases;
    ties in magnitude resolve to the lowest index via argmax.
    """
    U = np.array(U, dtype=np.complex128)
    for j in range(U.shape[1]):
        k = int(np.argmax(np.abs(U[:, j])))
        pivot = U[k, j]
        mag = abs(pivot)
        if mag > 0:
            U[:, j] *= pivot.conjugate() / mag
    return U


def orthonormal_nullspace(Jf: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the null space of a full-row-rank matrix.

    Parameters
    ----------
    Jf : ndarray
        m x n constraint Jacobian, m <= n, full row rank.

    Returns
    -------
    ndarray
        n x (n - m) matrix U with Jf @ U = 0 and U^H U = I, deterministic:
        columns come from the SVD in descending singular-value order with
        phases fixed by fix_column_phases.
    """
    Jf = np.atleast_2d(np.asarray(Jf, dtype=np.complex128))
    m, n = Jf.shape
    if m > n:
        raise RankDeficient(f"{m} rows cannot be independent in dimension {n}")
    _, s, vh = np.linalg.svd(Jf, full_matrices=True)
    if m > 0 and s[m - 1] <= RANK_RTOL * s[0]:
        raise RankDeficient(
            f"constraint Jacobian is rank-deficient (sv ratio {s[m - 1] / s[0]:.3e})"
        )
    return fix_column_phases(vh[m:].conj().T)


def crb_unconstrained(J: np.ndarray) -> np.ndarray:
    """Pseudo-inverse lower bound on the covariance of unbiased estimators."""
    J = _require_hermitian(J, "Fisher information")
    return _hermitize(np.linalg.pinv(J, rcond=1 / COND_LIMIT, hermitian=True))


def crb_constrained(J: np.ndarray, Jf: np.ndarray) -> np.ndarray:
    """Constrained bound U (U^H J U)^+ U^H over the constraint's null space.

    With as many independent constraints as parameters the null space is
    empty and the bound degenerates to the zero matrix.
    """
    J = _require_hermitian(J, "Fisher information")
    U = orthonormal_nullspace(Jf)
    if U.shape[0] != J.shape[0]:
        raise ValueError(
            f"constraint Jacobian has {U.shape[0]} columns for a "
            f"{J.shape[0]}-parameter Fisher information"
        )
    core = _hermitize(U.conj().T @ J @ U)
    B = U @ np.linalg.pinv(core, rcond=1 / COND_LIMIT, hermitian=True) @ U.conj().T
    return _hermitize(B)


def schur_cov_bound(
    Sigma11: np.ndarray,
    Sigma12: np.ndarray,
    Sigma21: np.ndarray,
    Sigma22: np.ndarray,
) -> np.ndarray:
    """Schur complement Sigma22 - Sigma21 pinv(Sigma11) Sigma12.

    For a partitioned covariance this is positive semidefinite, and it
    vanishes exactly when the second variable is an affine function of the
    first.
    """
    Sigma11 = np.asarray(Sigma11, dtype=np.complex128)
    return Sigma22 - Sigma21 @ np.linalg.pinv(Sigma11, rcond=1 / COND_LIMIT) @ Sigma12
