"""Gaussian entropy, mutual information and conditional estimation.

All information quantities are in bits (base-2 logs at the interface;
natural logs only inside intermediate algebra). All routines factor
covariances with Cholesky and never form explicit inverses.

This module also owns the package's factorizations: ``cholesky``,
``solve_lower`` and ``cho_solve`` are the only Cholesky factor and
triangular-solve code, and they need nothing beyond numpy.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

LOG2E = math.log2(math.e)
# Differential entropy constant per dimension: 0.5*log2(2*pi*e).
HALF_LOG2_2PIE = 0.5 * math.log2(2.0 * math.pi * math.e)


class NotPositiveDefinite(ValueError):
    """A covariance expected to be positive definite failed factorization."""


class SchurSingular(RuntimeWarning):
    """Conditional covariance numerically singular: mutual information -> +inf."""


@dataclass(frozen=True)
class GaussianJoint:
    """Jointly Gaussian pair (X, Y) with stacked mean and partitioned covariance.

    ``mu`` has length m+n; ``Sigma`` is (m+n, m+n) with the X block leading.
    """

    mu: np.ndarray
    Sigma: np.ndarray
    m: int
    n: int

    def __post_init__(self):
        if self.mu.shape != (self.m + self.n,):
            raise ValueError(f"mu must have length {self.m + self.n}, got {self.mu.shape}")
        if self.Sigma.shape != (self.m + self.n, self.m + self.n):
            raise ValueError(f"Sigma must be {self.m + self.n} square, got {self.Sigma.shape}")

    @classmethod
    def from_blocks(cls, mu_x, mu_y, Sigma_xx, Sigma_xy, Sigma_yy) -> "GaussianJoint":
        mu_x = np.asarray(mu_x, dtype=float).reshape(-1)
        mu_y = np.asarray(mu_y, dtype=float).reshape(-1)
        m, n = mu_x.shape[0], mu_y.shape[0]
        Sigma = np.empty((m + n, m + n))
        Sigma[:m, :m] = Sigma_xx
        Sigma[:m, m:] = Sigma_xy
        Sigma[m:, :m] = np.asarray(Sigma_xy).T
        Sigma[m:, m:] = Sigma_yy
        return cls(mu=np.concatenate([mu_x, mu_y]), Sigma=Sigma, m=m, n=n)

    @property
    def mu_x(self) -> np.ndarray:
        return self.mu[:self.m]

    @property
    def mu_y(self) -> np.ndarray:
        return self.mu[self.m:]

    @property
    def Sigma_xx(self) -> np.ndarray:
        return self.Sigma[:self.m, :self.m]

    @property
    def Sigma_xy(self) -> np.ndarray:
        return self.Sigma[:self.m, self.m:]

    @property
    def Sigma_yy(self) -> np.ndarray:
        return self.Sigma[self.m:, self.m:]

    def reversed(self) -> "GaussianJoint":
        """Same joint with the roles of X and Y swapped."""
        return GaussianJoint.from_blocks(
            self.mu_y, self.mu_x, self.Sigma_yy, self.Sigma_xy.T, self.Sigma_xx)


# Diagonal block of the substitution in solve_lower. Each block is one dense
# (LU) solve, O(BLOCK^3), which dominates a single right-hand side; a GEMM
# updates the rows below it. On a 2-core Xeon with one OpenBLAS thread, 64
# measured fastest of 64/80/128 both for the Newton direction (n = 230 to
# 860) and for inverting LMI slacks up to 120 wide, where one dense solve
# was no faster than two blocks.
BLOCK = 64


def cholesky(M: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Reads the lower triangle of ``M`` only. Raises ``np.linalg.LinAlgError``
    if ``M`` is not positive definite and ``ValueError`` if that triangle
    holds an inf or NaN. numpy's factorization passes non-finite entries
    through instead of failing; every one of them reaches the diagonal of
    the factor, so checking that diagonal (O(n)) catches them all without a
    full pass over ``M``.
    """
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        if not np.isfinite(M).all():
            raise ValueError("array must not contain infs or NaNs") from None
        raise
    if not np.isfinite(L.diagonal()).all():
        raise ValueError("array must not contain infs or NaNs")
    return L


def solve_lower(L: np.ndarray, B: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``L X = B`` (``L^T X = B`` with ``trans``) for lower-triangular L.

    Blocked substitution: a dense solve on each BLOCK-wide diagonal block
    and a matrix product to update the remaining rows, so a right-hand side
    costs O(n^2) and L is never refactored as a whole. ``B`` may be a vector
    or a matrix; it is not modified.
    """
    X = np.array(B, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("array must not contain infs or NaNs")
    n = L.shape[0]
    starts = range(0, n, BLOCK)
    if not trans:
        for i in starts:
            j = min(i + BLOCK, n)
            X[i:j] = np.linalg.solve(L[i:j, i:j], X[i:j])
            X[j:] -= L[j:, i:j] @ X[i:j]
    else:
        for i in reversed(starts):
            j = min(i + BLOCK, n)
            X[i:j] = np.linalg.solve(L[i:j, i:j].T, X[i:j])
            X[:i] -= L[i:j, :i].T @ X[i:j]
    return X


def cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``M X = B`` given the lower Cholesky factor ``L`` of M."""
    return solve_lower(L, solve_lower(L, B), trans=True)


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


def _chol(Sigma: np.ndarray, what: str) -> np.ndarray:
    try:
        return cholesky(_sym(Sigma))
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(f"{what} is not positive definite") from None


def _logdet2(Sigma: np.ndarray, what: str) -> float:
    """log2 det of a PD matrix via Cholesky."""
    L = _chol(Sigma, what)
    return 2.0 * float(np.sum(np.log2(np.diag(L))))


def entropy(Sigma: np.ndarray) -> float:
    """Differential entropy in bits of N(mu, Sigma), any mean.

    Parameters
    ----------
    Sigma : (n, n) array
        Positive definite covariance.

    Returns
    -------
    float
        0.5*log2 det(Sigma) + (n/2)*log2(2*pi*e).

    Raises
    ------
    NotPositiveDefinite
        If the Cholesky factorization fails.
    """
    Sigma = np.atleast_2d(np.asarray(Sigma, dtype=float))
    n = Sigma.shape[0]
    return 0.5 * _logdet2(Sigma, "entropy covariance") + n * HALF_LOG2_2PIE


def _conditional_cov(joint: GaussianJoint) -> np.ndarray:
    """Sigma_xx - Sigma_xy Sigma_yy^{-1} Sigma_yx via a triangular solve."""
    Ly = _chol(joint.Sigma_yy, "Sigma_yy")
    # T = Ly^{-1} Sigma_yx, so the correction is T^T T.
    T = solve_lower(Ly, joint.Sigma_xy.T)
    return _sym(joint.Sigma_xx - T.T @ T)


def mutual_information(joint: GaussianJoint) -> float:
    """Mutual information I[X; Y] in bits.

    Computed from the conditional-covariance (Schur complement) identity
    0.5*log2 det Sigma_xx - 0.5*log2 det(Sigma_xx - Sigma_xy Sigma_yy^{-1} Sigma_yx)
    and cross-checked against the entropy-sum route
    h[X] + h[Y] - h[X, Y] to 1e-8 bits. If the conditional covariance is
    numerically singular the information is unbounded: emits a SchurSingular
    warning and returns +inf.
    """
    logdet_xx = _logdet2(joint.Sigma_xx, "Sigma_xx")
    cond = _conditional_cov(joint)
    try:
        logdet_cond = _logdet2(cond, "conditional covariance")
    except NotPositiveDefinite:
        warnings.warn("conditional covariance singular; mutual information -> +inf",
                      SchurSingular)
        return math.inf
    mi_schur = 0.5 * (logdet_xx - logdet_cond)

    logdet_yy = _logdet2(joint.Sigma_yy, "Sigma_yy")
    logdet_joint = _logdet2(joint.Sigma, "joint covariance")
    mi_entropy = 0.5 * (logdet_xx + logdet_yy - logdet_joint)

    if abs(mi_schur - mi_entropy) > 1e-8:
        raise FloatingPointError(
            f"mutual information routes disagree: Schur {mi_schur!r} vs "
            f"entropy-sum {mi_entropy!r}")
    return mi_schur


def mmse_estimate(joint: GaussianJoint, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conditional mean of X given Y = y and its error covariance.

    Returns (xhat, err_cov) with xhat = mu_x + Sigma_xy Sigma_yy^{-1} (y - mu_y)
    and err_cov the conditional covariance (independent of y).
    """
    y = np.asarray(y, dtype=float).reshape(-1)
    if y.shape[0] != joint.n:
        raise ValueError(f"y must have length {joint.n}, got {y.shape[0]}")
    Ly = _chol(joint.Sigma_yy, "Sigma_yy")
    xhat = joint.mu_x + joint.Sigma_xy @ cho_solve(Ly, y - joint.mu_y)
    return xhat, _conditional_cov(joint)
