"""Stacked finite-horizon operators and disclosure moments.

Everything here is exact linear algebra on the horizon-stacked vectors
(step-major ordering: step 1 components first). ``build_lift`` produces the
stacked state maps and the state second-moment kernel Q; ``output_moments``
turns them into the first two moments of the measured and private outputs;
``joint_ZS_moments`` applies an output mechanism (Z = G Y + V) and returns
the joint Gaussian of the disclosed and private stacks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gauss import GaussianJoint, NotPositiveDefinite, _sym, cholesky

MAX_DIM = 5000      # rows of the state stack, K * n_x


@dataclass(frozen=True)
class LiftedSystem:
    """Stacked operators over a horizon of K steps.

    F maps the initial state into the state stack, J maps the process-noise
    stack (steps 1..K-1), L maps the input stack (steps 1..K-1); Ct and Dt
    replicate the output maps down the horizon. Q is the covariance of the
    state stack (symmetric positive definite).
    """

    K: int
    F: np.ndarray
    J: np.ndarray
    L: np.ndarray
    Ct: np.ndarray
    Dt: np.ndarray
    Q: np.ndarray


@dataclass(frozen=True)
class LiftedMoments:
    """First two moments of the stacked measured and private outputs."""

    mu_base: np.ndarray   # mean of the state stack
    mu_Y: np.ndarray
    Sigma_Y: np.ndarray
    mu_S: np.ndarray
    Sigma_S: np.ndarray
    cov_YS: np.ndarray    # cross covariance of (Y stack, S stack)


def build_lift(model, K: int) -> LiftedSystem:
    """Assemble the stacked operators for horizon K.

    Raises ValueError if K < 2 or if K * n_x exceeds MAX_DIM rows.
    """
    if K < 2:
        raise ValueError(f"horizon K must be >= 2, got {K}")
    n_x = model.n_x
    if K * n_x > MAX_DIM:
        raise ValueError(f"stacked dimension K*n_x = {K * n_x} exceeds limit {MAX_DIM}")

    # powers[i] = A^i
    powers = [np.eye(n_x)]
    for _ in range(K - 1):
        powers.append(model.A @ powers[-1])

    F = np.vstack(powers[:K])

    J = np.zeros((K * n_x, (K - 1) * n_x))
    for i in range(1, K):
        for j in range(i):
            J[i * n_x:(i + 1) * n_x, j * n_x:(j + 1) * n_x] = powers[i - 1 - j]

    L = J @ np.kron(np.eye(K - 1), model.B)
    Ct = np.kron(np.eye(K), model.C)
    Dt = np.kron(np.eye(K), model.D)

    Q = _sym(F @ model.Sigma_x1 @ F.T + J @ np.kron(np.eye(K - 1), model.Sigma_T) @ J.T)

    return LiftedSystem(K=K, F=F, J=J, L=L, Ct=Ct, Dt=Dt, Q=Q)


def output_moments(lift: LiftedSystem, model) -> LiftedMoments:
    """Moments of the stacked measured output Y and private output S."""
    K = lift.K
    u = model.input_sequence(K)[:K - 1].reshape(-1)
    mu_base = lift.F @ model.mu_x1 + lift.L @ u

    CQ = lift.Ct @ lift.Q
    Sigma_Y = _sym(np.kron(np.eye(K), model.Sigma_W) + CQ @ lift.Ct.T)
    Sigma_S = _sym(lift.Dt @ lift.Q @ lift.Dt.T)
    cov_YS = CQ @ lift.Dt.T

    return LiftedMoments(
        mu_base=mu_base,
        mu_Y=lift.Ct @ mu_base,
        Sigma_Y=Sigma_Y,
        mu_S=lift.Dt @ mu_base,
        Sigma_S=Sigma_S,
        cov_YS=cov_YS,
    )


def joint_ZS_moments(lift: LiftedSystem | None, model, Gtilde: np.ndarray,
                     Sigma_V: np.ndarray, moments: LiftedMoments | None = None) -> GaussianJoint:
    """Joint Gaussian of (disclosed output stack Z, private stack S).

    Z = Gtilde @ Y + V with V ~ N(0, Sigma_V) independent of everything.
    The partition order is (Z, S). ``moments``, if given, are
    ``output_moments(lift, model)`` and ``lift`` is not read. Raises
    NotPositiveDefinite if the joint covariance fails a Cholesky
    factorization.
    """
    mom = output_moments(lift, model) if moments is None else moments
    ny = mom.Sigma_Y.shape[0]
    if Gtilde.shape != (ny, ny):
        raise ValueError(f"Gtilde must be {ny}x{ny}, got {Gtilde.shape}")
    if Sigma_V.shape != (ny, ny):
        raise ValueError(f"Sigma_V must be {ny}x{ny}, got {Sigma_V.shape}")

    mu_Z = Gtilde @ mom.mu_Y
    Sigma_Z = _sym(Gtilde @ mom.Sigma_Y @ Gtilde.T + Sigma_V)
    cov_ZS = Gtilde @ mom.cov_YS

    joint = GaussianJoint.from_blocks(mu_Z, mom.mu_S, Sigma_Z, cov_ZS, mom.Sigma_S)
    try:
        cholesky(joint.Sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("joint (Z, S) covariance is not positive definite") from None
    return joint
