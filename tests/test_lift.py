"""Stacked-operator assembly against step-by-step recursions."""

import numpy as np
import pytest

from privsynth import lift as lift_module
from privsynth.gauss import GaussianJoint
from privsynth.lift import build_lift, joint_ZS_moments, output_moments
from privsynth.model import SystemModel


def make_model(A, B, C, D, mu, Sx, St, Sw, U):
    return SystemModel(
        A=np.atleast_2d(np.asarray(A, float)),
        B=np.atleast_2d(np.asarray(B, float)),
        C=np.atleast_2d(np.asarray(C, float)),
        D=np.atleast_2d(np.asarray(D, float)),
        mu_x1=np.asarray(mu, float).reshape(-1),
        Sigma_x1=np.atleast_2d(np.asarray(Sx, float)),
        Sigma_T=np.atleast_2d(np.asarray(St, float)),
        Sigma_W=np.atleast_2d(np.asarray(Sw, float)),
        U=np.asarray(U, float).reshape(len(U), -1),
    )


@pytest.fixture
def twostate():
    return make_model(
        A=[[0.9, 0.2], [0.0, 0.7]], B=[[0.3], [1.0]],
        C=np.eye(2), D=[[1.0, 0.0]],
        mu=[0.5, -0.3], Sx=0.5 * np.eye(2), St=0.3 * np.eye(2),
        Sw=np.diag([0.5, 1.0]), U=[[0.4], [-0.2], [0.1], [0.3]])


def test_scalar_lift_frozen_values():
    """Hand-computed K=2 moments for the unit scalar system with A=1/2."""
    model = make_model([[0.5]], [[1.0]], [[1.0]], [[1.0]],
                       [0.0], 1.0, 1.0, 1.0, [[0.0]])
    lift = build_lift(model, 2)
    np.testing.assert_allclose(lift.Q, [[1.0, 0.5], [0.5, 1.25]], atol=1e-14)
    mom = output_moments(lift, model)
    np.testing.assert_allclose(mom.Sigma_Y, [[2.0, 0.5], [0.5, 2.25]], atol=1e-14)
    np.testing.assert_allclose(mom.Sigma_S, lift.Q, atol=1e-14)
    np.testing.assert_allclose(mom.cov_YS, lift.Q, atol=1e-14)
    np.testing.assert_array_equal(mom.mu_Y, [0.0, 0.0])


def test_scalar_mean_propagation():
    """Nonzero initial mean and input drive the stacked means correctly."""
    model = make_model([[0.5]], [[1.0]], [[1.0]], [[1.0]],
                       [2.0], 1.0, 1.0, 1.0, [[3.0]])
    lift = build_lift(model, 2)
    mom = output_moments(lift, model)
    # x1 mean 2; x2 mean = 0.5*2 + 1*3 = 4.
    np.testing.assert_allclose(mom.mu_Y, [2.0, 4.0], atol=1e-14)
    np.testing.assert_allclose(mom.mu_S, [2.0, 4.0], atol=1e-14)


def test_state_covariance_matches_recursion(twostate):
    """Diagonal blocks of Q equal the forward covariance recursion."""
    K = 4
    lift = build_lift(twostate, K)
    P = twostate.Sigma_x1.copy()
    n = 2
    for k in range(K):
        blk = lift.Q[k * n:(k + 1) * n, k * n:(k + 1) * n]
        np.testing.assert_allclose(blk, P, atol=1e-12)
        P = twostate.A @ P @ twostate.A.T + twostate.Sigma_T
    # One-step cross block: cov(x1, x2) = P1 A^T.
    np.testing.assert_allclose(lift.Q[0:n, n:2 * n],
                               twostate.Sigma_x1 @ twostate.A.T, atol=1e-12)


def test_state_mean_matches_recursion(twostate):
    K = 4
    lift = build_lift(twostate, K)
    u = twostate.input_sequence(K)
    mu = lift.F @ twostate.mu_x1 + lift.L @ u[:K - 1].reshape(-1)
    ref = []
    m = twostate.mu_x1.copy()
    for k in range(K):
        ref.append(m)
        m = twostate.A @ m + twostate.B @ u[k]
    np.testing.assert_allclose(mu, np.concatenate(ref), atol=1e-12)


def test_operator_structure(twostate):
    K = 3
    lift = build_lift(twostate, K)
    n = 2
    # First block row of J and L is zero: noise and input enter one step late.
    assert np.all(lift.J[:n] == 0.0)
    assert np.all(lift.L[:n] == 0.0)
    np.testing.assert_array_equal(lift.Ct, np.kron(np.eye(K), twostate.C))
    np.testing.assert_array_equal(lift.Dt, np.kron(np.eye(K), twostate.D))
    np.testing.assert_allclose(lift.F[n:2 * n], twostate.A, atol=1e-14)


def test_joint_moments_match_direct(twostate):
    """joint_ZS_moments equals the hand-assembled joint for a random gain."""
    K = 3
    lift = build_lift(twostate, K)
    mom = output_moments(lift, twostate)
    rng = np.random.default_rng(7)
    Gt = np.kron(np.eye(K), np.zeros((2, 2)))
    for k in range(K):
        Gt[2 * k:2 * k + 2, 2 * k:2 * k + 2] = np.eye(2) + 0.2 * rng.standard_normal((2, 2))
    Sigma_V = np.eye(2 * K)
    joint = joint_ZS_moments(lift, twostate, Gt, Sigma_V)
    assert isinstance(joint, GaussianJoint)
    np.testing.assert_allclose(joint.Sigma_xx, Gt @ mom.Sigma_Y @ Gt.T + Sigma_V, atol=1e-12)
    np.testing.assert_allclose(joint.Sigma_xy, Gt @ mom.cov_YS, atol=1e-12)
    np.testing.assert_allclose(joint.Sigma_yy, mom.Sigma_S, atol=1e-12)
    np.testing.assert_allclose(joint.mu_x, Gt @ mom.mu_Y, atol=1e-12)


def test_joint_moments_rejects_bad_gain_shape(twostate):
    lift = build_lift(twostate, 3)
    with pytest.raises(ValueError, match="Gtilde"):
        joint_ZS_moments(lift, twostate, np.eye(4), np.eye(6))


def test_horizon_guard(twostate, monkeypatch):
    with pytest.raises(ValueError, match="K must be >= 2"):
        build_lift(twostate, 1)
    monkeypatch.setattr(lift_module, "MAX_DIM", 12)
    with pytest.raises(ValueError, match="exceeds limit"):
        build_lift(twostate, 7)
    assert build_lift(twostate, 6).K == 6


def test_lift_dimensions(twostate):
    K = 5
    lift = build_lift(twostate, K)
    assert lift.F.shape == (2 * K, 2)
    assert lift.J.shape == (2 * K, 2 * (K - 1))
    assert lift.L.shape == (2 * K, K - 1)
    assert lift.Q.shape == (2 * K, 2 * K)
    w = np.linalg.eigvalsh(lift.Q)
    assert w[0] > 0.0
