"""Entropy, mutual information and MMSE estimation on Gaussian joints."""

import math

import numpy as np
import pytest

from privsynth.gauss import (
    BLOCK,
    GaussianJoint,
    NotPositiveDefinite,
    cho_solve,
    cholesky,
    entropy,
    mmse_estimate,
    mutual_information,
    solve_lower,
)


def random_pd(rng, n, cond=0.5):
    W = rng.standard_normal((n, n))
    return W @ W.T + cond * n * np.eye(n)


def random_joint(rng, m, n):
    Sigma = random_pd(rng, m + n)
    mu = rng.standard_normal(m + n)
    return GaussianJoint(mu=mu, Sigma=Sigma, m=m, n=n)


def test_unit_scalar_entropy():
    # 0.5*log2(2*pi*e) for a unit-variance scalar.
    assert entropy(np.eye(1)) == pytest.approx(2.047095585180641, abs=1e-12)
    assert entropy([[1.0]]) == pytest.approx(0.5 * math.log2(2 * math.pi * math.e), abs=1e-12)


def test_entropy_additivity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = random_pd(rng, 3)
        B = random_pd(rng, 4)
        blk = np.block([[A, np.zeros((3, 4))], [np.zeros((4, 3)), B]])
        assert entropy(blk) == pytest.approx(entropy(A) + entropy(B), abs=1e-9)


def test_entropy_scaling():
    """Scaling the covariance by c adds (n/2) log2 c bits."""
    rng = np.random.default_rng(12)
    S = random_pd(rng, 5)
    assert entropy(4.0 * S) == pytest.approx(entropy(S) + 5.0, abs=1e-9)


def test_entropy_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        entropy(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_mi_two_routes_agree():
    """Schur-complement route equals the entropy-sum route."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        joint = random_joint(rng, m, n)
        mi = mutual_information(joint)
        alt = (entropy(joint.Sigma_xx) + entropy(joint.Sigma_yy) - entropy(joint.Sigma))
        assert mi == pytest.approx(alt, abs=1e-8)
        assert mi >= -1e-9


def test_mi_symmetric_in_arguments():
    rng = np.random.default_rng(14)
    joint = random_joint(rng, 4, 3)
    assert mutual_information(joint) == pytest.approx(
        mutual_information(joint.reversed()), abs=1e-8)


def test_mi_independent_blocks_zero():
    A = np.diag([1.0, 2.0])
    B = np.diag([0.5, 3.0, 1.0])
    Sigma = np.block([[A, np.zeros((2, 3))], [np.zeros((3, 2)), B]])
    joint = GaussianJoint(mu=np.zeros(5), Sigma=Sigma, m=2, n=3)
    assert mutual_information(joint) == pytest.approx(0.0, abs=1e-12)


def test_mi_deterministic_relation_raises():
    """A singular conditional covariance fails its factorization like every
    other block: no infinite information is returned."""
    Sigma = np.array([[1.0, 1.0], [1.0, 1.0]])
    joint = GaussianJoint(mu=np.zeros(2), Sigma=Sigma, m=1, n=1)
    with pytest.raises(NotPositiveDefinite):
        mutual_information(joint)


def test_mmse_scalar_oracle():
    """Sigma=[[1,.5],[.5,.5]], y=1: xhat = 1, error variance 1 - .25/.5 = .5."""
    joint = GaussianJoint(mu=np.zeros(2),
                          Sigma=np.array([[1.0, 0.5], [0.5, 0.5]]), m=1, n=1)
    xhat, err = mmse_estimate(joint, [1.0])
    assert xhat[0] == pytest.approx(1.0, abs=1e-12)
    assert err[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_mmse_matches_normal_equations():
    rng = np.random.default_rng(15)
    joint = random_joint(rng, 3, 5)
    y = rng.standard_normal(5)
    xhat, err = mmse_estimate(joint, y)
    gain = joint.Sigma_xy @ np.linalg.inv(joint.Sigma_yy)
    np.testing.assert_allclose(xhat, joint.mu_x + gain @ (y - joint.mu_y), atol=1e-10)
    np.testing.assert_allclose(err, joint.Sigma_xx - gain @ joint.Sigma_xy.T, atol=1e-10)
    # Error covariance does not depend on the realized y.
    _, err2 = mmse_estimate(joint, np.zeros(5))
    np.testing.assert_allclose(err, err2, atol=1e-14)


def test_mmse_rejects_wrong_length():
    rng = np.random.default_rng(16)
    joint = random_joint(rng, 2, 3)
    with pytest.raises(ValueError, match="length"):
        mmse_estimate(joint, [1.0, 2.0])


def test_from_blocks_layout():
    joint = GaussianJoint.from_blocks([1.0], [2.0, 3.0],
                                      [[4.0]], [[0.1, 0.2]],
                                      [[1.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(joint.mu, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(joint.Sigma_xy, [[0.1, 0.2]])
    np.testing.assert_array_equal(joint.Sigma[1:, 0], [0.1, 0.2])


def test_joint_shape_checks():
    with pytest.raises(ValueError):
        GaussianJoint(mu=np.zeros(3), Sigma=np.eye(2), m=1, n=1)


@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("ncols", [None, 4])
def test_cholesky_solves_match_dense_reference(n, ncols):
    """Blocked substitution agrees with a dense solve on every block layout:
    one partial block, exactly one, one plus a row, several plus a tail."""
    rng = np.random.default_rng(n)
    M = random_pd(rng, n)
    B = rng.standard_normal(n if ncols is None else (n, ncols))
    L = cholesky(M)
    np.testing.assert_allclose(L @ L.T, M, rtol=1e-12, atol=1e-12 * np.abs(M).max())
    for got, ref in ((solve_lower(L, B), np.linalg.solve(L, B)),
                     (solve_lower(L, B, trans=True), np.linalg.solve(L.T, B)),
                     (cho_solve(L, B), np.linalg.solve(M, B))):
        assert got.shape == B.shape
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
    before = B.copy()
    cho_solve(L, B)
    np.testing.assert_array_equal(B, before)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_cholesky_rejects_non_finite(bad):
    """Any inf or NaN in the triangle the factorization reads is a
    ValueError, wherever it sits; so is one in a right-hand side."""
    rng = np.random.default_rng(17)
    n = BLOCK + 9
    M = random_pd(rng, n)
    for i, j in [(0, 0), (n - 1, n - 1), (5, 2), (n - 1, 0), (BLOCK + 3, BLOCK - 2)]:
        A = M.copy()
        A[i, j] = A[j, i] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            cholesky(A)
    L = cholesky(M)
    rhs = np.ones(n)
    rhs[n // 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solve_lower(L, rhs)
    with pytest.raises(ValueError, match="infs or NaNs"):
        cho_solve(L, rhs)


def test_cholesky_rejects_non_pd():
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        cholesky(np.zeros((3, 3)))
