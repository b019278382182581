"""Monte Carlo engine: reproducibility, moment agreement, adversary behavior."""

import numpy as np
import pytest

from privsynth.lift import build_lift, joint_ZS_moments, output_moments
from privsynth.gauss import mmse_estimate
from privsynth.model import SystemModel
from privsynth.sim import (
    _simulate_batch,
    adversary_estimate,
    apply_mechanism,
    run_experiment,
    simulate,
)
from privsynth.synth import Mechanism


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


def identity_mechanism(K, n_y, n_u, noise=1e-12):
    return Mechanism(G_blocks=[np.eye(n_y) for _ in range(K)],
                     Sigma_V=noise * np.eye(K * n_y),
                     Sigma_H=noise * np.eye(K * n_u))


def test_noise_free_system_is_deterministic():
    """With vanishing covariances the trajectory follows the mean recursion."""
    model = make_model([[1.0]], [[0.0]], [[1.0]], [[1.0]], [1.0],
                       1e-18, 1e-18, 1e-18, np.zeros((4, 1)))
    traj = simulate(model, 4, seed=0)
    np.testing.assert_allclose(traj.x_seq, np.ones((4, 1)), atol=1e-8)
    np.testing.assert_allclose(traj.y_seq, np.ones((4, 1)), atol=1e-8)
    np.testing.assert_allclose(traj.s_seq, np.ones((4, 1)), atol=1e-8)
    np.testing.assert_array_equal(traj.u_seq, np.zeros((4, 1)))


def test_simulate_reproducible():
    model = make_model([[0.5]], [[1.0]], [[1.0]], [[1.0]], [0.0],
                       1.0, 1.0, 1.0, [[0.0]])
    a = simulate(model, 2, seed=9)
    b = simulate(model, 2, seed=9)
    np.testing.assert_array_equal(a.x_seq, b.x_seq)
    np.testing.assert_array_equal(a.y_seq, b.y_seq)
    c = simulate(model, 2, seed=10)
    assert np.any(c.x_seq != a.x_seq)


def test_single_run_matches_batch_row_zero():
    """simulate() is row 0 of the batched engine for any batch size."""
    model = make_model([[0.9, 0.2], [0.0, 0.7]], [[0.3], [1.0]], np.eye(2),
                       [[1.0, 0.0]], [0.5, -0.3], 0.5 * np.eye(2),
                       0.3 * np.eye(2), np.diag([0.5, 1.0]),
                       [[0.4], [-0.2]])
    mech = identity_mechanism(3, 2, 1, noise=0.5)
    traj = apply_mechanism(simulate(model, 3, seed=21), mech)
    for n_runs in (1, 7):
        x, _, y, s, z, r = _simulate_batch(model, mech, n_runs, seed=21)
        np.testing.assert_allclose(x[0], traj.x_seq, atol=1e-12)
        np.testing.assert_allclose(y[0], traj.y_seq, atol=1e-12)
        np.testing.assert_allclose(s[0], traj.s_seq, atol=1e-12)
        np.testing.assert_allclose(z[0], traj.z_seq, atol=1e-12)
        np.testing.assert_allclose(r[0], traj.r_seq, atol=1e-12)


def test_batch_prefix_invariance():
    """Run i draws the same noise regardless of how many runs follow it."""
    model = make_model([[0.5]], [[1.0]], [[1.0]], [[1.0]], [0.0],
                       1.0, 1.0, 1.0, [[0.0]])
    mech = identity_mechanism(2, 1, 1, noise=0.3)
    x50, _, y50, s50, z50, r50 = _simulate_batch(model, mech, 50, seed=3)
    x200, _, y200, s200, z200, r200 = _simulate_batch(model, mech, 200, seed=3)
    np.testing.assert_array_equal(x50, x200[:50])
    np.testing.assert_array_equal(y50, y200[:50])
    np.testing.assert_array_equal(z50, z200[:50])
    np.testing.assert_array_equal(r50, r200[:50])


def test_sample_means_match_lifted_moments(twostate_case):
    """Empirical first moments agree with the closed-form stacked means."""
    model, req = twostate_case
    mech = identity_mechanism(req.K, model.n_y, model.n_u, noise=0.1)
    summ = run_experiment(model, req, mech, n_runs=20000, seed=6)
    lift = build_lift(model, req.K)
    mom = output_moments(lift, model)
    sd = np.sqrt(np.diag(mom.Sigma_S)[::model.n_s]) / np.sqrt(20000)
    np.testing.assert_allclose(summ.s_mean, mom.mu_S[::model.n_s], atol=4.5 * sd.max())


def test_identity_mechanism_discloses_everything(twostate_case):
    """Near-lossless mechanism: both adversaries see essentially the same data."""
    model, req = twostate_case
    mech = identity_mechanism(req.K, model.n_y, model.n_u)
    summ = run_experiment(model, req, mech, n_runs=4000, seed=8)
    assert summ.mse_zr_theory == pytest.approx(summ.mse_yu_theory, rel=1e-6)
    np.testing.assert_allclose(summ.mse_zr, summ.mse_yu, atol=1e-5)


def test_uninformative_mechanism_reverts_to_prior(twostate_case):
    """Zero gain and huge output noise leave only the prior estimate."""
    model, req = twostate_case
    K = req.K
    mech = Mechanism(G_blocks=[np.zeros((2, 2))] * K,
                     Sigma_V=np.eye(2 * K),
                     Sigma_H=1e-12 * np.eye(K))
    summ = run_experiment(model, req, mech, n_runs=4000, seed=12)
    lift = build_lift(model, K)
    mom = output_moments(lift, model)
    assert summ.mse_zr_theory == pytest.approx(np.trace(mom.Sigma_S), rel=1e-6)
    np.testing.assert_allclose(summ.shat_zr_mean, mom.mu_S[::model.n_s], atol=1e-3)


def test_adversary_error_matches_conditional_covariance(twostate_case):
    """Plug-in error covariance reduces to the MMSE one when R is clean."""
    model, req = twostate_case
    K = req.K
    mech = identity_mechanism(K, model.n_y, model.n_u)
    lift = build_lift(model, K)
    traj = apply_mechanism(simulate(model, K, seed=4), mech)
    res = adversary_estimate(model, lift, mech, traj.z_seq, traj.r_seq)
    joint = joint_ZS_moments(lift, model, mech.Gtilde, mech.Sigma_V)
    shat, cond = mmse_estimate(joint.reversed(), traj.z_seq.reshape(-1))
    np.testing.assert_allclose(res.err_cov, cond, atol=1e-6)
    np.testing.assert_allclose(res.shat_seq.reshape(-1), shat, atol=1e-4)
    assert res.expected_sq_err_total == pytest.approx(
        float(res.expected_sq_err_per_step.sum()), abs=1e-9)


def test_mc_totals_match_theory(scalar_case, scalar_report):
    """Aggregated Monte Carlo error curves land on the closed-form values."""
    model, req = scalar_case
    summ = run_experiment(model, req, scalar_report.mechanism, n_runs=20000, seed=1)
    assert summ.mse_zr_total == pytest.approx(summ.mse_zr_theory, rel=0.03)
    assert summ.mse_yu_total == pytest.approx(summ.mse_yu_theory, rel=0.03)
    assert np.all(summ.se_mse_zr > 0.0)
    assert summ.mse_zr_theory > summ.mse_yu_theory


def test_run_experiment_argument_errors(scalar_case, scalar_report):
    model, req = scalar_case
    with pytest.raises(ValueError, match="n_runs"):
        run_experiment(model, req, scalar_report.mechanism, 0, seed=1)
    from privsynth.model import with_overrides
    _, req3 = with_overrides(model, req, K=3)
    with pytest.raises(ValueError, match="horizon"):
        run_experiment(model, req3, scalar_report.mechanism, 10, seed=1)


def test_apply_mechanism_horizon_mismatch(twostate_case, scalar_report):
    model, _ = twostate_case
    traj = simulate(model, 3, seed=5)
    with pytest.raises(ValueError, match="horizon"):
        apply_mechanism(traj, scalar_report.mechanism)


def test_summary_serialization(scalar_case, scalar_report):
    import json
    model, req = scalar_case
    summ = run_experiment(model, req, scalar_report.mechanism, 100, seed=3)
    doc = summ.to_dict()
    json.dumps(doc)
    assert doc["n_runs"] == 100 and len(doc["mse_zr"]) == req.K
