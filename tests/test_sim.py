"""Monte Carlo engine: reproducibility, moment agreement, adversary behavior."""

import numpy as np
import pytest

from privsynth.lift import build_lift, joint_ZS_moments, output_moments
from privsynth.gauss import mmse_estimate
from privsynth.model import SystemModel
from privsynth.sim import _simulate_batch, adversary_estimate, run_experiment
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
    """With vanishing covariances every run follows the mean recursion."""
    model = make_model([[1.0]], [[0.0]], [[1.0]], [[1.0]], [1.0],
                       1e-18, 1e-18, 1e-18, np.zeros((4, 1)))
    x, u, y, s, _, _ = _simulate_batch(model, identity_mechanism(4, 1, 1), 3, seed=0)
    for a in (x, y, s):
        np.testing.assert_allclose(a, np.ones((3, 4, 1)), atol=1e-8)
    np.testing.assert_array_equal(u, np.zeros((4, 1)))


def test_simulate_reproducible():
    """A seed gives the same runs every time; another seed gives other runs."""
    model = make_model([[0.5]], [[1.0]], [[1.0]], [[1.0]], [0.0],
                       1.0, 1.0, 1.0, [[0.0]])
    mech = identity_mechanism(2, 1, 1, noise=0.3)
    a = _simulate_batch(model, mech, 5, seed=9)
    for got, want in zip(_simulate_batch(model, mech, 5, seed=9), a, strict=True):
        np.testing.assert_array_equal(got, want)
    c = _simulate_batch(model, mech, 5, seed=10)
    for i in (0, 2, 3, 4, 5):       # every array but the deterministic input
        assert np.any(c[i] != a[i])


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
    *_, z, r = _simulate_batch(model, mech, 1, seed=4)
    res = adversary_estimate(model, lift, mech, z[0], r[0])
    joint = joint_ZS_moments(lift, model, mech.Gtilde, mech.Sigma_V)
    shat, cond = mmse_estimate(joint.reversed(), z[0].reshape(-1))
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
    from dataclasses import replace
    from privsynth.model import with_overrides
    model = replace(model, U=np.zeros((2, 1)))  # K = 3 needs K-1 = 2 input rows
    _, req3 = with_overrides(model, req, K=3)
    with pytest.raises(ValueError, match="horizon"):
        run_experiment(model, req3, scalar_report.mechanism, 10, seed=1)


def _misfit(model, K, fault):
    """A mechanism on reactor4 at horizon K with one array that does not
    fit the model, and the line Mechanism.check_fits raises for it."""
    NY, NU = K * model.n_y, K * model.n_u
    arrays = {"G_blocks": [np.eye(model.n_y)] * K, "Sigma_V": np.eye(NY),
              "Sigma_H": np.eye(NU)}
    if fault == "Sigma_H-1x1":
        arrays["Sigma_H"] = np.eye(1)
        line = f"mechanism Sigma_H has shape (1, 1); the model needs {NU}x{NU} (K*n_u)"
    elif fault == "Sigma_V-NY+1":
        arrays["Sigma_V"] = np.eye(NY + 1)
        line = (f"mechanism Sigma_V has shape ({NY + 1}, {NY + 1}); "
                f"the model needs {NY}x{NY} (K*n_y)")
    elif fault == "G-block-2x2":
        arrays["G_blocks"] = [np.eye(2)] + arrays["G_blocks"][1:]
        line = "mechanism G_blocks[0] has shape (2, 2); the model needs 1x1 (n_y)"
    else:
        arrays = {"G_blocks": [np.eye(model.n_y)] * 5, "Sigma_V": np.eye(5 * model.n_y),
                  "Sigma_H": np.eye(5 * model.n_u)}
        line = f"mechanism horizon 5 does not match request horizon {K}"
    return Mechanism(**arrays), line


@pytest.mark.parametrize("fault", ["Sigma_H-1x1", "Sigma_V-NY+1", "G-block-2x2", "horizon"])
@pytest.mark.parametrize("caller", ["evaluate_mechanism", "run_experiment",
                                    "adversary_estimate"])
def test_a_mechanism_that_does_not_fit_is_refused(reactor_case, caller, fault):
    """Every library entry that takes a mechanism applies the mechanism's
    own fit check, with its text, before any product of its arrays."""
    from privsynth.synth import evaluate_mechanism
    model, req = reactor_case
    mech, line = _misfit(model, req.K, fault)
    call = {
        "evaluate_mechanism": lambda: evaluate_mechanism(model, req, mech),
        "run_experiment": lambda: run_experiment(model, req, mech, 10, seed=1),
        "adversary_estimate": lambda: adversary_estimate(
            model, build_lift(model, req.K), mech, np.zeros(req.K * model.n_y),
            np.zeros(req.K * model.n_u)),
    }[caller]
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == line


def test_summary_serialization(scalar_case, scalar_report):
    import json
    model, req = scalar_case
    summ = run_experiment(model, req, scalar_report.mechanism, 100, seed=3)
    doc = summ.to_dict()
    json.dumps(doc)
    assert doc["n_runs"] == 100 and len(doc["mse_zr"]) == req.K
