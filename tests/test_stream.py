"""Streamed Monte Carlo: equal to a one-shot computation, flat memory, folded
estimator; one horizon lift per sweep row; no process-wide float settings."""

import pathlib
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from privsynth import cli, synth
from privsynth.lift import build_lift, output_moments
from privsynth.sim import CHUNK, _PlugInEstimator, _simulate_batch, run_experiment

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _batch_se(values, n_batches=20):
    """Batch-means standard error along axis 0, one batch of n // b rows each."""
    n = values.shape[0]
    b = min(n_batches, n)
    if b < 2:
        return float("nan")
    cut = (n // b) * b
    means = values[:cut].reshape(b, cut // b).mean(axis=1)
    return float(np.std(means, ddof=1) / np.sqrt(b))


def one_shot(model, req, mech, n, seed):
    """Every run in memory at once, both estimators in their unfolded form."""
    K, n_s = mech.K, model.n_s
    _, u_seq, y, s, z, r = _simulate_batch(model, mech, n, seed)
    y, s, z, r = (a.reshape(n, -1) for a in (y, s, z, r))
    lift = build_lift(model, K)
    mom = output_moments(lift, model)
    Gt = mech.Gtilde

    B_y = cho_solve(cho_factor(mom.Sigma_Y, lower=True), mom.cov_YS).T
    shat_yu = mom.mu_S + (y - mom.mu_Y) @ B_y.T
    cov_ZS = Gt @ mom.cov_YS
    B_z = cho_solve(cho_factor(Gt @ mom.Sigma_Y @ Gt.T + mech.Sigma_V, lower=True), cov_ZS).T
    used = (K - 1) * model.n_u
    mu_base = lift.F @ model.mu_x1 + r[:, :used] @ lift.L.T
    shat_zr = mu_base @ lift.Dt.T + (z - mu_base @ (Gt @ lift.Ct).T) @ B_z.T

    sq_zr = np.sum(((shat_zr - s) ** 2).reshape(n, K, n_s), axis=2)
    sq_yu = np.sum(((shat_yu - s) ** 2).reshape(n, K, n_s), axis=2)
    dy = (z - y) @ req.W_Y.T
    du = (r - u_seq.reshape(-1)) @ req.W_U.T
    dist_y, dist_u = np.sum(dy * dy, axis=1), np.sum(du * du, axis=1)
    return {
        "mse_yu": sq_yu.mean(axis=0),
        "mse_zr": sq_zr.mean(axis=0),
        "se_mse_zr": np.array([_batch_se(sq_zr[:, k]) for k in range(K)]),
        "s_mean": s.reshape(n, K, n_s)[:, :, 0].mean(axis=0),
        "shat_zr_mean": shat_zr.reshape(n, K, n_s)[:, :, 0].mean(axis=0),
        "mse_yu_total": sq_yu.sum(axis=1).mean(),
        "mse_zr_total": sq_zr.sum(axis=1).mean(),
        "distortion_Y_hat": dist_y.mean(),
        "se_distortion_Y": _batch_se(dist_y),
        "distortion_U_hat": dist_u.mean(),
        "se_distortion_U": _batch_se(dist_u),
    }


@pytest.mark.parametrize("n_runs", [1, 19, 20, 20 * CHUNK + 17, 20 * (CHUNK + 5) + 3])
def test_streamed_experiment_matches_one_shot(twostate_case, twostate_report, n_runs):
    """Pieces, batch boundaries and the remainder change no reported number
    beyond summation order; a single run keeps nan standard errors."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    got = run_experiment(model, req, mech, n_runs, seed=5).to_dict()
    want = one_shot(model, req, mech, n_runs, seed=5)
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=1e-10, atol=0, err_msg=key)
    if n_runs == 1:
        assert np.all(np.isnan(got["se_mse_zr"]))
        assert np.isnan(got["se_distortion_Y"]) and np.isnan(got["se_distortion_U"])


def test_run_experiment_memory_is_flat(scalar_case, scalar_report):
    """The traced allocation peak does not grow with the number of runs."""
    model, req = scalar_case
    mech = scalar_report.mechanism
    run_experiment(model, req, mech, 100, seed=1)      # first-call allocations
    n = 20 * CHUNK
    peaks = []
    tracemalloc.start()
    try:
        for n_runs in (n, 4 * n):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_experiment(model, req, mech, n_runs, seed=1)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


def test_folded_plugin_estimate_matches_unfolded(twostate_case, twostate_report):
    """c + P r_used + B_z z equals mu_S + (z - mu_Z) B_z^T."""
    model, req = twostate_case
    mech = twostate_report.mechanism
    lift = build_lift(model, req.K)
    est = _PlugInEstimator(model, mech, lift=lift)
    _, _, _, _, z, r = _simulate_batch(model, mech, 50, seed=11)
    z, r = z.reshape(50, -1), r.reshape(50, -1)
    mu_base = lift.F @ model.mu_x1 + r[:, :(req.K - 1) * model.n_u] @ lift.L.T
    mu_S = mu_base @ lift.Dt.T
    mu_Z = mu_base @ (mech.Gtilde @ lift.Ct).T
    np.testing.assert_allclose(est.estimate(z, r), mu_S + (z - mu_Z) @ est.B_z.T,
                               rtol=0, atol=1e-12)


def test_sweep_row_builds_one_lift(monkeypatch):
    """One horizon lift per eps_Y row, shared by its solve and every cell."""
    calls = []
    real = build_lift
    counting = lambda *a, **kw: calls.append(1) or real(*a, **kw)     # noqa: E731
    monkeypatch.setattr(cli, "build_lift", counting)
    monkeypatch.setattr(synth, "build_lift", counting)
    cells = cli._sweep_row(str(FIXTURES / "twostate.json"), None, 1.0, [0.0, 0.5, 1.0, 2.0], 42)
    assert [c[0] for c in cells] == ["Infeasible", "Optimal", "Optimal", "Optimal"]
    assert len(calls) == 1


def test_main_leaves_floating_point_settings_alone():
    before = np.geterr()
    assert cli.main(["validate", str(FIXTURES / "twostate.json")]) == 0
    assert np.geterr() == before
