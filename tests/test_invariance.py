"""Invariances the mathematics guarantees: the input budget moves only the
closed-form entropy term, and a change of state coordinates or of private
output coordinates changes nothing the program sees."""

import dataclasses
import json
import pathlib

import numpy as np
import pytest

from privsynth import cli
from privsynth.model import load_model, to_dict, with_overrides, write_json
from privsynth.synth import synthesize

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def _sym(M):
    return 0.5 * (M + M.T)


@pytest.mark.parametrize("name", ["twostate", "reactor4"])
def test_output_design_does_not_depend_on_the_input_budget(name):
    """G, Sigma_V and the iteration log are bitwise the same at every eps_U;
    only the input noise and its entropy move."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    reps = [synthesize(*with_overrides(model, req, eps_u=eu)) for eu in (0.5, 1.0, 7.0)]
    first = reps[0]
    for rep in reps[1:]:
        for g, g0 in zip(rep.mechanism.G_blocks, first.mechanism.G_blocks, strict=True):
            np.testing.assert_array_equal(g, g0)
        np.testing.assert_array_equal(rep.mechanism.Sigma_V, first.mechanism.Sigma_V)
        assert rep.solution.iterations == first.solution.iterations
        assert rep.entropy_H_bits != first.entropy_H_bits


@pytest.mark.parametrize("name", ["twostate", "reactor4"])
def test_state_coordinates_do_not_matter(name):
    """Under x' = T x (A' = T A T^-1, B' = T B, C' = C T^-1, D' = D T^-1,
    Sigma' = T Sigma T^T, mu' = T mu) the leakage, the cost and the Newton
    step count are unchanged; T = I + 0.3 N(0, 1), three draws."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    base = synthesize(model, req)
    rng = np.random.default_rng(6)
    for _ in range(3):
        T = np.eye(model.n_x) + 0.3 * rng.standard_normal((model.n_x, model.n_x))
        Ti = np.linalg.inv(T)
        moved = dataclasses.replace(
            model, A=T @ model.A @ Ti, B=T @ model.B, C=model.C @ Ti, D=model.D @ Ti,
            mu_x1=T @ model.mu_x1, Sigma_x1=_sym(T @ model.Sigma_x1 @ T.T),
            Sigma_T=_sym(T @ model.Sigma_T @ T.T))
        rep = synthesize(moved, req)
        assert abs(rep.mi_bits - base.mi_bits) <= 1e-12, np.linalg.cond(T)
        assert abs(rep.cost_bits - base.cost_bits) <= 1e-12, np.linalg.cond(T)
        assert rep.solver["newton_steps"] == base.solver["newton_steps"]


@pytest.mark.parametrize("name", ["scalar", "twostate", "twostate_weighted", "reactor4"])
def test_private_coordinates_do_not_matter(capsys, tmp_path, name):
    """I(S; Z) is the same for S and M S with M invertible, and the program
    sees S whitened, so D -> c D for c from 1e-6 to 1e6, and D -> M D for a
    random M, each solve (synthesize exits 0) with the same leakage to
    1e-12 bits."""
    model, req = load_model(str(FIXTURES / f"{name}.json"))
    rng = np.random.default_rng(15)
    M = np.eye(model.n_s) + 0.5 * rng.standard_normal((model.n_s, model.n_s))
    assert abs(np.linalg.det(M)) > 0.1
    mi = {}
    for label, D in [("1", model.D), *((f"{c:g}", c * model.D) for c in (1e-6, 1e-4, 1e3, 1e6)),
                     ("M", M @ model.D)]:
        path = tmp_path / f"{label}.json"
        write_json(to_dict(dataclasses.replace(model, D=D), req), str(path))
        code = cli.main(["synthesize", str(path), str(tmp_path / f"{label}.mech.json")])
        assert code == 0, (label, capsys.readouterr().err)
        report = json.loads((tmp_path / f"{label}.mech.report.json").read_text())
        mi[label] = report["mi_bits"]
    capsys.readouterr()
    assert max(mi.values()) - min(mi.values()) <= 1e-12, mi
