"""Model file parsing, invariant validation and override handling."""

import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from privsynth import model as model_module
from privsynth.model import (
    ModelFormatError,
    SynthesisRequest,
    ValidationError,
    content_hash,
    load_model,
    parse_model,
    save_model,
    to_dict,
    validate,
    with_overrides,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def load_raw(name):
    with open(FIXTURES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_scalar_shorthand_expansion():
    """Scalars for covariances and weights expand to full matrices."""
    model, req = parse_model(load_raw("scalar"))
    assert model.A.shape == (1, 1)
    assert model.Sigma_x1.shape == (1, 1) and model.Sigma_x1[0, 0] == 1.0
    assert model.U.shape == (1, 1)
    assert req.K == 2
    # W_Y given as the scalar 1.0 becomes the K*n_y identity.
    np.testing.assert_array_equal(req.W_Y, np.eye(2))
    np.testing.assert_array_equal(req.W_U, np.eye(2))


def test_per_step_weight_expansion():
    data = load_raw("twostate")
    data["W_Y"] = [[2.0, 0.0], [0.0, 3.0]]
    _, req = parse_model(data)
    np.testing.assert_array_equal(req.W_Y, np.kron(np.eye(3), [[2.0, 0.0], [0.0, 3.0]]))


def test_inf_budget_parses():
    data = load_raw("scalar")
    data["eps_Y"] = "inf"
    _, req = parse_model(data)
    assert math.isinf(req.eps_y)
    assert req.eps_u == 1.0


def test_bad_eps_string_rejected():
    data = load_raw("scalar")
    data["eps_U"] = "huge"
    with pytest.raises(ModelFormatError, match="eps_U"):
        parse_model(data)


def test_missing_field_rejected():
    data = load_raw("scalar")
    del data["Sigma_W"]
    with pytest.raises(ModelFormatError, match="Sigma_W"):
        parse_model(data)


def test_top_level_must_be_object():
    with pytest.raises(ModelFormatError):
        parse_model([1, 2, 3])


def test_round_trip_preserves_values(tmp_path):
    model, req = load_model(str(FIXTURES / "twostate.json"))
    out = tmp_path / "copy.json"
    save_model(model, req, str(out))
    model2, req2 = load_model(str(out))
    np.testing.assert_array_equal(model.A, model2.A)
    np.testing.assert_array_equal(model.Sigma_W, model2.Sigma_W)
    np.testing.assert_array_equal(req.W_Y, req2.W_Y)
    assert req.eps_y == req2.eps_y
    assert content_hash(model, req) == content_hash(model2, req2)


def test_round_trip_inf_budget(tmp_path):
    model, req = load_model(str(FIXTURES / "scalar.json"))
    model, req = with_overrides(model, req, eps_y=math.inf)
    out = tmp_path / "inf.json"
    save_model(model, req, str(out))
    _, req2 = load_model(str(out))
    assert math.isinf(req2.eps_y)


def test_content_hash_sensitivity():
    model, req = load_model(str(FIXTURES / "scalar.json"))
    base = content_hash(model, req)
    _, req2 = with_overrides(model, req, eps_u=2.0)
    assert content_hash(model, req2) != base
    assert len(base) == 64 and all(c in "0123456789abcdef" for c in base)


@pytest.mark.parametrize("name", ["scalar", "twostate", "reactor4", "eps_u_zero"])
def test_content_hash_is_the_sha256_of_the_canonical_dict(name):
    """The package's SHA-256 binding gives hashlib's digest."""
    model, req = parse_model(load_raw(name))
    blob = json.dumps(to_dict(model, req), sort_keys=True, separators=(",", ":"))
    assert content_hash(model, req) == hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_validate_accepts_fixtures():
    for name in ("scalar", "twostate", "reactor4", "eps_u_zero"):
        model, req = parse_model(load_raw(name))
        rep = validate(model, req)
        assert rep.ok, rep.violations


def test_validate_rejects_asymmetric_covariance():
    data = load_raw("twostate")
    data["Sigma_x1"] = [[0.5, 0.1], [0.0, 0.5]]
    model, req = parse_model(data)
    rep = validate(model, req)
    assert any("Sigma_x1" in v and "symmetric" in v for v in rep.violations)


def test_validate_rejects_indefinite_covariance():
    data = load_raw("twostate")
    data["Sigma_W"] = [[1.0, 2.0], [2.0, 1.0]]
    model, req = parse_model(data)
    rep = validate(model, req)
    assert any("Sigma_W" in v and "positive definite" in v for v in rep.violations)


def test_validate_rejects_rank_deficient_weight():
    data = load_raw("scalar")
    data["W_Y"] = [[1.0, 1.0], [1.0, 1.0]]
    model, req = parse_model(data)
    rep = validate(model, req)
    assert any("W_Y" in v and "rank" in v for v in rep.violations)


def test_validate_rejects_short_horizon():
    """validate reports a short horizon in a request built in code; in a
    model file parse_model rejects it first."""
    model, req = parse_model(load_raw("scalar"))
    rep = validate(model, dataclasses.replace(req, K=1))
    assert any("K" in v for v in rep.violations)


@pytest.mark.parametrize("K", [1, 0, -3, 10**8])
def test_parse_model_rejects_a_horizon_out_of_bounds(K):
    """A horizon below 2, or one whose stacks exceed MAX_DIM rows, is a
    format error naming K, raised before any K-sized weight is built: at
    K = 10**8 one weight would need 8e16 bytes."""
    data = load_raw("twostate")
    data["K"] = K
    with pytest.raises(ModelFormatError, match=f"horizon K.*{K}"):
        parse_model(data)


def test_every_horizon_stack_is_bounded(monkeypatch):
    """The output and the input stacks are bounded as well as the state's."""
    monkeypatch.setattr(model_module, "MAX_DIM", 12)
    data = load_raw("scalar")                   # n_x = n_y = n_u = 1
    data.update(C=[[1.0], [0.5]], Sigma_W=1.0, K=7)
    with pytest.raises(ModelFormatError, match=r"K\*n_y = 14 exceeds limit 12"):
        parse_model(data)
    data.update(C=[[1.0]], B=[[1.0, 0.5]], U=[[0.0, 0.0]])
    with pytest.raises(ModelFormatError, match=r"K\*n_u = 14 exceeds limit 12"):
        parse_model(data)
    data["K"] = 6
    assert parse_model(data)[1].W_U.shape == (12, 12)


def test_validate_rejects_short_input_sequence():
    data = load_raw("twostate")
    data["U"] = [[0.4]]
    model, req = parse_model(data)
    rep = validate(model, req)
    assert any("K-1" in v for v in rep.violations)


def test_load_model_raises_validation_error(tmp_path):
    data = load_raw("scalar")
    data["eps_Y"] = -1.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as exc:
        load_model(str(bad))
    assert exc.value.report.violations


def test_input_sequence_padding():
    model, _ = parse_model(load_raw("twostate"))
    assert model.U.shape == (2, 1)
    u3 = model.input_sequence(3)
    np.testing.assert_array_equal(u3, [[0.4], [-0.2], [0.0]])
    np.testing.assert_array_equal(model.input_sequence(2), [[0.4], [-0.2]])
    with pytest.raises(ValueError):
        model.input_sequence(4)


def test_with_overrides_resizes_weights():
    data = load_raw("twostate")
    data["U"] += [[0.0], [0.0]]                 # K = 5 needs K-1 = 4 input rows
    model, req = parse_model(data)
    _, req5 = with_overrides(model, req, K=5)
    assert req5.K == 5
    assert req5.W_Y.shape == (10, 10)
    np.testing.assert_array_equal(req5.W_Y, np.eye(10))


def test_with_overrides_rejects_unstructured_weight():
    data = load_raw("scalar")
    data["U"] += [0.0]                          # K = 3 needs K-1 = 2 input rows
    model, req = parse_model(data)
    W = np.array([[1.0, 0.2], [0.2, 1.5]])
    req = SynthesisRequest(K=req.K, eps_y=req.eps_y, eps_u=req.eps_u, W_Y=W, W_U=req.W_U)
    with pytest.raises(ValueError, match="W_Y"):
        with_overrides(model, req, K=3)


@pytest.mark.parametrize("K", [1, -3, 10**8])
def test_with_overrides_rejects_a_horizon_out_of_bounds(K):
    model, req = parse_model(load_raw("twostate"))
    with pytest.raises(ValueError, match=f"horizon K.*{K}"):
        with_overrides(model, req, K=K)


@pytest.mark.parametrize("overrides, violation", [
    ({"K": 4}, "U must have at least K-1 = 3 entries, got 2"),
    ({"eps_y": -1.0}, "eps_Y must be a nonnegative real or inf, got -1.0"),
    ({"eps_u": math.nan}, "eps_U must be a nonnegative real or inf, got nan"),
])
def test_with_overrides_checks_what_it_overrides(overrides, violation):
    """An override breaking validate's input or budget rule is that rule's
    violation, so a validated request needs no second validate."""
    model, req = parse_model(load_raw("twostate"))
    with pytest.raises(ValidationError) as exc:
        with_overrides(model, req, **overrides)
    assert exc.value.report.violations == [violation]


def test_with_overrides_eps_only_keeps_weights():
    model, req = parse_model(load_raw("reactor4"))
    m2, r2 = with_overrides(model, req, eps_y=3.5)
    assert m2 is model
    assert r2.eps_y == 3.5 and r2.eps_u == req.eps_u
    assert r2.W_Y is req.W_Y


def test_to_dict_json_serializable():
    model, req = parse_model(load_raw("reactor4"))
    text = json.dumps(to_dict(model, req))
    assert "eps_Y" in text
