import json

import pytest

from fracheston import ScenarioConfig, load_config
from fracheston.params import Regime


def _write(tmp_path, payload):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    return path


def test_defaults_valid():
    cfg = ScenarioConfig()
    assert cfg.sigma == 0.5
    assert cfg.step == 0.001
    p = cfg.model_params(0.75, 0.0)
    assert p.regime is Regime.FRACTIONAL


def test_load_roundtrip(tmp_path):
    path = _write(tmp_path, {"seed": 99, "alphas": [0.5], "lambda": 0.4, "w0": 500})
    cfg = load_config(path)
    assert cfg.seed == 99
    assert cfg.w0 == 500  # an int is a real number
    assert cfg.alphas == (0.5,)
    assert cfg.lam == 0.4


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, {"sead": 99})
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(path)


def test_schema_version_enforced(tmp_path):
    path = _write(tmp_path, {"schema_version": 1})
    with pytest.raises(ValueError, match="schema_version"):
        load_config(path)


def test_invalid_model_parameters_rejected(tmp_path):
    path = _write(tmp_path, {"sigma": 2.0})  # Feller violation
    with pytest.raises(ValueError):
        load_config(path)
    path2 = _write(tmp_path, {"alphas": [0.3, -0.2]})
    with pytest.raises(ValueError):
        load_config(path2)
    path3 = _write(tmp_path, {"w0": 10 ** 400})  # an int no float can hold
    with pytest.raises(ValueError, match="w0 must be a finite real number"):
        load_config(path3)


def test_classical_aliases():
    cfg = ScenarioConfig()
    for alpha in (0.0, -1.0):
        assert cfg.model_params(alpha, 0.0).regime is Regime.CLASSICAL_HESTON


def test_config_hash_stability():
    a, b = ScenarioConfig(), ScenarioConfig()
    assert a.config_hash() == b.config_hash()
    assert a.with_(seed=1).config_hash() != a.config_hash()


def test_non_object_config_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError):
        load_config(path)
