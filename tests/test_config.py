"""Configuration file round trips and parameter resolution."""

from __future__ import annotations

from pathlib import Path

import pytest

from conftest import make_config
from gendt.config import (
    ConfigError,
    RunConfig,
    default_temperature,
    load_config,
    save_config,
)
from gendt.dsp import DownsampleSpec, DspError
from gendt.forecast import BackendConfig


def test_round_trip_lossless(tmp_path):
    config = make_config("mock_noise")
    path = tmp_path / "cfg.json"
    save_config(config, path)
    assert load_config(path) == config
    # and a second cycle is stable byte for byte
    path2 = tmp_path / "cfg2.json"
    save_config(load_config(path), path2)
    assert path.read_bytes() == path2.read_bytes()


def test_reference_config_in_repo_loads():
    path = Path(__file__).parent.parent / "configs" / "milling.json"
    config = load_config(path)
    assert config.filter.cutoff_hz == 8.0
    assert config.ensemble.attempts == 10
    assert config.history_depth == 4
    assert config.thresholds.t_low == 0.5


def test_temperature_profiles():
    assert default_temperature("gpt-4") == 1.0
    assert default_temperature("GPT-4o-mini") == 1.0
    assert default_temperature("gpt-3.5-turbo") == 0.7
    assert default_temperature("other-model") == 0.7


def test_temperature_resolution_prefers_explicit():
    config = make_config("persistence")
    assert config.resolved_temperature() == 1.0  # gpt-4 default profile
    from dataclasses import replace

    from gendt.config import EnsembleParams

    explicit = replace(config, ensemble=EnsembleParams(attempts=10, temperature=0.2))
    assert explicit.resolved_temperature() == 0.2


def test_downsample_exactly_one_source():
    with pytest.raises(DspError):
        DownsampleSpec()
    with pytest.raises(DspError):
        DownsampleSpec(factor=2, target_rate_hz=20.0)
    DownsampleSpec(factor=2)
    DownsampleSpec(target_rate_hz=20.0)
    doc = make_config("persistence").to_dict()
    doc["downsample"] = {"factor": 2, "target_rate_hz": 20.0}
    with pytest.raises(ConfigError, match="exactly one"):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "section, params",
    [
        ("filter", {"order": 0}),
        ("filter", {"cutoff_hz": 0.0}),
        ("filter", {"cutoff_hz": float("nan")}),
        ("downsample", {"factor": 0}),
        ("downsample", {"target_rate_hz": -20.0}),
    ],
)
def test_out_of_range_dsp_params_raise_config_error(section, params):
    doc = make_config("persistence").to_dict()
    doc[section] = params
    with pytest.raises(ConfigError, match=next(iter(params))):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "path, value",
    [
        (("backend", "model_name"), None),
        (("filter", "order"), 2.5),
        (("downsample", "factor"), True),
        (("ensemble", "attempts"), "10"),
        (("history_depth",), "4"),
        (("halt_on_stop",), 1),
        (("prompt_template_path",), True),
        (("encoding",), [2]),
    ],
)
def test_field_of_wrong_json_type_raises_config_error(path, value):
    doc = make_config("persistence").to_dict()
    parent = doc[path[0]] if len(path) == 2 else doc
    parent[path[-1]] = value
    with pytest.raises(ConfigError, match=path[-1]):
        RunConfig.from_dict(doc)


@pytest.mark.parametrize(
    "path",
    [("backend", "timeout_s"), ("backend", "retry_base_delay_s"), ("backend", "noise_sigma"),
     ("thresholds", "t_health"), ("filter", "cutoff_hz"), ("downsample", "target_rate_hz"),
     ("encoding", "scale"), ("ensemble", "temperature"), ("ensemble", "top_p")],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400],
                         ids=["nan", "inf", "-inf", "huge-int"])
def test_non_finite_float_raises_config_error(path, value):
    """Every float field takes finite numbers only, checked with the graph's rule."""
    doc = make_config("persistence").to_dict()
    doc[path[0]][path[1]] = value
    message = rf"^invalid run configuration: {'.'.join(path)} must be a finite number"
    with pytest.raises(ConfigError, match=message):
        RunConfig.from_dict(doc)


def test_integer_is_a_valid_float():
    doc = make_config("persistence").to_dict()
    doc["filter"]["cutoff_hz"] = 8
    doc["thresholds"] = {"t_low": 1, "t_high": 2, "t_health": 15}
    config = RunConfig.from_dict(doc)
    assert config.filter.cutoff_hz == 8 and config.thresholds.t_high == 2


def test_invalid_documents_raise_config_error():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({})
    with pytest.raises(ConfigError):
        RunConfig.from_dict(
            {"backend": {"kind": "persistence"}, "thresholds": {"t_low": 2, "t_high": 1, "t_health": 1}}
        )


def test_top_level_rng_seed_is_ignored():
    """`backend.rng_seed` is the one seed: a top-level `rng_seed` is an unknown
    key, ignored like any other."""
    doc = {
        "backend": {"kind": "mock_noise"},
        "thresholds": {"t_low": 0.5, "t_high": 1.5, "t_health": 15.0},
        "rng_seed": 99,
    }
    with pytest.raises(ConfigError, match="mock_noise backend requires rng_seed"):
        RunConfig.from_dict(doc)
    doc["backend"]["rng_seed"] = 7
    config = RunConfig.from_dict(doc)
    assert config.backend.rng_seed == 7
    assert "rng_seed" not in config.to_dict()


def test_credential_env_name_only_never_value(tmp_path, monkeypatch):
    monkeypatch.setenv("GENDT_API_KEY", "super-secret-value")
    config = make_config(
        backend=BackendConfig(kind="llm_http", endpoint="http://example.invalid/llm")
    )
    path = tmp_path / "cfg.json"
    save_config(config, path)
    text = path.read_text()
    assert "super-secret-value" not in text
    assert "GENDT_API_KEY" in text  # the variable name is configuration
