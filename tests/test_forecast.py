"""Backend behavior: local baselines, the HTTP client's retry discipline, and
ensemble failure policy."""

from __future__ import annotations

import numpy as np
import pytest

from gendt.codec import DecodeFailure, EncodingSpec
from gendt.ensemble import PredictionMatrix, aggregate
from gendt.forecast import (
    AllAttemptsFailed,
    AuthError,
    BackendConfig,
    BackendUnreachable,
    EnsembleInputs,
    ForecastAttempt,
    ForecastRequest,
    MalformedResponse,
    forecast_ensemble,
    llm_http_call,
)

ENC = EncodingSpec()


def request(attempts=3, horizon=4, prompt="Sequence: 1.00."):
    return ForecastRequest(
        prompt=prompt, temperature=0.7, top_p=1.0, attempts=attempts, horizon=horizon, encoding=ENC
    )


def inputs(last=(1.0, 2.0, 3.0, 4.0), truth=None, key=(5, 1)):
    return EnsembleInputs(
        last_history=np.array(last), epoch_key=key, truth=None if truth is None else np.array(truth)
    )


def values(attempts) -> list:
    """Each attempt's values as a list, None for a failed attempt."""
    return [None if a.values is None else a.values.tolist() for a in attempts]


def http_config(stub, **kw):
    defaults = dict(
        kind="llm_http",
        endpoint=stub.endpoint,
        model_name="test-model",
        timeout_s=5.0,
        max_retries=2,
        retry_base_delay_s=0.05,
    )
    defaults.update(kw)
    return BackendConfig(**defaults)


# ---------------------------------------------------------------- baselines


def test_oracle_attempts_equal_truth():
    cfg = BackendConfig(kind="oracle")
    truth = (1.25, 2.5, 3.75, 5.0)
    attempts, rows = forecast_ensemble(cfg, request(), inputs(truth=truth))
    assert values(attempts) == [list(truth)] * 3 == rows.tolist()


def test_oracle_pads_short_truth():
    cfg = BackendConfig(kind="oracle")
    attempts, _ = forecast_ensemble(cfg, request(horizon=4), inputs(truth=(1.0, 2.0)))
    assert values(attempts)[0] == [1.0, 2.0, 2.0, 2.0]


def test_oracle_without_truth_fails():
    cfg = BackendConfig(kind="oracle")
    with pytest.raises(AllAttemptsFailed):
        forecast_ensemble(cfg, request(), inputs(truth=None))


def test_persistence_repeats_last_series():
    cfg = BackendConfig(kind="persistence")
    attempts, _ = forecast_ensemble(cfg, request(), inputs(last=(5.0, 6.0, 7.0, 8.0)))
    assert values(attempts) == [[5.0, 6.0, 7.0, 8.0]] * 3


def test_persistence_truncates_to_horizon():
    cfg = BackendConfig(kind="persistence")
    attempts, _ = forecast_ensemble(cfg, request(horizon=2), inputs(last=(5.0, 6.0, 7.0)))
    assert values(attempts)[0] == [5.0, 6.0]


def test_persistence_short_history_fails():
    cfg = BackendConfig(kind="persistence")
    with pytest.raises(AllAttemptsFailed):
        forecast_ensemble(cfg, request(horizon=10), inputs(last=(1.0, 2.0)))


def test_mock_noise_is_persistence_plus_seeded_noise():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42, noise_sigma=0.1)
    a1, rows = forecast_ensemble(cfg, request(), inputs())
    a2, _ = forecast_ensemble(cfg, request(), inputs())
    assert values(a1) == values(a2) == rows.tolist()  # bitwise reproducible
    base = np.array([1.0, 2.0, 3.0, 4.0])
    for a in a1:
        assert not np.array_equal(a.values, base)
        assert np.max(np.abs(a.values - base)) < 1.0


def test_mock_noise_attempts_differ_from_each_other():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42)
    attempts, _ = forecast_ensemble(cfg, request(attempts=5), inputs())
    assert len({tuple(v) for v in values(attempts)}) == 5


def test_mock_noise_independent_of_epoch_key():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42)
    a, _ = forecast_ensemble(cfg, request(), inputs(key=(5, 1)))
    b, _ = forecast_ensemble(cfg, request(), inputs(key=(5, 2)))
    assert values(a) != values(b)


def test_mock_requires_seed():
    with pytest.raises(ValueError):
        BackendConfig(kind="mock_noise", rng_seed=None)


def test_permuting_attempts_leaves_median_unchanged():
    cfg = BackendConfig(kind="mock_noise", rng_seed=7)
    _, rows = forecast_ensemble(cfg, request(attempts=8), inputs())
    est = aggregate(PredictionMatrix(rows))
    rng = np.random.default_rng(0)
    est_perm = aggregate(PredictionMatrix(rows[rng.permutation(len(rows))]))
    assert est.median.tolist() == est_perm.median.tolist()
    assert est.sd.tolist() == est_perm.sd.tolist()


def test_local_matrix_is_taken_without_a_copy():
    """The local backends write every attempt into one matrix; the attempts
    view its rows and the prediction matrix takes it as is."""
    cfg = BackendConfig(kind="mock_noise", rng_seed=7)
    attempts, rows = forecast_ensemble(cfg, request(attempts=4), inputs())
    assert rows.shape == (4, 4) and rows.dtype == np.float64
    assert all(a.values.base is rows for a in attempts)
    assert PredictionMatrix(rows).rows is rows


# ---------------------------------------------------------------- HTTP client


def test_http_echo(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("7.70,7.71,7.72"))]
    text = llm_http_call(http_config(stub_llm), "prompt", 0.7, 1.0)
    assert text == "7.70,7.71,7.72"
    body = stub_llm.requests[0]["body"]
    assert body["model"] == "test-model"
    assert body["messages"] == [{"role": "user", "content": "prompt"}]
    assert body["temperature"] == 0.7
    assert body["top_p"] == 1.0


def test_http_retries_on_429_with_backoff(stub_llm, api_key_env):
    stub_llm.script = [(429, {}), (429, {}), (200, stub_llm.completion("1.00"))]
    base = 0.05
    text = llm_http_call(http_config(stub_llm, retry_base_delay_s=base), "p", 0.7, 1.0)
    assert text == "1.00"
    times = [r["time"] for r in stub_llm.requests]
    assert len(times) == 3
    assert times[1] - times[0] >= base
    assert times[2] - times[1] >= 2 * base


def test_http_auth_error_not_retried(stub_llm, api_key_env):
    stub_llm.script = [(401, {"error": "bad key"})]
    with pytest.raises(AuthError):
        llm_http_call(http_config(stub_llm), "p", 0.7, 1.0)
    assert len(stub_llm.requests) == 1


def test_http_missing_credential(stub_llm, monkeypatch):
    monkeypatch.delenv("GENDT_API_KEY", raising=False)
    with pytest.raises(AuthError, match="GENDT_API_KEY"):
        llm_http_call(http_config(stub_llm), "p", 0.7, 1.0)
    assert len(stub_llm.requests) == 0


def test_http_retry_budget(stub_llm, api_key_env):
    stub_llm.script = [(503, {})]
    cfg = http_config(stub_llm, max_retries=3, retry_base_delay_s=0.01)
    with pytest.raises(BackendUnreachable):
        llm_http_call(cfg, "p", 0.7, 1.0)
    assert len(stub_llm.requests) == 1 + cfg.max_retries


def test_http_malformed_response(stub_llm, api_key_env):
    stub_llm.script = [(200, {"not": "a completion"})]
    with pytest.raises(MalformedResponse):
        llm_http_call(http_config(stub_llm), "p", 0.7, 1.0)
    stub_llm.script = [(200, "this is not json")]
    with pytest.raises(MalformedResponse):
        llm_http_call(http_config(stub_llm), "p", 0.7, 1.0)


def test_http_unreachable_endpoint(api_key_env):
    cfg = BackendConfig(
        kind="llm_http",
        endpoint="http://127.0.0.1:1/nothing",
        max_retries=1,
        retry_base_delay_s=0.01,
        timeout_s=0.5,
    )
    with pytest.raises(BackendUnreachable):
        llm_http_call(cfg, "p", 0.7, 1.0)


def test_ensemble_decodes_llm_output(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("1.00,2.00,3.00,4.00"))]
    attempts, rows = forecast_ensemble(http_config(stub_llm), request(), inputs())
    assert values(attempts) == [[1.0, 2.0, 3.0, 4.0]] * 3 == rows.tolist()
    assert all(a.raw_text == "1.00,2.00,3.00,4.00" for a in attempts)


def test_ensemble_carries_failed_attempts(stub_llm, api_key_env):
    stub_llm.script = [
        (200, stub_llm.completion("1.00,2.00,3.00,4.00")),
        (200, stub_llm.completion("garbage with no numbers")),
        (200, stub_llm.completion("1.00,2.00")),
    ]
    attempts, rows = forecast_ensemble(http_config(stub_llm), request(attempts=3), inputs())
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert attempts[0].ok
    assert attempts[1].failure.reason == "malformed"
    assert attempts[2].failure == DecodeFailure("short", 2)


def test_ensemble_all_failed_raises(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("no numbers here"))]
    with pytest.raises(AllAttemptsFailed):
        forecast_ensemble(http_config(stub_llm), request(), inputs())


def test_ensemble_transport_failures_counted_not_dropped(stub_llm, api_key_env):
    stub_llm.script = [
        (200, stub_llm.completion("1.00,2.00,3.00,4.00")),
        (500, {}),
    ]
    cfg = http_config(stub_llm, max_retries=0)
    attempts, rows = forecast_ensemble(cfg, request(attempts=2), inputs())
    assert len(rows) == 1
    assert attempts[0].ok
    assert not attempts[1].ok
    assert attempts[1].failure.reason == "backend"


def test_ensemble_parallel_attempts(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("1.00,2.00,3.00,4.00"))]
    cfg = http_config(stub_llm, max_in_flight=4)
    attempts, _ = forecast_ensemble(cfg, request(attempts=8), inputs())
    assert [a.index for a in attempts] == list(range(1, 9))
    assert all(a.ok for a in attempts)


def test_no_credential_in_attempt_failures(stub_llm, api_key_env):
    stub_llm.script = [(500, {})]
    cfg = http_config(stub_llm, max_retries=0)
    try:
        forecast_ensemble(cfg, request(), inputs())
    except AllAttemptsFailed as exc:
        assert api_key_env not in str(exc)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="nonsense")
    with pytest.raises(ValueError):
        BackendConfig(kind="llm_http")  # endpoint required


@pytest.mark.parametrize(
    "field, value",
    [
        ("rng_seed", -1),
        ("timeout_s", 0.0),
        ("retry_base_delay_s", -0.5),
        ("noise_sigma", -0.1),
        ("noise_sigma", float("inf")),
        ("noise_sigma", float("nan")),
    ],
)
def test_backend_config_ranges(field, value):
    with pytest.raises(ValueError, match=field):
        BackendConfig(kind="mock_noise", **{"rng_seed": 1, field: value})


def test_attempt_invariant():
    with pytest.raises(ValueError):
        ForecastAttempt(1, (1.0,), DecodeFailure("short", 0))
    with pytest.raises(ValueError):
        ForecastAttempt(1, None, None)
