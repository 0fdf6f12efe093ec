"""Forecaster backends and the n-attempt ensemble runner.

Backends: a remote chat-completion HTTP endpoint, plus deterministic local
baselines (oracle, persistence, seeded noisy mock) that anchor tests and CI
without network access. Failed attempts are carried as values, never dropped;
an epoch fails only when every attempt fails.
"""

from __future__ import annotations

import logging
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
import requests

from .codec import DecodeFailure, EncodingSpec, decode
from .errors import GendtError

log = logging.getLogger(__name__)

BACKEND_KINDS = ("llm_http", "oracle", "persistence", "mock_noise")
DEFAULT_API_KEY_ENV = "GENDT_API_KEY"

_RETRYABLE_STATUS = frozenset({429})
_AUTH_STATUS = frozenset({401, 403})
_JITTER_SPREAD = 0.25  # multiplicative, on top of the doubling base


class ForecastError(GendtError):
    pass


class AllAttemptsFailed(ForecastError):
    """Every attempt of an ensemble failed; an epoch-level failure."""


class BackendUnreachable(ForecastError):
    """Transport failure or retryable status persisted past the retry budget."""


class AuthError(ForecastError):
    """Credential missing or rejected (HTTP 401/403); never retried."""


class MalformedResponse(ForecastError):
    """The endpoint answered but not in the expected chat-completion shape."""


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    endpoint: str = ""
    model_name: str = "gpt-4"
    timeout_s: float = 30.0
    max_retries: int = 3
    retry_base_delay_s: float = 1.0
    rng_seed: Optional[int] = None
    noise_sigma: float = 0.1
    api_key_env: str = DEFAULT_API_KEY_ENV
    max_in_flight: int = 1

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"unknown backend kind {self.kind!r}, expected one of {BACKEND_KINDS}")
        if self.kind == "llm_http" and not self.endpoint:
            raise ValueError("llm_http backend requires an endpoint URL")
        if self.kind == "mock_noise" and self.rng_seed is None:
            raise ValueError("mock_noise backend requires rng_seed")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if not self.retry_base_delay_s >= 0:
            raise ValueError(f"retry_base_delay_s must be >= 0, got {self.retry_base_delay_s}")
        if not 0 <= self.noise_sigma < float("inf"):
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True)
class ForecastRequest:
    prompt: str
    temperature: float
    top_p: float
    attempts: int
    horizon: int
    encoding: EncodingSpec

    def __post_init__(self) -> None:
        # attempts, temperature and top_p come from a validated EnsembleParams
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass(frozen=True)
class EnsembleInputs:
    """Preprocessed window material the local baselines consume.

    `last_history` is the most recent prior-run series after preprocessing;
    `truth` is the identically preprocessed target series, provided only to
    the oracle backend. `epoch_key` seeds per-attempt RNG streams.
    """

    last_history: np.ndarray
    epoch_key: tuple[int, int] = (0, 0)
    truth: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ForecastAttempt:
    index: int
    values: Optional[np.ndarray]
    failure: Optional[DecodeFailure]
    raw_text: str = ""
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if (self.values is None) == (self.failure is None):
            raise ValueError("attempt must carry exactly one of values or failure")

    @property
    def ok(self) -> bool:
        return self.values is not None


def llm_http_call(
    config: BackendConfig, prompt: str, temperature: float, top_p: float
) -> str:
    """POST one chat-completion request and return the first choice's content.

    Retries transport errors, HTTP 429, and HTTP 5xx with exponential backoff
    (base delay doubling plus jitter) up to max_retries. 401/403 raise
    AuthError immediately; other client errors are not retried. The credential
    is read from the environment at call time and never stored or logged.
    """
    key = os.environ.get(config.api_key_env)
    if not key:
        raise AuthError(f"environment variable {config.api_key_env} is not set")
    body = {
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "top_p": top_p,
    }
    headers = {"Authorization": f"Bearer {key}"}
    last_error = "no request made"
    for attempt in range(config.max_retries + 1):
        if attempt:
            delay = config.retry_base_delay_s * (2 ** (attempt - 1))
            time.sleep(delay * (1.0 + _JITTER_SPREAD * random.random()))
        try:
            resp = requests.post(
                config.endpoint, json=body, headers=headers, timeout=config.timeout_s
            )
        except requests.RequestException as exc:
            last_error = f"transport error: {type(exc).__name__}"
            log.debug("llm_http transport error (try %d): %s", attempt + 1, last_error)
            continue
        status = resp.status_code
        if status in _AUTH_STATUS:
            raise AuthError(f"endpoint rejected credential (HTTP {status})")
        if status in _RETRYABLE_STATUS or status >= 500:
            last_error = f"HTTP {status}"
            log.debug("llm_http retryable status %d (try %d)", status, attempt + 1)
            continue
        if status != 200:
            raise BackendUnreachable(f"unexpected HTTP {status} from {config.endpoint}")
        return _extract_content(resp)
    raise BackendUnreachable(
        f"gave up after {config.max_retries + 1} calls to {config.endpoint}: {last_error}"
    )


def _extract_content(resp: requests.Response) -> str:
    try:
        data = resp.json()
    except ValueError as exc:
        raise MalformedResponse(f"response body is not JSON: {exc}") from exc
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse("response lacks choices[0].message.content") from exc
    if not isinstance(content, str):
        raise MalformedResponse(f"message content has type {type(content).__name__}")
    return content


def _local_attempts(
    config: BackendConfig, request: ForecastRequest, inputs: EnsembleInputs
) -> tuple[list[ForecastAttempt], np.ndarray]:
    """Every attempt of a local baseline, its values written straight into one
    (attempts, horizon) matrix."""
    indices = range(1, request.attempts + 1)
    oracle = config.kind == "oracle"
    source = inputs.truth if oracle else inputs.last_history
    if source is None:
        raise AllAttemptsFailed("oracle backend needs the target series, which is absent")
    if not oracle and len(source) < request.horizon:
        failure = DecodeFailure("short", len(source), "history series shorter than horizon")
        return [ForecastAttempt(i, None, failure) for i in indices], np.empty((0, request.horizon))
    n = min(len(source), request.horizon)
    rows = np.empty((request.attempts, request.horizon))
    rows[:, :n] = source[:n]
    rows[:, n:] = source[n - 1]  # the oracle pads with its final value; scoring truncates it away
    if config.kind == "mock_noise":
        for i, row in zip(indices, rows):
            rng = np.random.default_rng([config.rng_seed, *inputs.epoch_key, i])
            row += rng.normal(0.0, config.noise_sigma, request.horizon)
    return [ForecastAttempt(i, row, None) for i, row in zip(indices, rows)], rows


def _llm_attempt(config: BackendConfig, request: ForecastRequest, index: int) -> ForecastAttempt:
    start = time.perf_counter()
    try:
        text = llm_http_call(config, request.prompt, request.temperature, request.top_p)
    except (BackendUnreachable, MalformedResponse) as exc:
        latency = (time.perf_counter() - start) * 1000.0
        return ForecastAttempt(index, None, DecodeFailure("backend", index, str(exc)), "", latency)
    latency = (time.perf_counter() - start) * 1000.0
    decoded = decode(text, request.encoding, request.horizon)
    if isinstance(decoded, DecodeFailure):
        return ForecastAttempt(index, None, decoded, text, latency)
    return ForecastAttempt(index, np.array(decoded), None, text, latency)


def _llm_attempts(config: BackendConfig, request: ForecastRequest) -> list[ForecastAttempt]:
    indices = range(1, request.attempts + 1)
    if config.max_in_flight > 1:
        workers = min(config.max_in_flight, request.attempts)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda i: _llm_attempt(config, request, i), indices))
    return [_llm_attempt(config, request, i) for i in indices]


def forecast_ensemble(
    config: BackendConfig, request: ForecastRequest, inputs: EnsembleInputs
) -> tuple[list[ForecastAttempt], np.ndarray]:
    """Run exactly `request.attempts` independent attempts.

    Returns all attempts in index order, failures included, and the successful
    attempts' values as one (successes, horizon) matrix in the same order.
    Raises AllAttemptsFailed when no attempt succeeded, and AuthError
    immediately on a rejected or missing credential (retrying cannot help).
    """
    if config.kind == "llm_http":
        attempts = _llm_attempts(config, request)
        rows = np.array([a.values for a in attempts if a.ok])
    else:
        attempts, rows = _local_attempts(config, request, inputs)
    if not len(rows):
        first = next(a.failure for a in attempts)
        raise AllAttemptsFailed(
            f"all {request.attempts} attempts failed ({first.reason}: {first.message})"
        )
    return attempts, rows
