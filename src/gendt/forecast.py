"""Forecaster backends and the n-attempt ensemble runner.

Backends: a remote chat-completion HTTP endpoint, plus deterministic local
baselines (oracle, persistence, seeded noisy mock) that anchor tests and CI
without network access. Failed attempts are carried as values, never dropped;
an epoch fails only when every attempt fails.

`llm_http` attempts run on an `AttemptPool`, which a replay keeps from its
first epoch to its last and on which it queues all of a chunk's attempts
before the chunk's first epoch, so that the workers go on to the next
epoch's attempts while the current one's are in flight. Each try is one
POST on a fresh connection through `urllib.request`, which the transport
imports itself with `http.client` and `ssl`, so a process that never sends a
request never loads them.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import os
import random
import threading
import time
import urllib.parse
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .codec import DecodeFailure, EncodingSpec, decode
from .errors import STRING, GendtError, checked, read_json, shown

if TYPE_CHECKING:
    import http.client
    import ssl
    import urllib.request

log = logging.getLogger(__name__)

BACKEND_KINDS = ("llm_http", "oracle", "persistence", "mock_noise")
DEFAULT_API_KEY_ENV = "GENDT_API_KEY"

_RETRYABLE_STATUS = frozenset({429})
_AUTH_STATUS = frozenset({401, 403})
_JITTER_SPREAD = 0.25  # multiplicative, on top of the doubling base
# time.sleep takes at most about 9.2e9 s (int64 ns); every backoff sleep is held to this
RETRY_SLEEP_MAX_S = 1e9
# far below 1e154, where squaring a mock_noise error overflows a float64
NOISE_SIGMA_MAX = 1e100
# a reply holds a few numbers per horizon step, so this is far above any honest one
MAX_REPLY_BYTES = 64 * 1024


class ForecastError(GendtError):
    pass


class AllAttemptsFailed(ForecastError):
    """Every attempt of an ensemble failed; an epoch-level failure."""


class BackendUnreachable(ForecastError):
    """Transport failure or retryable status persisted past the retry budget."""


class AuthError(ForecastError):
    """Credential missing or rejected (HTTP 401/403); never retried."""


class ProxyError(ForecastError):
    """A proxy variable that urllib cannot parse; never retried."""


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
            raise ValueError(f"unknown backend kind {shown(self.kind)}, expected one of {BACKEND_KINDS}")
        if self.kind == "llm_http" and not self.endpoint:
            raise ValueError("llm_http backend requires an endpoint URL")
        if self.kind == "llm_http" and not _is_http_url(self.endpoint):
            raise ValueError(f"llm_http endpoint must be an http:// or https:// URL, got {shown(self.endpoint)}")
        if self.kind == "mock_noise" and self.rng_seed is None:
            raise ValueError("mock_noise backend requires rng_seed")
        if self.rng_seed is not None and self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")
        if not self.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {self.timeout_s}")
        if not self.retry_base_delay_s >= 0:
            raise ValueError(f"retry_base_delay_s must be >= 0, got {self.retry_base_delay_s}")
        if not 0 <= self.noise_sigma <= NOISE_SIGMA_MAX:
            raise ValueError(f"noise_sigma must be in [0, {NOISE_SIGMA_MAX:g}], got {self.noise_sigma}")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        try:  # the last backoff sleep, the base delay doubled max_retries - 1 times
            largest = math.ldexp(self.retry_base_delay_s, self.max_retries - 1) * (1 + _JITTER_SPREAD)
        except OverflowError:  # past the float range
            largest = math.inf
        if self.max_retries and not largest <= RETRY_SLEEP_MAX_S:
            raise ValueError(f"retry_base_delay_s {self.retry_base_delay_s} doubled over max_retries "
                             f"{shown(self.max_retries)} sleeps past {RETRY_SLEEP_MAX_S:g} s")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")


@dataclass(frozen=True, eq=False)
class ForecastRequest:
    """One epoch's forecast: the prompt and sampling settings `llm_http`
    sends, and the preprocessed window material the local baselines consume.

    `last_history` is the most recent prior-run series after preprocessing;
    `truth` is the identically preprocessed target series, provided only to
    the oracle backend. `seeds` is the epoch's (attempts, 4) block of
    `noise_seeds` words, which only `mock_noise` reads. The sampling settings
    come from a checked `EnsembleParams`, and `horizon` is the length of the
    decimated `last_history`, which is never empty. A request equals and
    hashes as itself alone, so an `AttemptPool` keys its attempts by it.
    """

    prompt: str
    temperature: float
    top_p: float
    attempts: int
    horizon: int
    encoding: EncodingSpec
    last_history: np.ndarray
    seeds: Optional[np.ndarray] = None
    truth: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ForecastAttempt:
    """The outcome of one `llm_http` attempt; with no failure, its reply was
    decoded into its row of the attempt matrix."""

    index: int
    failure: Optional[DecodeFailure] = None
    raw_text: str = ""
    latency_ms: float = 0.0


def _is_http_url(url: str) -> bool:
    try:
        parts = urllib.parse.urlsplit(url)
    except ValueError:  # a malformed IPv6 host among them
        return False
    return parts.scheme in ("http", "https") and bool(parts.netloc)


@functools.cache
def _tls_context() -> ssl.SSLContext:
    """One context for every HTTPS connection, made at the first one: loading
    the system CA store (or `SSL_CERT_FILE`) takes tens of milliseconds."""
    import ssl

    return ssl.create_default_context()


def _proxy_variable(name: str) -> Optional[str]:
    """`<name>_proxy` as `urllib.request` reads it from the environment, but
    without walking `os.environ`: the lowercase name wins over its uppercase
    form, and empty is unset. `HTTP_PROXY` is ignored when `REQUEST_METHOD` is set, because a
    CGI server sets it from a client's `Proxy:` header. A mixed-case name
    (`Http_Proxy`), which urllib also reads, is not read."""
    value = os.environ.get(f"{name}_proxy")
    if value is None and not (name == "http" and "REQUEST_METHOD" in os.environ):
        value = os.environ.get(f"{name.upper()}_PROXY")
    return value or None


@functools.lru_cache(maxsize=8)
def _opener(proxies: tuple[tuple[str, str], ...]) -> urllib.request.OpenerDirector:
    """An opener through `proxies` with no redirect handler and no error
    processor, so every status, a 3xx among them, comes back as a response."""
    import http.client
    import urllib.request

    class HTTPSHandler(urllib.request.HTTPSHandler):
        def https_open(self, req):
            return self.do_open(http.client.HTTPSConnection, req, context=_tls_context())

    class ProxyHandler(urllib.request.ProxyHandler):
        def proxy_open(self, req, proxy, type):
            try:
                return super().proxy_open(req, proxy, type)
            except ValueError:  # urllib's verdict on the proxy URL, as _proxy_variable read it
                name = f"{type}_proxy" if os.environ.get(f"{type}_proxy") else f"{type.upper()}_PROXY"
                raise ProxyError(f"environment variable {name} is not a proxy URL urllib can parse") from None

    opener = urllib.request.OpenerDirector()
    for handler in (ProxyHandler(dict(proxies)), urllib.request.HTTPHandler(),
                    HTTPSHandler(), urllib.request.UnknownHandler()):
        opener.add_handler(handler)
    return opener


def _post(config: BackendConfig, data: bytes, headers: dict[str, str]) -> http.client.HTTPResponse:
    """One POST on a fresh connection, through the proxy the environment
    names at this moment (`no_proxy` is read per request too, by urllib,
    when a proxy applies)."""
    import urllib.request

    proxies = tuple((scheme, url) for scheme in ("http", "https") if (url := _proxy_variable(scheme)))
    request = urllib.request.Request(config.endpoint, data, headers, method="POST")
    return _opener(proxies).open(request, timeout=config.timeout_s)


def llm_http_call(
    config: BackendConfig, prompt: str, temperature: float, top_p: float,
    stop: Optional[threading.Event] = None,
) -> str:
    """POST one chat-completion request and return the first choice's content.

    Retries transport errors, HTTP 429, and HTTP 5xx with exponential backoff
    (base delay doubling plus jitter) up to max_retries. 401/403 raise
    AuthError immediately, and a proxy variable urllib cannot parse
    ProxyError; other statuses, redirects included, are not retried or
    followed. Once `stop` is set, a backoff sleep ends at once and raises
    BackendUnreachable in place of the next try. The credential is read from
    the environment at call time and never stored or logged; it is sent only
    as the `Bearer` header.
    """
    import http.client
    import urllib.error

    key = os.environ.get(config.api_key_env)
    if not key:
        raise AuthError(f"environment variable {config.api_key_env} is not set")
    data = json.dumps({
        "model": config.model_name,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": temperature,
        "top_p": top_p,
    }).encode()
    headers = {"Authorization": f"Bearer {key}", "Content-Type": "application/json"}
    last_error = "no request made"
    for attempt in range(config.max_retries + 1):
        if attempt:
            delay = math.ldexp(config.retry_base_delay_s, attempt - 1)  # no overflow: checked at load
            pause = delay * (1.0 + _JITTER_SPREAD * random.random())
            if stop is None:
                time.sleep(pause)
            elif stop.wait(pause):
                raise BackendUnreachable(f"stopped after {attempt} calls to {config.endpoint}")
        try:
            with _post(config, data, headers) as resp:
                status = resp.status
                if status in _AUTH_STATUS:
                    raise AuthError(f"endpoint rejected credential (HTTP {status})")
                if status in _RETRYABLE_STATUS or status >= 500:
                    last_error = f"HTTP {status}"
                    log.debug("llm_http retryable status %d (try %d)", status, attempt + 1)
                    continue
                if status != 200:
                    raise BackendUnreachable(f"unexpected HTTP {status} from {config.endpoint}")
                return _extract_content(_read_capped(resp))
        except (OSError, http.client.HTTPException) as exc:  # a body cut short among them
            # a URLError wraps the socket error of a failed connect or send
            cause = exc.reason if isinstance(exc, urllib.error.URLError) else None
            last_error = f"transport error: {type(cause if isinstance(cause, OSError) else exc).__name__}"
            log.debug("llm_http transport error (try %d): %s", attempt + 1, last_error)
    raise BackendUnreachable(
        f"gave up after {config.max_retries + 1} calls to {config.endpoint}: {last_error}"
    )


def _read_capped(resp: http.client.HTTPResponse) -> bytes:
    """The body, read until it ends or exceeds MAX_REPLY_BYTES; one that ends
    short of its Content-Length raises IncompleteRead."""
    import http.client

    body = bytearray()
    while chunk := resp.read(16 * 1024):
        body += chunk
        if len(body) > MAX_REPLY_BYTES:
            raise MalformedResponse(f"response body exceeds {MAX_REPLY_BYTES} bytes")
    if resp.length:  # the bytes still owed; http.client does not raise for them
        raise http.client.IncompleteRead(bytes(body), resp.length)
    return bytes(body)


def _extract_content(body: bytes) -> str:
    data = read_json(body, MalformedResponse, "response body")
    try:
        content = data["choices"][0]["message"]["content"]
    except (KeyError, IndexError, TypeError) as exc:
        raise MalformedResponse("response lacks choices[0].message.content") from exc
    return checked(MalformedResponse, content, STRING, "message content")


# O'Neill's seed_seq hash as numpy's SeedSequence runs it, pool size 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_MASK32 = 0xFFFFFFFF


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n (xor, multiply) constant pairs of a hash_const sequence;
    they do not depend on the data."""
    seq = [init]
    for _ in range(n):
        seq.append(seq[-1] * mult & _MASK32)
    return np.array([seq[:-1], seq[1:]], dtype=np.uint32).T


_GENERATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)


def _words(n: int) -> list[int]:
    """An integer as SeedSequence reads it: little-endian 32-bit words, [0] for 0."""
    if n < 0:
        raise ValueError(f"seed key values must be >= 0, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> 16)


def _seed_state(columns: list[np.ndarray]) -> np.ndarray:
    """`SeedSequence(entropy).generate_state(4, np.uint64)` for many entropies
    of at least 4 words at once: entropy word j is the uint32 array
    `columns[j]`. The columns broadcast against each other, so a word that
    many entropies share is hashed once; the result has a first axis of 4,
    then their broadcast shape."""
    consts = iter(_hash_consts(_INIT_A, _MULT_A, _POOL * len(columns)))
    pool = [_hashmix(word, next(consts)) for word in columns[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if dst != src:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for word in columns[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(consts)))
    state = [_hashmix(pool[i % _POOL], c).astype(np.uint64) for i, c in enumerate(_GENERATE_CONSTS)]
    # little-endian word order, whatever the host's byte order
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])])


def noise_seeds(rng_seed: int, epoch_keys: Sequence[tuple[int, int]], attempts: int) -> np.ndarray:
    """(epochs, attempts, 4) uint64 PCG64 seed words: entry [e, i - 1] is what
    `SeedSequence([rng_seed, run, state, i]).generate_state(4, np.uint64)`
    gives for epoch e's (run, state) key and the 1-based attempt index i.

    Epochs are grouped by how many 32-bit words their key splits into
    (normally one group), and each group is hashed in one pass over
    (1, epochs) key rows broadcast against the (attempts, 1) index column."""
    if attempts > _MASK32:
        raise ValueError(f"attempts must be < 2**32, got {attempts}")
    out = np.empty((len(epoch_keys), attempts, 4), dtype=np.uint64)
    seed = [np.full((1, 1), word, dtype=np.uint32) for word in _words(rng_seed)]
    index = np.arange(1, attempts + 1, dtype=np.uint32)[:, None]
    keys = [_words(run) + _words(state) for run, state in epoch_keys]
    for width in {len(k) for k in keys}:
        rows = [e for e, k in enumerate(keys) if len(k) == width]
        head = np.array([keys[e] for e in rows], dtype=np.uint32)
        out[rows] = _seed_state([*seed, *head.T[:, None], index]).T
    return out


class _SeedRow(ISeedSequence):
    """One precomputed `noise_seeds` row, handed to PCG64 in place of the
    SeedSequence it was hashed from."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _local_matrix(config: BackendConfig, request: ForecastRequest) -> np.ndarray:
    """Every attempt of a local baseline, written into one (attempts, horizon) matrix."""
    oracle = config.kind == "oracle"
    source = request.truth if oracle else request.last_history
    if source is None:
        raise AllAttemptsFailed("oracle backend needs the target series, which is absent")
    if not oracle and len(source) < request.horizon:
        raise AllAttemptsFailed(f"all {request.attempts} attempts failed (short: history series shorter than horizon)")
    n = min(len(source), request.horizon)
    rows = np.empty((request.attempts, request.horizon))
    rows[:, :n] = source[:n]
    rows[:, n:] = source[n - 1]  # the oracle pads with its final value; scoring truncates it away
    if config.kind == "mock_noise":
        if request.seeds is None:
            raise ValueError("mock_noise needs the epoch's attempt seed rows")
        for row, words in zip(rows, request.seeds, strict=True):
            rng = Generator(PCG64(_SeedRow(words)))
            row += rng.normal(0.0, config.noise_sigma, request.horizon)
    return rows


class AttemptPool:
    """The `llm_http` workers of one replay, or of one standalone ensemble:
    at most `max_in_flight` threads, started as attempts arrive and joined
    when the pool closes, which cancels every attempt still queued.

    `queue` hands an epoch's attempts to the workers in index order, behind
    every attempt queued before them, and `collect` awaits them. Once the
    endpoint rejects the credential or a proxy variable cannot be parsed, the
    pool stops: no try starts, whichever epoch it is of, and an epoch that
    lost an attempt to the stop raises that error. Closing the pool stops it
    too, and ends every backoff sleep, so it waits only for the tries in
    flight.
    """

    def __init__(self, config: BackendConfig) -> None:
        self._config = config
        self._executor = ThreadPoolExecutor(config.max_in_flight)
        self._queued: dict[ForecastRequest, tuple[np.ndarray, list[Future]]] = {}
        self._stop = threading.Event()
        self._fatal: Optional[ForecastError] = None  # what set _stop, unless the pool closed

    def __enter__(self) -> "AttemptPool":
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._executor.shutdown(cancel_futures=True)

    def queue(self, request: ForecastRequest) -> None:
        rows = np.empty((request.attempts, request.horizon))
        futures = [self._executor.submit(self._attempt, request, rows, index)
                   for index in range(1, request.attempts + 1)]
        self._queued[request] = (rows, futures)

    def _attempt(self, request: ForecastRequest, rows: np.ndarray, index: int) -> Optional[ForecastAttempt]:
        """One attempt, its decoded reply written into its row of `rows`;
        None when it stopped the pool or, after a stop, did not start."""
        if self._stop.is_set():
            return None
        start = time.perf_counter()
        try:
            text = llm_http_call(self._config, request.prompt, request.temperature, request.top_p, self._stop)
            decoded = decode(text, request.encoding, request.horizon)
        except (AuthError, ProxyError) as exc:
            self._fatal = exc
            self._stop.set()
            return None
        except (BackendUnreachable, MalformedResponse) as exc:
            text, decoded = "", DecodeFailure("backend", index, str(exc))
        failure = decoded if isinstance(decoded, DecodeFailure) else None
        if failure is None:
            rows[index - 1] = decoded
        return ForecastAttempt(index, failure, text, (time.perf_counter() - start) * 1000.0)

    def collect(self, request: ForecastRequest) -> tuple[list[ForecastAttempt], np.ndarray]:
        rows, futures = self._queued.pop(request)
        attempts = [future.result() for future in futures]
        if None in attempts:
            raise self._fatal
        ok = [a.failure is None for a in attempts]
        if not any(ok):
            first = attempts[0].failure
            raise AllAttemptsFailed(f"all {request.attempts} attempts failed ({first.reason}: {first.message})")
        return attempts, rows[ok]


def forecast_ensemble(
    config: BackendConfig, request: ForecastRequest, pool: Optional[AttemptPool] = None
) -> tuple[list[ForecastAttempt], np.ndarray]:
    """Run exactly `request.attempts` independent attempts.

    Returns the outcome of each `llm_http` attempt in index order (none for a
    local baseline) and the successful attempts' values as one (successes,
    horizon) matrix in that order. `llm_http` attempts run on `pool`, a
    replay's, which has them queued, or else on a pool of their own, and each
    reply is decoded into its row. Raises AllAttemptsFailed when no attempt
    succeeded, and AuthError on a rejected or missing credential or
    ProxyError on a proxy variable urllib cannot parse, after which no
    attempt is sent.
    """
    if config.kind != "llm_http":
        return [], _local_matrix(config, request)
    if pool is not None:
        return pool.collect(request)
    with AttemptPool(config) as own:
        own.queue(request)
        return own.collect(request)
