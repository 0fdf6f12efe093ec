"""Backend behavior: local baselines, the HTTP client's retry discipline, and
ensemble failure policy."""

from __future__ import annotations

import base64
import contextlib
import json
import random
import select
import shutil
import socket
import socketserver
import ssl
import subprocess
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

import numpy as np
import pytest

from conftest import StubLlm
from gendt import forecast
from gendt.codec import DecodeFailure, EncodingSpec
from gendt.ensemble import aggregate
from gendt.forecast import (
    AllAttemptsFailed,
    AuthError,
    BackendConfig,
    BackendUnreachable,
    ForecastRequest,
    MAX_REPLY_BYTES,
    RETRY_SLEEP_MAX_S,
    MalformedResponse,
    forecast_ensemble,
    llm_http_call,
    noise_seeds,
)

ENC = EncodingSpec()


def request(attempts=3, horizon=4, prompt="Sequence: 1.00.", last=(1.0, 2.0, 3.0, 4.0),
            truth=None, seeds=None):
    return ForecastRequest(
        prompt=prompt, temperature=0.7, top_p=1.0, attempts=attempts, horizon=horizon, encoding=ENC,
        last_history=np.array(last), seeds=seeds, truth=None if truth is None else np.array(truth),
    )


def mock_request(cfg, attempts=3, key=(5, 1)):
    """A mock_noise ensemble's request: the seed rows of epoch `key`."""
    return request(attempts=attempts, seeds=noise_seeds(cfg.rng_seed, [key], attempts)[0])


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
    attempts, rows = forecast_ensemble(cfg, request(truth=truth))
    assert rows.tolist() == [list(truth)] * 3
    assert attempts == []  # a local baseline keeps no per-attempt records


def test_oracle_pads_short_truth():
    cfg = BackendConfig(kind="oracle")
    _, rows = forecast_ensemble(cfg, request(horizon=4, truth=(1.0, 2.0)))
    assert rows[0].tolist() == [1.0, 2.0, 2.0, 2.0]


def test_oracle_without_truth_fails():
    cfg = BackendConfig(kind="oracle")
    with pytest.raises(AllAttemptsFailed, match="oracle backend needs the target series"):
        forecast_ensemble(cfg, request(truth=None))


def test_persistence_repeats_last_series():
    cfg = BackendConfig(kind="persistence")
    _, rows = forecast_ensemble(cfg, request(last=(5.0, 6.0, 7.0, 8.0)))
    assert rows.tolist() == [[5.0, 6.0, 7.0, 8.0]] * 3


def test_persistence_truncates_to_horizon():
    cfg = BackendConfig(kind="persistence")
    _, rows = forecast_ensemble(cfg, request(horizon=2, last=(5.0, 6.0, 7.0)))
    assert rows[0].tolist() == [5.0, 6.0]


def test_persistence_short_history_fails():
    cfg = BackendConfig(kind="persistence")
    message = r"all 3 attempts failed \(short: history series shorter than horizon\)"
    with pytest.raises(AllAttemptsFailed, match=message):
        forecast_ensemble(cfg, request(horizon=10, last=(1.0, 2.0)))


def test_mock_noise_is_persistence_plus_seeded_noise():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42, noise_sigma=0.1)
    _, rows = forecast_ensemble(cfg, mock_request(cfg))
    _, again = forecast_ensemble(cfg, mock_request(cfg))
    assert rows.tolist() == again.tolist()  # bitwise reproducible
    base = np.array([1.0, 2.0, 3.0, 4.0])
    for row in rows:
        assert not np.array_equal(row, base)
        assert np.max(np.abs(row - base)) < 1.0


def test_mock_noise_attempts_differ_from_each_other():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42)
    _, rows = forecast_ensemble(cfg, mock_request(cfg, 5))
    assert len({tuple(row) for row in rows.tolist()}) == 5


def test_mock_noise_depends_on_epoch_key():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42)
    _, a = forecast_ensemble(cfg, mock_request(cfg, key=(5, 1)))
    _, b = forecast_ensemble(cfg, mock_request(cfg, key=(5, 2)))
    assert a.tolist() != b.tolist()


def test_mock_noise_without_seed_rows_fails():
    cfg = BackendConfig(kind="mock_noise", rng_seed=42)
    with pytest.raises(ValueError, match="seed rows"):
        forecast_ensemble(cfg, request())


def _random_index(rnd: random.Random) -> int:
    """0, or an integer of 1 to 3 32-bit words."""
    return rnd.getrandbits(rnd.choice([1, 8, 31, 32, 33, 63, 64, 65, 96]))


@pytest.mark.parametrize("rng_seed", [0, 7, 2**32 - 1, 2**32, 2**64, 2**64 + 12345])
def test_noise_seeds_match_seed_sequence(rng_seed):
    """SeedSequence is the oracle, on keys of 4 to 10 entropy words."""
    rnd = random.Random(rng_seed)
    keys = [(1, 1), (0, 0), (2**32, 3), (5, 2**64)]
    keys += [(_random_index(rnd), _random_index(rnd)) for _ in range(60)]
    seeds = noise_seeds(rng_seed, keys, 10)
    assert seeds.shape == (len(keys), 10, 4) and seeds.dtype == np.uint64
    for (run, state), rows in zip(keys, seeds):
        for i, row in enumerate(rows, 1):
            want = np.random.SeedSequence([rng_seed, run, state, i]).generate_state(4, np.uint64)
            assert row.tolist() == want.tolist(), (run, state, i)


def test_noise_seeds_bounds():
    assert noise_seeds(7, [], 10).shape == (0, 10, 4)
    with pytest.raises(ValueError, match="attempts"):
        noise_seeds(7, [], 2**32)
    with pytest.raises(ValueError, match=">= 0"):
        noise_seeds(7, [(1, -1)], 3)


def test_mock_noise_streams_equal_default_rng():
    """Each attempt draws the normal stream of `default_rng([seed, run, state, i])`."""
    cfg = BackendConfig(kind="mock_noise", rng_seed=2**64 + 3, noise_sigma=0.25)
    key = (2**33 + 1, 2)
    _, rows = forecast_ensemble(cfg, mock_request(cfg, 6, key))
    base = np.array([1.0, 2.0, 3.0, 4.0])
    for i, row in enumerate(rows, 1):
        noise = np.random.default_rng([cfg.rng_seed, *key, i]).normal(0.0, 0.25, 4)
        assert row.tolist() == (base + noise).tolist()


def test_mock_requires_seed():
    with pytest.raises(ValueError):
        BackendConfig(kind="mock_noise", rng_seed=None)


def test_permuting_attempts_leaves_median_unchanged():
    cfg = BackendConfig(kind="mock_noise", rng_seed=7)
    _, rows = forecast_ensemble(cfg, mock_request(cfg, 8))
    est = aggregate(rows)
    rng = np.random.default_rng(0)
    est_perm = aggregate(rows[rng.permutation(len(rows))])
    assert est.median.tolist() == est_perm.median.tolist()
    assert est.sd.tolist() == est_perm.sd.tolist()


def test_local_matrix_is_taken_without_a_copy():
    """The local backends write every attempt into one float64 attempt
    matrix, which is returned as it is, with no per-attempt record."""
    cfg = BackendConfig(kind="mock_noise", rng_seed=7)
    attempts, rows = forecast_ensemble(cfg, mock_request(cfg, 4))
    assert rows.shape == (4, 4) and rows.dtype == np.float64
    assert rows.base is None and rows.flags.owndata
    assert attempts == []


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


def test_hostile_replies_are_failed_backend_attempts(stub_llm, api_key_env):
    """A reply nested far deeper than the JSON parser's recursion limit, one
    over MAX_REPLY_BYTES and one that is not JSON each fail one attempt, not
    retried, with reason `backend`; the other attempts go on."""
    oversize = stub_llm.completion(",".join(["1.00"] * (MAX_REPLY_BYTES // 5 + 1)))
    stub_llm.script = [
        (200, "[" * 10_000),
        (200, oversize),
        (200, "this is not json"),
        (200, stub_llm.completion("1.00,2.00,3.00,4.00")),
    ]
    attempts, rows = forecast_ensemble(http_config(stub_llm), request(attempts=4))
    assert [a.failure.reason for a in attempts[:3]] == ["backend"] * 3
    assert "recursion" in attempts[0].failure.message
    assert f"exceeds {MAX_REPLY_BYTES} bytes" in attempts[1].failure.message
    assert "cannot read response body" in attempts[2].failure.message
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0]]
    assert len(stub_llm.requests) == 4


@contextlib.contextmanager
def _serving(do_post, tls: Optional[ssl.SSLContext] = None):
    """A one-off HTTP server on 127.0.0.1 whose handler's `do_POST` is
    `do_post`, HTTPS under `tls`; yields its endpoint, then stops and joins
    its thread."""
    handler = type("Handler", (BaseHTTPRequestHandler,),
                   {"do_POST": do_post, "log_message": lambda self, *args: None})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls is not None:
        server.socket = tls.wrap_socket(server.socket, server_side=True)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        yield f"{'http' if tls is None else 'https'}://{host}:{port}/v1"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_http_body_cut_short_is_a_retried_transport_error(api_key_env):
    """A body shorter than its Content-Length is a transport error, retried,
    and BackendUnreachable once the retries are spent."""
    served = []

    def short_body(handler):
        handler.rfile.read(int(handler.headers["Content-Length"]))
        served.append(handler.path)
        handler.send_response(200)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", "1000")
        handler.end_headers()
        handler.wfile.write(b'{"choices": [')  # then the connection closes

    with _serving(short_body) as endpoint:
        cfg = BackendConfig(kind="llm_http", endpoint=endpoint,
                            max_retries=1, retry_base_delay_s=0.0, timeout_s=5.0)
        with pytest.raises(BackendUnreachable, match="transport error: IncompleteRead"):
            llm_http_call(cfg, "p", 0.7, 1.0)
    assert len(served) == 2


def test_netrc_does_not_replace_the_bearer_credential(stub_llm, api_key_env, tmp_path, monkeypatch):
    """A netrc file naming the endpoint's host is never read: the endpoint
    receives the configured key as `Bearer`, not the file's Basic login."""
    netrc = tmp_path / "netrc"
    netrc.write_text("machine 127.0.0.1 login someone password netrc-pass\n")
    netrc.chmod(0o600)
    monkeypatch.setenv("NETRC", str(netrc))
    assert llm_http_call(http_config(stub_llm), "p", 0.7, 1.0) == "0.00"
    assert [r["auth"] for r in stub_llm.requests] == [f"Bearer {api_key_env}"]


def test_redirect_is_refused_not_followed(stub_llm, api_key_env):
    """A 307 to another endpoint fails the call once, unretried, and the
    redirect's target receives no request."""
    served = []

    def redirect(handler):
        handler.rfile.read(int(handler.headers["Content-Length"]))
        served.append(handler.path)
        handler.send_response(307)
        handler.send_header("Location", stub_llm.endpoint)
        handler.send_header("Content-Length", "0")
        handler.end_headers()

    with _serving(redirect) as endpoint:
        cfg = BackendConfig(kind="llm_http", endpoint=endpoint, max_retries=3, retry_base_delay_s=0.0)
        with pytest.raises(BackendUnreachable, match="unexpected HTTP 307"):
            llm_http_call(cfg, "p", 0.7, 1.0)
    assert len(served) == 1
    assert stub_llm.requests == []


def test_https_certificate_is_checked_against_the_ca_store(api_key_env, tmp_path, monkeypatch):
    """An HTTPS endpoint is trusted only through the CA store: its
    self-signed certificate fails the handshake, retried as a transport
    error, until `SSL_CERT_FILE` names it."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
                    "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)], check=True, capture_output=True, timeout=60)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)

    def reply(handler):
        handler.rfile.read(int(handler.headers["Content-Length"]))
        data = json.dumps(StubLlm.completion("5.00")).encode()
        handler.send_response(200)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    _clear_proxy_env(monkeypatch)
    try:
        with _serving(reply, tls) as endpoint:
            cfg = BackendConfig(kind="llm_http", endpoint=endpoint, max_retries=1, retry_base_delay_s=0.0)
            monkeypatch.delenv("SSL_CERT_FILE", raising=False)
            forecast._tls_context.cache_clear()
            with pytest.raises(BackendUnreachable, match="gave up after 2 calls.*SSLCertVerificationError"):
                llm_http_call(cfg, "p", 0.7, 1.0)
            monkeypatch.setenv("SSL_CERT_FILE", str(cert))
            forecast._tls_context.cache_clear()
            assert llm_http_call(cfg, "p", 0.7, 1.0) == "5.00"
    finally:
        forecast._tls_context.cache_clear()  # the next HTTPS request reads the store again


def _clear_proxy_env(monkeypatch):
    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


def test_http_proxy_from_the_environment(stub_llm, api_key_env, monkeypatch):
    """`http_proxy` routes the request through the proxy it names, read at
    each call; `no_proxy` naming the endpoint's host sends it direct."""
    with StubLlm() as proxy:
        proxy.script = [(200, proxy.completion("9.00"))]
        _clear_proxy_env(monkeypatch)
        monkeypatch.setenv("http_proxy", proxy.endpoint.rsplit("/v1", 1)[0])
        assert llm_http_call(http_config(stub_llm), "p", 0.7, 1.0) == "9.00"
        assert (len(proxy.requests), len(stub_llm.requests)) == (1, 0)
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert llm_http_call(http_config(stub_llm), "p", 0.7, 1.0) == "0.00"
        assert (len(proxy.requests), len(stub_llm.requests)) == (1, 1)


@pytest.mark.parametrize("env", [
    {"http_proxy": "http://low:1", "HTTP_PROXY": "http://up:2", "HTTPS_PROXY": "http://up:3"},
    {"HTTP_PROXY": "http://up:2", "https_proxy": "http://low:3", "NO_PROXY": "example.com"},
    {"http_proxy": "", "HTTP_PROXY": "http://up:2", "no_proxy": "", "NO_PROXY": "x"},
    {"HTTP_PROXY": "http://up:2", "HTTPS_PROXY": "http://up:3", "REQUEST_METHOD": "GET"},
    {"http_proxy": "http://low:1", "REQUEST_METHOD": "GET", "no_proxy": "*"},
    {"all_proxy": "http://all:4", "ALL_PROXY": "http://all:5"},
])
def test_proxy_variables_are_read_as_urllib_reads_them(monkeypatch, env):
    """Each scheme's proxy and `no_proxy` read as `urllib.request.getproxies`
    reads them: the lowercase name wins, empty is unset, and `HTTP_PROXY` is
    ignored under `REQUEST_METHOD`."""
    import urllib.request

    _clear_proxy_env(monkeypatch)
    monkeypatch.delenv("REQUEST_METHOD", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    expected = urllib.request.getproxies_environment()
    for scheme in ("http", "https", "no"):
        assert forecast._proxy_variable(scheme) == expected.get(scheme)


def test_all_proxy_alone_sends_the_request_direct(stub_llm, api_key_env, monkeypatch):
    """`all_proxy`, pointing at a port where nothing listens, is not read:
    the request reaches the endpoint directly."""
    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("all_proxy", "http://127.0.0.1:1")
    monkeypatch.setenv("ALL_PROXY", "http://127.0.0.1:1")
    assert llm_http_call(http_config(stub_llm, max_retries=0), "p", 0.7, 1.0) == "0.00"
    assert len(stub_llm.requests) == 1


@contextlib.contextmanager
def _connect_proxy():
    """A proxy on 127.0.0.1 that serves CONNECT alone, relaying each tunnel
    to its target; yields its address and the head of each CONNECT request
    it received, then stops and joins its thread."""
    heads = []

    class Relay(socketserver.BaseRequestHandler):
        def handle(self):
            head = b""
            while b"\r\n\r\n" not in head:
                chunk = self.request.recv(4096)
                if not chunk:
                    return
                head += chunk
            heads.append(head.decode("latin-1"))
            host, port = head.split(b" ", 2)[1].decode().rsplit(":", 1)
            with socket.create_connection((host, int(port)), timeout=5) as upstream:
                self.request.sendall(b"HTTP/1.1 200 Connection established\r\n\r\n")
                ends = {self.request: upstream, upstream: self.request}
                while True:
                    ready, _, _ = select.select(list(ends), [], [], 5)
                    if not ready:
                        return
                    for sock in ready:
                        data = sock.recv(65536)
                        if not data:
                            return
                        ends[sock].sendall(data)

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Relay)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield "127.0.0.1:%d" % server.server_address[1], heads
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


def test_https_endpoint_through_a_connect_proxy(api_key_env, tmp_path, monkeypatch):
    """`https_proxy` reaches an `https://` endpoint through a CONNECT tunnel:
    the proxy receives the user info of its URL as `Proxy-Authorization:
    Basic`, and the endpoint, behind the tunnel's TLS, does not."""
    if shutil.which("openssl") is None:
        pytest.skip("needs the openssl command to make a certificate")
    cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
    subprocess.run(["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
                    "-nodes", "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
                    "-keyout", str(key), "-out", str(cert)], check=True, capture_output=True, timeout=60)
    tls = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    tls.load_cert_chain(cert, key)
    seen = []

    def reply(handler):
        handler.rfile.read(int(handler.headers["Content-Length"]))
        seen.append(dict(handler.headers))
        data = json.dumps(StubLlm.completion("6.00")).encode()
        handler.send_response(200)
        handler.send_header("Content-Length", str(len(data)))
        handler.end_headers()
        handler.wfile.write(data)

    _clear_proxy_env(monkeypatch)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert))
    forecast._tls_context.cache_clear()
    try:
        with _serving(reply, tls) as endpoint, _connect_proxy() as (proxy, heads):
            monkeypatch.setenv("https_proxy", f"http://someone:p%40ss@{proxy}")
            cfg = BackendConfig(kind="llm_http", endpoint=endpoint, max_retries=0)
            assert llm_http_call(cfg, "p", 0.7, 1.0) == "6.00"
    finally:
        forecast._tls_context.cache_clear()
    (head,) = heads
    host = endpoint.split("/")[2]
    assert head.startswith(f"CONNECT {host} HTTP/")
    assert "Proxy-Authorization: Basic " + base64.b64encode(b"someone:p@ss").decode() in head
    (headers,) = seen
    assert headers["Host"] == host and headers["Authorization"] == f"Bearer {api_key_env}"
    assert "Proxy-Authorization" not in headers


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
    attempts, rows = forecast_ensemble(http_config(stub_llm), request())
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0]] * 3
    assert rows.dtype == np.float64
    assert [a.index for a in attempts] == [1, 2, 3]
    assert all(a.failure is None and a.raw_text == "1.00,2.00,3.00,4.00" for a in attempts)
    assert all(a.latency_ms > 0 for a in attempts)


def test_ensemble_carries_failed_attempts(stub_llm, api_key_env):
    stub_llm.script = [
        (200, stub_llm.completion("1.00,2.00,3.00,4.00")),
        (200, stub_llm.completion("garbage with no numbers")),
        (200, stub_llm.completion("1.00,2.00")),
        (200, stub_llm.completion("5.00,6.00,7.00,8.00,9.00")),
    ]
    attempts, rows = forecast_ensemble(http_config(stub_llm), request(attempts=4))
    # the successes form one rectangular float64 attempt matrix, longer replies truncated
    assert rows.dtype == np.float64
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0]]
    assert attempts[0].failure is None and attempts[3].failure is None
    assert attempts[1].failure.reason == "malformed"
    assert attempts[2].failure == DecodeFailure("short", 2)
    assert attempts[2].raw_text == "1.00,2.00"  # a failed reply keeps its text


def test_ensemble_all_failed_raises(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("no numbers here"))]
    with pytest.raises(AllAttemptsFailed):
        forecast_ensemble(http_config(stub_llm), request())


def test_ensemble_transport_failures_counted_not_dropped(stub_llm, api_key_env):
    stub_llm.script = [
        (200, stub_llm.completion("1.00,2.00,3.00,4.00")),
        (500, {}),
    ]
    cfg = http_config(stub_llm, max_retries=0)
    attempts, rows = forecast_ensemble(cfg, request(attempts=2))
    assert len(rows) == 1
    assert attempts[0].failure is None
    assert attempts[1].failure.reason == "backend"
    assert attempts[1].raw_text == ""


def test_ensemble_parallel_attempts(stub_llm, api_key_env):
    stub_llm.script = [(200, stub_llm.completion("1.00,2.00,3.00,4.00"))]
    cfg = http_config(stub_llm, max_in_flight=4)
    attempts, rows = forecast_ensemble(cfg, request(attempts=8))
    assert [a.index for a in attempts] == list(range(1, 9))
    assert all(a.failure is None for a in attempts)
    assert rows.tolist() == [[1.0, 2.0, 3.0, 4.0]] * 8


@pytest.mark.parametrize("max_in_flight", [1, 2, 4])
def test_rejected_credential_stops_unsent_attempts(stub_llm, api_key_env, max_in_flight):
    """Once the endpoint rejects the credential, no attempt is sent: of 10
    attempts, at most one per worker reaches the endpoint, and the rejection
    itself is raised with its HTTP status."""
    stub_llm.script = [(401, {"error": "revoked"})]
    cfg = http_config(stub_llm, max_in_flight=max_in_flight)
    with pytest.raises(AuthError, match=r"rejected credential \(HTTP 401\)"):
        forecast_ensemble(cfg, request(attempts=10))
    assert 1 <= len(stub_llm.requests) <= max_in_flight


def test_backoff_of_many_retries_does_not_overflow(monkeypatch, api_key_env):
    """A zero base delay doubles to zero however many retries there are; the
    delay is never computed as an integer power that overflows a float."""
    sleeps = []
    monkeypatch.setattr("gendt.forecast.time.sleep", sleeps.append)

    def refuse(*args, **kwargs):
        raise ConnectionRefusedError("refused")

    monkeypatch.setattr("gendt.forecast._post", refuse)
    cfg = BackendConfig(kind="llm_http", endpoint="http://127.0.0.1:9/v1",
                        max_retries=1100, retry_base_delay_s=0.0)
    with pytest.raises(BackendUnreachable, match="gave up after 1101 calls"):
        llm_http_call(cfg, "p", 0.7, 1.0)
    assert sleeps == [0.0] * 1100


@pytest.mark.parametrize(
    "base, retries, ok",
    [
        (RETRY_SLEEP_MAX_S / 1.25, 1, True),  # the largest jittered sleep is the bound itself
        (RETRY_SLEEP_MAX_S / 1.25, 2, False),
        (1e10, 3, False),
        (1e10, 0, True),  # no retry, no sleep
        (1.0, 30, True),
        (1.0, 31, False),
        (5e-324, 1200, False),
        (1.0, 10**30, False),  # past the float range
        (0.0, 10**30, True),
    ],
)
def test_backoff_bound(base, retries, ok):
    """Every backoff sleep, jitter included, stays within RETRY_SLEEP_MAX_S,
    the range time.sleep accepts; a config past it is rejected at load."""
    fields = dict(kind="persistence", retry_base_delay_s=base, max_retries=retries)
    if ok:
        BackendConfig(**fields)
    else:
        with pytest.raises(ValueError, match="retry_base_delay_s"):
            BackendConfig(**fields)


def test_no_credential_in_attempt_failures(stub_llm, api_key_env):
    stub_llm.script = [(500, {})]
    cfg = http_config(stub_llm, max_retries=0)
    try:
        forecast_ensemble(cfg, request())
    except AllAttemptsFailed as exc:
        assert api_key_env not in str(exc)


def test_backend_config_validation():
    with pytest.raises(ValueError):
        BackendConfig(kind="nonsense")
    with pytest.raises(ValueError):
        BackendConfig(kind="llm_http")  # endpoint required
    # an http:// or https:// URL with a host; urllib would raise a bare ValueError at the first call
    for endpoint in ("127.0.0.1:9/v1", "localhost:8080/v1", "ftp://127.0.0.1/v1", "http://[::1/v1",
                     "http:///v1"):
        with pytest.raises(ValueError, match="endpoint must be an http"):
            BackendConfig(kind="llm_http", endpoint=endpoint)
    BackendConfig(kind="llm_http", endpoint="https://api.example.com/v1/chat/completions")


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
