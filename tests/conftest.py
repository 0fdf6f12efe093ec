"""Shared fixtures: the synthetic milling fixture, reference configs, random
graph generation, and a scriptable chat-completion stub server."""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from gendt.config import RunConfig
from gendt.controller import ControlThresholds
from gendt.dataset import ingest_fixture, write_synthetic_fixture
from gendt.dsp import DownsampleSpec, FilterSpec, preprocess
from gendt.forecast import BackendConfig
from gendt.ptog import (
    MeasurementSeries,
    Ptog,
    RunId,
    SensorId,
    StateId,
)


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    return write_synthetic_fixture(tmp_path_factory.mktemp("fixture") / "milling")


@pytest.fixture(scope="session")
def milling_ptog(fixture_dir) -> Ptog:
    return ingest_fixture(fixture_dir)


def lowpass(x, spec: FilterSpec, sample_rate_hz: float) -> np.ndarray:
    """The filter stage alone: `dsp.preprocess` of a one-off series, decimation factor 1."""
    series = MeasurementSeries(RunId(1), StateId(1, "P1"), SENSORS[0], sample_rate_hz, x)
    return preprocess(series, spec, DownsampleSpec(factor=1))


def make_config(backend_kind: str = "persistence", **overrides) -> RunConfig:
    backend = overrides.pop(
        "backend",
        BackendConfig(kind=backend_kind, rng_seed=42),
    )
    thresholds = overrides.pop("thresholds", ControlThresholds(0.5, 1.5, 15.0))
    return RunConfig(backend=backend, thresholds=thresholds, **overrides)


@pytest.fixture
def persistence_config() -> RunConfig:
    return make_config("persistence")


@pytest.fixture
def oracle_config() -> RunConfig:
    return make_config("oracle")


@pytest.fixture
def mock_config() -> RunConfig:
    return make_config("mock_noise")


SENSORS = [SensorId("spindle_current", "A"), SensorId("vibration", "g")]


def make_random_ptog(
    rng: np.random.Generator,
    max_runs: int = 12,
    max_states: int = 5,
    dropout: float = 0.35,
    with_metadata: bool = False,
) -> Ptog:
    """Random graph with state dropout; at least one series is guaranteed."""
    n_runs = int(rng.integers(1, max_runs + 1))
    n_states = int(rng.integers(1, max_states + 1))
    states = [StateId(i + 1, f"P{i + 1}") for i in range(n_states)]
    sensors = {s: SENSORS[i % len(SENSORS)] for i, s in enumerate(states)}
    series = []
    for r in range(1, n_runs + 1):
        for s in states:
            if rng.random() < dropout:
                continue
            n = int(rng.integers(1, 6))
            series.append(
                MeasurementSeries(
                    run=RunId(r),
                    state=s,
                    sensor=sensors[s],
                    sample_rate_hz=float(rng.integers(10, 500)),
                    samples=tuple(rng.normal(0, 1, n).round(4).tolist()),
                )
            )
    if not series:
        series.append(
            MeasurementSeries(
                run=RunId(1),
                state=states[0],
                sensor=sensors[states[0]],
                sample_rate_hz=100.0,
                samples=(1.0, 2.0),
            )
        )
    metadata = None
    if with_metadata:
        metadata = {
            r: {"flank_wear_mm": round(float(rng.random()), 4)}
            for r in {s.run.index for s in series}
            if rng.random() < 0.5
        }
    return Ptog.from_series(series, run_metadata=metadata)


class _StubHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        stub = self.server.stub
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length)) if length else {}
        stub.requests.append(
            {
                "time": time.monotonic(),
                "body": body,
                "auth": self.headers.get("Authorization", ""),
            }
        )
        status, payload = stub.next_response()
        data = payload.encode() if isinstance(payload, str) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):  # silence request logging
        pass


class StubLlm:
    """Scriptable chat-completion endpoint; records request bodies and times.

    Script entries are (status, payload). String payloads are sent verbatim;
    dict payloads as JSON. When the script is exhausted the last entry repeats.
    """

    def __init__(self):
        self.script: list[tuple[int, object]] = []
        self.requests: list[dict] = []
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
        self._server.stub = self
        # a short poll lets shutdown() return promptly at teardown
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )

    @staticmethod
    def completion(content: str) -> dict:
        return {"choices": [{"message": {"role": "assistant", "content": content}}]}

    def next_response(self):
        if not self.script:
            return 200, self.completion("0.00")
        if len(self.script) == 1:
            return self.script[0]
        return self.script.pop(0)

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/v1/chat/completions"

    def __enter__(self) -> "StubLlm":
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def stub_llm():
    with StubLlm() as stub:
        yield stub


@pytest.fixture
def api_key_env(monkeypatch):
    monkeypatch.setenv("GENDT_API_KEY", "stub-secret-key-000")
    return "stub-secret-key-000"
