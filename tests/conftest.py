"""Shared fixtures: the synthetic milling fixture, reference configs, random
graph generation, and a scriptable chat-completion stub server (the
benchmark's `bench/chatstub.py`, so that tests and benchmark share one)."""

from __future__ import annotations

import base64
import sys
import threading
import time
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

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
from chatstub import ChatStub, StubRequest, completion  # noqa: E402


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory) -> Path:
    return write_synthetic_fixture(tmp_path_factory.mktemp("fixture") / "milling")


@pytest.fixture(scope="session")
def milling_ptog(fixture_dir) -> Ptog:
    return ingest_fixture(fixture_dir)


def samples_block(values) -> str:
    """A graph file's samples block, written as the README tells a user to."""
    return base64.b64encode(np.asarray(values, "<f8").tobytes()).decode()


def block_values(block: str) -> np.ndarray:
    """The float64 values of a graph file's samples block, in native byte order."""
    return np.frombuffer(base64.b64decode(block), "<f8").astype(np.float64)


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


class StubLlm:
    """Scripted chat-completion endpoint over the benchmark's `ChatStub`;
    records each request's body, Authorization header and arrival time.

    Script entries are (status, payload). String payloads are sent verbatim;
    dict payloads as JSON. When the script is exhausted the last entry repeats.
    """

    completion = staticmethod(completion)

    def __init__(self):
        self.script: list[tuple[int, object]] = []
        self.requests: list[dict] = []
        self._lock = threading.Lock()  # concurrent attempts each take one script entry
        self._stub = ChatStub(self._respond)

    def _respond(self, request: StubRequest) -> tuple[int, object]:
        with self._lock:
            self.requests.append(
                {"time": time.monotonic(), "body": request.body, "auth": request.authorization}
            )
            if not self.script:
                return 200, completion("0.00")
            return self.script[0] if len(self.script) == 1 else self.script.pop(0)

    @property
    def endpoint(self) -> str:
        return self._stub.endpoint

    def __enter__(self) -> "StubLlm":
        self._stub.start()
        return self

    def __exit__(self, *exc):
        self._stub.close()


@pytest.fixture
def stub_llm():
    with StubLlm() as stub:
        yield stub


@pytest.fixture
def api_key_env(monkeypatch):
    monkeypatch.setenv("GENDT_API_KEY", "stub-secret-key-000")
    return "stub-secret-key-000"
