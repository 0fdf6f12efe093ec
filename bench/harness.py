"""Workloads, passes and metrics of the gendt benchmark.

Every workload repeats one pass, a closed loop from one process:

    gendt ingest  (fixture -> graph file), `ingests` times
    ptog.load_ptog of the written graph, `loads` times
    gendt replay --reproducible of that graph, once

What differs is the fixture size, the backend and the repeat counts, chosen
so that each workload stresses a different layer (see README.md). Cheap steps
repeat so that their medians rest on enough samples. Commands run in-process
through `gendt.cli.main`; the program only sees the generated files.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import io
import json
import os
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from gendt import cli, controller
from gendt import ptog as ptog_mod
from gendt.dataset import STATE_LABELS, write_synthetic_fixture

from chatstub import ChatStub, sequence_responder
from gate import GateError, check_report, graph_digest
from spans import Tracer

DEFAULT_SEED = 7  # the synthetic fixture's own default; the reference digests use it
SETUPS = 3  # set-ups per untraced run; setup_s is their median
ATTEMPTS = 10  # ensemble.attempts in configs/milling.json
LATENCY_S = 0.020  # injected latency of the chat-completion stub
MAX_IN_FLIGHT = 2
SECRET = "bench-dummy-credential-5f1c0d2e"
REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Workload:
    name: str
    runs: int
    backend: str
    attempts_used: int  # successful attempts the gate requires in every epoch
    ingests: int  # per pass
    loads: int  # per pass
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "replay-local",
            200,
            "mock_noise",
            ATTEMPTS,
            3,
            3,
            "588 epochs on mock_noise; CPU-bound in dsp, codec, ensemble and forecast",
        ),
        Workload(
            "replay-remote",
            14,
            "llm_http",
            ATTEMPTS - 1,
            10,
            20,
            "paper-scale 30 epochs x 10 attempts against a 20 ms stub; bound by backend waits",
        ),
        Workload(
            "ingest",
            200,
            "persistence",
            ATTEMPTS,
            3,
            5,
            "200-run write path (600 segment CSVs, manifest, graph) beside the graph load it feeds",
        ),
    )
}


@dataclass
class PassResult:
    ingest_s: list[float]
    load_ms: list[float]
    replay_s: float
    epochs: int
    failed_attempts: int
    graph_bytes: int
    ingest_bytes: int
    wall_s: float

    @property
    def operations(self) -> int:
        """Ingest commands, graph loads and replay commands in the pass."""
        return len(self.ingest_s) + len(self.load_ms) + 1


class Digests:
    """Output digests of a run: every pass must reproduce the first pass and,
    where one applies, the reference."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.seen: dict[str, str] = {}

    def check(self, kind: str, digest: str) -> None:
        expected = self.reference.get(kind)
        if expected is not None and digest != expected:
            raise GateError(f"{kind} digest {digest} differs from the reference {expected}")
        first = self.seen.setdefault(kind, digest)
        if digest != first:
            raise GateError(f"{kind} digest changed between passes: {first} then {digest}")


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _cli(argv: list[str]) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise GateError(f"gendt {argv[0]} exited with {code}: {out.getvalue().strip()}")


class Bench:
    """One workload at one seed, in its own work directory."""

    def __init__(
        self,
        workload: Workload,
        root: Path,
        work: Path,
        fixture_seed: int,
        backend_seed: int,
        runs: Optional[int] = None,
    ):
        self.workload = workload
        self.work = work
        self.fixture_seed = fixture_seed
        self.backend_seed = backend_seed
        self.runs = runs or workload.runs
        self.stub: Optional[ChatStub] = None
        base_config = json.loads((root / "configs" / "milling.json").read_text())
        self.base_config = base_config
        self.epochs = (self.runs - int(base_config["min_history"])) * len(STATE_LABELS)
        reference = json.loads(REFERENCE.read_text()).get(workload.name, {})
        applies = (reference.get("fixture_seed"), reference.get("backend_seed"),
                   reference.get("runs")) == (fixture_seed, backend_seed, self.runs)
        self.digests = Digests(
            {k: reference[k] for k in ("graph", "report")} if applies else {}
        )
        self.run_dir: Optional[Path] = None

    # -- lifetime ----------------------------------------------------------

    def __enter__(self) -> "Bench":
        if self.workload.backend == "llm_http":
            os.environ[self.base_config["backend"]["api_key_env"]] = SECRET
            # the stub is local; an inherited proxy setting must not capture it
            os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
            self.stub = ChatStub(sequence_responder(), latency_s=LATENCY_S).start()
        return self

    def __exit__(self, *exc) -> None:
        if self.stub is not None:
            self.stub.close()

    # -- set-up and passes ------------------------------------------------

    def _write_config(self, path: Path) -> None:
        doc = copy.deepcopy(self.base_config)
        backend = doc["backend"]
        backend["kind"] = self.workload.backend
        backend["rng_seed"] = self.backend_seed
        doc["rng_seed"] = self.backend_seed
        if self.stub is not None:
            backend["endpoint"] = self.stub.endpoint
            backend["max_in_flight"] = MAX_IN_FLIGHT
        path.write_text(json.dumps(doc, indent=2) + "\n")

    def setup(self, index: int) -> float:
        """Generate the fixture and run one warm-up pass; return the wall time."""
        start = time.perf_counter()
        self.run_dir = self.work / f"setup-{index}"
        write_synthetic_fixture(self.run_dir / "fixture", runs=self.runs, seed=self.fixture_seed)
        self._write_config(self.run_dir / "config.json")
        self.run_pass()
        return time.perf_counter() - start

    def run_pass(self) -> PassResult:
        d = self.run_dir
        graph = d / "graph.json"
        report = d / "report.json"
        gc.collect()
        start = time.perf_counter()
        ingest_s = []
        for _ in range(self.workload.ingests):
            t = time.perf_counter()
            _cli(["ingest", "--fixture", str(d / "fixture"), "--out", str(graph),
                  "--workdir", str(d / "ingest")])
            ingest_s.append(time.perf_counter() - t)
        load_ms = []
        for _ in range(self.workload.loads):
            t = time.perf_counter()
            loaded = ptog_mod.load_ptog(graph)
            load_ms.append((time.perf_counter() - t) * 1000.0)
        t = time.perf_counter()
        _cli(["replay", "--ptog", str(graph), "--config", str(d / "config.json"),
              "--out", str(report), "--reproducible"])
        end = time.perf_counter()

        vertices = self.runs * len(STATE_LABELS)
        if loaded.n_vertices != vertices:
            raise GateError(f"graph has {loaded.n_vertices} vertices, expected {vertices}")
        self.digests.check("graph", graph_digest(loaded))
        text = report.read_text()
        self.digests.check(
            "report", check_report(text, self.epochs, self.workload.attempts_used, SECRET)
        )
        return PassResult(
            ingest_s=ingest_s,
            load_ms=load_ms,
            replay_s=end - t,
            epochs=self.epochs,
            # check_report has required exactly attempts_used successes per epoch
            failed_attempts=self.epochs * (ATTEMPTS - self.workload.attempts_used),
            graph_bytes=graph.stat().st_size,
            ingest_bytes=_dir_bytes(d / "ingest"),
            wall_s=end - start,
        )


@contextlib.contextmanager
def epoch_timer(samples: list[float]):
    """Record the wall time of every gendt.controller.run_epoch call, in ms."""
    original = controller.run_epoch

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append((time.perf_counter() - start) * 1000.0)

    controller.run_epoch = timed
    try:
        yield
    finally:
        controller.run_epoch = original


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- untraced run: end-to-end metrics ----------------------------------------


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Set up SETUPS times, then run passes for `seconds`.

    Returns (end-to-end metrics, extra figures for the log and results file).
    """
    setup_s = [bench.setup(i) for i in range(SETUPS)]
    epoch_ms: list[float] = []
    passes: list[PassResult] = []
    start = time.perf_counter()
    with epoch_timer(epoch_ms):
        while not passes or time.perf_counter() - start < seconds:
            passes.append(bench.run_pass())
    replay_s = sum(p.replay_s for p in passes)
    epochs = sum(p.epochs for p in passes)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "epochs_per_s": epochs / replay_s,
        "epoch_p50_ms": float(np.percentile(epoch_ms, 50)),
        "epoch_p90_ms": float(np.percentile(epoch_ms, 90)),
        "graph_load_ms": statistics.median(x for p in passes for x in p.load_ms),
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "ingest_s": statistics.median(x for p in passes for x in p.ingest_s),
        "ops_failed_frac": sum(p.failed_attempts for p in passes) / (epochs * ATTEMPTS),
        "passes": len(passes),
        "operations": sum(p.operations for p in passes),
        "epoch_samples": len(epoch_ms),
        "setups": len(setup_s),
        "measured_s": time.perf_counter() - start,
    }
    if bench.stub is not None:
        ideal_s = epochs * ATTEMPTS * LATENCY_S / MAX_IN_FLIGHT
        extra["wall_over_ideal"] = replay_s / ideal_s
    return metrics, extra


# -- traced run: per-layer metrics -------------------------------------------


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(
    tracer: Tracer, traced: list[PassResult], stub_delta: dict, overhead: float
) -> dict:
    n = len(traced)
    self_time = tracer.self_times()
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    http_ms: list[float] = []
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        self_ms[s.name] = self_ms.get(s.name, 0.0) + self_time[s.id] * 1000.0
        if s.name == "forecast.llm_http_call":
            http_ms.append((s.end - s.start) * 1000.0)

    def c(name: str) -> float:
        return calls.get(name, 0) / n

    def t(name: str) -> float:
        return self_ms.get(name, 0.0) / n

    def total(name: str) -> int:
        return sum(v for (_, k), v in tracer.counts.items() if k == name)

    vertices = sum(len(v) for (_, k), v in tracer.distincts.items() if k == "dsp.preprocess.vertices") / n
    replay_s = sum(p.replay_s for p in traced)
    epochs = sum(p.epochs for p in traced)
    requests = stub_delta.get("requests", 0) / n
    return {
        "windowing.enumerate_epochs.self_ms": t("windowing.enumerate_epochs"),
        "windowing.extract_window.calls": c("windowing.extract_window"),
        "windowing.extract_window.self_ms": t("windowing.extract_window"),
        "dsp.preprocess.calls": c("dsp.preprocess"),
        "dsp.preprocess.self_ms": t("dsp.preprocess"),
        "dsp.preprocess.samples_in": total("dsp.preprocess.samples_in") / n,
        "dsp.preprocess.calls_per_vertex": c("dsp.preprocess") / vertices if vertices else 0.0,
        "codec.encode.calls": c("codec.encode"),
        "codec.encode.self_ms": t("codec.encode"),
        "codec.encode.values": total("codec.encode.values") / n,
        "codec.quantize.calls": c("codec.quantize"),
        "codec.quantize.self_ms": t("codec.quantize"),
        "codec.build_prompt.chars_per_epoch": total("codec.build_prompt.chars") / epochs,
        "codec.decode.calls": c("codec.decode"),
        "codec.decode.self_ms": t("codec.decode"),
        "codec.decode.failures": total("codec.decode.failures") / n,
        "forecast.forecast_ensemble.calls": c("forecast.forecast_ensemble"),
        "forecast.forecast_ensemble.self_ms": t("forecast.forecast_ensemble"),
        "forecast.llm_http_call.calls": c("forecast.llm_http_call"),
        "forecast.llm_http_call.p50_ms": _pct(http_ms, 50),
        "forecast.llm_http_call.p90_ms": _pct(http_ms, 90),
        "forecast.llm_http_call.overhead_ms": (
            statistics.fmean(http_ms) - LATENCY_S * 1000.0 if http_ms else 0.0
        ),
        "forecast.in_flight_mean": sum(http_ms) / 1000.0 / replay_s,
        "stub.requests": requests,
        "stub.connections": stub_delta.get("connections", 0) / n,
        "stub.connections_per_request": (
            stub_delta.get("connections", 0) / stub_delta["requests"] if requests else 0.0
        ),
        "ensemble.aggregate.calls": c("ensemble.aggregate"),
        "ensemble.aggregate.self_ms": t("ensemble.aggregate"),
        "ensemble.rmse.calls": c("ensemble.rmse"),
        "ensemble.rmse.self_ms": t("ensemble.rmse"),
        "ensemble.error_stats.self_ms": t("ensemble.error_stats"),
        "controller.run_epoch.self_ms": t("controller.run_epoch"),
        "controller.control.self_ms": t("controller.decide") + t("controller.accumulate_health"),
        "controller.run_replay.self_ms": t("controller.run_replay"),
        "cli.cmd_replay.self_ms": t("cli.cmd_replay"),
        "ptog.load_ptog.self_ms": t("ptog.load_ptog"),
        "ptog.build_ptog.self_ms": t("ptog.build_ptog"),
        "ptog.save_ptog.self_ms": t("ptog.save_ptog"),
        "ptog.read_samples_csv.calls": c("ptog.read_samples_csv"),
        "ptog.graph_bytes": sum(p.graph_bytes for p in traced) / n,
        "dataset.ingest_fixture.self_ms": t("dataset.ingest_fixture"),
        "dataset.bytes_written": sum(p.ingest_bytes for p in traced) / n,
        "ops_failed_frac": sum(p.failed_attempts for p in traced) / (epochs * ATTEMPTS),
        "tracing_overhead_frac": overhead,
    }


def measure_traced(bench: Bench, seconds: float, spans_path: Path) -> tuple[dict, dict]:
    """One set-up, then untraced and traced passes in turn for `seconds`.

    Per-layer figures are per traced pass; the untraced passes give the base
    of tracing_overhead_frac (median traced pass wall / median untraced - 1).
    """
    bench.setup(0)
    tracer = Tracer()
    plain: list[PassResult] = []
    traced: list[PassResult] = []
    stub_delta = {"requests": 0, "connections": 0}
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(bench.run_pass())
        before = bench.stub.counters() if bench.stub else {}
        tracer.pass_no = len(traced)
        tracer.install()
        try:
            traced.append(bench.run_pass())
        finally:
            tracer.uninstall()
        if bench.stub is not None:
            after = bench.stub.counters()
            for k in stub_delta:
                stub_delta[k] += after[k] - before[k]
    overhead = (
        statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in plain) - 1.0
    )
    metrics = layer_metrics(tracer, traced, stub_delta, overhead)
    extra = {
        "passes": len(traced),
        "untraced_passes": len(plain),
        "operations": sum(p.operations for p in plain + traced),
        "spans": len(tracer.spans),
    }
    tracer.dump(spans_path, {"workload": bench.workload.name, "tracing_overhead_frac": overhead})
    return metrics, extra
