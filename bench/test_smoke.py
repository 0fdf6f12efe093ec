"""Smoke test of the benchmark at a tiny fixture size.

    python3 -m pytest bench -q

Checks that every metric BENCHMARK.json names is printed with its unit, in
both modes and for every workload, that the correctness gate rejects a report
with one perturbed `median` value, and the stub's replies and counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
import requests

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from chatstub import PROSE_REPLY, ChatStub, sequence_responder  # noqa: E402
from gate import check_report  # noqa: E402
from gendt import cli  # noqa: E402
from gendt.dataset import write_synthetic_fixture  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_RUNS = 5  # four history runs and one epoch run: 3 epochs


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--runs", str(TINY_RUNS)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for m in expected:
        assert f"{m['name']} " in out.stdout  # the human-readable table too
        if not trace:
            assert result["metrics"][m["name"]]["value"] > 0


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "ingest", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""


def _replay_report(tmp_path: Path) -> Path:
    fixture = write_synthetic_fixture(tmp_path / "fixture", runs=TINY_RUNS, seed=3)
    graph, report = tmp_path / "graph.json", tmp_path / "report.json"
    assert cli.main(["ingest", "--fixture", str(fixture), "--out", str(graph)]) == 0
    assert cli.main(["replay", "--ptog", str(graph), "--config", str(ROOT / "configs" / "milling.json"),
                     "--backend", "mock_noise", "--out", str(report), "--reproducible"]) == 0
    return report


def _gate(report: Path, digest: str) -> int:
    cmd = [sys.executable, str(BENCH / "gate.py"), str(report), "--expect", digest,
           "--epochs", "3", "--attempts", "10", "--secret", "not-in-any-report"]
    return subprocess.run(cmd, capture_output=True, timeout=60).returncode


def test_gate_rejects_one_perturbed_median(tmp_path):
    report = _replay_report(tmp_path)
    digest = check_report(report.read_text(), epochs=3, attempts_used=10)
    assert _gate(report, digest) == 0

    doc = json.loads(report.read_text())
    doc["epochs"][1]["median"][0] += 0.01
    perturbed = tmp_path / "perturbed.json"
    perturbed.write_text(json.dumps(doc))
    assert _gate(perturbed, digest) == 1


def test_gate_ignores_timings_and_rejects_the_credential(tmp_path):
    report = _replay_report(tmp_path)
    digest = check_report(report.read_text(), epochs=3, attempts_used=10)
    doc = json.loads(report.read_text())
    for record in doc["epochs"]:
        record["timing"] = 12.5
    retimed = tmp_path / "retimed.json"
    retimed.write_text(json.dumps(doc))
    assert _gate(retimed, digest) == 0

    doc["epochs"][0]["flags"].append("not-in-any-report")
    leaked = tmp_path / "leaked.json"
    leaked.write_text(json.dumps(doc))
    assert _gate(leaked, digest) == 1


def test_stub_replies_depend_only_on_prompt_and_count(monkeypatch):
    monkeypatch.setenv("NO_PROXY", "127.0.0.1")
    prompt = "Continue. Sequence: 1.00,2.50,-3.25."
    body = {"messages": [{"role": "user", "content": prompt}]}

    def content(resp):
        return resp.json()["choices"][0]["message"]["content"]

    with ChatStub(sequence_responder(length=4), latency_s=0.001) as stub:
        replies = [content(requests.post(stub.endpoint, json=body, timeout=10)) for _ in range(10)]
        with requests.Session() as session:  # one kept-alive connection
            replies += [content(session.post(stub.endpoint, json=body, timeout=10)) for _ in range(10)]
        counters = stub.counters()
    assert replies[:10] == replies[10:]
    assert replies[0] == "-3.25,-3.25,-3.25,-3.25"
    assert replies[8] == "-3.17,-3.17,-3.17,-3.17"
    assert replies[9] == PROSE_REPLY
    assert counters == {"requests": 20, "connections": 11}
