"""Byte identity of `--reproducible` replay reports and of ingest output.

The report digests below are SHA-256 sums of the report files written by
`gendt replay --reproducible` for the 14-run synthetic fixture (seed 7), with
the test config and its backend kind set per case. The variant digests
cover the replay loop's other paths: per-run health, a halt on Stop, and a
graph whose late P1/P3 vertices carry no series (failed epochs under the
oracle, `no_ground_truth` epochs under persistence, and windows that skip a
run). The two `mock_noise` variants (the sparse graph, and a halt on Stop)
show that skipped, series-less and halted epochs shift no attempt's stream.
Each report digest was first recorded before the restructuring it guards
(each vertex prepared once per replay, health folded once per replay, every
seed hashed in one pass), and all were recorded again, with no other byte
changed, when the report's `config` lost its top-level `rng_seed`. The
ingest digests are SHA-256 sums of the graph file written by `gendt ingest`
for the same fixture and of the `--workdir` dump (manifest and one segment
CSV); they were recorded while ingest still re-read its segment dump to build
the graph. Every change that only restructures the engine must keep them. A
change that alters an output on purpose records new digests and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from conftest import make_config
from gendt.cli import EXIT_HALTED, EXIT_OK, main
from gendt.config import save_config
from gendt.controller import ControlThresholds
from gendt.dataset import write_synthetic_fixture

REPORT_SHA256 = {
    "persistence": "2ad31c7d4e3a6061b37971b5db828e4ce86cf17321c4ae89817e55273f05b498",
    "mock_noise": "374230929f84c9d30e1287823b0571bd5afe89aa4dcc312d7ec1c7d42e88a983",
    "oracle": "c9ce47f5f2f03935c1931c63522010247eb90afdd987eb70081bd5b0db61d3d2",
}

# name -> (graph, backend, thresholds, other config fields, exit code, digest)
VARIANTS = {
    "health_scope_run": (
        "full", "persistence", (0.5, 1.5, 0.5), {"health_scope": "run"}, EXIT_OK,
        "7b29dba52b04def514f35553ae711075e5c280b63ca625f69e45e3e4dfbad6e2",
    ),
    "halt_on_stop": (
        "full", "persistence", (0.2, 0.4, 1.0), {"halt_on_stop": True}, EXIT_HALTED,
        "8d02b12c3a6266cf65d4636a571a40d87d7448fe367b7c4665b8bd944e88d94c",
    ),
    "sparse_oracle": (
        "sparse", "oracle", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "6db0f52b2850fee6a7a12fab1b1952b95275c7070a67d836e989559ad40fb0ed",
    ),
    "sparse_persistence": (
        "sparse", "persistence", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "b39dea09701022569300b6b40bd393c18ca899b1971a7f4508f7fab50dfdeddc",
    ),
    "sparse_mock_noise": (
        "sparse", "mock_noise", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "73e51cfc15cf4c66fc0e2df0b95815576cb0ee9e77661d49c422de2af54f6d6b",
    ),
    "halt_on_stop_mock_noise": (
        "full", "mock_noise", (0.2, 0.4, 1.0), {"halt_on_stop": True}, EXIT_HALTED,
        "862d3e363b982cb4044053061ea090fd7d5de14ac5a93f1f06b176f75876dfef",
    ),
}

# (run, state index) vertices whose series the sparse graph declares series-less
SPARSE_VERTICES = [[10, 1], [12, 1], [13, 3], [14, 1], [14, 3]]

INGEST_SHA256 = {
    "ptog.json": "053d789313871f4589e5c069e22ee5fb99811e8a5d13ea39243b0c5c9e2e1906",
    "work/manifest.json": "f3c6f1925af5497ced15ff6f071e9d0b500151b1a6560b75d51459579b4ad644",
    "work/segments/run_1_P2.csv": "5844c52515da5e62fbddf39cf29db38e64eba6b589818d845ea67cceee25d534",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def replay_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("equivalence")
    fixture = write_synthetic_fixture(root / "fixture")
    graph = root / "ptog.json"
    assert main(["ingest", "--fixture", str(fixture), "--out", str(graph)]) == EXIT_OK
    return root, graph


@pytest.mark.parametrize("backend", sorted(REPORT_SHA256))
def test_reproducible_report_digest(replay_inputs, backend):
    root, graph = replay_inputs
    config = root / f"{backend}.cfg.json"
    save_config(make_config(backend), config)
    out = root / f"{backend}.json"
    code = main(
        ["replay", "--ptog", str(graph), "--config", str(config), "--reproducible",
         "--out", str(out)]
    )
    assert code == EXIT_OK
    assert _sha256(out) == REPORT_SHA256[backend]


def _sparse_graph(root, graph):
    """The ingested graph with SPARSE_VERTICES moved to `extra_vertices`."""
    doc = json.loads(graph.read_text())
    moved = [e for e in doc["series"] if [e["run"], e["state"]] in SPARSE_VERTICES]
    assert len(moved) == len(SPARSE_VERTICES)
    doc["series"] = [e for e in doc["series"] if e not in moved]
    doc["extra_vertices"] = sorted(doc["extra_vertices"] + SPARSE_VERTICES)
    sparse = root / "sparse.json"
    sparse.write_text(json.dumps(doc))
    return sparse


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_replay_variant_digest(replay_inputs, name):
    root, graph = replay_inputs
    kind, backend, thresholds, fields, exit_code, digest = VARIANTS[name]
    if kind == "sparse":
        graph = _sparse_graph(root, graph)
    config = root / f"{name}.json"
    save_config(make_config(backend, thresholds=ControlThresholds(*thresholds), **fields), config)
    out = root / f"{name}.out.json"
    code = main(
        ["replay", "--ptog", str(graph), "--config", str(config), "--reproducible",
         "--out", str(out)]
    )
    assert code == exit_code
    assert _sha256(out) == digest


def test_ingest_digests(replay_inputs):
    root, graph = replay_inputs
    dumped = root / "dump" / "ptog.json"
    code = main(
        ["ingest", "--fixture", str(root / "fixture"), "--out", str(dumped),
         "--workdir", str(root / "dump" / "work")]
    )
    assert code == EXIT_OK
    assert _sha256(graph) == _sha256(dumped) == INGEST_SHA256["ptog.json"]
    for name, digest in INGEST_SHA256.items():
        assert _sha256(root / "dump" / name) == digest
