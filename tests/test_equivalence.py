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
changed, when the report's `config` lost its top-level `rng_seed`, and once
more when the report took one line per epoch record (each new report parsed
equal to the old one, and every epoch is now scored in batches). The
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
    "persistence": "1bb6e1cb8b3bf6ee3d8f4d3b4d82edc9aff8e9c6dfbe0e2974e53a2cfde1455e",
    "mock_noise": "21ac101fbe59a87d4c69095d1da7747e6b0a2554a1967b3f2bc0800bc6de61a7",
    "oracle": "86d0918478a96238c83b757a3c4f9998a7ebcc9fbd93c264fd1008a10aeff276",
}

# name -> (graph, backend, thresholds, other config fields, exit code, digest)
VARIANTS = {
    "health_scope_run": (
        "full", "persistence", (0.5, 1.5, 0.5), {"health_scope": "run"}, EXIT_OK,
        "2c773f735b5386a46f4032276316e3c8652de0663db34c228016a537d45b7116",
    ),
    "halt_on_stop": (
        "full", "persistence", (0.2, 0.4, 1.0), {"halt_on_stop": True}, EXIT_HALTED,
        "c3cbf27aff26eb842ba4da27c7c4baf7b37c6a34cc9565baa0e9a934d5f4c784",
    ),
    "sparse_oracle": (
        "sparse", "oracle", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "49f3845da777d291067b2b292ef1969688389111df913c6b51d76b4be65010b3",
    ),
    "sparse_persistence": (
        "sparse", "persistence", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "efec0317d01b17cdc7fd1e63f413eb52ecc29148c222f477113e242053021472",
    ),
    "sparse_mock_noise": (
        "sparse", "mock_noise", (0.5, 1.5, 3.0), {}, EXIT_OK,
        "128e1dd3144e1a822226ba3d97ed14e850cfd70030cc9f27b1d6f2a017d46843",
    ),
    "halt_on_stop_mock_noise": (
        "full", "mock_noise", (0.2, 0.4, 1.0), {"halt_on_stop": True}, EXIT_HALTED,
        "dcdfd98d9c75a9cdc759440abdab8c96d40f276450ccb7bd0e72812237985731",
    ),
}

# (run, state index) vertices whose series the sparse graph declares series-less
SPARSE_VERTICES = [[10, 1], [12, 1], [13, 3], [14, 1], [14, 3]]

INGEST_SHA256 = {
    "ptog.json": "da1877b55e111f94539e37dcbc3b88e03fd18a27a2732d333ad994a81655b332",
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
