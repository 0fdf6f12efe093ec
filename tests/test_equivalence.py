"""Byte identity of `--reproducible` replay reports and of ingest output.

The report digests below are SHA-256 sums of the report files written by
`gendt replay --reproducible` for the 14-run synthetic fixture (seed 7), with
the persistence test config and a `--backend` override. They were recorded
before each graph vertex was prepared once per replay. The variant digests
cover the replay loop's other paths: per-run health, a halt on Stop, and a
graph whose late P1/P3 vertices carry no series (failed epochs under the
oracle, `no_ground_truth` epochs under persistence, and windows that skip a
run); they were recorded while each epoch still folded its own health. The
two `mock_noise` variants (the sparse graph, and a halt on Stop) were
recorded while each attempt still built its own `default_rng`; they show
that skipped, series-less and halted epochs shift no attempt's stream. The
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
    "persistence": "659680d6d8087e9a78b9490807ffda5f15382644ac8be42fca7e9836fc033e68",
    "mock_noise": "996a5d40feacf3a3fe414837acb0ec2fea3a4ad2e60bfbb8b6f7d3af81223b41",
    "oracle": "931d5c9c1e2c1f9fa01ffeee9abfb4081024d2b6b6334e066dbce96cd85e4bbc",
}

# name -> (graph, backend, thresholds, extra replay arguments, exit code, digest)
VARIANTS = {
    "health_scope_run": (
        "full", "persistence", (0.5, 1.5, 0.5), ["--health-scope", "run"], EXIT_OK,
        "445fc9fc49117fd5217dc59002819006c9d248330b97fc61f215764334b02671",
    ),
    "halt_on_stop": (
        "full", "persistence", (0.2, 0.4, 1.0), ["--halt-on-stop"], EXIT_HALTED,
        "01cb2052379630085a1ae503012f4e99efd51609d6308b552afb14d68b1f048f",
    ),
    "sparse_oracle": (
        "sparse", "oracle", (0.5, 1.5, 3.0), [], EXIT_OK,
        "f2b4b39bfba23bd5c3346bbec94dfa8d39fcc377b3f9737a7a72952c296605fd",
    ),
    "sparse_persistence": (
        "sparse", "persistence", (0.5, 1.5, 3.0), [], EXIT_OK,
        "a99560a7a3704a1c00b945310694fd9fb95689aa9874365a42d227f335c2b4c1",
    ),
    "sparse_mock_noise": (
        "sparse", "mock_noise", (0.5, 1.5, 3.0), [], EXIT_OK,
        "a1c0a5b29418ebe3bf0420cccd410ee574c3789362df6d8452833c861cad04fa",
    ),
    "halt_on_stop_mock_noise": (
        "full", "mock_noise", (0.2, 0.4, 1.0), ["--halt-on-stop"], EXIT_HALTED,
        "46ed749794c6e3bff34ec657e2a8b18bba21bc6228006c97f20f2d4428feb989",
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
    config = root / "cfg.json"
    save_config(make_config("persistence"), config)
    return root, graph, config


@pytest.mark.parametrize("backend", sorted(REPORT_SHA256))
def test_reproducible_report_digest(replay_inputs, backend):
    root, graph, config = replay_inputs
    out = root / f"{backend}.json"
    code = main(
        ["replay", "--ptog", str(graph), "--config", str(config), "--backend", backend,
         "--reproducible", "--out", str(out)]
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
    root, graph, _ = replay_inputs
    kind, backend, thresholds, extra, exit_code, digest = VARIANTS[name]
    if kind == "sparse":
        graph = _sparse_graph(root, graph)
    config = root / f"{name}.json"
    save_config(make_config(backend, thresholds=ControlThresholds(*thresholds)), config)
    out = root / f"{name}.out.json"
    code = main(
        ["replay", "--ptog", str(graph), "--config", str(config), "--reproducible",
         "--out", str(out), *extra]
    )
    assert code == exit_code
    assert _sha256(out) == digest


def test_ingest_digests(replay_inputs):
    root, graph, _ = replay_inputs
    dumped = root / "dump" / "ptog.json"
    code = main(
        ["ingest", "--fixture", str(root / "fixture"), "--out", str(dumped),
         "--workdir", str(root / "dump" / "work")]
    )
    assert code == EXIT_OK
    assert _sha256(graph) == _sha256(dumped) == INGEST_SHA256["ptog.json"]
    for name, digest in INGEST_SHA256.items():
        assert _sha256(root / "dump" / name) == digest
