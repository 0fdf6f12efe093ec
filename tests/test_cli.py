"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gendt.cli import EXIT_CONFIG, EXIT_HALTED, EXIT_INPUT, EXIT_OK, main
from gendt.config import save_config
from conftest import make_config


@pytest.fixture(scope="module")
def cli_env(tmp_path_factory):
    """Fixture dir, ingested graph, and a persistence config on disk."""
    from gendt.dataset import write_synthetic_fixture

    root = tmp_path_factory.mktemp("cli")
    fixture = write_synthetic_fixture(root / "fixture")
    ptog_path = root / "out" / "ptog.json"
    assert main(["ingest", "--fixture", str(fixture), "--out", str(ptog_path)]) == EXIT_OK
    config_path = root / "cfg.json"
    save_config(make_config("persistence"), config_path)
    return {"root": root, "fixture": fixture, "ptog": ptog_path, "config": config_path}


def test_ingest_counts(cli_env, capsys):
    assert main(
        ["ingest", "--fixture", str(cli_env["fixture"]), "--out", str(cli_env["root"] / "again.json")]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "42 vertices" in out and "42 series" in out


def test_ingest_missing_fixture(tmp_path):
    assert main(["ingest", "--fixture", str(tmp_path / "absent"), "--out", "x.json"]) == EXIT_INPUT


def test_ingest_dry_run(cli_env, capsys):
    before = set(p.name for p in cli_env["root"].iterdir())
    assert main(["ingest", "--fixture", str(cli_env["fixture"]), "--dry-run"]) == EXIT_OK
    assert "dry run ok" in capsys.readouterr().out
    assert set(p.name for p in cli_env["root"].iterdir()) == before


def test_replay_persistence(cli_env, capsys):
    out = cli_env["root"] / "report.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["epochs"]) == 30
    assert doc["summary"]["session"]["health"] == "Pass"
    assert doc["config"]["backend"]["kind"] == "persistence"


def test_replay_oracle_override(cli_env):
    out = cli_env["root"] / "report_oracle.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--backend", "oracle", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(e["q_rmse"] == 0.0 for e in doc["epochs"])


def test_replay_llm_without_credential(cli_env, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("GENDT_API_KEY", raising=False)
    config_path = tmp_path / "llm.json"
    save_config(
        make_config(
            backend=__import__("gendt.forecast", fromlist=["BackendConfig"]).BackendConfig(
                kind="llm_http", endpoint="http://127.0.0.1:9/llm"
            )
        ),
        config_path,
    )
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path), "--out", "x.json"]
    )
    assert code == EXIT_CONFIG
    assert "GENDT_API_KEY" in capsys.readouterr().err


def test_replay_reproducible_byte_identical(cli_env):
    paths = [cli_env["root"] / f"rep{i}.json" for i in (1, 2)]
    for p in paths:
        code = main(
            ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
             "--backend", "mock_noise", "--reproducible", "--out", str(p)]
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_replay_halt_on_stop(cli_env, tmp_path):
    from gendt.controller import ControlThresholds

    config_path = tmp_path / "eager.json"
    save_config(
        make_config("persistence", thresholds=ControlThresholds(0.001, 0.002, 15.0)),
        config_path,
    )
    out = tmp_path / "halted.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--halt-on-stop", "--out", str(out)]
    )
    assert code == EXIT_HALTED
    doc = json.loads(out.read_text())
    assert doc["halted"] is True
    assert doc["epochs"][-1]["decision"] == "Stop"


def test_replay_missing_ptog(cli_env):
    code = main(
        ["replay", "--ptog", "nowhere.json", "--config", str(cli_env["config"]), "--out", "x.json"]
    )
    assert code == EXIT_INPUT


def test_replay_bad_config(cli_env, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(bad), "--out", "x.json"])
    assert code == EXIT_CONFIG


def test_forecast_prints_median_vector(cli_env, capsys):
    code = main(
        ["forecast", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--run", "7", "--state", "P1"]
    )
    assert code == EXIT_OK
    line = capsys.readouterr().out.strip()
    values = [float(tok) for tok in line.split(",")]
    assert len(values) >= 3
    assert all(round(v, 2) == v for v in values)  # printed at wire precision


def test_forecast_unknown_vertex(cli_env):
    code = main(
        ["forecast", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--run", "99", "--state", "P1"]
    )
    assert code == EXIT_INPUT


def test_report_artifacts(cli_env, tmp_path, capsys):
    report = cli_env["root"] / "report.json"
    if not report.exists():
        main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
              "--out", str(report)])
    out_dir = tmp_path / "artifacts"
    code = main(["report", "--report", str(report), "--out-dir", str(out_dir)])
    assert code == EXIT_OK
    csv_path = out_dir / "per_run_errors.csv"
    assert csv_path.exists()
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "run,flank_wear_mm,err_avg,err_std"
    assert len(rows) == 1 + 10  # header + runs 5..14
    assert (out_dir / "rmse_boxplot.svg").exists()
    overlays = sorted(out_dir.glob("overlay_run*.svg"))
    assert len(overlays) == 30


def test_replay_llm_http_end_to_end(cli_env, tmp_path, stub_llm, api_key_env):
    """Full replay through the HTTP backend: the stub returns a long constant
    sequence that every epoch truncates to its own horizon; the credential
    never reaches the report."""
    from gendt.forecast import BackendConfig

    stub_llm.script = [(200, stub_llm.completion(",".join(["1.00"] * 600)))]
    config_path = tmp_path / "llm.json"
    save_config(
        make_config(
            backend=BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0),
        ),
        config_path,
    )
    out = tmp_path / "llm_report.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["summary"]["session"]["evaluated"] == 30
    assert all(e["attempts_used"] == 10 for e in doc["epochs"])
    assert all(set(e["median"]) == {1.0} for e in doc["epochs"])
    assert doc["resolved"]["temperature"] == 1.0  # gpt-4 profile
    assert api_key_env not in out.read_text()
    assert len(stub_llm.requests) == 300  # 30 epochs x 10 attempts, no retries
    prompt = stub_llm.requests[0]["body"]["messages"][0]["content"]
    assert prompt.startswith("You are a helpful assistant")
    assert "Sequence: " in prompt


def test_replay_rejected_credential_exits_config(cli_env, tmp_path, stub_llm, api_key_env):
    from gendt.forecast import BackendConfig

    stub_llm.script = [(401, {"error": "revoked"})]
    config_path = tmp_path / "llm.json"
    save_config(
        make_config(backend=BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint)),
        config_path,
    )
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path), "--out", "x.json"]
    )
    assert code == EXIT_CONFIG


def test_report_missing_file(tmp_path):
    assert main(["report", "--report", str(tmp_path / "no.json"), "--out-dir", str(tmp_path)]) == EXIT_INPUT


def test_report_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    assert main(["report", "--report", str(bad), "--out-dir", str(tmp_path)]) == EXIT_INPUT


def _replay_report_doc(cli_env) -> dict:
    report = cli_env["root"] / "report.json"
    if not report.exists():
        main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
              "--out", str(report)])
    return json.loads(report.read_text())


def _break_per_run_row(doc):
    del doc["summary"]["per_run"][0]["run"]


def _break_median(doc):
    doc["epochs"][0]["median"] = "1.0,2.0"


def _break_run(doc):
    doc["epochs"][0]["run"] = "5"


def _break_sd(doc):
    doc["epochs"][0]["sd"] = []


def _huge_median_value(doc):
    doc["epochs"][0]["median"][0] = 10**400


@pytest.mark.parametrize(
    "mutate", [_break_per_run_row, _break_median, _break_run, _break_sd, _huge_median_value]
)
def test_report_malformed_document_exits_input(cli_env, tmp_path, capsys, mutate):
    """A report document that parses but lacks or mistypes a field the views
    read exits 2 with one error line, not a traceback."""
    doc = _replay_report_doc(cli_env)
    mutate(doc)
    bad = tmp_path / "bad_report.json"
    bad.write_text(json.dumps(doc))
    code = main(["report", "--report", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert len(_error_lines(capsys.readouterr().err)) == 1


def _graph_as_list(doc):
    return [doc]


def _metadata_as_list(doc):
    doc["runs"][0]["metadata"] = [["flank_wear_mm", 0.1]]
    return doc


def _nested_samples(doc):
    doc["series"][0]["samples"] = [doc["series"][0]["samples"][:2]]
    return doc


@pytest.mark.parametrize("mutate", [_graph_as_list, _metadata_as_list, _nested_samples])
def test_replay_malformed_graph_document_exits_input(cli_env, tmp_path, capsys, mutate):
    """A graph file of the wrong shape exits 2 with one error line, not a traceback."""
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(mutate(json.loads(cli_env["ptog"].read_text()))))
    code = main(
        ["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "cannot load graph" in line
    assert not (tmp_path / "x.json").exists()


def _error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("value", ["-1", "0"])
def test_replay_bad_max_in_flight_exits_config(cli_env, tmp_path, capsys, value):
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--max-in-flight", value, "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_CONFIG
    assert len(_error_lines(capsys.readouterr().err)) == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "template",
    [None, "no placeholder here", "<ENCODED TOKENIZED STRING> twice <ENCODED TOKENIZED STRING>"],
)
@pytest.mark.parametrize("command", ["replay", "forecast"])
def test_bad_prompt_template_exits_config(cli_env, tmp_path, capsys, template, command):
    path = tmp_path / "template.txt"
    if template is not None:
        path.write_text(template)
    config_path = tmp_path / "cfg.json"
    save_config(make_config("persistence", prompt_template_path=str(path)), config_path)
    args = ["--run", "7", "--state", "P1"] if command == "forecast" else ["--out", str(tmp_path / "x.json")]
    code = main([command, "--ptog", str(cli_env["ptog"]), "--config", str(config_path), *args])
    assert code == EXIT_CONFIG
    assert len(_error_lines(capsys.readouterr().err)) == 1


def test_replay_reads_prompt_template_once(cli_env, tmp_path, monkeypatch):
    from pathlib import Path

    path = tmp_path / "template.txt"
    path.write_text("Continue: <ENCODED TOKENIZED STRING>")
    config_path = tmp_path / "cfg.json"
    save_config(make_config("persistence", prompt_template_path=str(path)), config_path)
    reads = []
    read_text = Path.read_text

    def counting_read_text(self, *args, **kwargs):
        if self == path:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting_read_text)
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_OK
    assert len(reads) == 1


def _broken_fixture(cli_env, tmp_path):
    import shutil

    return shutil.copytree(cli_env["fixture"], tmp_path / "fixture")


def test_ingest_non_numeric_sample_exits_input(cli_env, tmp_path, capsys):
    fixture = _broken_fixture(cli_env, tmp_path)
    csv_path = fixture / "run_2.csv"
    lines = csv_path.read_text().splitlines()
    lines[9] = "n/a"
    csv_path.write_text("\n".join(lines) + "\n")
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "run_2.csv:10:" in line


def test_ingest_meta_without_sample_rate_exits_input(cli_env, tmp_path, capsys):
    fixture = _broken_fixture(cli_env, tmp_path)
    meta_path = fixture / "fixture.json"
    meta = json.loads(meta_path.read_text())
    del meta["sample_rate_hz"]
    meta_path.write_text(json.dumps(meta))
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "sample_rate_hz" in line


def test_ingest_without_workdir_writes_only_the_graph(cli_env, tmp_path, capsys):
    out = tmp_path / "out" / "g.json"
    assert main(["ingest", "--fixture", str(cli_env["fixture"]), "--out", str(out)]) == EXIT_OK
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "out", "out/g.json"
    ]
    assert "manifest" not in capsys.readouterr().out


def test_ingest_stray_run_file_exits_input(cli_env, tmp_path, capsys):
    fixture = _broken_fixture(cli_env, tmp_path)
    meta_path = fixture / "fixture.json"
    meta = json.loads(meta_path.read_text())
    del meta["boundaries"]
    meta.update(entry_threshold=1.0, exit_threshold=0.5)
    meta_path.write_text(json.dumps(meta))
    (fixture / "run_old.csv").write_text("1.0\n")
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "run_old.csv" in line
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize(
    "section, params",
    [
        ("filter", {"order": 0}),
        ("downsample", {"factor": 0}),
        ("ensemble", {"attempts": 0}),
        ("ensemble", {"top_p": 0}),
        ("ensemble", {"temperature": -1}),
    ],
)
def test_replay_out_of_range_dsp_config_exits_config(cli_env, tmp_path, capsys, section, params):
    doc = make_config("persistence").to_dict()
    doc[section] = params
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_CONFIG
    assert len(_error_lines(capsys.readouterr().err)) == 1
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("cutoff_hz", [125.0, 400.0])
def test_replay_cutoff_at_or_above_nyquist_exits_input(cli_env, tmp_path, capsys, cutoff_hz):
    # the synthetic fixture is sampled at 250 Hz; the config alone cannot know that
    doc = make_config("persistence").to_dict()
    doc["filter"]["cutoff_hz"] = cutoff_hz
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "cutoff_hz" in line and "125.0 Hz" in line
    assert not (tmp_path / "x.json").exists()


def test_replay_graph_with_duplicated_state_index_exits_input(cli_env, tmp_path, capsys):
    doc = json.loads(cli_env["ptog"].read_text())
    doc["states"].append(dict(doc["states"][0], label="P9"))
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "state index 1" in line


def test_replay_graph_with_duplicated_state_label_exits_input(cli_env, tmp_path, capsys):
    doc = json.loads(cli_env["ptog"].read_text())
    doc["states"].append(dict(doc["states"][0], index=9))
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "state label 'P1'" in line


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m gendt.cli ARGS` in a fresh interpreter, with src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gendt.cli", *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )


def test_module_entry_point(tmp_path):
    version = _run_module("--version")
    assert version.returncode == EXIT_OK
    assert version.stdout.startswith("gendt ")
    absent = tmp_path / "absent"
    ingest = _run_module("ingest", "--fixture", str(absent), "--out", str(tmp_path / "g.json"))
    assert ingest.returncode == EXIT_INPUT
    assert _error_lines(ingest.stderr) == [f"error: fixture directory {absent} does not exist"]
    assert not (tmp_path / "g.json").exists()


def _config_leaves(doc: dict) -> list[tuple[str, ...]]:
    """Every key path of a config document: sections, and the fields inside them."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return paths


def test_replay_contract_under_config_mutations(cli_env, monkeypatch):
    """Whatever a config file holds, replay exits 0, 2, 3 or 4, never raises,
    and a failing exit prints exactly one `error:` line."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io

    from hypothesis import strategies as st

    monkeypatch.delenv("GENDT_API_KEY", raising=False)  # llm_http must stop at exit 3
    root = cli_env["root"] / "contract"
    root.mkdir(exist_ok=True)
    base = make_config("persistence").to_dict()
    edges = [None, True, False, -1, 0, 0.5, float("nan"), float("inf"), 5e-324, 1e308, "", [], {}]
    values = st.one_of(
        st.sampled_from(edges), st.integers(-2, 40), st.floats(), st.text(max_size=3)
    )
    mutation = st.tuples(st.sampled_from(_config_leaves(base)), st.booleans(), values)

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(
        kind=st.sampled_from(["persistence", "mock_noise", "oracle"]),
        mutations=st.lists(mutation, min_size=1, max_size=3),
    )
    def check(kind, mutations):
        doc = json.loads(json.dumps(base))
        doc["backend"]["kind"] = kind
        for path, delete, value in mutations:
            parent = doc
            for key in path[:-1]:
                parent = parent.get(key) if isinstance(parent.get(key), dict) else {}
            if delete:
                parent.pop(path[-1], None)
            else:
                parent[path[-1]] = value
        config_path = root / "cfg.json"
        config_path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(
                ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--reproducible", "--out", str(root / "report.json")]
            )
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG, EXIT_HALTED)
        if code in (EXIT_INPUT, EXIT_CONFIG):
            assert len(_error_lines(err.getvalue())) == 1, err.getvalue()

    check()
