"""End-to-end command-line behavior and exit codes."""

from __future__ import annotations

import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gendt.cli import EXIT_CONFIG, EXIT_HALTED, EXIT_INPUT, EXIT_INTERRUPTED, EXIT_OK, main
from gendt.config import save_config
from conftest import block_values, make_config, samples_block


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
    """`replay --backend`, the one override left (deprecated), and the report
    embeds the kind that ran."""
    out = cli_env["root"] / "report_oracle.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
         "--backend", "oracle", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert all(e["q_rmse"] == 0.0 for e in doc["epochs"])
    assert doc["config"]["backend"]["kind"] == "oracle"


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
    config_path = cli_env["root"] / "mock_noise.json"
    save_config(make_config("mock_noise"), config_path)
    paths = [cli_env["root"] / f"rep{i}.json" for i in (1, 2)]
    for p in paths:
        code = main(
            ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
             "--reproducible", "--out", str(p)]
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_replay_halt_on_stop(cli_env, tmp_path):
    from gendt.controller import ControlThresholds

    config_path = tmp_path / "eager.json"
    save_config(
        make_config("persistence", thresholds=ControlThresholds(0.001, 0.002, 15.0),
                    halt_on_stop=True),
        config_path,
    )
    out = tmp_path / "halted.json"
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(out)]
    )
    assert code == EXIT_HALTED
    doc = json.loads(out.read_text())
    assert doc["halted"] is True
    assert doc["epochs"][-1]["decision"] == "Stop"


def test_replay_halt_on_stop_spends_no_llm_request_past_the_stop(
    cli_env, tmp_path, stub_llm, api_key_env
):
    """Under `llm_http` with halt_on_stop, the replay forecasts one epoch at a
    time: epoch 4's Stop ends the requests after its own 10 attempts."""
    from gendt.controller import ControlThresholds
    from gendt.forecast import BackendConfig

    near, far = (stub_llm.completion(",".join([v] * 600)) for v in ("1.00", "1000.00"))
    stub_llm.script = [(200, near)] * 30 + [(200, far)]  # the last entry repeats
    config_path = tmp_path / "llm_halt.json"
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0)
    save_config(make_config(backend=backend, thresholds=ControlThresholds(100.0, 100.0, 1e6),
                            halt_on_stop=True), config_path)
    out = tmp_path / "llm_halted.json"
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(out)])
    assert code == EXIT_HALTED
    decisions = [e["decision"] for e in json.loads(out.read_text())["epochs"]]
    assert decisions == ["Continue"] * 3 + ["Stop"]
    assert len(stub_llm.requests) == 4 * 10


@pytest.mark.parametrize("min_history", [4, 99])
def test_report_holds_one_line_per_epoch(cli_env, tmp_path, min_history):
    """The report body holds each epoch record on one line of its own, which
    parses as that record; the rest of the document is indented. A replay
    with no epoch (every run has fewer than min_history prior runs) writes
    `"epochs": []` on one line."""
    config = tmp_path / "cfg.json"
    save_config(make_config("persistence", min_history=min_history), config)
    out = tmp_path / "layout.json"
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config),
                 "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    doc = json.loads(text)
    lines = text.splitlines()
    assert lines[:2] == ["{", '  "config": {']
    if min_history == 99:
        assert doc["epochs"] == [] and '  "epochs": [],' in lines and "" not in lines
        return
    start = lines.index('  "epochs": [')
    body = lines[start + 1:start + 1 + len(doc["epochs"])]
    assert lines[start + 1 + len(doc["epochs"])] == "  ],"
    assert [json.loads(line.strip().rstrip(",")) for line in body] == doc["epochs"]
    assert all(line.startswith("    {") for line in body)


def test_replay_missing_ptog(cli_env):
    code = main(
        ["replay", "--ptog", "nowhere.json", "--config", str(cli_env["config"]), "--out", "x.json"]
    )
    assert code == EXIT_INPUT


def test_interrupted_replay_exits_130_and_keeps_the_earlier_report(cli_env, tmp_path, capsys,
                                                                   monkeypatch):
    """Ctrl-C inside an epoch exits 130 with one line and no traceback, and
    the report that an earlier replay wrote at `--out` stays byte-identical."""
    from gendt import controller

    out = tmp_path / "report.json"
    argv = ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    before = out.read_bytes()
    capsys.readouterr()

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(controller, "run_epoch", interrupt)
    try:
        code = main(argv)
    except KeyboardInterrupt:  # would otherwise stop the whole test session
        pytest.fail("main let KeyboardInterrupt through")
    assert code == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert out.read_bytes() == before


@pytest.mark.parametrize("alias", ["same-path", "dot-slash", "symlink"])
def test_replay_refuses_out_over_its_graph(cli_env, tmp_path, capsys, monkeypatch, alias):
    """`replay --out` naming the `--ptog` file, by any path, exits 2 with one
    line before any epoch runs, and leaves the graph as it was."""
    from gendt import controller

    graph = tmp_path / "g.json"
    graph.write_bytes(cli_env["ptog"].read_bytes())
    out = {"same-path": str(graph), "dot-slash": "./g.json", "symlink": "link.json"}[alias]
    if alias == "symlink":
        (tmp_path / out).symlink_to(graph)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(controller, "run_epoch", None)  # a replay that ran would fail on it
    code = main(["replay", "--ptog", str(graph), "--config", str(cli_env["config"]), "--out", out])
    assert code == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: --out {Path(out)} is the --ptog graph file; write the report elsewhere\n")
    assert graph.read_bytes() == cli_env["ptog"].read_bytes()


@pytest.mark.parametrize("kind", ["config", "template", "fixture-meta", "run-csv", "run-csv-hard-link"])
def test_out_over_an_input_of_its_command_is_refused(cli_env, tmp_path, capsys, monkeypatch, kind):
    """`replay --out` naming its `--config` file or the config's prompt
    template, and `ingest --out` naming the fixture's `fixture.json` or a run
    CSV, by any path, exit 2 with one line before any work and leave the
    input as it was."""
    import shutil

    from gendt import controller, dataset
    from gendt.codec import DEFAULT_PROMPT_TEMPLATE

    fixture = shutil.copytree(cli_env["fixture"], tmp_path / "fixture")
    template = tmp_path / "template.txt"
    template.write_text(DEFAULT_PROMPT_TEMPLATE)
    config = tmp_path / "cfg.json"
    save_config(make_config("persistence", prompt_template_path=str(template)), config)
    replay = ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config), "--out"]
    ingest = ["ingest", "--fixture", str(fixture), "--out"]
    argv, victim, line = {
        "config": (replay, config, "is the --config file; write the report elsewhere"),
        "template": (replay, template, "is the config's prompt template; write the report elsewhere"),
        "fixture-meta": (ingest, fixture / "fixture.json",
                         "is the --fixture file fixture.json; write the graph elsewhere"),
        "run-csv": (ingest, fixture / "run_3.csv", "is the --fixture file run_3.csv; write the graph elsewhere"),
        "run-csv-hard-link": (ingest, fixture / "run_3.csv",
                              "is the --fixture file run_3.csv; write the graph elsewhere"),
    }[kind]
    out = victim
    if kind == "run-csv-hard-link":
        out = tmp_path / "graph.json"
        os.link(victim, out)
    before = victim.read_bytes()
    monkeypatch.setattr(controller, "run_epoch", None)  # a replay that ran would fail on it
    monkeypatch.setattr(dataset, "read_samples_csv", None)  # and so would an ingest
    assert main([*argv, str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: --out {out} {line}\n"
    assert victim.read_bytes() == before


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


@pytest.mark.parametrize("kind", ["mock_noise", "persistence", "oracle"])
def test_forecast_prints_the_replay_median(cli_env, tmp_path, capsys, kind):
    """`forecast` is a one-epoch replay: it prints exactly the encoded median
    that the replay report holds for that epoch, short history included."""
    from gendt.codec import encode

    config = make_config(kind, min_history=1)
    config_path, report = tmp_path / "cfg.json", tmp_path / "report.json"
    save_config(config, config_path)
    common = ["--ptog", str(cli_env["ptog"]), "--config", str(config_path)]
    assert main(["replay", *common, "--out", str(report)]) == EXIT_OK
    epochs = {(e["run"], e["state"]): e for e in json.loads(report.read_text())["epochs"]}
    assert "short_history" in epochs[(2, "P2")]["flags"]
    capsys.readouterr()
    for run, state in ((2, "P2"), (3, "P1"), (7, "P1"), (14, "P3")):
        assert main(["forecast", *common, "--run", str(run), "--state", state]) == EXIT_OK
        median = epochs[(run, state)]["median"]
        assert capsys.readouterr().out == encode(median, config.encoding).text + "\n"


def test_forecast_unencodable_median_exits_input(cli_env, tmp_path, capsys):
    """A median the encoder cannot format is an input error, not a traceback."""
    from gendt.forecast import BackendConfig

    config_path = tmp_path / "noisy.json"
    backend = BackendConfig(kind="mock_noise", rng_seed=42, noise_sigma=1e12)
    save_config(make_config(backend=backend), config_path)
    code = main(["forecast", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--run", "7", "--state", "P1"])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = _error_lines(captured.err)
    assert re.fullmatch(r"error: scaled magnitude -?[0-9.e+]+ exceeds 1e\+09", line)


@pytest.mark.parametrize("above", [False, True])
def test_noise_sigma_bound(cli_env, tmp_path, capsys, above):
    """At the bound a mock_noise replay raises no numpy warning; just above
    it, the config is rejected (exit 3)."""
    import warnings

    from gendt.forecast import NOISE_SIGMA_MAX

    doc = make_config("mock_noise").to_dict()
    sigma = float(np.nextafter(NOISE_SIGMA_MAX, np.inf)) if above else NOISE_SIGMA_MAX
    doc["backend"]["noise_sigma"] = sigma
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                     "--reproducible", "--out", str(tmp_path / "report.json")])
    if above:
        assert code == EXIT_CONFIG
        (line,) = _error_lines(capsys.readouterr().err)
        assert "noise_sigma" in line
    else:
        assert code == EXIT_OK
        epochs = json.loads((tmp_path / "report.json").read_text())["epochs"]
        assert len(epochs) == 30 and all(e["q_rmse"] > 1e99 for e in epochs)


def test_forecast_unknown_vertex(cli_env, capsys):
    for run, state in (("99", "P1"), ("7", "P9")):
        code = main(
            ["forecast", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
             "--run", run, "--state", state]
        )
        assert code == EXIT_INPUT
        assert len(_error_lines(capsys.readouterr().err)) == 1


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


def _p1_series_less_from_run_5(doc: dict) -> dict:
    """The graph with the P1 series of runs 5 on turned into series-less vertices."""
    p1 = next(s["index"] for s in doc["states"] if s["label"] == "P1")
    late = [e for e in doc["series"] if e["state"] == p1 and e["run"] >= 5]
    doc["series"] = [e for e in doc["series"] if e not in late]
    doc["extra_vertices"] += [[e["run"], p1] for e in late]
    return doc


@pytest.mark.parametrize(
    "kind, min_history, mutate, overlays, boxplot",
    [("oracle", 4, _p1_series_less_from_run_5, 20, True),
     ("persistence", 99, lambda doc: doc, 0, False)],
    ids=["failed-epochs", "no-epochs"],
)
def test_report_draws_only_evaluated_epochs(cli_env, tmp_path, capsys, kind, min_history, mutate,
                                            overlays, boxplot):
    """`gendt report` draws an overlay for each epoch with a forecast, and a
    box plot when any epoch was evaluated: an oracle replay whose P1 targets
    from run 5 on carry no series fails those 10 epochs and draws the other
    20; a replay without epochs writes only the run table."""
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(mutate(json.loads(cli_env["ptog"].read_text()))))
    config = tmp_path / "cfg.json"
    save_config(make_config(kind, min_history=min_history), config)
    report = tmp_path / "report.json"
    assert main(["replay", "--ptog", str(graph), "--config", str(config), "--out", str(report)]) == EXIT_OK
    out_dir = tmp_path / "artifacts"
    assert main(["report", "--report", str(report), "--out-dir", str(out_dir)]) == EXIT_OK
    written = 1 + overlays + boxplot
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {written} artifacts to {out_dir}"
    epochs = json.loads(report.read_text())["epochs"]
    drawn = [f"overlay_run{e['run']:02d}_{e['state']}.svg" for e in epochs if e["median"]]
    assert len(drawn) == overlays and all("P1" not in name for name in drawn)
    assert sorted(p.name for p in out_dir.iterdir()) == sorted(
        ["per_run_errors.csv", *drawn] + ["rmse_boxplot.svg"] * boxplot)


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


def test_replay_survives_hostile_replies(cli_env, tmp_path, stub_llm, api_key_env):
    """A deeply nested, an oversized and a non-JSON reply each fail one
    attempt; the replay goes on and exits 0."""
    from gendt.forecast import MAX_REPLY_BYTES, BackendConfig

    valid = stub_llm.completion(",".join(["1.00"] * 600))
    oversize = stub_llm.completion(",".join(["1.00"] * (MAX_REPLY_BYTES // 5 + 1)))
    stub_llm.script = [(200, "[" * 10_000), (200, oversize), (200, "not json"), (200, valid)]
    config_path = tmp_path / "llm.json"
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0)
    save_config(make_config(backend=backend), config_path)
    out = tmp_path / "llm_report.json"
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(out)])
    assert code == EXIT_OK
    epochs = json.loads(out.read_text())["epochs"]
    assert [e["attempts_used"] for e in epochs] == [7] + [10] * 29
    assert len(stub_llm.requests) == 300


def test_replay_of_replies_past_the_wire_range_fails_every_epoch(cli_env, tmp_path, capsys, stub_llm,
                                                                  api_key_env):
    """Replies of `1e300` tokens, past the range the encoder writes, fail
    every attempt as malformed: each epoch fails, no squared error overflows,
    and the replay writes its report and exits 0."""
    from gendt.config import EnsembleParams
    from gendt.forecast import BackendConfig

    stub_llm.script = [(200, stub_llm.completion(",".join(["1e300"] * 400)))]
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend, ensemble=EnsembleParams(attempts=2)), config_path)
    out = tmp_path / "llm_report.json"
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(out)])
    assert code == EXIT_OK
    assert _error_lines(capsys.readouterr().err) == []
    epochs = json.loads(out.read_text())["epochs"]
    assert len(epochs) == 30
    assert all(e["flags"] == ["epoch_failed", "AllAttemptsFailed"] for e in epochs)
    assert len(stub_llm.requests) == 30 * 2


def test_reproducible_report_does_not_depend_on_max_in_flight(cli_env, tmp_path, stub_llm,
                                                              api_key_env):
    """`llm_http` has one attempt path for every in-flight budget: against a
    stub with a single reply, the reproducible reports of max_in_flight 1, 2
    and 4 are byte-identical but for the config's own max_in_flight."""
    from gendt.config import EnsembleParams
    from gendt.forecast import BackendConfig

    stub_llm.script = [(200, stub_llm.completion(",".join(f"{i % 7}.25" for i in range(600))))]
    texts = []
    for budget in (1, 2, 4):
        backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0,
                                max_in_flight=budget)
        config_path = tmp_path / f"llm_{budget}.json"
        save_config(make_config(backend=backend, ensemble=EnsembleParams(attempts=5)), config_path)
        out = tmp_path / f"report_{budget}.json"
        code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                     "--reproducible", "--out", str(out)])
        assert code == EXIT_OK
        text, n = re.subn(r'"max_in_flight": \d+', '"max_in_flight": _', out.read_text())
        assert n == 1
        texts.append(text)
    assert texts[0] == texts[1] == texts[2]
    assert len(stub_llm.requests) == 3 * 30 * 5


def test_remote_replay_runs_on_one_pool(cli_env, tmp_path, stub_llm, api_key_env, monkeypatch):
    """A replay that does not halt sends exactly epochs x attempts requests,
    from at most `max_in_flight` worker threads for the whole replay, none
    of them left running when it ends."""
    import threading

    from gendt import forecast
    from gendt.config import EnsembleParams
    from gendt.forecast import BackendConfig

    threads = set()
    call = forecast.llm_http_call

    def recorded(*args):
        threads.add(threading.current_thread())
        return call(*args)

    monkeypatch.setattr(forecast, "llm_http_call", recorded)
    stub_llm.script = [(200, stub_llm.completion(",".join(["1.00"] * 600)))]
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0, max_in_flight=3)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend, ensemble=EnsembleParams(attempts=4)), config_path)
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    assert len(stub_llm.requests) == 30 * 4
    assert 1 <= len(threads) <= 3
    assert not any(t.is_alive() for t in threads)


@pytest.mark.parametrize("first_rejected, max_in_flight", [(1, 1), (7, 2), (12, 3), (41, 4)])
def test_rejected_credential_ends_the_replay_within_the_budget(cli_env, tmp_path, capsys, stub_llm,
                                                               api_key_env, first_rejected,
                                                               max_in_flight):
    """A stub that rejects the credential from request k on ends the replay
    with exit 3 and the rejection's line, after at most k + max_in_flight - 1
    requests: neither the current epoch's unsent attempts nor the next
    epoch's queued ones are sent."""
    from gendt.config import EnsembleParams
    from gendt.forecast import BackendConfig

    ok = (200, stub_llm.completion(",".join(["1.00"] * 600)))
    stub_llm.script = [ok] * (first_rejected - 1) + [(401, {"error": "revoked"})]
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0,
                            max_in_flight=max_in_flight)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend, ensemble=EnsembleParams(attempts=5)), config_path)
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(tmp_path / "report.json")])
    assert code == EXIT_CONFIG
    assert _error_lines(capsys.readouterr().err) == ["error: endpoint rejected credential (HTTP 401)"]
    assert first_rejected <= len(stub_llm.requests) <= first_rejected + max_in_flight - 1
    assert not (tmp_path / "report.json").exists()


def test_remote_replay_requests_arrive_in_plan_order(cli_env, tmp_path, api_key_env):
    """A replay that does not halt sends its requests in plan order: against
    a stub with a 20 ms latency, each request reaches it within
    max_in_flight - 1 places of its place in the plan, so at each epoch
    boundary at most max_in_flight - 1 requests of the next epoch overtake
    the last of the epoch before."""
    from chatstub import ChatStub, completion

    from gendt import codec, dsp
    from gendt.config import EnsembleParams, load_config
    from gendt.forecast import BackendConfig
    from gendt.ptog import load_ptog
    from gendt.windowing import enumerate_epochs, extract_window

    arrived = []

    def respond(request):
        arrived.append(request.prompt)
        return 200, completion(",".join(["1.00"] * 600))

    attempts, max_in_flight = 4, 3
    with ChatStub(respond, latency_s=0.02) as stub:
        backend = BackendConfig(kind="llm_http", endpoint=stub.endpoint, max_retries=0,
                                max_in_flight=max_in_flight)
        config_path = tmp_path / "llm.json"
        save_config(make_config(backend=backend, ensemble=EnsembleParams(attempts=attempts)), config_path)
        code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                     "--out", str(tmp_path / "report.json")])
    assert code == EXIT_OK
    ptog, config = load_ptog(cli_env["ptog"]), load_config(config_path)
    plan = []  # each epoch's prompt, built from the public layers
    for epoch in enumerate_epochs(ptog, config.min_history):
        window = extract_window(ptog, epoch, config.history_depth)
        values = [dsp.preprocess(s, config.filter, config.downsample) for s in window]
        text = config.encoding.separator.join(codec.encode(v, config.encoding).text for v in values)
        plan.append(codec.build_prompt(text, config.prompt_template))
    assert len(set(plan)) == len(plan) == 30
    order = [plan.index(prompt) for prompt in arrived]
    assert sorted(order) == [e for e in range(30) for _ in range(attempts)]
    for place, epoch in enumerate(order):
        low, high = max(place - max_in_flight + 1, 0), place + max_in_flight - 1
        assert low // attempts <= epoch <= high // attempts, (place, order)


@pytest.mark.parametrize("variable", ["http_proxy", "HTTP_PROXY"])
def test_unparsable_proxy_variable_ends_the_replay_with_one_line(cli_env, tmp_path, capsys, stub_llm,
                                                                 api_key_env, monkeypatch, variable):
    """A proxy variable that urllib cannot parse exits 3 with one line that
    names it and no report: the first try that reads it stops the pool, and
    it is not retried."""
    from gendt import forecast
    from gendt.forecast import BackendConfig

    for name in ("http_proxy", "https_proxy", "all_proxy", "no_proxy"):
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)
    monkeypatch.setenv(variable, "http:/x")
    posts = []
    post = forecast._post

    def counted(*args):
        posts.append(args)
        return post(*args)

    monkeypatch.setattr(forecast, "_post", counted)
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=3, max_in_flight=2)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend), config_path)
    out = tmp_path / "report.json"
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path), "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert _error_lines(err) == [f"error: environment variable {variable} is not a proxy URL urllib can parse"]
    assert "Traceback" not in err
    assert 1 <= len(posts) <= 2 and stub_llm.requests == []
    assert not out.exists()


def test_interrupted_remote_replay_stops_within_one_try(cli_env, tmp_path, capsys, stub_llm, api_key_env):
    """Ctrl-C 0.2 s into a replay whose attempts back off for 3 s from a
    stub that answers 503 exits 130 with one line within about 1 s: closing
    the pool ends every backoff sleep, and no try starts after it."""
    import signal
    import threading
    import time

    from gendt.forecast import BackendConfig

    stub_llm.script = [(503, {"error": "busy"})]
    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=2,
                            retry_base_delay_s=3.0, max_in_flight=2)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend), config_path)
    out = tmp_path / "report.json"
    sent = []
    main_thread = threading.get_ident()

    def interrupt():
        sent.append(time.monotonic())
        signal.pthread_kill(main_thread, signal.SIGINT)

    timer = threading.Timer(0.2, interrupt)
    timer.start()
    try:
        code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                     "--out", str(out)])
    except KeyboardInterrupt:  # would otherwise stop the whole test session
        pytest.fail("main let KeyboardInterrupt through")
    finally:
        timer.cancel()  # a replay that ended before 0.2 s is not interrupted later
        timer.join(5.0)
    returned = time.monotonic()
    requests = len(stub_llm.requests)
    assert code == EXIT_INTERRUPTED
    assert capsys.readouterr().err == "error: interrupted\n"
    assert returned - sent[0] < 1.0
    assert 1 <= requests <= 2 and not out.exists()
    time.sleep(0.2)
    assert len(stub_llm.requests) == requests  # no try started after the return


@pytest.mark.parametrize("command", ["replay", "report"])
def test_unwritable_output_path_exits_input(cli_env, tmp_path, capsys, command):
    """An output path that runs through a file exits 2 with one `error:` line."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    report = cli_env["root"] / "report.json"
    _replay_report_doc(cli_env)
    args = {
        "replay": ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
                   "--out", str(blocker / "r.json")],
        "report": ["report", "--report", str(report), "--out-dir", str(blocker / "art")],
    }
    capsys.readouterr()
    assert main(args[command]) == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert str(blocker) in line


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


def _huge_run(doc):
    doc["epochs"][0]["run"] = 10**400


def _negative_attempt_rmse(doc):
    doc["epochs"][0]["attempt_rmse"][0] = -1.0


def _control_character_state(doc):
    doc["epochs"][0]["state"] = "P1\x00"


_HUGE_SHOWN = "1" + "0" * 79 + "…"  # 10**400 cut short in an error line
# each report defect with the error line it gives
_REPORT_DEFECTS = {
    _break_per_run_row: "report field summary.per_run[0].run is missing",
    _break_median: "report field epochs[0].median must be a list of finite numbers, got '1.0,2.0'",
    _break_run: "report field epochs[0].run must be an integer in [1, 10**18), got '5'",
    _break_sd: "report field epochs[0] has median and sd of unequal length",
    _huge_median_value: f"report field epochs[0].median[0] must be a finite number, got {_HUGE_SHOWN}",
    _huge_run: f"report field epochs[0].run must be an integer in [1, 10**18), got {_HUGE_SHOWN}",
    _negative_attempt_rmse:
        "report field epochs[0].attempt_rmse[0] must be a finite number >= 0, got -1.0",
    _control_character_state:
        "report field epochs[0].state must be a printable string without a path separator, "
        "got 'P1\\x00'",
}


@pytest.mark.parametrize(
    "mutate, message",
    [pytest.param(mutate, message, id=mutate.__name__) for mutate, message in _REPORT_DEFECTS.items()],
)
def test_report_malformed_document_exits_input(cli_env, tmp_path, capsys, mutate, message):
    """A report document that parses but lacks or mistypes a field the views
    read exits 2 with one error line that names the field and the value."""
    doc = _replay_report_doc(cli_env)
    mutate(doc)
    bad = tmp_path / "bad_report.json"
    bad.write_text(json.dumps(doc))
    code = main(["report", "--report", str(bad), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [f"error: {message}"]


def test_report_of_a_run_past_the_bound_writes_nothing(cli_env, tmp_path, capsys):
    """A run index of 10**300 names no file: the report check rejects it
    before any artifact is written."""
    doc = _replay_report_doc(cli_env)
    doc["epochs"][0]["run"] = 10**300
    big = tmp_path / "big_run.json"
    big.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    assert main(["report", "--report", str(big), "--out-dir", str(out_dir)]) == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [
        f"error: report field epochs[0].run must be an integer in [1, 10**18), got {_HUGE_SHOWN}"
    ]
    assert list(out_dir.iterdir()) == []


def test_replay_of_a_run_past_the_bound_exits_input(cli_env, tmp_path, capsys):
    """A graph whose run 1 is renumbered 10**300 is refused where it is read,
    so no replay writes a report that `gendt report` would refuse."""
    doc = json.loads(cli_env["ptog"].read_text())
    for entry in (*doc["runs"], *doc["series"]):
        key = "index" if "index" in entry else "run"
        entry[key] = 10**300 if entry[key] == 1 else entry[key]
    graph, report = tmp_path / "g.json", tmp_path / "report.json"
    graph.write_text(json.dumps(doc))
    code = main(["replay", "--ptog", str(graph), "--config", str(cli_env["config"]),
                 "--out", str(report)])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [
        f"error: run index must be an integer in [1, 10**18), got {_HUGE_SHOWN}"
    ]
    assert not report.exists()


def test_report_draws_what_replay_writes(cli_env, tmp_path):
    """A graph whose run metadata holds a negative wear replays, and its
    report draws, with the wear axis reaching below zero."""
    import xml.etree.ElementTree as ET

    doc = json.loads(cli_env["ptog"].read_text())
    for run in doc["runs"]:
        run["metadata"]["flank_wear_mm"] = -0.1 * run["index"]
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["replay", "--ptog", str(graph), "--config", str(cli_env["config"]),
                 "--out", str(report)]) == EXIT_OK
    assert main(["report", "--report", str(report), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
    wear = ET.parse(tmp_path / "out" / "rmse_boxplot.svg").find("{*}polyline[@stroke-dasharray]")
    heights = [float(point.split(",")[1]) for point in wear.get("points").split()]
    assert heights == sorted(heights) and 46 <= min(heights) < max(heights) <= 314


def _graph_as_list(doc):
    return [doc]


def _metadata_as_list(doc):
    doc["runs"][0]["metadata"] = [["flank_wear_mm", 0.1]]
    return doc


def _undeclared_state(doc):
    doc["series"][0]["state"] = 9
    return doc


def _nested_samples(doc):
    doc["series"][0]["samples"] = [[1.5, 2.5]]
    return doc


def _set_graph_value(path, value):
    """A mutation that sets the graph document's item at `path` to `value`."""
    def mutate(doc):
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return doc

    return mutate


_BLOCK_FIELD = "samples of run 1 P1"
_BLOCK_KIND = "a base64 string of little-endian float64 bytes"

# values of the wrong JSON type, which the graph loader rejects rather than coerces,
# each with the error line it gives
_UNCOERCED_GRAPH_VALUES = {
    "boolean-sample-rate": (("series", 0, "sample_rate_hz"), True,
                            "sample_rate_hz of run 1 P1 must be a finite number > 0, got True"),
    "numeric-text-sample-rate": (("series", 0, "sample_rate_hz"), "250",
                                 "sample_rate_hz of run 1 P1 must be a finite number > 0, got '250'"),
    "fractional-run-index": (("series", -1, "run"), 14.5,
                             "run index must be an integer in [1, 10**18), got 14.5"),
    "boolean-state-index": (("states", 0, "index"), True,
                            "state index must be an integer >= 1, got True"),
    "numeric-state-label": (("states", 0, "label"), 5,
                            "state label must be a non-empty string, got 5"),
    "numeric-sensor-unit": (("states", 0, "sensor", "unit"), 1,
                            "sensor unit must be a JSON string, got 1"),
    "numeric-text-metadata": (("runs", 0, "metadata", "flank_wear_mm"), "0.1",
                              "metadata 'flank_wear_mm' must be a finite number, got '0.1'"),
    "boolean-metadata": (("runs", 0, "metadata", "flank_wear_mm"), True,
                         "metadata 'flank_wear_mm' must be a finite number, got True"),
    # a samples block is one base64 string: a number, text that is not base64,
    # null, a boolean or a list (the samples of a schema_version 1 file) is not
    "numeric-text-sample": (("series", 0, "samples"), "15",
                            f"{_BLOCK_FIELD} must be {_BLOCK_KIND}: Incorrect padding"),
    "number-samples": (("series", 0, "samples"), 1.5, f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got 1.5"),
    "null-samples": (("series", 0, "samples"), None, f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got None"),
    "boolean-samples": (("series", 0, "samples"), True, f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got True"),
    "boolean-among-floats": (("series", 0, "samples"), [1.5, True],
                             f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got [1.5, True]"),
    "boolean-among-integers": (("series", 0, "samples"), [1, True],
                               f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got [1, True]"),
}


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(_graph_as_list, "graph document must be a JSON object, got [{'extra_vertices': "
                     "[], 'runs': [{'index': 1, 'metadata': {'flank_wear_interpola…",
                     id="_graph_as_list"),
        pytest.param(_metadata_as_list,
                     "run 1: metadata must be a JSON object, got [['flank_wear_mm', 0.1]]",
                     id="_metadata_as_list"),
        pytest.param(_nested_samples, f"{_BLOCK_FIELD} must be {_BLOCK_KIND}, got [[1.5, 2.5]]",
                     id="_nested_samples"),
        pytest.param(_undeclared_state, "run 1: state index 9 is not declared",
                     id="_undeclared_state"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "states"},
                     "malformed graph document: missing field 'states'", id="_missing_states"),
        pytest.param(_set_graph_value(("states",), {"a": 1}),
                     "states must be a JSON list, got {'a': 1}", id="_states_as_object"),
        pytest.param(_set_graph_value(("runs", 0), 5), "runs[0] must be a JSON object, got 5",
                     id="_run_as_number"),
        pytest.param(_set_graph_value(("states", 0, "label"), ""),
                     "state label must be a non-empty string, got ''", id="_empty_state_label"),
        pytest.param(_set_graph_value(("states", 0, "index"), 0),
                     "state index must be an integer >= 1, got 0", id="_zero_state_index"),
        pytest.param(_set_graph_value(("states", 0, "index"), -1),
                     "state index must be an integer >= 1, got -1", id="_negative_state_index"),
        pytest.param(_set_graph_value(("runs", 1), {"index": 1, "metadata": {"flank_wear_mm": 9.9}}),
                     "run index 1 declared twice", id="_repeated_run"),
        pytest.param(_set_graph_value(("runs", 0), {"index": 0, "metadata": {}}),
                     "run index must be an integer in [1, 10**18), got 0", id="_zero_run_index"),
        pytest.param(_set_graph_value(("series", 4, "sample_rate_hz"), 0),
                     "sample_rate_hz of run 2 P2 must be a finite number > 0, got 0", id="_zero_sample_rate"),
        pytest.param(_set_graph_value(("series", 4, "sample_rate_hz"), -250.0),
                     "sample_rate_hz of run 2 P2 must be a finite number > 0, got -250.0",
                     id="_negative_sample_rate"),
        pytest.param(_set_graph_value(("states", 0, "sensor"), "x"),
                     "state P1: sensor must be a JSON object, got 'x'", id="_sensor_as_text"),
        pytest.param(_set_graph_value(("states", 1, "sensor"), ["a"]),
                     "state P2: sensor must be a JSON object, got ['a']", id="_sensor_as_list"),
        pytest.param(_set_graph_value(("series", 1), "x"),
                     "series[1] must be a JSON object, got 'x'", id="_series_entry_as_text"),
        pytest.param(_set_graph_value(("extra_vertices",), [[1, 2, 3]]),
                     "extra_vertices[0] must be a [run, state] pair, got [1, 2, 3]",
                     id="_extra_vertex_triple"),
        pytest.param(_set_graph_value(("extra_vertices",), {"1": 2}),
                     "extra_vertices must be a JSON list, got {'1': 2}",
                     id="_extra_vertices_as_object"),
    ]
    + [pytest.param(_set_graph_value(path, value), message, id=name)
       for name, (path, value, message) in _UNCOERCED_GRAPH_VALUES.items()],
)
def test_replay_malformed_graph_document_exits_input(cli_env, tmp_path, capsys, mutate, message):
    """A graph file of the wrong shape exits 2 with one error line, not a traceback."""
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(mutate(json.loads(cli_env["ptog"].read_text()))))
    code = main(
        ["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [f"error: {message}"]
    assert not (tmp_path / "x.json").exists()


# text in the samples block of run 1 P1 that is not strict base64 of whole
# float64 values, and the start of its error line; the decoder's reason that
# ends the line is worded differently across Python and numpy versions
_NOT_BASE64_OF_FLOATS = f"{_BLOCK_FIELD} must be {_BLOCK_KIND}: "
_BAD_BLOCKS = {
    "outside-alphabet": (lambda block, raw: block[:10] + "!" + block[10:], _NOT_BASE64_OF_FLOATS),
    "url-safe-alphabet": (lambda block, raw: "-_" + block[2:], _NOT_BASE64_OF_FLOATS),
    "embedded-newline": (lambda block, raw: block[:76] + "\n" + block[76:], _NOT_BASE64_OF_FLOATS),
    "embedded-space": (lambda block, raw: block[:8] + " " + block[8:], _NOT_BASE64_OF_FLOATS),
    "beyond-ascii": (lambda block, raw: "é" + block[1:], _NOT_BASE64_OF_FLOATS),
    "bad-padding": (lambda block, raw: block[:-1], _NOT_BASE64_OF_FLOATS),
    "padding-inside": (lambda block, raw: block[:7] + "=" + block[8:], _NOT_BASE64_OF_FLOATS),
    "length-not-multiple-of-8": (lambda block, raw: base64.b64encode(raw[:-3]).decode(),
                                 _NOT_BASE64_OF_FLOATS),
    "one-byte": (lambda block, raw: base64.b64encode(raw[:1]).decode(), _NOT_BASE64_OF_FLOATS),
    "empty": (lambda block, raw: "", "series for run 1 P1 has no samples"),
}


@pytest.mark.parametrize("mutate, start", _BAD_BLOCKS.values(), ids=_BAD_BLOCKS)
def test_replay_bad_samples_block_exits_input(cli_env, tmp_path, capsys, mutate, start):
    """A samples block that is not strict base64 of a positive whole number
    of float64 values exits 2 with one error line that names the run, the
    state and the field, and writes no report."""
    doc = json.loads(cli_env["ptog"].read_text())
    block = doc["series"][0]["samples"]
    doc["series"][0]["samples"] = mutate(block, base64.b64decode(block))
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    code = main(["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: {start}"), line
    assert not (tmp_path / "x.json").exists()


def test_replay_non_finite_bit_pattern_exits_input(cli_env, tmp_path_factory):
    """A NaN (any sign or payload) or an infinity written into any value of any
    block exits 2 with one error line naming the position, run and state."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io

    from hypothesis import strategies as st

    root = tmp_path_factory.mktemp("non_finite")
    base = json.loads(cli_env["ptog"].read_text())
    labels = {s["index"]: s["label"] for s in base["states"]}
    patterns = st.sampled_from([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                                0x7FFFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000])

    @hypothesis.settings(max_examples=25, deadline=None, database=None)
    @hypothesis.given(i=st.integers(0, len(base["series"]) - 1), at=st.integers(0, 10**6),
                      bits=patterns)
    def check(i, at, bits):
        doc = json.loads(json.dumps(base))
        entry = doc["series"][i]
        values = block_values(entry["samples"])
        at %= values.size
        values.view(np.uint64)[at] = bits
        entry["samples"] = samples_block(values)
        graph = root / "g.json"
        graph.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["replay", "--ptog", str(graph), "--config", str(cli_env["config"]),
                         "--out", str(root / "x.json")])
        assert code == EXIT_INPUT
        assert _error_lines(err.getvalue()) == [
            f"error: non-finite sample at position {at} in run {entry['run']} {labels[entry['state']]}"
        ]

    check()


_VERSION_1 = ("error: expected schema_version 2, got 1: re-run gendt ingest, "
              "or rewrite samples as base64 float64 (README)")


@pytest.mark.parametrize("command", ["replay", "forecast"])
def test_schema_version_1_graph_exits_input_with_a_way_out(cli_env, tmp_path, capsys, command):
    """A graph file of schema_version 1, whose samples are lists of numbers,
    is refused by `replay` and `forecast` with one line that says how to
    convert it."""
    doc = json.loads(cli_env["ptog"].read_text())
    doc["schema_version"] = 1
    for entry in doc["series"]:
        entry["samples"] = block_values(entry["samples"]).tolist()
    graph_path = tmp_path / "v1.json"
    graph_path.write_text(json.dumps(doc))
    rest = ["--out", str(tmp_path / "x.json")] if command == "replay" else ["--run", "7", "--state", "P1"]
    code = main([command, "--ptog", str(graph_path), "--config", str(cli_env["config"]), *rest])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [_VERSION_1]
    assert not (tmp_path / "x.json").exists()


# one value in one number field of each document, and whether it is a number
_NUMBER_FIELD_VALUES = {"boolean": (True, False), "numeric-text": ("1", False), "integer": (2, True),
                        "fraction": (0.5, True), "near-float-max": (1.5e308, True),
                        "past-float-range": (10**400, False)}


@pytest.mark.parametrize("value, accepted", _NUMBER_FIELD_VALUES.values(), ids=_NUMBER_FIELD_VALUES)
def test_every_document_agrees_on_what_a_number_is(cli_env, tmp_path, value, accepted):
    """The graph, fixture.json, config and report readers give one verdict on
    a value in a number field that has no range rule it breaks."""
    from gendt.config import ConfigError, load_config
    from gendt.dataset import DatasetError, load_fixture_meta
    from gendt.errors import read_json
    from gendt.ptog import PtogError, load_ptog
    from gendt.report import ReportError, check_document

    def verdict(doc, keys, name, load, error) -> bool:
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc))
        try:
            load(path)
        except error:
            return False
        return True

    def read(path):
        return json.loads(Path(path).read_text())

    verdicts = {
        "graph": verdict(read(cli_env["ptog"]), ("series", 0, "sample_rate_hz"), "graph.json",
                         load_ptog, PtogError),
        "fixture.json": verdict(read(cli_env["fixture"] / "fixture.json"), ("sample_rate_hz",),
                                "fixture/fixture.json", lambda path: load_fixture_meta(path.parent), DatasetError),
        "config": verdict(read(cli_env["config"]), ("thresholds", "t_health"), "config.json",
                          load_config, ConfigError),
        "report": verdict(_replay_report_doc(cli_env), ("epochs", 0, "median", 0), "report.json",
                          lambda path: check_document(read_json(path, ReportError)), ReportError),
    }
    assert verdicts == dict.fromkeys(verdicts, accepted)


def _error_lines(err: str) -> list[str]:
    assert "Traceback" not in err
    return [line for line in err.splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("value", [-1, 0])
def test_replay_bad_max_in_flight_exits_config(cli_env, tmp_path, capsys, value):
    doc = make_config("persistence").to_dict()
    doc["backend"]["max_in_flight"] = value
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_CONFIG
    assert len(_error_lines(capsys.readouterr().err)) == 1
    assert not (tmp_path / "x.json").exists()


_RUN_PARAMETER_FLAGS = {
    "--backend": ["oracle"],
    "--halt-on-stop": [],
    "--health-scope": ["run"],
    "--max-in-flight": ["2"],
}


@pytest.mark.parametrize(
    "command, flag",
    [("forecast", flag) for flag in _RUN_PARAMETER_FLAGS]
    + [("replay", flag) for flag in _RUN_PARAMETER_FLAGS if flag != "--backend"],
)
def test_run_parameters_are_not_command_line_flags(cli_env, tmp_path, capsys, command, flag):
    """The config file alone sets a run, so its fields have no flags."""
    args = ["--run", "7", "--state", "P1"] if command == "forecast" else ["--out", str(tmp_path / "x.json")]
    with pytest.raises(SystemExit) as exc:
        main([command, "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
              *args, flag, *_RUN_PARAMETER_FLAGS[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_mock_noise_seeded_only_at_top_level_exits_config(cli_env, tmp_path, capsys):
    """`backend.rng_seed` is the one seed; a top-level `rng_seed` is ignored."""
    doc = make_config("mock_noise").to_dict()
    del doc["backend"]["rng_seed"]
    doc["rng_seed"] = 42
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_CONFIG
    (line,) = _error_lines(capsys.readouterr().err)
    assert "mock_noise backend requires rng_seed" in line


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
    (line,) = _error_lines(capsys.readouterr().err)
    assert line.startswith(f"error: prompt template {path}: ") and line.count(str(path)) == 1
    if template is None:
        assert line.endswith(": No such file or directory")


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


@pytest.mark.parametrize("kind, reason", [("missing", "No such file or directory"),
                                          ("directory", "Is a directory")])
def test_ingest_unreadable_run_csv_exits_input(cli_env, tmp_path, capsys, kind, reason):
    fixture = _broken_fixture(cli_env, tmp_path)
    csv_path = fixture / "run_3.csv"
    csv_path.unlink()
    if kind == "directory":
        csv_path.mkdir()
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [f"error: cannot read {csv_path}: {reason}"]


def test_ingest_boundaries_past_the_run_exits_input(cli_env, tmp_path, capsys):
    """The error line names the run CSV whose length the boundaries exceed:
    the one boundary rule that needs the CSV, not fixture.json alone."""
    fixture = _broken_fixture(cli_env, tmp_path)
    csv_path = fixture / "run_3.csv"
    csv_path.write_text("1.0\n2.0\n")
    bounds = json.loads((fixture / "fixture.json").read_text())["boundaries"]["3"]
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == [
        f"error: {csv_path}: boundaries {tuple(bounds)} must end within the run's 2 samples"]


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


def test_ingest_meta_without_boundaries_exits_input(cli_env, tmp_path, capsys):
    fixture = _broken_fixture(cli_env, tmp_path)
    meta_path = fixture / "fixture.json"
    meta = json.loads(meta_path.read_text())
    del meta["boundaries"]
    meta_path.write_text(json.dumps(meta))
    code = main(["ingest", "--fixture", str(fixture), "--out", str(tmp_path / "g.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "'boundaries'" in line
    assert not (tmp_path / "g.json").exists()


@pytest.mark.parametrize(
    "name, command, code",
    [
        ("fixture/fixture.json", "ingest", EXIT_INPUT),
        ("fixture/run_2.csv", "ingest", EXIT_INPUT),
        ("g.json", "replay", EXIT_INPUT),
        ("cfg.json", "replay", EXIT_CONFIG),
        ("report.json", "report", EXIT_INPUT),
    ],
)
def test_non_utf8_input_file_exits_with_one_error_line(
    cli_env, tmp_path, capsys, name, command, code
):
    """An input file that is not UTF-8, or that nests arrays far deeper than
    the JSON parser's recursion limit, exits with one `error:` line."""
    import shutil

    _broken_fixture(cli_env, tmp_path)
    shutil.copy(cli_env["ptog"], tmp_path / "g.json")
    shutil.copy(cli_env["config"], tmp_path / "cfg.json")
    args = {
        "ingest": ["ingest", "--fixture", str(tmp_path / "fixture"),
                   "--out", str(tmp_path / "new.json")],
        "replay": ["replay", "--ptog", str(tmp_path / "g.json"),
                   "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "report.json")],
        "report": ["report", "--report", str(tmp_path / "report.json"),
                   "--out-dir", str(tmp_path / "artifacts")],
    }
    if command == "report":
        assert main(args["replay"]) == EXIT_OK
        capsys.readouterr()
    path = tmp_path / name
    original = path.read_bytes()
    for payload in (b"\xff" + original, b"[" * 100_000):
        path.write_bytes(payload)
        assert main(args[command]) == code
        assert len(_error_lines(capsys.readouterr().err)) == 1


_HUGE = "9" * 1_000_000


@pytest.mark.parametrize(
    "name, path, value",
    [
        ("cfg.json", ("history_depth",), _HUGE),
        ("cfg.json", ("backend",), [_HUGE]),
        ("cfg.json", ("backend", "k" * 100_000), 1),
        ("g.json", ("series", 0, "sample_rate_hz"), _HUGE),
        ("g.json", ("runs", 0, "metadata"), {_HUGE: "0.1"}),
        ("g.json", ("states", 0, "label"), 10**4000),
        ("fixture/fixture.json", ("sample_rate_hz",), _HUGE),
        ("fixture/fixture.json", ("boundaries", _HUGE), [0, 1, 2, 3]),
        ("fixture/fixture.json", ("wear_points",), [[1, _HUGE]]),
    ],
    ids=["config-field", "config-section", "config-section-key", "graph-sample-rate",
         "graph-metadata-key", "graph-state-label", "fixture-sample-rate",
         "fixture-boundaries-key", "fixture-wear-point"],
)
def test_error_line_caps_the_offending_value(cli_env, tmp_path, capsys, name, path, value):
    """A huge value in a config, graph or fixture.json file is shown cut short:
    the command exits with one `error:` line under 200 characters."""
    import shutil

    fixture = _broken_fixture(cli_env, tmp_path)
    shutil.copy(cli_env["ptog"], tmp_path / "g.json")
    shutil.copy(cli_env["config"], tmp_path / "cfg.json")
    target = tmp_path / name
    doc = json.loads(target.read_text())
    _set_graph_value(path, value)(doc)
    target.write_text(json.dumps(doc))
    if name.startswith("fixture"):
        args, expected = ["ingest", "--fixture", str(fixture)], EXIT_INPUT
    else:
        args = ["replay", "--ptog", str(tmp_path / "g.json"), "--config", str(tmp_path / "cfg.json")]
        expected = EXIT_CONFIG if name == "cfg.json" else EXIT_INPUT
    assert main([*args, "--out", str(tmp_path / "out.json")]) == expected
    (line,) = _error_lines(capsys.readouterr().err)
    assert len(line) < 200, line[:300]


def test_replay_graph_with_nan_sample_rate_exits_input(cli_env, tmp_path, capsys):
    doc = json.loads(cli_env["ptog"].read_text())
    doc["series"][0]["sample_rate_hz"] = float("nan")
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    code = main(
        ["replay", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
         "--out", str(tmp_path / "x.json")]
    )
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "sample_rate_hz" in line
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize(
    "section, params",
    [
        ("filter", {"order": 0}),
        ("downsample", {"factor": 0}),
        ("ensemble", {"attempts": 0}),
        ("ensemble", {"top_p": 0}),
        ("ensemble", {"temperature": -1}),
        # a non-finite float is written as JSON's `Infinity` or `NaN`
        ("backend", {"kind": "persistence", "retry_base_delay_s": float("inf")}),
        ("thresholds", {"t_low": float("nan"), "t_high": 1.5, "t_health": 15.0}),
        ("history_depth", 0),
        ("min_history", 0),
        ("health_scope", "x"),
        ("backend", {"kind": "persistence", "max_retries": -1}),
        ("encoding", {"scale": 1e101}),
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


def test_replay_backoff_past_sleep_range_exits_config(cli_env, tmp_path, capsys, stub_llm,
                                                      api_key_env):
    """A retry backoff that time.sleep cannot take is a config error at load,
    before the first request, not an OverflowError at the first retry."""
    stub_llm.script = [(503, {})]
    doc = make_config("persistence").to_dict()
    doc["backend"].update(kind="llm_http", endpoint=stub_llm.endpoint, retry_base_delay_s=1e10)
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_CONFIG
    (line,) = _error_lines(capsys.readouterr().err)
    assert "retry_base_delay_s 10000000000.0" in line and "1e+09 s" in line
    assert stub_llm.requests == []


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


def test_replay_target_rate_too_low_for_the_graph_exits_input(cli_env, tmp_path, capsys):
    # 250 Hz over 5e-324 Hz is past the float range: no stride can be resolved
    doc = make_config("persistence").to_dict()
    doc["downsample"] = {"target_rate_hz": 5e-324}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(doc))
    code = main(["replay", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                 "--out", str(tmp_path / "x.json")])
    assert code == EXIT_INPUT
    (line,) = _error_lines(capsys.readouterr().err)
    assert "target_rate_hz 5e-324 is too low for a 250.0 Hz series" in line
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


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """`python ARGS` in a fresh interpreter, with src/ on the path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=60,
    )


def _run_module(*args: str) -> subprocess.CompletedProcess:
    """`python -m gendt.cli ARGS` in a fresh interpreter, with src/ on the path."""
    return _run_python("-m", "gendt.cli", *args)


def test_module_entry_point(tmp_path):
    version = _run_module("--version")
    assert version.returncode == EXIT_OK
    assert version.stdout.startswith("gendt ")
    absent = tmp_path / "absent"
    ingest = _run_module("ingest", "--fixture", str(absent), "--out", str(tmp_path / "g.json"))
    assert ingest.returncode == EXIT_INPUT
    assert _error_lines(ingest.stderr) == [
        f"error: cannot read {absent / 'fixture.json'}: No such file or directory"]
    assert not (tmp_path / "g.json").exists()


def test_local_replay_imports_no_third_party_http_client(cli_env, tmp_path):
    """The command line and a local replay leave `requests` and `urllib3`
    unimported, `llm_http` speaking HTTP through the standard library, and
    the standard library's HTTP stack too: `urllib.request`, `http.client`,
    `ssl` and `email` load only on the `llm_http` path."""
    argv = ["replay", "--ptog", str(cli_env["ptog"]), "--config", str(cli_env["config"]),
            "--out", str(tmp_path / "report.json")]
    script = (f"import sys\nfrom gendt.cli import main\nassert main({argv!r}) == 0\n"
              "print(sorted({'requests', 'urllib3', 'urllib.request', 'http.client', 'ssl', 'email'}"
              " & set(sys.modules)))")
    done = _run_python("-c", script)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_report_module_imports_no_http_or_xml_stack():
    """`gendt.report` escapes SVG text with `html.escape`, so importing it
    loads neither `xml.sax` nor, through it, `urllib.request`."""
    done = _run_python("-c", "import sys, gendt.report\n"
                             "print(sorted({'xml.sax', 'urllib.request'} & set(sys.modules)))")
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _config_leaves(doc: dict) -> list[tuple[str, ...]]:
    """Every key path of a config document: sections, and the fields inside them."""
    paths = []
    for key, value in doc.items():
        paths.append((key,))
        if isinstance(value, dict):
            paths.extend((key, sub) for sub in value)
    return paths


def test_replay_contract_under_config_mutations(cli_env, monkeypatch):
    """Whatever a config file holds, replay and forecast exit 0, 2, 3 or 4,
    never raise, and a failing exit prints exactly one `error:` line."""
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
        common = ["--ptog", str(cli_env["ptog"]), "--config", str(config_path)]
        for args in (["replay", *common, "--reproducible", "--out", str(root / "report.json")],
                     ["forecast", *common, "--run", "7", "--state", "P1"]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(args)
            assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG, EXIT_HALTED), args[0]
            if code in (EXIT_INPUT, EXIT_CONFIG):
                assert len(_error_lines(err.getvalue())) == 1, err.getvalue()

    check()


def _meta_paths(meta: dict) -> list[tuple]:
    """Every item path of a fixture.json: its fields, each run's boundaries
    and their elements, and each wear point and its elements."""
    paths = [(key,) for key in meta]
    for field in ("boundaries", "wear_points"):
        items = meta[field].items() if isinstance(meta[field], dict) else enumerate(meta[field])
        for key, value in items:
            paths.append((field, key))
            paths.extend((field, key, i) for i in range(len(value)))
    return paths


def _holds(parent, key) -> bool:
    if isinstance(parent, dict):
        return key in parent
    return isinstance(parent, list) and isinstance(key, int) and key < len(parent)


def _reject_constant(name):
    raise AssertionError(f"non-standard JSON token {name} in the graph file")


def test_ingest_contract_under_fixture_meta_mutations(cli_env):
    """Whatever fixture.json holds, ingest exits 0 or 2 and never raises; a
    failing exit prints exactly one `error:` line, and a graph it writes is
    standard JSON."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io
    import shutil

    from hypothesis import strategies as st

    root = cli_env["root"] / "ingest_contract"
    fixture = root / "fixture"
    if not fixture.exists():
        shutil.copytree(cli_env["fixture"], fixture)
    base = json.loads((cli_env["fixture"] / "fixture.json").read_text())
    edges = [None, True, False, -1, 0, 1, 0.5, 130.9, float("nan"), float("inf"), -float("inf"),
             1e308, 2**64, 10**30, 10**400, "", "130", [], [0, 1, 2, 3], [[40, 130]], {}]
    values = st.one_of(
        st.sampled_from(edges), st.integers(-5, 700), st.floats(), st.text(max_size=3)
    )
    mutation = st.tuples(
        st.sampled_from(_meta_paths(base)), st.sampled_from(["set", "delete", "rename", "swap"]), values
    )

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(mutations=st.lists(mutation, min_size=1, max_size=3))
    def check(mutations):
        meta = json.loads(json.dumps(base))
        for path, op, value in mutations:
            parent = meta
            for key in path[:-1]:
                parent = parent[key] if _holds(parent, key) else None
            if not _holds(parent, path[-1]):
                continue
            if op == "delete":
                del parent[path[-1]]
            elif op == "rename" and isinstance(parent, dict):
                parent[str(value)] = parent.pop(path[-1])
            elif op == "swap":  # an item of a list with the one before it: an order violation
                if isinstance(parent, list):
                    i = path[-1]
                    parent[i - 1], parent[i] = parent[i], parent[i - 1]
            else:
                parent[path[-1]] = value
        (fixture / "fixture.json").write_text(json.dumps(meta))
        graph = root / "g.json"
        graph.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", "--fixture", str(fixture), "--out", str(graph)])
        assert code in (EXIT_OK, EXIT_INPUT)
        if code == EXIT_INPUT:
            assert len(_error_lines(err.getvalue())) == 1, err.getvalue()
        else:
            json.loads(graph.read_text(), parse_constant=_reject_constant)

    check()


def _mutate_lines(data: bytes, kind: str, at: int, value: bytes) -> bytes:
    """A run CSV's bytes after one mutation of the kind named, at line `at`
    (modulo the line count)."""
    lines = data.splitlines()
    i = at % (len(lines) + 1)
    if kind == "blank":
        return b"\n".join(lines[:i] + [b""] * (1 + at % 3) + lines[i:]) + b"\n"
    if kind == "crlf":
        return b"\r\n".join(lines) + b"\r\n"
    if kind == "value":
        return b"\n".join(lines[:i] + [value] + lines[i + 1:]) + b"\n"
    if kind == "byte":
        return b"\n".join(lines[:i] + [b"\xff" + value] + lines[i:]) + b"\n"
    if kind == "short":
        return b"\n".join(lines[:i // 2]) + b"\n"
    return b""


def test_ingest_contract_under_run_csv_mutations(cli_env):
    """Whatever a run CSV holds, or when it is missing, ingest exits 0 or 2
    and never raises; a failing exit prints exactly one `error:` line."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io
    import shutil

    from hypothesis import strategies as st

    root = cli_env["root"] / "csv_contract"
    fixture = root / "fixture"
    if not fixture.exists():
        shutil.copytree(cli_env["fixture"], fixture)
    names = sorted(path.name for path in fixture.glob("run_*.csv"))
    kinds = ["blank", "crlf", "value", "byte", "short", "empty", "missing"]
    values = [b"nan", b"NaN", b"inf", b"-inf", b"1e400", b"-1e400", b"1e300", b"", b" 1.5 ", b"1,5"]
    mutation = st.tuples(st.sampled_from(names), st.sampled_from(kinds), st.integers(0, 10**6),
                         st.sampled_from(values))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(mutations=st.lists(mutation, min_size=1, max_size=3))
    def check(mutations):
        for name in names:
            shutil.copy(cli_env["fixture"] / name, fixture / name)
        for name, kind, at, value in mutations:
            path = fixture / name
            if kind == "missing":
                path.unlink(missing_ok=True)
            elif path.exists():
                path.write_bytes(_mutate_lines(path.read_bytes(), kind, at, value))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", "--fixture", str(fixture), "--out", str(root / "g.json")])
        assert code in (EXIT_OK, EXIT_INPUT)
        assert len(_error_lines(err.getvalue())) == (code == EXIT_INPUT), err.getvalue()
        assert "Traceback" not in err.getvalue()

    check()


def test_forecast_contract_under_http_replies(cli_env, tmp_path, capsys, stub_llm, api_key_env):
    """Whatever the endpoint replies, a one-epoch forecast without retries
    exits 0, 2, 3 or 4, prints at most one `error:` line and no traceback, and
    the credential appears in no output."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st

    from gendt.forecast import BackendConfig

    backend = BackendConfig(kind="llm_http", endpoint=stub_llm.endpoint, max_retries=0,
                            retry_base_delay_s=0.0)
    config_path = tmp_path / "llm.json"
    save_config(make_config(backend=backend), config_path)
    tokens = st.sampled_from(["1.00", "-2.50", "NaN", "nan", "1e400", "1e300", "x", ""])
    contents = st.one_of(
        st.lists(tokens, max_size=40).map(",".join),  # too few, too many, or bad tokens
        st.integers(0, 700).map(lambda n: ",".join(["0.50"] * n)),
        # one token past the wire range, repeated beyond the horizon
        st.sampled_from(["1e9", "1e154", "1e300", "-1e300"]).map(lambda t: ",".join([t] * 700)),
    )
    shapes = st.sampled_from([{}, [], None, "not json", {"choices": []}, {"choices": [{}]},
                              {"choices": [{"message": {"content": 5}}]}, {"choices": {"0": 1}},
                              {"choices": [{"message": {"content": ["1.00"]}}]}])
    statuses = st.one_of(st.just(200), st.sampled_from([200, 307, 401, 429, 500]))
    replies = st.tuples(statuses, st.one_of(contents.map(stub_llm.completion), shapes))

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    @hypothesis.given(script=st.lists(replies, min_size=1, max_size=4))
    def check(script):
        stub_llm.script = list(script)
        code = main(["forecast", "--ptog", str(cli_env["ptog"]), "--config", str(config_path),
                     "--run", "7", "--state", "P1"])
        out, err = capsys.readouterr()
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG, EXIT_HALTED)
        assert len(_error_lines(err)) == (code != EXIT_OK), err
        assert "Traceback" not in err
        assert api_key_env not in out + err

    check()


def _graph_paths(doc: dict) -> list[tuple]:
    """Item paths of a graph file: its fields, and for the first two states,
    runs and series entries each entry and its fields, a state's sensor
    fields and a run's metadata value."""
    paths = [(key,) for key in doc]
    for i in (0, 1):
        paths += [("states", i), ("runs", i), ("series", i)]
        paths += [("states", i, key) for key in ("index", "label", "sensor")]
        paths += [("states", i, "sensor", key) for key in ("name", "unit")]
        paths += [("runs", i, "index"), ("runs", i, "metadata"), ("runs", i, "metadata", "flank_wear_mm")]
        paths += [("series", i, key) for key in ("run", "state", "sample_rate_hz", "samples")]
    return paths


def _patch_block(block: str, kind: str, at: int, value) -> str:
    """A samples block after one mutation of the kind named, at value or
    character `at` (modulo the count): a value's 8 bytes set to the bit
    pattern `value`, a character inserted, or the text or the bytes cut short.
    A block that an earlier mutation left undecodable is cut or grown only."""
    if kind == "insert":
        i = at % (len(block) + 1)
        return block[:i] + value + block[i:]
    if kind == "cut-text":
        return block[:at % (len(block) + 1)]
    try:
        raw = bytearray(base64.b64decode(block, validate=True))
    except ValueError:
        return block
    if kind == "cut-bytes":
        return base64.b64encode(raw[:at % (len(raw) + 1)]).decode()
    if len(raw) >= 8:
        i = 8 * (at % (len(raw) // 8))
        raw[i:i + 8] = value.to_bytes(8, "little")
    return base64.b64encode(raw).decode()


def test_replay_contract_under_graph_mutations(cli_env):
    """Whatever a graph file holds, replay exits 0, 2, 3 or 4 and never
    raises; a failing exit prints exactly one `error:` line."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io

    from hypothesis import strategies as st

    root = cli_env["root"] / "graph_contract"
    root.mkdir(exist_ok=True)
    base = json.loads(cli_env["ptog"].read_text())
    assert base["states"][1] and base["runs"][1] and base["series"][1]
    edges = [None, True, False, -1, 0, 1, 2, 0.5, 250.0, float("nan"), float("inf"), 1e-300,
             1e300, 1e308, 2**64, 10**400, "", "P1", [], [1.5], [1, True], [[1, 1]], [[99, 2]],
             [[1, 1, 1]], {}, {"name": "x", "unit": "A"}, {"flank_wear_mm": 0.2}]
    values = st.one_of(
        st.sampled_from(edges), st.integers(-3, 20), st.floats(), st.text(max_size=3)
    )
    # bit patterns: NaNs of both signs and a payload, the infinities, the
    # largest finite value, 1e300 (which the encoder cannot format), -0.0
    # and the smallest subnormal
    patterns = [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF0000000000000,
                0xFFF0000000000000, 0x7FEFFFFFFFFFFFFF, 0x7E37E43C8800759C, 1 << 63, 1]
    patches = st.one_of(
        st.tuples(st.just("bits"), st.integers(0, 10**6), st.sampled_from(patterns)),
        st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(["!", "\n", "=", " ", "-", "é"])),
        st.tuples(st.sampled_from(["cut-text", "cut-bytes"]), st.integers(0, 10**6), st.none()),
    )
    mutation = st.one_of(
        st.tuples(st.sampled_from(_graph_paths(base)), st.sampled_from(["set", "delete", "rename"]), values),
        st.tuples(st.sampled_from([("series", 0, "samples"), ("series", 1, "samples")]), st.just("patch"),
                  patches),
    )

    @hypothesis.settings(max_examples=80, deadline=None, database=None)
    @hypothesis.given(mutations=st.lists(mutation, min_size=1, max_size=3))
    def check(mutations):
        doc = json.loads(json.dumps(base))
        for path, op, value in mutations:
            parent = doc
            for key in path[:-1]:
                parent = parent[key] if _holds(parent, key) else None
            if not _holds(parent, path[-1]):
                continue
            if op == "delete":
                del parent[path[-1]]
            elif op == "patch":
                if isinstance(parent[path[-1]], str):
                    parent[path[-1]] = _patch_block(parent[path[-1]], *value)
            elif op == "rename" and isinstance(parent, dict):
                parent[str(value)] = parent.pop(path[-1])
            else:
                parent[path[-1]] = value
        graph = root / "g.json"
        graph.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["replay", "--ptog", str(graph), "--config", str(cli_env["config"]),
                         "--reproducible", "--out", str(root / "report.json")])
        assert code in (EXIT_OK, EXIT_INPUT, EXIT_CONFIG, EXIT_HALTED)
        if code in (EXIT_INPUT, EXIT_CONFIG):
            assert len(_error_lines(err.getvalue())) == 1, err.getvalue()

    check()


def test_replay_unencodable_sample_fails_only_the_touching_epochs(cli_env, tmp_path, capsys):
    """A sample the encoder cannot format fails each epoch whose window or
    target reads its vertex, as `Overflow`; the replay goes on and exits 0,
    and a forecast of such an epoch exits 2 naming the failure."""
    doc = json.loads(cli_env["ptog"].read_text())
    (entry,) = [e for e in doc["series"] if (e["run"], e["state"]) == (5, 2)]
    values = block_values(entry["samples"])
    values[values.size // 2] = 1e300
    entry["samples"] = samples_block(values)
    graph_path = tmp_path / "g.json"
    graph_path.write_text(json.dumps(doc))
    clean, out = tmp_path / "clean.json", tmp_path / "x.json"
    for graph, report in ((cli_env["ptog"], clean), (graph_path, out)):
        code = main(
            ["replay", "--ptog", str(graph), "--config", str(cli_env["config"]),
             "--reproducible", "--out", str(report)]
        )
        assert code == EXIT_OK
    assert _error_lines(capsys.readouterr().err) == []
    before = json.loads(clean.read_text())["epochs"]
    after = json.loads(out.read_text())["epochs"]
    touching = [
        e["state"] == "P2" and (e["run"] == 5 or 5 in e["history_runs"]) for e in before
    ]
    assert sum(touching) > 1
    for was, now, touched in zip(before, after, touching):
        assert (now["run"], now["state"]) == (was["run"], was["state"])
        if touched:
            assert now["flags"] == ["epoch_failed", "Overflow"]
        else:
            assert now["median"] == was["median"] and now["flags"] == was["flags"]
    code = main(["forecast", "--ptog", str(graph_path), "--config", str(cli_env["config"]),
                 "--run", "6", "--state", "P2"])
    assert code == EXIT_INPUT
    assert _error_lines(capsys.readouterr().err) == ["error: forecast failed: Overflow"]


def _report_paths() -> list[tuple]:
    """Item paths of a replay report that `gendt report` reads: the lists it
    draws from, the fields of the first per-run row and of the first two
    epochs, and the first element of each number list of the first epoch."""
    lists = ("median", "sd", "truth", "attempt_rmse")
    paths = [("summary",), ("summary", "per_run"), ("epochs",)]
    paths += [("summary", "per_run", 0, key) for key in ("run", "flank_wear_mm", "err_avg", "err_std")]
    for i in (0, 1):
        paths += [("epochs", i, key) for key in ("run", "state", *lists)]
    paths += [("epochs", 0, key, 0) for key in lists]
    return paths


def test_report_contract_under_document_mutations(cli_env):
    """Whatever a report file holds, `gendt report` exits 0 or 2 and never
    raises; a failing exit prints exactly one `error:` line, and every SVG it
    writes is well-formed XML."""
    hypothesis = pytest.importorskip("hypothesis")
    import contextlib
    import io
    import shutil
    import xml.etree.ElementTree as ET

    from hypothesis import strategies as st

    root = cli_env["root"] / "report_contract"
    root.mkdir(exist_ok=True)
    base = _replay_report_doc(cli_env)
    labels = st.one_of(st.sampled_from(["", "P1", 'P1<svg onload=alert(1)>&"', "a/b"]),
                       st.text(alphabet='P1<>&"/\x00\x7f\ud800', max_size=4))
    numbers = st.one_of(
        st.sampled_from([0, 1, 0.5, float("nan"), float("inf"), 1e20, 1e308, -1e308,
                         9 * 10**307, 10**400]),
        st.integers(-5, 40), st.floats(),
    )
    anything = st.one_of(labels, numbers, st.sampled_from([None, True, [], [1.0], {}]))

    def mutation(path):
        # mostly a value of the field's own type, so that most documents pass the
        # check and reach the views
        typed = labels if path[-1] == "state" else numbers
        return st.tuples(st.just(path), st.sampled_from(["set", "fill", "fill", "delete"]),
                         st.one_of(typed, typed, typed, anything))

    mutation = st.sampled_from(_report_paths()).flatmap(mutation)

    @hypothesis.settings(max_examples=100, deadline=None, database=None)
    @hypothesis.given(mutations=st.lists(mutation, min_size=1, max_size=2))
    def check(mutations):
        doc = json.loads(json.dumps(base))
        for path, op, value in mutations:
            parent = doc
            for key in path[:-1]:
                parent = parent[key] if _holds(parent, key) else None
            if not _holds(parent, path[-1]):
                continue
            if op == "delete":
                del parent[path[-1]]
            elif op == "fill" and isinstance(parent[path[-1]], list):
                # every element of a list takes the value, so lengths still agree
                parent[path[-1]] = [value] * len(parent[path[-1]])
            else:
                parent[path[-1]] = value
        report = root / "report.json"
        report.write_text(json.dumps(doc))
        out_dir = root / "artifacts"
        shutil.rmtree(out_dir, ignore_errors=True)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["report", "--report", str(report), "--out-dir", str(out_dir)])
        assert code in (EXIT_OK, EXIT_INPUT)
        if code == EXIT_INPUT:
            assert len(_error_lines(err.getvalue())) == 1, err.getvalue()
        for svg in out_dir.glob("*.svg"):
            ET.parse(svg)

    check()
