"""gendt benchmark: one command, three workloads, end-to-end or traced.

    python3 bench/run.py --workload replay-local --seed 7 --seconds 22 --trace 0

Run from the repository root. `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run. The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
Inputs are generated from the seeds; outputs are checked by the gate in
gate.py, and any failure exits non-zero without a result line. Files go to
.bench_work/ under the root: scratch space per run (removed at exit) and
results/, which keeps each run's metrics, environment and, when traced, spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"

EXTRA_UNITS = {  # printed and kept in the results file, not in BENCHMARK.json
    "ingest_s": "s",
    "wall_over_ideal": "ratio",
    "ops_failed_frac": "ratio",
}


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _read(path: Path) -> str:
    try:
        return path.read_text()
    except OSError:
        return ""


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = _read(root / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    loose = _read(root / ".git" / ref).strip()
    if loose:
        return loose
    for line in _read(root / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read(Path("/proc/cpuinfo")).splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="replay-local, replay-remote or ingest")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for the fixture and the backend (default 7)")
    parser.add_argument("--fixture-seed", type=int, default=None, help="override --seed for the fixture")
    parser.add_argument("--backend-seed", type=int, default=None, help="override --seed for mock_noise")
    parser.add_argument("--seconds", type=float, default=22.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="fixture runs, for smoke tests (default: the workload's size)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gendt" / "__init__.py").is_file() or not (
        ROOT / "configs" / "milling.json"
    ).is_file():
        print(f"error: {ROOT} does not hold src/gendt and configs/milling.json", file=sys.stderr)
        return 2
    if args.runs is not None and args.runs < 5:
        print("error: --runs must be at least 5 (four history runs and one epoch run)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import harness
    from gate import GateError

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = harness.WORKLOADS[args.workload]
    seed = harness.DEFAULT_SEED if args.seed is None else args.seed
    fixture_seed = seed if args.fixture_seed is None else args.fixture_seed
    backend_seed = seed if args.backend_seed is None else args.backend_seed
    scratch = WORK / f"run-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}-seed{fixture_seed}-{backend_seed}"
    try:
        with harness.Bench(workload, ROOT, scratch, fixture_seed, backend_seed, args.runs) as bench:
            if args.trace:
                metrics, extra = harness.measure_traced(
                    bench, args.seconds, results / f"{stem}-spans.json.gz"
                )
            else:
                metrics, extra = harness.measure(bench, args.seconds)
    except GateError as exc:
        print(f"error: correctness gate failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    units = declared_units(args.trace)
    if set(units) != set(metrics):
        print(f"error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 2
    env = environment()
    shown = {**metrics, **{k: v for k, v in extra.items() if k in EXTRA_UNITS}}
    print(f"# gendt benchmark: workload {workload.name} ({workload.why})")
    print(f"# seeds fixture={fixture_seed} backend={backend_seed} runs={bench.runs} trace={args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# samples " + json.dumps({k: v for k, v in extra.items() if k not in EXTRA_UNITS}))
    for name, value in shown.items():
        print(f"{name:<44} {value:>16.6g} {units.get(name) or EXTRA_UNITS[name]}")
    record = {
        "workload": workload.name,
        "fixture_seed": fixture_seed,
        "backend_seed": backend_seed,
        "runs": bench.runs,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": units.get(k) or EXTRA_UNITS[k]} for k, v in shown.items()},
        "samples": extra,
        "digests": bench.digests.seen,
    }
    (results / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": extra["operations"],
                "failed": 0,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
