#!/usr/bin/env bash
# Command-line smoke test of gendt: a 6-run fixture through ingest, replay,
# report and forecast, then one failing input per exit code. It writes its
# files into the current directory, so run it from an empty one. The
# arguments are the command that runs gendt, and `python` must import the
# same gendt package:
#
#   CHECKOUT/ci/smoke.sh gendt                             # the installed package
#   PYTHONPATH=CHECKOUT/src CHECKOUT/ci/smoke.sh python -m gendt.cli   # a checkout
#
# Only the installed package has the `gendt` console script; with any other
# command the script says that it skipped that check.
set -eo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: $0 GENDT_COMMAND..." >&2
  exit 64
fi
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
CONFIG="$ROOT/configs/milling.json"
GENDT=("$@")
# every `gendt` below runs the command given; `command` skips this function
gendt() { command "${GENDT[@]}" "$@"; }

if [ "$*" = gendt ]; then
  command gendt --version
else
  gendt --version
  echo "smoke: skipped the console-script check (gendt --version): '$*' is not the installed gendt"
fi
python -m gendt.dataset fixture --runs 6
gendt ingest --fixture fixture --dry-run
gendt ingest --fixture fixture --out ptog.json --workdir work
# the manifest dump reads back into the graph file's graph
python -c 'from gendt.ptog import build_ptog, load_ptog
assert build_ptog("work/manifest.json") == load_ptog("ptog.json")'
# two reproducible replays of one graph and config are byte-identical
for out in report.json again.json; do
  gendt replay --ptog ptog.json --config "$CONFIG" \
    --reproducible --out "$out"
done
cmp report.json again.json
# the command line and a local replay import no third-party HTTP client, and
# not the standard library's HTTP stack either: only llm_http loads it
python -c 'import sys
from gendt.cli import main
assert main(["replay", "--ptog", "ptog.json", "--config", sys.argv[1], "--out", "third.json"]) == 0
leaked = {"requests", "urllib3", "urllib.request", "http.client", "ssl", "email"} & set(sys.modules)
assert not leaked, leaked' "$CONFIG"
gendt report --report report.json --out-dir report_artifacts
# one epoch through the vectorised encoder: one line of comma-separated
# numbers with exactly two decimals each
gendt forecast --ptog ptog.json --config "$CONFIG" \
  --run 6 --state P1 > forecast.txt
cat forecast.txt
test "$(wc -l < forecast.txt)" -eq 1
grep -Eqx -- '-?[0-9]+\.[0-9]{2}(,-?[0-9]+\.[0-9]{2})*' forecast.txt
# one failing input per exit code: the code, one `error:` line, no traceback
one_error() {
  cat err.txt
  test "$code" -eq "$1" && test "$(grep -c '^error:' err.txt)" -eq 1 \
    && ! grep -q Traceback err.txt
}
expect() {
  code=0
  gendt "${@:2}" 2> err.txt || code=$?
  one_error "$1"
}
expect 2 replay --ptog missing.json --config "$CONFIG"
# a report path that is the graph file is refused before the replay runs,
# and the graph is left as it was
cp ptog.json ptog_before.json
expect 2 replay --ptog ptog.json --config "$CONFIG" --out ptog.json
cmp ptog.json ptog_before.json
# and so is one that is the config file
cp "$CONFIG" config_copy.json
cp config_copy.json config_before.json
expect 2 replay --ptog ptog.json --config config_copy.json --out config_copy.json
cmp config_copy.json config_before.json
# Ctrl-C inside an epoch exits 130 with one line and writes no report
code=0
python -c 'import sys
from gendt import cli, controller
def interrupt(*args):
    raise KeyboardInterrupt
controller.run_epoch = interrupt
sys.exit(cli.main(["replay", "--ptog", "ptog.json", "--config", sys.argv[1],
                   "--out", "interrupted.json"]))' "$CONFIG" 2> err.txt || code=$?
one_error 130
grep -qx 'error: interrupted' err.txt
test ! -e interrupted.json
echo '{' > not_json.json
expect 3 replay --ptog ptog.json --config not_json.json
# an llm_http config against a port where nothing listens
python -c 'import json, sys; doc = json.load(open(sys.argv[1]))
doc["backend"].update(kind="llm_http", endpoint="http://127.0.0.1:9/v1")
json.dump(doc, open("llm.json", "w"))' "$CONFIG"
# a retry backoff past time.sleep's range is a config error at load, not an
# OverflowError at the first retry against an endpoint that refuses
python -c 'import json; doc = json.load(open("llm.json"))
doc["backend"]["retry_base_delay_s"] = 1e10
json.dump(doc, open("backoff.json", "w"))'
GENDT_API_KEY=dummy expect 3 replay --ptog ptog.json --config backoff.json
grep -q retry_base_delay_s err.txt
# a proxy variable that urllib cannot parse ends the replay with one line
# that names it, and no report
http_proxy=http:/x GENDT_API_KEY=dummy expect 3 replay --ptog ptog.json --config llm.json \
  --out proxy_report.json
grep -q 'environment variable http_proxy' err.txt
test ! -e proxy_report.json
# an encoding scale past 1e100 is a config error: the wire's values times the
# scale must stay far enough below the float range that no squared error overflows
python -c 'import json, sys; doc = json.load(open(sys.argv[1]))
doc["encoding"]["scale"] = 1e101
json.dump(doc, open("big_scale.json", "w"))' "$CONFIG"
expect 3 replay --ptog ptog.json --config big_scale.json
grep -q 'scale must be in' err.txt
# run 3's boundaries out of order: the line names fixture.json, where the
# rule is checked, not the run CSV
cp -r fixture bad_bounds
python -c 'import json; path = "bad_bounds/fixture.json"; doc = json.load(open(path))
bounds = doc["boundaries"]["3"]
bounds[0], bounds[1] = bounds[1], bounds[0]
json.dump(doc, open(path, "w"))'
expect 2 ingest --fixture bad_bounds --out bad_bounds.json
grep -q 'fixture.json: boundaries of run 3' err.txt
test ! -e bad_bounds.json
# a state label the graph does not hold
expect 2 forecast --ptog ptog.json --config "$CONFIG" --run 6 --state P9
grep -q P9 err.txt
# a replay report whose epochs[0].median holds a string: the error names the field
python -c 'import json; doc = json.load(open("report.json"))
doc["epochs"][0]["median"] = "1.0,2.0"
json.dump(doc, open("bad_report.json", "w"))'
expect 2 report --report bad_report.json
grep -q 'epochs\[0\].median' err.txt
# a run index of 10**300 names no file: the report check refuses it before
# any artifact is written
python -c 'import json; doc = json.load(open("report.json"))
doc["epochs"][0]["run"] = 10**300
json.dump(doc, open("big_run.json", "w"))'
mkdir big_run_artifacts
expect 2 report --report big_run.json --out-dir big_run_artifacts
test -z "$(ls -A big_run_artifacts)"
# a graph file of schema_version 1, its samples lists of numbers, is refused
# with one line that says how to convert it
python -c 'import base64, json
import numpy as np
doc = json.load(open("ptog.json"))
doc["schema_version"] = 1
for entry in doc["series"]:
    entry["samples"] = np.frombuffer(base64.b64decode(entry["samples"]), "<f8").tolist()
json.dump(doc, open("version_1.json", "w"))'
expect 2 replay --ptog version_1.json --config "$CONFIG"
grep -q 'expected schema_version 2, got 1: re-run gendt ingest' err.txt
# a sample the encoder cannot format fails only the epochs that read its
# vertex, through the one encode pass; the replay goes on and exits 0
python -c 'import base64, json
import numpy as np
doc = json.load(open("ptog.json"))
samples = np.frombuffer(base64.b64decode(doc["series"][3]["samples"]), "<f8").copy()
samples[0] = 1e300
doc["series"][3]["samples"] = base64.b64encode(samples.astype("<f8").tobytes()).decode()
json.dump(doc, open("big_sample.json", "w"))'
gendt replay --ptog big_sample.json --config "$CONFIG" \
  --out big_sample_report.json
python -c 'import json; epochs = json.load(open("big_sample_report.json"))["epochs"]
failed = [e for e in epochs if "epoch_failed" in e["flags"]]
assert failed and all(e["flags"] == ["epoch_failed", "Overflow"] for e in failed)
assert len(failed) < len(epochs), failed'
echo "smoke: ok"
