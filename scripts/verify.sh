#!/usr/bin/env bash
# The one verification gate: formatting, lints, rustdoc links, release
# build, the full test suite (once), CLI smokes, and the standing
# benchmark's build + self-test. CI runs exactly this script; run it
# locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> match smoke (gql match on the bundled example)"
match_out=$(cargo run --release -q -p gql-cli -- match \
    --graph examples/gql/triangle_net.gql --pattern examples/gql/triangle.gql)
grep -q "matches: 2" <<<"$match_out" || { echo "unexpected match count"; exit 1; }

echo "==> profile smoke (gql run --profile on the bundled example)"
# The profile report goes to stderr; results stay alone on stdout.
# Capture before grepping: `cargo run | grep -q` races grep's early
# exit against the writer (SIGPIPE + pipefail = flaky failure).
profile_out=$(cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data DBLP=examples/gql/dblp_sample.gql --profile 2>&1)
grep -q "match.search" <<<"$profile_out" \
    || { echo "profile output missing phases"; exit 1; }
grep -q "planner.cache" <<<"$profile_out" \
    || { echo "profile output missing planner counters"; exit 1; }

echo "==> explain + trace smoke (gql run on the bundled example)"
obs_tmp=$(mktemp -d)
cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data DBLP=examples/gql/dblp_sample.gql \
    --explain --slow-ms 0 \
    --trace "$obs_tmp/trace.json" --metrics "$obs_tmp/metrics.prom" \
    > "$obs_tmp/results.txt" 2> "$obs_tmp/diag.txt"
grep -q "flwr" "$obs_tmp/diag.txt" || { echo "explain tree missing"; exit 1; }
grep -q -- "-- slow queries" "$obs_tmp/diag.txt" || { echo "slow-query log missing"; exit 1; }
grep -q "traceEvents" "$obs_tmp/trace.json" || { echo "trace file missing events"; exit 1; }
python3 -m json.tool "$obs_tmp/trace.json" > /dev/null \
    || { echo "trace file is not valid JSON"; exit 1; }
grep -q 'gql_engine_flwr_seconds_count' "$obs_tmp/metrics.prom" \
    || { echo "metrics file missing engine.flwr"; exit 1; }
# The same-spans contract: every engine/op/match phase timed in the
# metrics file is also an event on the trace timeline (one span feeds
# both), compared in the exposition's sanitized names.
python3 - "$obs_tmp/metrics.prom" "$obs_tmp/trace.json" <<'PY' \
    || { echo "metrics phases missing from the trace"; exit 1; }
import json, re, sys
prom = open(sys.argv[1]).read()
phases = set(re.findall(r"^gql_(engine_flwr|op_\w+|match_\w+)_seconds_count ", prom, re.M))
events = {e["name"].replace(".", "_") for e in json.load(open(sys.argv[2]))["traceEvents"]}
missing = sorted(phases - events)
if len(phases) < 3 or missing:
    sys.exit(f"phases {sorted(phases)}; missing from the trace: {missing}")
PY
grep -q -- "-- result" "$obs_tmp/results.txt" || { echo "results missing from stdout"; exit 1; }
if grep -qE "loaded|profile|flwr|ok" "$obs_tmp/results.txt"; then
    echo "diagnostics leaked to stdout"; exit 1
fi
rm -rf "$obs_tmp"

echo "==> persistence smoke (checkpoint, then reopen without data files)"
persist_tmp=$(mktemp -d)
first=$(cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data DBLP=examples/gql/dblp_sample.gql \
    --data-dir "$persist_tmp/db" --checkpoint --metrics "$persist_tmp/m1.prom" \
    2> "$persist_tmp/diag1.txt")
grep -q "checkpoint written" "$persist_tmp/diag1.txt" \
    || { echo "checkpoint notice missing"; exit 1; }
[ -f "$persist_tmp/db/MANIFEST" ] || { echo "MANIFEST not written"; exit 1; }
second=$(cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data-dir "$persist_tmp/db" --metrics "$persist_tmp/m2.prom" \
    2> "$persist_tmp/diag2.txt")
grep -q "opened" "$persist_tmp/diag2.txt" || { echo "reopen notice missing"; exit 1; }
[ "$first" = "$second" ] || { echo "checkpoint-reopen changed results"; exit 1; }
grep -q "opened .* (mapped)" "$persist_tmp/diag2.txt" \
    || { echo "default reopen did not map the checkpoint"; exit 1; }
# Planner feedback is not checkpointed, so the reopen starts from none
# and must plan exactly as the first run did: same pipeline counters.
plan_counters() {
    grep -E '^gql_(search_steps|refine_removed|retrieve_kept)_total ' "$1"
}
[ "$(plan_counters "$persist_tmp/m1.prom" | wc -l)" -eq 3 ] \
    || { echo "pipeline counters missing from --metrics"; exit 1; }
[ "$(plan_counters "$persist_tmp/m1.prom")" = "$(plan_counters "$persist_tmp/m2.prom")" ] \
    || { echo "reopen planned differently from the first run"; exit 1; }
third=$(cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data-dir "$persist_tmp/db" --verify-checkpoint 2> /dev/null)
[ "$first" = "$third" ] || { echo "--verify-checkpoint changed results"; exit 1; }
rm -rf "$persist_tmp"

echo "==> live telemetry smoke (--metrics-addr endpoints answer mid-run)"
tele_tmp=$(mktemp -d)
cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data DBLP=examples/gql/dblp_sample.gql \
    --metrics-addr 127.0.0.1:0 --metrics-linger-ms 8000 --slow-ms 0 \
    > "$tele_tmp/results.txt" 2> "$tele_tmp/diag.txt" &
tele_pid=$!
# The bound (ephemeral) address is printed to stderr as soon as the
# server is up — before the program's own work starts.
tele_addr=""
for _ in $(seq 1 100); do
    tele_addr=$(sed -n 's#^metrics server listening on http://\([^/]*\)/metrics$#\1#p' \
        "$tele_tmp/diag.txt" | head -n1)
    [ -n "$tele_addr" ] && break
    sleep 0.1
done
[ -n "$tele_addr" ] || { echo "metrics server address never appeared"; kill "$tele_pid"; exit 1; }
fetch() {
    python3 -c 'import sys, urllib.request
sys.stdout.write(urllib.request.urlopen(sys.argv[1], timeout=5).read().decode())' "http://$tele_addr$1"
}
# Scrape from outside the process while it is still running (the linger
# window guarantees it is). --slow-ms 0 logs every statement, so poll
# /slow until the run's queries show up.
tele_seen=""
for _ in $(seq 1 50); do
    if fetch /slow > "$tele_tmp/slow.json" 2>/dev/null \
        && grep -q '"id"' "$tele_tmp/slow.json"; then
        tele_seen=yes
        break
    fi
    sleep 0.1
done
[ -n "$tele_seen" ] || { echo "/slow never reflected the run"; kill "$tele_pid"; exit 1; }
fetch /metrics > "$tele_tmp/metrics.prom"
fetch /healthz > "$tele_tmp/healthz.json"
wait "$tele_pid" || { echo "telemetry run failed"; exit 1; }
grep -q 'gql_engine_flwr_seconds_count' "$tele_tmp/metrics.prom" \
    || { echo "/metrics missing engine counters"; exit 1; }
python3 -m json.tool "$tele_tmp/healthz.json" > /dev/null \
    || { echo "/healthz is not valid JSON"; exit 1; }
grep -q '"status": "ok"' "$tele_tmp/healthz.json" \
    || { echo "/healthz not ok on a healthy run"; exit 1; }
python3 -m json.tool "$tele_tmp/slow.json" > /dev/null \
    || { echo "/slow is not valid JSON"; exit 1; }
plain=$(cargo run --release -q -p gql-cli -- run examples/gql/coauthors.gql \
    --data DBLP=examples/gql/dblp_sample.gql 2> /dev/null)
[ "$(cat "$tele_tmp/results.txt")" = "$plain" ] \
    || { echo "--metrics-addr changed query results"; exit 1; }
rm -rf "$tele_tmp"

echo "==> standing benchmark builds and self-tests against this checkout"
# benchmark/ is its own workspace pinned to the library's public call
# shapes; breaking one must fail here, not in the benchmark run. The
# self-test runs every workload x metric at --quick scale and checks
# that `compare` goes red on an injected 50% slowdown.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "verify: OK"
