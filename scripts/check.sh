#!/usr/bin/env bash
# Tier-1 gate: formatting, lints, and the full offline test suite.
# Run from anywhere; operates on the workspace that contains this script.
# Each phase reports its wall-clock time; the summary repeats them all.
set -euo pipefail
cd "$(dirname "$0")/.."

PHASES=()
TIMES=()

run_phase() {
    local name="$1"
    shift
    echo "== $name =="
    local start end
    start=$(date +%s)
    "$@"
    end=$(date +%s)
    PHASES+=("$name")
    TIMES+=("$((end - start))")
    echo "-- $name: $((end - start))s"
}

run_phase "cargo fmt --check" cargo fmt --all -- --check
run_phase "cargo clippy (warnings are errors)" \
    cargo clippy --workspace --all-targets --offline -- -D warnings
run_phase "cargo test (offline)" cargo test --workspace -q --offline

# Observability: the obs unit tests plus the cross-crate instrumentation
# test, then a smoke check that `txdb metrics --json` emits parseable JSON.
obs_tests() {
    cargo test -q --offline -p txdb-base obs::
    cargo test -q --offline -p temporal-xml --test observability
}
run_phase "observability tests" obs_tests

metrics_smoke() {
    local dir out
    dir=$(mktemp -d)
    echo '<g><r><n>Napoli</n><p>15</p></r></g>' > "$dir/v.xml"
    cargo run -q --offline -p txdb-cli -- \
        --db "$dir/db" put guide "$dir/v.xml" --at 01/01/2001 > /dev/null
    out="$dir/metrics.json"
    cargo run -q --offline -p txdb-cli -- --db "$dir/db" metrics --json > "$out"
    if command -v python3 > /dev/null 2>&1; then
        python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert 'counters' in d and 'histograms' in d, d.keys()" "$out"
    else
        grep -q '"counters"' "$out" && grep -q '"histograms"' "$out"
    fi
    rm -rf "$dir"
}
run_phase "txdb metrics --json smoke" metrics_smoke

# Examples: clippy compiles them, this runs them to completion. The
# library surface they drive is otherwise untested end to end, and
# `web_warehouse` is the one user-facing reader of the on-demand §7.2
# delta-content index (`DeltaContentIndex::build`).
examples_smoke() {
    local example
    for example in quickstart restaurant_guide news_archive web_warehouse; do
        cargo run -q --offline --example "$example" > /dev/null
    done
}
run_phase "examples run to completion" examples_smoke

# Crash robustness: the seeded checkpoint-interior sweep proves a crash at
# any file-system operation inside a checkpoint flush recovers the exact
# committed history, and a fault-injected open (torn WAL tail + unsealed
# journal residue) must expose the journal-replay counter in the metrics.
crash_sweep() {
    cargo test -q --offline --test crashpoints checkpoint_interior
    local dir out
    dir=$(mktemp -d)
    echo '<g><r><n>Napoli</n></r></g>' > "$dir/v.xml"
    cargo run -q --offline -p txdb-cli -- \
        --db "$dir/db" put guide "$dir/v.xml" --at 01/01/2001 > /dev/null
    printf 'torn-journal-residue' > "$dir/db/journal.db"
    printf '\xde\xad\xbe' >> "$dir/db/wal.log"
    out="$dir/metrics.json"
    cargo run -q --offline -p txdb-cli -- --db "$dir/db" metrics --json > "$out"
    if command -v python3 > /dev/null 2>&1; then
        python3 -c "import json,sys; d=json.load(open(sys.argv[1])); \
assert 'recovery.journal_replays' in d['counters'], sorted(d['counters'])" "$out"
    else
        grep -q '"recovery.journal_replays"' "$out"
    fi
    rm -rf "$dir"
}
run_phase "crash sweep + journal metrics" crash_sweep

# Concurrency: the dedicated stress/differential suite (shared-handle
# readers vs serial replay, pinned snapshots fencing vacuum, racing
# writers + vacuum, durable group commit whose batch histogram accounts
# for every commit).
concurrency_stress() {
    cargo test -q --offline -p temporal-xml --test concurrency
}
run_phase "concurrency stress + differential" concurrency_stress

# One maintenance path: over 1500 generated histories of puts, deletes,
# vacuums and checkpoints (`cargo test` runs 10), a live handle, a
# checkpoint-loaded reopen and a full replay give the same postings and
# element lifetimes, and CREATETIME/DELETETIME agree by index and by
# delta traversal for every element of every surviving version.
index_equivalence() {
    cargo test -q --offline -p temporal-xml --test props \
        checkpoint_load_equals_full_replay_1500 -- --ignored
}
run_phase "index equivalence (1500 cases)" index_equivalence

# Server: boot `txdb serve` on an ephemeral port with stdin held open
# (stdin EOF is the host-side drain trigger), drive one scripted wire
# session end to end — PUT, temporal QUERY, EXPLAIN ANALYZE, PIN/UNPIN,
# METRICS, an error probe, SHUTDOWN — then require a graceful drain and
# a clean fsck with no WAL tail left behind.
server_smoke() {
    if ! command -v python3 > /dev/null 2>&1; then
        echo "  (python3 not found; skipping the wire session)"
        return 0
    fi
    local dir log addr srv holder
    dir=$(mktemp -d)
    log="$dir/serve.log"
    mkfifo "$dir/stdin"
    # Keep the fifo's write end open so serve only drains on SHUTDOWN.
    sleep 600 > "$dir/stdin" &
    holder=$!
    cargo run -q --offline -p txdb-cli -- \
        serve "$dir/db" --addr 127.0.0.1:0 < "$dir/stdin" > "$log" &
    srv=$!
    for _ in $(seq 1 300); do
        grep -q 'listening on' "$log" 2> /dev/null && break
        sleep 0.1
    done
    addr=$(grep -o 'listening on [0-9.:]*' "$log" | awk '{print $3}')
    test -n "$addr"
    python3 - "$addr" <<'PYEOF'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=20)
f = s.makefile("rw", encoding="utf-8", newline="\n")

def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()

def recv():
    line = f.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)

send({"cmd": "PING"})
r = recv(); assert r["ok"] and r["pong"], r
send({"cmd": "PUT", "doc": "guide",
      "xml": "<g><r><n>Napoli</n><p>15</p></r></g>", "at": 1000000})
r = recv(); assert r["ok"] and r["changed"] and r["version"] == 0, r
send({"cmd": "PUT", "doc": "guide",
      "xml": "<g><r><n>Napoli</n><p>18</p></r></g>", "at": 2000000})
r = recv(); assert r["ok"] and r["version"] == 1, r
send({"cmd": "PIN", "at": 1000000})
r = recv(); assert r["ok"], r
pin = r["pin"]
send({"cmd": "QUERY",
      "q": 'SELECT TIME(R), R/p FROM doc("guide")[EVERY]//r R',
      "at": 2000000})
rows = []
while True:
    r = recv()
    if "ok" in r:
        break
    rows.append(r["row"])
assert r["ok"] and r["rows"] == 2 and len(rows) == 2, (r, rows)
assert "<p>15</p>" in "".join(rows[0]), rows
send({"cmd": "QUERY", "q": 'EXPLAIN ANALYZE SELECT R/p FROM doc("guide")//r R'})
saw_explain = False
while True:
    r = recv()
    saw_explain = saw_explain or "explain" in r
    if "ok" in r:
        break
assert r["ok"] and saw_explain, r
send({"cmd": "UNPIN", "pin": pin})
r = recv(); assert r["ok"] and r["released"], r
send({"cmd": "METRICS"})
r = recv()
assert r["ok"] and "server.requests" in r["metrics"]["counters"], \
    sorted(r["metrics"]["counters"])
send({"cmd": "nope"})
r = recv(); assert not r["ok"] and r["error"]["code"] == "bad_request", r
send({"cmd": "SHUTDOWN"})
r = recv(); assert r["ok"] and r["draining"], r
s.close()
PYEOF
    wait "$srv"
    kill "$holder" 2> /dev/null || true
    grep -q 'drained' "$log"
    cargo run -q --offline -p txdb-cli -- --db "$dir/db" fsck > "$dir/fsck.out"
    grep -q 'bad pages:        0' "$dir/fsck.out"
    grep -q 'wal records:      0' "$dir/fsck.out"
    rm -rf "$dir"
}
run_phase "server smoke (wire session + drain)" server_smoke

# Observability over the wire: serve with `--slow-ms 0` so every query
# crosses the slow threshold, issue a traced QUERY, and require (a) a
# span tree in the done frame rooted at the request span in which no
# child ever outlasts its parent, (b) the query in SLOWLOG with its
# EXPLAIN ANALYZE plan attached and the matching trace id, (c) the trace
# in TRACES, and (d) a METRICS delta window via the since-cursor; then a
# graceful drain and a clean fsck.
obs_trace_smoke() {
    if ! command -v python3 > /dev/null 2>&1; then
        echo "  (python3 not found; skipping the traced wire session)"
        return 0
    fi
    local dir log addr srv holder
    dir=$(mktemp -d)
    log="$dir/serve.log"
    mkfifo "$dir/stdin"
    sleep 600 > "$dir/stdin" &
    holder=$!
    cargo run -q --offline -p txdb-cli -- \
        serve "$dir/db" --addr 127.0.0.1:0 --slow-ms 0 < "$dir/stdin" > "$log" &
    srv=$!
    for _ in $(seq 1 300); do
        grep -q 'listening on' "$log" 2> /dev/null && break
        sleep 0.1
    done
    addr=$(grep -o 'listening on [0-9.:]*' "$log" | awk '{print $3}')
    test -n "$addr"
    python3 - "$addr" <<'PYEOF'
import json, socket, sys

host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=20)
f = s.makefile("rw", encoding="utf-8", newline="\n")

def send(obj):
    f.write(json.dumps(obj) + "\n")
    f.flush()

def recv():
    line = f.readline()
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)

send({"cmd": "PUT", "doc": "guide",
      "xml": "<g><r><n>Napoli</n><p>15</p></r></g>", "at": 1000000})
r = recv(); assert r["ok"], r
send({"cmd": "QUERY", "q": 'SELECT R/p FROM doc("guide")[EVERY]//r R',
      "at": 2000000, "trace": True})
rows = []
while True:
    r = recv()
    if "ok" in r:
        break
    rows.append(r["row"])
assert r["ok"] and r["rows"] == 1, r
trace = r.get("trace")
assert trace and trace.get("spans"), r

def check(span, parent_us=None):
    us = span["us"]
    if parent_us is not None:
        assert us <= parent_us, (span["name"], us, parent_us)
    return 1 + sum(check(c, us) for c in span.get("children", []))

assert len(trace["spans"]) == 1, trace
root = trace["spans"][0]
assert root["name"] == "server.cmd.query_us", root
assert check(root) >= 3, trace
assert trace["fields"]["cmd"] == "query", trace

send({"cmd": "SLOWLOG"})
r = recv()
assert r["ok"] and r["slow_us"] == 0, r
entries = r["entries"]
assert entries and "SELECT" in entries[0]["q"], entries
assert "scan" in entries[0]["explain"], entries[0]
assert entries[0]["trace_id"] == trace["trace_id"], (entries[0], trace)

send({"cmd": "TRACES", "limit": 5})
r = recv()
assert r["ok"] and r["traces"], r
assert r["traces"][0]["trace"]["trace_id"] == trace["trace_id"], r

send({"cmd": "METRICS"})
r = recv(); assert r["ok"] and "cursor" in r and "delta" not in r, r
cur = r["cursor"]
send({"cmd": "METRICS", "since": cur})
r = recv()
assert r["ok"] and r["window_us"] > 0, r
assert r["delta"]["counters"].get("server.requests", 0) >= 1, r["delta"]
assert "server.cmd.metrics_us" in r["delta"]["histograms"], r["delta"]

send({"cmd": "SHUTDOWN"})
r = recv(); assert r["ok"] and r["draining"], r
s.close()
PYEOF
    wait "$srv"
    kill "$holder" 2> /dev/null || true
    grep -q 'drained' "$log"
    cargo run -q --offline -p txdb-cli -- --db "$dir/db" fsck > "$dir/fsck.out"
    grep -q 'bad pages:        0' "$dir/fsck.out"
    grep -q 'wal records:      0' "$dir/fsck.out"
    rm -rf "$dir"
}
run_phase "obs trace smoke (slow log + span tree)" obs_trace_smoke

# txbench: its own tests (same seed ⇒ same lists, span invariants,
# BENCHMARK.json ≡ harness), then every workload in quick mode. Each run
# checks its warm-up answers against the stratum oracle and every wire
# answer byte for byte against the in-process one; any wrong answer
# (`correct:false`) or failed operation fails the gate.
txbench_smoke() {
    cargo test -q --offline --manifest-path txbench/Cargo.toml
    local workload out
    for workload in snap_hot snap_cold history_scan ingest_churn; do
        out=$(cargo run --release --offline --quiet --manifest-path txbench/Cargo.toml -- \
            --workload "$workload" --quick | tail -n 1)
        echo "  $workload: $out" | cut -c1-160
        grep -q '"correct":true' <<< "$out"
        grep -q '"failed":0,' <<< "$out"
    done
}
run_phase "txbench tests + all workloads --quick" txbench_smoke

# Put-path bookkeeping: E10 asserts that deleting one of 150 siblings is
# one op, and along a TDocGen stream that never reorders it counts the
# moves per put — a Move cascade (30+ per put before the LIS alignment)
# shows here — and the B-tree pages decoded into entry vectors per put,
# which only a split does (35 per put when every lookup decoded its path).
put_path_counters() {
    local out moves decodes
    out=$(cargo run -q --offline -p txdb-bench --bin experiments -- e10)
    moves=$(grep 'moves per put' <<< "$out")
    decodes=$(grep 'B-tree page decodes per put' <<< "$out")
    echo "  $moves"
    echo "  $decodes"
    awk '{ exit !($NF < 5) }' <<< "$moves"
    awk '{ exit !($NF <= 1) }' <<< "$decodes"
}
run_phase "put-path counters (experiments e10)" put_path_counters

# Read-path work: one [EVERY] query over E9's 129-version document on a
# cold version cache. The executor walks the history forward once, so the
# version cache takes at most the walk's seed and the query applies at
# most two deltas per version (the seed's backward chain, then one forward
# step each). Per-version point reconstruction, or caching every version
# the scan touches, fails here (131 inserts when the executor did that).
read_path_counters() {
    local out line
    out=$(cargo run -q --offline -p txdb-bench --bin experiments -- e9)
    line=$(grep '^ *every-cold' <<< "$out")
    echo "  query versions rows recon deltas vcache.ins reseeds us"
    echo "  $line"
    awk '{ exit !($6 <= 1 && $5 <= 2 * $2) }' <<< "$line"
}
run_phase "read-path counters (experiments e9)" read_path_counters

echo "== OK =="
for i in "${!PHASES[@]}"; do
    printf '  %-38s %ss\n' "${PHASES[$i]}" "${TIMES[$i]}"
done
