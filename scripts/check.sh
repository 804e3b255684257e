#!/usr/bin/env sh
# Repo health gate: formatting, lints (warnings are errors), full tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== unsafe budget (one module, one allow) =="
# Every crate forbids unsafe code except multiformats, which denies it and
# re-admits exactly one module: the SHA-NI kernel (DESIGN.md §6). The word
# may not even be mentioned anywhere else under crates/*/src.
UNSAFE_FILES="$(grep -rlw unsafe crates/*/src | sort | tr '\n' ' ')"
if [ "$UNSAFE_FILES" != "crates/multiformats/src/sha256/x86.rs " ]; then
    echo "unsafe budget: expected only crates/multiformats/src/sha256/x86.rs, found: $UNSAFE_FILES" >&2
    exit 1
fi
ALLOWS="$(grep -r 'allow(unsafe_code)' crates/*/src | wc -l)"
if [ "$ALLOWS" -ne 1 ]; then
    echo "unsafe budget: expected exactly one allow(unsafe_code), found $ALLOWS" >&2
    exit 1
fi

echo "== cargo test =="
cargo test -q

echo "== cargo test --release (multiformats: intrinsics at benchmark opt level) =="
cargo test -q -p multiformats --release

echo "== throughput smoke (events/sec regression gate) =="
# The gate runs on the wheel scheduler — the default, and the one whose
# performance we ship.
cargo build --release -q -p bench --bin throughput
SMOKE_DIR="$(mktemp -d)"
IPFS_REPRO_CSV_DIR="$SMOKE_DIR" IPFS_REPRO_SCHED=wheel ./target/release/throughput --smoke \
    --check-against results/BENCH_throughput_smoke_baseline.json
rm -rf "$SMOKE_DIR"

echo "== scheduler equivalence (heap vs wheel digest gate) =="
# The timing wheel must be order-exactly equivalent to the BinaryHeap
# reference: a digest run (deterministic event/walk counts + metrics
# fingerprint, no wall-clock values) must be byte-identical under both.
SCHED_DIR="$(mktemp -d)"
IPFS_REPRO_SCHED=heap ./target/release/throughput --smoke --digest \
    > "$SCHED_DIR/heap.txt" 2> /dev/null
IPFS_REPRO_SCHED=wheel ./target/release/throughput --smoke --digest \
    > "$SCHED_DIR/wheel.txt" 2> /dev/null
if ! cmp -s "$SCHED_DIR/heap.txt" "$SCHED_DIR/wheel.txt"; then
    echo "throughput --smoke --digest differs between IPFS_REPRO_SCHED=heap and =wheel" >&2
    diff "$SCHED_DIR/heap.txt" "$SCHED_DIR/wheel.txt" >&2 || true
    rm -rf "$SCHED_DIR"
    exit 1
fi
rm -rf "$SCHED_DIR"

echo "== PDES equivalence (serial vs sharded digest gate) =="
# The region-sharded engine must reproduce the serial total order exactly:
# a digest run (event counts, (time,key) order fingerprints, metrics
# fingerprints, bytes/node — no wall-clock values) must be byte-identical
# at IPFS_REPRO_SHARDS=1 (the exact serial path) and =6.
PDES_DIR="$(mktemp -d)"
IPFS_REPRO_SHARDS=1 ./target/release/throughput --smoke --digest \
    > "$PDES_DIR/serial.txt" 2> /dev/null
IPFS_REPRO_SHARDS=6 ./target/release/throughput --smoke --digest \
    > "$PDES_DIR/sharded.txt" 2> /dev/null
if ! cmp -s "$PDES_DIR/serial.txt" "$PDES_DIR/sharded.txt"; then
    echo "throughput --smoke --digest differs between IPFS_REPRO_SHARDS=1 and =6" >&2
    diff "$PDES_DIR/serial.txt" "$PDES_DIR/sharded.txt" >&2 || true
    rm -rf "$PDES_DIR"
    exit 1
fi
rm -rf "$PDES_DIR"

echo "== dtrace equivalence (tracing on/off digest gate) =="
# Distributed tracing + the flight recorder observe, never perturb: a
# digest run must be byte-identical with IPFS_REPRO_DTRACE unset and =1.
DT_DIR="$(mktemp -d)"
./target/release/throughput --smoke --digest > "$DT_DIR/off.txt" 2> /dev/null
IPFS_REPRO_DTRACE=1 ./target/release/throughput --smoke --digest \
    > "$DT_DIR/on.txt" 2> /dev/null
if ! cmp -s "$DT_DIR/off.txt" "$DT_DIR/on.txt"; then
    echo "throughput --smoke --digest differs between IPFS_REPRO_DTRACE unset and =1" >&2
    diff "$DT_DIR/off.txt" "$DT_DIR/on.txt" >&2 || true
    rm -rf "$DT_DIR"
    exit 1
fi
rm -rf "$DT_DIR"

echo "== dtrace overhead (tracing throughput budget gate) =="
# The always-on flight recorder plus full tracing must keep the smoke sim
# cell at >= 0.8x the untraced events/sec (exit 1 inside the bin if not).
./target/release/throughput --overhead-check

echo "== chaos smoke (fault-injection determinism gate) =="
# The chaos harness must exit 0 and print byte-identical output whether
# its scenario cells run serially or on 4 worker threads.
cargo build --release -q -p bench --bin chaos
CHAOS_DIR="$(mktemp -d)"
IPFS_REPRO_JOBS=1 ./target/release/chaos --smoke > "$CHAOS_DIR/j1.txt"
IPFS_REPRO_JOBS=4 ./target/release/chaos --smoke > "$CHAOS_DIR/j4.txt"
if ! cmp -s "$CHAOS_DIR/j1.txt" "$CHAOS_DIR/j4.txt"; then
    echo "chaos --smoke output differs between IPFS_REPRO_JOBS=1 and =4" >&2
    diff "$CHAOS_DIR/j1.txt" "$CHAOS_DIR/j4.txt" >&2 || true
    rm -rf "$CHAOS_DIR"
    exit 1
fi
rm -rf "$CHAOS_DIR"

echo "== gateway fleet smoke (determinism + requests/sec regression gate) =="
# The fleet harness must exit 0, stay byte-identical on stdout whether its
# cells run serially or on 4 workers, and hold the headline cell's
# sustained requests/sec within 0.7x of the recorded baseline.
cargo build --release -q -p bench --bin gateway_fleet
FLEET_DIR="$(mktemp -d)"
IPFS_REPRO_JOBS=1 ./target/release/gateway_fleet --smoke > "$FLEET_DIR/j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 ./target/release/gateway_fleet --smoke \
    --check-against results/BENCH_gateway_fleet.json > "$FLEET_DIR/j4.txt"
if ! cmp -s "$FLEET_DIR/j1.txt" "$FLEET_DIR/j4.txt"; then
    echo "gateway_fleet --smoke output differs between IPFS_REPRO_JOBS=1 and =4" >&2
    diff "$FLEET_DIR/j1.txt" "$FLEET_DIR/j4.txt" >&2 || true
    rm -rf "$FLEET_DIR"
    exit 1
fi
rm -rf "$FLEET_DIR"

echo "== swarm smoke (determinism + goodput regression gate) =="
# The swarm-transfer harness must exit 0, stay byte-identical on stdout
# whether its cells run serially or on 4 workers, and hold the headline
# cell's events/sec within 0.7x of the recorded smoke baseline. The
# wall-clock gate rides on the serial run: the headline cell lasts a few
# milliseconds, so sharing cores with sibling cells swamps it.
cargo build --release -q -p bench --bin swarm
SWARM_DIR="$(mktemp -d)"
IPFS_REPRO_JOBS=1 ./target/release/swarm --smoke \
    --check-against results/BENCH_swarm_smoke_baseline.json > "$SWARM_DIR/j1.txt"
IPFS_REPRO_JOBS=4 ./target/release/swarm --smoke > "$SWARM_DIR/j4.txt" 2> /dev/null
if ! cmp -s "$SWARM_DIR/j1.txt" "$SWARM_DIR/j4.txt"; then
    echo "swarm --smoke output differs between IPFS_REPRO_JOBS=1 and =4" >&2
    diff "$SWARM_DIR/j1.txt" "$SWARM_DIR/j4.txt" >&2 || true
    rm -rf "$SWARM_DIR"
    exit 1
fi
rm -rf "$SWARM_DIR"

echo "== lifecycle smoke (determinism + expiry-mode + events/sec gates) =="
# The content-lifecycle harness must exit 0 and print byte-identical
# stdout (a) serially vs on 4 workers, (b) with the PDES cell on 1 vs 4
# shards, and (c) with wheel vs reference-scan provider expiry — while
# holding the headline cell's events/sec within 0.7x of the recorded
# smoke baseline.
cargo build --release -q -p bench --bin lifecycle
LIFE_DIR="$(mktemp -d)"
IPFS_REPRO_JOBS=1 IPFS_REPRO_SHARDS=1 ./target/release/lifecycle --smoke \
    > "$LIFE_DIR/j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 IPFS_REPRO_SHARDS=4 ./target/release/lifecycle --smoke \
    --check-against results/BENCH_lifecycle_smoke_baseline.json > "$LIFE_DIR/j4.txt"
if ! cmp -s "$LIFE_DIR/j1.txt" "$LIFE_DIR/j4.txt"; then
    echo "lifecycle --smoke output differs between jobs/shards 1 and 4" >&2
    diff "$LIFE_DIR/j1.txt" "$LIFE_DIR/j4.txt" >&2 || true
    rm -rf "$LIFE_DIR"
    exit 1
fi
IPFS_REPRO_EXPIRY=scan ./target/release/lifecycle --smoke \
    > "$LIFE_DIR/scan.txt" 2> /dev/null
# The wheel's slot bookkeeping is real memory the scan path doesn't
# allocate, so the "node state" bytes_estimate legitimately differs;
# every semantic line (records, messages, availability, digests) must
# still match exactly.
sed 's/; node state: .*$//' "$LIFE_DIR/j1.txt" > "$LIFE_DIR/j1.sem.txt"
sed 's/; node state: .*$//' "$LIFE_DIR/scan.txt" > "$LIFE_DIR/scan.sem.txt"
if ! cmp -s "$LIFE_DIR/j1.sem.txt" "$LIFE_DIR/scan.sem.txt"; then
    echo "lifecycle --smoke output differs between IPFS_REPRO_EXPIRY wheel and scan" >&2
    diff "$LIFE_DIR/j1.sem.txt" "$LIFE_DIR/scan.sem.txt" >&2 || true
    rm -rf "$LIFE_DIR"
    exit 1
fi
rm -rf "$LIFE_DIR"

echo "== latency smoke (span-attribution determinism gate) =="
# The latency-attribution harness must exit 0, emit its table + JSON, and
# print byte-identical artifacts whether cells run serially or on 4
# workers (stdout and both written files are compared).
cargo build --release -q -p bench --bin latency
LAT_DIR="$(mktemp -d)"
IPFS_REPRO_JOBS=1 ./target/release/latency --smoke --out "$LAT_DIR/j1" \
    --trace-out "$LAT_DIR/j1/traces.json" > /dev/null
IPFS_REPRO_JOBS=4 ./target/release/latency --smoke --out "$LAT_DIR/j4" \
    --trace-out "$LAT_DIR/j4/traces.json" > /dev/null
for f in tab_latency_attribution.txt BENCH_latency.json traces.json; do
    if ! cmp -s "$LAT_DIR/j1/$f" "$LAT_DIR/j4/$f"; then
        echo "latency --smoke $f differs between IPFS_REPRO_JOBS=1 and =4" >&2
        diff "$LAT_DIR/j1/$f" "$LAT_DIR/j4/$f" >&2 || true
        rm -rf "$LAT_DIR"
        exit 1
    fi
done
grep -q '"dominant_component": "dht_walk"' "$LAT_DIR/j1/BENCH_latency.json" || {
    echo "latency --smoke: DHT walk is not the dominant component" >&2
    rm -rf "$LAT_DIR"
    exit 1
}
rm -rf "$LAT_DIR"

echo "All checks passed."
