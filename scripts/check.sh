#!/usr/bin/env sh
# Repo health gate: formatting, lints (warnings are errors), full tests.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# same_output <label> <file-a> <file-b>: the byte-identity gate. Every
# determinism check below runs a harness twice and hands both outputs here.
same_output() {
    if ! cmp -s "$2" "$3"; then
        echo "$1: $2 and $3 differ" >&2
        diff "$2" "$3" >&2 || true
        exit 1
    fi
}

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

echo "== env-read budget (only the bench crate reads the environment) =="
# Library crates take every setting as an argument or a config field; the
# IPFS_REPRO_* knobs are read in crates/bench and nowhere else.
ENV_FILES="$(grep -rl 'env::var' crates/*/src | grep -v '^crates/bench/src/' | tr '\n' ' ')"
if [ -n "$ENV_FILES" ]; then
    echo "env-read budget: env::var outside crates/bench/src: $ENV_FILES" >&2
    exit 1
fi

echo "== cargo test =="
cargo test -q

echo "== cargo test --release (multiformats: intrinsics at benchmark opt level) =="
cargo test -q -p multiformats --release

echo "== throughput smoke (events/sec regression gate) =="
cargo build --release -q -p bench --bin throughput
IPFS_REPRO_CSV_DIR="$TMP" ./target/release/throughput --smoke \
    --check-against results/BENCH_throughput_smoke_baseline.json

echo "== PDES equivalence (serial vs sharded digest gate) =="
# The region-sharded engine must reproduce the serial total order exactly:
# a digest run (event counts, (time,key) order fingerprints, metrics
# fingerprints, bytes/node — no wall-clock values) must be byte-identical
# at IPFS_REPRO_SHARDS=1 (the exact serial path) and =6.
IPFS_REPRO_SHARDS=1 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_shards1.txt" 2> /dev/null
IPFS_REPRO_SHARDS=6 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_shards6.txt" 2> /dev/null
same_output "throughput --smoke --digest, IPFS_REPRO_SHARDS=1 vs =6" \
    "$TMP/digest_shards1.txt" "$TMP/digest_shards6.txt"

echo "== dtrace equivalence (tracing on/off digest gate) =="
# Distributed tracing + the flight recorder observe, never perturb: a
# digest run must be byte-identical with IPFS_REPRO_DTRACE unset and =1.
./target/release/throughput --smoke --digest > "$TMP/digest_dtrace_off.txt" 2> /dev/null
IPFS_REPRO_DTRACE=1 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_dtrace_on.txt" 2> /dev/null
same_output "throughput --smoke --digest, IPFS_REPRO_DTRACE unset vs =1" \
    "$TMP/digest_dtrace_off.txt" "$TMP/digest_dtrace_on.txt"

echo "== dtrace overhead (tracing throughput budget gate) =="
# The always-on flight recorder plus full tracing must keep the smoke sim
# cell at >= 0.8x the untraced events/sec (exit 1 inside the bin if not).
./target/release/throughput --overhead-check

echo "== chaos smoke (fault-injection determinism gate) =="
# The chaos harness must exit 0 and print byte-identical output whether
# its scenario cells run serially or on 4 worker threads.
cargo build --release -q -p bench --bin chaos
IPFS_REPRO_JOBS=1 ./target/release/chaos --smoke > "$TMP/chaos_j1.txt"
IPFS_REPRO_JOBS=4 ./target/release/chaos --smoke > "$TMP/chaos_j4.txt"
same_output "chaos --smoke, IPFS_REPRO_JOBS=1 vs =4" "$TMP/chaos_j1.txt" "$TMP/chaos_j4.txt"

echo "== gateway fleet smoke (determinism + requests/sec regression gate) =="
# The fleet harness must exit 0, stay byte-identical on stdout whether its
# cells run serially or on 4 workers, and hold the headline cell's
# sustained requests/sec within 0.7x of the recorded baseline.
cargo build --release -q -p bench --bin gateway_fleet
IPFS_REPRO_JOBS=1 ./target/release/gateway_fleet --smoke > "$TMP/fleet_j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 ./target/release/gateway_fleet --smoke \
    --check-against results/BENCH_gateway_fleet.json > "$TMP/fleet_j4.txt"
same_output "gateway_fleet --smoke, IPFS_REPRO_JOBS=1 vs =4" \
    "$TMP/fleet_j1.txt" "$TMP/fleet_j4.txt"

echo "== swarm smoke (determinism + goodput regression gate) =="
# The swarm-transfer harness must exit 0, stay byte-identical on stdout
# whether its cells run serially or on 4 workers, and hold the headline
# cell's events/sec within 0.7x of the recorded smoke baseline. The
# wall-clock gate rides on the serial run: the headline cell lasts a few
# milliseconds, so sharing cores with sibling cells swamps it.
cargo build --release -q -p bench --bin swarm
IPFS_REPRO_JOBS=1 ./target/release/swarm --smoke \
    --check-against results/BENCH_swarm_smoke_baseline.json > "$TMP/swarm_j1.txt"
IPFS_REPRO_JOBS=4 ./target/release/swarm --smoke > "$TMP/swarm_j4.txt" 2> /dev/null
same_output "swarm --smoke, IPFS_REPRO_JOBS=1 vs =4" "$TMP/swarm_j1.txt" "$TMP/swarm_j4.txt"

echo "== lifecycle smoke (determinism + events/sec gates) =="
# The content-lifecycle harness must exit 0 and print byte-identical
# stdout serially vs on 4 workers and with the PDES cell on 1 vs 4 shards,
# while holding the headline cell's events/sec within 0.7x of the
# recorded smoke baseline.
cargo build --release -q -p bench --bin lifecycle
IPFS_REPRO_JOBS=1 IPFS_REPRO_SHARDS=1 ./target/release/lifecycle --smoke \
    > "$TMP/lifecycle_j1.txt" 2> /dev/null
IPFS_REPRO_JOBS=4 IPFS_REPRO_SHARDS=4 ./target/release/lifecycle --smoke \
    --check-against results/BENCH_lifecycle_smoke_baseline.json > "$TMP/lifecycle_j4.txt"
same_output "lifecycle --smoke, jobs/shards 1 vs 4" \
    "$TMP/lifecycle_j1.txt" "$TMP/lifecycle_j4.txt"

echo "== latency smoke (span-attribution determinism gate) =="
# The latency-attribution harness must exit 0, emit its table + JSON, and
# print byte-identical artifacts whether cells run serially or on 4
# workers (stdout and both written files are compared).
cargo build --release -q -p bench --bin latency
IPFS_REPRO_JOBS=1 ./target/release/latency --smoke --out "$TMP/lat_j1" \
    --trace-out "$TMP/lat_j1/traces.json" > /dev/null
IPFS_REPRO_JOBS=4 ./target/release/latency --smoke --out "$TMP/lat_j4" \
    --trace-out "$TMP/lat_j4/traces.json" > /dev/null
for f in tab_latency_attribution.txt BENCH_latency.json traces.json; do
    same_output "latency --smoke $f, IPFS_REPRO_JOBS=1 vs =4" "$TMP/lat_j1/$f" "$TMP/lat_j4/$f"
done
grep -q '"dominant_component": "dht_walk"' "$TMP/lat_j1/BENCH_latency.json" || {
    echo "latency --smoke: DHT walk is not the dominant component" >&2
    exit 1
}

echo "All checks passed."
