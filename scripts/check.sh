#!/usr/bin/env sh
# Repo health gate: formatting, lints (warnings are errors), full tests,
# budgets, and every byte-identity / digest gate. Every verdict here is
# host-independent; "did this change make anything slower" is answered by
# `ipfs-benchmark suite` + `compare` (DESIGN.md §7), never by a number
# recorded on another machine.
# Run from anywhere; operates on the workspace root.
set -eu

cd "$(dirname "$0")/.."

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

# gate <title>: prints the elapsed seconds of the gate that just ended and
# opens the next one (an empty title only closes).
START="$(date +%s)"
GATE=""
gate() {
    now="$(date +%s)"
    [ -z "$GATE" ] || echo "-- $GATE: $((now - GATE_START)) s"
    GATE="$1"
    GATE_START="$now"
    [ -z "$GATE" ] || echo "== $GATE =="
}

# same_output <label> <file-a> <file-b>: the byte-identity gate. Every
# determinism check below hands its two outputs here.
same_output() {
    if ! cmp -s "$2" "$3"; then
        echo "$1: $2 and $3 differ" >&2
        diff "$2" "$3" >&2 || true
        exit 1
    fi
}

# results_hashes <file>: one "sha256  path" line per file under results/,
# so a harness that writes over a committed recording is caught by name.
results_hashes() {
    find results -type f | LC_ALL=C sort | xargs sha256sum > "$1"
}

gate "cargo fmt --check"
cargo fmt --check

gate "cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

gate "unsafe budget (one module, one allow)"
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

gate "env-read budget (one file reads the environment)"
# Library crates take every setting as an argument or a config field; the
# IPFS_REPRO_* knobs are parsed once, by bench::RunConfig, and nowhere else.
ENV_FILES="$(grep -rl 'env::var' crates/*/src | sort | tr '\n' ' ')"
if [ "$ENV_FILES" != "crates/bench/src/runner.rs " ]; then
    echo "env-read budget: expected env::var only in crates/bench/src/runner.rs, found: $ENV_FILES" >&2
    exit 1
fi

gate "config-surface budget (settable library config fields)"
# A config field exists only where a shipped caller sets a non-default
# value; calibration values no caller varies are documented constants
# (DESIGN.md §7). This counts the pub fields of every top-level
# `pub struct *Config` / `*Model` under crates/*/src, outside crates/bench.
# A change that needs a new knob raises the number and says why.
CONFIG_FIELDS="$(find crates/*/src -name '*.rs' -not -path 'crates/bench/*' | sort |
    xargs awk '/^pub struct [A-Za-z0-9_]*(Config|Model) [{]/ { inside = 1; next }
        inside && /^}/ { inside = 0 }
        inside && /^    pub / { n++ }
        END { print n + 0 }')"
if [ "$CONFIG_FIELDS" -ne 69 ]; then
    echo "config-surface budget: expected 69 settable config fields, found $CONFIG_FIELDS" >&2
    exit 1
fi

# Every gate from here on runs the program; none may rewrite results/.
results_hashes "$TMP/results_before.txt"

gate "cargo test"
cargo test -q

gate "cargo test --release (multiformats: intrinsics at benchmark opt level)"
cargo test -q -p multiformats --release

gate "benchmark package tests (the compile contract with the library crates)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

gate "benchmark workloads (0 failed, pinned rep-0 digests)"
# A digest is a pure function of the seed and the simulated behaviour, so
# this holds on any host. One that moves means library behaviour changed:
# say so in the PR, never re-record it to get this gate green.
while read -r workload digest; do
    line="$(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml \
        --bin ipfs-benchmark -- --workload "$workload" --seed 3 --seconds 0 --trace 0 \
        | grep "^$workload:" || true)"
    case "$line" in
    *", 0 failed, digest of rep 0 $digest") ;;
    *)
        echo "benchmark $workload: want 0 failed and digest $digest, got: $line" >&2
        exit 1
        ;;
    esac
done << EOF
dht_perf 491b659e8b6030ac
swarm_fetch d2b7454540a4a060
gateway_day 402c46cd753c6540
reprovide_sweep 9b6a798fd7220c21
pdes_world 62de5182dea1a7d6
EOF

gate "build the harness bins"
cargo build --release -q -p bench --bin throughput --bin lifecycle --bin paper

gate "paper artifacts (results/*.txt regenerate byte-identically)"
# The committed files are written at IPFS_REPRO_JOBS=1; this run uses 4
# workers, so it also checks that every artifact is jobs-invariant — the
# harness artifacts (chaos, gateway_fleet, swarm, tab_latency_attribution)
# included, at full small scale.
IPFS_REPRO_SEED=2022 IPFS_REPRO_SCALE=small IPFS_REPRO_JOBS=4 ./target/release/paper \
    --out "$TMP/paper" > /dev/null 2> /dev/null
for f in "$TMP"/paper/*.txt; do
    same_output "paper $(basename "$f" .txt) vs results/" "results/$(basename "$f")" "$f"
done

gate "knobs fail loudly (a rejected value exits 2)"
# The cheapest artifact: the knob is parsed before any artifact runs.
if IPFS_REPRO_SCALE=Paper ./target/release/paper --only fig06_geo_users \
    > /dev/null 2> "$TMP/knob.err" ||
    [ $? -ne 2 ] || ! grep -q 'IPFS_REPRO_SCALE="Paper"' "$TMP/knob.err"; then
    echo "knobs: IPFS_REPRO_SCALE=Paper must exit 2 naming the knob and the value" >&2
    exit 1
fi

gate "PDES equivalence (serial vs sharded digest gate)"
# The region-sharded engine must reproduce the serial total order exactly:
# a digest run (event counts, (time,key) order fingerprints, metrics
# fingerprints, bytes/node — no wall-clock values) must be byte-identical
# at IPFS_REPRO_SHARDS=1 (the exact serial path) and =6, tracing off.
IPFS_REPRO_SHARDS=1 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_shards1.txt" 2> /dev/null
IPFS_REPRO_SHARDS=6 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_shards6.txt" 2> /dev/null
same_output "throughput --smoke --digest, IPFS_REPRO_SHARDS=1 vs =6" \
    "$TMP/digest_shards1.txt" "$TMP/digest_shards6.txt"

gate "dtrace equivalence (tracing on/off digest gate)"
# Distributed tracing + the flight recorder observe, never perturb: the
# sharded digest run above must be byte-identical with IPFS_REPRO_DTRACE=1.
IPFS_REPRO_SHARDS=6 IPFS_REPRO_DTRACE=1 ./target/release/throughput --smoke --digest \
    > "$TMP/digest_shards6_dtrace.txt" 2> /dev/null
same_output "throughput --smoke --digest, IPFS_REPRO_SHARDS=6, IPFS_REPRO_DTRACE unset vs =1" \
    "$TMP/digest_shards6.txt" "$TMP/digest_shards6_dtrace.txt"

gate "dtrace overhead (tracing throughput budget, both sides measured in this run)"
# The always-on flight recorder plus full tracing must keep the smoke sim
# cell at >= 0.8x the untraced events/sec (exit 1 inside the bin if not).
./target/release/throughput --overhead-check

gate "throughput smoke (every section runs and exports)"
# Both sections — the netsim sim cell and the sharded pdes cells — run at
# smoke size and write BENCH_throughput.json. Per-layer numbers are not
# timed here: they are the probes of `ipfs-benchmark --trace 1`.
IPFS_REPRO_CSV_DIR="$TMP/bench" ./target/release/throughput --smoke > /dev/null

gate "lifecycle smoke (determinism gate, jobs and shards)"
# The --smoke run must exit 0 and print byte-identical stdout serially and
# on 4 workers / 4 PDES shards.
for n in 1 4; do
    IPFS_REPRO_JOBS=$n IPFS_REPRO_SHARDS=$n ./target/release/lifecycle --smoke \
        > "$TMP/lifecycle_j$n.txt" 2> /dev/null
done
same_output "lifecycle --smoke, jobs/shards 1 vs 4" "$TMP/lifecycle_j1.txt" "$TMP/lifecycle_j4.txt"

gate "committed artifacts (results/ unchanged by every gate above)"
results_hashes "$TMP/results_after.txt"
CHANGED="$(diff "$TMP/results_before.txt" "$TMP/results_after.txt" |
    sed -n 's/^[<>] [0-9a-f]*  //p' | LC_ALL=C sort -u | tr '\n' ' ')"
if [ -n "$CHANGED" ]; then
    echo "committed artifacts: these files under results/ changed: $CHANGED" >&2
    exit 1
fi

gate ""
echo "All checks passed in $(($(date +%s) - START)) s."
