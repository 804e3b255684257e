#!/usr/bin/env sh
# Alternating A/B of two ipfs-benchmark binaries on one workload and seed.
#
#   scripts/ab.sh PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS [SECONDS] [--quick]
#
# Runs PAIRS pairs of `--workload WORKLOAD --seed SEED --seconds SECONDS
# --trace 0` (SECONDS defaults to 15). Odd pairs run the parent first, even
# pairs the change first, so drift of the host during the measurement lands
# on both sides instead of on whichever side ran last. Prints each run's four
# end-to-end metrics and its rep-0 digest, then each side's medians and how
# many pairs the change won per metric. Exits 1 if a run is incorrect,
# reports failed ops, or if the two sides' digests differ; 2 on bad usage.
set -eu

usage() {
    echo "usage: $0 PARENT_BIN CHANGE_BIN WORKLOAD SEED PAIRS [SECONDS] [--quick]" >&2
    exit 2
}
[ $# -ge 5 ] || usage
PARENT="$1"
CHANGE="$2"
WORKLOAD="$3"
SEED="$4"
PAIRS="$5"
shift 5
RUN_SECONDS=15
QUICK=""
for arg in "$@"; do
    case "$arg" in
    --quick) QUICK="--quick" ;;
    "" | *[!0-9.]*) usage ;;
    *) RUN_SECONDS="$arg" ;;
    esac
done
case "$SEED$PAIRS" in "" | *[!0-9]*) usage ;; esac
[ "$PAIRS" -ge 1 ] || usage

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# One line per run: pair side correct failed digest setup_s run_s ops_per_s peak_rss_mib
RUNS="$TMP/runs.txt"
: > "$RUNS"

# field <json-line> <name>: the scalar after `"name": ` (a metric's value).
field() {
    printf '%s\n' "$1" | sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p;t;s/.*\"$2\": \([^,}]*\).*/\1/p"
}

# run <pair> <side> <binary>
run() {
    out="$TMP/out.txt"
    # A nonzero exit is an incorrect run; the result line says so too.
    "$3" --workload "$WORKLOAD" --seed "$SEED" --seconds "$RUN_SECONDS" --trace 0 $QUICK \
        > "$out" 2> "$TMP/err.txt" || true
    result="$(grep '^{"correct"' "$out" | tail -n 1)"
    if [ -z "$result" ]; then
        echo "pair $1 $2: no result line from $3" >&2
        cat "$TMP/err.txt" >&2
        echo "$1 $2 false - - - - - -" >> "$RUNS"
        return
    fi
    digest="$(sed -n 's/.*digest of rep 0 \([0-9a-f]*\).*/\1/p' "$out" | head -n 1)"
    line="$1 $2 $(field "$result" correct) $(field "$result" failed) ${digest:--}"
    for m in setup_s run_s ops_per_s peak_rss_mib; do
        line="$line $(field "$result" $m)"
    done
    echo "$line" >> "$RUNS"
    echo "$line" | awk '{ printf "pair %s %-6s correct=%s failed=%s digest=%s setup_s=%s run_s=%s ops_per_s=%s peak_rss_mib=%s\n", $1, $2, $3, $4, $5, $6, $7, $8, $9 }'
}

echo "== ab: $WORKLOAD seed $SEED, $PAIRS pairs of ${RUN_SECONDS} s${QUICK:+ (quick)}"
k=1
while [ "$k" -le "$PAIRS" ]; do
    if [ $((k % 2)) -eq 1 ]; then
        run "$k" parent "$PARENT"
        run "$k" change "$CHANGE"
    else
        run "$k" change "$CHANGE"
        run "$k" parent "$PARENT"
    fi
    k=$((k + 1))
done

# median <side> <column>
median() {
    awk -v side="$1" -v col="$2" '$2 == side && $col != "-" { print $col }' "$RUNS" | sort -g |
        awk '{ v[NR] = $1 } END { if (NR == 0) print "-"; else if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# wins <column> <lower|higher>: pairs where the change beat the parent.
wins() {
    awk -v col="$1" -v better="$2" '
        $2 == "parent" { p[$1] = $col }
        $2 == "change" { c[$1] = $col }
        END {
            n = 0
            for (k in p) if ((k in c) && p[k] != "-" && c[k] != "-") {
                if (better == "lower" && c[k] + 0 < p[k] + 0) n++
                if (better == "higher" && c[k] + 0 > p[k] + 0) n++
            }
            print n
        }' "$RUNS"
}

echo "== medians (parent -> change) and pairs the change won"
col=6
for spec in setup_s:lower run_s:lower ops_per_s:higher peak_rss_mib:lower; do
    name="${spec%%:*}"
    better="${spec#*:}"
    printf '%-13s %s -> %s  (%s better; change won %s of %s)\n' "$name" \
        "$(median parent $col)" "$(median change $col)" "$better" "$(wins $col "$better")" "$PAIRS"
    col=$((col + 1))
done

status=0
if awk '$3 != "true" { bad = 1 } END { exit !bad }' "$RUNS"; then
    echo "ab: an incorrect run (see above)" >&2
    status=1
fi
if awk '$4 != "0" { bad = 1 } END { exit !bad }' "$RUNS"; then
    echo "ab: a run reported failed ops" >&2
    status=1
fi
if [ "$(awk '$2 == "parent" { print $5 }' "$RUNS" | sort -u)" != \
    "$(awk '$2 == "change" { print $5 }' "$RUNS" | sort -u)" ]; then
    echo "ab: the rep-0 digests differ between the sides" >&2
    status=1
fi
exit "$status"
