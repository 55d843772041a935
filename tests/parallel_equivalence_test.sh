#!/usr/bin/env bash
# End-to-end determinism check for the parallel sweep engine: every
# sweep-mode output (stdout, --stats-json with --stable-json) must be
# byte-identical at --jobs 1 and --jobs 4 — including a run truncated
# by the deterministic --sigterm-after cell-count trigger.  Also
# checks the --jobs input contract and, on hosts whose measured
# parallelism is at least 3, that parallel sweeps actually run faster.
#
# Usage: parallel_equivalence_test.sh <membw_sim> <membw_decompose> \
#            <fig4_traffic_curves>
set -u

SIM="$1"
DECOMP="$2"
FIG4="$3"
DIR="$(mktemp -d)"
trap 'rm -rf "$DIR"' EXIT
cd "$DIR"

fail() {
    echo "FAIL: $*" >&2
    exit 1
}

expect_exit() {
    local want="$1"
    shift
    "$@" >/dev/null 2>&1
    local got=$?
    [ "$got" -eq "$want" ] ||
        fail "expected exit $want from '$*', got $got"
}

# --- membw_sim sweep mode: jobs 1 vs jobs 4 ------------------------
SWEEP=(--workload Compress --scale 0.05 --sweep-sizes 1K,4K,16K,64K
       --sweep-blocks 16,32,64 --mtc --stable-json)

"$SIM" "${SWEEP[@]}" --jobs 1 --stats-json s1.json > s1.txt 2>/dev/null ||
    fail "sweep --jobs 1 failed"
"$SIM" "${SWEEP[@]}" --jobs 4 --stats-json s4.json > s4.txt 2>/dev/null ||
    fail "sweep --jobs 4 failed"
cmp -s s1.txt s4.txt ||
    fail "membw_sim sweep stdout differs between --jobs 1 and 4"
cmp -s s1.json s4.json ||
    fail "membw_sim sweep stats JSON differs between --jobs 1 and 4"
grep -q '"sweep.64KB.32B.hier.traffic_ratio"' s1.json ||
    fail "sweep stats JSON lacks per-cell groups"

# --- membw_sim sweep mode: SIGTERM drain is jobs-independent -------
expect_exit 3 "$SIM" "${SWEEP[@]}" --jobs 1 --sigterm-after 7 \
    --stats-json t1.json
expect_exit 3 "$SIM" "${SWEEP[@]}" --jobs 4 --sigterm-after 7 \
    --stats-json t4.json
"$SIM" "${SWEEP[@]}" --jobs 1 --sigterm-after 7 > t1.txt 2>/dev/null
"$SIM" "${SWEEP[@]}" --jobs 4 --sigterm-after 7 > t4.txt 2>/dev/null
cmp -s t1.txt t4.txt ||
    fail "interrupted sweep stdout differs between --jobs 1 and 4"
cmp -s t1.json t4.json ||
    fail "interrupted sweep stats JSON differs between --jobs 1 and 4"
grep -q '"sweep_completed": "7"' t1.json ||
    fail "interrupted sweep did not truncate to exactly 7 cells"
grep -q '"interrupted": true' t1.json ||
    fail "interrupted sweep JSON not flagged interrupted"

# --- membw_sim sweep mode: flag contract ---------------------------
expect_exit 1 "$SIM" "${SWEEP[@]}" --jobs 0
expect_exit 1 "$SIM" "${SWEEP[@]}" --jobs 999
expect_exit 1 "$SIM" "${SWEEP[@]}" --checkpoint ck.bin
expect_exit 1 "$SIM" "${SWEEP[@]}" --l2-size 1M

# --- membw_decompose --experiment all: jobs 1 vs jobs 4 ------------
DALL=(--workload Swm --experiment all --scale 0.05 --stable-json)

"$DECOMP" "${DALL[@]}" --jobs 1 --stats-json d1.json > d1.txt 2>/dev/null ||
    fail "decompose all --jobs 1 failed"
"$DECOMP" "${DALL[@]}" --jobs 4 --stats-json d4.json > d4.txt 2>/dev/null ||
    fail "decompose all --jobs 4 failed"
cmp -s d1.txt d4.txt ||
    fail "decompose all stdout differs between --jobs 1 and 4"
cmp -s d1.json d4.json ||
    fail "decompose all stats JSON differs between --jobs 1 and 4"
grep -q '"A.decomp.t_p"' d1.json ||
    fail "decompose all stats JSON lacks per-experiment groups"
expect_exit 1 "$DECOMP" "${DALL[@]}" --checkpoint dck.bin
expect_exit 1 "$DECOMP" "${DALL[@]}" --sigterm-after 100

# --- bench sweeps: jobs 1 vs jobs 4 --------------------------------
"$FIG4" --scale 0.02 --jobs 1 --stable-json --json f1.json > f1.txt 2>/dev/null ||
    fail "fig4 --jobs 1 failed"
"$FIG4" --scale 0.02 --jobs 4 --stable-json --json f4.json > f4.txt 2>/dev/null ||
    fail "fig4 --jobs 4 failed"
cmp -s f1.txt f4.txt ||
    fail "fig4 stdout differs between --jobs 1 and 4"
cmp -s f1.json f4.json ||
    fail "fig4 JSON report differs between --jobs 1 and 4"

# --- wall-clock speedup (only on hosts that can run 4 at once) ----
# nproc is not capacity: a container can show 4 vCPUs and give about
# one core of throughput.  Measure it instead, as four concurrent
# copies of the serial run against one copy alone.  Three rounds each
# time one copy, four copies and the --jobs 4 run back to back, so
# both ratios see the same host; the medians decide.
SPEED=("${SWEEP[@]}" --scale 0.5)
elapsed() { # command... -> wall seconds
    local t0=$EPOCHREALTIME
    "$@" >/dev/null 2>&1
    awk -v a="$t0" -v b="$EPOCHREALTIME" 'BEGIN { printf "%.3f", b - a }'
}
four_copies() {
    local k
    for k in 1 2 3 4; do
        "$SIM" "${SPEED[@]}" --jobs 1 >/dev/null 2>&1 &
    done
    wait
}
median() { printf '%s\n' "$@" | sort -g | sed -n 2p; }
ONE=() FOUR=() PAR=()
for round in 1 2 3; do
    ONE+=("$(elapsed "$SIM" "${SPEED[@]}" --jobs 1)")
    FOUR+=("$(elapsed four_copies)")
    PAR+=("$(elapsed "$SIM" "${SPEED[@]}" --jobs 4)")
done
t_serial=$(median "${ONE[@]}")
t_par=$(median "${PAR[@]}")
CAP=$(awk -v one="$t_serial" -v four="$(median "${FOUR[@]}")" \
    'BEGIN { printf "%.2f", 4 * one / four }')
if awk -v c="$CAP" 'BEGIN { exit !(c >= 3) }'; then
    awk -v s="$t_serial" -v p="$t_par" \
        'BEGIN { exit !(p > 0 && s / p >= 1.5) }' ||
        fail "sweep --jobs 4 not faster than --jobs 1 ($t_serial vs $t_par s) at measured parallelism $CAP"
else
    echo "SKIP speedup check: measured parallelism $CAP is below 3"
fi

echo "PASS"
