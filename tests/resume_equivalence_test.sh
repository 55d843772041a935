#!/usr/bin/env bash
# End-to-end fault-tolerance check: a run killed by SIGTERM and then
# resumed from its checkpoint must produce byte-identical stats JSON
# to an uninterrupted run (--stable-json drops the only wall-clock
# fields).  Exercises both tools and both membw_sim phases.
#
# Usage: resume_equivalence_test.sh <membw_sim> <membw_decompose>
set -u

SIM="$1"
DECOMP="$2"
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

# --- membw_sim: interrupt in the hierarchy phase -------------------
SIMFLAGS=(--workload Compress --scale 0.1 --mtc --stable-json)

expect_exit 0 "$SIM" "${SIMFLAGS[@]}" --stats-json base.json
[ -s base.json ] || fail "baseline produced no stats JSON"

expect_exit 3 "$SIM" "${SIMFLAGS[@]}" --stats-json int.json \
    --checkpoint ck.bin --checkpoint-every 4096 --sigterm-after 20000
[ -s ck.bin ] || fail "interrupted run left no checkpoint"
grep -q '"interrupted": true' int.json ||
    fail "partial stats JSON not flagged interrupted"

expect_exit 0 "$SIM" "${SIMFLAGS[@]}" --stats-json resumed.json \
    --resume ck.bin
cmp -s base.json resumed.json ||
    fail "membw_sim resume (hierarchy phase) is not byte-identical"

# --- membw_sim: interrupt in the MTC phase -------------------------
# Resuming past ref 20000 with a lower sigterm threshold means the
# signal can only fire in the MTC phase, whose cursor restarts at 0.
expect_exit 3 "$SIM" "${SIMFLAGS[@]}" --stats-json int2.json \
    --resume ck.bin --checkpoint ck2.bin --checkpoint-every 4096 \
    --sigterm-after 5000
expect_exit 0 "$SIM" "${SIMFLAGS[@]}" --stats-json resumed2.json \
    --resume ck2.bin
cmp -s base.json resumed2.json ||
    fail "membw_sim resume (MTC phase) is not byte-identical"

# --- membw_sim: checkpoint/config mismatch must be classified ------
"$SIM" "${SIMFLAGS[@]}" --size 8K --resume ck.bin >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "config-mismatch resume should exit 1"
grep -q "different cache configuration" err.txt ||
    fail "config-mismatch resume lacks a clear diagnostic"

# Every L1 field is part of the identity, including the stream
# buffers that the display string leaves out.
expect_exit 3 "$SIM" "${SIMFLAGS[@]}" --stream-buffers 2 \
    --stats-json sbint.json --checkpoint sbck.bin \
    --checkpoint-every 4096 --sigterm-after 20000
"$SIM" "${SIMFLAGS[@]}" --stream-buffers 4 --resume sbck.bin \
    >/dev/null 2>err.txt
[ $? -eq 1 ] || fail "stream-buffers-mismatch resume should exit 1"
grep -q "different cache configuration" err.txt ||
    fail "stream-buffers-mismatch resume lacks a clear diagnostic"

# --- membw_sim: profiled interrupt/resume --------------------------
# The profiler state rides the checkpoint: a resumed profiled run
# must write byte-identical profile JSON (and stats) to an
# uninterrupted one, across interrupts in both phases.
PFLAGS=("${SIMFLAGS[@]}" --profile-epoch 4096)

expect_exit 0 "$SIM" "${PFLAGS[@]}" --profile-out pbase.json \
    --stats-json psbase.json
[ -s pbase.json ] || fail "profiled baseline wrote no profile"

expect_exit 3 "$SIM" "${PFLAGS[@]}" --profile-out punused.json \
    --stats-json psint.json --checkpoint pck.bin \
    --checkpoint-every 4096 --sigterm-after 20000
expect_exit 3 "$SIM" "${PFLAGS[@]}" --profile-out punused2.json \
    --stats-json psint2.json --resume pck.bin --checkpoint pck2.bin \
    --checkpoint-every 4096 --sigterm-after 5000
expect_exit 0 "$SIM" "${PFLAGS[@]}" --profile-out pres.json \
    --stats-json psres.json --resume pck2.bin
cmp -s pbase.json pres.json ||
    fail "resumed profile JSON is not byte-identical"
cmp -s psbase.json psres.json ||
    fail "profiled resume stats are not byte-identical"

# Resuming a profiled checkpoint without --profile-out (or with a
# different epoch) must fail with a clear diagnostic, not drift.
"$SIM" "${SIMFLAGS[@]}" --resume pck2.bin >/dev/null 2>perr.txt
[ $? -eq 1 ] || fail "profile-less resume of profiled ck should exit 1"
grep -q "profil" perr.txt ||
    fail "profile-less resume lacks a profiler diagnostic"
"$SIM" "${SIMFLAGS[@]}" --profile-epoch 8192 --profile-out px.json \
    --resume pck2.bin >/dev/null 2>perr2.txt
[ $? -eq 1 ] || fail "epoch-mismatch resume should exit 1"
grep -q "profile-epoch" perr2.txt ||
    fail "epoch-mismatch resume lacks a clear diagnostic"

# --- membw_decompose: interrupt mid-decomposition ------------------
DFLAGS=(--workload Compress --experiment E --scale 0.05 --stable-json)

expect_exit 0 "$DECOMP" "${DFLAGS[@]}" --stats-json dbase.json
[ -s dbase.json ] || fail "decompose baseline produced no stats JSON"

# Interrupt inside phase 1 (ops counted across phases).
REFS=$(grep -o '"refs": [0-9]*' dbase.json | grep -o '[0-9]*')
expect_exit 3 "$DECOMP" "${DFLAGS[@]}" --stats-json dint.json \
    --checkpoint dck.bin --sigterm-after $((REFS + REFS / 2))
[ -s dck.bin ] || fail "interrupted decompose left no checkpoint"
grep -q '"interrupted": true' dint.json ||
    fail "decompose partial stats not flagged interrupted"

expect_exit 0 "$DECOMP" "${DFLAGS[@]}" --stats-json dresumed.json \
    --resume dck.bin
cmp -s dbase.json dresumed.json ||
    fail "membw_decompose resume is not byte-identical"

# --- membw_decompose: checkpoint/config mismatch -------------------
# Every override is part of the identity, including those the
# machine's display string leaves out (--mshrs).
expect_exit 3 "$DECOMP" "${DFLAGS[@]}" --mshrs 1 --stats-json dmint.json \
    --checkpoint dmck.bin --sigterm-after $((REFS + REFS / 2))
"$DECOMP" "${DFLAGS[@]}" --resume dmck.bin >/dev/null 2>derr.txt
[ $? -eq 1 ] || fail "mshrs-mismatch decompose resume should exit 1"
grep -q "different experiment/workload configuration" derr.txt ||
    fail "mshrs-mismatch decompose resume lacks a clear diagnostic"

# --- membw_decompose: profiled interrupt/resume --------------------
# The interrupted phase re-runs whole on resume; abortRun rolls the
# structural profiles back, so the profile must still match the
# uninterrupted run byte for byte.
DPFLAGS=("${DFLAGS[@]}" --profile-epoch 8192)

expect_exit 0 "$DECOMP" "${DPFLAGS[@]}" --profile-out dpbase.json \
    --stats-json dpsbase.json
[ -s dpbase.json ] || fail "profiled decompose wrote no profile"

expect_exit 3 "$DECOMP" "${DPFLAGS[@]}" --profile-out dpunused.json \
    --stats-json dpsint.json --checkpoint dpck.bin \
    --sigterm-after $((REFS + REFS / 2))
expect_exit 0 "$DECOMP" "${DPFLAGS[@]}" --profile-out dpres.json \
    --stats-json dpsres.json --resume dpck.bin
cmp -s dpbase.json dpres.json ||
    fail "resumed decompose profile JSON is not byte-identical"
cmp -s dpsbase.json dpsres.json ||
    fail "profiled decompose resume stats are not byte-identical"

echo "PASS"
