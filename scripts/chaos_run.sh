#!/usr/bin/env bash
# Chaos sweep: run the cross-process demo under a battery of fault
# specs and fail if any injected fault class is silently accepted.
#
# Every spec drives build/examples/cross_process in streaming mode with
# sequence + CRC checking on. The binary itself audits each run (child
# injections folded into the parent via the fault report, see
# docs/fault_injection.md) and exits non-zero on a silent accept; this
# script additionally greps the per-run event logs so a silent_accept
# record can never slip through a wrong exit code, and schema-checks
# the records it produced.
#
# Usage: scripts/chaos_run.sh [DURATION_SECS] [OUT_DIR]
#   DURATION_SECS  per-spec run length (default 2)
#   OUT_DIR        where event logs land (default bench/results/chaos)
#   HQ_CHAOS_BIN   cross_process binary (default build/examples/...),
#                  e.g. a sanitizer tree's examples/cross_process
set -u -o pipefail

DURATION="${1:-2}"
OUT_DIR="${2:-bench/results/chaos}"
BIN="${HQ_CHAOS_BIN:-build/examples/cross_process}"

if [[ ! -x "$BIN" ]]; then
    echo "chaos_run: $BIN not built (cmake --build build)" >&2
    exit 2
fi
mkdir -p "$OUT_DIR"

# One entry per fault class worth sweeping, plus a combined run. The
# latency-only sites (transport_delay, verifier_slow_poll) must perturb
# timing without ever costing a message; the lossy sites must each be
# caught by a detector (sequence gap, CRC, back-pressure counters).
SPECS=(
    "seed=7,ring_drop:0.01"
    "seed=7,ring_dup:0.01"
    "seed=7,ring_corrupt:0.005"
    "seed=7,ring_stall:1:20000:256"
    "seed=7,transport_delay:0.02"
    "seed=7,verifier_slow_poll:0.05"
    "seed=7,ring_drop:0.005,ring_corrupt:0.002,transport_delay:0.01"
)

# The v2 wire format moves integrity from per-message CRCs to frame
# CRCs, so its lossy sites differ: whole frames are dropped (ring_drop
# fires per frame in the framed send) or corrupted (frame_corrupt flips
# a bit in an encoded frame — header or body, both must be caught).
# ring_dup/ring_corrupt are per-message v1 sites that cannot fire on
# the framed path, so the v2 list swaps them for frame_corrupt.
SPECS_V2=(
    "seed=7,ring_drop:0.01"
    "seed=7,frame_corrupt:0.005"
    "seed=7,ring_stall:1:20000:256"
    "seed=7,transport_delay:0.02"
    "seed=7,verifier_slow_poll:0.05"
    "seed=7,ring_drop:0.005,frame_corrupt:0.002,transport_delay:0.01"
)

# Async-ack legs: the same lossy/latency classes with the speculation
# window open, so faults land while acks are batched and the process
# runs ahead of verification. Detection must be unchanged —
# speculation bounds WHEN enforcement lands, never WHETHER.
SPECS_GATING=(
    "seed=7,ring_drop:0.01"
    "seed=7,ring_corrupt:0.005"
    "seed=7,transport_delay:0.02"
    "seed=7,ring_drop:0.005,ring_corrupt:0.002,transport_delay:0.01"
)
GATING_FLAGS=(--spec-window=4)

# IFC legs: the same fault classes with the taint/IFC label policy
# composed in and live label traffic in every burst (--ifc). A dropped
# LabelDef/LabelJoin is a lost security fact, so these legs hold label
# ops to the identical fail-closed bar as pointer ops: ring_drop must
# surface as sequence gaps (v1, labels live) and frame_corrupt as a
# rejected frame (v2) — zero silent accepts either way.
SPECS_IFC_V1=(
    "seed=7,ring_drop:0.01"
)
SPECS_IFC_V2=(
    "seed=7,frame_corrupt:0.005"
)

failures=0
run=0
total_runs=$(( ${#SPECS[@]} + ${#SPECS_V2[@]} + ${#SPECS_GATING[@]} \
               + ${#SPECS_IFC_V1[@]} + ${#SPECS_IFC_V2[@]} ))
run_spec() {
    local format="$1" spec="$2"
    shift 2
    run=$((run + 1))
    local log="$OUT_DIR/chaos_${run}.events.jsonl"
    local flight="$OUT_DIR/chaos_${run}.flight.jsonl"
    echo "=== chaos run $run/$total_runs ($format$( (($#)) && echo " $*" )): --fault-spec=$spec"
    # Health watchdog + flight recorder ride every run: a chaos sweep is
    # exactly when a wedged shard or fault storm should leave evidence,
    # and the per-run flight dumps become CI artifacts.
    if ! "$BIN" --duration="$DURATION" --format="$format" \
            --fault-spec="$spec" --event-log="$log" \
            --health --flight-recorder="$flight" "$@"; then
        echo "chaos_run: FAILED (exit) format=$format spec=$spec" >&2
        failures=$((failures + 1))
        return
    fi
    if [[ -f "$log" ]] && grep -q '"type":"silent_accept"' "$log"; then
        echo "chaos_run: FAILED (silent_accept record) format=$format" \
             "spec=$spec" >&2
        grep '"type":"silent_accept"' "$log" >&2
        failures=$((failures + 1))
    fi
}

for spec in "${SPECS[@]}"; do
    run_spec v1 "$spec"
done
for spec in "${SPECS_V2[@]}"; do
    run_spec v2 "$spec"
done
for spec in "${SPECS_GATING[@]}"; do
    run_spec v1 "$spec" "${GATING_FLAGS[@]}"
done
for spec in "${SPECS_IFC_V1[@]}"; do
    run_spec v1 "$spec" --ifc
done
for spec in "${SPECS_IFC_V2[@]}"; do
    run_spec v2 "$spec" --ifc
done

# Schema-check whatever the sweep wrote — event logs (fixed key order,
# known record types, now including health_change/flight_dump) and the
# flight-recorder dumps (flight_header record counts must match).
SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
shopt -s nullglob
jsonl_files=("$OUT_DIR"/chaos_*.events.jsonl "$OUT_DIR"/chaos_*.flight.jsonl)
shopt -u nullglob
if [[ ${#jsonl_files[@]} -gt 0 ]]; then
    python3 "$SCRIPT_DIR/analyze_telemetry.py" schema "${jsonl_files[@]}"
    schema_rc=$?
else
    echo "chaos_run: no JSONL streams written" >&2
    schema_rc=1
fi

if [[ $failures -gt 0 || $schema_rc -ne 0 ]]; then
    echo "chaos_run: $failures failing spec(s), schema rc=$schema_rc" >&2
    exit 1
fi
echo "chaos_run: all $total_runs specs (v1+v2+spec-K+ifc) detected or safely denied"
