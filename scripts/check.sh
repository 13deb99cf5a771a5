#!/usr/bin/env bash
# One-command verification gate: configure, build, and run the full
# gtest suite. Fails on any compile error or test failure. Future PRs
# run this before merging.
#
# Usage: scripts/check.sh [--sanitize | --serve-smoke | --fleet-smoke | --sched-smoke | --store-smoke] [build-dir] [build-type]
#   --sanitize  ASan+UBSan run: Debug build with
#               -fsanitize=address,undefined,float-cast-overflow (GCC's
#               "undefined" leaves out float-cast-overflow, which
#               catches an unchecked double-to-int cast of wire
#               input), leak detection on, tests
#               only (the perf gates measure nothing useful under a
#               sanitizer). The suite includes the task-graph executor,
#               streaming-batch, store, AnalysisService and fleet
#               dispatch tests (test_task_graph, test_batch,
#               test_store, test_api, test_dispatch), which exercise
#               the scheduler's, lease protocol's and dispatcher's
#               locking under the sanitizers. Defaults build-dir to
#               build-asan. This is exactly what the CI sanitize job
#               executes.
#   --serve-smoke
#               Build, then run ONLY the socket-server smoke: a
#               gpuperf-serve daemon on a Unix socket serves 4
#               concurrent gpuperf-worker clients (run --via unix:...)
#               plus one TCP client, then 8 concurrent clients sharing
#               one --store (each under timeout 60); every response is
#               byte-diffed against an in-process run of the same
#               request. The
#               full (flagless) run executes this and the
#               bench_serve_soak gate as well; artifacts land in
#               <build-dir>/serve-smoke/.
#   --fleet-smoke
#               Build, then run ONLY the fleet-dispatch smoke: a
#               gpuperf-serve daemon with a shared store, 2 registered
#               gpuperf-worker fleet processes (serve --via unix:...)
#               and 2 concurrent clients; one worker is SIGKILLed
#               mid-run and every response is byte-diffed against an
#               in-process run. The full (flagless) run executes this
#               and the bench_fleet_soak gate as well; artifacts land
#               in <build-dir>/fleet-smoke/.
#   --sched-smoke
#               Build, then run ONLY the scheduling-policy smoke: once
#               under --sched sjf and once under --sched fair-share, a
#               gpuperf-serve daemon with one fleet worker serves 2
#               concurrent clients carrying distinct --client ids;
#               every response is byte-diffed against an in-process
#               run of the same request and the daemon's stats must
#               name its policy — policies reorder the dispatcher's
#               work, never results. The full
#               (flagless) run executes this and the
#               bench_sched_fairness gate as well; artifacts land in
#               <build-dir>/sched-smoke/.
#   --store-smoke
#               Build, then run ONLY the store-lifecycle smoke: a cold
#               run populates a store, one entry is deliberately
#               bit-flipped on disk (`gpuperf-worker verify` must exit
#               2 and quarantine it, then come back clean), the
#               disk-usage scan must report entries, and a warm run
#               over the repaired store must produce a byte-identical
#               response; a GC dry-run rounds out the admin verbs. The full (flagless) run executes this step as
#               well; artifacts land in <build-dir>/store-smoke/.
#   build-dir   default: build (build-asan with --sanitize)
#   build-type  Debug | Release | RelWithDebInfo | ... (default: the
#               build dir's existing type, or CMake's default).
#               Debug additionally exercises the debug-only
#               homogeneous-sampling validation in the funcsim and the
#               timing engine's cached-candidate cross-checks.

set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
SERVE_SMOKE_ONLY=0
FLEET_SMOKE_ONLY=0
SCHED_SMOKE_ONLY=0
STORE_SMOKE_ONLY=0
if [[ "${1:-}" == "--sanitize" ]]; then
    SANITIZE=1
    shift
elif [[ "${1:-}" == "--serve-smoke" ]]; then
    SERVE_SMOKE_ONLY=1
    shift
elif [[ "${1:-}" == "--fleet-smoke" ]]; then
    FLEET_SMOKE_ONLY=1
    shift
elif [[ "${1:-}" == "--sched-smoke" ]]; then
    SCHED_SMOKE_ONLY=1
    shift
elif [[ "${1:-}" == "--store-smoke" ]]; then
    STORE_SMOKE_ONLY=1
    shift
fi

if [[ "$SANITIZE" == 1 ]]; then
    BUILD_DIR="${1:-build-asan}"
    BUILD_TYPE="${2:-Debug}"
else
    BUILD_DIR="${1:-build}"
    BUILD_TYPE="${2:-}"
fi
JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 2)"

CMAKE_ARGS=()
if [[ -n "$BUILD_TYPE" ]]; then
    CMAKE_ARGS+=(-DCMAKE_BUILD_TYPE="$BUILD_TYPE")
fi
if [[ "$SANITIZE" == 1 ]]; then
    CMAKE_ARGS+=(-DGPUPERF_SANITIZE=address,undefined,float-cast-overflow)
    export ASAN_OPTIONS="detect_leaks=1:strict_string_checks=1"
    export UBSAN_OPTIONS="print_stacktrace=1"
else
    # Pin the cache variable off: reusing a previously sanitized
    # build dir must not silently run the perf gates on instrumented
    # binaries.
    CMAKE_ARGS+=(-DGPUPERF_SANITIZE=)
fi

cmake -B "$BUILD_DIR" -S . "${CMAKE_ARGS[@]}"
cmake --build "$BUILD_DIR" -j"$JOBS"

# The poison leg of the serve and fleet smokes: the committed
# divergent-barrier request (tests/fixtures/) sent through VIA must
# come back with its one cell failed — `gpuperf-worker run` exits 2 —
# carrying the simulator's message.
run_poison_leg() {
    local SMOKE="$1"
    local VIA="$2"
    local RC=0
    "$BUILD_DIR/gpuperf-worker" run \
        tests/fixtures/poison-divergent-barrier.json \
        --out "$SMOKE/response-poison.json" --via "$VIA" \
        > "$SMOKE/client-poison.log" 2>&1 || RC=$?
    if [[ "$RC" != 2 ]] ||
       ! grep -q "divergent" "$SMOKE/response-poison.json"; then
        echo "poison leg: expected one failed 'divergent' cell (exit 2)," \
             "got exit $RC" >&2
        cat "$SMOKE/client-poison.log" >&2
        return 1
    fi
}

# Socket-server end-to-end: one gpuperf-serve daemon (Unix socket +
# ephemeral TCP), 4 concurrent Unix clients and one TCP client, all
# running the same demo request against per-client stores, then 8
# concurrent clients against one shared store; every response must be
# byte-identical to an in-process run. A poison
# request goes first and must fail only its own cell. SIGTERM at the
# end exercises the graceful-drain shutdown path.
run_serve_smoke() {
    local SMOKE="$BUILD_DIR/serve-smoke"
    local W="$BUILD_DIR/gpuperf-worker"
    local S="$BUILD_DIR/gpuperf-serve"
    local SOCK="$SMOKE/serve.sock"
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    "$S" --via "unix:$SOCK" --via tcp:127.0.0.1:0 > "$SMOKE/serve.log" 2>&1 &
    local SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' RETURN
    for _ in $(seq 1 100); do
        [[ -S "$SOCK" ]] && grep -q "ready" "$SMOKE/serve.log" && break
        sleep 0.1
    done
    [[ -S "$SOCK" ]] || { echo "serve-smoke: daemon never bound $SOCK" >&2
                          cat "$SMOKE/serve.log" >&2; return 1; }
    local PORT
    PORT="$(sed -n 's/^listening tcp .*:\([0-9]*\)$/\1/p' "$SMOKE/serve.log")"

    # The reference: the same request executed in-process. Each leg
    # gets its OWN store so the served legs really execute rather
    # than replaying the reference's results.
    "$W" demo-request --out "$SMOKE/request-ref.json" \
        --store "$SMOKE/store-ref"
    "$W" run "$SMOKE/request-ref.json" --out "$SMOKE/response-ref.json"

    run_poison_leg "$SMOKE" "unix:$SOCK"
    kill -0 "$SERVE_PID" || {
        echo "serve-smoke: daemon died on the poison request" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }

    local PIDS=()
    for i in 1 2 3 4; do
        "$W" demo-request --out "$SMOKE/request-$i.json" \
            --store "$SMOKE/store-$i"
        "$W" run "$SMOKE/request-$i.json" \
            --out "$SMOKE/response-$i.json" \
            --via "unix:$SOCK" > "$SMOKE/client-$i.log" 2>&1 &
        PIDS+=($!)
    done
    "$W" demo-request --out "$SMOKE/request-tcp.json" \
        --store "$SMOKE/store-tcp"
    "$W" run "$SMOKE/request-tcp.json" \
        --out "$SMOKE/response-tcp.json" --via "tcp:127.0.0.1:$PORT"
    local PID
    for PID in "${PIDS[@]}"; do
        wait "$PID"
    done

    # Store paths differ per leg, so normalize nothing: the response
    # JSON carries no paths — byte-identity is the whole contract.
    for i in 1 2 3 4 tcp; do
        diff "$SMOKE/response-ref.json" "$SMOKE/response-$i.json"
    done

    # Shared-store leg: 8 concurrent clients send the SAME request,
    # with ONE store, so the daemon runs them on one executor with
    # fewer pool threads than requests in flight. Each store lease
    # must be released by the node that took it; otherwise the
    # clients wedge until the lease goes stale (15 minutes), which
    # the per-client timeout turns into a failure.
    "$W" demo-request --out "$SMOKE/request-shared.json" \
        --store "$SMOKE/store-shared"
    PIDS=()
    for i in 1 2 3 4 5 6 7 8; do
        timeout 60 "$W" run "$SMOKE/request-shared.json" \
            --out "$SMOKE/response-shared-$i.json" \
            --via "unix:$SOCK" > "$SMOKE/client-shared-$i.log" 2>&1 &
        PIDS+=($!)
    done
    for i in 1 2 3 4 5 6 7 8; do
        wait "${PIDS[$((i - 1))]}" || {
            echo "serve-smoke: shared-store client $i failed or timed out" >&2
            cat "$SMOKE/client-shared-$i.log" >&2
            # A wedged daemon would sit out a graceful drain.
            kill -KILL "$SERVE_PID" 2>/dev/null || true
            return 1
        }
    done
    for i in 1 2 3 4 5 6 7 8; do
        diff "$SMOKE/response-ref.json" "$SMOKE/response-shared-$i.json"
    done

    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    grep -q "served .* (1 failed)" "$SMOKE/serve.log" || {
        echo "serve-smoke: daemon did not shut down gracefully with" \
             "exactly the poison cell failed" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }
    echo "serve-smoke: poison cell failed alone; 5 concurrent socket clients and 8 shared-store clients byte-identical to the in-process run"
}

# Fleet-dispatch end-to-end: one gpuperf-serve daemon with a SHARED
# store, two registered fleet workers, two concurrent clients. One
# worker is SIGKILLed while requests are in flight: the dispatcher
# must steal its cells back and re-dispatch, and both clients' JSON
# responses must stay byte-identical to an in-process run. Before the
# clients, a poison request must fail its own cell on a worker with
# the daemon and both workers still up — a worker death would be the
# only cause of a re-dispatch, so the one death the final stats may
# show is the murdered worker's.
run_fleet_smoke() {
    local SMOKE="$BUILD_DIR/fleet-smoke"
    local W="$BUILD_DIR/gpuperf-worker"
    local S="$BUILD_DIR/gpuperf-serve"
    local SOCK="$SMOKE/serve.sock"
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    # One shared store: the fleet calibrates once, globally.
    "$S" --via "unix:$SOCK" --store "$SMOKE/store-fleet" --stats-json \
        > "$SMOKE/serve.log" 2>&1 &
    local SERVE_PID=$!
    trap 'kill "$SERVE_PID" 2>/dev/null || true' RETURN
    for _ in $(seq 1 100); do
        [[ -S "$SOCK" ]] && grep -q "ready" "$SMOKE/serve.log" && break
        sleep 0.1
    done
    [[ -S "$SOCK" ]] || { echo "fleet-smoke: daemon never bound $SOCK" >&2
                          cat "$SMOKE/serve.log" >&2; return 1; }

    "$W" serve --via "unix:$SOCK" > "$SMOKE/worker-1.log" 2>&1 &
    local WORKER1_PID=$!
    "$W" serve --via "unix:$SOCK" > "$SMOKE/worker-2.log" 2>&1 &
    local WORKER2_PID=$!

    # The reference: the same request executed in-process on its own
    # store, so the fleet legs really execute rather than replaying
    # the reference's results.
    "$W" demo-request --out "$SMOKE/request-ref.json" \
        --store "$SMOKE/store-ref"
    "$W" run "$SMOKE/request-ref.json" --out "$SMOKE/response-ref.json"

    run_poison_leg "$SMOKE" "unix:$SOCK"
    kill -0 "$SERVE_PID" "$WORKER1_PID" "$WORKER2_PID" || {
        echo "fleet-smoke: the poison request killed a process" >&2
        cat "$SMOKE/serve.log" "$SMOKE"/worker-*.log >&2
        return 1
    }

    "$W" demo-request --out "$SMOKE/request.json"
    local PIDS=()
    for i in 1 2; do
        "$W" run "$SMOKE/request.json" \
            --out "$SMOKE/response-$i.json" \
            --via "unix:$SOCK" > "$SMOKE/client-$i.log" 2>&1 &
        PIDS+=($!)
    done

    # Murder one fleet worker while the clients are in flight: its
    # cells must be stolen back and re-dispatched, losing nothing.
    sleep 0.5
    kill -9 "$WORKER1_PID" 2>/dev/null || true
    wait "$WORKER1_PID" 2>/dev/null || true

    local PID
    for PID in "${PIDS[@]}"; do
        wait "$PID"
    done
    for i in 1 2; do
        diff "$SMOKE/response-ref.json" "$SMOKE/response-$i.json"
    done

    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    wait "$WORKER2_PID" 2>/dev/null || true
    grep -q "served" "$SMOKE/serve.log" || {
        echo "fleet-smoke: daemon did not shut down gracefully" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }
    grep -q '"workers_registered": 2' "$SMOKE/serve.log" || {
        echo "fleet-smoke: expected 2 registered workers" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }
    # The poison cell ran on the fleet, and it is the only failure.
    grep -q '"requests_local_fallback": 0' "$SMOKE/serve.log" &&
        grep -q '"failed_cells": 1,' "$SMOKE/serve.log" || {
        echo "fleet-smoke: expected exactly the poison cell to fail," \
             "on a fleet worker" >&2
        cat "$SMOKE/serve.log" >&2
        return 1
    }
    echo "fleet-smoke: poison cell failed alone on the fleet; 2 clients over a 2-worker fleet (1 killed mid-run) byte-identical to the in-process run"
}

# Scheduling-policy end-to-end, once per ordering policy: a daemon
# running --sched POLICY with a shared store and one fleet worker
# serves two clients carrying distinct --client ids; both JSON
# responses must be byte-identical to an in-process run, and the
# daemon's stats must name the policy — a policy reorders the
# dispatcher's work, never results.
run_sched_smoke() {
    local SMOKE="$BUILD_DIR/sched-smoke"
    local W="$BUILD_DIR/gpuperf-worker"
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    # The reference: the same request executed in-process.
    "$W" demo-request --out "$SMOKE/request-ref.json" \
        --store "$SMOKE/store-ref"
    "$W" run "$SMOKE/request-ref.json" --out "$SMOKE/response-ref.json"
    "$W" demo-request --out "$SMOKE/request.json"

    local POLICY
    for POLICY in sjf fair-share; do
        sched_smoke_leg "$SMOKE" "$POLICY"
    done
    echo "sched-smoke: sjf and fair-share responses byte-identical to the in-process run"
}

# One policy's leg of run_sched_smoke; artifacts land in SMOKE/POLICY/.
sched_smoke_leg() {
    local SMOKE="$1" POLICY="$2"
    local LEG="$SMOKE/$POLICY"
    local W="$BUILD_DIR/gpuperf-worker"
    local S="$BUILD_DIR/gpuperf-serve"
    local SOCK="$LEG/serve.sock"
    mkdir -p "$LEG"

    "$S" --via "unix:$SOCK" --sched "$POLICY" --store "$LEG/store-fleet" \
        --stats-json > "$LEG/serve.log" 2>&1 &
    local SERVE_PID=$!
    # Clears itself: a RETURN trap outlives the function that set it,
    # and would fire again, on an unset SERVE_PID, when the caller
    # returns.
    trap 'kill "$SERVE_PID" 2>/dev/null || true; trap - RETURN' RETURN
    for _ in $(seq 1 100); do
        [[ -S "$SOCK" ]] && grep -q "ready" "$LEG/serve.log" && break
        sleep 0.1
    done
    [[ -S "$SOCK" ]] || { echo "sched-smoke: $POLICY daemon never bound $SOCK" >&2
                          cat "$LEG/serve.log" >&2; return 1; }

    "$W" serve --via "unix:$SOCK" > "$LEG/worker.log" 2>&1 &
    local WORKER_PID=$!

    local PIDS=()
    for i in 1 2; do
        "$W" run "$SMOKE/request.json" \
            --out "$LEG/response-$i.json" \
            --via "unix:$SOCK" --client "client-$i" \
            > "$LEG/client-$i.log" 2>&1 &
        PIDS+=($!)
    done
    local PID
    for PID in "${PIDS[@]}"; do
        wait "$PID"
    done
    for i in 1 2; do
        diff "$SMOKE/response-ref.json" "$LEG/response-$i.json"
    done

    kill -TERM "$SERVE_PID"
    wait "$SERVE_PID"
    wait "$WORKER_PID" 2>/dev/null || true
    grep -q "\"sched_policy\": \"$POLICY\"" "$LEG/serve.log" || {
        echo "sched-smoke: daemon stats never reported sched_policy $POLICY" >&2
        cat "$LEG/serve.log" >&2
        return 1
    }
    echo "sched-smoke: $POLICY responses byte-identical to the in-process run"
}

# Store-lifecycle end-to-end: corruption is quarantined (verify exits
# 2, then 0), and a warm run over the repaired store stays
# byte-identical to the cold run. Exercises the gc|verify|stats admin
# verbs for real.
run_store_smoke() {
    local SMOKE="$BUILD_DIR/store-smoke"
    local W="$BUILD_DIR/gpuperf-worker"
    local STORE="$SMOKE/store"
    rm -rf "$SMOKE"
    mkdir -p "$SMOKE"

    "$W" demo-request --out "$SMOKE/request.json" --store "$STORE"
    "$W" run "$SMOKE/request.json" --out "$SMOKE/response-cold.json"

    # Corrupt a stored profile (trailing garbage breaks the entry
    # framing): verify must exit 2 and quarantine it.
    local VICTIM
    VICTIM="$(ls "$STORE/profiles/"*.profile | head -n 1)"
    printf 'CORRUPTION' >> "$VICTIM"
    local RC=0
    "$W" verify --store "$STORE" > "$SMOKE/verify-corrupt.json" || RC=$?
    [[ "$RC" == 2 ]] || {
        echo "store-smoke: verify expected exit 2 on corruption, got $RC" >&2
        cat "$SMOKE/verify-corrupt.json" >&2
        return 1
    }
    grep -q '"quarantined": 1' "$SMOKE/verify-corrupt.json" || {
        echo "store-smoke: corrupt entry was not quarantined" >&2
        cat "$SMOKE/verify-corrupt.json" >&2
        return 1
    }
    "$W" verify --store "$STORE" > "$SMOKE/verify-clean.json"

    "$W" stats --store "$STORE" > "$SMOKE/stats.json"
    grep -q '"entries": [1-9]' "$SMOKE/stats.json" || {
        echo "store-smoke: the usage scan reports no entries" >&2
        cat "$SMOKE/stats.json" >&2
        return 1
    }

    # A warm run must stay byte-identical to the cold one (the
    # quarantined profile is simply recomputed).
    "$W" run "$SMOKE/request.json" --out "$SMOKE/response-warm.json"
    diff "$SMOKE/response-cold.json" "$SMOKE/response-warm.json"

    # GC dry-run over the warm store reports without touching.
    "$W" gc --store "$STORE" --gc-bytes 1 --dry-run > "$SMOKE/gc.json"
    grep -q '"ok": true' "$SMOKE/gc.json"
    echo "store-smoke: corruption quarantined, warm run byte-identical"
}

if [[ "$SERVE_SMOKE_ONLY" == 1 ]]; then
    run_serve_smoke
    echo "check.sh: serve-smoke green"
    exit 0
fi

if [[ "$FLEET_SMOKE_ONLY" == 1 ]]; then
    run_fleet_smoke
    echo "check.sh: fleet-smoke green"
    exit 0
fi

if [[ "$SCHED_SMOKE_ONLY" == 1 ]]; then
    run_sched_smoke
    echo "check.sh: sched-smoke green"
    exit 0
fi

if [[ "$STORE_SMOKE_ONLY" == 1 ]]; then
    run_store_smoke
    echo "check.sh: store-smoke green"
    exit 0
fi

ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS"

if [[ "$SANITIZE" == 1 ]]; then
    echo "check.sh: sanitizer run green (perf gates skipped)"
    exit 0
fi

# Throughput gates, skipped under sanitizers:
#  - batch scaling (self-skips on <4 hardware threads), the >=3x
#    warm-store profile-sharing speedup, and the streaming
#    time-to-first-result gate (first cell delivered before the
#    slowest calibration completes) — all through the public
#    AnalysisService API;
#  - the >=2x event-driven vs legacy-scan timing-replay speedup on
#    the high-occupancy cases;
#  - the >=2x vectorized vs scalar-reference funcsim speedup on the
#    large high-occupancy cases (warp-instrs/sec, bit-identity
#    checked first; report-only in Debug builds or with
#    GPUPERF_FUNCSIM_GATE=report);
#  - the >=3x cold-calibration fan-out (pool(4) vs serial sweep,
#    median of 5, tables byte-compared first; self-skips on <4
#    hardware threads, report-only with GPUPERF_THREAD_GATE=report).
# The main calibration is cached in the build dir, so reruns are
# cheap; the streaming study calibrates two small specs cold on
# purpose (that overlap is what it measures).
(cd "$BUILD_DIR" && ./bench_batch_throughput)
(cd "$BUILD_DIR" && ./bench_timing_replay)
(cd "$BUILD_DIR" && ./bench_funcsim)
(cd "$BUILD_DIR" && ./bench_calibration)

# Socket-server soak gate: >= 8 concurrent clients over TCP and Unix
# sockets, every response bit-identical to in-process execution;
# p50/p99 latency and requests/sec land in bench_serve_soak.json.
(cd "$BUILD_DIR" && ./bench_serve_soak)

# Fleet soak gate: 4 real worker processes registered with the
# dispatcher, one SIGKILLed mid-run; zero lost cells, every response
# bit-identical; p50/p99 and per-worker cell counts land in
# bench_fleet_soak.json.
(cd "$BUILD_DIR" && ./bench_fleet_soak)

# Scheduling-fairness gate: per policy, a bulk client floods a
# 2-worker fleet while an interactive client trickles small requests;
# every response must be bit-identical to the fifo run, and the
# interactive p99 under sjf/fair-share must beat fifo by the factors
# in bench_sched_fairness.json (latency gate report-only in Debug
# builds or with GPUPERF_SCHED_GATE=report, like bench_funcsim).
(cd "$BUILD_DIR" && ./bench_sched_fairness)

run_serve_smoke
run_fleet_smoke
run_sched_smoke
run_store_smoke

echo "check.sh: all green"
