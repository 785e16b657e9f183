#!/bin/sh
# Serve smoke: start `abivm serve` against the demo workload — with
# per-view maintainers and on the shared dataflow graph (-shared) —
# scrape the ops endpoints, and assert the required metric series exist.
# This is the end-to-end proof that the observability wiring — broker,
# maintainer, fault injector — actually emits on a live process, not
# just in unit tests.
set -eu

cd "$(dirname "$0")/.."

ADDR="${SERVE_ADDR:-127.0.0.1:18321}"
# The binary and the log live in one private directory the trap removes,
# so nothing stays behind and concurrent runs cannot clobber each other.
TMP="$(mktemp -d)"
BIN="$TMP/abivm"
LOG="$TMP/serve.log"
PID=""
trap 'kill "$PID" 2>/dev/null || true; rm -rf "$TMP"' EXIT INT TERM

go build -o "$BIN" ./cmd/abivm

# smoke <mode-name> <extra-serve-flags> <extra metric names...>
smoke() {
    mode="$1"
    extra_flags="$2"
    shift 2
    # shellcheck disable=SC2086  # extra_flags is a deliberate word list
    "$BIN" serve -addr "$ADDR" -interval 10ms -faults -pprof $extra_flags >"$LOG" 2>&1 &
    PID=$!

    # Wait for the endpoint (and a few workload steps) to come up.
    i=0
    until curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; do
        i=$((i + 1))
        if [ "$i" -gt 50 ]; then
            echo "serve_smoke($mode): endpoint never came up; log:" >&2
            cat "$LOG" >&2
            exit 1
        fi
        sleep 0.2
    done
    sleep 1

    METRICS="$(curl -fsS "http://$ADDR/metrics")"
    fail=0
    for name in \
        pubsub_steps_total \
        pubsub_step_latency_seconds \
        pubsub_notifications_total \
        pubsub_sub_steps_behind \
        pubsub_sub_pending_mods \
        ivm_drains_total \
        ivm_drain_latency_seconds \
        ivm_wal_appends_total \
        policy_decisions_total \
        policy_candidates_total \
        policy_action_mods \
        fault_injections_total \
        "$@"; do
        if ! printf '%s\n' "$METRICS" | grep -q "^$name"; then
            echo "serve_smoke($mode): required metric $name missing from /metrics" >&2
            fail=1
        fi
    done
    [ "$fail" -eq 0 ] || { printf '%s\n' "$METRICS" >&2; exit 1; }

    # /healthz must be valid JSON with a healthy field (degraded mode still
    # answers, with HTTP 503, so accept either code but require the body).
    curl -sS "http://$ADDR/healthz" | grep -q '"healthy"' \
        || { echo "serve_smoke($mode): /healthz body lacks healthy field" >&2; exit 1; }

    # /traces must report recorded spans.
    curl -fsS "http://$ADDR/traces?n=5" | grep -q '"name": "step"' \
        || { echo "serve_smoke($mode): /traces has no step spans" >&2; exit 1; }

    # pprof is mounted when asked for.
    curl -fsS "http://$ADDR/debug/pprof/cmdline" >/dev/null \
        || { echo "serve_smoke($mode): /debug/pprof not mounted" >&2; exit 1; }

    kill "$PID"
    wait "$PID" 2>/dev/null || true
    PID=""
    echo "serve_smoke($mode): OK"
}

smoke classic ""

# Shared dataflow: the graph-shape series must appear next to the
# broker's.
smoke shared "-shared" \
    ivm_dataflow_operators \
    ivm_dataflow_views \
    ivm_dataflow_arrangements \
    ivm_dataflow_arrangement_hits_total \
    ivm_dataflow_probes_total \
    ivm_dataflow_products_total \
    ivm_dataflow_folds_total \
    ivm_dataflow_fold_visits_total

echo "serve_smoke: OK"
