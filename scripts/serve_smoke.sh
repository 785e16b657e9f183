#!/bin/sh
# Serve smoke: start `abivm serve` against the demo workload — on the
# serial broker, on the sharded runtime (-shards 4) and on the sharded
# runtime over shared dataflow graphs (-shards 2 -shared) — scrape the
# ops endpoints, and assert the required metric series exist. This is
# the end-to-end proof that the observability wiring — broker, shard
# runtime, maintainer, fault injector — actually emits on a live
# process, not just in unit tests.
set -eu

cd "$(dirname "$0")/.."

ADDR="${SERVE_ADDR:-127.0.0.1:18321}"
LOG="$(mktemp)"
PID=""
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"' EXIT INT TERM

go build -o /tmp/abivm-smoke ./cmd/abivm

# smoke <mode-name> <extra-serve-flags> <extra metric names...>
smoke() {
    mode="$1"
    extra_flags="$2"
    shift 2
    # shellcheck disable=SC2086  # extra_flags is a deliberate word list
    /tmp/abivm-smoke serve -addr "$ADDR" -interval 10ms -faults -pprof $extra_flags >"$LOG" 2>&1 &
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
        policy_refreshes_total \
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

smoke serial ""

# Sharded runtime: the serial series must survive (now shard-labeled) and
# the shard-runtime series must appear.
smoke sharded "-shards 4" \
    pubsub_shards \
    pubsub_shard_queue_depth \
    pubsub_shard_weight

# Shared dataflow on the sharded runtime: one operator graph per shard,
# so the graph-shape series must appear next to the shard series.
smoke sharded-shared "-shards 2 -shared" \
    pubsub_shards \
    pubsub_shard_queue_depth \
    ivm_dataflow_operators \
    ivm_dataflow_views \
    ivm_dataflow_arrangements \
    ivm_dataflow_arrangement_hits_total \
    ivm_dataflow_probes_total \
    ivm_dataflow_products_total

echo "serve_smoke: OK"
