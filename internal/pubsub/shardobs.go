package pubsub

import (
	"strconv"

	"abivm/internal/obs"
)

// shardObs is one shard's own series, all labeled `shard`: what the
// serial broker has no equivalent for. The per-shard Broker series
// (steps, latency, retries, …) are handled by each shard's brokerObs
// with its `shard` label. Nil (the default) is the detached no-op state,
// mirroring brokerObs.
type shardObs struct {
	queueDepth *obs.Gauge
	subs       *obs.Gauge
	weight     *obs.Gauge
}

// observeDepth records how many publishes await the shard's next
// routing. Caller holds the ShardedBroker mutex or is the shard's EndStep
// goroutine.
func (o *shardObs) observeDepth(n int) {
	if o == nil {
		return
	}
	o.queueDepth.Set(float64(n))
}

// observeLoad refreshes the shard's assignment-load gauges. Caller holds
// the ShardedBroker mutex.
func (o *shardObs) observeLoad(sh *shard) {
	if o == nil {
		return
	}
	o.subs.Set(float64(sh.subs))
	o.weight.Set(sh.weight)
}

// SetObs attaches an observability sink to the sharded runtime: every
// shard's Broker instruments (labeled `shard`), the shard series above,
// and span recording on tr. A nil registry detaches everything.
func (sb *ShardedBroker) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	if reg != nil {
		reg.Gauge("pubsub_shards").Set(float64(len(sb.shards)))
	}
	for _, sh := range sb.shards {
		sh.b.SetObs(reg, tr)
		sh.so = nil
		if reg != nil {
			id := strconv.Itoa(sh.id)
			sh.so = &shardObs{
				queueDepth: reg.Gauge("pubsub_shard_queue_depth", "shard", id),
				subs:       reg.Gauge("pubsub_shard_subscriptions", "shard", id),
				weight:     reg.Gauge("pubsub_shard_weight", "shard", id),
			}
		}
		sh.so.observeDepth(len(sh.buf))
		sh.so.observeLoad(sh)
	}
}
