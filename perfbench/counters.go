package main

import (
	"strings"

	"intango/internal/packet"
)

// fillCounters turns the program's own obs counters (from an ObsSink or
// the proxy's registry) into per-op layer metrics. A counter the path
// never flushes simply reads 0.
func fillCounters(v map[string]float64, c map[string]uint64, ops int) {
	per := func(names ...string) float64 {
		var n uint64
		for _, name := range names {
			n += c[name]
		}
		return float64(n) / float64(ops)
	}
	var mboxDrops uint64
	for k, n := range c {
		if strings.HasPrefix(k, "middlebox.drop.") {
			mboxDrops += n
		}
	}
	v["netem.events_per_op"] = per("netem.events")
	v["netem.pkts_per_op"] = per("netem.send")
	v["netem.queue_drops_per_op"] = per("netem.drop-queue", "netem.drop-red")
	v["tcpstack.retransmits_per_op"] = per("tcpstack.retransmit", "tcpstack.fast-retransmit")
	v["gfw.detects_per_op"] = per("gfw.detect")
	v["middlebox.drops_per_op"] = float64(mboxDrops) / float64(ops)
	v["intangd.pkts_per_op"] = per("intangd.pkts-out", "intangd.pkts-in")
	v["censor.resets_per_op"] = per("gfw.inject-type1", "gfw.inject-type2")
}

// fillPool writes the packet-pool metrics for the traffic between two
// PoolStats snapshots over ops operations.
func fillPool(v map[string]float64, after, before packet.PoolStats, ops int) {
	gets, news := after.Gets-before.Gets, after.News-before.News
	if gets > 0 {
		v["packet.pool_recycle_pct"] = 100 * float64(gets-news) / float64(gets)
	}
	v["packet.pool_news_per_op"] = float64(news) / float64(ops)
}
