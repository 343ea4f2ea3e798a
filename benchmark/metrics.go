package main

import (
	"slices"
	"time"

	"mocha/internal/obs"
)

// metricDef names one reported number. BENCHMARK.json lists the same
// names with their direction and regression bound; the smoke test holds
// the two lists together.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system would see, reported by every
// workload from the untraced pass. On holder_crash the throughput and
// latencies are client A's (traffic on locks no fault touches); client
// B's recovery times are per-layer metrics under mocha.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s"},
	{"acquire_p50_ms", "ms"},
	{"acquire_tail_ms", "ms"},
	{"release_p50_ms", "ms"},
	{"release_tail_ms", "ms"},
	{"net_bytes_per_op", "B/op"},
	{"heap_live_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is reported from the traced pass. "layer.metric": the layer
// is the module name. Traced metrics are read during the traced window;
// the rest are micro measurements of the layer's public functions with
// the workloads' message shapes (layers.go), and mocha.* comes from the
// short untraced reference pass that precedes the traced one.
var perLayer = []metricDef{
	{"wire.encode_ns_ctl", "ns"}, {"wire.decode_ns_ctl", "ns"},
	{"wire.encode_allocs_ctl", "count"}, {"wire.decode_allocs_ctl", "count"},
	{"wire.encode_ns_4k", "ns"}, {"wire.decode_ns_4k", "ns"},

	{"marshal.busy_us_per_op", "us"}, {"marshal.calls_per_op", "count"}, {"marshal.bytes_per_op", "B"},
	{"marshal.marshal_ns_4k", "ns"}, {"marshal.unmarshal_ns_4k", "ns"},
	{"marshal.diff_ns_4k_64b", "ns"}, {"marshal.patch_ns_4k_64b", "ns"},

	{"mnet.msgs_per_op", "count"}, {"mnet.pkts_per_op", "count"}, {"mnet.pkts_per_flush", "count"},
	{"mnet.retransmits_per_kop", "count"}, {"mnet.drops", "count"},
	{"mnet.send_ack_us_64b", "us"}, {"mnet.send_ack_us_4k", "us"}, {"mnet.send_ack_us_64k", "us"},
	{"mnet.allocs_per_msg_64b", "count"},

	{"transport.send_busy_us_per_op", "us"}, {"transport.send_calls_per_op", "count"},
	{"transport.stream_dials", "count"},

	{"netsim.pkts_per_op", "count"}, {"netsim.bytes_per_op", "B"},
	{"netsim.dropped", "count"}, {"netsim.blackholed", "count"}, {"netsim.send_ns_per_pkt", "ns"},

	{"core.acquire_total_mean_us", "us"}, {"core.queue_wait_mean_us", "us"},
	{"core.request_rtt_mean_us", "us"}, {"core.transfer_wait_mean_us", "us"},
	{"core.apply_mean_us", "us"}, {"core.grant_deliver_mean_us", "us"},
	{"core.release_total_mean_us", "us"}, {"core.disseminate_mean_us", "us"},
	{"core.phase_sum_ratio", "ratio"}, {"core.span_vs_outside_ratio", "ratio"},
	{"core.grants_per_op", "count"}, {"core.transfers_full_per_op", "count"},
	{"core.transfers_delta_per_op", "count"}, {"core.delta_fallbacks_per_kop", "count"},
	{"core.pushes_per_release", "count"}, {"core.uplink_sends_per_release", "count"},
	{"core.replica_bytes_per_op", "B"}, {"core.daemon_polls_per_kop", "count"},
	{"core.lease_breaks", "count"}, {"core.bans", "count"}, {"core.sync_queue_depth_max", "count"},

	{"overlay.plan_ns_11", "ns"}, {"overlay.buckets", "count"},
	{"overlay.relay_pushes_per_release", "count"}, {"overlay.relay_fallbacks_per_kop", "count"},

	{"placement.home_ns", "ns"}, {"placement.migrations", "count"},
	{"placement.redirects_per_kop", "count"}, {"placement.standby_updates_per_op", "count"},

	{"store.put_us_4k", "us"}, {"store.append_delta_us_64b", "us"}, {"store.commit_us", "us"},
	{"store.refault_us_4k", "us"}, {"store.sync_us", "us"},
	{"store.appends_per_op", "count"}, {"store.fsyncs_per_kop", "count"},
	{"store.refaults", "count"}, {"store.compactions", "count"},

	{"obs.inc_ns", "ns"}, {"obs.observe_ns", "ns"}, {"obs.span_ns", "ns"},
	{"obs.trace_overhead_ratio", "ratio"},

	{"check.events_per_op", "count"}, {"check.recorder_dropped", "count"},
	{"check.monitor_ns_per_event", "ns"},

	{"mocha.cpu_us_per_op", "us"}, {"mocha.allocs_per_op", "count"}, {"mocha.alloc_kb_per_op", "kB"},
	{"mocha.gc_pause_ms", "ms"}, {"mocha.goroutines_peak", "count"}, {"mocha.gen_overhead_ratio", "ratio"},
	{"mocha.recovery_p50_ms", "ms"}, {"mocha.refetch_p50_ms", "ms"}, {"mocha.recovery_max_ms", "ms"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEndMetrics turns an untraced pass into the end-to-end numbers.
func endToEndMetrics(r *passResult) map[string]float64 {
	return map[string]float64{
		"ops_per_s":        r.opsPerSec,
		"acquire_p50_ms":   ms(r.acquireP50),
		"acquire_tail_ms":  ms(r.acquireTail),
		"release_p50_ms":   ms(r.releaseP50),
		"release_tail_ms":  ms(r.releaseTail),
		"net_bytes_per_op": float64(r.netBytes) / float64(r.ops),
		"heap_live_mb":     float64(r.heapLive) / (1 << 20),
		"setup_s":          r.setup.Seconds(),
	}
}

// layerMetrics turns a traced pass, the untraced reference pass before it
// and the micro measurements into the per-layer numbers.
func layerMetrics(ref, tr *passResult, dropped uint64, micro map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for k, v := range micro {
		m[k] = v
	}
	ops := float64(tr.ops)
	kops := ops / 1000
	a, b := tr.after, tr.before
	delta := func(c obs.Counter) float64 { return float64(a.counters[c] - b.counters[c]) }
	histSum := func(h obs.HistID) float64 { return float64(a.hists[h].Sum - b.hists[h].Sum) }
	meanUs := func(h obs.HistID) float64 {
		return ratio(histSum(h), float64(a.hists[h].Count-b.hists[h].Count)) / 1e3
	}
	releases := delta(obs.CReleases)

	m["marshal.busy_us_per_op"] = float64(a.codecBusyNs-b.codecBusyNs) / 1e3 / ops
	m["marshal.calls_per_op"] = float64(a.codecCalls-b.codecCalls) / ops
	m["marshal.bytes_per_op"] = float64(a.codecBytes-b.codecBytes) / ops

	m["mnet.msgs_per_op"] = delta(obs.CMsgsSent) / ops
	m["mnet.pkts_per_op"] = delta(obs.CSendBatchPkts) / ops
	m["mnet.pkts_per_flush"] = ratio(delta(obs.CSendBatchPkts), delta(obs.CSendBatches))
	m["mnet.retransmits_per_kop"] = delta(obs.CRetransmits) / kops
	m["mnet.drops"] = delta(obs.CQueueDrops) + delta(obs.CFlushDrops)

	m["transport.send_busy_us_per_op"] = float64(a.sendBusyNs-b.sendBusyNs) / 1e3 / ops
	m["transport.send_calls_per_op"] = float64(a.sendCalls-b.sendCalls) / ops
	m["transport.stream_dials"] = delta(obs.CStreamDials)

	m["netsim.pkts_per_op"] = float64(tr.netPkts) / ops
	m["netsim.bytes_per_op"] = float64(tr.netBytes) / ops
	m["netsim.dropped"] = float64(tr.netDropped)
	m["netsim.blackholed"] = float64(tr.netBlack)

	m["core.acquire_total_mean_us"] = meanUs(obs.HAcquireTotal)
	m["core.queue_wait_mean_us"] = meanUs(obs.HQueueWait)
	m["core.request_rtt_mean_us"] = meanUs(obs.HRequestRTT)
	m["core.transfer_wait_mean_us"] = meanUs(obs.HTransferWait)
	m["core.apply_mean_us"] = meanUs(obs.HApply)
	m["core.grant_deliver_mean_us"] = meanUs(obs.HGrantDeliver)
	m["core.release_total_mean_us"] = meanUs(obs.HReleaseTotal)
	m["core.disseminate_mean_us"] = meanUs(obs.HDisseminate)
	m["core.phase_sum_ratio"] = ratio(
		histSum(obs.HQueueWait)+histSum(obs.HRequestRTT)+histSum(obs.HTransferWait),
		histSum(obs.HAcquireTotal))
	m["core.span_vs_outside_ratio"] = ratio(meanUs(obs.HAcquireTotal)*1e3, float64(tr.acquireMean))
	m["core.grants_per_op"] = delta(obs.CGrants) / ops
	m["core.transfers_full_per_op"] = delta(obs.CTransfersFull) / ops
	m["core.transfers_delta_per_op"] = delta(obs.CTransfersDelta) / ops
	m["core.delta_fallbacks_per_kop"] = delta(obs.CDeltaFallbacks) / kops
	m["core.pushes_per_release"] = ratio(delta(obs.CPushes), releases)
	m["core.uplink_sends_per_release"] = ratio(float64(tr.uplinkSends), releases)
	m["core.replica_bytes_per_op"] = delta(obs.CTransferBytes) / ops
	m["core.daemon_polls_per_kop"] = delta(obs.CDaemonPolls) / kops
	m["core.lease_breaks"] = delta(obs.CLeaseBreaks)
	m["core.bans"] = delta(obs.CBans)
	m["core.sync_queue_depth_max"] = float64(tr.syncDepthMax)

	m["overlay.buckets"] = float64(a.buckets)
	m["overlay.relay_pushes_per_release"] = ratio(delta(obs.CRelayPushes), releases)
	m["overlay.relay_fallbacks_per_kop"] = delta(obs.CRelayFallbacks) / kops

	m["placement.migrations"] = delta(obs.CHomeMigrations)
	m["placement.redirects_per_kop"] = delta(obs.CHomeRedirects) / kops
	m["placement.standby_updates_per_op"] = delta(obs.CStandbyUpdates) / ops

	m["store.appends_per_op"] = float64(tr.stores.appends) / ops
	m["store.fsyncs_per_kop"] = float64(tr.stores.fsyncs) / kops
	m["store.refaults"] = float64(tr.stores.refaults)
	m["store.compactions"] = float64(tr.stores.compactions)

	m["obs.trace_overhead_ratio"] = tr.opsPerSec / ref.opsPerSec

	m["check.events_per_op"] = float64(a.events-b.events) / ops
	m["check.recorder_dropped"] = float64(dropped)

	refOps := float64(ref.ops)
	m["mocha.cpu_us_per_op"] = float64(ref.cpu) / 1e3 / refOps
	m["mocha.allocs_per_op"] = float64(ref.mallocs) / refOps
	m["mocha.alloc_kb_per_op"] = float64(ref.allocBytes) / 1e3 / refOps
	m["mocha.gc_pause_ms"] = ms(ref.gcPause)
	m["mocha.goroutines_peak"] = float64(ref.goroutinesPeak)
	m["mocha.gen_overhead_ratio"] = ref.genOverhead
	// Recovery is set by failure-detection timers, not by tracing, so the
	// two passes' fault cycles are pooled: a pass alone has few of them.
	recovery := pooled(ref.recovery, tr.recovery)
	refetch := pooled(ref.refetch, tr.refetch)
	m["mocha.recovery_p50_ms"] = p50OrZero(recovery)
	m["mocha.refetch_p50_ms"] = p50OrZero(refetch)
	m["mocha.recovery_max_ms"] = 0
	if all := pooled(recovery, refetch); len(all) > 0 {
		m["mocha.recovery_max_ms"] = ms(all[len(all)-1])
	}
	return m
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// pooled is a and b together, sorted.
func pooled(a, b []time.Duration) []time.Duration {
	out := append(append([]time.Duration(nil), a...), b...)
	slices.Sort(out)
	return out
}

func p50OrZero(sorted []time.Duration) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return ms(percentile(sorted, 50))
}
