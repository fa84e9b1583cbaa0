package main

import (
	aodbmetrics "aodb/internal/metrics"
)

// layerMetrics derives the per-layer metrics of a traced run. Counts from
// the program's registries and the Go runtime cover the whole timed
// window; probe counts cover the traced intervals and are divided by the
// requests completed in them (on). all counts every request of the
// timed window.
func layerMetrics(tr *tracer, after *layerSnap, closed []closedResult, open openResult, d *driver, on, all [kindCount]int64) []metric {
	b := tr.before
	sec := after.at.Sub(b.at).Seconds()
	total := func(c [kindCount]int64) float64 {
		var n int64
		for _, v := range c {
			n += v
		}
		return float64(n)
	}
	reqs, reqsOn := total(all), total(on)
	insertsOn := float64(on[kindInsert] + on[kindCold]) // cold requests are inserts
	ratio := func(n, base float64) float64 {
		if base == 0 {
			return 0
		}
		return n / base
	}
	ctr := func(name string) float64 {
		return float64(after.regs.counters[name] - b.regs.counters[name])
	}
	hist := func(name string) aodbmetrics.Snapshot {
		return histDelta(b.regs.hists[name], after.regs.hists[name])
	}
	us := func(s aodbmetrics.Snapshot, p float64) float64 { return float64(s.Percentile(p)) / 1e3 }
	probe := func(a, b probeSnap) (calls, bytes float64, lat aodbmetrics.Snapshot) {
		return float64(a.calls - b.calls), float64(a.bytes - b.bytes), histDelta(b.lat, a.lat)
	}
	trCalls, _, trLat := probe(after.transport, b.transport)
	plCalls, _, plLat := probe(after.place, b.place)
	stCalls, stBytes, stLat := probe(after.store, b.store)
	_, _, ldLat := probe(after.load, b.load)

	// Probe overhead: the even closed-loop slices ran untraced, the odd
	// ones traced, on the same deployment.
	var offN, offS, onN, onS float64
	for i, c := range closed {
		if i%2 == 0 {
			offN, offS = offN+float64(c.completed), offS+c.elapsed.Seconds()
		} else {
			onN, onS = onN+float64(c.completed), onS+c.elapsed.Seconds()
		}
	}
	overhead := 0.0
	if offN > 0 && onS > 0 {
		offRate, onRate := offN/offS, onN/onS
		overhead = (offRate - onRate) / offRate * 100
	}

	late := open.late
	goB, goA := b.goRT, after.goRT
	pooled, spawned := ctr("transport.dispatch.pooled"), ctr("transport.dispatch.spawned")
	fan := d.fanout.Snapshot()
	return []metric{
		{"loadgen.late_p99_ms", ms(percentile(late, 99)), "ms"},
		{"loadgen.late_max_ms", ms(percentile(late, 100)), "ms"},
		{"loadgen.outstanding_max", float64(d.inflightMax.Load()), "count"},
		{"go.alloc_bytes_per_req", ratio(float64(goA.allocBytes-goB.allocBytes), reqs), "B"},
		{"go.allocs_per_req", ratio(float64(goA.allocObjects-goB.allocObjects), reqs), "count"},
		{"go.gc_cycles", float64(goA.gcCycles - goB.gcCycles), "count"},
		{"go.gc_cpu_frac", ratio(goA.gcCPU-goB.gcCPU, goA.totalCPU-goB.totalCPU), "ratio"},
		{"go.goroutines", float64(tr.maxGor.Load()), "count"},
		{"core.turns_per_req", ratio(ctr("core.turns"), reqs), "count"},
		{"core.retries_per_req", ratio(ctr("core.call_retries"), reqs), "count"},
		{"core.activations_per_s", ratio(ctr("core.activations"), sec), "1/s"},
		{"core.deactivations_per_s", ratio(ctr("core.deactivations"), sec), "1/s"},
		{"placement.place_calls_per_req", ratio(plCalls, reqsOn), "count"},
		{"placement.place_us_p99", us(plLat, 99), "us"},
		{"query.fanout_width", fan.Mean(), "count"},
		{"shm.state_bytes_per_write", ratio(stBytes, stCalls), "B"},
		{"transport.calls_per_req", ratio(trCalls, reqsOn), "count"},
		{"transport.call_us_p50", us(trLat, 50), "us"},
		{"transport.call_us_p99", us(trLat, 99), "us"},
		{"transport.frames_per_flush", ratio(ctr("transport.frames.sent"), ctr("transport.flushes")), "count"},
		{"transport.flush_us_p99", us(hist("transport.flush.latency"), 99), "us"},
		{"transport.sendq_depth_max", float64(tr.maxSendQ.Load()), "count"},
		{"transport.dispatch_spawn_frac", ratio(spawned, pooled+spawned), "ratio"},
		{"replication.store_us_p50", us(stLat, 50), "us"},
		{"replication.store_us_p99", us(stLat, 99), "us"},
		{"replication.load_us_p50", us(ldLat, 50), "us"},
		{"replication.load_us_p99", us(ldLat, 99), "us"},
		{"replication.stores_per_insert", ratio(stCalls, insertsOn), "count"},
		{"replication.hints_recorded", ctr("replication.hints.recorded"), "count"},
		{"replication.sloppy_writes", ctr("replication.writes.sloppy"), "count"},
		{"kvstore.writes_per_s", ratio(ctr("kvstore.writes"), sec), "1/s"},
		{"kvstore.reads_per_s", ratio(ctr("kvstore.reads"), sec), "1/s"},
		{"kvstore.flush_wait_us_p99", us(hist("kvstore.flush_wait"), 99), "us"},
		{"kvstore.disk_bytes_per_state_byte", ratio(float64(after.diskBytes), float64(after.liveStateBytes)), "ratio"},
		{"wal.records_per_flush", hist("wal.flush.records").Mean(), "count"},
		{"wal.flushes_per_s", ratio(ctr("wal.flushes"), sec), "1/s"},
		{"wal.flush_us_p99", us(hist("wal.flush.latency"), 99), "us"},
		{"trace.overhead_pct", overhead, "%"},
	}
}
