package main

import (
	"fmt"
	"runtime"
	"time"
)

// perLayer is the traced run: a shorter run whose rounds alternate tracing
// off and on. Spans recorded around the driver's own calls give each
// layer's time; public Stats()/Registry() deltas over all its measured
// rounds, divided by committed transactions, give each layer's work; the
// difference between its untraced and traced rounds is the tracing
// overhead. End-to-end metrics never come from here.
func perLayer(w *workload, seed int64, seconds int, outDir string) (*result, error) {
	res := &result{correct: true}
	e, _, err := setUp(w, 1)
	if err != nil {
		return nil, err
	}
	r := newRunner(w, e, seed, warmupRounds+2*tracedPairs, terminals, scaledOps(w, seconds))
	for ri := 0; ri < warmupRounds; ri++ {
		r.round(ri, nil)
	}
	t0 := time.Now()
	archive := e.home.TakeArchive()
	archiveS := time.Since(t0).Seconds()

	var (
		tr                  = newTracer()
		total, plain        roundResult
		tpsPlain, tpsTraced []float64
		cpu, wall           time.Duration
	)
	timed := func(ri int, tr *tracer) roundResult {
		c0 := processCPU()
		rr := r.round(ri, tr)
		cpu += processCPU() - c0
		wall += rr.wall
		runtime.GC()
		total.merge(&rr)
		return rr
	}
	runtime.GC()
	before := readCounters(e)
	for ri := warmupRounds; ri < warmupRounds+2*tracedPairs; ri += 2 {
		rr := timed(ri, nil)
		tpsPlain = append(tpsPlain, float64(len(rr.lat[kindUpdate]))/rr.wall.Seconds())
		plain.merge(&rr)
		rr = timed(ri+1, tr)
		tpsTraced = append(tpsTraced, float64(len(rr.lat[kindUpdate]))/rr.wall.Seconds())
	}
	d := readCounters(e).minus(before)

	res.verdict("before crash", r.oracle())
	var queuedPeak, instances float64 // read before the crash retires the class
	if e.class != nil {
		st := e.class.Stats()
		queuedPeak, instances = float64(st.QueuedPeak), float64(st.Instances)
	}
	recoverTimes, rf, err := crashRecover(e, archive, 1)
	if err != nil {
		return nil, err
	}
	res.verdict("after recovery", r.oracle())

	ops := float64(res.account(&total, r.firstErr))
	tx := float64(len(total.lat[kindUpdate])) // committed update transactions
	perTx := func(key string) float64 { return ratio(d[key], tx) }
	perKtx := func(key string) float64 { return 1000 * ratio(d[key], tx) }
	histUs := func(key string) float64 { return ratio(d[key+".ns"]/1e3, d[key+".n"]) }
	spans := totalSpans(tr.spans)

	res.add("terminal.self_us_per_tx", ratio(float64(spans.self["terminal.exec"])/1e3, float64(spans.n["terminal.exec"])), "us")
	began := float64(total.attempted[kindUpdate] + total.attempted[kindAbort])
	res.add("terminal.restarts_per_ktx", 1000*ratio(d["tmf.begun"]-began, tx), "count")
	res.add("terminal.tx_p99_ms", ms(float64(percentileNs(plain.lat[kindUpdate], 99))), "ms")

	res.add("appserver.self_us_per_tx", ratio(float64(spans.self["appserver.call"])/1e3, float64(spans.n["appserver.call"])), "us")
	res.add("appserver.dispatched_per_tx", perTx("appserver.dispatched"), "count")
	res.add("appserver.queued_peak", queuedPeak, "count")
	res.add("appserver.instances", instances, "count")

	for _, call := range []string{"readlock", "update", "append", "read", "readrange"} {
		res.add("fsys."+call+"_us_per_op", spans.meanUs("fsys."+call), "us")
	}

	res.add("discproc.ops_per_tx", perTx("disc.ops"), "count")
	res.add("discproc.queue_wait_us_per_op", histUs("disc.queue_wait"), "us")
	res.add("discproc.conflict_stalls_per_ktx", perKtx("disc.conflict_stalls"), "count")
	res.add("discproc.browse_share", ratio(d["disc.browse"], d["disc.ops"]), "ratio")
	res.add("discproc.cache_hit_ratio", ratio(d["cache.hits"], d["cache.hits"]+d["cache.misses"]), "ratio")
	res.add("disk.reads_per_op", ratio(d["disk.reads"], ops), "count")
	res.add("disk.writes_per_tx", perTx("disk.writes"), "count")

	res.add("lock.grants_per_tx", perTx("lock.grants"), "count")
	res.add("lock.waits_per_ktx", perKtx("lock.waits"), "count")
	res.add("lock.timeouts_per_ktx", perKtx("lock.timeouts"), "count")

	res.add("pair.checkpoints_per_tx", perTx("pair.checkpoints"), "count")
	res.add("hw.bus_transfers_per_tx", perTx("hw.bus_transfers"), "count")
	res.add("tmf.broadcasts_per_tx", perTx("tmf.broadcasts"), "count")

	res.add("audit.force_requests_per_tx", perTx("audit.force_requests"), "count")
	res.add("audit.forces_per_tx", perTx("audit.forces"), "count")
	res.add("audit.riders_per_force", ratio(d["audit.force_requests"], d["audit.forces"]), "count")
	res.add("audit.trail_bytes_per_tx", perTx("audit.trail_bytes"), "B")
	res.add("audit.force_wait_us_per_tx", ratio(d["audit.force.ns"]/1e3, tx), "us")

	res.add("tmf.begin_us_per_tx", spans.meanUs("tmf.begin"), "us")
	res.add("tmf.end_us_per_tx", spans.meanUs("tmf.end"), "us")
	res.add("tmf.phase1_us_per_tx", histUs("tmf.phase1"), "us")
	res.add("tmf.phase2_us_per_tx", histUs("tmf.phase2"), "us")
	res.add("tmf.backout_us_per_abort", histUs("tmf.backout"), "us")

	res.add("expand.frames_per_tx", perTx("expand.frames"), "count")
	res.add("expand.bytes_per_tx", perTx("expand.bytes"), "B")
	res.add("expand.retransmits", d["expand.retransmits"], "count")

	res.add("rollforward.archive_s", archiveS, "s")
	res.add("rollforward.images_scanned", float64(rf.ImagesScanned), "count")
	res.add("rollforward.images_per_s", ratio(float64(rf.ImagesScanned), recoverTimes[0]), "1/s")
	res.add("rollforward.tx_committed", float64(rf.TxCommitted), "count")
	res.add("rollforward.tx_discarded", float64(rf.TxDiscarded), "count")

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem) // the last round ended with a collection, so HeapAlloc is live heap
	res.add("runtime.cpu_us_per_op", ratio(float64(cpu)/1e3, ops), "us")
	res.add("runtime.cpu_busy_pct", 100*ratio(float64(cpu), float64(wall)), "%")
	res.add("runtime.gc_cycles_per_kop", 1000*ratio(d["runtime.gc_cycles"], ops), "count")
	res.add("runtime.gc_pause_ms", d["runtime.gc_pause_ns"]/1e6, "ms")
	res.add("runtime.heap_live_mb_end", float64(mem.HeapAlloc)/(1<<20), "MB")
	res.add("runtime.goroutines_end", float64(runtime.NumGoroutine()), "count")
	res.add("host.round_iqr_pct", summarize(tpsPlain).iqrPct(), "%")
	res.add("trace.overhead_pct", 100*(ratio(quantile(tpsPlain, 0.5), quantile(tpsTraced, 0.5))-1), "%")
	// Share of update-transaction latency the spans below the terminal
	// account for: everything but the requester's own self time.
	res.add("trace.coverage_pct", 100*(1-ratio(float64(spans.self["terminal.exec"]), float64(spans.dur["terminal.exec"]))), "%")

	if err := drill(res); err != nil {
		return nil, err
	}

	path, err := writeSpans(outDir, fmt.Sprintf("spans-%s.jsonl", w.name), tr.spans)
	if err != nil {
		return nil, fmt.Errorf("span dump: %w", err)
	}
	res.logf("spans: %d written to %s", len(tr.spans), path)
	return res, nil
}
