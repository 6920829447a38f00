package main

import (
	"runtime"
	"syscall"
	"time"

	"encompass/internal/obs"
)

// counters is one reading of every public Stats()/Registry() counter the
// per-layer ledger uses, summed over all nodes and volumes. The difference
// of two readings taken around the measured rounds is the work each layer
// did for them.
type counters map[string]float64

func (c counters) minus(before counters) counters {
	d := make(counters, len(c))
	for k, v := range c {
		d[k] = v - before[k]
	}
	return d
}

// addHist adds a registry histogram's running sum and count.
func (c counters) addHist(key string, reg *obs.Registry, name string) {
	if reg == nil {
		return
	}
	s := reg.Histogram(name).Snapshot()
	c[key+".ns"] += float64(s.Sum)
	c[key+".n"] += float64(s.Count)
}

func readCounters(e *env) counters {
	c := make(counters)
	if e.class != nil {
		c["appserver.dispatched"] = float64(e.class.Stats().Dispatched)
	}
	for _, node := range e.sys.Nodes() {
		reg := node.TMF.Registry()
		x, y := node.HW.BusTraffic()
		c["hw.bus_transfers"] += float64(x + y)
		seenTrail := make(map[string]bool)
		for name, v := range node.Volumes {
			st := v.Proc.Stats()
			c["disc.ops"] += float64(st.Ops)
			c["disc.browse"] += float64(st.Sched.BrowseOps)
			c["disc.conflict_stalls"] += float64(st.Sched.ConflictStalls)
			c["cache.hits"] += float64(st.CacheStats.Hits)
			c["cache.misses"] += float64(st.CacheStats.Misses)
			c["lock.grants"] += float64(st.LockStats.Grants)
			c["lock.waits"] += float64(st.LockStats.Waits)
			c["lock.timeouts"] += float64(st.LockStats.Timeouts)
			c["pair.checkpoints"] += float64(st.Pair.Checkpoints)
			ds := v.Disk.Stats()
			c["disk.reads"] += float64(ds.Reads)
			c["disk.writes"] += float64(ds.Writes)
			c.addHist("disc.queue_wait", reg, obs.MDiscQueueWait(name))
			if v.Trail != nil && !seenTrail[v.Trail.Name()] {
				seenTrail[v.Trail.Name()] = true
				fs := v.Trail.ForceStats()
				c["audit.force_requests"] += float64(fs.Requests)
				c["audit.forces"] += float64(fs.Forces)
				c["audit.trail_bytes"] += float64(v.Trail.SizeBytes())
			}
		}
		c.addHist("audit.force", reg, obs.MAuditForceLatency)
	}
	home := e.home.TMF
	ts := home.Stats()
	c["tmf.begun"], c["tmf.broadcasts"] = float64(ts.Begun), float64(ts.BroadcastMsgs)
	c.addHist("tmf.phase1", home.Registry(), obs.MPhaseOne)
	c.addHist("tmf.phase2", home.Registry(), obs.MPhaseTwo)
	c.addHist("tmf.backout", home.Registry(), obs.MBackout)
	ns := e.sys.Network.Stats()
	c["expand.frames"], c["expand.bytes"], c["expand.retransmits"] =
		float64(ns.Frames), float64(ns.Bytes), float64(ns.Retransmits)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["runtime.mallocs"], c["runtime.alloc_bytes"] = float64(ms.Mallocs), float64(ms.TotalAlloc)
	c["runtime.gc_cycles"] = float64(ms.NumGC - ms.NumForcedGC) // the driver forces one between rounds
	c["runtime.gc_pause_ns"] = float64(ms.PauseTotalNs)
	return c
}

// processCPU is the user plus system processor time this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
