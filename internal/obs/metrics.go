package obs

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. A nil *Counter discards
// adds and reads zero, so instrumented code needs no enablement guards.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that goes up and down: work in flight, not work done.
// A nil *Gauge discards adds and reads zero.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to lower it).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket layout: durations below histSub nanoseconds get one
// bucket each; above that every power of two is cut into histSub equal
// sub-buckets, so a bucket is never wider than 1/histSub of its lower
// edge and one table covers the whole non-negative int64 range.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits) * histSub
)

// bucketOf returns the index of the bucket holding d (d >= 0).
func bucketOf(d time.Duration) int {
	if d < histSub {
		return int(d)
	}
	shift := bits.Len64(uint64(d)) - 1 - histSubBits
	return (shift+1)*histSub + int(d>>shift)&(histSub-1)
}

// bucketBounds returns the inclusive range of durations bucket i holds.
func bucketBounds(i int) (lo, hi time.Duration) {
	if i < histSub {
		return time.Duration(i), time.Duration(i)
	}
	shift := i/histSub - 1
	lo = time.Duration(histSub+i%histSub) << shift
	return lo, lo + 1<<shift - 1
}

// Histogram is a log-linear latency histogram: every quantile it reports
// is within 1/16 of the true value, from 1 ns up. Observe is lock-free
// and does not allocate. A nil *Histogram discards observations.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Observe records one duration; a negative one counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	for cur := h.min.Load(); int64(d) < cur; cur = h.min.Load() {
		if h.min.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for cur := h.max.Load(); int64(d) > cur; cur = h.max.Load() {
		if h.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	h.sum.Add(int64(d))
	// The bucket goes last: a Snapshot that counts this observation also
	// sees its Min, Max and Sum.
	h.buckets[bucketOf(d)].Add(1)
}

// Bucket is one non-empty histogram bucket: N observations in [Lo, Hi].
type Bucket struct {
	Lo, Hi time.Duration
	N      uint64
}

// HistogramSnapshot is a copy of a histogram's state. Sum, Min and Max
// are exact. Taken while writers are active, Sum, Min and Max may already
// include an observation that Count and Buckets do not yet.
type HistogramSnapshot struct {
	Buckets []Bucket // non-empty buckets, ascending
	Count   uint64
	Sum     time.Duration
	Min     time.Duration
	Max     time.Duration
}

// Snapshot returns a copy of the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo, hi := bucketBounds(i)
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: hi, N: n})
			s.Count += n
		}
	}
	if s.Count > 0 {
		s.Sum = time.Duration(h.sum.Load())
		s.Min = time.Duration(h.min.Load())
		s.Max = time.Duration(h.max.Load())
	}
	return s
}

// Mean returns the average observed duration (zero when empty).
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / time.Duration(s.Count)
}

// Quantile returns the q-th quantile (0 < q <= 1) by nearest rank: the
// upper edge of the bucket holding observation number ceil(q*Count),
// capped at Max. It overestimates the true value by at most 1/16.
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.N
		if cum >= rank {
			return min(b.Hi, s.Max)
		}
	}
	return s.Max
}

// Summary renders the snapshot as one compact line:
// "n=12 mean=1.2ms p50=1ms p95=2.5ms max=3.1ms".
func (s HistogramSnapshot) Summary() string {
	if s.Count == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p95=%s max=%s",
		s.Count,
		s.Mean().Round(time.Microsecond),
		s.Quantile(0.50).Round(time.Microsecond),
		s.Quantile(0.95).Round(time.Microsecond),
		s.Max.Round(time.Microsecond))
}

// String renders the snapshot as the summary line plus a bar table for
// tmfctl metrics, one row per non-empty power of two (the 16 sub-buckets
// of a power of two are added up so the table stays readable).
func (s HistogramSnapshot) String() string {
	var sb strings.Builder
	sb.WriteString(s.Summary())
	type row struct {
		below time.Duration
		n     uint64
	}
	var rows []row
	var peak uint64
	for _, b := range s.Buckets {
		below := time.Duration(1) << bits.Len64(uint64(b.Lo|(histSub-1)))
		if len(rows) == 0 || rows[len(rows)-1].below != below {
			rows = append(rows, row{below: below})
		}
		r := &rows[len(rows)-1]
		r.n += b.N
		peak = max(peak, r.n)
	}
	for _, r := range rows {
		bar := strings.Repeat("#", int(1+19*r.n/peak))
		fmt.Fprintf(&sb, "\n  < %-9s %6d %s", round3(r.below), r.n, bar)
	}
	return sb.String()
}

// round3 rounds d to three significant digits (1.048576ms -> 1.05ms).
func round3(d time.Duration) time.Duration {
	unit := time.Duration(1)
	for d/unit >= 1000 {
		unit *= 10
	}
	return d.Round(unit)
}

// Registry is a named collection of counters, gauges and histograms: the node's
// single source of truth for TMF activity metrics. Metric handles are
// created on first use and stable thereafter. A nil *Registry hands out
// nil handles, which safely discard updates.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns the registered gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the registered histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String renders every metric — counters, then gauges, then histograms —
// sorted by name within each kind.
func (r *Registry) String() string {
	if r == nil {
		return ""
	}
	var sb strings.Builder
	for _, n := range r.CounterNames() {
		fmt.Fprintf(&sb, "%-28s %d\n", n, r.Counter(n).Value())
	}
	for _, n := range r.GaugeNames() {
		fmt.Fprintf(&sb, "%-28s %d\n", n, r.Gauge(n).Value())
	}
	for _, n := range r.HistogramNames() {
		fmt.Fprintf(&sb, "%-28s %s\n", n, r.Histogram(n).Snapshot().String())
	}
	return sb.String()
}

// Canonical metric names used by the TMF monitor and the audit trail.
// Tests and CLIs read these instead of the legacy Stats fields, which are
// kept as thin aliases over the same counters.
const (
	MBegun               = "tmf.begun"
	MCommitted           = "tmf.committed"
	MAborted             = "tmf.aborted"
	MBackouts            = "tmf.backouts"
	MBroadcasts          = "tmf.broadcasts"
	MUnreleasedVolumes   = "tmf.unreleased_volumes"
	MBackoutScanFailures = "tmf.backout_scan_failures"
	MStateViolations     = "tmf.state_violations"
	// Forced Monitor Audit Trail appends: one per commit record, none per
	// abort record (presumed abort).
	MOutcomeForces = "tmf.outcome_forces"

	MBeginToEnded = "tmf.latency.begin_to_ended"
	MPhaseOne     = "tmf.latency.phase_one"
	MPhaseTwo     = "tmf.latency.phase_two"
	MBackout      = "tmf.latency.backout"

	MAuditForceRequests = "audit.force_requests"
	MAuditForces        = "audit.forces"
	MAuditForceLatency  = "audit.latency.force"
	// Physical forces led by an AUDITPROCESS's write-behind loop (a
	// subset of MAuditForces; the rest are phase-one and ablation forces).
	MAuditBehindForces = "audit.behind_forces"

	// Safe-delivery retry counter: attempts the owner of an undelivered
	// outcome made after the message's first attempt failed.
	MSafeRetries = "tmf.safe_retries"
	// Gauge: owners of undelivered outcomes (Stats.SafeQueueDepth).
	MSafeQueueDepth = "tmf.safe_queue_depth"

	// Gauge: transactions whose outcome (ENDED or ABORTING) is durable on
	// this node while its first delivery to the children is still in
	// flight. A child that could not be reached passes to an owner
	// (MSafeQueueDepth); the two together are the children that may still
	// hold the transaction's locks.
	MPhase2Outstanding = "tmf.phase2_outstanding"

	// Message-system counter (see msg.System.SetObs): messages dropped
	// after waiting on a stuck process's full inbox.
	MMsgInboxFullDrops = "msg.inbox_full_drops"

	// EXPAND unreliable-network counters (see expand.Network.SetObs).
	MNetRetransmits    = "net.retransmits"
	MNetDupsDropped    = "net.dups_dropped"
	MNetFramesLost     = "net.frames_lost"
	MNetCorruptFrames  = "net.corrupt_frames"
	MNetLinkDownDrops  = "net.link_down_drops"
	MNetDecodeFailures = "net.decode_failures"
	MNetGiveUps        = "net.retransmit_give_ups"
)

// Per-volume DISCPROCESS scheduler metric names. The volume name is part
// of the metric name because all DISCPROCESSes on a node share one
// registry; tmfctl metrics therefore shows where each volume spends its
// time.
func MDiscQueueWait(vol string) string      { return "disc." + vol + ".latency.queue_wait" }
func MDiscAdmitted(vol string) string       { return "disc." + vol + ".sched_admitted" }
func MDiscBrowse(vol string) string         { return "disc." + vol + ".browse_fastpath" }
func MDiscWideBarriers(vol string) string   { return "disc." + vol + ".wide_barriers" }
func MDiscConflictStalls(vol string) string { return "disc." + vol + ".conflict_stalls" }
func MDiscWorkerWakes(vol string) string    { return "disc." + vol + ".worker_wakes" }

// MDiscFileStalls names the per-file conflict-stall counter.
func MDiscFileStalls(vol, file string) string {
	return "disc." + vol + ".conflict_stalls." + file
}
