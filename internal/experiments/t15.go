package experiments

import (
	"fmt"
	"time"

	"encompass"
	"encompass/internal/load"
	"encompass/internal/obs"
)

// Knobs for T15, settable from cmd/tmfbench flags.
var (
	// T15Rate is the aggregate offered load in tx/sec.
	T15Rate = 120_000.0
	// T15Terminals is the simulated terminal count (one goroutine each).
	T15Terminals = 10_000
	// T15Duration is the measured open-loop window.
	T15Duration = 2 * time.Second
	// T15Warmup runs before measurement starts.
	T15Warmup = 300 * time.Millisecond
)

const (
	t15CPUs    = 8
	t15Volumes = 8
	t15Seed    = 1515
)

// t15Build assembles the single-node system under test: t15CPUs processors,
// t15Volumes audited volumes (one DISCPROCESS each, so request traffic
// fans out instead of funnelling through one process), and one pre-seeded
// record per terminal.
func t15Build() (*encompass.System, error) {
	var vols []encompass.VolumeSpec
	for v := 0; v < t15Volumes; v++ {
		vols = append(vols, encompass.VolumeSpec{
			Name: fmt.Sprintf("v%d", v), Audited: true, CacheSize: 4096,
		})
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{Name: "n", CPUs: t15CPUs, Volumes: vols}},
	})
	if err != nil {
		return nil, err
	}
	node := sys.Node("n")
	for v := 0; v < t15Volumes; v++ {
		f := fmt.Sprintf("f%d", v)
		vol := fmt.Sprintf("v%d", v)
		if err := node.FS.Create(encompass.LocalFile(f, encompass.KeySequenced, "n", vol)); err != nil {
			return nil, err
		}
	}
	// One record per terminal, spread over the volumes; seeded in chunks so
	// setup doesn't run one mega-transaction against each volume.
	const chunk = 512
	for base := 0; base < T15Terminals; base += chunk {
		tx, err := node.Begin()
		if err != nil {
			return nil, err
		}
		for t := base; t < base+chunk && t < T15Terminals; t++ {
			if err := tx.Insert(fmt.Sprintf("f%d", t%t15Volumes), t15Key(t), []byte("0")); err != nil {
				return nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

func t15Key(term int) string { return fmt.Sprintf("t%06d", term) }

// t15Run drives the open-loop load and returns the load result.
// The transaction is the shortest realistic TMF unit of work: BEGIN, read
// the terminal's own record with lock, update it, END — one audited record
// touch, no artificial contention, so the measurement is protocol overhead
// rather than lock queueing.
func t15Run() (load.Result, error) {
	sys, err := t15Build()
	if err != nil {
		return load.Result{}, err
	}
	node := sys.Node("n")
	hist := obs.NewHistogram(obs.FineLatencyBuckets)
	res, err := load.Run(load.Config{
		Terminals: T15Terminals,
		Rate:      T15Rate,
		Arrival:   load.ArrivalPoisson,
		Duration:  T15Duration,
		Warmup:    T15Warmup,
		Seed:      t15Seed,
		Hist:      hist,
		Tx: func(term, seq int) error {
			file := fmt.Sprintf("f%d", term%t15Volumes)
			tx, err := node.Begin()
			if err != nil {
				return err
			}
			cur, err := tx.ReadLock(file, t15Key(term))
			if err != nil {
				tx.Abort(err.Error())
				return err
			}
			if err := tx.Update(file, t15Key(term), append(cur[:0:0], cur...)); err != nil {
				tx.Abort(err.Error())
				return err
			}
			return tx.Commit()
		},
	})
	return res, err
}

// T15 measures sustained open-loop throughput at terminal scale.
//
// T9–T14 are closed-loop: a fixed worker pool issues the next transaction
// only when the previous one returns, so a stalled system quietly sheds
// offered load and the recorded latencies omit exactly the delays a real
// terminal population would have seen (coordinated omission). T15 is
// open-loop: T15Terminals goroutine-terminals issue on Poisson schedules
// totalling T15Rate tx/sec regardless of completions, and every latency is
// measured from the intended send time. The offered rate is far above
// what one host sustains, so the achieved rate is a measurement, not a
// claim; T15 passes on the harness's own invariants — every issued
// transaction is accounted committed or failed and has exactly one
// latency observation.
func T15() *Report {
	r := &Report{
		ID:    "T15",
		Title: "terminal-scale open-loop throughput",
		Columns: []string{
			"terminals", "offered tx/s", "achieved tx/s",
			"p50", "p95", "p99", "max lag",
		},
		Metrics: map[string]float64{},
	}
	res, err := t15Run()
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	r.Rows = append(r.Rows, []string{
		i2s(T15Terminals), f2s(T15Rate), f2s(res.Throughput()),
		dur(res.Hist.Quantile(0.50)), dur(res.Hist.Quantile(0.95)),
		dur(res.Hist.Quantile(0.99)), dur(res.MaxLag),
	})
	r.Notes = append(r.Notes, fmt.Sprintf(
		"open-loop, coordinated-omission-safe: latency from intended send time; %d issued, %d committed, %d failed in the measured window",
		res.Issued, res.Committed, res.Failed))
	r.Metrics["throughput.tx_per_sec"] = res.Throughput()
	r.Metrics["throughput.p50_ns"] = float64(res.Hist.Quantile(0.50))
	r.Metrics["throughput.p95_ns"] = float64(res.Hist.Quantile(0.95))
	r.Metrics["throughput.p99_ns"] = float64(res.Hist.Quantile(0.99))
	r.Metrics["throughput.max_lag_ns"] = float64(res.MaxLag)
	r.Metrics["throughput.issued"] = float64(res.Issued)
	r.Metrics["throughput.failed"] = float64(res.Failed)
	r.Pass = res.Issued > 0 && res.Issued == res.Committed+res.Failed && res.Hist.Count == res.Issued
	return r
}
