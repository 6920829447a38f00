package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/hw"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// The layer drill times isolated calls into single layers, on one
// goroutine with nothing else running, so a regression can be pinned to a
// layer without a profiler. Each drill runs drillBatches batches of
// drillIters calls and reports the median batch's ns per call and the
// allocations per call.
const (
	drillBatches = 5
	drillIters   = 5000
)

var drillSink any // keeps results alive so calls are not optimised away

func drillOne(res *result, name string, call func(i int)) {
	for i := 0; i < drillIters/10; i++ { // warm caches and lazy set-up
		call(i)
	}
	var (
		ns  []float64
		mem runtime.MemStats
	)
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	for b := 0; b < drillBatches; b++ {
		t0 := time.Now()
		for i := 0; i < drillIters; i++ {
			call(i)
		}
		ns = append(ns, float64(time.Since(t0))/drillIters)
	}
	runtime.ReadMemStats(&mem)
	res.add(name+"_ns", quantile(ns, 0.5), "ns")
	res.add(name+"_allocs", float64(mem.Mallocs-mallocs)/(drillBatches*drillIters), "count")
}

func drill(res *result) error {
	tx := txid.ID{Home: "drill", CPU: 1, Seq: 42}
	granted := func(error) {}

	locks := lock.NewManager()
	key := lock.Key{File: "accounts", Record: "a0000001"}
	drillOne(res, "lock.acquire_release", func(int) {
		locks.Acquire(tx, key, time.Second, granted)
		locks.ReleaseAll(tx)
	})

	img := audit.Image{Tx: tx, Volume: "v1", File: "accounts", Key: "a0000001",
		Kind: audit.ImageUpdate, Before: []byte("1000"), After: []byte("1001")}
	trail := audit.NewTrail("drill-append", 0)
	drillOne(res, "audit.append", func(int) { trail.Append(img) })
	// One append and the force that makes it durable, force delay zero.
	forced := audit.NewTrail("drill-force", 0)
	drillOne(res, "audit.force", func(int) { forced.Force(forced.Append(img)) })

	node, err := hw.NewNode("drill", 2)
	if err != nil {
		return err
	}
	sys := msg.NewSystem(node)
	ctx := context.Background()
	if _, err := sys.Spawn(0, "echo", func(p *msg.Process) {
		for {
			m, err := p.Recv(ctx)
			if err != nil {
				return // CPU failed below: the drill is over
			}
			_ = p.Reply(m, nil) // an undeliverable reply fails the caller's ClientCall
		}
	}); err != nil {
		return err
	}
	echo := msg.Addr{Name: "echo"}
	var callErr error
	call := func(fromCPU int) func(int) {
		return func(int) {
			if _, err := sys.ClientCall(ctx, fromCPU, echo, "ping", nil); err != nil {
				callErr = err
			}
		}
	}
	drillOne(res, "msg.call_same_cpu", call(0))
	drillOne(res, "msg.call_cross_cpu", call(1))
	drillOne(res, "hw.transfer", func(int) { _ = node.Transfer(0, 1, func() {}) })
	_ = node.FailCPU(0) // stops the echo process
	_ = node.FailCPU(1)
	if callErr != nil {
		return fmt.Errorf("drill: echo call: %w", callErr)
	}

	const records = 10000
	file := dbfile.NewFile("drill", dbfile.KeySequenced)
	keys := make([]string, records)
	for i := range keys {
		keys[i] = recKey('a', int32(i), 7)
		if err := file.Insert(keys[i], []byte("1000")); err != nil {
			return err
		}
	}
	drillOne(res, "dbfile.read", func(i int) { drillSink, _ = file.Read(keys[i%records]) })
	val := []byte("1001")
	drillOne(res, "dbfile.update", func(i int) { _ = file.Update(keys[i%records], val) })

	id := tx.String()
	drillOne(res, "txid.parse", func(int) { drillSink, _ = txid.Parse(id) })
	return nil
}
