package experiments

import (
	"fmt"
	"slices"
	"time"

	"encompass"
	"encompass/internal/mfg"
	"encompass/internal/workload"
)

// buildChain builds n nodes (a, b, c, ...) in a line, each with one
// audited volume "v<name>" and a key-sequenced file "f<name>".
func buildChain(n int, auditDelay time.Duration) (*encompass.System, []string, error) {
	var specs []encompass.NodeSpec
	var names []string
	for i := 0; i < n; i++ {
		name := string(rune('a' + i))
		names = append(names, name)
		specs = append(specs, encompass.NodeSpec{
			Name: name, CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v" + name, Audited: true, CacheSize: 128}},
		})
	}
	sys, err := encompass.Build(encompass.Config{Nodes: specs, AuditForceDelay: auditDelay})
	if err != nil {
		return nil, nil, err
	}
	for _, name := range names {
		if err := sys.CreateFileEverywhere(encompass.LocalFile("f"+name, encompass.KeySequenced, name, "v"+name)); err != nil {
			return nil, nil, err
		}
	}
	return sys, names, nil
}

// T1: the abbreviated single-node two-phase commit vs the distributed
// protocol. Commit latency and network frames per transaction grow with
// participant count; the single-node case needs no network at all.
func T1() *Report {
	r := &Report{
		Columns: []string{"participants", "avg commit latency", "p95", "net frames/tx"},
	}
	const txs = 40
	var lat1 time.Duration
	pass := true
	for _, participants := range []int{1, 2, 3, 4} {
		sys, names, err := buildChain(participants, 0)
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		home := sys.Node(names[0])
		var total time.Duration
		var lats []time.Duration
		f0 := sys.Network.Stats().Frames
		for i := 0; i < txs; i++ {
			tx, err := home.Begin()
			if err != nil {
				pass = false
				continue
			}
			for _, name := range names {
				tx.Insert("f"+name, fmt.Sprintf("k%03d", i), []byte("v"))
			}
			t0 := time.Now()
			if err := tx.Commit(); err != nil {
				pass = false
				continue
			}
			d := time.Since(t0)
			total += d
			lats = append(lats, d)
		}
		frames := sys.Network.Stats().Frames - f0
		avg := total / txs
		if participants == 1 {
			lat1 = avg
		}
		p95 := percentile(lats, 95)
		r.Rows = append(r.Rows, []string{
			i2s(participants), dur(avg), dur(p95), f2s(float64(frames) / float64(txs)),
		})
	}
	// Shape: distributed costs more than single-node.
	lastAvg, _ := time.ParseDuration("0")
	if len(r.Rows) == 4 {
		lastAvg, _ = time.ParseDuration(r.Rows[3][1])
	}
	if lastAvg <= lat1 {
		pass = false
	}
	r.Notes = append(r.Notes,
		"single-node transactions use the abbreviated protocol: zero network frames",
		"each added participant adds phase-one (critical) and phase-two (safe-delivery) TMP round trips")
	r.Pass = pass
	return r
}

func percentile(d []time.Duration, p int) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sorted := slices.Clone(d)
	slices.Sort(sorted)
	return sorted[p*(len(sorted)-1)/100]
}

// T2: the WAL ablation. The paper replaces Write-Ahead-Log forcing with
// checkpoint-to-backup; audit records are forced only at commit. With a
// simulated disc-force latency, the conventional force-every-update
// discipline pays one force per update while the checkpoint discipline
// pays one per commit.
func T2() *Report {
	r := &Report{
		Columns: []string{"discipline", "txs", "updates/tx", "elapsed", "tx/s", "trail forces"},
	}
	const (
		txs          = 30
		updatesPerTx = 8
		forceDelay   = 300 * time.Microsecond
	)
	run := func(forceEvery bool) (time.Duration, uint64, bool) {
		sys, err := encompass.Build(encompass.Config{
			Nodes: []encompass.NodeSpec{{
				Name: "alpha", CPUs: 4,
				Volumes: []encompass.VolumeSpec{{
					Name: "v1", Audited: true, CacheSize: 128, ForceEveryUpdate: forceEvery,
				}},
			}},
			AuditForceDelay: forceDelay,
		})
		if err != nil {
			return 0, 0, false
		}
		node := sys.Node("alpha")
		node.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
		ok := true
		t0 := time.Now()
		for i := 0; i < txs; i++ {
			tx, err := node.Begin()
			if err != nil {
				ok = false
				continue
			}
			for u := 0; u < updatesPerTx; u++ {
				tx.Insert("f", fmt.Sprintf("k%04d-%d", i, u), []byte("v"))
			}
			if err := tx.Commit(); err != nil {
				ok = false
			}
		}
		elapsed := time.Since(t0)
		return elapsed, node.Volumes["v1"].Trail.ForceCount(), ok
	}
	walElapsed, walForces, ok1 := run(true)
	ckElapsed, ckForces, ok2 := run(false)
	r.Pass = forceAblationVerdict(ok1 && ok2, walForces, ckForces, walElapsed, ckElapsed)
	r.Rows = append(r.Rows,
		[]string{"force-per-update (conventional WAL)", i2s(txs), i2s(updatesPerTx), dur(walElapsed),
			f2s(float64(txs) / walElapsed.Seconds()), u2s(walForces)},
		[]string{"checkpoint + force-at-commit (TMF)", i2s(txs), i2s(updatesPerTx), dur(ckElapsed),
			f2s(float64(txs) / ckElapsed.Seconds()), u2s(ckForces)},
	)
	r.Notes = append(r.Notes,
		"\"checkpoint is the functional equivalent of Write Ahead Log\": recoverability comes from the backup, so only commit forces remain",
		fmt.Sprintf("force reduction: %dx fewer trail forces", walForces/max(ckForces, 1)))
	return r
}

// forceAblationVerdict is T2's classification: both runs must commit
// cleanly and the checkpoint discipline must strictly beat conventional
// WAL on both trail forces and elapsed time — a tie on either fails.
func forceAblationVerdict(ok bool, walForces, ckForces uint64, walElapsed, ckElapsed time.Duration) bool {
	return ok && ckForces < walForces && ckElapsed < walElapsed
}

// T3: transaction backout cost is linear in the number of updates to
// reverse (before-images applied newest-first).
func T3() *Report {
	r := &Report{
		Columns: []string{"updates", "abort latency", "restored"},
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 4096}},
		}},
	})
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	node := sys.Node("alpha")
	node.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
	// Committed baseline records.
	seed, _ := node.Begin()
	for i := 0; i < 256; i++ {
		seed.Insert("f", fmt.Sprintf("k%04d", i), []byte("orig"))
	}
	if err := seed.Commit(); err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	pass := true
	var first, last time.Duration
	for _, n := range []int{1, 4, 16, 64, 256} {
		tx, _ := node.Begin()
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%04d", i)
			if _, err := node.FS.ReadLock(tx.ID, "f", key); err != nil {
				pass = false
			}
			if err := node.FS.Update(tx.ID, "f", key, []byte("dirty")); err != nil {
				pass = false
			}
		}
		t0 := time.Now()
		tx.Abort("measure backout")
		d := time.Since(t0)
		// Verify restoration.
		restored := true
		for i := 0; i < n; i++ {
			v, err := node.FS.Read("f", fmt.Sprintf("k%04d", i))
			if err != nil || string(v) != "orig" {
				restored = false
			}
		}
		pass = pass && restored
		if n == 1 {
			first = d
		}
		last = d
		r.Rows = append(r.Rows, []string{i2s(n), dur(d), fmt.Sprintf("%v", restored)})
	}
	r.Notes = append(r.Notes, "cost grows with the number of before-images to apply")
	r.Pass = pass && last > first
	return r
}

// T4: decentralized concurrency control under contention — deadlock
// detection by timeout and RESTART-TRANSACTION recovery keep a hot-spot
// workload live.
func T4() *Report {
	r := &Report{
		Columns: []string{"concurrency", "committed", "retries", "lock timeouts", "tx/s"},
	}
	pass := true
	for _, conc := range []int{1, 4, 8} {
		sys, err := encompass.Build(encompass.Config{
			Nodes: []encompass.NodeSpec{{
				Name: "alpha", CPUs: 4,
				Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 128}},
			}},
		})
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		sys.Node("alpha").FS.LockTimeout = 100 * time.Millisecond
		bank, err := workload.SetupBank(sys, workload.BankConfig{
			Placement: []workload.Placement{{Node: "alpha", Volume: "v1"}},
			Branches:  1, Tellers: 2, Accounts: 4,
			HotAccounts: 0.8, MaxRetries: 30, Seed: 11,
		})
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		res := bank.Run("alpha", 40, conc)
		timeouts := sys.Node("alpha").Volumes["v1"].Proc.Stats().LockStats.Timeouts
		pass = pass && res.Committed == 40 && bank.VerifyConsistency() == nil
		r.Rows = append(r.Rows, []string{
			i2s(conc), i2s(res.Committed), i2s(res.Retries), u2s(timeouts), f2s(res.TPS()),
		})
	}
	r.Notes = append(r.Notes,
		"all transactions eventually commit; timeouts surface as RESTART-TRANSACTION retries",
		"the TP1 invariant holds at every concurrency level")
	r.Pass = pass
	return r
}

// T5: ROLLFORWARD recovery time grows with the committed history to
// replay; recovered state is complete.
func T5() *Report {
	r := &Report{
		Columns: []string{"committed txs", "images replayed", "recovery time", "records verified"},
	}
	pass := true
	var prev time.Duration
	for _, n := range []int{100, 400, 1600} {
		sys, err := encompass.Build(encompass.Config{
			Nodes: []encompass.NodeSpec{
				{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true, CacheSize: 4096}}},
				{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
			},
		})
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		a := sys.Node("a")
		sys.CreateFileEverywhere(encompass.LocalFile("f", encompass.KeySequenced, "a", "va"))
		arch := a.TakeArchive()
		for i := 0; i < n; i++ {
			tx, _ := a.Begin()
			tx.Insert("f", fmt.Sprintf("k%06d", i), []byte("v"))
			if err := tx.Commit(); err != nil {
				pass = false
			}
		}
		a.Crash()
		t0 := time.Now()
		st, err := a.Recover(arch)
		d := time.Since(t0)
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		recs, _ := a.FS.ReadRange("f", "", "", 0)
		ok := len(recs) == n && st.ImagesReplayed == n
		pass = pass && ok && recoveryGrowth(prev, d)
		prev = d
		r.Rows = append(r.Rows, []string{i2s(n), i2s(st.ImagesReplayed), dur(d), fmt.Sprintf("%d/%d", len(recs), n)})
	}
	r.Notes = append(r.Notes, "recovery = restore archive + redo committed after-images in LSN order")
	r.Pass = pass
	return r
}

// recoveryGrowth is T5's per-step classification: ROLLFORWARD time must
// grow with history length, but scheduling noise means we only require
// each run to take at least a quarter of its predecessor.
func recoveryGrowth(prev, cur time.Duration) bool { return cur >= prev/4 }

// T6: why broadcast inside a node but participant-only across the network:
// intra-node state-change broadcasts grow with CPU count (cheap, reliable
// bus), while network traffic stays proportional to participants only.
func T6() *Report {
	r := &Report{
		Columns: []string{"config", "txs", "bus msgs/tx", "net frames/tx"},
	}
	const txs = 30
	pass := true
	var busCosts []float64
	for _, cpus := range []int{2, 4, 8, 16} {
		sys, err := encompass.Build(encompass.Config{
			Nodes: []encompass.NodeSpec{{
				Name: "alpha", CPUs: cpus,
				Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true}},
			}},
		})
		if err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
		node := sys.Node("alpha")
		node.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
		x0, y0 := node.HW.BusTraffic()
		for i := 0; i < txs; i++ {
			tx, _ := node.Begin()
			tx.Insert("f", fmt.Sprintf("k%03d", i), []byte("v"))
			if err := tx.Commit(); err != nil {
				pass = false
			}
		}
		x1, y1 := node.HW.BusTraffic()
		busPerTx := float64((x1+y1)-(x0+y0)) / txs
		busCosts = append(busCosts, busPerTx)
		r.Rows = append(r.Rows, []string{fmt.Sprintf("1 node, %d CPUs", cpus), i2s(txs), f2s(busPerTx), "0.0"})
	}
	// Distributed: network frames proportional to participants, not CPUs.
	sys, names, err := buildChain(2, 0)
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	home := sys.Node(names[0])
	f0 := sys.Network.Stats().Frames
	for i := 0; i < txs; i++ {
		tx, _ := home.Begin()
		tx.Insert("fa", fmt.Sprintf("k%03d", i), []byte("v"))
		tx.Insert("fb", fmt.Sprintf("k%03d", i), []byte("v"))
		if err := tx.Commit(); err != nil {
			pass = false
		}
	}
	frames := float64(sys.Network.Stats().Frames-f0) / txs
	r.Rows = append(r.Rows, []string{"2 nodes, 4+4 CPUs (distributed tx)", i2s(txs), "per-node", f2s(frames)})
	r.Notes = append(r.Notes,
		"bus messages per transaction grow with CPU count — affordable on the fast reliable bus",
		"across the network, only participating nodes exchange TMP messages")
	// Shape check: 16-CPU bus cost > 2-CPU bus cost.
	if len(busCosts) >= 4 && busCosts[len(busCosts)-1] <= busCosts[0] {
		pass = false
	}
	r.Pass = pass
	return r
}

// T7: availability under partition — the master/suspense scheme vs
// synchronous replication.
func T7() *Report {
	r := &Report{
		Columns: []string{"scheme", "phase", "attempted", "succeeded"},
	}
	var specs []encompass.NodeSpec
	for _, n := range mfg.DefaultNodes {
		specs = append(specs, encompass.NodeSpec{
			Name: n, CPUs: 3,
			Volumes: []encompass.VolumeSpec{{Name: "v-" + n, Audited: true}},
		})
	}
	links := [][2]string{
		{"cupertino", "santaclara"}, {"santaclara", "reston"},
		{"reston", "neufahrn"}, {"neufahrn", "cupertino"},
	}
	sys, err := encompass.Build(encompass.Config{Nodes: specs, Links: links})
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	app, err := mfg.Install(sys, mfg.DefaultNodes, 10*time.Millisecond)
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	defer app.Stop()
	const items = 8
	for i := 0; i < items; i++ {
		// Master nodes rotate over the three nodes that stay connected.
		master := mfg.DefaultNodes[i%3]
		if err := app.SeedItem("item-master", fmt.Sprintf("item%d", i), master, "v0"); err != nil {
			r.Notes = append(r.Notes, err.Error())
			return r
		}
	}
	attempt := func(scheme string, phase string, f func(i int) error) int {
		ok := 0
		for i := 0; i < items; i++ {
			if f(i) == nil {
				ok++
			}
		}
		r.Rows = append(r.Rows, []string{scheme, phase, i2s(items), i2s(ok)})
		return ok
	}

	healthyMaster := attempt("master+suspense", "healthy", func(i int) error {
		return app.UpdateItem("santaclara", "item-master", fmt.Sprintf("item%d", i), "h1")
	})
	healthySync := attempt("synchronous", "healthy", func(i int) error {
		return app.UpdateItemSync("santaclara", "item-master", fmt.Sprintf("item%d", i), "h2")
	})

	sys.Partition("neufahrn")
	partMaster := attempt("master+suspense", "partitioned", func(i int) error {
		return app.UpdateItem("santaclara", "item-master", fmt.Sprintf("item%d", i), "p1")
	})
	partSync := attempt("synchronous", "partitioned", func(i int) error {
		return app.UpdateItemSync("santaclara", "item-master", fmt.Sprintf("item%d", i), "p2")
	})
	sys.Heal()

	converged := true
	for i := 0; i < items; i++ {
		if !app.WaitConverged("item-master", fmt.Sprintf("item%d", i), 15*time.Second) {
			converged = false
		}
	}
	r.Notes = append(r.Notes,
		"masters were placed on the three connected nodes: the master scheme stays fully available",
		"synchronous replication drops to zero during the partition",
		fmt.Sprintf("post-heal convergence of all items: %v", converged))
	r.Pass = partitionVerdict(items, healthyMaster, healthySync, partMaster, partSync, converged)
	return r
}

// partitionVerdict is T7's classification: the master+suspense scheme must
// stay fully available in both phases, synchronous replication must work
// when healthy and fail completely during the partition, and every replica
// must converge after the heal.
func partitionVerdict(items, healthyMaster, healthySync, partMaster, partSync int, converged bool) bool {
	return healthyMaster == items && healthySync == items &&
		partMaster == items && partSync == 0 && converged
}
