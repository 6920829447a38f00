package experiments

import (
	"fmt"
	"time"

	"encompass"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

const (
	// t14Window is how long the killed coordinator stays dead while the
	// participant is probed. It must exceed the in-doubt watcher's first
	// few probe delays (120ms base, doubling) or Paxos Commit cannot
	// demonstrate resolution inside it.
	t14Window       = 1200 * time.Millisecond
	t14HealthyTxs   = 20
	t14LockTimeout  = 150 * time.Millisecond
	t14PollInterval = 10 * time.Millisecond
)

// T14 measures disposition-protocol behaviour when the coordinator dies
// in the in-doubt window: after every participant has acknowledged phase
// one but before the commit record is written. The paper's abbreviated
// protocol — the "2PC" row of Gray & Lamport's comparison — leaves
// participants in doubt, holding locks, until an operator intervenes;
// Paxos Commit's acceptor quorum lets participants learn the disposition
// with the coordinator still dead. Each protocol runs twice: a healthy
// pass measuring the protocol's per-commit cost in time and in network
// frames, and a kill pass where a phase-one hook crashes the coordinator
// CPU and parks the END mid-protocol while the participant is watched for
// resolution and probed for lock availability.
func T14() *Report {
	r := &Report{
		Columns: []string{
			"protocol", "healthy/commit", "net frames/commit", "resolved while dead", "resolve latency", "in-doubt at end", "participant lock",
		},
		Notes: []string{
			fmt.Sprintf("coordinator CPU killed between phase one and the commit record; window %s, participant lock probe timeout %s", t14Window, t14LockTimeout),
			"pass bound: Paxos participants reach the disposition and release locks while the coordinator is dead; abbreviated 2PC participants stay in doubt holding locks",
		},
	}
	results := map[string]*t14Kill{}
	for _, proto := range []string{tmf.ProtoAbbreviated, tmf.ProtoPaxos} {
		healthy, frames, err := t14Healthy(proto)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s healthy run: %v", proto, err))
			return r
		}
		k, err := t14KillRun(proto)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("%s kill run: %v", proto, err))
			return r
		}
		results[proto] = k

		resolved, latency := "no (blocked)", "> "+t14Window.String()
		if k.resolved {
			resolved = "yes"
			latency = dur(k.resolveLatency)
		}
		lock := fmt.Sprintf("HELD (wait %s)", dur(k.lockWait))
		if k.lockAvailable {
			lock = fmt.Sprintf("available (%s)", dur(k.lockWait))
		}
		r.Rows = append(r.Rows, []string{
			proto, dur(healthy), f2s(frames), resolved, latency, i2s(k.inDoubtAtEnd), lock,
		})
		r.Notes = append(r.Notes, fmt.Sprintf("%s: coordinator outcome after revival: %s", proto, k.finalOutcome))
	}

	ab, px := results[tmf.ProtoAbbreviated], results[tmf.ProtoPaxos]
	r.Pass = px != nil && ab != nil &&
		px.resolved && px.inDoubtAtEnd == 0 && px.lockAvailable &&
		!ab.resolved && ab.inDoubtAtEnd > 0 && !ab.lockAvailable
	return r
}

// t14Build assembles the two-node cluster: a (coordinator home) and b
// (participant), one audited volume and one key-sequenced file each.
func t14Build(proto string) (*encompass.System, error) {
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "a", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "va", Audited: true, CacheSize: 1024}}},
			{Name: "b", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true, CacheSize: 1024}}},
		},
		CommitProtocol: proto,
	})
	if err != nil {
		return nil, err
	}
	for _, f := range []struct{ file, node, vol string }{{"fa", "a", "va"}, {"fb", "b", "vb"}} {
		if err := sys.CreateFileEverywhere(encompass.LocalFile(f.file, encompass.KeySequenced, f.node, f.vol)); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// t14Healthy runs t14HealthyTxs distributed commits (one record on each
// node per transaction) and returns the per-commit latency and the EXPAND
// frames each commit put on the a–b line, phase two included: the insert
// on b and the TMP-to-TMP messages under both protocols, plus the
// participant's vote to the home node's acceptors under Paxos Commit.
func t14Healthy(proto string) (perCommit time.Duration, framesPerCommit float64, err error) {
	sys, err := t14Build(proto)
	if err != nil {
		return 0, 0, err
	}
	home := sys.Node("a")
	framesBefore := sys.Network.Stats().Frames
	start := time.Now()
	for i := 0; i < t14HealthyTxs; i++ {
		tx, err := home.Begin()
		if err != nil {
			return 0, 0, err
		}
		key := fmt.Sprintf("k%04d", i)
		if err := tx.Insert("fa", key, []byte("v")); err != nil {
			return 0, 0, err
		}
		if err := tx.Insert("fb", key, []byte("v")); err != nil {
			return 0, 0, err
		}
		if err := tx.Commit(); err != nil {
			return 0, 0, err
		}
	}
	perCommit = time.Since(start) / t14HealthyTxs
	if !home.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		return 0, 0, fmt.Errorf("phase two still outstanding after the healthy pass")
	}
	frames := sys.Network.Stats().Frames - framesBefore
	return perCommit, float64(frames) / t14HealthyTxs, nil
}

// t14Kill carries one protocol's coordinator-kill measurements.
type t14Kill struct {
	resolved       bool          // participant reached the disposition while the coordinator was dead
	resolveLatency time.Duration // kill -> participant's in-doubt set drained
	inDoubtAtEnd   int           // participant transactions still in doubt when the window closed
	lockAvailable  bool          // a fresh participant transaction could lock the contested record
	lockWait       time.Duration // how long the lock probe waited (≈ t14LockTimeout when blocked)
	finalOutcome   string        // coordinator's disposition after the END resumed
}

// t14KillRun drives one distributed transaction into the in-doubt window,
// kills the coordinator CPU there, and measures the participant while the
// coordinator stays dead.
func t14KillRun(proto string) (*t14Kill, error) {
	sys, err := t14Build(proto)
	if err != nil {
		return nil, err
	}
	a, b := sys.Node("a"), sys.Node("b")
	b.FS.LockTimeout = t14LockTimeout

	tx, err := a.Begin()
	if err != nil {
		return nil, err
	}
	if err := tx.Insert("fa", "hot", []byte("v0")); err != nil {
		return nil, err
	}
	if err := tx.Insert("fb", "hot", []byte("v0")); err != nil {
		return nil, err
	}

	// The hook fires with every participant phase-one-acked and no commit
	// record written: the exact window the paper's operator-override
	// discussion is about. Kill the coordinator CPU and park the END.
	killed := make(chan time.Time, 1)
	park := make(chan struct{})
	a.TMF.SetPhase1Hook(func(txid.ID) {
		a.TMF.SetPhase1Hook(nil)
		a.HW.FailCPU(0)
		killed <- time.Now()
		<-park
	})
	commitErr := make(chan error, 1)
	go func() { commitErr <- tx.Commit() }()

	var killedAt time.Time
	select {
	case killedAt = <-killed:
	case <-time.After(5 * time.Second):
		return nil, fmt.Errorf("phase-one hook never fired")
	}

	// Watch the participant while the coordinator is dead.
	k := &t14Kill{}
	deadline := killedAt.Add(t14Window)
	for {
		if len(b.TMF.InDoubt()) == 0 {
			k.resolved = true
			k.resolveLatency = time.Since(killedAt)
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(t14PollInterval)
	}
	k.inDoubtAtEnd = len(b.TMF.InDoubt())

	// Lock probe, still with the coordinator dead: can a fresh local
	// transaction on the participant lock the record the distributed
	// transaction wrote?
	probe, err := b.Begin()
	if err != nil {
		return nil, err
	}
	probeStart := time.Now()
	_, perr := probe.ReadLock("fb", "hot")
	k.lockWait = time.Since(probeStart)
	k.lockAvailable = perr == nil
	probe.Abort("t14 lock probe")

	// Revive the world, let the parked END resume, and record the
	// coordinator's final disposition so divergence would be visible.
	close(park)
	if err := <-commitErr; err != nil {
		k.finalOutcome = "END error: " + err.Error()
	} else {
		k.finalOutcome = a.TMF.State(tx.ID).String()
	}
	return k, nil
}
