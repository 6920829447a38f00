package experiments

import (
	"fmt"
	"time"

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
func t14(r *Report) error {
	r.Columns = []string{
		"protocol", "healthy/commit", "net frames/commit", "resolved while dead", "resolve latency", "in-doubt at end", "participant lock",
	}
	r.Notes = []string{
		fmt.Sprintf("coordinator CPU killed between phase one and the commit record; window %s, participant lock probe timeout %s", t14Window, t14LockTimeout),
		"pass bound: Paxos participants reach the disposition and release locks while the coordinator is dead; abbreviated 2PC participants stay in doubt holding locks",
	}
	results := map[string]*t14Kill{}
	for _, proto := range []string{tmf.ProtoAbbreviated, tmf.ProtoPaxos} {
		healthy, frames, err := t14Healthy(r, proto)
		if err != nil {
			return fmt.Errorf("%s healthy run: %w", proto, err)
		}
		k, err := t14KillRun(r, proto)
		if err != nil {
			return fmt.Errorf("%s kill run: %w", proto, err)
		}
		results[proto] = k

		resolved, latency := "no (blocked)", "> "+t14Window.String()
		if k.resolved {
			resolved, latency = "yes", dur(k.resolveLatency)
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
	return nil
}

// t14Healthy runs t14HealthyTxs distributed commits from a, the
// coordinator's home, each with one record on a and one on b, the
// participant, and returns the per-commit latency and the EXPAND
// frames each commit put on the a–b line, phase two included: the insert
// on b and the TMP-to-TMP messages under both protocols, plus the
// participant's vote to the home node's acceptors under Paxos Commit.
func t14Healthy(r *Report, proto string) (perCommit time.Duration, framesPerCommit float64, err error) {
	sys, files, err := r.build(cluster{nodes: []string{"a", "b"}, cache: 1024, proto: proto})
	if err != nil {
		return 0, 0, err
	}
	home := sys.Node("a")
	framesBefore := sys.Network.Stats().Frames
	start := time.Now()
	if _, err := commit(home, 0, t14HealthyTxs, files...); err != nil {
		return 0, 0, err
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
func t14KillRun(r *Report, proto string) (*t14Kill, error) {
	sys, files, err := r.build(cluster{nodes: []string{"a", "b"}, cache: 1024, proto: proto})
	if err != nil {
		return nil, err
	}
	a, b := sys.Node("a"), sys.Node("b")
	b.FS.LockTimeout = t14LockTimeout

	tx, err := a.Begin()
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		if err := tx.Insert(f, "hot", []byte("v0")); err != nil {
			return nil, err
		}
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
		close(park)
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
	if err == nil {
		probeStart := time.Now()
		_, perr := probe.ReadLock(files[1], "hot")
		k.lockWait = time.Since(probeStart)
		k.lockAvailable = perr == nil
		err = probe.Abort("t14 lock probe")
	}

	// Revive the world, let the parked END resume, and record the
	// coordinator's final disposition so divergence would be visible.
	close(park)
	if err != nil {
		return nil, err
	}
	if err := <-commitErr; err != nil {
		k.finalOutcome = "END error: " + err.Error()
	} else {
		k.finalOutcome = a.TMF.State(tx.ID).String()
	}
	return k, nil
}
