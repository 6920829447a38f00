package tmf

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"encompass/internal/audit"
	"encompass/internal/discproc"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// protocol timeouts and retry bounds
const (
	volCallTimeout      = 5 * time.Second
	criticalCallTimeout = 5 * time.Second

	// volRetries bounds the retry of best-effort phase-two volume calls
	// (lock release, freeze, undo, backout scans). A transient DISCPROCESS
	// timeout must not leak locks or silently skip a trail's before-images.
	volRetries = 3
	// volRetryBackoff is the linear per-attempt backoff between retries.
	volRetryBackoff = 2 * time.Millisecond
)

// volCall is one volume's request in a callVolumes round.
type volCall struct {
	live  bool // sent this round: no reply yet, or the last one failed
	pend  msg.Pending
	start time.Time
	dur   time.Duration
	err   error
}

// callVolumes sends kind to the DISCPROCESS of every volume in vols and
// collects the replies on the caller's goroutine. The calls are nowait:
// every request is on its way before the first wait, so the volumes serve
// them — and their trails force — concurrently, without a goroutine per
// volume. payload(i) is volume i's request, a pointer the volume only
// reads, so a retry sends the same one. A volume whose call failed is sent
// its request again, up to attempts times in all, with linear backoff
// between rounds. done then sees every volume once, in order, with its
// last error and the time from its first send until its reply was
// collected.
func (m *Monitor) callVolumes(vols []VolumeInfo, kind string, payload func(i int) any, attempts int, done func(i int, d time.Duration, err error)) {
	var buf [4]volCall
	calls := buf[:]
	if len(vols) > len(buf) {
		calls = make([]volCall, len(vols))
	}
	calls = calls[:len(vols)]
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(time.Duration(attempt) * volRetryBackoff)
		}
		cpu := m.tmpCPUOrFirstUp()
		for i := range calls {
			c := &calls[i]
			if c.live = attempt == 0 || c.err != nil; !c.live {
				continue
			}
			if attempt == 0 {
				c.start = time.Now()
			}
			c.pend, c.err = m.sys.Start(cpu, msg.Addr{Name: vols[i].DiscName}, kind, payload(i))
		}
		failed := false
		for i := range calls {
			c := &calls[i]
			if !c.live {
				continue
			}
			if c.err == nil {
				_, c.err = c.pend.Await(volCallTimeout)
			}
			c.dur = time.Since(c.start)
			failed = failed || c.err != nil
		}
		if !failed {
			break
		}
	}
	for i := range calls {
		done(i, calls[i].dur, calls[i].err)
	}
}

// lockProto acquires the transaction's protocol mutex, serializing
// commit/abort/phase-one work for this transid on this node.
func (m *Monitor) lockProto(tx txid.ID) (*tcb, error) {
	t, err := m.tcb(tx)
	if err != nil {
		return nil, err
	}
	t.protoMu.Lock()
	return t, nil
}

// End runs END-TRANSACTION: the two-phase commit protocol. It must be
// called on the transaction's home node. It returns at the commit point:
// on success the commit record is forced, ENDED is broadcast and the home
// node's locks are released, while the child nodes — bound by their
// phase-one votes — learn the outcome from a safe-delivery that is still
// on its way (Stats.Phase2Outstanding counts it; WaitSafeQueueEmpty waits
// for it). On failure the transaction has been aborted and backed out on
// every reachable participant, and the caller (typically a TCP) may
// restart it.
func (m *Monitor) End(tx txid.ID) error {
	t, err := m.lockProto(tx)
	if err != nil {
		return err
	}
	defer t.protoMu.Unlock()
	if !t.isHome {
		return fmt.Errorf("%w: END of %s attempted on %s", ErrNotHome, tx, m.node)
	}
	// A transaction the system already aborted rejects END; the Screen
	// COBOL program is then restarted at BEGIN-TRANSACTION.
	if st := m.State(tx); st != txid.StateActive {
		if st == txid.StateAborting || st == txid.StateAborted {
			return fmt.Errorf("%w: %s (state %s at END)", ErrAborted, tx, st)
		}
		return fmt.Errorf("%w: END of %s in state %s", ErrBadState, tx, st)
	}
	// A coordinator resuming after a stall must honor an abort the
	// recovery path (or the operator) already recorded: the abort record
	// in the MAT is final, exactly as the commit record is in abortLocked.
	if o, ok := m.mat.OutcomeOf(tx); ok && o == audit.OutcomeAborted {
		return fmt.Errorf("%w: %s (aborted while END was stalled)", ErrAborted, tx)
	}

	// END-TRANSACTION: the transaction accepts no further data-base work.
	m.closeToNewWork(tx)
	// Phase one: enter "ending", force audit records everywhere.
	m.broadcast(tx, txid.StateEnding, "")
	p1Start := time.Now()
	if err := m.phase1(tx); err != nil {
		m.abortLocked(t, unilateral, fmt.Sprintf("phase one failed: %v", err))
		return fmt.Errorf("%w: %s: phase one failed: %v", ErrAborted, tx, err)
	}
	// The home node's own Prepared vote: under Paxos Commit this is the
	// last ballot-0 fast-path accept — after it succeeds, every instance
	// of the transaction is chosen Prepared and no recovery ballot can
	// decide anything but commit.
	acceptors := m.paxosCoordinator(tx)
	if acceptors != nil {
		if err := acceptors.Vote(tx, m.node, true); err != nil {
			m.abortLocked(t, unilateral, fmt.Sprintf("disposition vote failed: %v", err))
			return fmt.Errorf("%w: %s: disposition vote failed: %v", ErrAborted, tx, err)
		}
	}
	m.hPhase1.Observe(time.Since(p1Start))
	if hp := m.phase1Hook.Load(); hp != nil {
		// Fault-injection point between phase one and the commit record,
		// used by the in-doubt experiments.
		(*hp)(tx)
	}
	// Abbreviated 2PC decides by fiat: writing the commit record below IS
	// the decision. Under Paxos Commit the votes already chose Committed;
	// recording that with the acceptors lets a learner resolve in one round
	// trip instead of collecting every instance.
	if acceptors != nil {
		acceptors.RecordOutcome(tx, audit.OutcomeCommitted)
	}
	// Commit point, then phase two. The children's ENDED is "guaranteed,
	// but not time-critical": the application's answer does not wait for it.
	if d := m.commitLocked(tx); d != nil {
		go d.send(nil)
	}
	m.observeBeginToEnded(tx)
	return nil
}

// commitLocked commits tx on this node with the protocol mutex held. The
// commit record in the Monitor Audit Trail is the commit point; the
// committed counter moves with it (recordOutcome), so Stats agrees with
// the trail however far phase two has got. Then ENDED is broadcast, the
// local locks are released and the ENDED delivery to the children is
// built, for the caller to send.
func (m *Monitor) commitLocked(tx txid.ID) *delivery {
	m.recordOutcome(tx, audit.OutcomeCommitted)
	m.broadcast(tx, txid.StateEnded, "")
	p2Start := time.Now()
	m.releaseLocal(tx)
	return m.safeDeliverChildren(tx, kindEnded, p2Start)
}

// observeBeginToEnded records the begin→terminal latency for a transaction
// whose begin this node witnessed.
func (m *Monitor) observeBeginToEnded(tx txid.ID) {
	m.mu.Lock()
	t, ok := m.txs[tx]
	var begin time.Time
	if ok {
		begin = t.beginAt
	}
	m.mu.Unlock()
	if !begin.IsZero() {
		m.hBeginToEnded.Observe(time.Since(begin))
	}
}

// recordOutcome writes the transaction's completion record to the Monitor
// Audit Trail, forcing it only for a commit, and bumps the matching
// counters only when the record is new, so the committed/aborted counters
// always equal the trail's contents.
// (End previously counted committed before phase two ran, and applyEnded
// recorded the outcome without counting at all.)
func (m *Monitor) recordOutcome(tx txid.ID, o audit.Outcome) {
	got, isNew := m.mat.Append(tx, o)
	if !isNew || got != o {
		return
	}
	switch o {
	case audit.OutcomeCommitted:
		m.cCommitted.Inc()
		m.cOutcomeForces.Inc()
	case audit.OutcomeAborted:
		m.cAborted.Inc()
	}
	m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvOutcome, Node: m.node,
		CPU: m.tmpCPUOrFirstUp(), Detail: o.String()})
}

// phase1 runs both halves of phase one together (alongside): the
// critical-response request goes to every node this node directly
// transmitted the transid to, then this node's audit trails are forced
// while they serve it. "For critical response messages, the destination
// TMP must be accessible at the time the message is initiated, and it must
// reply with an affirmative response in order for the transaction state
// change to proceed." Children are independent subtrees of the
// transmission tree, so their phase-one work (which recurses to their own
// children) proceeds concurrently. Both halves must succeed for the commit
// to proceed: this node's error comes first, then the first child's in
// name order.
func (m *Monitor) phase1(tx txid.ID) error {
	children, err := m.childrenOf(tx)
	if err != nil {
		return err
	}
	m.alongside(children, kindPhase1, tmpReq{Tx: tx}, func() { err = m.phase1Local(tx) }, func(child string, cerr error) {
		if cerr != nil && err == nil {
			err = fmt.Errorf("phase one to %s: %w", child, cerr)
		}
	})
	return err
}

// phase1Local forces this node's audit trails for the transaction: one
// flush per participating volume, all sent before the first is awaited
// (each flush blocks for the trail's simulated disc-force latency, so the
// sequential seed paid the sum of the forces; overlapped flushes pay the
// max, and flushes that share a trail are coalesced by the trail's group
// commit). The first volume that failed, in name order, is the error.
func (m *Monitor) phase1Local(tx txid.ID) error {
	var buf [4]VolumeInfo
	vols, req, err := m.volumesOf(tx, buf[:0])
	if err != nil || len(vols) == 0 {
		return err
	}
	var first error
	m.callVolumes(vols, discproc.KindFlush, func(int) any { return req }, 1, func(i int, d time.Duration, err error) {
		ev := obs.Event{Tx: tx, Kind: obs.EvForce, Node: m.node,
			CPU: m.tmpCPUOrFirstUp(), Dur: d, Detail: vols[i].Name}
		if err != nil {
			ev.Err = err.Error()
			if first == nil {
				first = fmt.Errorf("flush %s: %w", vols[i].Name, err)
			}
		}
		m.tracer.Record(ev)
	})
	return first
}

// releaseLocal tells every participating DISCPROCESS on this node to
// release the transaction's locks (phase two), all at once and with
// bounded retry: the seed discarded these errors, so one transient
// DISCPROCESS timeout leaked the transaction's locks on that volume until
// manual intervention. A volume that still fails after the retries is
// counted in Stats.UnreleasedVolumes.
func (m *Monitor) releaseLocal(tx txid.ID) {
	var buf [4]VolumeInfo
	vols, req, err := m.volumesOf(tx, buf[:0])
	if err != nil || len(vols) == 0 {
		return
	}
	m.callVolumes(vols, discproc.KindEndTx, func(int) any { return req }, volRetries, func(i int, d time.Duration, err error) {
		ev := obs.Event{Tx: tx, Kind: obs.EvPhase2Release, Node: m.node,
			CPU: m.tmpCPUOrFirstUp(), Dur: d, Detail: vols[i].Name}
		if err != nil {
			ev.Err = err.Error()
			m.cUnreleased.Inc()
		}
		m.tracer.Record(ev)
	})
}

// freezeLocal marks the transaction ended-for-new-work at every
// participating DISCPROCESS, while its locks stay held. Run before backout
// so no straggler operation can interleave with the undo. Freezes go to
// every volume at once, with bounded retry.
func (m *Monitor) freezeLocal(tx txid.ID) {
	var buf [4]VolumeInfo
	vols, req, err := m.volumesOf(tx, buf[:0])
	if err != nil || len(vols) == 0 {
		return
	}
	m.callVolumes(vols, discproc.KindFreeze, func(int) any { return req }, volRetries, func(int, time.Duration, error) {})
}

// abortCause says who decided an abort. A node may abort a transaction
// unilaterally until it has replied affirmatively to phase one; after that
// only the disposition can abort it there, imposed by the parent's
// ABORTING, the acceptors or the operator.
type abortCause string

const (
	unilateral abortCause = "unilateral"
	imposed    abortCause = obs.CauseImposed
)

// Abort backs out a transaction, voluntarily (ABORT-TRANSACTION /
// RESTART-TRANSACTION) or on a failure the caller saw: a unilateral abort,
// refused with ErrInDoubt on a non-home node that voted yes.
func (m *Monitor) Abort(tx txid.ID, reason string) error {
	return m.abort(tx, unilateral, reason)
}

// abort takes tx's protocol mutex and aborts it.
func (m *Monitor) abort(tx txid.ID, c abortCause, reason string) error {
	t, err := m.lockProto(tx)
	if err != nil {
		return err
	}
	defer t.protoMu.Unlock()
	return m.abortLocked(t, c, reason)
}

// abortLocked is the one abort path; the caller holds t.protoMu. A
// non-home node that voted yes refuses a unilateral abort: it holds the
// transaction's locks until it learns the disposition. Otherwise: state
// "aborting", then the safe-delivery of the abort to the child nodes goes
// out, and while they back out — each node backs out its own updates from
// its own trails, "without the need for communication with other nodes" —
// this node does its own: freeze, backout of local updates via
// before-images, abort record, state "aborted", lock release. Unlike End
// it waits for the children's first answers: an abort returning means
// every reachable participant has backed out, which is what lets a caller
// read the before-images straight after; it costs the larger of this
// node's backout and the slowest child's, not their sum. A backout that
// could not read every trail or apply every undo is surfaced in the
// recorded abort reason rather than dropped.
func (m *Monitor) abortLocked(t *tcb, c abortCause, reason string) error {
	tx := t.id
	m.mu.Lock()
	voted := !t.isHome && t.phase1Acked
	m.mu.Unlock()
	if voted && c == unilateral {
		return fmt.Errorf("%w: %s", ErrInDoubt, tx)
	}
	if st := m.State(tx); st == txid.StateAborting || st.Terminal() {
		return nil
	}
	// The commit record in the Monitor Audit Trail is the commit point: a
	// transaction whose commit record exists can never be backed out, no
	// matter what the volatile state tables claim (a replica on a reloaded
	// processor may be stale and report the transaction unknown).
	if o, ok := m.mat.OutcomeOf(tx); ok && o == audit.OutcomeCommitted {
		return nil
	}
	// A home-node abort of a transaction that entered Paxos Commit must
	// resolve it with the acceptors: a recovery ballot may already have
	// chosen Commit (every participant's vote landed before the coordinator
	// stalled), in which case aborting here would diverge from what the rest
	// of the network has learned; otherwise the ballot drives the free
	// instances to Aborted, once, for every future learner. An unreachable
	// quorum falls through to the local abort — availability over waiting,
	// matching the paper's manual-override semantics — with the failure
	// recorded in the abort reason.
	if acceptors := m.paxosCoordinator(tx); acceptors != nil {
		if out, _, rerr := acceptors.Resolve(tx); rerr == nil && out == audit.OutcomeCommitted {
			m.applyEndedLocked(tx)
			return nil
		} else if rerr != nil {
			reason = fmt.Sprintf("%s (decision quorum unavailable: %v)", reason, rerr)
		}
	}
	m.closeToNewWork(tx)
	var detail string
	if m.tracer != nil {
		detail = string(c) + ": " + reason
	}
	m.broadcast(tx, txid.StateAborting, detail)
	// ABORTING may go before the abort record, and the record is not
	// forced: a home whose Monitor Audit Trail has no commit record
	// recovers the transaction as never committed, so no crash can take an
	// abort back.
	m.safeDeliverChildren(tx, kindAborting, time.Time{}).send(func() {
		m.freezeLocal(tx)
		if boErr := m.backoutLocal(tx); boErr != nil {
			reason = fmt.Sprintf("%s; backout incomplete: %v", reason, boErr)
		}
		m.recordOutcome(tx, audit.OutcomeAborted)
		m.broadcast(tx, txid.StateAborted, "")
		m.mu.Lock()
		t.abortReason = reason
		m.mu.Unlock()
		m.releaseLocal(tx)
	})
	return nil
}

// AbortReason returns the reason recorded when tx was aborted on this
// node (empty if the transaction is unknown or was not aborted).
func (m *Monitor) AbortReason(tx txid.ID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if t, ok := m.txs[tx]; ok {
		return t.abortReason
	}
	return ""
}

// backoutLocal is the BACKOUTPROCESS: it collects the transaction's
// before-images from every local audit trail and applies them, newest
// first, through the owning DISCPROCESSes. Trail scans are retried with
// bounded backoff; a trail that still cannot be read, or whose scan met
// records it could not decode, is counted in Stats.BackoutScanFailures
// and reported to the caller: either leaves updates un-undone, and a
// silent skip would leave no trace of them. Per-volume undos are all sent
// before the first is awaited (volumes are independent; each applies its
// own images in reverse LSN order), best-effort with every failure
// collected into the returned error.
func (m *Monitor) backoutLocal(tx txid.ID) error {
	var buf [4]VolumeInfo
	vols, _, err := m.volumesOf(tx, buf[:0])
	if err != nil || len(vols) == 0 {
		return nil
	}
	m.cBackouts.Inc()
	backoutStart := time.Now()
	defer func() { m.hBackout.Observe(time.Since(backoutStart)) }()

	// Scan each distinct audit trail once (volumes may share one).
	cpu := m.tmpCPUOrFirstUp()
	var nameBuf [4]string
	trailNames := nameBuf[:0]
	for _, vi := range vols {
		if vi.AuditName != "" && !slices.Contains(trailNames, vi.AuditName) {
			trailNames = append(trailNames, vi.AuditName)
		}
	}
	slices.Sort(trailNames)

	// undos[i] is vols[i]'s undo; its images are a run of one trail's scan.
	undos := make([]discproc.UndoReq, len(vols))
	var errs []error
	for _, trail := range trailNames {
		cl := audit.NewClient(m.sys, trail)
		var scan audit.ScanResp
		var scanErr error
		scanStart := time.Now()
		for attempt := 0; attempt < volRetries; attempt++ {
			if attempt > 0 {
				time.Sleep(time.Duration(attempt) * volRetryBackoff)
			}
			if scan, scanErr = cl.Scan(cpu, tx); scanErr == nil {
				break
			}
		}
		if scanErr != nil {
			scanErr = fmt.Errorf("scan of trail %s failed: %w", trail, scanErr)
		} else if scan.Skipped > 0 {
			scanErr = fmt.Errorf("%d unreadable records on trail %s", scan.Skipped, trail)
		}
		ev := obs.Event{Tx: tx, Kind: obs.EvBackoutScan, Node: m.node, CPU: cpu,
			Dur: time.Since(scanStart), Detail: trail}
		if scanErr != nil {
			ev.Err = scanErr.Error()
			m.cScanFails.Inc()
			errs = append(errs, scanErr)
		}
		m.tracer.Record(ev)
		// Group the scan's images by volume, in vols' order, keeping each
		// volume's in LSN order; a volume's run, reversed, is its undo.
		volOf := func(img audit.Image) int {
			for i := range vols {
				if vols[i].Name == img.Volume && vols[i].AuditName == trail {
					return i
				}
			}
			return len(vols)
		}
		imgs := scan.Images
		slices.SortStableFunc(imgs, func(a, b audit.Image) int { return volOf(a) - volOf(b) })
		for lo := 0; lo < len(imgs); {
			v, hi := volOf(imgs[lo]), lo+1
			for hi < len(imgs) && volOf(imgs[hi]) == v {
				hi++
			}
			if v < len(vols) {
				slices.Reverse(imgs[lo:hi])
				undos[v] = discproc.UndoReq{Tx: tx, Images: imgs[lo:hi]}
			}
			lo = hi
		}
	}

	var targets []VolumeInfo
	for i := range vols {
		if len(undos[i].Images) > 0 {
			targets = append(targets, vols[i])
			undos[len(targets)-1] = undos[i]
		}
	}
	undos = undos[:len(targets)]
	m.callVolumes(targets, discproc.KindUndo, func(i int) any { return &undos[i] }, volRetries, func(i int, d time.Duration, err error) {
		vi := targets[i]
		if err != nil {
			errs = append(errs, fmt.Errorf("undo on %s: %w", vi.Name, err))
		}
		if m.tracer == nil {
			return // nothing would read the detail
		}
		ev := obs.Event{Tx: tx, Kind: obs.EvUndoSend, Node: m.node, CPU: cpu, Dur: d,
			Detail: fmt.Sprintf("%s (%d images)", vi.Name, len(undos[i].Images))}
		if err != nil {
			ev.Err = err.Error()
		}
		m.tracer.Record(ev)
	})
	if len(errs) == 0 {
		return nil
	}
	parts := make([]string, len(errs))
	for i, e := range errs {
		parts[i] = e.Error()
	}
	return errors.New(strings.Join(parts, "; "))
}

// Outcome reports the transaction's disposition from this node's Monitor
// Audit Trail.
func (m *Monitor) Outcome(tx txid.ID) (audit.Outcome, bool) {
	return m.mat.OutcomeOf(tx)
}

// ForceDisposition is the manual override the paper describes for in-doubt
// transactions on a node severed from the transaction's home: the operator
// determines the disposition on the home node (by telephone, in 1981) and
// forces it locally.
func (m *Monitor) ForceDisposition(tx txid.ID, commit bool) error {
	t, err := m.lockProto(tx)
	if err != nil {
		return err
	}
	defer t.protoMu.Unlock()
	if commit {
		m.applyEndedLocked(tx)
		return nil
	}
	return m.abortLocked(t, imposed, "operator forced abort")
}

// applyEnded performs the phase-two work on this node for a committed
// transaction and propagates to children via safe-delivery, waiting for
// their first answers: this node's reply to its parent means its whole
// reachable subtree has released.
func (m *Monitor) applyEnded(tx txid.ID) {
	t, err := m.lockProto(tx)
	if err != nil {
		return
	}
	defer t.protoMu.Unlock()
	m.applyEndedLocked(tx)
}

func (m *Monitor) applyEndedLocked(tx txid.ID) {
	if st := m.State(tx); st == txid.StateEnded {
		return
	}
	m.closeToNewWork(tx)
	m.commitLocked(tx).send(nil)
	m.observeBeginToEnded(tx)
}
