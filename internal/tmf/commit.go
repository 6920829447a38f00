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

// callVolumes sends kind to the DISCPROCESS of every volume in vols,
// nowait, and collects the replies on the caller's goroutine, so the
// volumes serve them — and their trails force — concurrently. payload(i)
// is volume i's request, which a retry sends again: a failed call is
// retried up to attempts times in all, with linear backoff. done then sees
// every volume once, in order, with its last error and the time from its
// first send until its reply.
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

// End runs END-TRANSACTION, the two-phase commit, on the transaction's
// home node. It returns at the commit point: the commit record forced,
// ENDED broadcast, the home node's locks released, and ENDED on its way to
// the children (WaitSafeQueueEmpty waits for it). On failure the
// transaction has been backed out on every reachable participant, and the
// caller (typically a TCP) may restart it.
func (m *Monitor) End(tx txid.ID) error {
	return m.run(tx, event{kind: evEnd}, "")
}

// recordOutcome writes the transaction's completion record to the Monitor
// Audit Trail, forcing it only for a commit, and bumps the matching
// counters only when the record is new, so they equal the trail.
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

// phase1 runs both halves of phase one together: the critical-response
// request goes to every child — "the destination TMP must be accessible
// ... and it must reply with an affirmative response" — and this node's
// audit trails are forced while they serve it (their subtrees recurse
// concurrently). Both halves must succeed: this node's error comes first,
// then the first child's in name order.
func (m *Monitor) phase1(t *tcb) error {
	var buf [2]tmpPending
	calls := m.sendAll(buf[:0], m.childrenOf(t), kindPhase1, tmpReq{Tx: t.id})
	err := m.phase1Local(t)
	awaitAll(calls, func(child string, cerr error) {
		if cerr != nil && err == nil {
			err = fmt.Errorf("phase one to %s: %w", child, cerr)
		}
	})
	return err
}

// phase1Local forces this node's audit trails for the transaction: one
// flush per participating volume, all sent before the first is awaited, so
// the forces overlap and a shared trail's group commit coalesces them. The
// first volume that failed, in name order, is the error.
func (m *Monitor) phase1Local(t *tcb) error {
	var buf [4]VolumeInfo
	vols := m.volumesOf(t, buf[:0])
	var first error
	m.callVolumes(vols, discproc.KindFlush, func(int) any { return &t.req }, 1, func(i int, d time.Duration, err error) {
		ev := obs.Event{Tx: t.id, Kind: obs.EvForce, Node: m.node,
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
// bounded retry, so a transient timeout leaks no lock. A volume that still
// fails is counted in Stats.UnreleasedVolumes.
func (m *Monitor) releaseLocal(t *tcb) {
	var buf [4]VolumeInfo
	vols := m.volumesOf(t, buf[:0])
	m.callVolumes(vols, discproc.KindEndTx, func(int) any { return &t.req }, volRetries, func(i int, d time.Duration, err error) {
		ev := obs.Event{Tx: t.id, Kind: obs.EvPhase2Release, Node: m.node,
			CPU: m.tmpCPUOrFirstUp(), Dur: d, Detail: vols[i].Name}
		if err != nil {
			ev.Err = err.Error()
			m.cUnreleased.Inc()
		}
		m.tracer.Record(ev)
	})
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
//
// Every backout is the core's abort (core.go): each node backs out its own
// updates "without the need for communication with other nodes", while
// its children back out theirs. It returns once every reachable
// participant has backed out, so a caller may read the before-images
// straight after. A backout that could not read every trail or apply
// every undo is surfaced in the recorded abort reason.
func (m *Monitor) Abort(tx txid.ID, reason string) error {
	return m.run(tx, event{kind: evAbort, cause: unilateral}, reason)
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

// backoutLocal is the BACKOUTPROCESS. It first freezes the transaction at
// every participating DISCPROCESS, locks held, so no straggler operation
// interleaves with the undo. Then it collects the before-images from every
// local audit trail and applies them, newest first, through the owning
// DISCPROCESSes. Trail scans are retried with bounded backoff; a trail
// that still cannot be read, or whose scan met undecodable records, is
// counted in Stats.BackoutScanFailures and reported. Per-volume undos are
// all sent before the first is awaited, best-effort, with every failure
// collected into the returned error.
func (m *Monitor) backoutLocal(t *tcb) error {
	var buf [4]VolumeInfo
	vols, tx := m.volumesOf(t, buf[:0]), t.id
	if len(vols) == 0 {
		return nil
	}
	m.callVolumes(vols, discproc.KindFreeze, func(int) any { return &t.req }, volRetries, func(int, time.Duration, error) {})
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
	o := audit.OutcomeAborted
	if commit {
		o = audit.OutcomeCommitted
	}
	return m.run(tx, event{kind: evOutcome, outcome: o}, "operator forced abort")
}
