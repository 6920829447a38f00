package tmf

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"encompass/internal/audit"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/pair"
	"encompass/internal/txid"
)

// TMP message kinds. Remote-begin and phase one are critical-response:
// the destination must be reachable and reply affirmatively. Ended and
// aborting are safe-delivery: delivery is guaranteed whenever transmission
// becomes possible, but not time-critical.
const (
	kindRemoteBegin = "tmp.begin"
	kindPhase1      = "tmp.phase1"
	kindEnded       = "tmp.ended"
	kindAborting    = "tmp.aborting"
	kindQuery       = "tmp.query"
)

// tmpName is the registered name of every node's TMP pair.
const tmpName = "tmp"

// tmpReq is the payload of TMP-to-TMP messages.
type tmpReq struct {
	Tx     txid.ID
	Source string // sending node
}

// QueryResp answers a disposition query (rollforward negotiation, tmfctl).
// Protocol names the answering node's disposition protocol; Decider names
// the evidence the answer rests on (the Monitor Audit Trail, an acceptor
// quorum, a recovery ballot).
type QueryResp struct {
	Known     bool
	Committed bool
	State     txid.State
	Protocol  string
	Decider   string
}

// beginResp answers a remote-transaction-begin: AlreadyKnown tells the
// sender it is not this node's parent in the transmission tree.
type beginResp struct {
	AlreadyKnown bool
}

// The TMP messages cross nodes; their tags are tmf's block (24-31).
func init() {
	msg.RegisterPayload(24,
		func(b []byte, r tmpReq) []byte { return msg.AppendBytes(txid.AppendID(b, r.Tx), r.Source) },
		func(r *msg.Reader) tmpReq { return tmpReq{Tx: txid.ReadID(r), Source: r.Str()} })
	msg.RegisterPayload(25,
		func(b []byte, q QueryResp) []byte {
			b = msg.AppendBool(b, q.Known)
			b = msg.AppendBool(b, q.Committed)
			b = binary.AppendVarint(b, int64(q.State))
			b = msg.AppendBytes(b, q.Protocol)
			return msg.AppendBytes(b, q.Decider)
		},
		func(r *msg.Reader) QueryResp {
			return QueryResp{Known: r.Bool(), Committed: r.Bool(), State: txid.State(r.Varint()), Protocol: r.Str(), Decider: r.Str()}
		})
	msg.RegisterPayload(26,
		func(b []byte, r beginResp) []byte { return msg.AppendBool(b, r.AlreadyKnown) },
		func(r *msg.Reader) beginResp { return beginResp{AlreadyKnown: r.Bool()} })
}

// tmpApp is the TMP pair application. All durable coordination state lives
// in the Monitor (whose authority is the replicated state tables and the
// Monitor Audit Trail), so checkpoints are empty and takeover is trivial.
type tmpApp struct {
	m *Monitor
}

// Handle serves one TMP request. Phase one and the two outcome messages
// block for trail forces, lock releases and hops to this node's own
// children, so they run on their own goroutine and reply from there:
// served inline, one transaction's Monitor-Audit-Trail force would stall
// the remote-begin and phase one of every other transaction behind it in
// this single-goroutine TMP. The goroutines touch only the Monitor, whose
// tcb.protoMu keeps each transaction's protocol steps in order, and each
// gets its own copy of ctx as an argument.
func (a *tmpApp) Handle(ctx pair.Ctx) {
	req := ctx.Req()
	switch req.Kind {
	case kindRemoteBegin:
		r := req.Payload.(tmpReq)
		// "Remote transaction begin": broadcast the transid in active
		// state to all processors on this node.
		known := a.m.beginRemote(r.Tx, r.Source)
		ctx.Reply(beginResp{AlreadyKnown: known})
	case kindPhase1, kindEnded, kindAborting:
		go a.serveAsync(ctx, req.Kind, req.Payload.(tmpReq).Tx)
	case kindQuery:
		r := req.Payload.(tmpReq)
		resp := QueryResp{State: a.m.State(r.Tx), Protocol: a.m.ProtocolName()}
		if o, decider, known := a.m.Disposition(r.Tx); known {
			resp.Known = true
			resp.Committed = o == audit.OutcomeCommitted
			resp.Decider = decider
		}
		ctx.Reply(resp)
	default:
		ctx.ReplyErr(fmt.Errorf("tmf: unknown TMP request %q", req.Kind))
	}
}

// serveAsync runs phase one, ENDED or ABORTING for tx and answers ctx.
func (a *tmpApp) serveAsync(ctx pair.Ctx, kind string, tx txid.ID) {
	switch kind {
	case kindPhase1:
		if err := a.m.phase1Inbound(tx); err != nil {
			ctx.ReplyErr(err)
			return
		}
	case kindEnded:
		a.m.applyEnded(tx)
	case kindAborting:
		a.m.applyAborting(tx)
	}
	ctx.Reply(nil)
}

func (a *tmpApp) ApplyCheckpoint(any) {}
func (a *tmpApp) Snapshot() any       { return nil }
func (a *tmpApp) Restore(any)         {}

// TakeOver runs when the backup TMP is promoted after the primary's CPU
// failed. Under Paxos Commit the promoted TMP re-arms an in-doubt watcher
// for every transaction this node is still bound to without a known
// disposition — the learner path resolves them from the acceptor quorum
// even though the coordinator that was driving them may have died with
// the failed CPU.
func (a *tmpApp) TakeOver() {
	m := a.m
	if m.paxos == nil {
		return
	}
	var pending []txid.ID
	m.mu.Lock()
	for id, t := range m.txs {
		if t.protoBegun || (!t.isHome && t.phase1Acked) {
			pending = append(pending, id)
		}
	}
	m.mu.Unlock()
	for _, id := range pending {
		if _, resolved := m.mat.OutcomeOf(id); resolved {
			continue
		}
		if m.State(id).Terminal() {
			continue
		}
		m.armInDoubtWatcher(id)
	}
}

func (m *Monitor) startTMP(primaryCPU, backupCPU int) error {
	app := &tmpApp{m: m}
	m.tmpPair = app
	p, err := pair.Start(m.sys, tmpName, primaryCPU, backupCPU, func() pair.App { return app })
	if err != nil {
		return err
	}
	m.tmpCPU = p.PrimaryCPU
	return nil
}

// tmpCall issues a critical-response message to another node's TMP.
func (m *Monitor) tmpCall(destNode, kind string, req tmpReq) error {
	_, err := m.tmpCallResp(destNode, kind, req)
	return err
}

// tmpCallResp is the single choke point for TMP-to-TMP calls; each call
// traces as a child-request/child-reply event pair (the reply carries the
// round-trip time, and an error on a safe-delivery kind means the message
// went to the retry queue, not that it was lost).
func (m *Monitor) tmpCallResp(destNode, kind string, req tmpReq) (msg.Message, error) {
	req.Source = m.node
	cpu := m.tmpCPUOrFirstUp()
	m.tracer.Record(obs.Event{Tx: req.Tx, Kind: obs.EvChildRequest, Node: m.node,
		CPU: cpu, Detail: destNode + " " + kind})
	start := time.Now()
	resp, err := m.sys.CallTimeout(cpu, msg.Addr{Node: destNode, Name: tmpName}, kind, req, criticalCallTimeout)
	ev := obs.Event{Tx: req.Tx, Kind: obs.EvChildReply, Node: m.node,
		CPU: cpu, Dur: time.Since(start), Detail: destNode + " " + kind}
	if err != nil {
		ev.Err = err.Error()
	}
	m.tracer.Record(ev)
	return resp, err
}

// NoteRemoteSend must be called before the first transmission of a transid
// to destNode (the File System does this when a SEND or remote disc I/O
// first targets that node). It performs the critical-response "remote
// transaction begin" and records destNode as our child in the transmission
// tree.
func (m *Monitor) NoteRemoteSend(tx txid.ID, destNode string) error {
	if destNode == m.node {
		return nil
	}
	m.mu.Lock()
	t, ok := m.txs[tx]
	if !ok {
		m.mu.Unlock()
		return fmt.Errorf("%w: %s on %s", ErrUnknownTx, tx, m.node)
	}
	if slices.Contains(t.children, destNode) {
		m.mu.Unlock()
		return nil
	}
	begun := t.protoBegun
	m.mu.Unlock()
	// Under Paxos Commit the child's consensus instance (and, once, our
	// own) must be durably registered with the home node's acceptors BEFORE
	// the transid is first transmitted: a recovery proposer discovers the
	// participant set from the acceptors, and an unregistered participant
	// would be invisible to it. Joins are idempotent at the acceptors.
	if m.paxos != nil {
		acceptors := m.paxos.client(tx.Home)
		if !begun {
			if err := acceptors.Join(tx, m.node); err != nil {
				return err
			}
			m.mu.Lock()
			t.protoBegun = true
			m.mu.Unlock()
		}
		if err := acceptors.Join(tx, destNode); err != nil {
			return fmt.Errorf("%w: disposition join of %s: %v", ErrNodeUnreachable, destNode, err)
		}
	}
	r, err := m.tmpCallResp(destNode, kindRemoteBegin, tmpReq{Tx: tx})
	if err != nil {
		return fmt.Errorf("%w: remote begin at %s: %v", ErrNodeUnreachable, destNode, err)
	}
	if br, ok := r.Payload.(beginResp); ok && br.AlreadyKnown {
		// destNode already has the transid (it is elsewhere in the
		// transmission tree); we are not its parent and must not send it
		// protocol messages. Keeping the graph a tree also keeps the
		// parent→child protocol-mutex ordering deadlock-free.
		return nil
	}
	m.mu.Lock()
	t.children = addName(t.children, destNode)
	m.mu.Unlock()
	return nil
}

// phase1Inbound handles a phase-one request from the node that transmitted
// the transid to us: refuse if we already aborted unilaterally; otherwise
// enter "ending", force our trails, recurse to our children, and mark the
// affirmative reply (after which we can no longer abort unilaterally).
//
// The handler is idempotent under duplicate and reordered delivery: a
// repeat of an already-acknowledged phase one re-acks without redoing the
// forces, and a straggler arriving after the outcome re-sends the outcome
// (affirmative for ENDED, ErrAborted for an abort) instead of corrupting
// state.
func (m *Monitor) phase1Inbound(tx txid.ID) error {
	t, err := m.lockProto(tx)
	if err != nil {
		// A straggler phase one can arrive after the transaction resolved
		// and left the system (Forget). The Monitor Audit Trail still knows
		// the disposition: re-send it instead of erroring.
		if o, ok := m.mat.OutcomeOf(tx); ok {
			if o == audit.OutcomeCommitted {
				return nil
			}
			return fmt.Errorf("%w: %s previously aborted on %s", ErrAborted, tx, m.node)
		}
		return err
	}
	defer t.protoMu.Unlock()
	st := m.State(tx)
	if st == txid.StateAborting || st == txid.StateAborted {
		return fmt.Errorf("%w: %s previously aborted on %s", ErrAborted, tx, m.node)
	}
	if st == txid.StateEnded {
		// Duplicate phase one after the commit outcome already applied
		// here: the trails were forced long ago; re-ack affirmatively.
		return nil
	}
	m.mu.Lock()
	acked := t.phase1Acked
	m.mu.Unlock()
	if acked {
		// Duplicated or retransmitted phase one: the first copy did the
		// work and we are already bound by our affirmative vote.
		return nil
	}
	m.closeToNewWork(tx)
	if st == txid.StateActive {
		m.broadcast(tx, txid.StateEnding)
	}
	// Local trail forces and the recursive phase one to our own children
	// run in parallel, exactly as on the home node.
	p1Start := time.Now()
	if err := m.phase1(tx); err != nil {
		m.abortLocked(tx, fmt.Sprintf("phase one failed: %v", err))
		return err
	}
	// Under Paxos Commit the affirmative reply is a vote and must be
	// durable before it is sent: this is the ballot-0 fast path — the vote
	// IS the phase-2a/2b of our consensus instance at the home node's
	// acceptors. A vote that cannot reach a majority is a refusal: abort
	// unilaterally while we still may.
	if m.paxos != nil {
		if err := m.paxos.client(tx.Home).Vote(tx, m.node, true); err != nil {
			m.abortLocked(tx, fmt.Sprintf("disposition vote failed: %v", err))
			return fmt.Errorf("%w: %s: disposition vote failed on %s: %v", ErrAborted, tx, m.node, err)
		}
	}
	m.hPhase1.Observe(time.Since(p1Start))
	m.mu.Lock()
	t.phase1Acked = true
	t.protoBegun = t.protoBegun || m.paxos != nil
	m.mu.Unlock()
	// In-doubt insurance: if the disposition never arrives (dead
	// coordinator, partition), the watcher learns it from the acceptor
	// quorum instead of holding locks until an operator intervenes.
	m.armInDoubtWatcher(tx)
	return nil
}

// QueryRemote asks another node's TMP for a transaction's disposition.
func (m *Monitor) QueryRemote(node string, tx txid.ID) (QueryResp, error) {
	r, err := m.sys.CallTimeout(m.tmpCPUOrFirstUp(), msg.Addr{Node: node, Name: tmpName}, kindQuery, tmpReq{Tx: tx, Source: m.node}, criticalCallTimeout)
	if err != nil {
		return QueryResp{}, err
	}
	return r.Payload.(QueryResp), nil
}

// --- safe-delivery machinery ---

type safeMsg struct {
	dest string
	kind string
	req  tmpReq
}

// delivery is one transaction's outcome message (ENDED or ABORTING) on its
// first attempt at the children this node transmitted the transid to. It
// is outstanding — counted in the tmf.phase2_outstanding gauge — from the
// moment the outcome is durable here until every child has either
// answered or been handed to the safe queue, which owns the message from
// then on.
type delivery struct {
	m        *Monitor
	kind     string
	req      tmpReq
	children []string
	start    time.Time // phase-two start; read for kindEnded only
}

// safeDeliverChildren prepares the safe-delivery of a transaction's
// outcome to each child node. "The sending of safe-delivery messages —
// whenever transmission becomes possible — is guaranteed, but their
// delivery is not time-critical": the caller decides whether to wait for
// send (abort, a child applying its parent's ENDED) or let it run behind
// the reply (End). A transaction with no children has nothing to deliver:
// the result is nil and phase two ends here. start anchors the phase-two
// histogram, which times commits only.
func (m *Monitor) safeDeliverChildren(tx txid.ID, kind string, start time.Time) *delivery {
	children, err := m.childrenOf(tx)
	if err != nil {
		return nil
	}
	if len(children) == 0 {
		if kind == kindEnded {
			m.hPhase2.Observe(time.Since(start))
		}
		return nil
	}
	m.gP2Outstanding.Add(1)
	return &delivery{m: m, kind: kind, req: tmpReq{Tx: tx, Source: m.node},
		children: children, start: start}
}

// send attempts every child concurrently, queueing for retry any that are
// unreachable, and returns once the slowest has answered or been queued.
// A nil delivery (no children) sends nothing.
func (d *delivery) send() {
	if d == nil {
		return
	}
	defer d.Done()
	_ = fanOut(d.children, func(child string) error {
		d.m.safeDeliver(safeMsg{dest: child, kind: d.kind, req: d.req})
		return nil
	})
}

// Done ends the delivery's phase two: it is no longer outstanding, and a
// commit's phase-two time — that of its slowest child — is observed.
func (d *delivery) Done() {
	d.m.gP2Outstanding.Add(-1)
	if d.kind == kindEnded {
		d.m.hPhase2.Observe(time.Since(d.start))
	}
}

// safeDeliver makes one attempt at one child; a failure (traced by
// tmpCallResp as a child-reply event carrying the error, whichever
// goroutine made the attempt) queues the message for retry.
func (m *Monitor) safeDeliver(sm safeMsg) {
	if err := m.tmpCall(sm.dest, sm.kind, sm.req); err != nil {
		m.sqMu.Lock()
		m.safeQueue[sm.dest] = append(m.safeQueue[sm.dest], sm)
		m.sqMu.Unlock()
		m.scheduleSafeRetry()
	}
}

// Safe-queue retry pacing: delivery "whenever transmission becomes
// possible" must not depend solely on a topology-change callback — on a
// lossy-but-up line a safe-delivery call can time out with no topology
// event ever firing. The queue therefore retries itself with exponential
// backoff, reset whenever it fully drains.
const (
	safeRetryBase = 25 * time.Millisecond
	safeRetryMax  = 2 * time.Second
)

// scheduleSafeRetry arms (at most one) delayed retry of the safe queue,
// doubling the delay up to the cap while the queue stays non-empty.
func (m *Monitor) scheduleSafeRetry() {
	m.sqMu.Lock()
	if m.sqRetryArmed || len(m.safeQueue) == 0 {
		m.sqMu.Unlock()
		return
	}
	m.sqRetryArmed = true
	if m.sqRetryDelay <= 0 {
		m.sqRetryDelay = safeRetryBase
	}
	d := m.sqRetryDelay
	m.sqRetryDelay *= 2
	if m.sqRetryDelay > safeRetryMax {
		m.sqRetryDelay = safeRetryMax
	}
	m.sqMu.Unlock()
	time.AfterFunc(d, func() {
		m.sqMu.Lock()
		m.sqRetryArmed = false
		m.sqMu.Unlock()
		m.FlushSafeQueue()
	})
}

// FlushSafeQueue retries queued safe-delivery messages; invoked on
// topology change, by the backoff retry loop, and callable directly
// (tests, tmfctl). Destinations are retried concurrently, each in FIFO
// order, so a child that is still unreachable — every attempt at it can
// take criticalCallTimeout — does not hold back the outcomes queued for
// the children that are back. Messages that fail again re-queue and
// re-arm the backoff; a full drain resets it.
func (m *Monitor) FlushSafeQueue() {
	m.sqMu.Lock()
	queued := m.safeQueue
	m.safeQueue = make(map[string][]safeMsg)
	dests := make([]string, 0, len(queued))
	for dest, q := range queued {
		dests = append(dests, dest)
		m.sqRetrying += len(q)
	}
	m.sqMu.Unlock()
	_ = fanOut(dests, func(dest string) error {
		for _, sm := range queued[dest] {
			m.cSafeRetries.Inc()
			m.safeDeliver(sm)
			m.sqMu.Lock()
			m.sqRetrying--
			m.sqMu.Unlock()
		}
		return nil
	})
	m.sqMu.Lock()
	if len(m.safeQueue) == 0 {
		m.sqRetryDelay = 0
	}
	m.sqMu.Unlock()
}

// onTopologyChange reacts to partitions and heals: queued safe-delivery
// messages are retried, and transactions that involve now-unreachable
// nodes are aborted where the protocol permits.
func (m *Monitor) onTopologyChange() {
	//lint:allow spawnlifecycle fire-and-forget by design: both calls are idempotent sweeps that terminate on their own; a lost sweep is re-triggered by the next topology event or the safe-queue retry timer
	go func() {
		m.FlushSafeQueue()
		m.abortUnreachable()
	}()
}

// abortUnreachable aborts transactions affected by "complete loss of
// communication with a network node which participated in the
// transaction": at the home node, any non-terminal transaction with an
// unreachable child; at a non-home node, any transaction whose source
// became unreachable before we acknowledged phase one. A non-home node
// that acknowledged phase one holds its locks (in-doubt).
func (m *Monitor) abortUnreachable() {
	if m.net == nil {
		return
	}
	type victim struct {
		tx     txid.ID
		reason string
	}
	var victims []victim
	m.mu.Lock()
	for id, t := range m.txs {
		// peek table state without broadcast
		m.tabMu.Lock()
		st := m.stateLocked(id)
		m.tabMu.Unlock()
		if st.Terminal() || st == txid.StateAborting {
			continue
		}
		if t.isHome {
			for _, child := range t.children {
				if !m.net.Reachable(m.node, child) {
					victims = append(victims, victim{id, "lost communication with participant " + child})
					break
				}
			}
		} else if !t.phase1Acked && t.source != "" && !m.net.Reachable(m.node, t.source) {
			victims = append(victims, victim{id, "lost communication with source " + t.source})
		}
	}
	m.mu.Unlock()
	for _, v := range victims {
		m.abortInternal(v.tx, v.reason)
	}
}

// onHWEvent aborts home transactions that began on a failed CPU: "failure
// of an application server's processor while that server was working on
// the transaction" and TCP-primary failures both surface as the CPU-down
// of the processor coordinating the transaction. The facade may install
// finer-grained policies; this default covers transactions whose
// BEGIN-TRANSACTION processor died.
func (m *Monitor) onHWEvent(e hw.Event) {
	if e.Kind == hw.EventCPUUp {
		m.reseedTable(e.CPU)
		return
	}
	if e.Kind != hw.EventCPUDown {
		return
	}
	var victims []txid.ID
	m.mu.Lock()
	for id, t := range m.txs {
		if t.isHome && id.CPU == e.CPU {
			m.tabMu.Lock()
			st := m.stateLocked(id)
			m.tabMu.Unlock()
			if st == txid.StateActive || st == txid.StateEnding {
				victims = append(victims, id)
			}
		}
	}
	m.mu.Unlock()
	for _, id := range victims {
		//lint:allow spawnlifecycle fire-and-forget by design: abortInternal is idempotent and serialized per-transaction by tcb.protoMu; the in-doubt watcher re-drives any abort this goroutine fails to finish
		go m.abortInternal(id, fmt.Sprintf("processor %d failed", e.CPU))
	}
}

// WaitSafeQueueEmpty polls until this node has no outcome left to deliver
// — no first attempt in flight behind an End that already returned and
// nothing in the safe queue — or the timeout passes. After it reports true
// every child this node owed an outcome has applied it and released its
// locks.
func (m *Monitor) WaitSafeQueueEmpty(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st := m.Stats(); st.Phase2Outstanding == 0 && st.SafeQueueDepth == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}
