package tmf

import (
	"context"
	"encoding/binary"
	"errors"
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

// tmpReq is the payload of TMP-to-TMP messages. A remote begin may carry
// the transaction's first request to the node (Monitor.Call): To names
// the local process it is for, Kind and Payload are the request. The other
// messages leave the three empty.
type tmpReq struct {
	Tx      txid.ID
	Source  string // sending node
	To      string
	Kind    string
	Payload any
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

// The TMP messages cross nodes; their tags and tmf's error codes are 24-31.
func init() {
	msg.RegisterPayload(24,
		func(b []byte, r tmpReq) []byte {
			b = msg.AppendBytes(txid.AppendID(b, r.Tx), r.Source)
			b = msg.AppendBytes(msg.AppendBytes(b, r.To), r.Kind)
			b, err := msg.AppendPayload(b, r.Payload)
			if err != nil {
				return nil // the carried payload has no wire tag: the frame fails
			}
			return b
		},
		func(r *msg.Reader) tmpReq {
			return tmpReq{Tx: txid.ReadID(r), Source: r.Str(), To: r.Str(), Kind: r.Str(), Payload: r.Payload()}
		})
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
	msg.RegisterError(24, ErrAborted)
	msg.RegisterError(25, ErrInDoubt)
	msg.RegisterError(26, ErrNodeUnreachable)
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
		if known || r.To == "" {
			ctx.Reply(beginResp{AlreadyKnown: known})
			return
		}
		// The begin carries the transaction's first request to this node.
		// Only now that the transid is installed is the request relayed to
		// its server, whose reply goes straight to the caller.
		fwd := req
		fwd.Kind, fwd.Payload = r.Kind, r.Payload
		if err := ctx.Proc().Forward(msg.Addr{Name: r.To}, &fwd); err != nil {
			ctx.ReplyErr(err)
		}
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
		_ = a.m.abort(tx, imposed, "aborted by home node")
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

// tmpCallResp makes one TMP-to-TMP call and waits up to d for its answer.
func (m *Monitor) tmpCallResp(cpu int, destNode, kind string, req tmpReq, d time.Duration) (msg.Message, error) {
	p := m.tmpStart(cpu, destNode, kind, req)
	return p.await(d)
}

// tmpPending is a TMP-to-TMP call on its way: tmpStart sent it, await
// collects its answer. The pair is the single choke point for TMP-to-TMP
// calls; each call traces as a child-request/child-reply event pair (the
// reply carries the time from the send until the answer was collected,
// and an error on a safe-delivery kind means the message passed to an
// owner, not that it was lost).
type tmpPending struct {
	m          *Monitor
	pend       msg.Pending
	err        error // the send failed: there is nothing to await
	cpu        int
	req        tmpReq
	dest, kind string
	epoch      context.Context // a safe-delivery message's topology epoch when last sent
	start      time.Time       // set only when tracing
}

// tmpStart sends kind to destNode's TMP without waiting for the answer.
func (m *Monitor) tmpStart(cpu int, destNode, kind string, req tmpReq) tmpPending {
	req.Source = m.node
	p := tmpPending{m: m, cpu: cpu, req: req, dest: destNode, kind: kind}
	if m.tracer != nil {
		m.tracer.Record(obs.Event{Tx: req.Tx, Kind: obs.EvChildRequest, Node: m.node,
			CPU: cpu, Detail: destNode + " " + kind})
		p.start = time.Now()
	}
	p.send()
	return p
}

// send sends the call's message. A safe-delivery message notes the
// topology epoch first, so that no change after it leaves goes unseen;
// the other kinds wait for their answer alone.
func (p *tmpPending) send() {
	p.epoch = context.Background()
	if p.kind == kindEnded || p.kind == kindAborting {
		p.epoch = p.m.topology()
	}
	p.pend, p.err = p.m.sys.Start(p.cpu, msg.Addr{Node: p.dest, Name: tmpName}, p.kind, p.req)
}

// await waits up to d for the call's answer. A safe-delivery message
// whose topology epoch ends while it or its answer is on its way — a
// partition may have swallowed it, a heal may carry it now — is sent
// again and waited for afresh; ENDED and ABORTING apply once however
// often they arrive.
func (p *tmpPending) await(d time.Duration) (msg.Message, error) {
	var resp msg.Message
	err := p.err
	for err == nil {
		resp, err = p.pend.AwaitContext(p.epoch, d)
		if !errors.Is(err, msg.ErrCallTimeout) || p.epoch.Err() == nil || p.m.life.Err() != nil {
			break
		}
		p.send()
		err = p.err
	}
	if m := p.m; m.tracer != nil {
		ev := obs.Event{Tx: p.req.Tx, Kind: obs.EvChildReply, Node: m.node,
			CPU: p.cpu, Dur: time.Since(p.start), Detail: p.dest + " " + p.kind}
		if err != nil {
			ev.Err = err.Error()
		}
		m.tracer.Record(ev)
	}
	return resp, err
}

// alongside runs one protocol step on this node and at its children
// together. The step's message goes to every child first, nowait and all
// at once; local then runs on the caller's goroutine while the children
// serve it; last, each child's answer is collected, in name order, and
// handed to done. So the step costs the larger of this node's work and
// the slowest child's round trip, not their sum, and spawns nothing: with
// no children it is local alone. It returns only once every child has
// answered or timed out — the commit/abort protocol holds protoMu across
// its steps, and no protocol work may outlive the step that issued it
// (End's ENDED delivery is the one step that outlives its caller, and it
// does so as a whole, delivery.send running behind the reply).
func (m *Monitor) alongside(children []string, kind string, req tmpReq, local func(), done func(child string, err error)) {
	var buf [2]tmpPending
	calls := buf[:0]
	cpu := m.tmpCPUOrFirstUp()
	for _, child := range children {
		calls = append(calls, m.tmpStart(cpu, child, kind, req))
	}
	if local != nil {
		local()
	}
	for i := range calls {
		_, err := calls[i].await(criticalCallTimeout)
		done(children[i], err)
	}
}

// Call sends one request of transaction tx from the given CPU to the
// process at to and waits up to d for its reply. It is how the File
// System, a server-class SEND and the TCP transmit a transid. The first
// transmission of tx to another node rides the critical-response remote
// transaction begin: that node's TMP installs the transid and only then
// forwards the request to its server, whose reply comes straight back. So
// the begin still precedes every use of the transid there, and costs no
// round trip of its own. A call without a transid, to this node, to tx's
// home or to a node that is already our child goes directly.
//
// The caller becomes the destination's parent in the transmission tree on
// any answer except "already known" (then the node has tx from elsewhere,
// never saw the request, and gets it directly), an error from the
// forwarded request included: the begin ran. A call that timed out
// settles membership with a begin that carries nothing, and counts the
// node a child even if that fails too, so that an abort still reaches any
// lock the request took. An undelivered call (msg.Undelivered) ran
// nothing there: it fails with ErrNodeUnreachable wrapping its cause. A
// transaction closed to new work sends no begin, and one closed while its
// begin was on its way fails the request with ErrAborted (addChild).
func (m *Monitor) Call(cpu int, tx txid.ID, to msg.Addr, kind string, payload any, d time.Duration) (msg.Message, error) {
	var t *tcb
	if !tx.IsZero() && to.Node != "" && to.Node != m.node {
		var err error
		if t, err = m.beginFor(tx, to.Node); err != nil {
			return msg.Message{}, err
		}
	}
	if t == nil {
		return m.sys.CallTimeout(cpu, to, kind, payload, d)
	}
	r, err := m.tmpCallResp(cpu, to.Node, kindRemoteBegin, tmpReq{Tx: tx, To: to.Name, Kind: kind, Payload: payload}, d)
	switch {
	case err == nil || answered(err):
		if br, ok := r.Payload.(beginResp); ok && br.AlreadyKnown {
			return m.sys.CallTimeout(cpu, to, kind, payload, d)
		}
		if cerr := m.addChild(t, to.Node); cerr != nil {
			return msg.Message{}, cerr
		}
	case errors.Is(err, msg.ErrCallTimeout):
		if berr := m.remoteBegin(t, to.Node); errors.Is(berr, ErrNodeUnreachable) {
			// The call has already failed with its timeout; a closed
			// transaction's ErrAborted would say nothing more.
			_ = m.addChild(t, to.Node)
		}
	default:
		// Undelivered or never sent: nothing ran there.
		err = fmt.Errorf("%w: remote begin at %s: %w", ErrNodeUnreachable, to.Node, err)
	}
	return r, err
}

// answered reports whether a call's error is an answer: the server ran and
// replied with an error, rather than the call going undelivered or timing out.
func answered(err error) bool {
	var re *msg.RemoteError
	return errors.As(err, &re) && !msg.Undelivered(err)
}

// NoteRemoteSend performs the remote transaction begin at destNode on its
// own, carrying no request: Call's begin for a transmission that is not a
// request of this node's. It records destNode as our child in the
// transmission tree unless destNode already had the transid.
func (m *Monitor) NoteRemoteSend(tx txid.ID, destNode string) error {
	if destNode == m.node {
		return nil
	}
	t, err := m.beginFor(tx, destNode)
	if err != nil || t == nil {
		return err
	}
	return m.remoteBegin(t, destNode)
}

// beginFor returns the control block of tx when a transmission of tx to
// destNode needs a remote begin, and nil when it needs none: destNode is
// already our child, or it is tx's home, whose answer would always be
// "already known" (its own transaction, or one its Monitor Audit Trail
// has resolved). A transaction closed to new work gets no new node: it
// fails with ErrAborted, as the DISCPROCESS participation check does.
// Under Paxos Commit it first makes the joins that must precede the
// transmission.
func (m *Monitor) beginFor(tx txid.ID, destNode string) (*tcb, error) {
	if destNode == tx.Home {
		return nil, nil
	}
	m.mu.Lock()
	t, ok := m.txs[tx]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s on %s", ErrUnknownTx, tx, m.node)
	}
	if slices.Contains(t.children, destNode) {
		m.mu.Unlock()
		return nil, nil
	}
	if t.noNewWork {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s is past the point of new work", ErrAborted, tx)
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
				return nil, err
			}
			m.mu.Lock()
			t.protoBegun = true
			m.mu.Unlock()
		}
		if err := acceptors.Join(tx, destNode); err != nil {
			return nil, fmt.Errorf("%w: disposition join of %s: %v", ErrNodeUnreachable, destNode, err)
		}
	}
	return t, nil
}

// remoteBegin sends destNode a remote begin that carries no request and
// records destNode as our child unless it answers that it already had the
// transid: it is elsewhere in the transmission tree, we are not its parent
// and must not send it protocol messages. Keeping the graph a tree also
// keeps the parent→child protocol-mutex ordering deadlock-free. A begin
// that got no answer is ErrNodeUnreachable.
func (m *Monitor) remoteBegin(t *tcb, destNode string) error {
	r, err := m.tmpCallResp(m.tmpCPUOrFirstUp(), destNode, kindRemoteBegin, tmpReq{Tx: t.id}, criticalCallTimeout)
	if err != nil {
		return fmt.Errorf("%w: remote begin at %s: %v", ErrNodeUnreachable, destNode, err)
	}
	if br, ok := r.Payload.(beginResp); !ok || !br.AlreadyKnown {
		return m.addChild(t, destNode)
	}
	return nil
}

// addChild records destNode as a node we transmitted t's transid to. A
// transaction closed to new work while the begin was on its way takes no
// new child (the late-child rule beside tcb.noNewWork): destNode is handed
// ABORTING through the safe-delivery, and the result is ErrAborted.
func (m *Monitor) addChild(t *tcb, destNode string) error {
	m.mu.Lock()
	closed := t.noNewWork
	if !closed {
		t.children = addName(t.children, destNode)
	}
	m.mu.Unlock()
	if !closed {
		return nil
	}
	req := tmpReq{Tx: t.id}
	if _, err := m.tmpCallResp(m.tmpCPUOrFirstUp(), destNode, kindAborting, req, criticalCallTimeout); err != nil {
		m.own(destNode, kindAborting, req)
	}
	return fmt.Errorf("%w: %s was closed to new work while its begin at %s was on its way", ErrAborted, t.id, destNode)
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
		m.broadcast(tx, txid.StateEnding, "")
	}
	// Local trail forces and the recursive phase one to our own children
	// run in parallel, exactly as on the home node.
	p1Start := time.Now()
	if err := m.phase1(tx); err != nil {
		m.abortLocked(t, unilateral, fmt.Sprintf("phase one failed: %v", err))
		return err
	}
	// Under Paxos Commit the affirmative reply is a vote and must be
	// durable before it is sent: this is the ballot-0 fast path — the vote
	// IS the phase-2a/2b of our consensus instance at the home node's
	// acceptors. A vote that cannot reach a majority is a refusal: abort
	// unilaterally while we still may.
	if m.paxos != nil {
		if err := m.paxos.client(tx.Home).Vote(tx, m.node, true); err != nil {
			m.abortLocked(t, unilateral, fmt.Sprintf("disposition vote failed: %v", err))
			return fmt.Errorf("%w: %s: disposition vote failed on %s: %v", ErrAborted, tx, m.node, err)
		}
	}
	m.hPhase1.Observe(time.Since(p1Start))
	m.mu.Lock()
	t.phase1Acked = true
	t.protoBegun = t.protoBegun || m.paxos != nil
	m.mu.Unlock()
	m.tracer.Record(obs.Event{Tx: tx, Kind: obs.EvVote, Node: m.node, CPU: m.tmpCPUOrFirstUp()})
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

// delivery is one transaction's outcome message (ENDED or ABORTING) on its
// first attempt at the children this node transmitted the transid to. It
// is outstanding — counted in the tmf.phase2_outstanding gauge — from the
// moment the outcome is decided here (an ENDED's commit record is durable;
// an ABORTING goes before the abort record, see abortLocked) until every
// child has either answered or passed to an owner (own), which retries
// the message from then on.
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

// send attempts every child at once, runs local (when not nil) on the
// caller's goroutine while they serve the message (alongside), hands every
// child that did not answer to an owner, and returns once the slowest has
// answered or been handed over. A nil delivery (no children) sends nothing
// and runs local alone.
func (d *delivery) send(local func()) {
	if d == nil {
		if local != nil {
			local()
		}
		return
	}
	defer d.Done()
	d.m.alongside(d.children, d.kind, d.req, local, func(child string, err error) {
		if err != nil {
			d.m.own(child, d.kind, d.req)
		}
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

// Owner retry pacing: delivery "whenever transmission becomes possible"
// must not depend solely on a topology change — on a lossy-but-up line a
// safe-delivery call can time out with no topology event ever firing.
const (
	safeRetryBase = 25 * time.Millisecond
	safeRetryMax  = 2 * time.Second
)

// own hands a safe-delivery message whose attempt failed to a goroutine
// of its own, which tries it again until dest answers: at once, then
// after a backoff that doubles from safeRetryBase to safeRetryMax. A
// topology change or FlushSafeQueue ends a wait early; Stop ends the
// owner. The tmf.safe_queue_depth gauge counts owners, and moves before
// the caller's first attempt stops being outstanding.
func (m *Monitor) own(dest, kind string, req tmpReq) {
	m.gSafeQueue.Add(1)
	go func() {
		defer m.gSafeQueue.Add(-1)
		for delay := safeRetryBase; m.life.Err() == nil; delay = min(2*delay, safeRetryMax) {
			ep := m.topology()
			m.cSafeRetries.Inc()
			if _, err := m.tmpCallResp(m.tmpCPUOrFirstUp(), dest, kind, req, criticalCallTimeout); err == nil {
				return
			}
			select {
			case <-time.After(delay):
			case <-ep.Done():
			}
		}
	}()
}

// epoch is one topology epoch: ctx ends when the next one begins.
type epoch struct {
	ctx context.Context
	end context.CancelFunc
}

// newEpoch begins a topology epoch and ends the current one, waking
// whatever waits on it.
func (m *Monitor) newEpoch() {
	ctx, end := context.WithCancel(m.life)
	if old := m.epoch.Swap(&epoch{ctx, end}); old != nil {
		old.end()
	}
}

// topology returns the current topology epoch's context.
func (m *Monitor) topology() context.Context { return m.epoch.Load().ctx }

// FlushSafeQueue ends the topology epoch by hand: every owner retries at
// once, and every safe-delivery attempt in flight sends again.
func (m *Monitor) FlushSafeQueue() { m.newEpoch() }

// Stop ends what every incarnation of the node's monitor left waiting:
// the owners of undelivered outcomes and the in-doubt watchers.
func (m *Monitor) Stop() { m.stop() }

// onTopologyChange reacts to partitions and heals: a new topology epoch
// wakes the safe-delivery attempts and owners, and transactions that
// involve now-unreachable nodes are aborted where the protocol permits.
func (m *Monitor) onTopologyChange() {
	m.newEpoch()
	//lint:allow spawnlifecycle fire-and-forget by design: abortUnreachable is an idempotent sweep that terminates on its own; a lost sweep is re-triggered by the next topology event
	go m.abortUnreachable()
}

// abortUnreachable aborts transactions affected by "complete loss of
// communication with a network node which participated in the
// transaction": at the home node, any non-terminal transaction with an
// unreachable child; at a non-home node, any transaction whose source
// became unreachable. Each abort is unilateral, so a non-home node that
// acknowledged phase one refuses it and holds its locks (in-doubt).
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
		} else if t.source != "" && !m.net.Reachable(m.node, t.source) {
			victims = append(victims, victim{id, "lost communication with source " + t.source})
		}
	}
	m.mu.Unlock()
	for _, v := range victims {
		// ErrInDoubt: the victim voted yes.
		_ = m.Abort(v.tx, v.reason)
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
		//lint:allow spawnlifecycle fire-and-forget by design: Abort is idempotent and serialized per-transaction by tcb.protoMu; the in-doubt watcher re-drives any abort this goroutine fails to finish
		go m.Abort(id, fmt.Sprintf("processor %d failed", e.CPU))
	}
}

// WaitSafeQueueEmpty polls until this node has no outcome left to deliver
// — no first attempt in flight behind an End that already returned and no
// owner retrying — or the timeout passes. After it reports true
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
