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

// tmpApp is the TMP pair application. All coordination state lives in the
// Monitor (the transactions' protocol states and the Monitor Audit Trail),
// so checkpoints are empty and takeover is trivial.
type tmpApp struct {
	m *Monitor
}

// Handle serves one TMP request. Phase one and the two outcome messages
// block for trail forces, lock releases and hops to this node's own
// children, so each runs on a goroutine of its own, with its own copy of
// ctx, and replies from there: served inline, one transaction's force
// would stall every other transaction's requests in this TMP. The
// transaction's turn keeps its protocol steps in order.
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

// serveAsync serves phase one, ENDED or ABORTING for tx and answers ctx:
// only phase one's refusal is the parent's business.
func (a *tmpApp) serveAsync(ctx pair.Ctx, kind string, tx txid.ID) {
	if err := a.m.serve(tx, kind); err != nil && kind == kindPhase1 {
		ctx.ReplyErr(err)
		return
	}
	ctx.Reply(nil)
}

// serve applies a message of kind from tx's parent. Phase one is refused
// if we already aborted; otherwise it brings "ending", our trails forced
// and the request passed to our children, and a yes vote. A duplicate
// re-acks without redoing the forces, and a straggler after the outcome —
// even after the transaction left the system — answers the outcome.
// ENDED and ABORTING apply the parent's disposition, once.
func (m *Monitor) serve(tx txid.ID, kind string) error {
	switch kind {
	case kindEnded:
		return m.run(tx, event{kind: evOutcome, outcome: audit.OutcomeCommitted}, "")
	case kindAborting:
		return m.run(tx, event{kind: evOutcome, outcome: audit.OutcomeAborted}, "aborted by home node")
	}
	return m.run(tx, event{kind: evPhase1}, "")
}

func (a *tmpApp) ApplyCheckpoint(any) {}
func (a *tmpApp) Snapshot() any       { return nil }
func (a *tmpApp) Restore(any)         {}

// TakeOver runs when the backup TMP is promoted after the primary's CPU
// failed. Under Paxos Commit it re-arms an in-doubt watcher for every
// transaction still bound here without a known disposition: the acceptor
// quorum resolves it even if its coordinator died with the failed CPU.
func (a *tmpApp) TakeOver() {
	m := a.m
	if m.paxos == nil {
		return
	}
	var pending []txid.ID
	m.mu.Lock()
	for id, t := range m.txs {
		if (t.s.joined || (!t.s.home && t.s.voted)) && !t.s.st.Terminal() {
			pending = append(pending, id)
		}
	}
	m.mu.Unlock()
	for _, id := range pending {
		m.armInDoubtWatcher(id)
	}
}

func (m *Monitor) startTMP(primaryCPU, backupCPU int) error {
	app := &tmpApp{m: m}
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
// collects its answer. Every TMP-to-TMP call goes through the pair, and
// traces as a child-request/child-reply event pair (an error on a
// safe-delivery kind means the message passed to an owner).
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

// sendAll starts kind to every child at once, nowait, appending the calls
// to calls in name order; awaitAll collects them. Between the two, this
// node does its half of the step while the children serve theirs: the
// step costs the larger of the two, and spawns nothing.
func (m *Monitor) sendAll(calls []tmpPending, children []string, kind string, req tmpReq) []tmpPending {
	cpu := m.tmpCPUOrFirstUp()
	for _, child := range children {
		calls = append(calls, m.tmpStart(cpu, child, kind, req))
	}
	return calls
}

// awaitAll hands each call's answer, or its timeout, to done, in order.
func awaitAll(calls []tmpPending, done func(child string, err error)) {
	for i := range calls {
		_, err := calls[i].await(criticalCallTimeout)
		done(calls[i].dest, err)
	}
}

// Call sends one request of transaction tx from the given CPU to the
// process at to and waits up to d for its reply: how the File System, a
// server-class SEND and the TCP transmit a transid. The first transmission
// of tx to another node rides the critical-response remote begin: that
// node's TMP installs the transid, then forwards the request to its
// server, whose reply comes straight back. A call without a transid, to
// this node, to tx's home or to a child goes directly.
//
// The caller becomes the destination's parent on any answer except
// "already known" (the node has tx from elsewhere and gets the request
// directly), an error from the forwarded request included. A call that
// timed out settles membership with a begin that carries nothing, and
// counts the node a child even if that fails too, so an abort reaches any
// lock the request took. An undelivered call ran nothing there: it fails
// with ErrNodeUnreachable. A transaction closed to new work sends no
// begin, and one closed while its begin was on its way fails with
// ErrAborted (addChild).
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
// already our child, or tx's home (whose answer is always "already
// known"). The core refuses a transaction closed to new work, and under
// Paxos Commit makes the joins that must precede the transmission first.
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
	_, out := step(t.s, event{kind: evTransmit})
	m.mu.Unlock()
	if out.err != nil {
		return nil, fmt.Errorf("%w: %s is past the point of new work", out.err, tx)
	}
	for _, e := range out.all() { // fxJoin
		if e.self {
			if err := m.paxos.client(tx.Home).Join(tx, m.node); err != nil {
				return nil, err
			}
			m.mu.Lock()
			t.s, _ = step(t.s, event{kind: evJoined})
			m.mu.Unlock()
		} else if err := m.paxos.client(tx.Home).Join(tx, destNode); err != nil {
			return nil, fmt.Errorf("%w: disposition join of %s: %v", ErrNodeUnreachable, destNode, err)
		}
	}
	return t, nil
}

// remoteBegin sends destNode a remote begin that carries no request and
// records destNode as our child unless it already had the transid (then
// it is elsewhere in the transmission tree). Keeping the graph a tree
// keeps the parent→child order of transaction turns deadlock-free. A
// begin that got no answer is ErrNodeUnreachable.
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
// new child: the protocol already read the children, so destNode is
// handed ABORTING through the safe-delivery, and the result is ErrAborted.
func (m *Monitor) addChild(t *tcb, destNode string) error {
	m.mu.Lock()
	var out effects
	t.s, out = step(t.s, event{kind: evChild})
	if out.err == nil {
		t.children = addName(t.children, destNode)
	}
	m.mu.Unlock()
	for range out.all() { // fxAbortChild
		req := tmpReq{Tx: t.id}
		if _, err := m.tmpCallResp(m.tmpCPUOrFirstUp(), destNode, kindAborting, req, criticalCallTimeout); err != nil {
			m.own(destNode, kindAborting, req)
		}
	}
	if out.err != nil {
		return fmt.Errorf("%w: %s was closed to new work while its begin at %s was on its way", out.err, t.id, destNode)
	}
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
// first attempt at the children. It is outstanding — counted in the
// tmf.phase2_outstanding gauge — from the moment the outcome is decided
// here until every child has answered or passed to an owner (own).
type delivery struct {
	m        *Monitor
	kind     string
	req      tmpReq
	children []string
	p2Start  time.Time // phase-two start; read for kindEnded only
}

// safeDeliverChildren prepares the safe-delivery of a transaction's
// outcome to each child node: "guaranteed, but ... not time-critical".
// With no children the result is nil and phase two ends here. p2Start
// anchors the phase-two histogram, which times commits only.
func (m *Monitor) safeDeliverChildren(t *tcb, kind string, p2Start time.Time) *delivery {
	children := m.childrenOf(t)
	if len(children) == 0 {
		if kind == kindEnded {
			m.hPhase2.Observe(time.Since(p2Start))
		}
		return nil
	}
	m.gP2Outstanding.Add(1)
	return &delivery{m: m, kind: kind, req: tmpReq{Tx: t.id, Source: m.node},
		children: children, p2Start: p2Start}
}

// start sends the message to every child at once (sendAll).
func (d *delivery) start(calls []tmpPending) []tmpPending {
	if d == nil {
		return calls
	}
	return d.m.sendAll(calls, d.children, d.kind, d.req)
}

// collect hands every child that did not answer to an owner.
func (d *delivery) collect(calls []tmpPending) {
	awaitAll(calls, func(child string, err error) {
		if err != nil {
			d.m.own(child, d.kind, d.req)
		}
	})
}

// send runs the delivery on a goroutine of its own, behind End's reply.
func (d *delivery) send() {
	defer d.Done()
	var buf [2]tmpPending
	d.collect(d.start(buf[:0]))
}

// Done ends the delivery's phase two: it is no longer outstanding, and a
// commit's phase-two time — that of its slowest child — is observed.
func (d *delivery) Done() {
	if d == nil {
		return
	}
	d.m.gP2Outstanding.Add(-1)
	if d.kind == kindEnded {
		d.m.hPhase2.Observe(time.Since(d.p2Start))
	}
}

// Owner retry pacing: on a lossy-but-up line a safe-delivery call can time
// out with no topology event ever firing.
const (
	safeRetryBase = 25 * time.Millisecond
	safeRetryMax  = 2 * time.Second
)

// own hands a safe-delivery message whose attempt failed to a goroutine
// of its own, which retries it until dest answers, backing off from
// safeRetryBase to safeRetryMax; a topology change or FlushSafeQueue ends
// a wait early, Stop the owner. The tmf.safe_queue_depth gauge counts
// owners, moved before the first attempt stops being outstanding.
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
// transaction": at the home node, one with an unreachable child; at a
// non-home node, one whose source is unreachable. Each abort is
// unilateral: a participant that voted yes refuses it (in doubt).
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
		if st := t.s.st; st.Terminal() || st == txid.StateAborting {
			continue
		}
		if t.s.home {
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

// onHWEvent reseeds a revived CPU's table, and aborts home transactions
// that began on a failed CPU: "failure of an application server's
// processor while that server was working on the transaction" and
// TCP-primary failures both surface as that processor's failure.
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
		if st := t.s.st; t.s.home && id.CPU == e.CPU && (st == txid.StateActive || st == txid.StateEnding) {
			victims = append(victims, id)
		}
	}
	m.mu.Unlock()
	for _, id := range victims {
		//lint:allow spawnlifecycle fire-and-forget by design: Abort is idempotent and waits for the transaction's turn, so it ends once that turn is free; the in-doubt watcher re-drives any abort this goroutine fails to finish
		go m.Abort(id, fmt.Sprintf("processor %d failed", e.CPU))
	}
}

// WaitSafeQueueEmpty polls until this node has no outcome left to deliver
// — no first attempt in flight and no owner retrying — or the timeout
// passes. After true, every child owed an outcome has applied it.
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
