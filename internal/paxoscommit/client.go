package paxoscommit

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"encompass/internal/audit"
	"encompass/internal/msg"
	"encompass/internal/txid"
)

// Errors reported by the client.
var (
	// ErrNoQuorum means a majority of acceptors could not be reached (or
	// would not accept): more than F failures, and Paxos Commit makes no
	// non-blocking promise.
	ErrNoQuorum = errors.New("paxoscommit: no acceptor quorum reachable")
	// ErrUnknown means a read-only learn could not determine the
	// disposition; a recovery proposal (Resolve) can force one.
	ErrUnknown = errors.New("paxoscommit: disposition not determined")
)

// acceptorCallTimeout bounds one acceptor round trip. It is deliberately
// much shorter than the TMP critical-response timeout: learners poll in
// the failure path and must stay responsive while some acceptors are down.
const acceptorCallTimeout = 1 * time.Second

// Client is a proposer/learner talking to the 2F+1 acceptors of a
// transaction's home node. Any node can hold one: the learner path is what
// lets a surviving participant resolve an in-doubt transaction without the
// coordinator.
type Client struct {
	sys  *msg.System
	home string // node hosting the acceptors (the transaction's home)
	n    int    // acceptor count (2F+1)

	// ballotBase makes this proposer's recovery ballots disjoint from
	// other nodes' (low bits carry a node-name hash).
	ballotBase uint64
}

// NewClient builds a client for the acceptor set on home. n is the
// configured acceptor count and must match the home node's.
func NewClient(sys *msg.System, home string, n int) *Client {
	h := fnv.New32a()
	_, _ = h.Write([]byte(sys.Node().Name()))
	return &Client{sys: sys, home: home, n: n, ballotBase: uint64(h.Sum32()&0x7f) + 1}
}

// majority returns the quorum size F+1.
func (c *Client) majority() int { return c.n/2 + 1 }

// call performs one acceptor round trip.
func (c *Client) call(slot int, kind string, payload any) (msg.Message, error) {
	cpu, ok := c.sys.Node().FirstUpCPU()
	if !ok {
		return msg.Message{}, fmt.Errorf("paxoscommit: no up CPU to call from")
	}
	return c.sys.CallTimeout(cpu, msg.Addr{Node: c.home, Name: AcceptorName(slot)}, kind, payload, acceptorCallTimeout)
}

// each fans the same request out to every acceptor concurrently and hands
// each successful reply to collect (called from the issuing goroutine,
// single-threaded). It returns the number of successful round trips.
func (c *Client) each(kind string, payload any, collect func(slot int, reply msg.Message)) int {
	type result struct {
		slot  int
		reply msg.Message
		err   error
	}
	ch := make(chan result, c.n)
	var wg sync.WaitGroup
	for i := 0; i < c.n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			r, err := c.call(slot, kind, payload)
			ch <- result{slot, r, err}
		}(i)
	}
	wg.Wait()
	close(ch)
	ok := 0
	for r := range ch {
		if r.err == nil {
			ok++
			if collect != nil {
				collect(r.slot, r.reply)
			}
		}
	}
	return ok
}

// Join durably registers an instance (participant node) with a majority
// of acceptors. The coordinator calls it before the participant is sent
// the transaction, so every recovery proposer discovers the instance.
func (c *Client) Join(tx txid.ID, instance string) error {
	if got := c.each(kindJoin, joinReq{Tx: tx, Instance: instance}, nil); got < c.majority() {
		return fmt.Errorf("%w: join %s for %s acked by %d/%d", ErrNoQuorum, instance, tx, got, c.n)
	}
	return nil
}

// Vote is the ballot-0 fast path: the participant's phase-one vote, sent
// straight to the acceptors as the phase-2a of its instance. Success means
// a majority accepted the vote at ballot 0 — the value is chosen and no
// recovery ballot can decide differently.
func (c *Client) Vote(tx txid.ID, instance string, prepared bool) error {
	v := VoteAborted
	if prepared {
		v = VotePrepared
	}
	acks := 0
	got := c.each(kindVote, voteReq{Tx: tx, Instance: instance, Value: v}, func(_ int, r msg.Message) {
		if ar, ok := r.Payload.(acceptResp); ok && ar.OK {
			acks++
		}
	})
	if got < c.majority() || acks < c.majority() {
		return fmt.Errorf("%w: ballot-0 vote for %s/%s accepted by %d/%d", ErrNoQuorum, tx, instance, acks, c.n)
	}
	return nil
}

// RecordOutcome best-effort replicates the final disposition to the
// acceptors so later learners resolve in one round trip. The outcome is
// already decided (it is derivable from the chosen instance values);
// failing to record it costs latency, not correctness.
func (c *Client) RecordOutcome(tx txid.ID, o audit.Outcome) {
	w := outcomeAborted
	if o == audit.OutcomeCommitted {
		w = outcomeCommitted
	}
	c.each(kindOutcome, outcomeReq{Tx: tx, Outcome: w}, nil)
}

// Learn is the read-only learner query: it asks every acceptor what it
// knows and reports the disposition if one is determined — an explicit
// outcome record, or a value chosen (majority-accepted at one ballot) in
// every known instance. decider names the evidence. It never proposes;
// ErrUnknown means a recovery ballot is needed.
func (c *Client) Learn(tx txid.ID) (o audit.Outcome, decider string, err error) {
	replies := make([]learnResp, 0, c.n)
	got := c.each(kindLearn, learnReq{Tx: tx}, func(_ int, r msg.Message) {
		if lr, ok := r.Payload.(learnResp); ok {
			replies = append(replies, lr)
		}
	})
	if got < c.majority() {
		return 0, "", fmt.Errorf("%w: %d/%d acceptors answered", ErrNoQuorum, got, c.n)
	}
	for _, lr := range replies {
		if lr.HasOutcome {
			return toOutcome(lr.Outcome), fmt.Sprintf("outcome record on acceptor %d of %s", lr.Slot, c.home), nil
		}
	}
	// No outcome record: derive from chosen values. An instance's value is
	// chosen when a majority of ALL acceptors report the same accepted
	// (ballot, value); majorities intersect, so every majority-acked join
	// appears in the union of any quorum's replies.
	instances := map[string]map[[2]uint64]int{} // instance -> (ballot,value) -> count
	for _, lr := range replies {
		for _, in := range lr.Instances {
			if _, ok := instances[in.Name]; !ok {
				instances[in.Name] = map[[2]uint64]int{}
			}
			if in.HasAccepted {
				instances[in.Name][[2]uint64{in.Ballot, uint64(in.Value)}]++
			}
		}
	}
	if len(instances) == 0 {
		return 0, "", fmt.Errorf("%w: no acceptor knows %s", ErrUnknown, tx)
	}
	allPrepared := true
	for name, counts := range instances {
		chosen := uint8(0)
		for bv, n := range counts {
			if n >= c.majority() {
				chosen = uint8(bv[1])
				break
			}
		}
		switch chosen {
		case VoteAborted:
			return audit.OutcomeAborted, fmt.Sprintf("instance %s chose aborted at an acceptor quorum of %s", name, c.home), nil
		case VotePrepared:
			// keep checking the rest
		default:
			allPrepared = false
		}
	}
	if allPrepared {
		return audit.OutcomeCommitted, fmt.Sprintf("all instances chose prepared at an acceptor quorum of %s", c.home), nil
	}
	return 0, "", fmt.Errorf("%w: some instance has no chosen value", ErrUnknown)
}

// Resolve determines the disposition, proposing if it must: a read-only
// learn first, then recovery ballots that drive every known instance to a
// chosen value (free instances are proposed Aborted, per Paxos Commit).
// It is what a surviving node runs when the coordinator is dead: with a
// majority of acceptors up it always terminates with the one disposition
// every other resolver will also compute.
func (c *Client) Resolve(tx txid.ID) (audit.Outcome, string, error) {
	if o, decider, err := c.Learn(tx); err == nil {
		return o, decider, nil
	} else if errors.Is(err, ErrNoQuorum) {
		return 0, "", err
	}
	var lastErr error
	for attempt := uint64(1); attempt <= 6; attempt++ {
		ballot := attempt<<8 | c.ballotBase
		o, err := c.propose(tx, ballot)
		if err == nil {
			c.RecordOutcome(tx, o)
			return o, fmt.Sprintf("recovery ballot %d via %s", ballot, c.sys.Node().Name()), nil
		}
		lastErr = err
		if errors.Is(err, ErrNoQuorum) {
			return 0, "", err
		}
		time.Sleep(time.Duration(attempt) * 10 * time.Millisecond)
	}
	return 0, "", fmt.Errorf("paxoscommit: resolve of %s gave up: %w", tx, lastErr)
}

// propose runs one recovery ballot over every instance any quorum
// acceptor knows: phase 1a/1b per instance, then 2a with the discovered
// value (the accepted value of the highest ballot reported, else Aborted
// for a free instance). All instances Prepared ⇒ Committed.
func (c *Client) propose(tx txid.ID, ballot uint64) (audit.Outcome, error) {
	// Discover the instance set from a quorum.
	names := map[string]bool{}
	got := c.each(kindLearn, learnReq{Tx: tx}, func(_ int, r msg.Message) {
		if lr, ok := r.Payload.(learnResp); ok {
			for _, in := range lr.Instances {
				names[in.Name] = true
			}
		}
	})
	if got < c.majority() {
		return 0, fmt.Errorf("%w: %d/%d acceptors answered discovery", ErrNoQuorum, got, c.n)
	}
	if len(names) == 0 {
		// No acceptor has ever heard of the transaction: there is nothing
		// to decide (and deciding "commit" vacuously would be unsound).
		return 0, fmt.Errorf("paxoscommit: no instances known for %s", tx)
	}
	instances := make([]string, 0, len(names))
	for n := range names {
		instances = append(instances, n)
	}
	sort.Strings(instances)

	outcome := audit.OutcomeCommitted
	for _, inst := range instances {
		var (
			promises  int
			bestBal   uint64
			bestValue uint8
			hasValue  bool
			conflict  bool
		)
		c.each(kindPrepare, prepareReq{Tx: tx, Instance: inst, Ballot: ballot}, func(_ int, r msg.Message) {
			pr, ok := r.Payload.(prepareResp)
			if !ok {
				return
			}
			if !pr.OK {
				conflict = true
				return
			}
			promises++
			if pr.HasAccepted && (!hasValue || pr.AccBallot > bestBal) {
				hasValue, bestBal, bestValue = true, pr.AccBallot, pr.AccValue
			}
		})
		if promises < c.majority() {
			if conflict {
				return 0, fmt.Errorf("paxoscommit: ballot %d superseded on %s/%s", ballot, tx, inst)
			}
			return 0, fmt.Errorf("%w: %d/%d promises for %s/%s", ErrNoQuorum, promises, c.n, tx, inst)
		}
		value := VoteAborted // a free instance is proposed Aborted
		if hasValue {
			value = bestValue
		}
		accepts := 0
		conflict = false
		c.each(kindAccept, acceptReq{Tx: tx, Instance: inst, Ballot: ballot, Value: value}, func(_ int, r msg.Message) {
			if ar, ok := r.Payload.(acceptResp); ok {
				if ar.OK {
					accepts++
				} else {
					conflict = true
				}
			}
		})
		if accepts < c.majority() {
			if conflict {
				return 0, fmt.Errorf("paxoscommit: ballot %d rejected on %s/%s", ballot, tx, inst)
			}
			return 0, fmt.Errorf("%w: %d/%d accepts for %s/%s", ErrNoQuorum, accepts, c.n, tx, inst)
		}
		if value != VotePrepared {
			outcome = audit.OutcomeAborted
		}
	}
	return outcome, nil
}

// toOutcome maps the wire encoding to audit.Outcome.
func toOutcome(w uint8) audit.Outcome {
	if w == outcomeCommitted {
		return audit.OutcomeCommitted
	}
	return audit.OutcomeAborted
}
