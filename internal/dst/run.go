// Package dst is the deterministic fault-schedule explorer: a
// FoundationDB-style simulation-testing harness that drives the whole
// simulated ENCOMPASS cluster — CPU crashes, pair takeovers, bus
// failures, link faults and flaps, disc faults, and a seeded banking
// workload — from one root seed, then audits the run against the paper's
// invariants (Figure 3 lifecycle fidelity, atomicity, MAT agreement
// across nodes, no lost locks, no stuck transactions, mirror
// convergence, post-chaos liveness).
//
// One seed fully determines a Schedule (cluster shape, workload mix,
// fault-event list), so any failure reproduces from the command line:
//
//	go run ./cmd/dst -seed <seed> -v
//
// Failing schedules shrink via delta debugging (Minimize) to a minimal
// event list and land in internal/dst/corpus/, which the Replay tier-1
// test re-runs on every build.
package dst

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/rollforward"
	"encompass/internal/tmf"
	"encompass/internal/txid"
	"encompass/internal/workload"
)

// Options tunes one schedule execution.
type Options struct {
	// Log, when non-nil, receives a step-by-step execution narrative.
	Log io.Writer
}

// CheckResult is one invariant checker's verdict.
type CheckResult struct {
	Name string `json:"name"`
	// Err is empty when the invariant held.
	Err string `json:"err,omitempty"`
}

// Verdict is the outcome of executing one schedule.
type Verdict struct {
	Seed      int64         `json:"seed"`
	Committed int           `json:"committed"`
	Aborted   int           `json:"aborted"`
	Voluntary int           `json:"voluntary_aborts"`
	Faults    int           `json:"faults_applied"`
	Checks    []CheckResult `json:"checks"`
}

// Failed reports whether any invariant checker failed.
func (v *Verdict) Failed() bool {
	for _, c := range v.Checks {
		if c.Err != "" {
			return true
		}
	}
	return false
}

// FirstFailure returns the first failed check, or nil.
func (v *Verdict) FirstFailure() *CheckResult {
	for i := range v.Checks {
		if v.Checks[i].Err != "" {
			return &v.Checks[i]
		}
	}
	return nil
}

// Summary renders the checker verdicts canonically: one "name=ok|FAIL"
// token per checker in fixed order. Determinism tests compare summaries
// across replays of the same seed.
func (v *Verdict) Summary() string {
	parts := make([]string, 0, len(v.Checks))
	for _, c := range v.Checks {
		if c.Err == "" {
			parts = append(parts, c.Name+"=ok")
		} else {
			parts = append(parts, c.Name+"=FAIL")
		}
	}
	return strings.Join(parts, " ")
}

// ReproCommand returns the exact CLI that replays this schedule.
func ReproCommand(s *Schedule) string {
	if s.Minimized {
		return "go run ./cmd/dst -replay <schedule.json>  # minimized; see corpus entry"
	}
	return fmt.Sprintf("go run ./cmd/dst -seed %d -v", s.Seed)
}

// Run executes the schedule against a freshly built cluster and returns
// the invariant verdicts. The execution is deterministic at step
// granularity: every fault event fires before the workload round its
// Step names, and all workload record content derives from the
// schedule's seeds.
func Run(s Schedule, opt Options) (*Verdict, error) {
	logf := func(format string, args ...any) {
		if opt.Log != nil {
			fmt.Fprintf(opt.Log, format+"\n", args...)
		}
	}
	spec := s.Spec
	cfg := encompass.Config{TraceCapacity: traceCapacity(&spec), CommitProtocol: spec.CommitProtocol}
	for i := 0; i < spec.Nodes; i++ {
		cfg.Nodes = append(cfg.Nodes, encompass.NodeSpec{
			Name: NodeName(i), CPUs: spec.CPUs,
			Volumes: []encompass.VolumeSpec{{Name: VolName(i), Audited: true, CacheSize: 256}},
		})
	}
	sys, err := encompass.Build(cfg)
	if err != nil {
		return nil, fmt.Errorf("dst: build cluster: %w", err)
	}
	// Soak mode executes thousands of schedules in one process; each
	// cluster's goroutines must exit with its run.
	defer sys.Stop()

	placement := make([]workload.Placement, spec.Nodes)
	for i := range placement {
		placement[i] = workload.Placement{Node: NodeName(i), Volume: VolName(i)}
	}
	bank, err := workload.SetupBank(sys, workload.BankConfig{
		Placement:      placement,
		Branches:       spec.Branches,
		Tellers:        spec.Tellers,
		Accounts:       spec.Accounts,
		RemoteFraction: spec.RemotePct,
		HotAccounts:    spec.HotPct,
		Seed:           spec.WorkloadSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("dst: setup bank: %w", err)
	}

	v := &Verdict{Seed: s.Seed}
	ap := NewApplier()
	next := 0 // next unapplied event
	for step := 0; step < spec.Steps; step++ {
		for next < len(s.Events) && s.Events[next].Step <= step {
			ev := s.Events[next]
			next++
			logf("  %s", ev)
			ap.Apply(sys, ev)
			if isFault(ev.Op) {
				v.Faults++
			}
		}
		c, a, vol, err := runRound(sys, bank, &spec, step, ap)
		if err != nil {
			return nil, fmt.Errorf("dst: step %d: %w", step, err)
		}
		v.Committed += c
		v.Aborted += a
		v.Voluntary += vol
		logf("step %d: %d committed, %d gave up, %d voluntary aborts", step, c, a, vol)
	}
	for ; next < len(s.Events); next++ {
		logf("  %s", s.Events[next])
		ap.Apply(sys, s.Events[next])
		if isFault(s.Events[next].Op) {
			v.Faults++
		}
	}
	ap.FinishOutages(sys)
	ap.DisarmHooks(sys)

	HealEverything(sys)
	if err := OperatorSweep(sys); err != nil {
		ap.Errs = append(ap.Errs, err.Error())
	}
	v.Checks = append([]CheckResult{{Name: "apply", Err: strings.Join(ap.Errs, "; ")}},
		runCheckers(sys, bank, &spec)...)
	if spec.CommitProtocol == tmf.ProtoPaxos {
		// The non-blocking claim, recorded by the phase-one kill hooks
		// while the coordinator was actually dead (not after the heal).
		v.Checks = append(v.Checks, CheckResult{Name: "nonblocking", Err: strings.Join(ap.NonBlockingErrs(), "; ")})
		logf("phase1-kill hooks fired on %d coordinator(s)", ap.NBKills())
	}
	logf("verdict: %s", v.Summary())
	return v, nil
}

// maxRestarts bounds how often the workload restarts one transaction.
const maxRestarts = 40

// traceCapacity sizes each node's tracer so no trace is evicted: every
// attempt (including restarts, bounded by maxRestarts) begins a fresh
// transid. The ceiling is generous — traces are small.
func traceCapacity(spec *Spec) int {
	n := spec.Nodes * spec.Steps * spec.TxPerStep * 48
	if n < 1<<15 {
		n = 1 << 15
	}
	return n
}

// runRound drives one workload round: every node originates TxPerStep
// transactions from Workers closed-loop terminals of workload.Driver.
// Record content is a pure function of (workload seed, node, step,
// terminal), so reruns of the same schedule issue the same logical
// transactions in the same per-terminal order.
func runRound(sys *encompass.System, bank *workload.Bank, spec *Spec, step int, ap *Applier) (committed, aborted, voluntary int, err error) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ni := 0; ni < spec.Nodes; ni++ {
		node := NodeName(ni)
		if ap.Down(node) {
			// Requesters on a total-failed node do not run; the node's
			// down-ness is schedule-determined, so skipping is
			// deterministic.
			continue
		}
		rngs := make([]*rand.Rand, spec.Workers)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(SubSeed(spec.WorkloadSeed, fmt.Sprintf("round/%s/%d/%d", node, step, w))))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var slots, vol atomic.Int64
			res, rerr := workload.Driver{Terminals: spec.Workers, Count: spec.TxPerStep, Restarts: maxRestarts}.Run(func(w, i int) error {
				if spec.AbortEvery > 0 && (i+1)%spec.AbortEvery == 0 {
					slots.Add(1)
					if bank.OneAbort(node, rngs[w]) == nil {
						vol.Add(1)
					}
					return nil
				}
				return bank.OneTx(node, rngs[w])
			})
			mu.Lock()
			defer mu.Unlock()
			// A voluntary-abort slot returns nil, so workload.Driver counted it
			// committed.
			committed += res.Committed - int(slots.Load())
			aborted += res.Failed
			voluntary += int(vol.Load())
			err = errors.Join(err, rerr)
		}()
	}
	wg.Wait()
	// END-TRANSACTION answers at the commit point, so the round is over
	// only when the phase-two deliveries its commits left in flight have
	// been answered or queued (each attempt is bounded by the TMP call
	// timeout). The next step's fault events then find the protocol at
	// rest, as they did when End itself waited, and the run stays
	// deterministic at step granularity.
	for _, n := range sys.Nodes() {
		for n.TMF.Stats().Phase2Outstanding > 0 {
			time.Sleep(time.Millisecond)
		}
	}
	return
}

// isFault distinguishes fault events from their heals for the verdict's
// fault counter.
func isFault(op Op) bool {
	switch op {
	case OpCrashCPU, OpFailBus, OpFailLink, OpLinkFault, OpFailDrive, OpFailCtrl,
		OpPhase1Kill, OpPhase1Partition:
		return true
	}
	return false
}

// Applier executes schedule events against a running system, carrying
// the cross-event state the total-node-failure triple needs: the archive
// taken by OpArchive (consumed by OpRollforward) and which nodes are
// currently down in their entirety. Apply errors (a rollforward with no
// archive, a recovery that failed) are collected in Errs and surfaced as
// the run's "apply" check.
type Applier struct {
	archives map[string]*rollforward.Archive
	down     map[string]bool
	Errs     []string

	// nbMu guards the non-blocking audit trail written by OpPhase1Kill
	// hooks, which run on workload END goroutines.
	nbMu    sync.Mutex
	nbErrs  []string
	nbKills int
}

// NewApplier returns an empty applier for one schedule execution.
func NewApplier() *Applier {
	return &Applier{
		archives: make(map[string]*rollforward.Archive),
		down:     make(map[string]bool),
	}
}

// NonBlockingErrs returns the failures the phase-one kill hooks recorded:
// participants that stayed in doubt for the whole parked-coordinator
// window. Empty means every killed coordinator's participants resolved
// while it was dead (or no kill hook fired on a distributed transaction).
func (ap *Applier) NonBlockingErrs() []string {
	ap.nbMu.Lock()
	defer ap.nbMu.Unlock()
	return append([]string(nil), ap.nbErrs...)
}

// NBKills reports how many phase-one kill hooks actually crashed a
// coordinator mid-END (zero means the schedule's kill window saw only
// local-only transactions).
func (ap *Applier) NBKills() int {
	ap.nbMu.Lock()
	defer ap.nbMu.Unlock()
	return ap.nbKills
}

// Down reports whether the node is total-failed and not yet recovered.
func (ap *Applier) Down(node string) bool { return ap.down[node] }

// Apply performs one schedule event.
func (ap *Applier) Apply(sys *encompass.System, ev Event) {
	n := sys.Node(ev.Node)
	switch ev.Op {
	case OpArchive:
		ap.archives[ev.Node] = n.TakeArchive()
	case OpTotalFail:
		n.Crash()
		ap.down[ev.Node] = true
	case OpRollforward:
		a := ap.archives[ev.Node]
		if a == nil {
			ap.Errs = append(ap.Errs, fmt.Sprintf("%s: rollforward without archive", ev.Node))
			return
		}
		if !ap.down[ev.Node] {
			// Recovering a live node means total-failing it first; a
			// minimized schedule may have shed the explicit OpTotalFail.
			n.Crash()
		}
		if _, err := n.Recover(a); err != nil {
			ap.Errs = append(ap.Errs, fmt.Sprintf("%s: rollforward: %v", ev.Node, err))
			return
		}
		ap.down[ev.Node] = false
	case OpPhase1Kill:
		ap.armPhase1Kill(sys, ev)
	case OpPhase1Partition:
		ap.armPhase1Partition(sys, ev)
	default:
		Apply(sys, ev)
	}
}

// inDoubtAt reports whether node p currently lists tx among its in-doubt
// transactions (phase one acknowledged, disposition unknown).
func inDoubtAt(p *encompass.Node, tx txid.ID) bool {
	for _, id := range p.TMF.InDoubt() {
		if id == tx {
			return true
		}
	}
	return false
}

// armPhase1Kill installs the coordinator-kill hook on the node's Monitor.
// The hook fires between phase one and the commit record of an END on the
// node; it waits for an END whose transaction has remote in-doubt
// participants (a local-only END passes through), then — once — crashes
// the coordinator CPU and parks the END caller there, dead. While parked
// it polls the participants: under a non-blocking protocol they must all
// learn the disposition from the acceptor quorum within the window, and a
// participant still in doubt when the window closes is recorded as a
// "nonblocking" failure. The poll counts sleep ticks, not wall-clock, so
// the window is schedule-deterministic at step granularity.
func (ap *Applier) armPhase1Kill(sys *encompass.System, ev Event) {
	n := sys.Node(ev.Node)
	var fired atomic.Bool
	n.TMF.SetPhase1Hook(func(tx txid.ID) {
		if fired.Load() {
			return
		}
		var participants []*encompass.Node
		for _, p := range sys.Nodes() {
			if p.Name != ev.Node && inDoubtAt(p, tx) {
				participants = append(participants, p)
			}
		}
		if len(participants) == 0 {
			return // local-only END: keep the one-shot for a distributed one
		}
		if !fired.CompareAndSwap(false, true) {
			return
		}
		n.TMF.SetPhase1Hook(nil)
		n.HW.FailCPU(ev.Index)
		ap.nbMu.Lock()
		ap.nbKills++
		ap.nbMu.Unlock()
		for tick := 0; tick < 100; tick++ {
			blocked := 0
			for _, p := range participants {
				if inDoubtAt(p, tx) {
					blocked++
				}
			}
			if blocked == 0 {
				return
			}
			time.Sleep(25 * time.Millisecond)
		}
		names := make([]string, len(participants))
		for i, p := range participants {
			names[i] = p.Name
		}
		ap.nbMu.Lock()
		ap.nbErrs = append(ap.nbErrs, fmt.Sprintf(
			"%s: participants %v still in doubt after the coordinator on %s stayed dead for the whole window",
			tx, names, ev.Node))
		ap.nbMu.Unlock()
	})
}

// armPhase1Partition installs the in-doubt-window partition hook: the
// next distributed END on the node has its Node-Peer link severed between
// phase one and the commit record — the exact window the paper's manual
// override discussion is about. The schedule's matching OpHealLink (or
// the end-of-run heal) restores it.
func (ap *Applier) armPhase1Partition(sys *encompass.System, ev Event) {
	n := sys.Node(ev.Node)
	var fired atomic.Bool
	n.TMF.SetPhase1Hook(func(tx txid.ID) {
		if fired.Load() {
			return
		}
		remote := false
		for _, p := range sys.Nodes() {
			if p.Name != ev.Node && inDoubtAt(p, tx) {
				remote = true
				break
			}
		}
		if !remote {
			return
		}
		if !fired.CompareAndSwap(false, true) {
			return
		}
		n.TMF.SetPhase1Hook(nil)
		sys.Network.FailLink(ev.Node, ev.Peer)
	})
}

// DisarmHooks clears any phase-boundary hook that never found a
// distributed transaction to fire on, so the post-run audit workload
// (the liveness check) cannot trip it.
func (ap *Applier) DisarmHooks(sys *encompass.System) {
	for _, n := range sys.Nodes() {
		n.TMF.SetPhase1Hook(nil)
	}
}

// FinishOutages recovers any node still down after the last event — a
// hand-edited or truncated schedule may end mid-outage; the invariant
// audit needs every node back.
func (ap *Applier) FinishOutages(sys *encompass.System) {
	nodes := make([]string, 0, len(ap.down))
	for name, d := range ap.down {
		if d {
			nodes = append(nodes, name)
		}
	}
	sort.Strings(nodes)
	for _, name := range nodes {
		ap.Apply(sys, Event{Op: OpRollforward, Node: name})
	}
}

// Apply performs one stateless schedule event against a running system.
// It is exported so the chaos tests can route their injectors through the
// same event vocabulary. The total-node-failure events carry state across
// events and must go through an Applier.
func Apply(sys *encompass.System, ev Event) {
	n := sys.Node(ev.Node)
	switch ev.Op {
	case OpArchive, OpTotalFail, OpRollforward, OpPhase1Kill, OpPhase1Partition:
		panic(fmt.Sprintf("dst: %s must be applied through an Applier", ev.Op))
	case OpCrashCPU:
		n.HW.FailCPU(ev.Index)
	case OpReviveCPU:
		n.HW.ReviveCPU(ev.Index)
	case OpFailBus:
		n.HW.FailBus(busOf(ev.Index))
	case OpReviveBus:
		n.HW.ReviveBus(busOf(ev.Index))
	case OpFailLink:
		sys.Network.FailLink(ev.Node, ev.Peer)
	case OpHealLink:
		sys.Network.HealLink(ev.Node, ev.Peer)
	case OpLinkFault:
		sys.Network.SetLinkFault(ev.Node, ev.Peer, *ev.Fault)
	case OpClearFault:
		sys.Network.SetLinkFault(ev.Node, ev.Peer, expand.FaultProfile{})
	case OpFailDrive:
		n.Volumes[ev.Vol].Disk.FailDrive(ev.Index)
	case OpReviveDrv:
		n.Volumes[ev.Vol].Disk.ReviveDrive(ev.Index)
	case OpFailCtrl:
		n.Volumes[ev.Vol].Disk.Controller(ev.Index).Fail()
	case OpReviveCtrl:
		n.Volumes[ev.Vol].Disk.Controller(ev.Index).Revive()
	}
}

// busOf maps an event index to the hardware bus identifier.
func busOf(i int) hw.BusID {
	if i == 0 {
		return hw.BusX
	}
	return hw.BusY
}

// HealEverything revives every CPU, bus, drive and controller, clears all
// link faults, and heals all links — the end-of-run repair crew that runs
// before the operator sweep and the invariant audit.
func HealEverything(sys *encompass.System) {
	sys.Network.ClearLinkFaults()
	sys.Heal()
	for _, n := range sys.Nodes() {
		for cpu := 0; cpu < n.HW.NumCPUs(); cpu++ {
			n.HW.ReviveCPU(cpu)
		}
		n.HW.ReviveBus(busOf(0))
		n.HW.ReviveBus(busOf(1))
		for _, vol := range volumesOf(n) {
			for d := 0; d < 2; d++ {
				if !vol.Disk.DriveUp(d) {
					vol.Disk.ReviveDrive(d)
				}
				vol.Disk.Controller(d).Revive()
			}
		}
	}
}

// Settle flushes every node's safe-delivery queue and waits for in-flight
// protocol traffic to drain.
func Settle(sys *encompass.System) {
	for _, n := range sys.Nodes() {
		n.TMF.FlushSafeQueue()
		n.TMF.WaitSafeQueueEmpty(2 * time.Second)
	}
	time.Sleep(200 * time.Millisecond)
}

// tracedTxs returns the transactions the node's tracer holds. The sweep
// and the checkers that walk traces see a node only through them, so a node
// with no tracer, or one that began transactions and holds no trace, is an
// error rather than nothing to check.
func tracedTxs(n *encompass.Node) ([]txid.ID, error) {
	tr := n.TMF.Tracer()
	if tr == nil {
		return nil, fmt.Errorf("%s has no tracer", n.Name)
	}
	ids := tr.Transactions()
	if begun := n.TMF.Stats().Begun; len(ids) == 0 && begun > 0 {
		return nil, fmt.Errorf("%s began %d transactions and holds no trace", n.Name, begun)
	}
	return ids, nil
}

// OperatorSweep resolves stragglers the way an operator would: abort live
// home transactions, then force each remaining participant to its home
// node's recorded disposition. The chaos tests and the DST runner share
// this end-of-run procedure.
func OperatorSweep(sys *encompass.System) error {
	Settle(sys)
	for _, n := range sys.Nodes() {
		ids, err := tracedTxs(n)
		if err != nil {
			return fmt.Errorf("operator sweep: %w", err)
		}
		for _, id := range ids {
			if id.Home == n.Name && !n.TMF.State(id).Terminal() {
				n.TMF.Abort(id, "end-of-run sweep")
			}
		}
	}
	Settle(sys)
	for _, n := range sys.Nodes() {
		for _, id := range n.TMF.Tracer().Transactions() {
			if n.TMF.State(id).Terminal() {
				continue
			}
			o, ok := sys.Node(id.Home).TMF.Outcome(id)
			n.TMF.ForceDisposition(id, ok && o == audit.OutcomeCommitted)
		}
	}
	Settle(sys)
	return nil
}

// volumesOf returns the node's volumes in name order.
func volumesOf(n *encompass.Node) []*encompass.Volume {
	names := make([]string, 0, len(n.Volumes))
	for name := range n.Volumes {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*encompass.Volume, len(names))
	for i, name := range names {
		out[i] = n.Volumes[name]
	}
	return out
}
