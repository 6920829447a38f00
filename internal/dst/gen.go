package dst

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"encompass/internal/expand"
	"encompass/internal/tmf"
)

// Op names one fault-injection action in a schedule. Every fault Op has a
// matching heal Op; the generator always schedules the heal a bounded
// number of steps after the fault so no resource stays dark forever.
type Op string

// The fault-schedule vocabulary. CrashCPU with Index 0 is the "pair
// takeover" event: CPU 0 hosts the TMP primary and most pair primaries,
// so crashing it forces backups to take over mid-protocol.
const (
	OpCrashCPU   Op = "crash-cpu"
	OpReviveCPU  Op = "revive-cpu"
	OpFailBus    Op = "fail-bus"
	OpReviveBus  Op = "revive-bus"
	OpFailLink   Op = "fail-link"
	OpHealLink   Op = "heal-link"
	OpLinkFault  Op = "link-fault"
	OpClearFault Op = "clear-fault"
	OpFailDrive  Op = "fail-drive"
	OpReviveDrv  Op = "revive-drive"
	OpFailCtrl   Op = "fail-ctrl"
	OpReviveCtrl Op = "revive-ctrl"

	// The total-node-failure triple (claim 6). OpArchive takes a fuzzy
	// ROLLFORWARD archive of the node while transactions run; OpTotalFail
	// crashes every CPU at once, losing the unforced audit tails;
	// OpRollforward restores the archive and rolls the node forward,
	// negotiating ENDING transactions with its peers. The generator always
	// emits them as an ordered triple on one node — a schedule with a
	// total failure but no archive or no recovery is not well-formed (see
	// WellFormed), because the node could never rejoin the run.
	OpArchive     Op = "archive"
	OpTotalFail   Op = "total-fail"
	OpRollforward Op = "rollforward"

	// Phase-boundary fault points. Both arm a one-shot hook at the node's
	// Monitor that fires between phase one and the commit record of the
	// next distributed transaction END on that node — the paper's in-doubt
	// window. OpPhase1Kill crashes CPU Index (the TMP primary, i.e. the
	// commit coordinator) and parks the END caller there, dead, while the
	// participants must reach the disposition on their own; under Paxos
	// Commit the Applier records whether they did (the "nonblocking"
	// check). OpPhase1Partition severs the Node-Peer link at the boundary
	// instead, reproducing the in-doubt blocking window under any
	// protocol; the matching OpHealLink heals it.
	OpPhase1Kill      Op = "phase1-kill"
	OpPhase1Partition Op = "phase1-partition"
)

// Event is one scheduled fault or heal. Step is the workload round before
// which the event fires; events within a step apply in slice order.
type Event struct {
	Step  int    `json:"step"`
	Op    Op     `json:"op"`
	Node  string `json:"node,omitempty"`   // target node
	Peer  string `json:"peer,omitempty"`   // link peer (link events)
	Index int    `json:"index,omitempty"`  // CPU, bus, drive or controller
	Vol   string `json:"volume,omitempty"` // disc events
	// Fault carries the seeded per-link profile for OpLinkFault.
	Fault *expand.FaultProfile `json:"fault,omitempty"`
}

// String renders the event compactly for logs and repro reports.
func (e Event) String() string {
	switch e.Op {
	case OpFailLink, OpHealLink, OpClearFault, OpPhase1Partition:
		return fmt.Sprintf("@%d %s %s-%s", e.Step, e.Op, e.Node, e.Peer)
	case OpLinkFault:
		return fmt.Sprintf("@%d %s %s-%s loss=%.2f dup=%.2f reord=%.2f corr=%.2f seed=%d",
			e.Step, e.Op, e.Node, e.Peer, e.Fault.Loss, e.Fault.Duplicate, e.Fault.Reorder, e.Fault.Corrupt, e.Fault.Seed)
	case OpFailDrive, OpReviveDrv, OpFailCtrl, OpReviveCtrl:
		return fmt.Sprintf("@%d %s %s/%s[%d]", e.Step, e.Op, e.Node, e.Vol, e.Index)
	case OpArchive, OpTotalFail, OpRollforward:
		return fmt.Sprintf("@%d %s %s", e.Step, e.Op, e.Node)
	default:
		return fmt.Sprintf("@%d %s %s[%d]", e.Step, e.Op, e.Node, e.Index)
	}
}

// Spec is the cluster and workload shape of one schedule, derived from the
// root seed alongside the fault events.
type Spec struct {
	Nodes     int     `json:"nodes"`       // node count; names n0..n{Nodes-1}, line topology
	CPUs      int     `json:"cpus"`        // per node
	Steps     int     `json:"steps"`       // workload rounds
	TxPerStep int     `json:"tx_per_step"` // transactions per node per round
	Workers   int     `json:"workers"`     // concurrent requesters per node
	Branches  int     `json:"branches"`
	Tellers   int     `json:"tellers"`
	Accounts  int     `json:"accounts"`
	RemotePct float64 `json:"remote_fraction"`
	HotPct    float64 `json:"hot_fraction"`
	// AbortEvery runs one voluntary-abort transaction per this many
	// workload transactions (0 = none), keeping the backout path in the
	// explored mix.
	AbortEvery   int   `json:"abort_every"`
	WorkloadSeed int64 `json:"workload_seed"`
	// CommitProtocol selects the cluster's disposition protocol (empty =
	// the paper's abbreviated 2PC). The phase-boundary shapes set it; the
	// default shapes leave it empty so their schedules are unchanged.
	CommitProtocol string `json:"commit_protocol,omitempty"`
}

// Schedule is one complete deterministic test case: cluster shape, seeded
// workload, and the fault-event list. A schedule freshly produced by
// Generate is a pure function of Seed; a minimized schedule (Minimized
// true) carries an event subset that no longer regenerates from the seed
// and must be replayed from its serialized form.
type Schedule struct {
	Seed      int64   `json:"seed"`
	Minimized bool    `json:"minimized,omitempty"`
	Spec      Spec    `json:"spec"`
	Events    []Event `json:"events"`
}

// Encode renders the schedule canonically. Two schedules generated from
// the same seed encode byte-identically; the replay corpus and the
// determinism tests both rely on this.
func (s *Schedule) Encode() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("dst: schedule encode: " + err.Error())
	}
	return append(b, '\n')
}

// DecodeSchedule parses a schedule previously produced by Encode.
func DecodeSchedule(b []byte) (Schedule, error) {
	var s Schedule
	if err := json.Unmarshal(b, &s); err != nil {
		return Schedule{}, fmt.Errorf("dst: decode schedule: %w", err)
	}
	return s, nil
}

// NodeName returns the canonical name of node i in generated clusters.
func NodeName(i int) string { return fmt.Sprintf("n%d", i) }

// VolName returns the canonical volume name of node i in generated
// clusters (one audited volume per node).
func VolName(i int) string { return fmt.Sprintf("v%d", i) }

// SubSeed derives a named child seed from a root seed. The chaos tests
// route their injector and workload RNGs through this so one logged root
// seed reproduces every random stream in the test; the generator uses it
// for the workload and link-fault seeds. SplitMix64 over the root plus a
// label hash keeps the children statistically independent.
func SubSeed(root int64, label string) int64 {
	z := uint64(root)
	for _, c := range label {
		z = (z ^ uint64(c)) * 0x100000001b3
	}
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// genState tracks resource availability while generating, so the schedule
// never stacks unrecoverable faults: at most one CPU, one bus, one drive
// and one controller down per node/volume at a time, and a faulted or
// downed link is left alone until healed. (Double mirror failure is total
// media loss — that is ROLLFORWARD's department, not the explorer's.)
type genState struct {
	cpuUpAt  map[string]int // node -> step the crashed CPU revives
	busUpAt  map[string]int
	drvUpAt  map[string]int
	ctlUpAt  map[string]int
	linkUpAt map[string]int // "a-b" -> step the link heals / fault clears
}

// Shape selects a family of schedules to generate. All shapes derive the
// cluster, workload and ordinary fault stream identically from the seed;
// shapes differ only in whether the total-node-failure triple is woven
// in (its plan comes from an independent sub-seeded stream).
type Shape string

// The schedule shapes.
const (
	// ShapeMixed is the default exploration mix: roughly one schedule in
	// four carries a total-node-failure outage on top of the ordinary
	// fault stream.
	ShapeMixed Shape = "mixed"
	// ShapeTotalFailure puts the archive → total failure → ROLLFORWARD
	// triple in every schedule — the nightly soak shape for claim 6.
	ShapeTotalFailure Shape = "total-failure"
	// ShapeCoordKill runs the cluster under Paxos Commit and kills the
	// commit coordinator (the TMP primary CPU) at the phase-one boundary
	// of a distributed transaction, parking the END caller: the
	// participants must reach the disposition through the acceptor quorum
	// alone, audited by the "nonblocking" check.
	ShapeCoordKill Shape = "coord-kill"
	// ShapePhasePartition severs a link exactly at the phase-one boundary
	// — the paper's in-doubt window — under a seed-rotated disposition
	// protocol, so every protocol's in-doubt handling gets explored.
	ShapePhasePartition Shape = "phase-partition"
)

// ParseShape validates a shape name from the CLI.
func ParseShape(s string) (Shape, error) {
	switch Shape(s) {
	case ShapeMixed, ShapeTotalFailure, ShapeCoordKill, ShapePhasePartition:
		return Shape(s), nil
	default:
		return "", fmt.Errorf("dst: unknown schedule shape %q (want mixed, total-failure, coord-kill or phase-partition)", s)
	}
}

// Generate derives a complete schedule from one root seed. Same seed,
// same schedule, byte for byte; different seeds vary the cluster shape,
// workload mix, and fault composition.
func Generate(seed int64) Schedule { return GenerateShaped(seed, ShapeMixed) }

// GenerateShaped is Generate with an explicit schedule shape.
func GenerateShaped(seed int64, shape Shape) Schedule {
	rng := rand.New(rand.NewSource(seed))
	spec := Spec{
		Nodes:        2 + rng.Intn(2),
		CPUs:         3 + rng.Intn(2),
		Steps:        8 + rng.Intn(5),
		TxPerStep:    6 + rng.Intn(5),
		Workers:      2 + rng.Intn(2),
		Branches:     3 + rng.Intn(3),
		Tellers:      3,
		Accounts:     30 + rng.Intn(20),
		RemotePct:    0.15 + 0.25*rng.Float64(),
		HotPct:       0,
		AbortEvery:   0,
		WorkloadSeed: SubSeed(seed, "workload"),
	}
	if rng.Intn(3) == 0 {
		spec.HotPct = 0.1 + 0.2*rng.Float64()
	}
	if rng.Intn(2) == 0 {
		spec.AbortEvery = 5 + rng.Intn(6)
	}

	st := genState{
		cpuUpAt:  map[string]int{},
		busUpAt:  map[string]int{},
		drvUpAt:  map[string]int{},
		ctlUpAt:  map[string]int{},
		linkUpAt: map[string]int{},
	}
	var events, outage []Event

	// Phase-boundary plan, drawn from its own sub-seeded stream. The
	// coord-kill shape reserves the victim node's CPUs for the whole run
	// (a second CPU loss on the home node could legitimately break the
	// 2F+1 acceptor quorum) and its adjacent links (a severed link is a
	// reachability failure Paxos Commit does not promise to mask), so a
	// "nonblocking" failure always means a protocol bug.
	var phaseEvents []Event
	if shape == ShapeCoordKill || shape == ShapePhasePartition {
		phRng := rand.New(rand.NewSource(SubSeed(seed, "phase-boundary")))
		step := 1 + phRng.Intn(spec.Steps-3)
		switch shape {
		case ShapeCoordKill:
			spec.CommitProtocol = tmf.ProtoPaxos
			node := NodeName(phRng.Intn(spec.Nodes))
			st.cpuUpAt[node] = spec.Steps + 1
			for i := 0; i < spec.Nodes-1; i++ {
				a, b := NodeName(i), NodeName(i+1)
				if a == node || b == node {
					st.linkUpAt[a+"-"+b] = spec.Steps + 1
				}
			}
			phaseEvents = []Event{
				{Step: step, Op: OpPhase1Kill, Node: node, Index: 0},
				{Step: step + 2, Op: OpReviveCPU, Node: node, Index: 0},
			}
		case ShapePhasePartition:
			protos := []string{tmf.ProtoAbbreviated, tmf.ProtoPaxos}
			spec.CommitProtocol = protos[phRng.Intn(len(protos))]
			li := phRng.Intn(spec.Nodes - 1)
			a, b := NodeName(li), NodeName(li+1)
			healAt := step + 1 + phRng.Intn(2)
			st.linkUpAt[a+"-"+b] = healAt
			phaseEvents = []Event{
				{Step: step, Op: OpPhase1Partition, Node: a, Peer: b},
				{Step: healAt, Op: OpHealLink, Node: a, Peer: b},
			}
		}
	}

	// Total-node-failure plan, drawn from its own sub-seeded stream so the
	// ordinary fault stream of a seed is identical across shapes. The
	// phase-boundary shapes skip the outage: a total failure of the kill
	// victim would retire the acceptor quorum the shape is auditing.
	outRng := rand.New(rand.NewSource(SubSeed(seed, "outage")))
	if shape == ShapeTotalFailure || (shape == ShapeMixed && outRng.Intn(4) == 0) {
		third := spec.Steps / 3
		if third < 1 {
			third = 1
		}
		node := NodeName(outRng.Intn(spec.Nodes))
		archStep := 1 + outRng.Intn(third)
		failStep := archStep + 1 + outRng.Intn(third)
		if failStep > spec.Steps-2 {
			failStep = spec.Steps - 2
		}
		recoverStep := failStep + 1
		// Reserve the node for the outage: no ordinary fault touches its
		// CPUs, buses, discs, or adjacent links until it has recovered, so
		// the ROLLFORWARD peer negotiation always has a path to try.
		busy := recoverStep + 1
		st.cpuUpAt[node], st.busUpAt[node] = busy, busy
		st.drvUpAt[node], st.ctlUpAt[node] = busy, busy
		for i := 0; i < spec.Nodes-1; i++ {
			a, b := NodeName(i), NodeName(i+1)
			if a == node || b == node {
				st.linkUpAt[a+"-"+b] = busy
			}
		}
		outage = []Event{
			{Step: archStep, Op: OpArchive, Node: node},
			{Step: failStep, Op: OpTotalFail, Node: node},
			{Step: recoverStep, Op: OpRollforward, Node: node},
		}
	}

	for step := 0; step < spec.Steps; step++ {
		n := 0
		switch d := rng.Intn(10); {
		case d < 3: // quiet round
		case d < 8:
			n = 1
		default:
			n = 2
		}
		for i := 0; i < n; i++ {
			events = append(events, genFault(rng, &spec, &st, step)...)
		}
	}
	// The outage triple goes last in slice order so same-step heals from
	// the ordinary stream apply before the ROLLFORWARD fires.
	events = append(events, phaseEvents...)
	events = append(events, outage...)
	// Stable by step: heals scheduled earlier sort before same-step
	// faults, so a resource healed at step s can legally re-fault at s.
	sort.SliceStable(events, func(i, j int) bool { return events[i].Step < events[j].Step })
	return Schedule{Seed: seed, Spec: spec, Events: events}
}

// WellFormed reports whether the event list keeps every total-failure
// outage recoverable: each OpTotalFail must be preceded by an OpArchive
// of the same node and followed by an OpRollforward of it, and each
// OpRollforward needs a preceding OpArchive. The minimizer only explores
// well-formed candidates — dropping a recovery but keeping the failure
// "fails" every invariant for the dull reason that the node never came
// back.
func WellFormed(events []Event) bool {
	archived := map[string]bool{}
	needRecovery := map[string]bool{}
	for _, ev := range events {
		switch ev.Op {
		case OpArchive:
			archived[ev.Node] = true
		case OpTotalFail:
			if !archived[ev.Node] {
				return false
			}
			needRecovery[ev.Node] = true
		case OpRollforward:
			if !archived[ev.Node] {
				return false
			}
			delete(needRecovery, ev.Node)
		}
	}
	return len(needRecovery) == 0
}

// genFault draws one fault (plus its scheduled heal) if the drawn target
// is available; an unavailable target yields no events but still consumes
// the same RNG draws, keeping generation deterministic.
func genFault(rng *rand.Rand, spec *Spec, st *genState, step int) []Event {
	healAt := step + 1 + rng.Intn(3)
	node := NodeName(rng.Intn(spec.Nodes))
	kind := rng.Intn(100)
	switch {
	case kind < 30: // CPU crash; index 0 = TMP/pair-primary takeover
		cpu := rng.Intn(spec.CPUs)
		if st.cpuUpAt[node] > step {
			return nil
		}
		st.cpuUpAt[node] = healAt
		return []Event{
			{Step: step, Op: OpCrashCPU, Node: node, Index: cpu},
			{Step: healAt, Op: OpReviveCPU, Node: node, Index: cpu},
		}
	case kind < 40: // one interprocessor bus
		bus := rng.Intn(2)
		if st.busUpAt[node] > step {
			return nil
		}
		st.busUpAt[node] = healAt
		return []Event{
			{Step: step, Op: OpFailBus, Node: node, Index: bus},
			{Step: healAt, Op: OpReviveBus, Node: node, Index: bus},
		}
	case kind < 55: // link down (line topology: node i links to i+1)
		li := rng.Intn(spec.Nodes - 1)
		a, b := NodeName(li), NodeName(li+1)
		lk := a + "-" + b
		if st.linkUpAt[lk] > step {
			return nil
		}
		st.linkUpAt[lk] = healAt
		return []Event{
			{Step: step, Op: OpFailLink, Node: a, Peer: b},
			{Step: healAt, Op: OpHealLink, Node: a, Peer: b},
		}
	case kind < 70: // lossy/duplicating/reordering/corrupting line
		li := rng.Intn(spec.Nodes - 1)
		a, b := NodeName(li), NodeName(li+1)
		lk := a + "-" + b
		p := &expand.FaultProfile{
			Loss:      0.05 + 0.10*rng.Float64(),
			Duplicate: 0.05 * rng.Float64(),
			Reorder:   0.3 * rng.Float64(),
			Corrupt:   0.03 * rng.Float64(),
			JitterMax: time.Duration(1+rng.Intn(2)) * time.Millisecond,
			Seed:      rng.Int63(),
		}
		if st.linkUpAt[lk] > step {
			return nil
		}
		st.linkUpAt[lk] = healAt
		return []Event{
			{Step: step, Op: OpLinkFault, Node: a, Peer: b, Fault: p},
			{Step: healAt, Op: OpClearFault, Node: a, Peer: b},
		}
	case kind < 85: // one mirror drive
		drive := rng.Intn(2)
		vol := volOn(spec, node)
		if st.drvUpAt[node] > step {
			return nil
		}
		st.drvUpAt[node] = healAt
		return []Event{
			{Step: step, Op: OpFailDrive, Node: node, Vol: vol, Index: drive},
			{Step: healAt, Op: OpReviveDrv, Node: node, Vol: vol, Index: drive},
		}
	default: // one disc controller
		ctl := rng.Intn(2)
		vol := volOn(spec, node)
		if st.ctlUpAt[node] > step {
			return nil
		}
		st.ctlUpAt[node] = healAt
		return []Event{
			{Step: step, Op: OpFailCtrl, Node: node, Vol: vol, Index: ctl},
			{Step: healAt, Op: OpReviveCtrl, Node: node, Vol: vol, Index: ctl},
		}
	}
}

// volOn returns the volume name hosted on node ("nI" -> "vI").
func volOn(spec *Spec, node string) string {
	for i := 0; i < spec.Nodes; i++ {
		if NodeName(i) == node {
			return VolName(i)
		}
	}
	return VolName(0)
}
