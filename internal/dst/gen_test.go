package dst

import (
	"bytes"
	"testing"

	"encompass/internal/tmf"
)

// TestGenerateDeterministic: the schedule is a pure function of the root
// seed — same seed, byte-identical encoding. Repro commands and the
// corpus depend on this.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, 42, 7700, 123456789} {
		s1, s2 := Generate(seed), Generate(seed)
		a, b := s1.Encode(), s2.Encode()
		if !bytes.Equal(a, b) {
			t.Errorf("seed %d: two generations differ:\n%s\n--- vs ---\n%s", seed, a, b)
		}
	}
}

// TestGenerateDiverse: different seeds must explore different schedules —
// distinct fault-event lists and, across a spread of seeds, more than one
// cluster shape and every fault op in the vocabulary.
func TestGenerateDiverse(t *testing.T) {
	const n = 60
	encodings := make(map[string]int64, n)
	shapes := map[[2]int]bool{}
	ops := map[Op]bool{}
	for seed := int64(1); seed <= n; seed++ {
		s := Generate(seed)
		enc := string(s.Encode())
		if prev, dup := encodings[enc]; dup {
			t.Errorf("seeds %d and %d generated identical schedules", prev, seed)
		}
		encodings[enc] = seed
		shapes[[2]int{s.Spec.Nodes, s.Spec.CPUs}] = true
		for _, ev := range s.Events {
			ops[ev.Op] = true
		}
	}
	if len(shapes) < 2 {
		t.Errorf("%d seeds produced only %d cluster shape(s)", n, len(shapes))
	}
	for _, op := range []Op{OpCrashCPU, OpFailBus, OpFailLink, OpLinkFault, OpFailDrive, OpFailCtrl} {
		if !ops[op] {
			t.Errorf("%d seeds never scheduled %s — generator lost a fault class", n, op)
		}
	}
}

// TestGenerateWellFormed: every fault is paired with a heal at a later
// step, events are sorted by step, and event targets stay inside the
// generated cluster shape.
func TestGenerateWellFormed(t *testing.T) {
	heals := map[Op]Op{
		OpCrashCPU:  OpReviveCPU,
		OpFailBus:   OpReviveBus,
		OpFailLink:  OpHealLink,
		OpLinkFault: OpClearFault,
		OpFailDrive: OpReviveDrv,
		OpFailCtrl:  OpReviveCtrl,
	}
	for seed := int64(1); seed <= 40; seed++ {
		s := Generate(seed)
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i-1].Step > s.Events[i].Step {
				t.Fatalf("seed %d: events out of step order at %d", seed, i)
			}
		}
		for i, ev := range s.Events {
			if !isFault(ev.Op) {
				continue
			}
			want := heals[ev.Op]
			found := false
			for _, later := range s.Events[i+1:] {
				if later.Op == want && later.Node == ev.Node && later.Peer == ev.Peer &&
					later.Index == ev.Index && later.Vol == ev.Vol && later.Step > ev.Step {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: %s has no matching %s afterwards", seed, ev, want)
			}
		}
	}
}

// TestSubSeedIndependence: child seeds derived under different labels must
// differ from each other and from the root, and be stable per label.
func TestSubSeedIndependence(t *testing.T) {
	root := int64(99)
	a := SubSeed(root, "injector")
	b := SubSeed(root, "workload")
	if a == b {
		t.Error("different labels yielded the same child seed")
	}
	if a == root || b == root {
		t.Error("child seed equals the root seed")
	}
	if a != SubSeed(root, "injector") {
		t.Error("SubSeed is not stable for a fixed (root, label)")
	}
	if SubSeed(root+1, "injector") == a {
		t.Error("different roots yielded the same child seed")
	}
}

// TestPhasePartitionDrawsBuildableProtocols: the phase-partition shape
// picks its protocol by seed, and every pick — like the spec each corpus
// entry carries, which TestReplayCorpus replays — must be one tmf.New
// still builds, with both drawn across a spread of seeds.
func TestPhasePartitionDrawsBuildableProtocols(t *testing.T) {
	drawn := map[string]int{}
	for seed := int64(1); seed <= 40; seed++ {
		drawn[GenerateShaped(seed, ShapePhasePartition).Spec.CommitProtocol]++
	}
	entries, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if p := e.Schedule.Spec.CommitProtocol; p != "" {
			drawn[p]++
		}
	}
	if len(drawn) != 2 || drawn[tmf.ProtoAbbreviated] == 0 || drawn[tmf.ProtoPaxos] == 0 {
		t.Errorf("protocols drawn by 40 seeds and the corpus: %v, want abbreviated and paxos only", drawn)
	}
}
