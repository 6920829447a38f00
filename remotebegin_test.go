package encompass_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"encompass"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// chain builds nodes a, b, ... in a line, each with one audited volume
// holding file f<node>, defined on every node.
func chain(t *testing.T, nodes int) (*encompass.System, []string) {
	t.Helper()
	var specs []encompass.NodeSpec
	var names []string
	for i := range nodes {
		name := string(rune('a' + i))
		names = append(names, name)
		specs = append(specs, encompass.NodeSpec{Name: name, CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v" + name, Audited: true, CacheSize: 64}}})
	}
	sys := build(t, encompass.Config{Nodes: specs})
	for _, name := range names {
		if err := sys.CreateFileEverywhere(encompass.LocalFile("f"+name, encompass.KeySequenced, name, "v"+name)); err != nil {
			t.Fatal(err)
		}
	}
	return sys, names
}

// TestCrashedNodeRequestFailsFast: a transaction's first request to a
// crashed node whose TMP is still registered on a down CPU is answered by
// that node's message system at once: it fails as ErrNodeUnreachable
// wrapping hw.ErrCPUDown instead of waiting out its timeout, and the node
// joins no transmission tree, so the transaction still commits without
// it. A crashed node's processes leave the name registry only once their
// goroutines see the failure, and one blocked inside a handler keeps its
// name meanwhile; the test holds that window open with a process that
// never returns to Recv.
func TestCrashedNodeRequestFailsFast(t *testing.T) {
	sys, _ := chain(t, 2)
	a, b := sys.Node("a"), sys.Node("b")
	hold := make(chan struct{})
	t.Cleanup(func() { close(hold) })
	stuck, err := b.Msg.Spawn(0, "", func(*msg.Process) { <-hold })
	if err != nil {
		t.Fatal(err)
	}
	b.Crash()
	b.Msg.Register("tmp", stuck)
	tx, err := a.Begin()
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = tx.ReadLock("fb", "k")
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Errorf("ReadLock on the crashed node took %v, want an answer within 100ms", d)
	}
	if !errors.Is(err, tmf.ErrNodeUnreachable) || !errors.Is(err, hw.ErrCPUDown) {
		t.Errorf("ReadLock on the crashed node = %v, want ErrNodeUnreachable and hw.ErrCPUDown", err)
	}
	if err := tx.Commit(); err != nil {
		t.Errorf("commit = %v, want nil: the crashed node is no child", err)
	}
}

// TestDistributedCommitFrames pins the EXPAND frames of a transaction
// that inserts one record on each of its nodes and commits: per remote
// node one round trip for the insert with the remote begin it carries,
// one for phase one and one for ENDED — 6 frames with two nodes, 12 with
// three.
func TestDistributedCommitFrames(t *testing.T) {
	for nodes, want := range map[int]uint64{2: 6, 3: 12} {
		t.Run(fmt.Sprintf("%d nodes", nodes), func(t *testing.T) {
			sys, names := chain(t, nodes)
			home := sys.Node(names[0])
			const txs = 10
			f0 := sys.Network.Stats().Frames
			for i := range txs {
				tx, err := home.Begin()
				if err != nil {
					t.Fatal(err)
				}
				for _, name := range names {
					if err := tx.Insert("f"+name, fmt.Sprintf("k%03d", i), []byte("v")); err != nil {
						t.Fatal(err)
					}
				}
				if err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				if !home.TMF.WaitSafeQueueEmpty(5 * time.Second) {
					t.Fatal("phase two did not drain")
				}
			}
			if got := (sys.Network.Stats().Frames - f0) / txs; got != want {
				t.Errorf("%d frames per commit, want %d", got, want)
			}
		})
	}
}

// TestServerUpdatesHomeRecord: a server on node b, called in transaction
// T from T's home a, updates a record on a. The update costs one round
// trip — no remote begin goes to the home — and T still commits with b
// as a's only child: phase one and ENDED to b, nothing from b to a.
func TestServerUpdatesHomeRecord(t *testing.T) {
	sys, _ := chain(t, 2)
	a, b := sys.Node("a"), sys.Node("b")
	seed, _ := a.Begin()
	if err := seed.Insert("fa", "acct", []byte("100")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	var updateFrames uint64
	if _, err := b.StartServerClass(encompass.ServerClassConfig{
		Class: "post", MinInstances: 1, MaxInstances: 1,
		Handler: func(tx txid.ID, fields map[string]string) (map[string]string, error) {
			f0 := sys.Network.Stats().Frames
			err := b.FS.Update(tx, "fa", "acct", []byte(fields["BAL"]))
			updateFrames = sys.Network.Stats().Frames - f0
			return nil, err
		},
	}); err != nil {
		t.Fatal(err)
	}
	tx, _ := a.Begin()
	if _, err := tx.ReadLock("fa", "acct"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CallServer("b", "post", tx.ID, map[string]string{"BAL": "90"}, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if updateFrames != 2 {
		t.Errorf("the update of a home record from b took %d frames, want one round trip (2)", updateFrames)
	}
	f0 := sys.Network.Stats().Frames
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !a.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("phase two did not drain")
	}
	if frames := sys.Network.Stats().Frames - f0; frames != 4 {
		t.Errorf("commit took %d frames, want 4: phase one and ENDED to b only", frames)
	}
	if v, err := a.FS.Read("fa", "acct"); err != nil || string(v) != "90" {
		t.Errorf("acct = %q, %v after commit", v, err)
	}
}
