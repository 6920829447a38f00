package tmf

import (
	"errors"
	"slices"
	"testing"

	"encompass/internal/audit"
	"encompass/internal/expand"
	"encompass/internal/txid"
)

// TestVotedParticipantAbortCauses drives every route to an abort at a
// participant that voted yes. Each unilateral route is refused: the
// participant keeps its insert and the lock on it, in doubt. Each imposed
// route backs the transaction out, and the vote stays recorded.
func TestVotedParticipantAbortCauses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cause abortCause
		abort func(a, b *testNode, net *expand.Network, tx txid.ID) error
	}{
		{"Abort", unilateral, func(_, b *testNode, _ *expand.Network, tx txid.ID) error {
			return b.mon.Abort(tx, "caller gave up")
		}},
		{"unreachable source", unilateral, func(_, b *testNode, net *expand.Network, tx txid.ID) error {
			// The link stays down until the test ends: healed, it would
			// carry the home's own abort (imposed) to b.
			net.Partition("b")
			t.Cleanup(net.HealAll)
			b.mon.abortUnreachable()
			return ErrInDoubt // the sweep drops the refusal; b's state shows it
		}},
		{"inbound ABORTING", imposed, func(a, _ *testNode, _ *expand.Network, tx txid.ID) error {
			return a.mon.Abort(tx, "home gave up")
		}},
		{"learned aborted", imposed, func(_, b *testNode, _ *expand.Network, tx txid.ID) error {
			b.mon.applyLearnedDisposition(tx, audit.OutcomeAborted, "test")
			return nil
		}},
		{"ForceDisposition", imposed, func(_, b *testNode, _ *expand.Network, tx txid.ID) error {
			return b.mon.ForceDisposition(tx, false)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes, net := testCluster(t, "a", "b")
			a, b := nodes["a"], nodes["b"]
			tx, _ := a.mon.Begin(0)
			if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
				t.Fatal(err)
			}
			a.insert(t, "b", tx, "k", "v")
			if err := b.mon.serve(tx, kindPhase1); err != nil {
				t.Fatal(err)
			}

			err := tc.abort(a, b, net, tx)
			b.mon.mu.Lock()
			voted := b.mon.txs[tx].s.voted
			b.mon.mu.Unlock()
			if !voted {
				t.Error("the vote was forgotten")
			}
			if tc.cause == unilateral {
				if !errors.Is(err, ErrInDoubt) {
					t.Errorf("err = %v, want ErrInDoubt", err)
				}
				if st := b.mon.State(tx); st != txid.StateEnding {
					t.Errorf("participant state = %v, want ending", st)
				}
				if !slices.Contains(b.mon.InDoubt(), tx) {
					t.Error("participant is not in doubt")
				}
				if v, err := b.read(t, "b", "k"); err != nil || v != "v" {
					t.Errorf("insert = %q, %v; want it kept", v, err)
				}
				other, _ := b.mon.Begin(0)
				if _, err := b.lockedRead(t, "b", other, "k"); err == nil {
					t.Error("the insert's lock was not held")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if st := b.mon.State(tx); st != txid.StateAborted {
				t.Errorf("participant state = %v, want aborted", st)
			}
			if d := b.mon.InDoubt(); len(d) != 0 {
				t.Errorf("InDoubt() = %v, want empty", d)
			}
			if _, err := b.read(t, "b", "k"); err == nil {
				t.Error("aborted insert survived")
			}
			other, _ := b.mon.Begin(0)
			b.insert(t, "b", other, "k", "w") // needs the lock released
		})
	}
}
