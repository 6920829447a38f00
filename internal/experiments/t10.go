package experiments

import (
	"fmt"
	"time"

	"encompass/internal/expand"
)

// Per-frame loss and duplication probability on every line.
const (
	t10Loss = 0.12
	t10Dup  = 0.06
)

// T10 replays the Figure-4 suspense-file convergence claim over flaky
// lines: every line in the four-node manufacturing ring drops, duplicates,
// reorders and corrupts frames, a partition isolates Neufahrn while
// updates queue in suspense files, and after the heal the deferred
// replication must still converge every copy — now with every protocol
// message riding the reliable-session layer. The paper's EXPAND network
// "handles all message routing and retransmission"; this is the experiment
// that turns retransmission on.
func t10(r *Report) error {
	r.Columns = []string{"step", "outcome"}
	sys, app, err := r.ring(expand.FaultProfile{
		Loss: t10Loss, Duplicate: t10Dup, Reorder: 0.2, Corrupt: 0.02,
		JitterMax: time.Millisecond, Seed: 1081,
	})
	if err != nil {
		return err
	}
	r.Pass = true
	err = app.SeedItem("item-master", "disk-100", "cupertino", "rev-A")
	r.step("seed global record over lossy lines", err == nil, "")
	r.step("replicas converge pre-partition", app.WaitConverged("item-master", "disk-100", 20*time.Second), "")

	sys.Partition("neufahrn")
	err = app.UpdateItem("santaclara", "item-master", "disk-100", "rev-B")
	r.step("update during partition (lossy majority side)", err == nil, "")
	err = app.UpdateItem("reston", "item-master", "disk-100", "rev-C")
	r.step("second update during partition", err == nil, "")
	r.heal(sys, app, "convergence after heal over flaky lines", 30*time.Second)

	st := sys.Network.Stats()
	r.step("session layer retransmitted", st.Retransmits > 0, fmt.Sprintf("%d retransmits", st.Retransmits))
	r.step("duplicate frames suppressed", st.DupsDropped > 0, fmt.Sprintf("%d dups dropped", st.DupsDropped))

	r.Notes = append(r.Notes,
		fmt.Sprintf("fault profile per line: loss=%.0f%% dup=%.0f%% reorder=20%% corrupt=2%%", t10Loss*100, t10Dup*100),
		fmt.Sprintf("net: frames=%d lost=%d retransmits=%d dups_dropped=%d corrupt=%d give_ups=%d",
			st.Frames, st.FramesLost, st.Retransmits, st.DupsDropped, st.CorruptFrames, st.GiveUps),
		fmt.Sprintf("mfg: %+v", app.Stats()))
	return nil
}
