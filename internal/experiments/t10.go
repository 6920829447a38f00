package experiments

import (
	"fmt"
	"time"

	"encompass"
	"encompass/internal/expand"
	"encompass/internal/mfg"
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
func T10() *Report {
	r := &Report{
		Columns: []string{"step", "outcome"},
	}
	var specs []encompass.NodeSpec
	for _, n := range mfg.DefaultNodes {
		specs = append(specs, encompass.NodeSpec{
			Name: n, CPUs: 3,
			Volumes: []encompass.VolumeSpec{{Name: "v-" + n, Audited: true, CacheSize: 64}},
		})
	}
	links := [][2]string{
		{"cupertino", "santaclara"}, {"santaclara", "reston"},
		{"reston", "neufahrn"}, {"neufahrn", "cupertino"},
	}
	profile := expand.FaultProfile{
		Loss: t10Loss, Duplicate: t10Dup, Reorder: 0.2, Corrupt: 0.02,
		JitterMax: time.Millisecond, Seed: 1081,
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: specs, Links: links, LinkFault: profile,
	})
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	app, err := mfg.Install(sys, mfg.DefaultNodes, 10*time.Millisecond)
	if err != nil {
		r.Notes = append(r.Notes, err.Error())
		return r
	}
	defer app.Stop()

	pass := true
	step := func(name string, ok bool, detail string) {
		outcome := "ok"
		if !ok {
			outcome = "FAIL"
			pass = false
		}
		if detail != "" {
			outcome += " (" + detail + ")"
		}
		r.Rows = append(r.Rows, []string{name, outcome})
	}

	err = app.SeedItem("item-master", "disk-100", "cupertino", "rev-A")
	step("seed global record over lossy lines", err == nil, "")
	step("replicas converge pre-partition", app.WaitConverged("item-master", "disk-100", 20*time.Second), "")

	sys.Partition("neufahrn")
	err = app.UpdateItem("santaclara", "item-master", "disk-100", "rev-B")
	step("update during partition (lossy majority side)", err == nil, "")
	err = app.UpdateItem("reston", "item-master", "disk-100", "rev-C")
	step("second update during partition", err == nil, "")
	depth := app.SuspenseDepth("cupertino")
	step("deferred updates queued for neufahrn", depth > 0, fmt.Sprintf("suspense depth %d", depth))

	sys.Heal()
	conv := app.WaitConverged("item-master", "disk-100", 30*time.Second)
	step("convergence after heal over flaky lines", conv, "")
	_, payload, _ := app.ReadItem("neufahrn", "item-master", "disk-100")
	step("neufahrn caught up to rev-C", payload == "rev-C", "got "+payload)

	st := sys.Network.Stats()
	step("session layer retransmitted", st.Retransmits > 0, fmt.Sprintf("%d retransmits", st.Retransmits))
	step("duplicate frames suppressed", st.DupsDropped > 0, fmt.Sprintf("%d dups dropped", st.DupsDropped))

	as := app.Stats()
	r.Notes = append(r.Notes,
		fmt.Sprintf("fault profile per line: loss=%.0f%% dup=%.0f%% reorder=20%% corrupt=2%%", t10Loss*100, t10Dup*100),
		fmt.Sprintf("net: frames=%d lost=%d retransmits=%d dups_dropped=%d corrupt=%d give_ups=%d",
			st.Frames, st.FramesLost, st.Retransmits, st.DupsDropped, st.CorruptFrames, st.GiveUps),
		fmt.Sprintf("mfg: %+v", as))
	r.Pass = pass
	return r
}
