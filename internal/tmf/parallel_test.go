package tmf

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/disk"
	"encompass/internal/expand"
	"encompass/internal/hw"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/txid"
)

// multiVolNode is a node with several audited volumes, each served by its
// own DISCPROCESS and AUDITPROCESS (separate trails, so phase one must
// force each trail independently).
type multiVolNode struct {
	name   string
	hw     *hw.Node
	sys    *msg.System
	mon    *Monitor
	vols   []string
	discs  []string
	trails []*audit.Trail
}

// buildMultiVolNode creates a node with nvols audited volumes whose
// trails carry forceDelay, attached to net.
func buildMultiVolNode(t *testing.T, net *expand.Network, name string, nvols int, forceDelay time.Duration) *multiVolNode {
	t.Helper()
	n, err := hw.NewNode(name, 4)
	if err != nil {
		t.Fatal(err)
	}
	sys := msg.NewSystem(n)
	net.Attach(sys)
	mn := &multiVolNode{name: name, hw: n, sys: sys}
	mn.mon, err = New(Config{System: sys, Network: net, TMPPrimaryCPU: 0, TMPBackupCPU: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nvols; i++ {
		volName := fmt.Sprintf("v%d", i)
		discName := fmt.Sprintf("disc%d", i)
		auditName := fmt.Sprintf("audit%d", i)
		trail := audit.NewTrail(auditName, forceDelay)
		if _, err := audit.StartProcess(sys, auditName, i%4, (i+1)%4, trail); err != nil {
			t.Fatal(err)
		}
		vol := disk.NewVolume(volName)
		if _, err := discproc.Start(sys, discName, i%4, (i+1)%4, discproc.Config{
			Volume:        vol,
			Audit:         audit.NewClient(sys, auditName),
			OnParticipate: mn.mon.RegisterLocalVolume,
			CacheSize:     32,
		}); err != nil {
			t.Fatal(err)
		}
		mn.mon.AddVolume(VolumeInfo{Name: volName, DiscName: discName, AuditName: auditName})
		mn.vols = append(mn.vols, volName)
		mn.discs = append(mn.discs, discName)
		mn.trails = append(mn.trails, trail)
		mn.discCall(t, discName, discproc.KindCreate, discproc.CreateReq{File: "data", Org: dbfile.KeySequenced})
	}
	return mn
}

func (mn *multiVolNode) tryDiscCall(disc, kind string, payload any) (msg.Message, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return mn.sys.ClientCall(ctx, 3, msg.Addr{Name: disc}, kind, payload)
}

func (mn *multiVolNode) discCall(t *testing.T, disc, kind string, payload any) msg.Message {
	t.Helper()
	r, err := mn.tryDiscCall(disc, kind, payload)
	if err != nil {
		t.Fatalf("%s %s: %v", disc, kind, err)
	}
	return r
}

// TestParallelPhase1MultiVolume: phase one across N independent trails
// pays roughly one force latency, not the sum — every per-volume flush is
// on its way before the first is awaited, so they are served concurrently.
func TestParallelPhase1MultiVolume(t *testing.T) {
	const (
		nvols = 8
		delay = 10 * time.Millisecond
	)
	net := expand.NewNetwork(0)
	mn := buildMultiVolNode(t, net, "a", nvols, delay)
	tx, err := mn.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	for i, disc := range mn.discs {
		mn.discCall(t, disc, discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: fmt.Sprintf("k%d", i), Val: []byte("v")})
	}
	start := time.Now()
	if err := mn.mon.End(tx); err != nil {
		t.Fatalf("End: %v", err)
	}
	elapsed := time.Since(start)
	// Sequential phase one would pay >= nvols*delay = 80ms in trail forces
	// alone; overlapped flushes should land well under that.
	if elapsed >= time.Duration(nvols)*delay*3/4 {
		t.Errorf("parallel commit took %v, want well under the sequential %v", elapsed, time.Duration(nvols)*delay)
	}
	for i, tr := range mn.trails {
		if imgs := tr.ImagesFor(tx); len(imgs) != 1 {
			t.Errorf("trail %d durable images = %d, want 1", i, len(imgs))
		}
	}
	if st := mn.mon.Stats(); st.Committed != 1 || st.Aborted != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestCommitSlowVolumeFailingChild: a commit whose phase one combines a
// slow local volume force with an unreachable child must abort cleanly,
// release local locks, and leave counters agreeing with the Monitor Audit
// Trail.
func TestCommitSlowVolumeFailingChild(t *testing.T) {
	net := expand.NewNetwork(0)
	a := buildMultiVolNode(t, net, "a", 2, 5*time.Millisecond)
	b := buildMultiVolNode(t, net, "b", 1, 0)
	if err := net.AddLink("a", "b"); err != nil {
		t.Fatal(err)
	}
	tx, err := a.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	a.discCall(t, a.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k0", Val: []byte("v")})
	a.discCall(t, a.discs[1], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k1", Val: []byte("v")})
	if err := a.mon.NoteRemoteSend(tx, "b"); err != nil {
		t.Fatal(err)
	}
	// The child is unreachable at phase one: the critical-response
	// requirement fails while the slow local forces are in flight.
	net.Partition("b")
	err = a.mon.End(tx)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("End with failing child = %v, want ErrAborted", err)
	}
	if st := a.mon.State(tx); st != txid.StateAborted {
		t.Errorf("state = %v, want aborted", st)
	}
	if o, ok := a.mon.Outcome(tx); !ok || o != audit.OutcomeAborted {
		t.Errorf("outcome = %v, %v", o, ok)
	}
	if st := a.mon.Stats(); st.Committed != 0 || st.Aborted != 1 {
		t.Errorf("stats = %+v, want 0 committed / 1 aborted", st)
	}
	// Local locks were released: a fresh transaction can update the keys
	// the aborted one inserted... which were backed out, so re-insert.
	tx2, err := a.mon.Begin(3)
	if err != nil {
		t.Fatal(err)
	}
	a.discCall(t, a.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx2, File: "data", Key: "k0", Val: []byte("v2")})
	if err := a.mon.End(tx2); err != nil {
		t.Fatalf("End after aborted predecessor: %v", err)
	}
	_ = b
}

// TestAbortRacingCommit: ABORT-TRANSACTION racing END-TRANSACTION under
// the protocol mutex must produce exactly one recorded outcome per
// transaction, with the committed/aborted counters summing to the
// transaction count (run with -race).
func TestAbortRacingCommit(t *testing.T) {
	const rounds = 16
	net := expand.NewNetwork(0)
	mn := buildMultiVolNode(t, net, "a", 2, time.Millisecond)
	for i := 0; i < rounds; i++ {
		tx, err := mn.mon.Begin(i % 4)
		if err != nil {
			t.Fatal(err)
		}
		mn.discCall(t, mn.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: fmt.Sprintf("r%d", i), Val: []byte("v")})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			_ = mn.mon.End(tx)
		}()
		go func() {
			defer wg.Done()
			_ = mn.mon.Abort(tx, "race")
		}()
		wg.Wait()
		if st := mn.mon.State(tx); !st.Terminal() {
			t.Fatalf("round %d: non-terminal state %v", i, st)
		}
		if _, ok := mn.mon.Outcome(tx); !ok {
			t.Fatalf("round %d: no recorded outcome", i)
		}
	}
	st := mn.mon.Stats()
	if st.Committed+st.Aborted != rounds {
		t.Errorf("committed %d + aborted %d = %d, want %d (counters must agree with the MAT)",
			st.Committed, st.Aborted, st.Committed+st.Aborted, rounds)
	}
	if int(mn.mon.MonitorTrail().Len()) != rounds {
		t.Errorf("MAT records = %d, want %d", mn.mon.MonitorTrail().Len(), rounds)
	}
}

// TestReleaseFailureCounted: a volume whose DISCPROCESS cannot be reached
// during phase two is retried and then counted in UnreleasedVolumes
// instead of being silently dropped.
func TestReleaseFailureCounted(t *testing.T) {
	net := expand.NewNetwork(0)
	mn := buildMultiVolNode(t, net, "a", 1, 0)
	// A registered volume whose DISCPROCESS name resolves to nothing:
	// every call to it fails, as with a hung or dead process.
	mn.mon.AddVolume(VolumeInfo{Name: "ghost", DiscName: "no-such-disc"})
	tx, err := mn.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	mn.discCall(t, mn.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k", Val: []byte("v")})
	if err := mn.mon.RegisterLocalVolume(tx, "ghost"); err != nil {
		t.Fatal(err)
	}
	// Phase one's flush of the ghost volume fails, aborting the commit;
	// the abort's release path then fails on the same volume.
	if err := mn.mon.End(tx); !errors.Is(err, ErrAborted) {
		t.Fatalf("End = %v, want ErrAborted", err)
	}
	// The registry counter is the source of truth; Stats.UnreleasedVolumes
	// is a thin alias over it.
	if mn.mon.Registry().Counter(obs.MUnreleasedVolumes).Value() == 0 {
		t.Error("unreleased-volumes counter = 0, want the ghost volume counted")
	}
	if st := mn.mon.Stats(); st.Aborted != 1 {
		t.Errorf("aborted = %d, want 1", st.Aborted)
	}
}

// TestReleaseRetriesOneVolumeOfTwo: with one of a transaction's two
// volumes served by a DISCPROCESS that fails every lock release, phase two
// sends that volume its release volRetries times and counts it in
// UnreleasedVolumes once, while the other volume, awaited in the same
// first round, releases its locks.
func TestReleaseRetriesOneVolumeOfTwo(t *testing.T) {
	mn := buildMultiVolNode(t, expand.NewNetwork(0), "a", 1, 0)
	var releases atomic.Int32
	if _, err := mn.sys.Spawn(2, "stuck-disc", func(p *msg.Process) {
		for {
			m, err := p.Recv(context.Background())
			if err != nil {
				return
			}
			if m.Kind == discproc.KindEndTx {
				releases.Add(1)
				p.ReplyErr(m, errors.New("release failed"))
				continue
			}
			p.Reply(m, nil) // the flush: phase one passes
		}
	}); err != nil {
		t.Fatal(err)
	}
	mn.mon.AddVolume(VolumeInfo{Name: "stuck", DiscName: "stuck-disc"})
	tx, err := mn.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	mn.discCall(t, mn.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k", Val: []byte("v")})
	if err := mn.mon.RegisterLocalVolume(tx, "stuck"); err != nil {
		t.Fatal(err)
	}
	if err := mn.mon.End(tx); err != nil {
		t.Fatalf("End: %v", err)
	}
	if n := releases.Load(); n != volRetries {
		t.Errorf("stuck volume was sent %d releases, want %d", n, volRetries)
	}
	if n := mn.mon.Stats().UnreleasedVolumes; n != 1 {
		t.Errorf("UnreleasedVolumes = %d, want 1", n)
	}
	tx2, err := mn.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mn.tryDiscCall(mn.discs[0], discproc.KindRead, &discproc.RecReq{Tx: tx2, File: "data", Key: "k", WithLock: true, LockTimeout: 50 * time.Millisecond}); err != nil {
		t.Errorf("the healthy volume kept the committed transaction's lock: %v", err)
	}
}

// TestBackoutScanFailureSurfaced: when the BACKOUTPROCESS cannot read an
// audit trail, the failure must be retried, counted, and surfaced in the
// abort reason — the seed silently skipped the trail, losing the undo of
// its images.
func TestBackoutScanFailureSurfaced(t *testing.T) {
	net := expand.NewNetwork(0)
	mn := buildMultiVolNode(t, net, "a", 1, 0)
	// A volume claiming an AUDITPROCESS that does not exist: backout's
	// scan of that trail can never succeed.
	mn.mon.AddVolume(VolumeInfo{Name: "ghost", DiscName: mn.discs[0], AuditName: "no-such-audit"})
	tx, err := mn.mon.Begin(2)
	if err != nil {
		t.Fatal(err)
	}
	mn.discCall(t, mn.discs[0], discproc.KindInsert, &discproc.RecReq{Tx: tx, File: "data", Key: "k", Val: []byte("v")})
	if err := mn.mon.RegisterLocalVolume(tx, "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := mn.mon.Abort(tx, "operator abort"); err != nil {
		t.Fatal(err)
	}
	if mn.mon.Registry().Counter(obs.MBackoutScanFailures).Value() == 0 {
		t.Error("backout-scan-failures counter = 0, want the unreadable trail counted")
	}
	reason := mn.mon.AbortReason(tx)
	if !strings.Contains(reason, "backout incomplete") || !strings.Contains(reason, "no-such-audit") {
		t.Errorf("abort reason %q does not surface the failed trail scan", reason)
	}
	// The reachable trail's images were still undone.
	r, err := mn.tryDiscCall(mn.discs[0], discproc.KindRead, &discproc.RecReq{File: "data", Key: "k"})
	if err == nil {
		t.Errorf("key survived backout: %q", r.Payload.(*discproc.RecReq).Val)
	}
}
