package encompass

import (
	"time"

	"encompass/internal/audit"
	"encompass/internal/disk"
	"encompass/internal/rollforward"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// audited returns the node's audited volumes and their trails by name:
// what ROLLFORWARD archives and repairs.
func (n *Node) audited() (map[string]*disk.Volume, map[string]*audit.Trail) {
	vols := make(map[string]*disk.Volume)
	trails := make(map[string]*audit.Trail)
	for name, v := range n.Volumes {
		if v.Trail != nil {
			vols[name] = v.Disk
			trails[v.Trail.Name()] = v.Trail
		}
	}
	return vols, trails
}

// TakeArchive produces a ROLLFORWARD archive of the node's audited
// volumes: snapshot copies plus the trail replay positions. It can run
// during normal transaction processing.
func (n *Node) TakeArchive() *rollforward.Archive {
	vols, trails := n.audited()
	mon := n.TMF
	return rollforward.Take(n.Name, vols, trails, func(tx txid.ID) bool {
		_, recorded := mon.MonitorTrail().OutcomeOf(tx)
		return recorded || mon.PresumedAbort(tx)
	})
}

// PurgeAuditTrails trims every audit trail below the replay position of
// the given archive: records older than the archive can never be needed
// again ("an audit trail is a numbered sequence of disc files whose ...
// creation and purging is managed by TMF"). Returns the number of trail
// segments remaining.
func (n *Node) PurgeAuditTrails(a *rollforward.Archive) int {
	remaining := 0
	_, trails := n.audited()
	for name, t := range trails {
		if lsn, ok := a.TrailLSNs[name]; ok {
			t.TrimBefore(lsn)
		}
		remaining += len(t.Segments())
	}
	return remaining
}

// Crash simulates total node failure: every processor fails
// simultaneously, so all process-pairs die and the unforced tails of the
// audit trails and of the Monitor Audit Trail are lost. The mirrored discs
// survive but may carry updates of transactions that can no longer be
// backed out.
func (n *Node) Crash() {
	n.halt()
	// Fence the discs: stragglers from dying processors must not touch
	// them between the failure and the ROLLFORWARD repair.
	for _, v := range n.Volumes {
		v.Disk.SetFenced(true)
	}
	_, trails := n.audited()
	for _, t := range trails {
		t.CrashLoseUnforced()
	}
	n.TMF.MonitorTrail().CrashLoseUnforced()
}

// Recover brings a crashed node back: halt whatever of the old software
// still runs, revive the processors, and start the node again around
// ROLLFORWARD (restore the archive, redo committed after-images,
// negotiating with other nodes about transactions whose disposition the
// local Monitor Audit Trail does not record).
func (n *Node) Recover(a *rollforward.Archive) (rollforward.Stats, error) {
	var st rollforward.Stats
	n.halt()
	// Give any straggler goroutines from the dead processors time to
	// observe their cancelled contexts and exit against the fence.
	time.Sleep(10 * time.Millisecond)
	for i := 0; i < n.HW.NumCPUs(); i++ {
		if err := n.HW.ReviveCPU(i); err != nil {
			return st, err
		}
	}
	for _, v := range n.Volumes {
		v.Disk.SetFenced(false)
	}
	err := n.start(func(mon *tmf.Monitor) (err error) {
		resolve := func(tx txid.ID) (bool, error) {
			if mon.PresumedAbort(tx) {
				return false, nil
			}
			r, err := mon.QueryRemote(tx.Home, tx)
			if err != nil {
				return false, err
			}
			return r.Known && r.Committed, nil
		}
		vols, trails := n.audited()
		st, err = rollforward.Recover(a, vols, trails, mon.MonitorTrail(), resolve)
		return err
	})
	return st, err
}
