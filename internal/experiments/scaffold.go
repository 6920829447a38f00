package experiments

import (
	"fmt"
	"time"

	"encompass"
	"encompass/internal/expand"
	"encompass/internal/mfg"
	"encompass/internal/obs"
)

// harness adapts an experiment body to Experiment.Run. The body fills a
// fresh Report; an error it returns is the one failure path — recorded as
// a note, the report failed — and every system and application the body
// started is stopped when it returns.
func harness(body func(r *Report) error) func() *Report {
	return func() *Report {
		r := &Report{}
		defer func() {
			for i := len(r.stops) - 1; i >= 0; i-- {
				r.stops[i]()
			}
			r.stops = nil
		}()
		if err := body(r); err != nil {
			r.Notes = append(r.Notes, err.Error())
			r.Pass = false
		}
		return r
	}
}

// cluster is what the one builder varies. Zero values take Build's
// defaults: one node "a", one volume per node, 4 CPUs.
type cluster struct {
	nodes            []string
	vols, cpus       int // per node
	cache            int
	miss, forceDelay time.Duration // a cache miss's disc read; an audit trail force
	forceEvery       bool
	workers, trace   int // Config.DiscWorkers, Config.TraceCapacity
	proto            string
	links            [][2]string
	fault            expand.FaultProfile
}

// build starts the cluster with every volume audited and one
// key-sequenced file per volume, defined on every node, and has the
// system stopped with the report. A node's one volume is v-<node>, the
// naming mfg.Install expects; several are v1…vM. Files are f1…fK in node
// order, and build returns their names.
func (r *Report) build(c cluster) (*encompass.System, []string, error) {
	cfg := encompass.Config{
		AuditForceDelay: c.forceDelay, DiscWorkers: c.workers, TraceCapacity: c.trace,
		CommitProtocol: c.proto, Links: c.links, LinkFault: c.fault,
	}
	if c.nodes == nil {
		c.nodes = []string{"a"}
	}
	var files []encompass.FileInfo
	for _, n := range c.nodes {
		spec := encompass.NodeSpec{Name: n, CPUs: c.cpus}
		for i := range max(c.vols, 1) {
			vol := "v-" + n
			if c.vols > 1 {
				vol = fmt.Sprintf("v%d", i+1)
			}
			spec.Volumes = append(spec.Volumes, encompass.VolumeSpec{Name: vol, Audited: true,
				CacheSize: c.cache, MissPenalty: c.miss, ForceEveryUpdate: c.forceEvery})
			files = append(files, encompass.LocalFile(fmt.Sprintf("f%d", len(files)+1), encompass.KeySequenced, n, vol))
		}
		cfg.Nodes = append(cfg.Nodes, spec)
	}
	sys, err := encompass.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	r.stops = append(r.stops, sys.Stop)
	names := make([]string, len(files))
	for i, fi := range files {
		if err := sys.CreateFileEverywhere(fi); err != nil {
			return nil, nil, fmt.Errorf("create %s: %w", fi.Name, err)
		}
		names[i] = fi.Name
	}
	return sys, names, nil
}

// commit runs n transactions at node, numbered from first, each inserting
// key(i, j) into the j-th listed file (a file listed twice gets two
// records) and committing. It returns the distribution of END's latency
// and stops at the first error.
func commit(node *encompass.Node, first, n int, files ...string) (obs.HistogramSnapshot, error) {
	lats := obs.NewHistogram()
	for i := first; i < first+n; i++ {
		tx, err := node.Begin()
		if err != nil {
			return lats.Snapshot(), fmt.Errorf("transaction %d: begin: %w", i, err)
		}
		for j, f := range files {
			if err := tx.Insert(f, key(i, j), []byte("v")); err != nil {
				return lats.Snapshot(), fmt.Errorf("transaction %d: insert into %s: %w", i, f, err)
			}
		}
		t0 := time.Now()
		if err := tx.Commit(); err != nil {
			return lats.Snapshot(), fmt.Errorf("transaction %d: commit: %w", i, err)
		}
		lats.Observe(time.Since(t0))
	}
	return lats.Snapshot(), nil
}

// key names the record commit inserts for transaction i in its j-th file.
func key(i, j int) string { return fmt.Sprintf("k%06d-%d", i, j) }

// ring builds Figure 4's four manufacturing nodes on a ring of lines with
// the given fault profile and installs the application; the report stops
// the application, then the system.
func (r *Report) ring(fault expand.FaultProfile) (*encompass.System, *mfg.App, error) {
	n := mfg.DefaultNodes
	sys, _, err := r.build(cluster{nodes: n, cpus: 3, cache: 64, fault: fault,
		links: [][2]string{{n[0], n[1]}, {n[1], n[2]}, {n[2], n[3]}, {n[3], n[0]}}})
	if err != nil {
		return nil, nil, err
	}
	app, err := mfg.Install(sys, n, 10*time.Millisecond)
	if err != nil {
		return nil, nil, err
	}
	r.stops = append(r.stops, app.Stop)
	return sys, app, nil
}

// step records one row of F4's and T10's step/outcome tables; a step
// that did not hold fails the report.
func (r *Report) step(name string, ok bool, detail string) {
	outcome := "ok"
	if !ok {
		outcome = "FAIL"
		r.Pass = false
	}
	if detail != "" {
		outcome += " (" + detail + ")"
	}
	r.Rows = append(r.Rows, []string{name, outcome})
}

// heal is F4's and T10's common ending: cupertino's suspense file holds
// the updates the partitioned neufahrn missed; after the heal every copy
// of disk-100 converges (the row label names the setting) and neufahrn
// holds the last update, rev-C.
func (r *Report) heal(sys *encompass.System, app *mfg.App, converged string, timeout time.Duration) {
	depth := app.SuspenseDepth("cupertino")
	r.step("deferred updates queued for neufahrn", depth > 0, fmt.Sprintf("suspense depth %d", depth))
	sys.Heal()
	r.step(converged, app.WaitConverged("item-master", "disk-100", timeout), "")
	_, payload, err := app.ReadItem("neufahrn", "item-master", "disk-100")
	if err != nil {
		payload = err.Error()
	}
	r.step("neufahrn caught up to rev-C", payload == "rev-C", "got "+payload)
}
