// Package encompass is a Go reproduction of the ENCOMPASS distributed data
// management system and its Transaction Monitoring Facility (TMF), as
// described in Andrea Borr, "Transaction Monitoring in ENCOMPASS: Reliable
// Distributed Transaction Processing" (Tandem TR 81.2 / VLDB 1981).
//
// The package assembles the simulated substrate — NonStop nodes with 2-16
// CPUs and dual interprocessor buses, a message-based operating system,
// process pairs, the EXPAND network, mirrored disc volumes, DISCPROCESSes,
// AUDITPROCESSes and audit trails — and runs TMF on top: transids,
// state-change broadcast, the abbreviated single-node two-phase commit,
// the distributed commit protocol with critical-response and safe-delivery
// messages, transaction backout, and ROLLFORWARD recovery.
//
// Quick start:
//
//	sys, _ := encompass.Build(encompass.Config{
//	    Nodes: []encompass.NodeSpec{{Name: "alpha", CPUs: 4,
//	        Volumes: []encompass.VolumeSpec{{Name: "data1", Audited: true}}}},
//	})
//	defer sys.Stop() // halts every node; the simulation's goroutines exit
//	node := sys.Node("alpha")
//	_ = node.FS.Create(fsys.FileInfo{ ... })
//	tx, _ := node.Begin()
//	_ = tx.Insert("accounts", "100", []byte("balance=50"))
//	_ = tx.Commit()
package encompass

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"encompass/internal/audit"
	"encompass/internal/dbfile"
	"encompass/internal/discproc"
	"encompass/internal/disk"
	"encompass/internal/expand"
	"encompass/internal/fsys"
	"encompass/internal/hw"
	"encompass/internal/lock"
	"encompass/internal/msg"
	"encompass/internal/obs"
	"encompass/internal/tmf"
	"encompass/internal/txid"
)

// VolumeSpec configures one mirrored disc volume on a node.
type VolumeSpec struct {
	Name string
	// Audited volumes generate before/after images and are protected by
	// transaction backout and ROLLFORWARD.
	Audited bool
	// AuditGroup shares an AUDITPROCESS and audit trail between volumes
	// ("all audited discs on a given controller share an AUDITPROCESS and
	// an audit trail"); empty means a group of its own.
	AuditGroup string
	// CacheSize is the DISCPROCESS record cache capacity (0 disables).
	CacheSize int
	// MissPenalty simulates the disc read the cache avoids.
	MissPenalty time.Duration
	// ForceEveryUpdate selects the conventional WAL discipline for the T2
	// ablation benchmark.
	ForceEveryUpdate bool
}

// NodeSpec configures one Tandem node.
type NodeSpec struct {
	Name    string
	CPUs    int
	Volumes []VolumeSpec
}

// Config describes a whole simulated network.
type Config struct {
	Nodes []NodeSpec
	// Links are point-to-point communication lines between node names. If
	// empty and there are multiple nodes, a line topology is created.
	Links [][2]string
	// NetLatency is the per-hop propagation delay (0 = synchronous).
	NetLatency time.Duration
	// AuditForceDelay simulates the audit-trail write-force latency.
	AuditForceDelay time.Duration
	// MonitorForceDelay simulates the commit-record force latency.
	MonitorForceDelay time.Duration
	// DiscWorkers bounds each DISCPROCESS's conflict-aware worker pool:
	// non-conflicting operations on a volume run concurrently up to this
	// depth. 0 = discproc.DefaultDiscWorkers (the default); 1 = the
	// single-threaded seed behaviour, kept for ablation.
	DiscWorkers int
	// TraceCapacity enables per-transaction lifecycle tracing on every
	// node, retaining up to this many distinct transaction traces each
	// (obs.DefaultTraceCapacity when negative; 0 disables tracing). The
	// node's tracer is shared between its TMF monitor and DISCPROCESSes
	// and is exposed via Node.TMF.Tracer().
	TraceCapacity int
	// LinkFault, when non-zero, applies the same fault profile (loss,
	// duplication, reorder, corruption, jitter) to every link, switching
	// EXPAND into its reliable-session mode. Per-link profiles can still
	// be set afterwards via Network.SetLinkFault.
	LinkFault expand.FaultProfile
	// CommitProtocol selects the disposition protocol for distributed
	// transactions on every node: tmf.ProtoAbbreviated (default — the
	// paper's abbreviated 2PC) or tmf.ProtoPaxos (Paxos Commit over three
	// acceptors per home node, non-blocking under one failure). Must be
	// uniform across the cluster.
	CommitProtocol string
}

// Volume bundles the running pieces serving one disc volume.
type Volume struct {
	Spec  VolumeSpec
	Disk  *disk.Volume
	Proc  *discproc.Proc
	Trail *audit.Trail
}

// Node is one running ENCOMPASS node.
type Node struct {
	Name string
	HW   *hw.Node
	Msg  *msg.System
	TMF  *tmf.Monitor
	FS   *fsys.FS

	Volumes map[string]*Volume

	// What Build gave the node; every start runs from these.
	spec   NodeSpec
	cfg    Config
	reg    *obs.Registry
	tracer *obs.Tracer
	netw   *expand.Network

	beginCPU atomic.Uint64
}

// System is the running simulation: all nodes plus the network.
type System struct {
	Network *expand.Network
	// NetObs mirrors the network's frame-level counters (retransmits,
	// dups dropped, frames lost, ...) as an obs registry for tmfctl.
	NetObs *obs.Registry
	nodes  map[string]*Node
	order  []string
}

// Build assembles and starts the configured system.
func Build(cfg Config) (*System, error) {
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("encompass: no nodes configured")
	}
	s := &System{
		Network: expand.NewNetwork(cfg.NetLatency),
		NetObs:  obs.NewRegistry(),
		nodes:   make(map[string]*Node),
	}
	s.Network.SetObs(s.NetObs)
	for _, ns := range cfg.Nodes {
		n, err := buildNode(s.Network, ns, cfg)
		if err != nil {
			return nil, fmt.Errorf("encompass: node %s: %w", ns.Name, err)
		}
		s.nodes[ns.Name] = n
		s.order = append(s.order, ns.Name)
	}
	links := cfg.Links
	if len(links) == 0 {
		for i := 0; i+1 < len(s.order); i++ {
			links = append(links, [2]string{s.order[i], s.order[i+1]})
		}
	}
	for _, l := range links {
		if err := s.Network.AddLink(l[0], l[1]); err != nil {
			return nil, err
		}
	}
	if cfg.LinkFault.Faulty() {
		s.Network.SetFaultAll(cfg.LinkFault)
	}
	return s, nil
}

// buildNode creates the node's hardware and what of it is durable — the
// disc volumes and the audit trails — then starts its software.
func buildNode(net *expand.Network, ns NodeSpec, cfg Config) (*Node, error) {
	if ns.CPUs == 0 {
		ns.CPUs = 4
	}
	hwNode, err := hw.NewNode(ns.Name, ns.CPUs)
	if err != nil {
		return nil, err
	}
	// One registry and (optionally) one tracer per node, shared by the TMF
	// monitor, the audit trails and the DISCPROCESSes, so a transaction's
	// trace interleaves all three and metrics land in one place.
	n := &Node{
		Name:    ns.Name,
		HW:      hwNode,
		Msg:     msg.NewSystem(hwNode),
		Volumes: make(map[string]*Volume),
		spec:    ns,
		cfg:     cfg,
		reg:     obs.NewRegistry(),
		netw:    net,
	}
	if cfg.TraceCapacity != 0 {
		n.tracer = obs.NewTracer(cfg.TraceCapacity)
	}
	n.Msg.SetObs(n.reg.Counter(obs.MMsgInboxFullDrops))
	net.Attach(n.Msg)

	// One trail per audit group.
	trails := make(map[string]*audit.Trail)
	for _, vs := range ns.Volumes {
		v := &Volume{Spec: vs, Disk: disk.NewVolume(vs.Name)}
		if vs.Audited {
			group := vs.AuditGroup
			if group == "" {
				group = vs.Name
			}
			if trails[group] == nil {
				trails[group] = audit.NewTrail("audit-"+group, cfg.AuditForceDelay)
				trails[group].SetObs(n.reg)
			}
			v.Trail = trails[group]
		}
		n.Volumes[vs.Name] = v
	}
	return n, n.start(nil)
}

// start brings the node's software up over whatever its discs, its trails
// and its previous monitor hold: nothing on a new node, the durable state
// after total node failure. TMF starts first, over the Monitor Audit Trail
// and decision logs of the halted monitor if there was one, so that repair
// (ROLLFORWARD, on a restart) can negotiate dispositions with remote TMPs;
// then one AUDITPROCESS per trail and one DISCPROCESS per volume, in
// configuration order, each loading its file structures from its volume;
// then the File System client, keeping the catalog and the settings of the
// one it replaces. Everything else is rebuilt from what Build was given.
func (n *Node) start(repair func(*tmf.Monitor) error) error {
	cpus := n.HW.NumCPUs()
	mon, err := tmf.New(tmf.Config{
		System:                 n.Msg,
		Network:                n.netw,
		MonitorTrailForceDelay: n.cfg.MonitorForceDelay,
		Previous:               n.TMF,
		TMPPrimaryCPU:          0,
		TMPBackupCPU:           1 % cpus,
		Registry:               n.reg,
		Tracer:                 n.tracer,
		CommitProtocol:         n.cfg.CommitProtocol,
	})
	if err != nil {
		return err
	}
	n.TMF = mon
	if repair != nil {
		if err := repair(mon); err != nil {
			return err
		}
	}

	started := make(map[*audit.Trail]bool)
	for i, vs := range n.spec.Volumes {
		v := n.Volumes[vs.Name]
		pcpu, bcpu := i%cpus, (i+1)%cpus
		var cl *audit.Client
		auditName := ""
		if v.Trail != nil {
			auditName = v.Trail.Name()
			if !started[v.Trail] {
				started[v.Trail] = true
				if _, err := audit.StartProcess(n.Msg, auditName, pcpu, bcpu, v.Trail); err != nil {
					return err
				}
			}
			cl = audit.NewClient(n.Msg, auditName)
		}
		discName := "disc-" + vs.Name
		v.Proc, err = discproc.Start(n.Msg, discName, pcpu, bcpu, discproc.Config{
			Volume:           v.Disk,
			Audit:            cl,
			OnParticipate:    mon.RegisterLocalVolume,
			CacheSize:        vs.CacheSize,
			MissPenalty:      vs.MissPenalty,
			ForceEveryUpdate: vs.ForceEveryUpdate,
			Obs:              n.tracer,
			DiscWorkers:      n.cfg.DiscWorkers,
			Registry:         n.reg,
		})
		if err != nil {
			return err
		}
		mon.AddVolume(tmf.VolumeInfo{Name: vs.Name, DiscName: discName, AuditName: auditName})
		_, err = n.Msg.CallTimeout(pcpu, msg.Addr{Name: discName}, discproc.KindReload, nil, 10*time.Second)
		if err != nil {
			return fmt.Errorf("encompass: reload %s: %w", vs.Name, err)
		}
	}

	fs := fsys.New(n.Msg, mon)
	if old := n.FS; old != nil {
		fs.CallCPU, fs.Timeout, fs.LockTimeout = old.CallCPU, old.Timeout, old.LockTimeout
		for _, fi := range old.Files() {
			if err := fs.Define(fi); err != nil {
				return err
			}
		}
	}
	n.FS = fs
	return nil
}

// halt stops the node's software, all of it: its hardware and network
// listeners are detached, then every processor fails, cancelling every
// process on it. Detached first, nothing takes the node's failure for one
// processor's (aborting, late, over the next incarnation's work), wakes
// when the processors come back or keeps the software reachable.
func (n *Node) halt() {
	n.HW.Unwatch()
	n.netw.UnwatchTopology(n.Name)
	for _, cpu := range n.HW.UpCPUs() {
		n.HW.FailCPU(cpu)
	}
}

// Node returns a node by name, or nil.
func (s *System) Node(name string) *Node { return s.nodes[name] }

// Nodes returns all nodes in configuration order.
func (s *System) Nodes() []*Node {
	out := make([]*Node, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.nodes[name])
	}
	return out
}

// Partition severs the given nodes from the rest of the network.
func (s *System) Partition(group ...string) { s.Network.Partition(group...) }

// Heal restores all failed links.
func (s *System) Heal() { s.Network.HealAll() }

// Stop halts every node. The simulation's goroutines are owned by CPU
// contexts and exit once their processors have failed; the monitor's own
// (owners of undelivered outcomes, in-doubt watchers) end with its Stop.
func (s *System) Stop() {
	for _, n := range s.nodes {
		n.halt()
		n.TMF.Stop()
	}
}

// CreateFileEverywhere defines a file in every node's catalog and creates
// its partitions once. Applications on any node can then access it.
func (s *System) CreateFileEverywhere(fi fsys.FileInfo) error {
	first := true
	for _, name := range s.order {
		n := s.nodes[name]
		var err error
		if first {
			err = n.FS.Create(fi)
			first = false
		} else {
			err = n.FS.Define(fi)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Re-exported catalog types, so applications need only this package.
type (
	// Organization selects a file structure (key-sequenced, relative,
	// entry-sequenced).
	Organization = dbfile.Organization
	// AltKeyDef describes an alternate key field.
	AltKeyDef = dbfile.AltKeyDef
	// Rec is a key/value record returned by scans.
	Rec = dbfile.Rec
	// FileInfo is a catalog entry with its partitions.
	FileInfo = fsys.FileInfo
	// Partition maps a key range to a volume.
	Partition = fsys.Partition
)

// Re-exported file organizations.
const (
	KeySequenced   = dbfile.KeySequenced
	Relative       = dbfile.Relative
	EntrySequenced = dbfile.EntrySequenced
)

// LocalFile builds a single-partition FileInfo for a file living wholly on
// one volume of one node.
func LocalFile(name string, org Organization, node, volume string, altKeys ...AltKeyDef) FileInfo {
	return FileInfo{
		Name:    name,
		Org:     org,
		AltKeys: altKeys,
		Partitions: []Partition{{
			LowKey: "", Node: node, Volume: volume, Disc: "disc-" + volume,
		}},
	}
}

// PartitionedFile builds a FileInfo spread across volumes by key range:
// parts[i] = {lowKey, node, volume}. The first lowKey must be "".
func PartitionedFile(name string, org Organization, parts [][3]string, altKeys ...AltKeyDef) FileInfo {
	fi := FileInfo{Name: name, Org: org, AltKeys: altKeys}
	for _, p := range parts {
		fi.Partitions = append(fi.Partitions, Partition{
			LowKey: p[0], Node: p[1], Volume: p[2], Disc: "disc-" + p[2],
		})
	}
	return fi
}

// Begin starts a transaction homed on this node. The BEGIN-TRANSACTION
// processor rotates across the node's up CPUs.
func (n *Node) Begin() (*Tx, error) {
	cpu, ok := n.HW.NthUpCPU(n.beginCPU.Add(1))
	if !ok {
		return nil, fmt.Errorf("encompass: node %s has no up CPUs", n.Name)
	}
	id, err := n.TMF.Begin(cpu)
	if err != nil {
		return nil, err
	}
	return &Tx{node: n, ID: id}, nil
}

// Tx is a live transaction handle bound to its home node.
type Tx struct {
	node *Node
	ID   txid.ID
}

// Read fetches a record without locking. The value is shared, as
// FS.Read's is: the caller must not modify it.
func (t *Tx) Read(file, key string) ([]byte, error) { return t.node.FS.Read(file, key) }

// ReadLock fetches a record and takes its lock for this transaction. The
// value is shared, as FS.Read's is: the caller must not modify it.
func (t *Tx) ReadLock(file, key string) ([]byte, error) {
	return t.node.FS.ReadLock(t.ID, file, key)
}

// Insert adds a record (automatically locked).
func (t *Tx) Insert(file, key string, val []byte) error {
	return t.node.FS.Insert(t.ID, file, key, val)
}

// Update replaces a record previously locked by this transaction.
func (t *Tx) Update(file, key string, val []byte) error {
	return t.node.FS.Update(t.ID, file, key, val)
}

// Delete removes a record previously locked by this transaction.
func (t *Tx) Delete(file, key string) error { return t.node.FS.Delete(t.ID, file, key) }

// Append adds a record to an entry-sequenced file.
func (t *Tx) Append(file string, val []byte) (string, error) {
	return t.node.FS.Append(t.ID, file, val)
}

// LockFile takes a file-granularity lock.
func (t *Tx) LockFile(file string) error { return t.node.FS.LockFile(t.ID, file) }

// Commit runs END-TRANSACTION: the two-phase commit protocol. It returns at
// the commit point; child nodes release the transaction's locks when the
// phase-two safe-delivery reaches them (Node.TMF.WaitSafeQueueEmpty waits
// for that).
func (t *Tx) Commit() error { return t.node.TMF.End(t.ID) }

// Abort runs ABORT-TRANSACTION: back out all updates.
func (t *Tx) Abort(reason string) error { return t.node.TMF.Abort(t.ID, reason) }

// State reports the transaction's current state on its home node.
func (t *Tx) State() txid.State { return t.node.TMF.State(t.ID) }

// Restartable is the paper's RESTART-TRANSACTION rule: a transaction that
// failed with err restarts at BEGIN-TRANSACTION when a lock wait timed out
// (deadlock) or was cancelled by TMF's abort, when it was aborted or had
// ended on a volume, or when a call of it timed out. It decides by
// identity, so another node's answer counts too.
func Restartable(err error) bool {
	return errors.Is(err, lock.ErrTimeout) || errors.Is(err, lock.ErrReleased) || errors.Is(err, tmf.ErrAborted) ||
		errors.Is(err, discproc.ErrTxEnded) || errors.Is(err, msg.ErrCallTimeout)
}
