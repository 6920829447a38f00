// Package expand simulates the GUARDIAN/EXPAND network that connects Tandem
// nodes: decentralized control (no network master), dynamic best-path
// routing with automatic re-routing on line failure, and an end-to-end
// protocol that either delivers a message or tells the sender the
// destination is unreachable.
//
// A message crossing a node boundary travels as one frame in msg's flat
// wire format (msg.Marshal): a fixed header, a payload tag and the
// payload's own encoding, with no state carried from frame to frame. The
// destination decodes its own copy, which enforces value semantics between
// nodes: two simulated "geographically distributed" systems can never
// share memory by accident.
//
// Routes are computed once per topology epoch: the network caches the best
// path between each pair of nodes until a node is attached or a line is
// added, fails or heals.
package expand

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"encompass/internal/msg"
	"encompass/internal/obs"
)

// Errors reported by the network.
var (
	ErrUnknownNode = errors.New("expand: unknown node")
	ErrNoPath      = errors.New("expand: no path to node")
	ErrLinkExists  = errors.New("expand: link already exists")
)

type linkKey struct{ a, b string }

func mkLinkKey(a, b string) linkKey {
	if a > b {
		a, b = b, a
	}
	return linkKey{a, b}
}

type link struct {
	up bool
}

// Stats captures network traffic counters.
type Stats struct {
	Frames uint64 // frames delivered
	Bytes  uint64 // encoded bytes delivered
	NoPath uint64 // sends rejected for unreachability

	// Unreliable-mode counters (all zero while every line is clean).
	Retransmits    uint64 // session-layer frame retransmissions
	DupsDropped    uint64 // duplicate frames suppressed by the dedup window
	FramesLost     uint64 // frames dropped by injected line loss
	CorruptFrames  uint64 // frames rejected by the checksum
	LinkDownDrops  uint64 // in-flight frames lost because the line failed
	DecodeFailures uint64 // delivered frames that would not decode
	GiveUps        uint64 // frames abandoned after bounded retransmission
}

// Network is a collection of nodes joined by point-to-point communication
// lines. It implements msg.RemoteSender for every attached node.
type Network struct {
	latency time.Duration // per-hop propagation delay; zero = synchronous

	mu       sync.Mutex
	systems  map[string]*msg.System
	links    map[linkKey]*link
	faults   map[linkKey]*linkFault
	watchers []topoWatcher
	// routes caches the current topology epoch's best paths, by (src,
	// dst); newEpoch empties it whenever a node or line changes.
	routes map[routeKey]cachedRoute

	// unreliable flips on when any line has a fault profile; all traffic
	// then rides the reliable-session layer (fault.go).
	unreliable atomic.Bool
	sessMu     sync.Mutex
	sessions   map[sessKey]*session

	frames         atomic.Uint64
	bytes          atomic.Uint64
	noPath         atomic.Uint64
	retransmits    atomic.Uint64
	dupsDropped    atomic.Uint64
	framesLost     atomic.Uint64
	corruptFrames  atomic.Uint64
	linkDownDrops  atomic.Uint64
	decodeFailures atomic.Uint64
	giveUps        atomic.Uint64

	// Optional obs mirrors of the unreliable-mode counters (nil-safe).
	cRetransmits, cDupsDropped, cFramesLost, cCorruptFrames *obs.Counter
	cLinkDownDrops, cDecodeFailures, cGiveUps               *obs.Counter
}

// NewNetwork creates an empty network. latency is the simulated per-hop
// propagation delay; zero delivers synchronously.
func NewNetwork(latency time.Duration) *Network {
	return &Network{
		latency:  latency,
		systems:  make(map[string]*msg.System),
		links:    make(map[linkKey]*link),
		faults:   make(map[linkKey]*linkFault),
		routes:   make(map[routeKey]cachedRoute),
		sessions: make(map[sessKey]*session),
	}
}

// SetObs mirrors the network's fault and session counters into a metrics
// registry (under the obs.MNet* names) so tmfctl and tmfbench can report
// them alongside TMF's own counters.
func (n *Network) SetObs(reg *obs.Registry) {
	n.cRetransmits = reg.Counter(obs.MNetRetransmits)
	n.cDupsDropped = reg.Counter(obs.MNetDupsDropped)
	n.cFramesLost = reg.Counter(obs.MNetFramesLost)
	n.cCorruptFrames = reg.Counter(obs.MNetCorruptFrames)
	n.cLinkDownDrops = reg.Counter(obs.MNetLinkDownDrops)
	n.cDecodeFailures = reg.Counter(obs.MNetDecodeFailures)
	n.cGiveUps = reg.Counter(obs.MNetGiveUps)
}

// bump increments an internal counter and its obs mirror.
func (n *Network) bump(a *atomic.Uint64, c *obs.Counter) {
	a.Add(1)
	c.Inc()
}

// Attach joins a node's message system to the network and installs the
// network as that node's remote sender.
func (n *Network) Attach(sys *msg.System) {
	name := sys.Node().Name()
	n.mu.Lock()
	n.systems[name] = sys
	n.newEpoch()
	n.mu.Unlock()
	sys.AttachNetwork(&nodePort{net: n, from: name})
}

// nodePort binds a source node name to the network so that SendRemote knows
// where frames originate.
type nodePort struct {
	net  *Network
	from string
}

func (p *nodePort) SendRemote(dest string, m msg.Message) error {
	return p.net.send(p.from, dest, m)
}

// AddLink creates a communication line between two attached nodes.
func (n *Network) AddLink(a, b string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.systems[a]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, a)
	}
	if _, ok := n.systems[b]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownNode, b)
	}
	k := mkLinkKey(a, b)
	if _, ok := n.links[k]; ok {
		return fmt.Errorf("%w: %s-%s", ErrLinkExists, a, b)
	}
	n.links[k] = &link{up: true}
	n.newEpoch()
	return nil
}

// FailLink takes a communication line down; traffic re-routes over
// remaining paths if any exist.
func (n *Network) FailLink(a, b string) { n.setLink(a, b, false) }

// HealLink restores a failed communication line.
func (n *Network) HealLink(a, b string) { n.setLink(a, b, true) }

func (n *Network) setLink(a, b string, up bool) {
	n.mu.Lock()
	l, ok := n.links[mkLinkKey(a, b)]
	changed := ok && l.up != up
	if changed {
		l.up = up
		n.newEpoch()
	}
	n.mu.Unlock()
	if changed {
		n.notifyTopology()
	}
}

// Partition fails every link between the given group of nodes and the rest
// of the network, producing a network partition.
func (n *Network) Partition(group ...string) {
	in := make(map[string]bool, len(group))
	for _, g := range group {
		in[g] = true
	}
	n.mu.Lock()
	changed := false
	for k, l := range n.links {
		if in[k.a] != in[k.b] && l.up {
			l.up = false
			changed = true
		}
	}
	if changed {
		n.newEpoch()
	}
	n.mu.Unlock()
	if changed {
		n.notifyTopology()
	}
}

// HealAll restores every failed link.
func (n *Network) HealAll() {
	n.mu.Lock()
	changed := false
	for _, l := range n.links {
		if !l.up {
			l.up = true
			changed = true
		}
	}
	if changed {
		n.newEpoch()
	}
	n.mu.Unlock()
	if changed {
		n.notifyTopology()
	}
}

// topoWatcher is one topology callback and the node whose software
// registered it.
type topoWatcher struct {
	node string
	fn   func()
}

// WatchTopology registers a callback, on behalf of the named node, invoked
// whenever link state changes. Callbacks run synchronously with the change;
// they should be quick and may query Reachable.
func (n *Network) WatchTopology(node string, fn func()) {
	n.mu.Lock()
	n.watchers = append(n.watchers, topoWatcher{node, fn})
	n.mu.Unlock()
}

// UnwatchTopology drops the callbacks registered on behalf of the named
// node: its software halted and must not hear of topology changes again.
func (n *Network) UnwatchTopology(node string) {
	n.mu.Lock()
	n.watchers = slices.DeleteFunc(n.watchers, func(w topoWatcher) bool { return w.node == node })
	n.mu.Unlock()
}

func (n *Network) notifyTopology() {
	n.mu.Lock()
	ws := slices.Clone(n.watchers)
	n.mu.Unlock()
	for _, w := range ws {
		w.fn()
	}
	// Wake the reliable sessions: frames queued for retransmission should
	// cross a healed line immediately rather than waiting out the backoff.
	n.kickSessions()
}

// Nodes returns the names of all attached nodes, sorted.
func (n *Network) Nodes() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var names []string
	for name := range n.systems {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Reachable reports whether a path of up links exists between two nodes.
func (n *Network) Reachable(a, b string) bool {
	_, err := n.route(a, b)
	return err == nil
}

// Hops returns the hop count of the current best path, or an error if the
// destination is unreachable.
func (n *Network) Hops(a, b string) (int, error) { return n.route(a, b) }

// route returns the hop count of the current best path.
func (n *Network) route(src, dst string) (hops int, err error) {
	path, err := n.pathLinks(src, dst)
	if err != nil {
		return 0, err
	}
	return len(path), nil
}

type routeKey struct{ src, dst string }

// cachedRoute is one pathLinks answer, kept for the epoch it was computed
// in.
type cachedRoute struct {
	path []linkKey
	err  error
}

// newEpoch starts a new topology epoch, dropping every cached route. The
// caller holds mu and has just changed a node or a line.
func (n *Network) newEpoch() { clear(n.routes) }

// pathLinks returns the lines of the current best path src→dst, in order,
// so the fault injector can apply each line's profile to a frame crossing
// it. The answer comes from the epoch's route cache, computed on first
// use; callers must not modify the returned slice.
func (n *Network) pathLinks(src, dst string) ([]linkKey, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	k := routeKey{src, dst}
	r, ok := n.routes[k]
	if !ok {
		r.path, r.err = n.bestPath(src, dst)
		n.routes[k] = r
	}
	return r.path, r.err
}

// bestPath runs a BFS over up links. Cheap at the scale of the paper's
// networks (the corporate net was ~50 nodes), and run once per pair and
// epoch. The caller holds mu.
func (n *Network) bestPath(src, dst string) ([]linkKey, error) {
	if _, ok := n.systems[src]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, src)
	}
	if _, ok := n.systems[dst]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, dst)
	}
	if src == dst {
		return nil, nil
	}
	// Build the adjacency from links in sorted order: BFS visits neighbours
	// in insertion order, so map-order insertion would make the chosen
	// best path (among equal-length ones) differ run to run.
	ups := make([]linkKey, 0, len(n.links))
	for k, l := range n.links {
		if l.up {
			ups = append(ups, k)
		}
	}
	sort.Slice(ups, func(i, j int) bool {
		if ups[i].a != ups[j].a {
			return ups[i].a < ups[j].a
		}
		return ups[i].b < ups[j].b
	})
	adj := make(map[string][]string)
	for _, k := range ups {
		adj[k.a] = append(adj[k.a], k.b)
		adj[k.b] = append(adj[k.b], k.a)
	}
	prev := map[string]string{src: src}
	queue := []string{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst {
			var path []linkKey
			for at := dst; at != src; at = prev[at] {
				path = append(path, mkLinkKey(at, prev[at]))
			}
			// Reverse into src→dst order.
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			return path, nil
		}
		for _, nb := range adj[cur] {
			if _, seen := prev[nb]; !seen {
				prev[nb] = cur
				queue = append(queue, nb)
			}
		}
	}
	return nil, fmt.Errorf("%w: %s from %s", ErrNoPath, dst, src)
}

// send implements the end-to-end protocol: it either commits to delivering
// the frame (returning nil) or reports unreachability synchronously. In
// unreliable mode the commitment is backed by the reliable-session layer;
// on clean lines the frame is delivered directly.
func (n *Network) send(from, to string, m msg.Message) error {
	hops, err := n.route(from, to)
	if err != nil {
		if errors.Is(err, ErrNoPath) {
			n.noPath.Add(1)
		}
		return err
	}
	frame, err := msg.Marshal(m)
	if err != nil {
		return fmt.Errorf("expand: encoding %s payload for %s: %w", m.Kind, to, err)
	}
	if n.unreliable.Load() {
		n.sendSession(from, to, frame)
		return nil
	}
	deliver := func() {
		// Re-check the line at delivery time: a frame in flight over a
		// line that failed after the send is lost, not delivered over a
		// dead line. The sender's timeout covers it.
		if _, err := n.route(from, to); err != nil {
			n.bump(&n.linkDownDrops, n.cLinkDownDrops)
			return
		}
		n.deliverPayload(to, frame)
	}
	if n.latency <= 0 {
		deliver()
		return nil
	}
	time.AfterFunc(time.Duration(hops)*n.latency, deliver)
	return nil
}

// deliverPayload decodes a frame and injects it into the destination node.
// An undecodable frame is counted and dropped, never a crash: on a real
// network a mangled frame that survived the checksum is still just a bad
// frame.
func (n *Network) deliverPayload(to string, frame []byte) {
	n.mu.Lock()
	dest := n.systems[to]
	n.mu.Unlock()
	if dest == nil {
		return
	}
	dm, err := msg.Unmarshal(frame)
	if err != nil {
		n.bump(&n.decodeFailures, n.cDecodeFailures)
		return
	}
	n.frames.Add(1)
	n.bytes.Add(uint64(len(frame)))
	_ = dest.DeliverFromNetwork(dm)
}

// Stats returns cumulative traffic counters.
func (n *Network) Stats() Stats {
	return Stats{
		Frames:         n.frames.Load(),
		Bytes:          n.bytes.Load(),
		NoPath:         n.noPath.Load(),
		Retransmits:    n.retransmits.Load(),
		DupsDropped:    n.dupsDropped.Load(),
		FramesLost:     n.framesLost.Load(),
		CorruptFrames:  n.corruptFrames.Load(),
		LinkDownDrops:  n.linkDownDrops.Load(),
		DecodeFailures: n.decodeFailures.Load(),
		GiveUps:        n.giveUps.Load(),
	}
}
