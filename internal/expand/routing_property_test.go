package expand

import (
	"fmt"
	"testing"
	"testing/quick"

	"encompass/internal/hw"
	"encompass/internal/msg"
)

// buildRandomTopology attaches n nodes and adds the links selected by the
// bit mask over all node pairs.
func buildRandomTopology(t *testing.T, n int, linkMask uint64) *Network {
	t.Helper()
	net := NewNetwork(0)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("n%d", i)
		node, err := hw.NewNode(names[i], 2)
		if err != nil {
			t.Fatal(err)
		}
		net.Attach(msg.NewSystem(node))
	}
	bit := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if linkMask&(1<<bit) != 0 {
				net.AddLink(names[i], names[j])
			}
			bit++
		}
	}
	return net
}

// Properties of the routing layer over random topologies:
//   - reachability is symmetric and reflexive;
//   - hop counts are symmetric;
//   - reachability is transitive (a path to b and b to c implies a to c);
//   - hop counts obey the triangle inequality.
func TestRoutingPropertiesQuick(t *testing.T) {
	const n = 5
	prop := func(linkMask uint64) bool {
		net := buildRandomTopology(t, n, linkMask)
		name := func(i int) string { return fmt.Sprintf("n%d", i) }
		for i := 0; i < n; i++ {
			if !net.Reachable(name(i), name(i)) {
				return false
			}
			for j := 0; j < n; j++ {
				rij := net.Reachable(name(i), name(j))
				rji := net.Reachable(name(j), name(i))
				if rij != rji {
					return false
				}
				if rij {
					hij, _ := net.Hops(name(i), name(j))
					hji, _ := net.Hops(name(j), name(i))
					if hij != hji {
						return false
					}
					for k := 0; k < n; k++ {
						if net.Reachable(name(j), name(k)) {
							if !net.Reachable(name(i), name(k)) {
								return false
							}
							hjk, _ := net.Hops(name(j), name(k))
							hik, _ := net.Hops(name(i), name(k))
							if hik > hij+hjk {
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Property: failing any single link of a cycle leaves every pair
// reachable (the redundancy Figure 1 claims for communication paths).
func TestRingSurvivesAnySingleLinkFailure(t *testing.T) {
	const n = 6
	net := NewNetwork(0)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i)
		node, _ := hw.NewNode(names[i], 2)
		net.Attach(msg.NewSystem(node))
	}
	for i := range names {
		net.AddLink(names[i], names[(i+1)%n])
	}
	for i := range names {
		a, b := names[i], names[(i+1)%n]
		net.FailLink(a, b)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				if !net.Reachable(names[x], names[y]) {
					t.Fatalf("link %s-%s down: %s cannot reach %s", a, b, names[x], names[y])
				}
			}
		}
		net.HealLink(a, b)
	}
}

// Property: the route cache never answers from a stale epoch. After any
// sequence of line failures, heals, partitions and new lines, with routes
// queried between the steps, every cached path is the path a fresh BFS
// finds (same lines, same sorted tie-breaking), and every cached error
// the error it reports.
func TestRouteCacheMatchesFreshSearch(t *testing.T) {
	const n = 5
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	prop := func(linkMask uint64, steps []uint16) bool {
		net := buildRandomTopology(t, n, linkMask)
		for _, s := range steps {
			a, b := name(int(s)%n), name(int(s>>3)%n)
			switch (s >> 6) % 5 {
			case 0:
				net.FailLink(a, b)
			case 1:
				net.HealLink(a, b)
			case 2:
				net.Partition(a)
			case 3:
				net.HealAll()
			case 4:
				net.AddLink(a, b)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					cached, cerr := net.pathLinks(name(i), name(j))
					net.mu.Lock()
					fresh, ferr := net.bestPath(name(i), name(j))
					net.mu.Unlock()
					if fmt.Sprint(cached, cerr) != fmt.Sprint(fresh, ferr) {
						t.Logf("%s→%s: cached %v %v, fresh %v %v", name(i), name(j), cached, cerr, fresh, ferr)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
