//go:build !race

package expand

import "testing"

// TestWarmRouteAllocatesNothing: once a topology epoch's route is cached,
// routing a frame allocates nothing. Like msg's TestHeaderOnlyFrameAllocs,
// the count is an input to the per-transaction cost table ROADMAP [cost]
// plans.
func TestWarmRouteAllocatesNothing(t *testing.T) {
	net, _ := newNet(t, "a", "b", "c")
	net.AddLink("a", "b")
	net.AddLink("b", "c")
	if hops, err := net.route("a", "c"); err != nil || hops != 2 {
		t.Fatalf("route = %d, %v; want 2, nil", hops, err)
	}
	if n := testing.AllocsPerRun(1000, func() {
		if _, err := net.route("a", "c"); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm route: %v allocs, want 0", n)
	}
}
