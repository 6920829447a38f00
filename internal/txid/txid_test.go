package txid

import "testing"

func TestString(t *testing.T) {
	id := ID{Home: "cupertino", CPU: 3, Seq: 42}
	if got := id.String(); got != `\cupertino(3).42` {
		t.Errorf("String = %q", got)
	}
}

// TestStringAllocatesOnce: String runs once per BEGIN; it builds the
// transid in a stack buffer and allocates only the string.
func TestStringAllocatesOnce(t *testing.T) {
	id := ID{Home: "cupertino", CPU: 3, Seq: 1<<32 + 42}
	if n := testing.AllocsPerRun(100, func() { _ = id.String() }); n != 1 {
		t.Errorf("String = %v allocs, want 1", n)
	}
}

func TestIsZero(t *testing.T) {
	if !(ID{}).IsZero() {
		t.Error("zero ID should report IsZero")
	}
	if (ID{Home: "a"}).IsZero() {
		t.Error("non-zero ID should not report IsZero")
	}
}

func TestTransitionsMatchFigure3(t *testing.T) {
	type tr struct {
		from, to State
		ok       bool
	}
	cases := []tr{
		{StateNone, StateActive, true},
		{StateNone, StateEnding, false},
		{StateActive, StateEnding, true},
		{StateActive, StateAborting, true},
		{StateActive, StateEnded, false},
		{StateActive, StateAborted, false},
		{StateEnding, StateEnded, true},
		{StateEnding, StateAborting, true},
		{StateEnding, StateActive, false},
		{StateAborting, StateAborted, true},
		{StateAborting, StateEnded, false},
		{StateAborting, StateEnding, false},
		{StateEnded, StateAborting, false},
		{StateEnded, StateActive, false},
		{StateAborted, StateActive, false},
		{StateAborted, StateEnded, false},
	}
	for _, c := range cases {
		if got := c.from.CanTransition(c.to); got != c.ok {
			t.Errorf("CanTransition(%v → %v) = %v, want %v", c.from, c.to, got, c.ok)
		}
	}
}

func TestTerminal(t *testing.T) {
	for _, s := range []State{StateEnded, StateAborted} {
		if !s.Terminal() {
			t.Errorf("%v should be terminal", s)
		}
	}
	for _, s := range []State{StateNone, StateActive, StateEnding, StateAborting} {
		if s.Terminal() {
			t.Errorf("%v should not be terminal", s)
		}
	}
}

func TestStateStrings(t *testing.T) {
	want := map[State]string{
		StateNone:     "none",
		StateActive:   "active",
		StateEnding:   "ending",
		StateEnded:    "ended",
		StateAborting: "aborting",
		StateAborted:  "aborted",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), w)
		}
	}
}
