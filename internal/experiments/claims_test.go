package experiments

import (
	"fmt"
	"testing"
	"time"

	"encompass/internal/txid"
)

// These tests pin the pure claim-classification logic — the pass/fail
// formulas behind each experiment's Report.Pass — at their boundaries,
// independent of the timing-noisy experiment runs that experiments_test.go
// exercises end to end.

func TestClassifyTransitions(t *testing.T) {
	type tr = [2]txid.State
	cases := []struct {
		name      string
		counts    map[tr]int
		wantLegal int
		illegal   []tr
	}{
		{
			name:      "empty",
			counts:    nil,
			wantLegal: 0,
		},
		{
			name: "commit path",
			counts: map[tr]int{
				{txid.StateNone, txid.StateActive}:   5,
				{txid.StateActive, txid.StateEnding}: 5,
				{txid.StateEnding, txid.StateEnded}:  5,
			},
			wantLegal: 15,
		},
		{
			name: "abort paths",
			counts: map[tr]int{
				{txid.StateNone, txid.StateActive}:      4,
				{txid.StateActive, txid.StateAborting}:  2,
				{txid.StateEnding, txid.StateAborting}:  1,
				{txid.StateAborting, txid.StateAborted}: 3,
			},
			wantLegal: 10,
		},
		{
			name: "illegal ended to aborting",
			counts: map[tr]int{
				{txid.StateNone, txid.StateActive}:    1,
				{txid.StateEnded, txid.StateAborting}: 1,
			},
			wantLegal: 1,
			illegal:   []tr{{txid.StateEnded, txid.StateAborting}},
		},
		{
			name: "multiple illegal, sorted",
			counts: map[tr]int{
				{txid.StateEnded, txid.StateActive}:   2,
				{txid.StateAborted, txid.StateActive}: 1,
				{txid.StateNone, txid.StateEnded}:     1,
			},
			wantLegal: 0,
			illegal: []tr{
				{txid.StateNone, txid.StateEnded},
				{txid.StateEnded, txid.StateActive},
				{txid.StateAborted, txid.StateActive},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rows, illegal, seenLegal := classifyTransitions(c.counts)
			if seenLegal != c.wantLegal {
				t.Errorf("seenLegal = %d, want %d", seenLegal, c.wantLegal)
			}
			if len(illegal) != len(c.illegal) {
				t.Fatalf("illegal = %v, want %v", illegal, c.illegal)
			}
			for i := range illegal {
				if illegal[i] != c.illegal[i] {
					t.Errorf("illegal[%d] = %v, want %v", i, illegal[i], c.illegal[i])
				}
			}
			// The six legal transitions always get a row, in figure order;
			// illegal rows follow flagged NO.
			if len(rows) != 6+len(c.illegal) {
				t.Fatalf("got %d rows, want %d", len(rows), 6+len(c.illegal))
			}
			for i, row := range rows {
				want := "yes"
				if i >= 6 {
					want = "NO"
				}
				if row[2] != want {
					t.Errorf("row %d (%s) flagged %q, want %q", i, row[0], row[2], want)
				}
			}
			if rows[0][0] != fmt.Sprintf("%s → %s", txid.StateNone, txid.StateActive) {
				t.Errorf("first row is %q, want the none → active transition", rows[0][0])
			}
		})
	}
}

func TestForceAblationVerdict(t *testing.T) {
	cases := []struct {
		name                  string
		ok                    bool
		walForces, ckForces   uint64
		walElapsed, ckElapsed time.Duration
		want                  bool
	}{
		{"checkpoint wins both", true, 240, 30, 80 * time.Millisecond, 20 * time.Millisecond, true},
		{"run errors", false, 240, 30, 80 * time.Millisecond, 20 * time.Millisecond, false},
		{"force tie fails", true, 30, 30, 80 * time.Millisecond, 20 * time.Millisecond, false},
		{"more forces fails", true, 30, 240, 80 * time.Millisecond, 20 * time.Millisecond, false},
		{"elapsed tie fails", true, 240, 30, 20 * time.Millisecond, 20 * time.Millisecond, false},
		{"slower fails", true, 240, 30, 20 * time.Millisecond, 80 * time.Millisecond, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := forceAblationVerdict(c.ok, c.walForces, c.ckForces, c.walElapsed, c.ckElapsed)
			if got != c.want {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}

func TestRecoveryGrowth(t *testing.T) {
	cases := []struct {
		name      string
		prev, cur time.Duration
		want      bool
	}{
		{"first step, no predecessor", 0, 3 * time.Millisecond, true},
		{"strict growth", 4 * time.Millisecond, 9 * time.Millisecond, true},
		{"noisy dip within slack", 8 * time.Millisecond, 2 * time.Millisecond, true},
		{"exactly a quarter", 8 * time.Millisecond, 2 * time.Millisecond, true},
		{"collapse below slack", 8 * time.Millisecond, 2*time.Millisecond - 1, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := recoveryGrowth(c.prev, c.cur); got != c.want {
				t.Errorf("recoveryGrowth(%v, %v) = %v, want %v", c.prev, c.cur, got, c.want)
			}
		})
	}
}

func TestPartitionVerdict(t *testing.T) {
	const items = 8
	cases := []struct {
		name                                             string
		healthyMaster, healthySync, partMaster, partSync int
		converged                                        bool
		want                                             bool
	}{
		{"claim holds", items, items, items, 0, true, true},
		{"master degraded while healthy", items - 1, items, items, 0, true, false},
		{"sync degraded while healthy", items, items - 1, items, 0, true, false},
		{"master degraded during partition", items, items, 0, 0, true, false},
		{"sync leaked through partition", items, items, items, 1, true, false},
		{"no convergence after heal", items, items, items, 0, false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := partitionVerdict(items, c.healthyMaster, c.healthySync, c.partMaster, c.partSync, c.converged)
			if got != c.want {
				t.Errorf("got %v, want %v", got, c.want)
			}
		})
	}
}
