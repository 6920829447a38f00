package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestVerifyTrailClean walks every trail's hash chain after the
// walk-through scenario and requires a clean verdict.
func TestVerifyTrailClean(t *testing.T) {
	var out bytes.Buffer
	if err := runVerifyTrail(&out, false); err != nil {
		t.Fatalf("verify-trail: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "chain intact") {
		t.Fatalf("verify-trail reported no intact chains:\n%s", out.String())
	}
}

// TestVerifyTrailDetectsCorruption flips one bit in a record body —
// framing untouched, so only the checksum/chain walk can notice — and
// requires the walk to pinpoint the damaged record.
func TestVerifyTrailDetectsCorruption(t *testing.T) {
	var out bytes.Buffer
	if err := runVerifyTrail(&out, true); err != nil {
		t.Fatalf("verify-trail -corrupt: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "damage detected") {
		t.Fatalf("corruption went undetected:\n%s", out.String())
	}
}

// TestMetricsShowsPhase2Outstanding requires the metrics dump to carry the
// phase-two-outstanding and safe-queue-depth gauges, both back at zero
// once the scenario has healed the partition and drained.
func TestMetricsShowsPhase2Outstanding(t *testing.T) {
	var out bytes.Buffer
	if err := runMetrics(&out); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "tmf.phase2_outstanding       0\n") {
		t.Fatalf("metrics dump has no drained tmf.phase2_outstanding line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "tmf.safe_queue_depth         0\n") {
		t.Fatalf("metrics dump has no drained tmf.safe_queue_depth line:\n%s", out.String())
	}
}

// TestMetricsShowsInboxFullDrops requires the metrics dump to carry the
// message system's full-inbox drop counter for each node.
func TestMetricsShowsInboxFullDrops(t *testing.T) {
	var out bytes.Buffer
	if err := runMetrics(&out); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), "msg.inbox_full_drops"); n != 2 {
		t.Fatalf("metrics dump shows msg.inbox_full_drops %d times, want once per node:\n%s", n, out.String())
	}
}

// TestMetricsShowsWriteBehindForces requires the metrics dump to carry
// the write-behind force counter for each node. Only the branch serves
// another node's transaction, so the home node writes nothing behind.
func TestMetricsShowsWriteBehindForces(t *testing.T) {
	var out bytes.Buffer
	if err := runMetrics(&out); err != nil {
		t.Fatalf("metrics: %v\n%s", err, out.String())
	}
	dump := out.String()
	if n := strings.Count(dump, "audit.behind_forces"); n != 2 {
		t.Fatalf("metrics dump shows audit.behind_forces %d times, want once per node:\n%s", n, dump)
	}
	_, home, _ := strings.Cut(dump, "--- node home ---\n")
	home, _, _ = strings.Cut(home, "--- ")
	if !strings.Contains(home, "audit.behind_forces          0\n") {
		t.Fatalf("home node forced its own transaction's audit behind:\n%s", dump)
	}
}
