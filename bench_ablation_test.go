// Ablation benchmarks for the design choices DESIGN.md calls out beyond
// the numbered experiments: the DISCPROCESS record cache and audit-trail
// sharing (one AUDITPROCESS per controller group).
package encompass_test

import (
	"fmt"
	"testing"
	"time"

	"encompass"
)

// benchCache builds one node whose volume charges a simulated disc read
// penalty on cache misses.
func benchCache(b *testing.B, cacheSize int) {
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: 4,
			Volumes: []encompass.VolumeSpec{{
				Name: "v1", Audited: true,
				CacheSize:   cacheSize,
				MissPenalty: 100 * time.Microsecond,
			}},
		}},
	})
	if err != nil {
		b.Fatal(err)
	}
	node := sys.Node("alpha")
	node.FS.Create(encompass.LocalFile("f", encompass.KeySequenced, "alpha", "v1"))
	const records = 64
	seed, _ := node.Begin()
	for i := 0; i < records; i++ {
		seed.Insert("f", fmt.Sprintf("k%04d", i), []byte("v"))
	}
	if err := seed.Commit(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := node.FS.Read("f", fmt.Sprintf("k%04d", i%records)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := node.Volumes["v1"].Proc.Stats()
	b.ReportMetric(st.CacheStats.HitRatio()*100, "hit%")
}

// BenchmarkAblationCacheWarm: the working set fits; reads cost a message
// round trip but no disc access ("keep the most recently referenced blocks
// of data in main memory").
func BenchmarkAblationCacheWarm(b *testing.B) { benchCache(b, 1024) }

// BenchmarkAblationCacheDisabled: every read pays the simulated disc
// penalty.
func BenchmarkAblationCacheDisabled(b *testing.B) { benchCache(b, 0) }

// benchAuditGroups measures commit cost for a two-volume transaction when
// the volumes share one audit trail (one force at phase one) versus
// separate trails (two forces).
func benchAuditGroups(b *testing.B, shared bool) {
	groupA, groupB := "g", "g"
	if !shared {
		groupB = "h"
	}
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: 4,
			Volumes: []encompass.VolumeSpec{
				{Name: "v1", Audited: true, AuditGroup: groupA, CacheSize: 512},
				{Name: "v2", Audited: true, AuditGroup: groupB, CacheSize: 512},
			},
		}},
		AuditForceDelay: 200 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	node := sys.Node("alpha")
	node.FS.Create(encompass.LocalFile("f1", encompass.KeySequenced, "alpha", "v1"))
	node.FS.Create(encompass.LocalFile("f2", encompass.KeySequenced, "alpha", "v2"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, _ := node.Begin()
		if err := tx.Insert("f1", fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Insert("f2", fmt.Sprintf("k%09d", i), []byte("v")); err != nil {
			b.Fatal(err)
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAuditGroupShared: both volumes on one AUDITPROCESS and
// trail — phase one pays a single force.
func BenchmarkAblationAuditGroupShared(b *testing.B) { benchAuditGroups(b, true) }

// BenchmarkAblationAuditGroupSeparate: one trail per volume — phase one
// pays a force per trail.
func BenchmarkAblationAuditGroupSeparate(b *testing.B) { benchAuditGroups(b, false) }
