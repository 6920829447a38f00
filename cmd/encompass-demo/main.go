// Command encompass-demo is a guided tour of the reproduction: it builds a
// two-node system, walks through the paper's core behaviors — atomic
// commit, voluntary abort with backout, process-pair takeover, distributed
// commit, partition handling, and ROLLFORWARD — narrating each step.
package main

import (
	"fmt"
	"os"
	"time"

	"encompass"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "demo:", err)
		os.Exit(1)
	}
}

func section(title string) { fmt.Printf("\n--- %s ---\n", title) }

func run() error {
	fmt.Println("ENCOMPASS / TMF reproduction — guided demo")

	section("build: two NonStop nodes, mirrored audited volumes, EXPAND link")
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "west", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vw", Audited: true, CacheSize: 64}}},
			{Name: "east", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "ve", Audited: true, CacheSize: 64}}},
		},
	})
	if err != nil {
		return err
	}
	west, east := sys.Node("west"), sys.Node("east")
	sys.CreateFileEverywhere(encompass.LocalFile("accounts", encompass.KeySequenced, "west", "vw"))
	sys.CreateFileEverywhere(encompass.LocalFile("ledger", encompass.KeySequenced, "east", "ve"))
	fmt.Println("nodes west (accounts on vw) and east (ledger on ve) are up")

	section("atomic commit (abbreviated two-phase protocol)")
	tx, _ := west.Begin()
	tx.Insert("accounts", "alice", []byte("100"))
	if err := tx.Commit(); err != nil {
		return err
	}
	fmt.Printf("transaction %s committed; state=%s\n", tx.ID, tx.State())

	section("voluntary abort: BACKOUTPROCESS applies before-images")
	tx2, _ := west.Begin()
	if _, err := tx2.ReadLock("accounts", "alice"); err != nil {
		return err
	}
	tx2.Update("accounts", "alice", []byte("999999"))
	v, _ := west.FS.Read("accounts", "alice")
	fmt.Printf("mid-transaction balance: %s\n", v)
	tx2.Abort("user pressed cancel")
	v, _ = west.FS.Read("accounts", "alice")
	fmt.Printf("after ABORT-TRANSACTION and backout: %s (state=%s)\n", v, tx2.State())

	section("process-pair takeover: fail the DISCPROCESS primary's CPU")
	prim := west.Volumes["vw"].Proc.Pair.PrimaryCPU()
	fmt.Printf("disc-vw primary runs on CPU %d; failing it\n", prim)
	west.HW.FailCPU(prim)
	tx3, _ := west.Begin()
	if err := tx3.Insert("accounts", "bob", []byte("55")); err != nil {
		return err
	}
	if err := tx3.Commit(); err != nil {
		return err
	}
	fmt.Printf("service continued: new primary on CPU %d, bob's account committed\n",
		west.Volumes["vw"].Proc.Pair.PrimaryCPU())

	section("distributed commit: one transaction updates both nodes")
	tx4, _ := west.Begin()
	if _, err := tx4.ReadLock("accounts", "bob"); err != nil {
		return err
	}
	tx4.Update("accounts", "bob", []byte("54"))
	tx4.Insert("ledger", "bob-fee", []byte("1"))
	if err := tx4.Commit(); err != nil {
		return err
	}
	// Commit returns at the commit point; east learns the outcome from the
	// safe-delivery behind it.
	west.TMF.WaitSafeQueueEmpty(time.Second)
	wo, _ := west.TMF.Outcome(tx4.ID)
	eo, _ := east.TMF.Outcome(tx4.ID)
	fmt.Printf("distributed transaction %s: west says %s, east says %s\n", tx4.ID, wo, eo)

	section("network partition: loss of communication aborts the affected transaction")
	tx5, _ := west.Begin()
	tx5.Insert("ledger", "doomed", []byte("x"))
	sys.Partition("east")
	err = tx5.Commit()
	fmt.Printf("commit across partition: %v\n", err)
	sys.Heal()
	time.Sleep(50 * time.Millisecond)
	if _, err := east.FS.Read("ledger", "doomed"); err != nil {
		fmt.Println("east shows no trace of the aborted transaction: decision was uniform")
	}

	section("ROLLFORWARD: total node failure and archive + redo recovery")
	arch := west.TakeArchive()
	tx6, _ := west.Begin()
	tx6.Insert("accounts", "carol", []byte("77"))
	if err := tx6.Commit(); err != nil {
		return err
	}
	fmt.Println("archive taken; carol's account committed after the archive")
	west.Crash()
	fmt.Println("west suffered total node failure (all processors)")
	st, err := west.Recover(arch)
	if err != nil {
		return err
	}
	fmt.Printf("ROLLFORWARD: %d volume(s) restored, %d image(s) replayed, %d tx committed\n",
		st.VolumesRestored, st.ImagesReplayed, st.TxCommitted)
	v, err = west.FS.Read("accounts", "carol")
	if err != nil {
		return err
	}
	fmt.Printf("carol's post-archive committed balance survived: %s\n", v)

	fmt.Println("\ndemo complete")
	return nil
}
