package load

import (
	"strconv"
	"testing"
	"time"

	"encompass"
	"encompass/internal/txid"
	"encompass/internal/workload"
)

const transferProgram = `
PROGRAM add.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 amount PIC 9(8).
  01 status PIC X(8).
SCREEN entry.
  FIELD acct.
  FIELD amount.
END-SCREEN.
PROC.
  ACCEPT entry.
  BEGIN-TRANSACTION.
  SEND "add" TO SERVER "bank" USING acct, amount REPLYING status.
  IF SEND-STATUS = "OK" AND status = "OK" THEN
    END-TRANSACTION.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`

// TestScobolTxSharedAcrossTerminals drives one ScobolTx from several
// terminal goroutines at once, so pooled requesters pass between them:
// every transaction must commit exactly once.
func TestScobolTxSharedAcrossTerminals(t *testing.T) {
	sys, err := encompass.Build(encompass.Config{Nodes: []encompass.NodeSpec{{Name: "n", CPUs: 4,
		Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true}}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sys.Stop)
	node := sys.Node("n")
	if err := node.FS.Create(encompass.LocalFile("accounts", encompass.KeySequenced, "n", "v1")); err != nil {
		t.Fatal(err)
	}
	seed, _ := node.Begin()
	if err := seed.Insert("accounts", "a1", []byte("0")); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := node.StartServerClass(encompass.ServerClassConfig{Class: "bank", MinInstances: 2, MaxInstances: 4,
		Handler: func(tx txid.ID, f map[string]string) (map[string]string, error) {
			cur, err := node.FS.ReadLock(tx, "accounts", f["ACCT"])
			if err != nil {
				return nil, err
			}
			n, _ := strconv.Atoi(string(cur))
			add, _ := strconv.Atoi(f["AMOUNT"])
			if err := node.FS.Update(tx, "accounts", f["ACCT"], []byte(strconv.Itoa(n+add))); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		}}); err != nil {
		t.Fatal(err)
	}
	tx, err := ScobolTx(node, transferProgram, map[string]string{"ACCT": "a1", "AMOUNT": "3"})
	if err != nil {
		t.Fatal(err)
	}
	const terminals, each = 4, 25
	res, err := workload.Driver{Terminals: terminals, Count: terminals * each}.Run(tx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != terminals*each {
		t.Fatalf("committed %d of %d (failed %d)", res.Committed, terminals*each, res.Failed)
	}
	if v, err := node.FS.Read("accounts", "a1"); err != nil || string(v) != strconv.Itoa(3*terminals*each) {
		t.Errorf("balance = %q, %v; want %d", v, err, 3*terminals*each)
	}
}

// TestThroughputEdgeCases: the throughput a ScobolTx run reports
// (workload.Result.TPS) is committed transactions per second of elapsed
// time, and zero for a run that measured no time.
func TestThroughputEdgeCases(t *testing.T) {
	if tp := (workload.Result{}).TPS(); tp != 0 {
		t.Errorf("zero-value Result throughput = %v, want 0", tp)
	}
	if tp := (workload.Result{Committed: 10, Elapsed: -time.Second}).TPS(); tp != 0 {
		t.Errorf("negative-elapsed throughput = %v, want 0", tp)
	}
	if tp := (workload.Result{Committed: 100, Elapsed: 2 * time.Second}).TPS(); tp != 50 {
		t.Errorf("throughput = %v, want 50", tp)
	}
}
