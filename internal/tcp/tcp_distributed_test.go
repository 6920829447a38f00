package tcp_test

import (
	"strconv"
	"testing"
	"time"

	"encompass"
	"encompass/internal/audit"
	"encompass/internal/txid"
)

// TestScreenProgramDistributedSend runs the paper's motivating flow: a
// Screen COBOL program on one node SENDs to a server on another node,
// whose data base lives there too. "The network location of the
// application server process and, in fact, of the data base itself is
// transparent to the Screen COBOL program"; the transaction commits with
// the full distributed protocol.
func TestScreenProgramDistributedSend(t *testing.T) {
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{
			{Name: "front", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vf", Audited: true}}},
			{Name: "back", CPUs: 4, Volumes: []encompass.VolumeSpec{{Name: "vb", Audited: true}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	front, back := sys.Node("front"), sys.Node("back")
	if err := back.FS.Create(encompass.LocalFile("orders", encompass.KeySequenced, "back", "vb")); err != nil {
		t.Fatal(err)
	}

	// The order server lives on the back node, near its data.
	fs := back.FS
	_, err = back.StartServerClass(encompass.ServerClassConfig{
		Class: "orders",
		Handler: func(tx txid.ID, f map[string]string) (map[string]string, error) {
			if err := fs.Insert(tx, "orders", f["ID"], []byte(f["ITEM"])); err != nil {
				return nil, err
			}
			return map[string]string{"STATUS": "OK"}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	tc, err := front.StartTCP(encompass.TCPConfig{Name: "tcp-front", PrimaryCPU: 2, BackupCPU: 3})
	if err != nil {
		t.Fatal(err)
	}
	src := `
PROGRAM order-entry.
WORKING-STORAGE.
  01 id PIC X(8).
  01 item PIC X(16).
  01 status PIC X(16).
SCREEN s1.
  FIELD id.
  FIELD item.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  SEND "order" TO SERVER "back:orders" USING id, item REPLYING status.
  IF SEND-STATUS = "OK" AND status = "OK" THEN
    END-TRANSACTION.
    DISPLAY "order placed: ", id.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`
	const orders = 5
	for i := 0; i < orders; i++ {
		term, err := tc.Attach("t"+strconv.Itoa(i), src)
		if err != nil {
			t.Fatal(err)
		}
		term.Input(map[string]string{"id": "ord-" + strconv.Itoa(i), "item": "widget"})
		if err := term.Wait(15 * time.Second); err != nil {
			t.Fatalf("terminal %d: %v", i, err)
		}
	}
	// END-TRANSACTION answers at the commit point; the back node applies
	// ENDED once front's phase-two delivery has drained.
	if !front.TMF.WaitSafeQueueEmpty(5 * time.Second) {
		t.Fatal("front: phase two did not drain")
	}
	recs, err := back.FS.ReadRange("orders", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != orders {
		t.Errorf("orders on back node = %d, want %d", len(recs), orders)
	}
	// The transactions were truly distributed: the back node's Monitor
	// Audit Trail carries commit records for front-homed transids.
	frontHomed := 0
	for _, rec := range back.TMF.MonitorTrail().Records() {
		if rec.Tx.Home == "front" && rec.Outcome == audit.OutcomeCommitted {
			frontHomed++
		}
	}
	if frontHomed != orders {
		t.Errorf("back MAT has %d front-homed commits, want %d", frontHomed, orders)
	}
}
