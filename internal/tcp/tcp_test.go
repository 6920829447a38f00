package tcp_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"time"

	"encompass"
	"encompass/internal/tcp"
	"encompass/internal/txid"
)

// env assembles a node with a bank file, a "bank" server class (deposit /
// balance operations) and a TCP.
type env struct {
	sys  *encompass.System
	node *encompass.Node
	tcp  *tcp.TCP
}

func newEnv(t *testing.T) *env {
	t.Helper()
	sys, err := encompass.Build(encompass.Config{
		Nodes: []encompass.NodeSpec{{
			Name: "alpha", CPUs: 4,
			Volumes: []encompass.VolumeSpec{{Name: "v1", Audited: true, CacheSize: 64}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	node := sys.Node("alpha")
	if err := node.FS.Create(encompass.LocalFile("accounts", encompass.KeySequenced, "alpha", "v1")); err != nil {
		t.Fatal(err)
	}
	// Seed account 100 with balance 50.
	seed, _ := node.Begin()
	seed.Insert("accounts", "100", []byte("50"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}

	fs := node.FS
	_, err = node.StartServerClass(encompass.ServerClassConfig{
		Class: "bank",
		Handler: func(tx txid.ID, f map[string]string) (map[string]string, error) {
			switch f["OP"] {
			case "deposit":
				cur, err := fs.ReadLock(tx, "accounts", f["ACCT"])
				if err != nil {
					return nil, err
				}
				bal, _ := strconv.Atoi(string(cur))
				amt, _ := strconv.Atoi(f["AMOUNT"])
				if err := fs.Update(tx, "accounts", f["ACCT"], []byte(strconv.Itoa(bal+amt))); err != nil {
					return nil, err
				}
				return map[string]string{"STATUS": "OK", "BAL": strconv.Itoa(bal + amt)}, nil
			case "balance":
				cur, err := fs.Read("accounts", f["ACCT"])
				if err != nil {
					return nil, err
				}
				return map[string]string{"STATUS": "OK", "BAL": string(cur)}, nil
			default:
				return nil, errors.New("unknown op")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tc, err := node.StartTCP(encompass.TCPConfig{Name: "tcp1", PrimaryCPU: 2, BackupCPU: 3, MaxRestarts: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &env{sys: sys, node: node, tcp: tc}
}

const depositProgram = `
PROGRAM deposit.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 amount PIC 9(6).
  01 status PIC X(32).
  01 bal PIC 9(8).
SCREEN entry-form.
  FIELD acct.
  FIELD amount.
END-SCREEN.
PROC.
  ACCEPT entry-form.
  BEGIN-TRANSACTION.
  SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  IF SEND-STATUS = "OK" AND status = "OK" THEN
    END-TRANSACTION.
    DISPLAY "deposited; balance=", bal.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`

// TestInputAfterFinishReturns: Wait tells a running program from a
// finished one, and once a program has finished — here with its own
// error, at its restart limit — Input returns at once, even after the
// terminal's input buffer would have filled.
func TestInputAfterFinishReturns(t *testing.T) {
	e := newEnv(t)
	term, err := e.tcp.Attach("t1", depositProgram)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Wait(20 * time.Millisecond); !errors.Is(err, tcp.ErrNotFinished) {
		t.Fatalf("Wait before any input = %v, want ErrNotFinished", err)
	}
	// No such account: every SEND fails and the program restarts until
	// its limit.
	term.Input(map[string]string{"acct": "999", "amount": "1"})
	if err := term.Wait(10 * time.Second); err == nil || errors.Is(err, tcp.ErrNotFinished) {
		t.Fatalf("program ended with %v, want its own error", err)
	}
	for i := range 20 {
		done := make(chan struct{})
		go func() {
			term.Input(map[string]string{"go": "y"})
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(time.Second):
			t.Fatalf("Input %d still blocked after 1s on a finished program", i)
		}
	}
}

func TestScreenProgramEndToEnd(t *testing.T) {
	e := newEnv(t)
	term, err := e.tcp.Attach("t1", depositProgram)
	if err != nil {
		t.Fatal(err)
	}
	term.Input(map[string]string{"acct": "100", "amount": "25"})
	if err := term.Wait(10 * time.Second); err != nil {
		t.Fatalf("program: %v", err)
	}
	out := term.Outputs()
	if len(out) != 1 || out[0] != "deposited; balance=75" {
		t.Errorf("outputs = %q", out)
	}
	// The update committed.
	v, err := e.node.FS.Read("accounts", "100")
	if err != nil || string(v) != "75" {
		t.Errorf("balance = %q, %v", v, err)
	}
}

func TestAbortPathLeavesNoTrace(t *testing.T) {
	e := newEnv(t)
	src := `
PROGRAM aborter.
WORKING-STORAGE.
  01 acct PIC X(8) VALUE "100".
  01 amount PIC 9(6) VALUE 10.
  01 status PIC X(32).
  01 bal PIC 9(8).
PROC.
  BEGIN-TRANSACTION.
  SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  ABORT-TRANSACTION.
  DISPLAY "aborted".
END-PROC.
`
	term, err := e.tcp.Attach("t1", src)
	if err != nil {
		t.Fatal(err)
	}
	if err := term.Wait(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	v, _ := e.node.FS.Read("accounts", "100")
	if string(v) != "50" {
		t.Errorf("balance = %q, want 50 (deposit backed out)", v)
	}
}

func TestConcurrentTerminals(t *testing.T) {
	e := newEnv(t)
	const n = 8
	terms := make([]*tcp.Terminal, n)
	for i := 0; i < n; i++ {
		term, err := e.tcp.Attach("t"+strconv.Itoa(i), depositProgram)
		if err != nil {
			t.Fatal(err)
		}
		terms[i] = term
		term.Input(map[string]string{"acct": "100", "amount": "1"})
	}
	for i, term := range terms {
		if err := term.Wait(20 * time.Second); err != nil {
			t.Fatalf("terminal %d: %v", i, err)
		}
	}
	v, _ := e.node.FS.Read("accounts", "100")
	if string(v) != "58" {
		t.Errorf("balance = %q, want 58 (50 + 8 serialized deposits)", v)
	}
}

func TestTCPTakeoverRestartsAtBegin(t *testing.T) {
	e := newEnv(t)
	// A program that accepts input, begins, then waits for a second input
	// mid-transaction — giving us a window to kill the TCP primary.
	src := `
PROGRAM twophase.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 amount PIC 9(6).
  01 go PIC X(4).
  01 status PIC X(32).
  01 bal PIC 9(8).
SCREEN s1.
  FIELD acct.
  FIELD amount.
END-SCREEN.
SCREEN s2.
  FIELD go.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  ACCEPT s2.
  SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
    DISPLAY "ok bal=", bal.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`
	term, err := e.tcp.Attach("t1", src)
	if err != nil {
		t.Fatal(err)
	}
	term.Input(map[string]string{"acct": "100", "amount": "7"})
	// Give the program time to reach the mid-transaction ACCEPT, then
	// fail the TCP primary's CPU.
	time.Sleep(50 * time.Millisecond)
	e.node.HW.FailCPU(2)

	// The backup restarts the program at BEGIN-TRANSACTION with the
	// checkpointed s1 input: only s2 needs (re-)entering.
	term.Input(map[string]string{"go": "yes"})
	if err := term.Wait(15 * time.Second); err != nil {
		t.Fatalf("program after takeover: %v", err)
	}
	out := term.Outputs()
	if len(out) == 0 || !strings.HasPrefix(out[len(out)-1], "ok bal=57") {
		t.Errorf("outputs = %q", out)
	}
	v, _ := e.node.FS.Read("accounts", "100")
	if string(v) != "57" {
		t.Errorf("balance = %q, want 57 (exactly one deposit despite takeover)", v)
	}
}

func TestTerminalLimit(t *testing.T) {
	e := newEnv(t)
	src := `
PROGRAM idle.
SCREEN s.
  FIELD f.
END-SCREEN.
WORKING-STORAGE.
  01 f PIC X(4).
PROC.
  ACCEPT s.
END-PROC.
`
	// WORKING-STORAGE must precede SCREEN; fix the source ordering.
	src = `
PROGRAM idle.
WORKING-STORAGE.
  01 f PIC X(4).
SCREEN s.
  FIELD f.
END-SCREEN.
PROC.
  ACCEPT s.
END-PROC.
`
	for i := 0; i < tcp.MaxTerminals; i++ {
		if _, err := e.tcp.Attach("term"+strconv.Itoa(i), src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.tcp.Attach("one-too-many", src); !errors.Is(err, tcp.ErrTooManyTerminals) {
		t.Errorf("err = %v, want ErrTooManyTerminals", err)
	}
	if _, err := e.tcp.Attach("term0", src); err == nil {
		t.Error("duplicate attach should fail")
	}
}

func TestBadProgramRejectedAtAttach(t *testing.T) {
	e := newEnv(t)
	if _, err := e.tcp.Attach("t1", "THIS IS NOT SCREEN COBOL"); err == nil {
		t.Error("attach of invalid program should fail")
	}
}

func TestRestartOnLockTimeoutDeadlockRecovery(t *testing.T) {
	// Two terminals deposit to two accounts in opposite orders, a classic
	// deadlock; timeout + RESTART-TRANSACTION recovers, both eventually
	// commit.
	e := newEnv(t)
	seed, _ := e.node.Begin()
	seed.Insert("accounts", "200", []byte("0"))
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	e.node.FS.LockTimeout = 150 * time.Millisecond

	// The generated program needs an acct var; write it directly instead.
	mk := func(first, second string) string {
		return `
PROGRAM dualdeposit.
WORKING-STORAGE.
  01 acct PIC X(8) VALUE "` + first + `".
  01 other PIC X(8) VALUE "` + second + `".
  01 amount PIC 9(4) VALUE 1.
  01 status PIC X(32).
  01 bal PIC 9(8).
PROC.
  BEGIN-TRANSACTION.
  SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  IF SEND-STATUS = "OK" THEN
    MOVE other TO acct.
    SEND "deposit" TO SERVER "bank" USING acct, amount REPLYING status, bal.
  END-IF.
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
  ELSE
    MOVE acct TO acct.
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`
	}
	t1, err := e.tcp.Attach("t1", mk("100", "200"))
	if err != nil {
		t.Fatal(err)
	}
	t2, err := e.tcp.Attach("t2", mk("200", "100"))
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Wait(30 * time.Second); err != nil {
		t.Fatalf("t1: %v", err)
	}
	if err := t2.Wait(30 * time.Second); err != nil {
		t.Fatalf("t2: %v", err)
	}
	v100, _ := e.node.FS.Read("accounts", "100")
	v200, _ := e.node.FS.Read("accounts", "200")
	if string(v100) != "52" || string(v200) != "2" {
		t.Errorf("balances = %q/%q, want 52/2", v100, v200)
	}
}
