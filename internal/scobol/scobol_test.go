package scobol

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// fakeRT is a scriptable Runtime for interpreter tests.
type fakeRT struct {
	inputs    []map[string]string // consumed by Accept
	displays  []string
	sends     []map[string]string
	sendReply func(server string, req map[string]string) (map[string]string, error)
	begins    []Snapshot // recorded by an OnBegin that the test installs

	begun, ended, aborted int
	endErr                func(attempt int) error // per END call
	txSeq                 int
}

func (f *fakeRT) Accept(screen string, fields []string) (map[string]string, error) {
	if len(f.inputs) == 0 {
		return map[string]string{}, nil
	}
	in := f.inputs[0]
	f.inputs = f.inputs[1:]
	return in, nil
}

func (f *fakeRT) Display(s string) { f.displays = append(f.displays, s) }

func (f *fakeRT) Send(server string, req map[string]string) (map[string]string, error) {
	f.sends = append(f.sends, req)
	if f.sendReply != nil {
		return f.sendReply(server, req)
	}
	return map[string]string{}, nil
}

func (f *fakeRT) Begin() (string, error) {
	f.begun++
	f.txSeq++
	return fmt.Sprintf("tx-%d", f.txSeq), nil
}

func (f *fakeRT) End() error {
	f.ended++
	if f.endErr != nil {
		return f.endErr(f.ended)
	}
	return nil
}

func (f *fakeRT) Abort() error { f.aborted++; return nil }

func run(t *testing.T, src string, rt *fakeRT, opts Options) *Exec {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	e := NewExec(prog, rt, opts)
	if err := e.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return e
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		``,
		`PROGRAM x`,                       // missing period
		`PROGRAM x. PROC. FOO. END-PROC.`, // unknown statement
		`PROGRAM x. PROC. IF 1 = 1 THEN DISPLAY "a".`, // missing END-IF
		`PROGRAM x. PROC. DISPLAY "unterminated`,
		`PROGRAM x. WORKING-STORAGE. 01 v PIC Z(3). PROC. END-PROC.`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		} else {
			var se *SyntaxError
			if !errors.As(err, &se) {
				t.Errorf("Parse(%q): err %v is not a SyntaxError", src, err)
			}
		}
	}
}

const progMoveComputeDisplay = `
PROGRAM demo.
WORKING-STORAGE.
  01 a PIC 9(4).
  01 b PIC 9(4) VALUE 10.
  01 name PIC X(8) VALUE "world".
PROC.
  COMPUTE a = b * 2 + 5.
  MOVE "hello" TO name.
  DISPLAY "a=", a, " name=", name.
END-PROC.
`

func TestMoveComputeDisplay(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progMoveComputeDisplay, rt, Options{})
	if e.Var("a") != "25" {
		t.Errorf("a = %q", e.Var("a"))
	}
	if len(rt.displays) != 1 || rt.displays[0] != "a=25 name=hello" {
		t.Errorf("displays = %q", rt.displays)
	}
}

const progIfElse = `
PROGRAM demo.
WORKING-STORAGE.
  01 x PIC 9(4) VALUE 7.
  01 r PIC X(8).
PROC.
  IF x > 5 AND x < 10 THEN
    MOVE "mid" TO r.
  ELSE
    MOVE "out" TO r.
  END-IF.
  IF x = 7 OR x = 99 THEN MOVE "seven" TO r. END-IF.
  IF x <> 7 THEN MOVE "strange" TO r. END-IF.
END-PROC.
`

func TestIfElseAndComparisons(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progIfElse, rt, Options{})
	if e.Var("r") != "seven" {
		t.Errorf("r = %q", e.Var("r"))
	}
}

// TestCompare pins compare's numeric-versus-lexical rule: operands that
// both parse as integers after trimming spaces compare as numbers, anything
// else compares as the untrimmed text.
func TestCompare(t *testing.T) {
	cases := []struct {
		l, r string
		want int
	}{
		{"7", "7", 0},
		{"007", "7", 0},
		{" 7", "7", 0},
		{"7 ", "10", -1},
		{"10", "9", 1},
		{"+5", "5", 0},
		{"-3", "2", -1},
		{"-", "1", -1},   // a lone sign is text
		{"+-1", "1", -1}, // two signs are text
		{"10", "9x", -1}, // one text side makes both text
		{" a", "a", -1},  // text keeps its spaces
		{"abc", "abd", -1},
		{"", "0", -1},
		{"99999999999999999999", "100000000000000000000", 1}, // out of int range: text
	}
	for _, c := range cases {
		if got := compare(c.l, c.r); got != c.want {
			t.Errorf("compare(%q, %q) = %d, want %d", c.l, c.r, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { compare("abc", "abd"); compare(" 12", "+7") }); n != 0 {
		t.Errorf("compare allocates %v times per call pair, want 0", n)
	}
}

const progPerformTimes = `
PROGRAM demo.
WORKING-STORAGE.
  01 n PIC 9(4) VALUE 0.
PROC.
  PERFORM 5 TIMES
    COMPUTE n = n + 2.
  END-PERFORM.
END-PROC.
`

func TestPerformTimes(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progPerformTimes, rt, Options{})
	if e.Var("n") != "10" {
		t.Errorf("n = %q", e.Var("n"))
	}
}

const progAcceptFields = `
PROGRAM demo.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 amount PIC 9(6).
SCREEN entry-form.
  FIELD acct.
  FIELD amount.
END-SCREEN.
PROC.
  ACCEPT entry-form.
END-PROC.
`

func TestAcceptBindsScreenFields(t *testing.T) {
	rt := &fakeRT{inputs: []map[string]string{{"ACCT": "12345", "AMOUNT": "99"}}}
	e := run(t, progAcceptFields, rt, Options{})
	if e.Var("acct") != "12345" || e.Var("amount") != "99" {
		t.Errorf("acct=%q amount=%q", e.Var("acct"), e.Var("amount"))
	}
}

const progTransid = `
PROGRAM demo.
WORKING-STORAGE.
  01 seen PIC X(16).
PROC.
  BEGIN-TRANSACTION.
  MOVE TRANSACTIONID TO seen.
  END-TRANSACTION.
END-PROC.
`

func TestTransactionVerbsAndTransid(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progTransid, rt, Options{})
	if rt.begun != 1 || rt.ended != 1 {
		t.Errorf("begun=%d ended=%d", rt.begun, rt.ended)
	}
	if e.Var("seen") != "tx-1" {
		t.Errorf("seen = %q", e.Var("seen"))
	}
	if e.Var(RegTransactionID) != "" {
		t.Error("TRANSACTIONID not cleared after END")
	}
}

const progSendReplying = `
PROGRAM demo.
WORKING-STORAGE.
  01 acct PIC 9(4) VALUE 42.
  01 status PIC X(8).
  01 bal PIC 9(8).
PROC.
  BEGIN-TRANSACTION.
  SEND "debit" TO SERVER "bank" USING acct REPLYING status, bal.
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
  ELSE
    ABORT-TRANSACTION.
  END-IF.
END-PROC.
`

func TestSendUsingReplying(t *testing.T) {
	rt := &fakeRT{sendReply: func(server string, req map[string]string) (map[string]string, error) {
		if server != "bank" {
			return nil, fmt.Errorf("wrong server %s", server)
		}
		if req["OP"] != "debit" || req["ACCT"] != "42" {
			return nil, fmt.Errorf("bad request %v", req)
		}
		return map[string]string{"STATUS": "done", "R2": "100"}, nil
	}}
	e := run(t, progSendReplying, rt, Options{})
	if e.Var("status") != "done" {
		t.Errorf("status = %q", e.Var("status"))
	}
	if e.Var("bal") != "100" {
		t.Errorf("bal = %q (positional reply binding)", e.Var("bal"))
	}
	if rt.ended != 1 || rt.aborted != 0 {
		t.Errorf("ended=%d aborted=%d", rt.ended, rt.aborted)
	}
}

const progSendError = `
PROGRAM demo.
PROC.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s".
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
  ELSE
    ABORT-TRANSACTION.
  END-IF.
END-PROC.
`

func TestSendErrorSetsStatusAndAbortPath(t *testing.T) {
	rt := &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
		return nil, errors.New("server dead")
	}}
	run(t, progSendError, rt, Options{})
	if rt.aborted != 1 || rt.ended != 0 {
		t.Errorf("aborted=%d ended=%d", rt.aborted, rt.ended)
	}
}

const progRestartAtBegin = `
PROGRAM demo.
WORKING-STORAGE.
  01 preamble PIC 9(4) VALUE 0.
PROC.
  COMPUTE preamble = preamble + 1.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s".
  IF SEND-STATUS = "OK" THEN
    END-TRANSACTION.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`

func TestRestartTransactionRetriesAtBegin(t *testing.T) {
	// The program restarts twice (simulated deadlock), succeeding on the
	// third attempt. Each attempt gets a fresh transid; the counter var
	// proves execution resumed at BEGIN (not at program start).
	rt := &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
		return map[string]string{}, nil
	}}
	attempt := 0
	rt.sendReply = func(string, map[string]string) (map[string]string, error) {
		attempt++
		if attempt < 3 {
			return nil, errors.New("record lock timeout")
		}
		return map[string]string{}, nil
	}
	e := run(t, progRestartAtBegin, rt, Options{MaxRestarts: 5})
	if rt.begun != 3 {
		t.Errorf("begun = %d, want 3", rt.begun)
	}
	if rt.aborted != 2 {
		t.Errorf("aborted = %d, want 2 (backout before each restart)", rt.aborted)
	}
	if e.Var("preamble") != "1" {
		t.Errorf("preamble = %q, want 1: restart must resume at BEGIN, not the program start", e.Var("preamble"))
	}
}

const progRestartLimit = `
PROGRAM demo.
PROC.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s".
  IF SEND-STATUS = "OK" THEN END-TRANSACTION. ELSE RESTART-TRANSACTION. END-IF.
END-PROC.
`

func TestRestartLimit(t *testing.T) {
	rt := &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
		return nil, errors.New("always fails")
	}}
	prog := MustParse(progRestartLimit)
	e := NewExec(prog, rt, Options{MaxRestarts: 3})
	err := e.Run()
	if !errors.Is(err, ErrRestartExceeded) {
		t.Errorf("err = %v, want ErrRestartExceeded", err)
	}
}

const progEndRejected = `
PROGRAM demo.
PROC.
  BEGIN-TRANSACTION.
  END-TRANSACTION.
END-PROC.
`

func TestEndRejectionRestartsAutomatically(t *testing.T) {
	// END-TRANSACTION rejected (system aborted the transaction, e.g.
	// network partition): the program restarts at BEGIN automatically.
	rt := &fakeRT{}
	rt.endErr = func(attempt int) error {
		if attempt == 1 {
			return errors.New("aborted by system: network partition")
		}
		return nil
	}
	run(t, progEndRejected, rt, Options{MaxRestarts: 3})
	if rt.begun != 2 || rt.ended != 2 {
		t.Errorf("begun=%d ended=%d, want 2/2", rt.begun, rt.ended)
	}
}

const progRestartKeepsInput = `
PROGRAM demo.
WORKING-STORAGE.
  01 acct PIC X(8).
SCREEN s1.
  FIELD acct.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s" USING acct.
  IF SEND-STATUS = "OK" THEN END-TRANSACTION. ELSE RESTART-TRANSACTION. END-IF.
END-PROC.
`

func TestRestartPreservesAcceptedInput(t *testing.T) {
	// ACCEPT runs once before BEGIN; the restart must reuse the captured
	// input, not re-enter the screen (the TCP checkpointing claim).
	rt := &fakeRT{inputs: []map[string]string{{"ACCT": "777"}}}
	attempt := 0
	rt.sendReply = func(_ string, req map[string]string) (map[string]string, error) {
		attempt++
		if req["ACCT"] != "777" {
			return nil, fmt.Errorf("lost input: %v", req)
		}
		if attempt == 1 {
			return nil, errors.New("transient")
		}
		return map[string]string{}, nil
	}
	run(t, progRestartKeepsInput, rt, Options{MaxRestarts: 3})
	if attempt != 2 {
		t.Errorf("attempts = %d, want 2", attempt)
	}
	if len(rt.inputs) != 0 {
		t.Error("input not consumed")
	}
}

func TestResumeFromSnapshot(t *testing.T) {
	// Simulates TCP takeover: first execution checkpoints at BEGIN and
	// dies; a new execution resumes from the snapshot without the ACCEPT.
	var snap Snapshot
	rtA := &fakeRT{inputs: []map[string]string{{"ACCT": "55"}}}
	rtA.sendReply = func(string, map[string]string) (map[string]string, error) {
		return nil, errors.New("primary TCP cpu failed") // kills attempt
	}
	prog := MustParse(`
PROGRAM demo.
WORKING-STORAGE.
  01 acct PIC X(8).
SCREEN s1.
  FIELD acct.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s" USING acct.
  IF SEND-STATUS = "OK" THEN END-TRANSACTION. ELSE STOP RUN. END-IF.
END-PROC.
`)
	eA := NewExec(prog, rtA, Options{})
	eA.OnBegin = func(s Snapshot) { snap = s }
	if err := eA.Run(); err != nil {
		t.Fatal(err)
	}
	if snap.BeginIdx < 0 || snap.Vars["ACCT"] != "55" {
		t.Fatalf("snapshot = %+v", snap)
	}

	// The backup TCP resumes at BEGIN with the checkpointed input.
	rtB := &fakeRT{} // no inputs available: ACCEPT must not run
	rtB.sendReply = func(_ string, req map[string]string) (map[string]string, error) {
		if req["ACCT"] != "55" {
			return nil, fmt.Errorf("lost checkpointed input: %v", req)
		}
		return map[string]string{}, nil
	}
	eB := NewExec(prog, rtB, Options{Resume: &snap})
	if err := eB.Run(); err != nil {
		t.Fatal(err)
	}
	if rtB.ended != 1 {
		t.Errorf("resumed run ended=%d, want 1", rtB.ended)
	}
}

const progStopRun = `
PROGRAM demo.
PROC.
  DISPLAY "before".
  STOP RUN.
  DISPLAY "after".
END-PROC.
`

func TestStopRun(t *testing.T) {
	rt := &fakeRT{}
	run(t, progStopRun, rt, Options{})
	if len(rt.displays) != 1 {
		t.Errorf("displays = %v, STOP RUN must halt", rt.displays)
	}
}

const progUndefinedMove = `
PROGRAM demo.
PROC.
  MOVE "x" TO nowhere.
END-PROC.
`

const progDivideByZero = `
PROGRAM demo.
WORKING-STORAGE.
  01 a PIC 9(4).
PROC.
  COMPUTE a = 1 / 0.
END-PROC.
`

const progEndOutsideTx = `
PROGRAM demo.
PROC.
  END-TRANSACTION.
END-PROC.
`

const progNestedBegin = `
PROGRAM demo.
PROC.
  BEGIN-TRANSACTION.
  BEGIN-TRANSACTION.
END-PROC.
`

func TestRuntimeErrors(t *testing.T) {
	rt := &fakeRT{}
	prog := MustParse(progUndefinedMove)
	if err := NewExec(prog, rt, Options{}).Run(); !errors.Is(err, ErrUndefinedVar) {
		t.Errorf("err = %v, want ErrUndefinedVar", err)
	}
	prog2 := MustParse(progDivideByZero)
	if err := NewExec(prog2, rt, Options{}).Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v, want division by zero", err)
	}
	prog3 := MustParse(progEndOutsideTx)
	if err := NewExec(prog3, rt, Options{}).Run(); !errors.Is(err, ErrNoTransaction) {
		t.Errorf("err = %v, want ErrNoTransaction", err)
	}
	prog4 := MustParse(progNestedBegin)
	if err := NewExec(prog4, rt, Options{}).Run(); !errors.Is(err, ErrNestedBegin) {
		t.Errorf("err = %v, want ErrNestedBegin", err)
	}
}

const progComments = `
* This is a comment line.
program Demo.
working-storage.
  01 X pic 9(2) value 3.
proc.
* another comment
  compute x = X + 1.
end-proc.
`

func TestCommentsAndCaseInsensitivity(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progComments, rt, Options{})
	if e.Var("x") != "4" {
		t.Errorf("x = %q", e.Var("x"))
	}
}

const progPerformUntil = `
PROGRAM demo.
WORKING-STORAGE.
  01 n PIC 9(4) VALUE 0.
  01 total PIC 9(6) VALUE 0.
PROC.
  PERFORM UNTIL n >= 5
    COMPUTE n = n + 1.
    COMPUTE total = total + n.
  END-PERFORM.
END-PROC.
`

func TestPerformUntil(t *testing.T) {
	rt := &fakeRT{}
	e := run(t, progPerformUntil, rt, Options{})
	if e.Var("n") != "5" || e.Var("total") != "15" {
		t.Errorf("n=%q total=%q, want 5/15", e.Var("n"), e.Var("total"))
	}
}

const progPerformUntilTestBefore = `
PROGRAM demo.
WORKING-STORAGE.
  01 n PIC 9(4) VALUE 9.
PROC.
  PERFORM UNTIL n > 3
    COMPUTE n = n + 1.
  END-PERFORM.
END-PROC.
`

func TestPerformUntilTestBefore(t *testing.T) {
	// COBOL test-before: a condition true at entry skips the body entirely.
	rt := &fakeRT{}
	e := run(t, progPerformUntilTestBefore, rt, Options{})
	if e.Var("n") != "9" {
		t.Errorf("n = %q, want 9 (body must not run)", e.Var("n"))
	}
}

const progPerformUntilGuard = `
PROGRAM demo.
WORKING-STORAGE.
  01 n PIC 9(4) VALUE 0.
PROC.
  PERFORM UNTIL n < 0
    COMPUTE n = 1.
  END-PERFORM.
END-PROC.
`

func TestPerformUntilGuard(t *testing.T) {
	rt := &fakeRT{}
	prog := MustParse(progPerformUntilGuard)
	err := NewExec(prog, rt, Options{}).Run()
	if err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("err = %v, want loop-guard error", err)
	}
}
