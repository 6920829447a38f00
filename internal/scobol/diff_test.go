package scobol

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// debitCredit is the TP1 requester program of bench/workloads.go, copied.
const debitCredit = `
PROGRAM debit-credit.
WORKING-STORAGE.
  01 acct PIC X(8).
  01 teller PIC X(8).
  01 branch PIC X(8).
  01 amount PIC 9(8).
  01 tag PIC X(16).
  01 status PIC X(8).
SCREEN teller-screen.
  FIELD acct.
  FIELD teller.
  FIELD branch.
  FIELD amount.
  FIELD tag.
END-SCREEN.
PROC.
  ACCEPT teller-screen.
  BEGIN-TRANSACTION.
  SEND "debitcredit" TO SERVER "bank" USING acct, teller, branch, amount, tag REPLYING status.
  IF SEND-STATUS = "OK" AND status = "OK" THEN
    END-TRANSACTION.
  ELSE
    RESTART-TRANSACTION.
  END-IF.
END-PROC.
`

// progResume is TestResumeFromSnapshot's program, copied.
const progResume = `
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
`

// progAcceptOnly binds code only through ACCEPT and echo only through
// REPLYING; neither is declared.
const progAcceptOnly = `
PROGRAM demo.
SCREEN s1.
  FIELD code.
END-SCREEN.
PROC.
  ACCEPT s1.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s" USING code REPLYING echo.
  DISPLAY code, "/", echo.
  END-TRANSACTION.
END-PROC.
`

// progUnexecutedElse names nowhere only in an ELSE that never runs.
const progUnexecutedElse = `
PROGRAM demo.
WORKING-STORAGE.
  01 x PIC 9(2) VALUE 1.
PROC.
  IF x = 1 THEN
    DISPLAY "then".
  ELSE
    MOVE nowhere TO x.
  END-IF.
END-PROC.
`

// progRestoreInput changes its accepted input inside the transaction; a
// restart must hand the next attempt the input as accepted.
const progRestoreInput = `
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
  MOVE "changed" TO acct.
  IF SEND-STATUS = "OK" THEN END-TRANSACTION. ELSE RESTART-TRANSACTION. END-IF.
END-PROC.
`

// progLaterBinding binds echo only after BEGIN. A restart restores the
// names that existed at BEGIN and leaves echo bound.
const progLaterBinding = `
PROGRAM demo.
PROC.
  BEGIN-TRANSACTION.
  SEND "op" TO SERVER "s" REPLYING echo.
  IF SEND-STATUS = "OK" THEN
    RESTART-TRANSACTION.
  END-IF.
  DISPLAY echo.
  END-TRANSACTION.
END-PROC.
`

// failFirst is a SEND script whose first n sends fail.
func failFirst(n int) func(string, map[string]string) (map[string]string, error) {
	attempt := 0
	return func(string, map[string]string) (map[string]string, error) {
		attempt++
		if attempt <= n {
			return nil, errors.New("transient")
		}
		return map[string]string{}, nil
	}
}

func inputs(fields ...map[string]string) func() *fakeRT {
	return func() *fakeRT { return &fakeRT{inputs: fields} }
}

// diffCase is one program run twice, on a fresh Exec and on a reused one.
type diffCase struct {
	name string
	src  string
	opts Options
	// rt scripts both compared runs (nil: an empty fakeRT); prior scripts
	// the reused Exec's first run (nil: rt).
	rt, prior func() *fakeRT
	// check, when set, asserts the fresh run's outcome itself.
	check func(t *testing.T, o outcome)
}

// outcome is everything a run shows its host and its inspector.
type outcome struct {
	Displays              []string
	Sends                 []map[string]string
	Begins                []Snapshot
	Vars                  map[string]string
	Snap                  Snapshot
	Err                   string
	Begun, Ended, Aborted int
}

// relay lets one Exec run against a different script each run.
type relay struct{ *fakeRT }

func diffCases() []diffCase {
	return []diffCase{
		{name: "move-compute-display", src: progMoveComputeDisplay},
		{name: "if-else", src: progIfElse},
		{name: "perform-times", src: progPerformTimes},
		{name: "accept-fields", src: progAcceptFields, rt: inputs(map[string]string{"ACCT": "12345", "AMOUNT": "99"})},
		{name: "transid", src: progTransid},
		{name: "send-replying", src: progSendReplying, rt: func() *fakeRT {
			return &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
				return map[string]string{"STATUS": "done", "R2": "100"}, nil
			}}
		}},
		{name: "send-error", src: progSendError, rt: func() *fakeRT {
			return &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
				return nil, errors.New("server dead")
			}}
		}},
		{name: "restart-at-begin", src: progRestartAtBegin, opts: Options{MaxRestarts: 5},
			rt: func() *fakeRT { return &fakeRT{sendReply: failFirst(2)} }},
		{name: "restart-limit", src: progRestartLimit, opts: Options{MaxRestarts: 3},
			rt: func() *fakeRT { return &fakeRT{sendReply: failFirst(1 << 30)} }},
		{name: "end-rejected", src: progEndRejected, opts: Options{MaxRestarts: 3}, rt: func() *fakeRT {
			return &fakeRT{endErr: func(attempt int) error {
				if attempt == 1 {
					return errors.New("aborted by system")
				}
				return nil
			}}
		}},
		{name: "restart-keeps-input", src: progRestartKeepsInput, opts: Options{MaxRestarts: 3}, rt: func() *fakeRT {
			return &fakeRT{inputs: []map[string]string{{"ACCT": "777"}}, sendReply: failFirst(1)}
		}},
		{name: "resume", src: progResume, opts: Options{Resume: &Snapshot{
			Vars:     map[string]string{"ACCT": "55", RegSendStatus: SendOK, RegTransactionID: "", "FOREIGN": "kept"},
			BeginIdx: 1,
		}}},
		{name: "stop-run", src: progStopRun},
		{name: "undefined-move", src: progUndefinedMove},
		{name: "divide-by-zero", src: progDivideByZero},
		{name: "end-outside-tx", src: progEndOutsideTx},
		{name: "nested-begin", src: progNestedBegin},
		{name: "comments", src: progComments},
		{name: "perform-until", src: progPerformUntil},
		{name: "perform-until-test-before", src: progPerformUntilTestBefore},
		{name: "perform-until-guard", src: progPerformUntilGuard},
		{name: "debit-credit", src: debitCredit, opts: Options{MaxRestarts: 5}, rt: func() *fakeRT {
			return &fakeRT{
				inputs: []map[string]string{{"ACCT": "a0000001", "TELLER": "t00001", "BRANCH": "b001", "AMOUNT": "17", "TAG": "h-1"}},
				sendReply: func(string, map[string]string) (map[string]string, error) {
					return map[string]string{"STATUS": "OK"}, nil
				},
			}
		}},
		{
			// The prior run binds both names; the compared run's input
			// and reply omit them, so they must not exist.
			name: "accept-and-replying-only", src: progAcceptOnly,
			rt: func() *fakeRT { return &fakeRT{inputs: []map[string]string{{}}} },
			prior: func() *fakeRT {
				return &fakeRT{
					inputs: []map[string]string{{"CODE": "c1"}},
					sendReply: func(string, map[string]string) (map[string]string, error) {
						return map[string]string{"ECHO": "e1"}, nil
					},
				}
			},
			check: func(t *testing.T, o outcome) {
				if want := fmt.Errorf("%w: CODE (line 9)", ErrUndefinedVar).Error(); o.Err != want {
					t.Errorf("err = %s, want CODE undefined at line 9", o.Err)
				}
				if _, ok := o.Snap.Vars["CODE"]; ok {
					t.Errorf("snapshot %v holds CODE, which was never bound", o.Snap.Vars)
				}
			},
		},
		{
			name: "accept-and-replying-bind", src: progAcceptOnly,
			rt: func() *fakeRT {
				return &fakeRT{
					inputs: []map[string]string{{"CODE": "c1"}},
					sendReply: func(string, map[string]string) (map[string]string, error) {
						return map[string]string{"ECHO": "e1"}, nil
					},
				}
			},
			prior: func() *fakeRT { return &fakeRT{inputs: []map[string]string{{}}} },
			check: func(t *testing.T, o outcome) {
				if o.Err != "<nil>" || len(o.Displays) != 1 || o.Displays[0] != "c1/e1" {
					t.Errorf("err = %s, displays = %q; want nil, [c1/e1]", o.Err, o.Displays)
				}
			},
		},
		{
			name: "undefined-in-unexecuted-else", src: progUnexecutedElse,
			check: func(t *testing.T, o outcome) {
				if o.Err != "<nil>" || len(o.Displays) != 1 {
					t.Errorf("err = %s, displays = %q; want the THEN branch and no error", o.Err, o.Displays)
				}
			},
		},
		{
			name: "restart-restores-input", src: progRestoreInput, opts: Options{MaxRestarts: 3},
			rt: func() *fakeRT {
				return &fakeRT{inputs: []map[string]string{{"ACCT": "777"}}, sendReply: failFirst(1)}
			},
			check: func(t *testing.T, o outcome) {
				if len(o.Sends) != 2 || o.Sends[1]["ACCT"] != "777" {
					t.Errorf("sends = %v, want the restarted attempt to send the accepted 777", o.Sends)
				}
				if o.Vars["ACCT"] != "changed" || o.Snap.Vars["ACCT"] != "777" {
					t.Errorf("ACCT = %q, snapshot ACCT = %q; want changed, 777", o.Vars["ACCT"], o.Snap.Vars["ACCT"])
				}
			},
		},
		{
			name: "restart-keeps-later-binding", src: progLaterBinding, opts: Options{MaxRestarts: 3},
			rt: func() *fakeRT {
				sent := 0
				return &fakeRT{sendReply: func(string, map[string]string) (map[string]string, error) {
					if sent++; sent == 1 {
						return map[string]string{"ECHO": "e1"}, nil
					}
					return nil, errors.New("server down")
				}}
			},
			check: func(t *testing.T, o outcome) {
				if o.Err != "<nil>" || len(o.Displays) != 1 || o.Displays[0] != "e1" {
					t.Errorf("err = %s, displays = %q; want nil, [e1]", o.Err, o.Displays)
				}
			},
		},
	}
}

func observe(e *Exec, rt *fakeRT, err error) outcome {
	vars := make(map[string]string, len(e.prog.names))
	for _, n := range e.prog.names {
		vars[n] = e.Var(n)
	}
	return outcome{
		Displays: rt.displays, Sends: rt.sends, Begins: rt.begins, Vars: vars, Snap: e.Snapshot(),
		Err: fmt.Sprint(err), Begun: rt.begun, Ended: rt.ended, Aborted: rt.aborted,
	}
}

// TestResetMatchesFresh proves the slot compiler's reuse equivalent: every
// program runs once on a fresh Exec and once on an Exec that already ran
// and was Reset, and the two runs must look the same to the host (DISPLAY
// output, SEND requests, transaction verbs, BEGIN snapshots) and to an
// inspector (every Var, the final Snapshot, the error).
func TestResetMatchesFresh(t *testing.T) {
	for _, c := range diffCases() {
		t.Run(c.name, func(t *testing.T) {
			prog := MustParse(c.src)
			script := c.rt
			if script == nil {
				script = func() *fakeRT { return &fakeRT{} }
			}
			prior := c.prior
			if prior == nil {
				prior = script
			}
			onBegin := func(rt *relay) func(Snapshot) {
				return func(s Snapshot) { rt.begins = append(rt.begins, s) }
			}

			freshRT := &relay{script()}
			fresh := NewExec(prog, freshRT, c.opts)
			fresh.OnBegin = onBegin(freshRT)
			want := observe(fresh, freshRT.fakeRT, fresh.Run())

			reusedRT := &relay{prior()}
			reused := NewExec(prog, reusedRT, c.opts)
			reused.OnBegin = onBegin(reusedRT)
			_ = reused.Run()
			reusedRT.fakeRT = script()
			reused.Reset()
			got := observe(reused, reusedRT.fakeRT, reused.Run())

			if !reflect.DeepEqual(got, want) {
				t.Errorf("reused run differs from fresh run:\n got %+v\nwant %+v", got, want)
			}
			if c.check != nil {
				c.check(t, want)
			}
		})
	}
}
