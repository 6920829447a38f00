package scobol

import (
	"cmp"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Runtime is what the interpreter needs from its host (the Terminal
// Control Process): terminal I/O, server SENDs, and the TMF verbs.
type Runtime interface {
	// Accept reads the named fields from the terminal. The interpreter
	// only reads the returned map, and only under the screen's field
	// names, so a host may return a map it keeps and reuses.
	Accept(screen string, fields []string) (map[string]string, error)
	// Display writes a line to the terminal.
	Display(text string)
	// Send delivers a request message to a server class and returns the
	// reply fields. An error becomes the SEND-STATUS special register.
	Send(server string, req map[string]string) (map[string]string, error)
	// Begin starts a transaction; the returned string is the new transid
	// (the TRANSACTIONID special register).
	Begin() (string, error)
	// End runs END-TRANSACTION; an error means the system aborted the
	// transaction and the program restarts at BEGIN-TRANSACTION.
	End() error
	// Abort backs the transaction out voluntarily.
	Abort() error
}

// Special registers.
const (
	RegTransactionID = "TRANSACTIONID"
	RegSendStatus    = "SEND-STATUS"
	// SendOK is SEND-STATUS after a successful SEND.
	SendOK = "OK"
)

// Interpreter errors.
var (
	ErrStopped         = errors.New("scobol: STOP RUN")
	ErrRestartExceeded = errors.New("scobol: transaction restart limit exceeded")
	ErrUndefinedVar    = errors.New("scobol: undefined variable")
	ErrNotNumeric      = errors.New("scobol: value is not numeric")
	ErrNoScreen        = errors.New("scobol: undefined screen")
	ErrNoTransaction   = errors.New("scobol: verb outside transaction mode")
	ErrNestedBegin     = errors.New("scobol: BEGIN-TRANSACTION while in transaction mode")
)

// errRestart is the internal signal raised by RESTART-TRANSACTION and by a
// rejected END-TRANSACTION.
var errRestart = errors.New("scobol: restart requested")

// Snapshot captures an execution's restart point; the TCP checkpoints it
// to its backup so a takeover restarts the program at BEGIN-TRANSACTION
// without re-entering input screens.
type Snapshot struct {
	Vars     map[string]string
	BeginIdx int // top-level index of the active BEGIN-TRANSACTION, -1 none
	Restarts int
}

// Options configures an execution.
type Options struct {
	// MaxRestarts is the paper's configurable transaction restart limit.
	MaxRestarts int
	// Resume starts execution at the snapshot's BEGIN-TRANSACTION with the
	// snapshot's variables (TCP takeover path).
	Resume *Snapshot
}

// Exec is one program execution for one terminal. Its variables are a
// frame of slots, one per name the program uses (Parse assigns them), and
// BEGIN-TRANSACTION captures the frame into a second, retained one.
type Exec struct {
	prog *Program
	rt   Runtime
	opts Options

	frame []slot
	begin []slot // frame as the last BEGIN-TRANSACTION captured it
	// extra holds resumed variables the program never names: only Var
	// and Snapshot can see them.
	extra map[string]string

	inTx     bool
	beginIdx int
	begun    bool // begin holds a capture
	restarts int

	// OnBegin, when set, is called with the restart snapshot each time a
	// transaction begins; the TCP uses it to checkpoint the restart point.
	OnBegin func(Snapshot)
}

// NewExec prepares an execution of prog against rt.
func NewExec(prog *Program, rt Runtime, opts Options) *Exec {
	n := len(prog.init)
	buf := make([]slot, 2*n)
	e := &Exec{prog: prog, rt: rt, opts: opts, frame: buf[:n:n], begin: buf[n:]}
	e.Reset()
	return e
}

// Reset returns e to the state NewExec left it in, keeping its runtime,
// options and OnBegin, so a host runs the program again without
// allocating.
func (e *Exec) Reset() {
	copy(e.frame, e.prog.init)
	e.extra = nil
	e.inTx, e.beginIdx, e.begun, e.restarts = false, -1, false, 0
}

// Snapshot returns the current restart point.
func (e *Exec) Snapshot() Snapshot {
	src := e.frame
	if e.begun {
		src = e.begin
	}
	vars := make(map[string]string, len(src)+len(e.extra))
	for i, s := range src {
		if s.set {
			vars[e.prog.names[i]] = s.val
		}
	}
	for k, v := range e.extra {
		vars[k] = v
	}
	return Snapshot{Vars: vars, BeginIdx: e.beginIdx, Restarts: e.restarts}
}

// Var reads a variable's current value (after Run, for inspection).
func (e *Exec) Var(name string) string {
	name = strings.ToUpper(name)
	if i, ok := e.prog.slots[name]; ok {
		return e.frame[i].val
	}
	return e.extra[name]
}

// Run executes the program. It returns nil on normal completion or STOP
// RUN, ErrRestartExceeded if the restart limit was exhausted, or the first
// hard error.
func (e *Exec) Run() error {
	start := 0
	if r := e.opts.Resume; r != nil {
		clear(e.frame)
		e.extra = nil
		for k, v := range r.Vars {
			if i, ok := e.prog.slots[k]; ok {
				e.frame[i] = slot{v, true}
				continue
			}
			if e.extra == nil {
				e.extra = make(map[string]string)
			}
			e.extra[k] = v
		}
		e.restarts = r.Restarts
		if r.BeginIdx >= 0 {
			start = r.BeginIdx
		}
	}
	for {
		err := e.runStmts(e.prog.Proc, start, true)
		switch {
		case err == nil || errors.Is(err, ErrStopped):
			return nil
		case errors.Is(err, errRestart):
			e.restarts++
			if e.opts.MaxRestarts > 0 && e.restarts > e.opts.MaxRestarts {
				return fmt.Errorf("%w (after %d attempts)", ErrRestartExceeded, e.restarts)
			}
			// Restore the variables captured at BEGIN-TRANSACTION and
			// resume at that statement: accepted screen input survives. A
			// name first bound after BEGIN keeps its value.
			if e.beginIdx < 0 {
				return fmt.Errorf("scobol: restart outside transaction mode")
			}
			for i, s := range e.begin {
				if s.set {
					e.frame[i] = s
				}
			}
			e.inTx = false
			start = e.beginIdx
		default:
			return err
		}
	}
}

// bind sets slot i, bringing its name into existence.
func (e *Exec) bind(i int, val string) { e.frame[i] = slot{val, true} }

// runStmts executes a statement list. topLevel marks the PROC body, where
// BEGIN-TRANSACTION restart points are legal.
func (e *Exec) runStmts(stmts []Stmt, start int, topLevel bool) error {
	for i := start; i < len(stmts); i++ {
		if err := e.runStmt(stmts[i], i, topLevel); err != nil {
			return err
		}
	}
	return nil
}

func (e *Exec) runStmt(s Stmt, idx int, topLevel bool) error {
	switch st := s.(type) {
	case *AcceptStmt:
		if !st.known {
			return fmt.Errorf("%w: %s (line %d)", ErrNoScreen, st.Screen, st.Line)
		}
		in, err := e.rt.Accept(st.Screen, st.fields)
		if err != nil {
			return err
		}
		for i, f := range st.fields {
			if v, ok := in[strings.ToUpper(f)]; ok {
				e.bind(st.slots[i], v)
			} else if v, ok := in[f]; ok {
				e.bind(st.slots[i], v)
			}
		}
		return nil
	case *DisplayStmt:
		var sb strings.Builder
		for _, a := range st.Args {
			v, err := e.eval(a)
			if err != nil {
				return err
			}
			sb.WriteString(v)
		}
		e.rt.Display(sb.String())
		return nil
	case *MoveStmt:
		v, err := e.eval(st.Src)
		if err != nil {
			return err
		}
		return e.assign(st.dst, st.Dst, v, st.Line)
	case *ComputeStmt:
		v, err := e.eval(st.Expr)
		if err != nil {
			return err
		}
		return e.assign(st.dst, st.Dst, v, st.Line)
	case *IfStmt:
		c, err := e.eval(st.Cond)
		if err != nil {
			return err
		}
		if truthy(c) {
			return e.runStmts(st.Then, 0, false)
		}
		return e.runStmts(st.Else, 0, false)
	case *PerformUntilStmt:
		const loopGuard = 1 << 20
		for i := 0; ; i++ {
			if i >= loopGuard {
				return fmt.Errorf("scobol: PERFORM UNTIL exceeded %d iterations (line %d)", loopGuard, st.Line)
			}
			c, err := e.eval(st.Cond)
			if err != nil {
				return err
			}
			if truthy(c) {
				return nil
			}
			if err := e.runStmts(st.Body, 0, false); err != nil {
				return err
			}
		}
	case *PerformStmt:
		nStr, err := e.eval(st.Times)
		if err != nil {
			return err
		}
		n, err := strconv.Atoi(strings.TrimSpace(nStr))
		if err != nil {
			return fmt.Errorf("%w: PERFORM %q TIMES (line %d)", ErrNotNumeric, nStr, st.Line)
		}
		for i := 0; i < n; i++ {
			if err := e.runStmts(st.Body, 0, false); err != nil {
				return err
			}
		}
		return nil
	case *BeginStmt:
		if e.inTx {
			return fmt.Errorf("%w (line %d)", ErrNestedBegin, st.Line)
		}
		if !topLevel {
			return fmt.Errorf("scobol: BEGIN-TRANSACTION must be at the top level of PROC (line %d)", st.Line)
		}
		// Capture the restart point before beginning.
		e.beginIdx = idx
		copy(e.begin, e.frame)
		e.begun = true
		id, err := e.rt.Begin()
		if err != nil {
			return err
		}
		e.inTx = true
		e.bind(e.prog.transID, id)
		if e.OnBegin != nil {
			e.OnBegin(e.Snapshot())
		}
		return nil
	case *EndStmt:
		if !e.inTx {
			return fmt.Errorf("%w: END-TRANSACTION (line %d)", ErrNoTransaction, st.Line)
		}
		if err := e.rt.End(); err != nil {
			// "The Screen COBOL program's END-TRANSACTION request can be
			// rejected because the transaction has been aborted by the
			// system ... the program may be restarted at the
			// BEGIN-TRANSACTION point."
			return errRestart
		}
		e.inTx = false
		e.bind(e.prog.transID, "")
		return nil
	case *AbortStmt:
		if !e.inTx {
			return fmt.Errorf("%w: ABORT-TRANSACTION (line %d)", ErrNoTransaction, st.Line)
		}
		if err := e.rt.Abort(); err != nil {
			return err
		}
		e.inTx = false
		e.bind(e.prog.transID, "")
		return nil
	case *RestartStmt:
		if !e.inTx {
			return fmt.Errorf("%w: RESTART-TRANSACTION (line %d)", ErrNoTransaction, st.Line)
		}
		_ = e.rt.Abort() // back out, then restart at BEGIN
		e.inTx = false
		return errRestart
	case *StopStmt:
		return ErrStopped
	case *SendStmt:
		op, err := e.eval(st.Op)
		if err != nil {
			return err
		}
		server, err := e.eval(st.Server)
		if err != nil {
			return err
		}
		// The request is fresh per SEND: the server class owns it once
		// Send returns.
		req := make(map[string]string, 1+len(st.Using))
		req["OP"] = op
		for i, v := range st.Using {
			s := e.frame[st.using[i]]
			if !s.set {
				return fmt.Errorf("%w: %s (line %d)", ErrUndefinedVar, v, st.Line)
			}
			req[v] = s.val
		}
		reply, err := e.rt.Send(server, req)
		if err != nil {
			e.bind(e.prog.sendStatus, err.Error())
			return nil
		}
		e.bind(e.prog.sendStatus, SendOK)
		for i, v := range st.Replying {
			if rv, ok := reply[v]; ok {
				e.bind(st.replying[i], rv)
			} else if rv, ok := reply[st.replyKeys[i]]; ok {
				e.bind(st.replying[i], rv)
			}
		}
		return nil
	default:
		return fmt.Errorf("scobol: unhandled statement %T", s)
	}
}

// assign sets the existing variable in slot i, named name.
func (e *Exec) assign(i int, name, val string, line int) error {
	if !e.frame[i].set {
		return fmt.Errorf("%w: %s (line %d)", ErrUndefinedVar, name, line)
	}
	e.frame[i].val = val
	return nil
}

func truthy(s string) bool { return s == "1" || strings.EqualFold(s, "TRUE") }

func boolStr(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

func (e *Exec) eval(x Expr) (string, error) {
	switch ex := x.(type) {
	case *LitExpr:
		return ex.Val, nil
	case *VarExpr:
		s := e.frame[ex.slot]
		if !s.set {
			return "", fmt.Errorf("%w: %s (line %d)", ErrUndefinedVar, ex.Name, ex.Line)
		}
		return s.val, nil
	case *BinExpr:
		l, err := e.eval(ex.L)
		if err != nil {
			return "", err
		}
		r, err := e.eval(ex.R)
		if err != nil {
			return "", err
		}
		switch ex.Op {
		case "AND":
			return boolStr(truthy(l) && truthy(r)), nil
		case "OR":
			return boolStr(truthy(l) || truthy(r)), nil
		case "=":
			return boolStr(compare(l, r) == 0), nil
		case "<>":
			return boolStr(compare(l, r) != 0), nil
		case "<":
			return boolStr(compare(l, r) < 0), nil
		case ">":
			return boolStr(compare(l, r) > 0), nil
		case "<=":
			return boolStr(compare(l, r) <= 0), nil
		case ">=":
			return boolStr(compare(l, r) >= 0), nil
		case "+", "-", "*", "/":
			li, lerr := strconv.Atoi(strings.TrimSpace(l))
			ri, rerr := strconv.Atoi(strings.TrimSpace(r))
			if lerr != nil || rerr != nil {
				return "", fmt.Errorf("%w: %q %s %q (line %d)", ErrNotNumeric, l, ex.Op, r, ex.Line)
			}
			switch ex.Op {
			case "+":
				return strconv.Itoa(li + ri), nil
			case "-":
				return strconv.Itoa(li - ri), nil
			case "*":
				return strconv.Itoa(li * ri), nil
			default:
				if ri == 0 {
					return "", fmt.Errorf("scobol: division by zero (line %d)", ex.Line)
				}
				return strconv.Itoa(li / ri), nil
			}
		default:
			return "", fmt.Errorf("scobol: unknown operator %q (line %d)", ex.Op, ex.Line)
		}
	default:
		return "", fmt.Errorf("scobol: unhandled expression %T", x)
	}
}

// compare compares numerically when both sides parse as integers,
// lexically otherwise — COBOL's usage for PIC 9 vs PIC X comparisons.
func compare(l, r string) int {
	lt, rt := strings.TrimSpace(l), strings.TrimSpace(r)
	if isInt(lt) && isInt(rt) {
		li, lerr := strconv.Atoi(lt)
		ri, rerr := strconv.Atoi(rt)
		if lerr == nil && rerr == nil { // out-of-range integers compare lexically
			return cmp.Compare(li, ri)
		}
	}
	return strings.Compare(l, r)
}

// isInt reports whether s has strconv.Atoi's syntax, an optional sign and
// one or more decimal digits. It screens compare's operands because Atoi
// allocates an error for every text operand it rejects.
func isInt(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
