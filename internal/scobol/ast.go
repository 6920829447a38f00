package scobol

// Program is a parsed Screen COBOL program. Parse compiles every name
// the program uses (working-storage items, screen fields, USING and
// REPLYING names, special registers) to a slot of an execution's frame,
// so an execution reads and writes names by index, never by map.
type Program struct {
	Name    string
	Vars    []VarDecl
	Screens []Screen
	Proc    []Stmt

	names      []string       // slot -> name
	slots      map[string]int // name -> slot
	init       []slot         // a fresh execution's frame
	sendStatus int            // slot of SEND-STATUS
	transID    int            // slot of TRANSACTIONID
}

// slot is one name's value in an execution's frame. set is the name's
// existence: a working-storage item and a special register exist from the
// start, a name that only ACCEPT or REPLYING binds from its first bind,
// and reading or assigning a name that does not exist is ErrUndefinedVar.
type slot struct {
	val string
	set bool
}

// VarDecl is a WORKING-STORAGE item: 01 <name> PIC 9(n)|X(n) [VALUE lit].
type VarDecl struct {
	Name    string
	Numeric bool
	Width   int
	Value   string
}

// Screen declares a named screen and the fields it accepts.
type Screen struct {
	Name   string
	Fields []string
}

// Stmt is one Screen COBOL statement.
type Stmt interface{ stmtLine() int }

type stmtBase struct{ Line int }

func (s stmtBase) stmtLine() int { return s.Line }

// AcceptStmt reads a screen's fields from the terminal.
type AcceptStmt struct {
	stmtBase
	Screen string

	fields []string // the screen's fields; nil for an undefined screen
	slots  []int    // fields[i] binds slot slots[i]
	known  bool     // the screen is declared
}

// DisplayStmt writes expressions to the terminal.
type DisplayStmt struct {
	stmtBase
	Args []Expr
}

// MoveStmt assigns: MOVE <expr> TO <var>.
type MoveStmt struct {
	stmtBase
	Src Expr
	Dst string
	dst int
}

// ComputeStmt assigns an arithmetic result: COMPUTE <var> = <expr>.
type ComputeStmt struct {
	stmtBase
	Dst  string
	Expr Expr
	dst  int
}

// IfStmt is IF <cond> THEN <stmts> [ELSE <stmts>] END-IF.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// PerformStmt is PERFORM <expr> TIMES <stmts> END-PERFORM.
type PerformStmt struct {
	stmtBase
	Times Expr
	Body  []Stmt
}

// PerformUntilStmt is PERFORM UNTIL <cond> <stmts> END-PERFORM: the body
// runs until the condition becomes true (COBOL's test-before semantics).
type PerformUntilStmt struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// BeginStmt is BEGIN-TRANSACTION.
type BeginStmt struct{ stmtBase }

// EndStmt is END-TRANSACTION.
type EndStmt struct{ stmtBase }

// AbortStmt is ABORT-TRANSACTION.
type AbortStmt struct{ stmtBase }

// RestartStmt is RESTART-TRANSACTION.
type RestartStmt struct{ stmtBase }

// StopStmt is STOP RUN.
type StopStmt struct{ stmtBase }

// SendStmt is SEND <op> TO SERVER <class> USING <vars> REPLYING <vars>.
// The request map carries the operation under "op" plus each USING
// variable; replies bind into the REPLYING variables positionally by the
// server's reply keys r1, r2, ... or by variable name when present.
type SendStmt struct {
	stmtBase
	Op       Expr
	Server   Expr
	Using    []string
	Replying []string

	using     []int    // slots of Using
	replying  []int    // slots of Replying
	replyKeys []string // positional reply keys R1, R2, ...
}

// Expr is an expression node.
type Expr interface{ exprLine() int }

type exprBase struct{ Line int }

func (e exprBase) exprLine() int { return e.Line }

// LitExpr is a string or numeric literal (stored as its string form).
type LitExpr struct {
	exprBase
	Val string
}

// VarExpr references a working-storage item or special register.
type VarExpr struct {
	exprBase
	Name string
	slot int
}

// BinExpr applies an operator: arithmetic (+ - * /), comparison
// (= <> < > <= >=), or logical (AND OR).
type BinExpr struct {
	exprBase
	Op   string
	L, R Expr
}
