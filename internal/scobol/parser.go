package scobol

import "strconv"

// Parse compiles Screen COBOL source into a Program. Names are resolved
// to slots here, but whether a name exists is still decided at run time:
// a reference to a name nothing declares fails with ErrUndefinedVar only
// when it executes.
func Parse(src string) (*Program, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, slots: make(map[string]int), screens: make(map[string]Screen)}
	return p.program()
}

// MustParse is Parse for program constants; it panics on error.
func MustParse(src string) *Program {
	prog, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return prog
}

type parser struct {
	toks []token
	pos  int

	names   []string          // slot -> name
	slots   map[string]int    // name -> slot
	screens map[string]Screen // by name; a later declaration wins
}

// slot returns name's slot, assigning the next one on first use.
func (p *parser) slot(name string) int {
	if i, ok := p.slots[name]; ok {
		return i
	}
	i := len(p.names)
	p.names = append(p.names, name)
	p.slots[name] = i
	return i
}

func (p *parser) slotsOf(names []string) []int {
	out := make([]int, len(names))
	for i, n := range names {
		out[i] = p.slot(n)
	}
	return out
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) expectWord(w string) error {
	t := p.next()
	if t.kind != tokWord || t.text != w {
		return errAt(t.line, "expected %s, got %s", w, t)
	}
	return nil
}

func (p *parser) expectPeriod() error {
	t := p.next()
	if t.kind != tokPeriod {
		return errAt(t.line, "expected '.', got %s", t)
	}
	return nil
}

func (p *parser) atWord(w string) bool {
	t := p.cur()
	return t.kind == tokWord && t.text == w
}

func (p *parser) word() (string, error) {
	t := p.next()
	if t.kind != tokWord {
		return "", errAt(t.line, "expected a name, got %s", t)
	}
	return t.text, nil
}

func (p *parser) program() (*Program, error) {
	prog := &Program{}
	if err := p.expectWord("PROGRAM"); err != nil {
		return nil, err
	}
	name, err := p.word()
	if err != nil {
		return nil, err
	}
	prog.Name = name
	if err := p.expectPeriod(); err != nil {
		return nil, err
	}

	if p.atWord("WORKING-STORAGE") {
		p.next()
		if err := p.expectPeriod(); err != nil {
			return nil, err
		}
		for p.cur().kind == tokNumber {
			vd, err := p.varDecl()
			if err != nil {
				return nil, err
			}
			prog.Vars = append(prog.Vars, vd)
		}
	}

	for p.atWord("SCREEN") {
		sc, err := p.screen()
		if err != nil {
			return nil, err
		}
		prog.Screens = append(prog.Screens, sc)
		p.screens[sc.Name] = sc
	}
	// The declarations' and the registers' slots come first, in the order
	// a fresh execution binds them.
	for _, vd := range prog.Vars {
		p.slot(vd.Name)
	}
	prog.sendStatus, prog.transID = p.slot(RegSendStatus), p.slot(RegTransactionID)

	if err := p.expectWord("PROC"); err != nil {
		return nil, err
	}
	if err := p.expectPeriod(); err != nil {
		return nil, err
	}
	body, err := p.stmts("END-PROC")
	if err != nil {
		return nil, err
	}
	prog.Proc = body
	if err := p.expectWord("END-PROC"); err != nil {
		return nil, err
	}
	if err := p.expectPeriod(); err != nil {
		return nil, err
	}
	prog.names, prog.slots = p.names, p.slots
	prog.init = make([]slot, len(p.names))
	for _, vd := range prog.Vars {
		prog.init[p.slots[vd.Name]] = slot{vd.Value, true}
	}
	prog.init[prog.sendStatus] = slot{SendOK, true}
	prog.init[prog.transID] = slot{"", true}
	return prog, nil
}

// varDecl: 01 name PIC 9(6) [VALUE "x"| VALUE 5].
func (p *parser) varDecl() (VarDecl, error) {
	lvl := p.next() // level number, e.g. 01
	if lvl.kind != tokNumber {
		return VarDecl{}, errAt(lvl.line, "expected level number")
	}
	name, err := p.word()
	if err != nil {
		return VarDecl{}, err
	}
	vd := VarDecl{Name: name, Width: 8}
	if err := p.expectWord("PIC"); err != nil {
		return VarDecl{}, err
	}
	pic := p.next()
	if pic.kind != tokWord && pic.kind != tokNumber {
		return VarDecl{}, errAt(pic.line, "expected picture clause")
	}
	switch pic.text {
	case "9":
		vd.Numeric = true
		vd.Value = "0"
	case "X":
		vd.Numeric = false
	default:
		return VarDecl{}, errAt(pic.line, "unsupported picture %q (use 9 or X)", pic.text)
	}
	if p.cur().kind == tokLParen {
		p.next()
		w := p.next()
		if w.kind != tokNumber {
			return VarDecl{}, errAt(w.line, "expected width in picture")
		}
		vd.Width, _ = strconv.Atoi(w.text)
		if t := p.next(); t.kind != tokRParen {
			return VarDecl{}, errAt(t.line, "expected ')' in picture")
		}
	}
	if p.atWord("VALUE") {
		p.next()
		v := p.next()
		if v.kind != tokString && v.kind != tokNumber {
			return VarDecl{}, errAt(v.line, "expected literal after VALUE")
		}
		vd.Value = v.text
	}
	if err := p.expectPeriod(); err != nil {
		return VarDecl{}, err
	}
	return vd, nil
}

func (p *parser) screen() (Screen, error) {
	p.next() // SCREEN
	name, err := p.word()
	if err != nil {
		return Screen{}, err
	}
	if err := p.expectPeriod(); err != nil {
		return Screen{}, err
	}
	sc := Screen{Name: name}
	for p.atWord("FIELD") {
		p.next()
		f, err := p.word()
		if err != nil {
			return Screen{}, err
		}
		if err := p.expectPeriod(); err != nil {
			return Screen{}, err
		}
		sc.Fields = append(sc.Fields, f)
	}
	if err := p.expectWord("END-SCREEN"); err != nil {
		return Screen{}, err
	}
	if err := p.expectPeriod(); err != nil {
		return Screen{}, err
	}
	return sc, nil
}

// stmts parses statements until one of the stop words (not consumed).
func (p *parser) stmts(stopWords ...string) ([]Stmt, error) {
	stop := make(map[string]bool, len(stopWords))
	for _, w := range stopWords {
		stop[w] = true
	}
	var out []Stmt
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return nil, errAt(t.line, "unexpected end of program (missing %s?)", stopWords[0])
		}
		if t.kind == tokWord && stop[t.text] {
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	if t.kind != tokWord {
		return nil, errAt(t.line, "expected a statement, got %s", t)
	}
	base := stmtBase{Line: t.line}
	switch t.text {
	case "ACCEPT":
		p.next()
		sc, err := p.word()
		if err != nil {
			return nil, err
		}
		st := &AcceptStmt{stmtBase: base, Screen: sc}
		if decl, ok := p.screens[sc]; ok {
			st.fields, st.slots, st.known = decl.Fields, p.slotsOf(decl.Fields), true
		}
		return st, p.expectPeriod()
	case "DISPLAY":
		p.next()
		var args []Expr
		for {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			args = append(args, e)
			if p.cur().kind == tokComma {
				p.next()
				continue
			}
			break
		}
		return &DisplayStmt{base, args}, p.expectPeriod()
	case "MOVE":
		p.next()
		src, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TO"); err != nil {
			return nil, err
		}
		dst, err := p.word()
		if err != nil {
			return nil, err
		}
		return &MoveStmt{base, src, dst, p.slot(dst)}, p.expectPeriod()
	case "COMPUTE":
		p.next()
		dst, err := p.word()
		if err != nil {
			return nil, err
		}
		if op := p.next(); op.kind != tokOp || op.text != "=" {
			return nil, errAt(op.line, "expected '=' in COMPUTE")
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &ComputeStmt{base, dst, e, p.slot(dst)}, p.expectPeriod()
	case "IF":
		p.next()
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if p.atWord("THEN") {
			p.next()
		}
		thenStmts, err := p.stmts("ELSE", "END-IF")
		if err != nil {
			return nil, err
		}
		var elseStmts []Stmt
		if p.atWord("ELSE") {
			p.next()
			elseStmts, err = p.stmts("END-IF")
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectWord("END-IF"); err != nil {
			return nil, err
		}
		return &IfStmt{base, cond, thenStmts, elseStmts}, p.expectPeriod()
	case "PERFORM":
		p.next()
		if p.atWord("UNTIL") {
			p.next()
			cond, err := p.expr()
			if err != nil {
				return nil, err
			}
			body, err := p.stmts("END-PERFORM")
			if err != nil {
				return nil, err
			}
			if err := p.expectWord("END-PERFORM"); err != nil {
				return nil, err
			}
			return &PerformUntilStmt{base, cond, body}, p.expectPeriod()
		}
		times, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TIMES"); err != nil {
			return nil, err
		}
		body, err := p.stmts("END-PERFORM")
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("END-PERFORM"); err != nil {
			return nil, err
		}
		return &PerformStmt{base, times, body}, p.expectPeriod()
	case "BEGIN-TRANSACTION":
		p.next()
		return &BeginStmt{base}, p.expectPeriod()
	case "END-TRANSACTION":
		p.next()
		return &EndStmt{base}, p.expectPeriod()
	case "ABORT-TRANSACTION":
		p.next()
		return &AbortStmt{base}, p.expectPeriod()
	case "RESTART-TRANSACTION":
		p.next()
		return &RestartStmt{base}, p.expectPeriod()
	case "STOP":
		p.next()
		if err := p.expectWord("RUN"); err != nil {
			return nil, err
		}
		return &StopStmt{base}, p.expectPeriod()
	case "SEND":
		p.next()
		op, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expectWord("TO"); err != nil {
			return nil, err
		}
		if p.atWord("SERVER") {
			p.next()
		}
		server, err := p.expr()
		if err != nil {
			return nil, err
		}
		st := &SendStmt{stmtBase: base, Op: op, Server: server}
		if p.atWord("USING") {
			p.next()
			for {
				v, err := p.word()
				if err != nil {
					return nil, err
				}
				st.Using = append(st.Using, v)
				if p.cur().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		if p.atWord("REPLYING") {
			p.next()
			for {
				v, err := p.word()
				if err != nil {
					return nil, err
				}
				st.Replying = append(st.Replying, v)
				if p.cur().kind == tokComma {
					p.next()
					continue
				}
				break
			}
		}
		st.using, st.replying = p.slotsOf(st.Using), p.slotsOf(st.Replying)
		st.replyKeys = make([]string, len(st.Replying))
		for i := range st.replyKeys {
			st.replyKeys[i] = "R" + strconv.Itoa(i+1)
		}
		return st, p.expectPeriod()
	default:
		return nil, errAt(t.line, "unknown statement %q", t.text)
	}
}

// expr parses with precedence: OR < AND < comparison < additive < term.
func (p *parser) expr() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.atWord("OR") {
		line := p.next().line
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{exprBase{line}, "OR", l, r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for p.atWord("AND") {
		line := p.next().line
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{exprBase{line}, "AND", l, r}
	}
	return l, nil
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.cur()
	if t.kind == tokOp {
		switch t.text {
		case "=", "<>", "<", ">", "<=", ">=":
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return &BinExpr{exprBase{t.line}, t.text, l, r}, nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokOp && (t.text == "+" || t.text == "-") {
			p.next()
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{exprBase{t.line}, t.text, l, r}
			continue
		}
		return l, nil
	}
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.term()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind == tokOp && (t.text == "*" || t.text == "/") {
			p.next()
			r, err := p.term()
			if err != nil {
				return nil, err
			}
			l = &BinExpr{exprBase{t.line}, t.text, l, r}
			continue
		}
		return l, nil
	}
}

func (p *parser) term() (Expr, error) {
	t := p.next()
	switch t.kind {
	case tokString, tokNumber:
		return &LitExpr{exprBase{t.line}, t.text}, nil
	case tokWord:
		return &VarExpr{exprBase{t.line}, t.text, p.slot(t.text)}, nil
	case tokLParen:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if c := p.next(); c.kind != tokRParen {
			return nil, errAt(c.line, "expected ')'")
		}
		return e, nil
	default:
		return nil, errAt(t.line, "expected an expression, got %s", t)
	}
}
