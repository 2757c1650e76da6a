package verilog

import (
	"fmt"
	"strconv"
)

// ParseError describes a syntax error with its source position.
type ParseError struct {
	Pos Pos
	Msg string
}

func (e *ParseError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Parser is a recursive-descent parser over a token stream.
type Parser struct {
	toks []Token
	pos  int
}

// Parse parses Verilog source text into a Design.
func Parse(src string) (*Design, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	d := &Design{}
	for p.cur().Kind != EOF {
		m, err := p.parseModule()
		if err != nil {
			return nil, err
		}
		d.Modules = append(d.Modules, m)
	}
	return d, nil
}

// ParseExpr parses a single expression (used by tests and tools).
func ParseExpr(src string) (Expr, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != EOF {
		return nil, p.errorf("unexpected %s after expression", p.cur())
	}
	return e, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) advance() Token {
	t := p.toks[p.pos]
	if t.Kind != EOF {
		p.pos++
	}
	return t
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errorf("expected %s, found %s", k, p.cur())
	}
	return p.advance(), nil
}

func (p *Parser) errorf(format string, args ...any) error {
	return &ParseError{p.cur().Pos, fmt.Sprintf(format, args...)}
}

// parseModule parses: module name [#(params)] [(ports)] ; items endmodule
func (p *Parser) parseModule() (*Module, error) {
	start, err := p.expect(KWMODULE)
	if err != nil {
		return nil, err
	}
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	m := &Module{Name: name.Text, Pos: start.Pos}

	if p.accept(HASH) {
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		for {
			if !p.accept(KWPARAMETER) && len(m.Params) == 0 {
				return nil, p.errorf("expected parameter in module parameter list")
			}
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ASSIGNOP); err != nil {
				return nil, err
			}
			v, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			m.Params = append(m.Params, &Param{Name: pn.Text, Value: v})
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
	}

	if p.accept(LPAREN) {
		if err := p.parsePortList(m); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(SEMI); err != nil {
		return nil, err
	}

	for p.cur().Kind != KWENDMODULE {
		if p.cur().Kind == EOF {
			return nil, p.errorf("unexpected EOF inside module %s", m.Name)
		}
		if err := p.parseItem(m); err != nil {
			return nil, err
		}
	}
	p.advance() // endmodule
	return m, nil
}

// parsePortList handles both ANSI (input [3:0] a, output reg b) and
// non-ANSI (a, b, c) header styles, stopping at the closing paren.
func (p *Parser) parsePortList(m *Module) error {
	if p.accept(RPAREN) {
		return nil
	}
	ansi := p.cur().Kind == KWINPUT || p.cur().Kind == KWOUTPUT || p.cur().Kind == KWINOUT
	if !ansi {
		for {
			t, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			m.Ports = append(m.Ports, &Port{Name: t.Text, Dir: Input, Pos: t.Pos})
			if !p.accept(COMMA) {
				break
			}
		}
		_, err := p.expect(RPAREN)
		return err
	}
	// ANSI style.
	var dir Dir
	var rng *Range
	var isReg bool
	for {
		switch p.cur().Kind {
		case KWINPUT, KWOUTPUT, KWINOUT:
			switch p.advance().Kind {
			case KWINPUT:
				dir = Input
			case KWOUTPUT:
				dir = Output
			default:
				dir = Inout
			}
			isReg = false
			p.accept(KWWIRE)
			if p.accept(KWREG) {
				isReg = true
			}
			p.accept(KWSIGNED)
			rng = nil
			if p.cur().Kind == LBRACK {
				r, err := p.parseRange()
				if err != nil {
					return err
				}
				rng = r
			}
		}
		t, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		m.Ports = append(m.Ports, &Port{Name: t.Text, Dir: dir, Range: rng, IsReg: isReg, Pos: t.Pos})
		if !p.accept(COMMA) {
			break
		}
	}
	_, err := p.expect(RPAREN)
	return err
}

// parseRange parses [msb:lsb].
func (p *Parser) parseRange() (*Range, error) {
	if _, err := p.expect(LBRACK); err != nil {
		return nil, err
	}
	msb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(COLON); err != nil {
		return nil, err
	}
	lsb, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(RBRACK); err != nil {
		return nil, err
	}
	return &Range{MSB: msb, LSB: lsb}, nil
}

func (p *Parser) parseItem(m *Module) error {
	switch p.cur().Kind {
	case KWPARAMETER, KWLOCALPARAM:
		isLocal := p.advance().Kind == KWLOCALPARAM
		for {
			n, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			if _, err := p.expect(ASSIGNOP); err != nil {
				return err
			}
			v, err := p.parseExpr()
			if err != nil {
				return err
			}
			m.Params = append(m.Params, &Param{Name: n.Text, Value: v, IsLocal: isLocal})
			if !p.accept(COMMA) {
				break
			}
		}
		_, err := p.expect(SEMI)
		return err

	case KWINPUT, KWOUTPUT, KWINOUT:
		var dir Dir
		switch p.advance().Kind {
		case KWINPUT:
			dir = Input
		case KWOUTPUT:
			dir = Output
		default:
			dir = Inout
		}
		p.accept(KWWIRE)
		isReg := p.accept(KWREG)
		p.accept(KWSIGNED)
		var rng *Range
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			rng = r
		}
		for {
			n, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			found := false
			for _, pt := range m.Ports {
				if pt.Name == n.Text {
					pt.Dir = dir
					pt.Range = rng
					pt.IsReg = pt.IsReg || isReg
					found = true
					break
				}
			}
			if !found {
				return &ParseError{n.Pos, fmt.Sprintf("port %q declared in body but not in module header", n.Text)}
			}
			if !p.accept(COMMA) {
				break
			}
		}
		_, err := p.expect(SEMI)
		return err

	case KWWIRE, KWREG, KWINTEGER:
		kw := p.advance().Kind
		kind := Wire
		var rng *Range
		if kw == KWREG {
			kind = Reg
		}
		if kw == KWINTEGER {
			kind = Reg
			rng = &Range{MSB: Num(31), LSB: Num(0)}
		}
		p.accept(KWSIGNED)
		if p.cur().Kind == LBRACK {
			r, err := p.parseRange()
			if err != nil {
				return err
			}
			rng = r
		}
		decl := &NetDecl{Kind: kind, Range: rng, Pos: p.cur().Pos}
		var inits []*ContAssign
		for {
			n, err := p.expect(IDENT)
			if err != nil {
				return err
			}
			dn := DeclName{Name: n.Text}
			if p.cur().Kind == LBRACK {
				ar, err := p.parseRange()
				if err != nil {
					return err
				}
				dn.Array = ar
			}
			decl.Names = append(decl.Names, dn)
			if p.accept(ASSIGNOP) {
				if kind != Wire {
					return p.errorf("initializer only allowed on wire declarations")
				}
				rhs, err := p.parseExpr()
				if err != nil {
					return err
				}
				inits = append(inits, &ContAssign{LHS: ID(n.Text), RHS: rhs, Pos: n.Pos})
			}
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(SEMI); err != nil {
			return err
		}
		m.Items = append(m.Items, decl)
		for _, ca := range inits {
			m.Items = append(m.Items, ca)
		}
		return nil

	case KWASSIGN:
		p.advance()
		for {
			lhs, err := p.parseLValue()
			if err != nil {
				return err
			}
			if _, err := p.expect(ASSIGNOP); err != nil {
				return err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return err
			}
			m.Items = append(m.Items, &ContAssign{LHS: lhs, RHS: rhs, Pos: p.cur().Pos})
			if !p.accept(COMMA) {
				break
			}
		}
		_, err := p.expect(SEMI)
		return err

	case KWALWAYS:
		pos := p.advance().Pos
		a := &Always{Pos: pos}
		if _, err := p.expect(AT); err != nil {
			return err
		}
		if p.accept(STAR) {
			a.Star = true
		} else {
			if _, err := p.expect(LPAREN); err != nil {
				return err
			}
			if p.accept(STAR) {
				a.Star = true
			} else {
				for {
					ev := Event{Edge: EdgeNone}
					if p.accept(KWPOSEDGE) {
						ev.Edge = EdgePos
					} else if p.accept(KWNEGEDGE) {
						ev.Edge = EdgeNeg
					}
					sig, err := p.parseExpr()
					if err != nil {
						return err
					}
					ev.Sig = sig
					a.Events = append(a.Events, ev)
					if !p.accept(KWOR) && !p.accept(COMMA) {
						break
					}
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return err
			}
		}
		body, err := p.parseStmt()
		if err != nil {
			return err
		}
		a.Body = body
		m.Items = append(m.Items, a)
		return nil

	case KWINITIAL:
		pos := p.advance().Pos
		body, err := p.parseStmt()
		if err != nil {
			return err
		}
		m.Items = append(m.Items, &Always{Initial: true, Body: body, Pos: pos})
		return nil

	case IDENT:
		return p.parseInstance(m)

	case KWGENERATE, KWENDGENERATE, KWFUNCTION, KWGENVAR:
		return p.errorf("unsupported construct %s", p.cur().Kind)
	}
	return p.errorf("unexpected %s in module body", p.cur())
}

// parseInstance parses: ModName [#(overrides)] InstName ( conns ) [, InstName (conns)] ;
func (p *Parser) parseInstance(m *Module) error {
	modTok, err := p.expect(IDENT)
	if err != nil {
		return err
	}
	var params []Connection
	if p.accept(HASH) {
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		params, err = p.parseConnections()
		if err != nil {
			return err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
	}
	for {
		instTok, err := p.expect(IDENT)
		if err != nil {
			return err
		}
		if _, err := p.expect(LPAREN); err != nil {
			return err
		}
		conns, err := p.parseConnections()
		if err != nil {
			return err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return err
		}
		m.Items = append(m.Items, &Instance{
			Module: modTok.Text, Name: instTok.Text,
			Params: params, Conns: conns, Pos: instTok.Pos,
		})
		if !p.accept(COMMA) {
			break
		}
	}
	_, err = p.expect(SEMI)
	return err
}

// parseConnections parses a (possibly empty) comma-separated list of
// .name(expr) or positional expr connections.
func (p *Parser) parseConnections() ([]Connection, error) {
	var conns []Connection
	if p.cur().Kind == RPAREN {
		return conns, nil
	}
	for {
		if p.accept(DOT) {
			n, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(LPAREN); err != nil {
				return nil, err
			}
			var e Expr
			if p.cur().Kind != RPAREN {
				var err error
				e, err = p.parseExpr()
				if err != nil {
					return nil, err
				}
			}
			if _, err := p.expect(RPAREN); err != nil {
				return nil, err
			}
			conns = append(conns, Connection{Port: n.Text, Expr: e})
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			conns = append(conns, Connection{Expr: e})
		}
		if !p.accept(COMMA) {
			break
		}
	}
	return conns, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	switch p.cur().Kind {
	case SEMI:
		p.advance()
		return &Null{}, nil

	case KWBEGIN:
		p.advance()
		b := &Block{}
		if p.accept(COLON) {
			lbl, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			b.Label = lbl.Text
		}
		for p.cur().Kind != KWEND {
			if p.cur().Kind == EOF {
				return nil, p.errorf("unexpected EOF inside begin/end")
			}
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			b.Stmts = append(b.Stmts, s)
		}
		p.advance()
		return b, nil

	case KWIF:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.accept(KWELSE) {
			el, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = el
		}
		return st, nil

	case KWCASE, KWCASEZ, KWCASEX:
		z := p.advance().Kind != KWCASE
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		subj, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		c := &Case{Subject: subj, Z: z}
		for p.cur().Kind != KWENDCASE {
			if p.cur().Kind == EOF {
				return nil, p.errorf("unexpected EOF inside case")
			}
			item := CaseItem{}
			if p.accept(KWDEFAULT) {
				p.accept(COLON)
			} else {
				for {
					e, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					item.Exprs = append(item.Exprs, e)
					if !p.accept(COMMA) {
						break
					}
				}
				if _, err := p.expect(COLON); err != nil {
					return nil, err
				}
			}
			body, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			item.Body = body
			c.Items = append(c.Items, item)
		}
		p.advance()
		return c, nil

	case KWFOR:
		p.advance()
		if _, err := p.expect(LPAREN); err != nil {
			return nil, err
		}
		init, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		step, err := p.parseSimpleAssign()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &For{Init: init, Cond: cond, Step: step, Body: body}, nil

	default:
		a, err := p.parseAssignStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(SEMI); err != nil {
			return nil, err
		}
		return a, nil
	}
}

// parseSimpleAssign parses "lhs = rhs" without a trailing semicolon
// (for-loop init/step clauses).
func (p *Parser) parseSimpleAssign() (*Assign, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ASSIGNOP); err != nil {
		return nil, err
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{LHS: lhs, RHS: rhs, Blocking: true}, nil
}

// parseAssignStmt parses "lhs = rhs" or "lhs <= rhs".
func (p *Parser) parseAssignStmt() (*Assign, error) {
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	blocking := false
	switch p.cur().Kind {
	case ASSIGNOP:
		p.advance()
		blocking = true
	case LE:
		p.advance()
	default:
		return nil, p.errorf("expected = or <= in assignment, found %s", p.cur())
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &Assign{LHS: lhs, RHS: rhs, Blocking: blocking}, nil
}

// parseLValue parses an assignment target: identifier, bit-select,
// part-select, or concatenation of lvalues.
func (p *Parser) parseLValue() (Expr, error) {
	if p.accept(LBRACE) {
		c := &Concat{}
		for {
			e, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if !p.accept(COMMA) {
				break
			}
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return c, nil
	}
	n, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	var e Expr = ID(n.Text)
	for p.cur().Kind == LBRACK {
		p.advance()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(COLON) {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Slice{X: e, MSB: idx, LSB: lsb}
		} else {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Index{X: e, Idx: idx}
		}
	}
	return e, nil
}

// Binary operator precedence, higher binds tighter. The conditional
// operator is handled separately (lowest, right-associative).
func binPrec(k Kind) int {
	switch k {
	case PIPE2:
		return 1
	case AMPAMP:
		return 2
	case PIPE:
		return 3
	case CARET, XNOR:
		return 4
	case AMP:
		return 5
	case EQEQ, NEQ, EQ3, NEQ3:
		return 6
	case LT, LE, GT, GE:
		return 7
	case SHL, SHR:
		return 8
	case PLUS, MINUS:
		return 9
	case STAR, SLASH, PERCENT:
		return 10
	}
	return 0
}

func (p *Parser) parseExpr() (Expr, error) {
	e, err := p.parseBinary(1)
	if err != nil {
		return nil, err
	}
	if p.accept(QUEST) {
		t, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(COLON); err != nil {
			return nil, err
		}
		f, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Ternary{Cond: e, Then: t, Else: f}, nil
	}
	return e, nil
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		prec := binPrec(p.cur().Kind)
		if prec < minPrec {
			return lhs, nil
		}
		op := p.advance().Kind
		if op == EQ3 {
			op = EQEQ
		}
		if op == NEQ3 {
			op = NEQ
		}
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	switch p.cur().Kind {
	case BANG, TILDE, AMP, NAND, PIPE, NOR, CARET, XNOR, MINUS, PLUS:
		op := p.advance().Kind
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if op == PLUS {
			return x, nil
		}
		return &Unary{Op: op, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.cur().Kind == LBRACK {
		p.advance()
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.accept(COLON) {
			lsb, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Slice{X: e, MSB: idx, LSB: lsb}
		} else {
			if _, err := p.expect(RBRACK); err != nil {
				return nil, err
			}
			e = &Index{X: e, Idx: idx}
		}
	}
	return e, nil
}

func (p *Parser) parsePrimary() (Expr, error) {
	switch p.cur().Kind {
	case IDENT:
		return ID(p.advance().Text), nil

	case NUMBER:
		t := p.advance()
		n, err := parseNumberToken(t.Text)
		if err != nil {
			return nil, &ParseError{t.Pos, err.Error()}
		}
		return n, nil

	case LPAREN:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RPAREN); err != nil {
			return nil, err
		}
		return e, nil

	case LBRACE:
		p.advance()
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur().Kind == LBRACE {
			// Replication {N{...}}.
			p.advance()
			inner := &Concat{}
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				inner.Parts = append(inner.Parts, e)
				if !p.accept(COMMA) {
					break
				}
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			if _, err := p.expect(RBRACE); err != nil {
				return nil, err
			}
			var x Expr = inner
			if len(inner.Parts) == 1 {
				x = inner.Parts[0]
			}
			return &Repeat{Count: first, X: x}, nil
		}
		c := &Concat{Parts: []Expr{first}}
		for p.accept(COMMA) {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
		}
		if _, err := p.expect(RBRACE); err != nil {
			return nil, err
		}
		return c, nil
	}
	return nil, p.errorf("unexpected %s in expression", p.cur())
}

// parseNumberToken converts literal text ("42", "8'hFF", "4'b1?10") into
// a Number node. Wildcard digits (x, z, ?) set DontCare bits.
func parseNumberToken(text string) (*Number, error) {
	s := stripUnderscores(text)
	tick := -1
	for i := 0; i < len(s); i++ {
		if s[i] == '\'' {
			tick = i
			break
		}
	}
	if tick < 0 {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid decimal literal %q", text)
		}
		return &Number{Width: 32, Val: v}, nil
	}
	width := 32
	sized := false
	if tick > 0 {
		w, err := strconv.Atoi(s[:tick])
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("invalid literal size in %q", text)
		}
		width = w
		sized = true
	}
	rest := s[tick+1:]
	if len(rest) > 0 && (rest[0] == 's' || rest[0] == 'S') {
		rest = rest[1:]
	}
	if len(rest) < 2 {
		return nil, fmt.Errorf("invalid based literal %q", text)
	}
	base := rest[0] | 0x20 // lowercase
	digits := rest[1:]
	var bitsPerDigit uint
	switch base {
	case 'b':
		bitsPerDigit = 1
	case 'o':
		bitsPerDigit = 3
	case 'h':
		bitsPerDigit = 4
	case 'd':
		v, err := strconv.ParseUint(digits, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("invalid decimal digits in %q", text)
		}
		return &Number{Width: width, Val: v, Sized: sized, Base: 'd'}, nil
	default:
		return nil, fmt.Errorf("invalid base %q in %q", string(base), text)
	}
	var val, dc uint64
	nbits := uint(0)
	for i := 0; i < len(digits); i++ {
		c := digits[i] | 0x20
		var dv uint64
		wild := false
		switch {
		case c >= '0' && c <= '9':
			dv = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			dv = uint64(c-'a') + 10
		case c == 'x' || c == 'z' || c == '?':
			wild = true
		default:
			return nil, fmt.Errorf("invalid digit %q in %q", string(digits[i]), text)
		}
		if dv >= (1 << bitsPerDigit) {
			return nil, fmt.Errorf("digit %q out of range for base in %q", string(digits[i]), text)
		}
		nbits += bitsPerDigit
		if nbits > 64 {
			return nil, fmt.Errorf("literal %q exceeds 64 significant bits", text)
		}
		val = val << bitsPerDigit
		dc = dc << bitsPerDigit
		if wild {
			dc |= (1 << bitsPerDigit) - 1
		} else {
			val |= dv
		}
	}
	if width < 64 {
		mask := (uint64(1) << uint(width)) - 1
		val &= mask
		dc &= mask
	}
	return &Number{Width: width, Val: val, DontCare: dc, Sized: sized, Base: base}, nil
}
