package clc

import (
	"fmt"

	"repro/internal/ir"
)

// Parser builds an AST from CLC source.
type Parser struct {
	lx    *Lexer
	tok   Token
	next  Token
	errs  []error
	depth int // statements and expressions open around the current token
}

// maxNesting bounds how deep statements and expressions nest. The parser
// descends about a dozen frames per level, and Go ends the process —
// unrecoverably — when a goroutine's stack passes its limit, so without
// a bound a megabyte of "(" takes down whoever called Compile.
const maxNesting = 1000

// Parse parses a translation unit.
func Parse(src string) (*File, error) {
	p := &Parser{lx: NewLexer(src)}
	p.tok = p.lx.Next()
	p.next = p.lx.Next()
	f := p.parseFile()
	if err := p.lx.Err(); err != nil {
		return nil, err
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return f, nil
}

func (p *Parser) errorf(pos Pos, format string, args ...interface{}) {
	if len(p.errs) < 20 {
		p.errs = append(p.errs, fmt.Errorf("clc: %s: %s", pos, fmt.Sprintf(format, args...)))
	}
}

// nest opens one more nesting level, or reports the level that went too
// deep and drops the rest of the input: only the first error is
// returned, and nothing after this one is worth parsing.
func (p *Parser) nest() bool {
	if p.depth < maxNesting {
		p.depth++
		return true
	}
	p.errorf(p.tok.Pos, "nesting deeper than %d levels", maxNesting)
	for p.tok.Kind != TokEOF {
		p.advance()
	}
	return false
}

func (p *Parser) unnest() { p.depth-- }

func (p *Parser) advance() Token {
	t := p.tok
	p.tok = p.next
	p.next = p.lx.Next()
	return t
}

func (p *Parser) at(text string) bool {
	return (p.tok.Kind == TokPunct || p.tok.Kind == TokKeyword) && p.tok.Text == text
}

func (p *Parser) accept(text string) bool {
	if p.at(text) {
		p.advance()
		return true
	}
	return false
}

func (p *Parser) expect(text string) Token {
	if !p.at(text) {
		p.errorf(p.tok.Pos, "expected %q, found %s", text, p.tok)
		return p.tok
	}
	return p.advance()
}

func (p *Parser) expectIdent() Token {
	if p.tok.Kind != TokIdent {
		p.errorf(p.tok.Pos, "expected identifier, found %s", p.tok)
		return p.advance()
	}
	return p.advance()
}

var typeNames = map[string]bool{
	"void": true, "bool": true, "char": true, "int": true, "uint": true,
	"long": true, "ulong": true, "size_t": true, "float": true,
	"double": true, "unsigned": true,
}

var spaceQuals = map[string]ir.AddrSpace{
	"global": ir.Global, "__global": ir.Global,
	"local": ir.Local, "__local": ir.Local,
	"constant": ir.Constant, "__constant": ir.Constant,
	"private": ir.Private, "__private": ir.Private,
}

// atTypeStart reports whether the current token can begin a type.
func (p *Parser) atTypeStart() bool {
	if p.tok.Kind != TokKeyword {
		return false
	}
	if typeNames[p.tok.Text] || p.tok.Text == "const" || p.tok.Text == "volatile" {
		return true
	}
	_, isSpace := spaceQuals[p.tok.Text]
	return isSpace
}

func (p *Parser) parseFile() *File {
	f := &File{}
	for p.tok.Kind != TokEOF && len(p.errs) == 0 {
		fd := p.parseFuncDecl()
		if fd != nil {
			f.Funcs = append(f.Funcs, fd)
		}
	}
	return f
}

// parseTypePrefix parses qualifiers, a base type name and pointer stars.
func (p *Parser) parseTypePrefix() *TypeExpr {
	te := &TypeExpr{P: p.tok.Pos, Space: ir.Private}
	seenBase := false
	for {
		if p.tok.Kind != TokKeyword {
			break
		}
		if sp, ok := spaceQuals[p.tok.Text]; ok {
			te.Space = sp
			p.advance()
			continue
		}
		switch p.tok.Text {
		case "const":
			te.Const = true
			p.advance()
			continue
		case "volatile", "restrict":
			p.advance()
			continue
		}
		if typeNames[p.tok.Text] && !seenBase {
			te.Base = p.tok.Text
			if p.tok.Text == "unsigned" {
				te.Base = "uint"
				p.advance()
				// optional int/long/char after unsigned
				if p.tok.Kind == TokKeyword && (p.tok.Text == "int" || p.tok.Text == "char") {
					p.advance()
				} else if p.tok.Kind == TokKeyword && p.tok.Text == "long" {
					te.Base = "ulong"
					p.advance()
				}
			} else {
				p.advance()
			}
			seenBase = true
			continue
		}
		break
	}
	if !seenBase {
		p.errorf(te.P, "expected type, found %s", p.tok)
		te.Base = "int"
	}
	for {
		if p.accept("*") {
			te.PtrDep++
			continue
		}
		// trailing const/restrict after '*'
		if p.tok.Kind == TokKeyword && (p.tok.Text == "const" || p.tok.Text == "restrict" || p.tok.Text == "volatile") {
			p.advance()
			continue
		}
		break
	}
	return te
}

func (p *Parser) parseFuncDecl() *FuncDecl {
	p.accept("extern")
	isKernel := false
	if p.at("kernel") || p.at("__kernel") {
		p.advance()
		isKernel = true
	}
	ret := p.parseTypePrefix()
	name := p.expectIdent()
	fd := &FuncDecl{P: name.Pos, Name: name.Text, Ret: ret, IsKernel: isKernel}
	p.expect("(")
	if !p.at(")") {
		for {
			if p.at("void") && p.next.Kind == TokPunct && p.next.Text == ")" {
				p.advance()
				break
			}
			pt := p.parseTypePrefix()
			var pname Token
			if p.tok.Kind == TokIdent {
				pname = p.advance()
			}
			if p.accept("[") { // array parameter decays to pointer
				if !p.at("]") {
					p.parseExpr()
				}
				p.expect("]")
				pt.PtrDep++
			}
			fd.Params = append(fd.Params, &ParamDecl{P: pt.P, Name: pname.Text, Ty: pt})
			if !p.accept(",") {
				break
			}
		}
	}
	p.expect(")")
	if p.accept(";") {
		return fd // prototype
	}
	fd.Body = p.parseBlock()
	return fd
}

func (p *Parser) parseBlock() *BlockStmt {
	b := &BlockStmt{stmtBase: stmtBase{P: p.tok.Pos}}
	p.expect("{")
	for !p.at("}") && p.tok.Kind != TokEOF && len(p.errs) == 0 {
		b.List = append(b.List, p.parseStmt())
	}
	p.expect("}")
	return b
}

func (p *Parser) parseStmt() Stmt {
	pos := p.tok.Pos
	if !p.nest() {
		return &EmptyStmt{stmtBase{pos}}
	}
	defer p.unnest()
	switch {
	case p.at("{"):
		return p.parseBlock()
	case p.at(";"):
		p.advance()
		return &EmptyStmt{stmtBase{pos}}
	case p.at("if"):
		p.advance()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		then := p.parseStmt()
		var els Stmt
		if p.accept("else") {
			els = p.parseStmt()
		}
		return &IfStmt{stmtBase{pos}, cond, then, els}
	case p.at("for"):
		p.advance()
		p.expect("(")
		var init Stmt
		if !p.at(";") {
			if p.atTypeStart() {
				init = p.parseDeclStmt()
			} else {
				init = &ExprStmt{stmtBase{p.tok.Pos}, p.parseExpr()}
				p.expect(";")
			}
		} else {
			p.advance()
		}
		var cond Expr
		if !p.at(";") {
			cond = p.parseExpr()
		}
		p.expect(";")
		var post Expr
		if !p.at(")") {
			post = p.parseExpr()
		}
		p.expect(")")
		body := p.parseStmt()
		return &ForStmt{stmtBase{pos}, init, cond, post, body}
	case p.at("while"):
		p.advance()
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		body := p.parseStmt()
		return &WhileStmt{stmtBase{pos}, cond, body, false}
	case p.at("do"):
		p.advance()
		body := p.parseStmt()
		p.expect("while")
		p.expect("(")
		cond := p.parseExpr()
		p.expect(")")
		p.expect(";")
		return &WhileStmt{stmtBase{pos}, cond, body, true}
	case p.at("return"):
		p.advance()
		var x Expr
		if !p.at(";") {
			x = p.parseExpr()
		}
		p.expect(";")
		return &ReturnStmt{stmtBase{pos}, x}
	case p.at("break"):
		p.advance()
		p.expect(";")
		return &BranchStmt{stmtBase{pos}, true}
	case p.at("continue"):
		p.advance()
		p.expect(";")
		return &BranchStmt{stmtBase{pos}, false}
	case p.atTypeStart():
		return p.parseDeclStmt()
	default:
		x := p.parseExpr()
		p.expect(";")
		return &ExprStmt{stmtBase{pos}, x}
	}
}

// parseDeclStmt parses "type name [= init];" or "type name[len];",
// consuming the trailing semicolon.
func (p *Parser) parseDeclStmt() Stmt {
	pos := p.tok.Pos
	te := p.parseTypePrefix()
	name := p.expectIdent()
	ds := &DeclStmt{stmtBase: stmtBase{pos}, Name: name.Text, Ty: te}
	if p.accept("[") {
		te.ArrLen = p.parseExpr()
		p.expect("]")
	}
	if p.accept("=") {
		ds.Init = p.parseAssign()
	}
	if p.accept(",") {
		p.errorf(p.tok.Pos, "multiple declarators in one statement are not supported; split the declaration")
	}
	p.expect(";")
	return ds
}

// Expression parsing: precedence climbing.

func (p *Parser) parseExpr() Expr { return p.parseComma() }

func (p *Parser) parseComma() Expr {
	// The comma operator is not supported; parseExpr == parseAssign.
	return p.parseAssign()
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *Parser) parseAssign() Expr {
	lhs := p.parseCond()
	if p.tok.Kind == TokPunct && assignOps[p.tok.Text] {
		op := p.advance()
		rhs := p.parseAssign()
		return &Assign{exprBase{P: op.Pos}, op.Text, lhs, rhs}
	}
	return lhs
}

func (p *Parser) parseCond() Expr {
	c := p.parseBinary(0)
	if p.at("?") {
		pos := p.advance().Pos
		t := p.parseAssign()
		p.expect(":")
		e := p.parseCond()
		return &Cond{exprBase{P: pos}, c, t, e}
	}
	return c
}

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"|":  3,
	"^":  4,
	"&":  5,
	"==": 6, "!=": 6,
	"<": 7, ">": 7, "<=": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		if p.tok.Kind != TokPunct {
			return lhs
		}
		prec, ok := binPrec[p.tok.Text]
		if !ok || prec < minPrec {
			return lhs
		}
		op := p.advance()
		rhs := p.parseBinary(prec + 1)
		lhs = &Binary{exprBase{P: op.Pos}, op.Text, lhs, rhs}
	}
}

func (p *Parser) parseUnary() Expr {
	pos := p.tok.Pos
	if !p.nest() {
		return &IntLit{exprBase{P: pos}, 0}
	}
	defer p.unnest()
	switch {
	case p.at("-"), p.at("!"), p.at("~"), p.at("*"), p.at("&"), p.at("+"):
		op := p.advance()
		x := p.parseUnary()
		if op.Text == "+" {
			return x
		}
		return &Unary{exprBase{P: pos}, op.Text, x}
	case p.at("++"), p.at("--"):
		op := p.advance()
		x := p.parseUnary()
		return &IncDec{exprBase{P: pos}, op.Text, false, x}
	case p.at("("):
		// Either a cast or a parenthesized expression.
		if p.isCastStart() {
			p.expect("(")
			te := p.parseTypePrefix()
			p.expect(")")
			x := p.parseUnary()
			return &CastExpr{exprBase{P: pos}, te, x}
		}
	}
	return p.parsePostfix()
}

// isCastStart reports whether "(" begins a cast expression.
func (p *Parser) isCastStart() bool {
	if !p.at("(") {
		return false
	}
	if p.next.Kind != TokKeyword {
		return false
	}
	if typeNames[p.next.Text] {
		return true
	}
	_, isSpace := spaceQuals[p.next.Text]
	return isSpace || p.next.Text == "const"
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		switch {
		case p.at("["):
			pos := p.advance().Pos
			idx := p.parseExpr()
			p.expect("]")
			x = &Index{exprBase{P: pos}, x, idx}
		case p.at("++"), p.at("--"):
			op := p.advance()
			x = &IncDec{exprBase{P: op.Pos}, op.Text, true, x}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	pos := p.tok.Pos
	switch {
	case p.tok.Kind == TokIntLit:
		t := p.advance()
		return &IntLit{exprBase{P: pos}, t.IntVal}
	case p.tok.Kind == TokFloatLit:
		t := p.advance()
		return &FloatLit{exprBase{P: pos}, t.FloatVal}
	case p.at("true"):
		p.advance()
		return &IntLit{exprBase{P: pos}, 1}
	case p.at("false"):
		p.advance()
		return &IntLit{exprBase{P: pos}, 0}
	case p.tok.Kind == TokIdent:
		name := p.advance()
		if p.accept("(") {
			call := &Call{exprBase: exprBase{P: pos}, Name: name.Text}
			if !p.at(")") {
				for {
					call.Args = append(call.Args, p.parseAssign())
					if !p.accept(",") {
						break
					}
				}
			}
			p.expect(")")
			return call
		}
		return &Ident{exprBase: exprBase{P: pos}, Name: name.Text}
	case p.at("("):
		p.advance()
		x := p.parseExpr()
		p.expect(")")
		return x
	}
	p.errorf(pos, "unexpected token %s in expression", p.tok)
	p.advance()
	return &IntLit{exprBase{P: pos}, 0}
}
