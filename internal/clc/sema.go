package clc

import (
	"fmt"

	"repro/internal/ir"
)

// BuiltinKind classifies an OpenCL builtin.
type BuiltinKind int

// Builtin classes.
const (
	BWorkItem BuiltinKind = iota // get_global_id and friends
	BBarrier                     // barrier / mem_fence
	BAtomic                      // atomic_* / atom_*
	BMath                        // sqrt, exp, ...
	BMinMax                      // min/max/abs lowered inline
)

// BuiltinInfo describes an OpenCL builtin function.
type BuiltinInfo struct {
	Name  string
	Kind  BuiltinKind
	NArgs int
	Atom  ir.AtomicKind // for BAtomic
	Inc   bool          // atomic_inc/dec: implicit operand 1
}

// workItemBuiltins are the work-item functions the accelOS transformation
// replaces with runtime equivalents (§6.2 step 3).
var workItemBuiltins = map[string]bool{
	"get_global_id": true, "get_local_id": true, "get_group_id": true,
	"get_num_groups": true, "get_local_size": true, "get_global_size": true,
	"get_global_offset": true, "get_work_dim": true,
}

var builtins = map[string]*BuiltinInfo{
	"get_global_id":     {Name: "get_global_id", Kind: BWorkItem, NArgs: 1},
	"get_local_id":      {Name: "get_local_id", Kind: BWorkItem, NArgs: 1},
	"get_group_id":      {Name: "get_group_id", Kind: BWorkItem, NArgs: 1},
	"get_num_groups":    {Name: "get_num_groups", Kind: BWorkItem, NArgs: 1},
	"get_local_size":    {Name: "get_local_size", Kind: BWorkItem, NArgs: 1},
	"get_global_size":   {Name: "get_global_size", Kind: BWorkItem, NArgs: 1},
	"get_global_offset": {Name: "get_global_offset", Kind: BWorkItem, NArgs: 1},
	"get_work_dim":      {Name: "get_work_dim", Kind: BWorkItem, NArgs: 0},

	"barrier":   {Name: "barrier", Kind: BBarrier, NArgs: 1},
	"mem_fence": {Name: "mem_fence", Kind: BBarrier, NArgs: 1},

	"atomic_add":  {Name: "atomic_add", Kind: BAtomic, NArgs: 2, Atom: ir.AtomAdd},
	"atomic_sub":  {Name: "atomic_sub", Kind: BAtomic, NArgs: 2, Atom: ir.AtomSub},
	"atomic_min":  {Name: "atomic_min", Kind: BAtomic, NArgs: 2, Atom: ir.AtomMin},
	"atomic_max":  {Name: "atomic_max", Kind: BAtomic, NArgs: 2, Atom: ir.AtomMax},
	"atomic_and":  {Name: "atomic_and", Kind: BAtomic, NArgs: 2, Atom: ir.AtomAnd},
	"atomic_or":   {Name: "atomic_or", Kind: BAtomic, NArgs: 2, Atom: ir.AtomOr},
	"atomic_xchg": {Name: "atomic_xchg", Kind: BAtomic, NArgs: 2, Atom: ir.AtomXchg},
	"atomic_inc":  {Name: "atomic_inc", Kind: BAtomic, NArgs: 1, Atom: ir.AtomAdd, Inc: true},
	"atomic_dec":  {Name: "atomic_dec", Kind: BAtomic, NArgs: 1, Atom: ir.AtomSub, Inc: true},
	"atom_add":    {Name: "atom_add", Kind: BAtomic, NArgs: 2, Atom: ir.AtomAdd},
	"atom_sub":    {Name: "atom_sub", Kind: BAtomic, NArgs: 2, Atom: ir.AtomSub},
	"atom_min":    {Name: "atom_min", Kind: BAtomic, NArgs: 2, Atom: ir.AtomMin},
	"atom_max":    {Name: "atom_max", Kind: BAtomic, NArgs: 2, Atom: ir.AtomMax},
	"atom_xchg":   {Name: "atom_xchg", Kind: BAtomic, NArgs: 2, Atom: ir.AtomXchg},
	"atom_inc":    {Name: "atom_inc", Kind: BAtomic, NArgs: 1, Atom: ir.AtomAdd, Inc: true},

	"min":   {Name: "min", Kind: BMinMax, NArgs: 2},
	"max":   {Name: "max", Kind: BMinMax, NArgs: 2},
	"abs":   {Name: "abs", Kind: BMinMax, NArgs: 1},
	"mad":   {Name: "mad", Kind: BMinMax, NArgs: 3},
	"clamp": {Name: "clamp", Kind: BMinMax, NArgs: 3},

	"sqrt": {Name: "sqrt", Kind: BMath, NArgs: 1}, "rsqrt": {Name: "rsqrt", Kind: BMath, NArgs: 1},
	"fabs": {Name: "fabs", Kind: BMath, NArgs: 1}, "exp": {Name: "exp", Kind: BMath, NArgs: 1},
	"exp2": {Name: "exp2", Kind: BMath, NArgs: 1}, "log": {Name: "log", Kind: BMath, NArgs: 1},
	"log2": {Name: "log2", Kind: BMath, NArgs: 1}, "sin": {Name: "sin", Kind: BMath, NArgs: 1},
	"cos": {Name: "cos", Kind: BMath, NArgs: 1}, "tan": {Name: "tan", Kind: BMath, NArgs: 1},
	"atan2": {Name: "atan2", Kind: BMath, NArgs: 2},
	"floor": {Name: "floor", Kind: BMath, NArgs: 1}, "ceil": {Name: "ceil", Kind: BMath, NArgs: 1},
	"pow": {Name: "pow", Kind: BMath, NArgs: 2}, "fmod": {Name: "fmod", Kind: BMath, NArgs: 2},
	"fmin": {Name: "fmin", Kind: BMath, NArgs: 2}, "fmax": {Name: "fmax", Kind: BMath, NArgs: 2},
	"native_exp": {Name: "exp", Kind: BMath, NArgs: 1}, "native_log": {Name: "log", Kind: BMath, NArgs: 1},
	"native_sqrt": {Name: "sqrt", Kind: BMath, NArgs: 1}, "native_rsqrt": {Name: "rsqrt", Kind: BMath, NArgs: 1},
	"native_sin": {Name: "sin", Kind: BMath, NArgs: 1}, "native_cos": {Name: "cos", Kind: BMath, NArgs: 1},
	"native_divide": {Name: "native_divide", Kind: BMath, NArgs: 2},
}

// Sema performs symbol resolution and type checking, annotating the AST in
// place.
type Sema struct {
	file   *File
	funcs  map[string]*FuncDecl
	scopes []map[string]*Symbol
	errs   []error
	curFn  *FuncDecl
	loops  int
}

// Analyze type-checks the file, annotating expressions with types and
// resolving symbols. It returns the first error found.
func Analyze(f *File) error {
	s := &Sema{file: f, funcs: make(map[string]*FuncDecl)}
	for _, fd := range f.Funcs {
		if prev, ok := s.funcs[fd.Name]; ok && prev.Body != nil && fd.Body != nil {
			s.errorf(fd.P, "redefinition of function %q", fd.Name)
		}
		if prev, ok := s.funcs[fd.Name]; !ok || prev.Body == nil {
			s.funcs[fd.Name] = fd
		}
	}
	for _, fd := range f.Funcs {
		s.checkFunc(fd)
	}
	if len(s.errs) > 0 {
		return s.errs[0]
	}
	return nil
}

func (s *Sema) errorf(pos Pos, format string, args ...interface{}) {
	if len(s.errs) < 20 {
		s.errs = append(s.errs, fmt.Errorf("clc: %s: %s", pos, fmt.Sprintf(format, args...)))
	}
}

func (s *Sema) push() { s.scopes = append(s.scopes, make(map[string]*Symbol)) }
func (s *Sema) pop()  { s.scopes = s.scopes[:len(s.scopes)-1] }

func (s *Sema) define(pos Pos, name string, ty *CType, param bool) *Symbol {
	top := s.scopes[len(s.scopes)-1]
	if _, ok := top[name]; ok {
		s.errorf(pos, "redeclaration of %q", name)
	}
	sym := &Symbol{Name: name, Ty: ty, Param: param}
	top[name] = sym
	return sym
}

func (s *Sema) lookup(name string) *Symbol {
	for i := len(s.scopes) - 1; i >= 0; i-- {
		if sym, ok := s.scopes[i][name]; ok {
			return sym
		}
	}
	return nil
}

// resolveType converts a syntactic TypeExpr into a semantic CType.
func (s *Sema) resolveType(te *TypeExpr) *CType {
	var base *CType
	switch te.Base {
	case "void":
		base = TypeVoid
	case "bool":
		base = TypeBool
	case "char", "int", "uint":
		base = TypeInt
	case "long", "ulong", "size_t":
		base = TypeLong
	case "float":
		base = TypeFloat
	case "double":
		base = TypeDouble
	default:
		s.errorf(te.P, "unknown type %q", te.Base)
		base = TypeInt
	}
	t := base
	for i := 0; i < te.PtrDep; i++ {
		sp := te.Space
		if i < te.PtrDep-1 {
			sp = ir.Private
		}
		t = PtrTo(t, sp)
	}
	if te.PtrDep > 0 {
		t = &CType{K: CPtr, Elem: t.Elem, Space: te.Space, Const: te.Const}
	}
	if te.ArrLen != nil {
		n, ok := s.evalConstInt(te.ArrLen)
		if !ok || n <= 0 {
			s.errorf(te.P, "array length must be a positive integer constant")
			n = 1
		}
		te.arrSize = n
		t = ArrayOf(t, n, te.Space)
	} else if te.PtrDep == 0 && te.Space != ir.Private && base.K != CVoid {
		// "local float x;" — a scalar in local memory: model as a
		// one-element local array.
		te.arrSize = 1
		t = ArrayOf(t, 1, te.Space)
	}
	return t
}

// evalConstInt evaluates a compile-time constant integer expression.
func (s *Sema) evalConstInt(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.V, true
	case *Unary:
		v, ok := s.evalConstInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case "-":
			return -v, true
		case "~":
			return ^v, true
		case "!":
			if v == 0 {
				return 1, true
			}
			return 0, true
		}
	case *Binary:
		a, ok1 := s.evalConstInt(x.X)
		b, ok2 := s.evalConstInt(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case "+":
			return a + b, true
		case "-":
			return a - b, true
		case "*":
			return a * b, true
		case "/":
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case "%":
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case "<<":
			return a << uint(b), true
		case ">>":
			return a >> uint(b), true
		case "&":
			return a & b, true
		case "|":
			return a | b, true
		case "^":
			return a ^ b, true
		}
	}
	return 0, false
}

func (s *Sema) checkFunc(fd *FuncDecl) {
	fd.RetType = s.resolveType(fd.Ret)
	if fd.IsKernel && fd.RetType.K != CVoid {
		s.errorf(fd.P, "kernel %q must return void", fd.Name)
	}
	if fd.Body == nil {
		for _, p := range fd.Params {
			p.Sym = &Symbol{Name: p.Name, Ty: s.resolveType(p.Ty), Param: true}
		}
		return
	}
	s.curFn = fd
	s.push()
	for _, p := range fd.Params {
		ty := s.resolveType(p.Ty)
		if ty.K == CArray {
			ty = PtrTo(ty.Elem, ty.Space)
		}
		if p.Name == "" {
			s.errorf(p.P, "parameter missing a name in definition of %q", fd.Name)
			p.Name = "_unnamed"
		}
		p.Sym = s.define(p.P, p.Name, ty, true)
	}
	s.checkBlock(fd.Body)
	s.pop()
	s.curFn = nil
}

func (s *Sema) checkBlock(b *BlockStmt) {
	s.push()
	for _, st := range b.List {
		s.checkStmt(st)
	}
	s.pop()
}

func (s *Sema) checkStmt(st Stmt) {
	switch x := st.(type) {
	case *BlockStmt:
		s.checkBlock(x)
	case *EmptyStmt:
	case *DeclStmt:
		ty := s.resolveType(x.Ty)
		if ty.K == CVoid {
			s.errorf(x.P, "cannot declare variable of type void")
			ty = TypeInt
		}
		if ty.K == CArray && ty.Space == ir.Local && !s.curFn.IsKernel {
			// The OpenCL standard permits local declarations only in
			// kernel bodies (§6.2 "Local Data Hoisting" relies on this).
			s.errorf(x.P, "local-memory declaration outside a kernel function")
		}
		if x.Init != nil {
			it := s.checkExpr(x.Init)
			if ty.K == CArray {
				s.errorf(x.P, "array initializers are not supported")
			} else if !s.assignable(ty, it) {
				s.errorf(x.P, "cannot initialize %s with %s", ty, it)
			}
		}
		x.Sym = s.define(x.P, x.Name, ty, false)
	case *ExprStmt:
		s.checkExpr(x.X)
	case *IfStmt:
		s.condition(x.Cond)
		s.checkStmt(x.Then)
		if x.Else != nil {
			s.checkStmt(x.Else)
		}
	case *ForStmt:
		s.push()
		if x.Init != nil {
			s.checkStmt(x.Init)
		}
		if x.Cond != nil {
			s.condition(x.Cond)
		}
		if x.Post != nil {
			s.checkExpr(x.Post)
		}
		s.loops++
		s.checkStmt(x.Body)
		s.loops--
		s.pop()
	case *WhileStmt:
		s.condition(x.Cond)
		s.loops++
		s.checkStmt(x.Body)
		s.loops--
	case *ReturnStmt:
		rt := s.curFn.RetType
		if x.X == nil {
			if rt.K != CVoid {
				s.errorf(x.P, "missing return value in %q", s.curFn.Name)
			}
			return
		}
		if rt.K == CVoid {
			s.errorf(x.P, "return with value in void function %q", s.curFn.Name)
			return
		}
		t := s.checkExpr(x.X)
		if !s.assignable(rt, t) {
			s.errorf(x.P, "cannot return %s from function returning %s", t, rt)
		}
	case *BranchStmt:
		if s.loops == 0 {
			s.errorf(x.P, "break/continue outside a loop")
		}
	default:
		panic(fmt.Sprintf("clc: unknown statement %T", st))
	}
}

// condition checks a boolean context expression.
func (s *Sema) condition(e Expr) {
	t := s.checkExpr(e)
	if t != nil && !t.IsArith() && t.K != CPtr {
		s.errorf(e.Pos(), "condition has non-scalar type %s", t)
	}
}

// assignable reports whether a value of type from may be assigned to a
// location of type to (with implicit conversion).
func (s *Sema) assignable(to, from *CType) bool {
	if to == nil || from == nil {
		return false
	}
	if to.IsArith() && from.IsArith() {
		return true
	}
	if to.K == CPtr && from.K == CPtr {
		return to.Space == from.Space && (to.Elem.Equal(from.Elem) || to.Elem.K == CVoid || from.Elem.K == CVoid)
	}
	return false
}

// commonArith returns the usual-arithmetic-conversion result type.
func commonArith(a, b *CType) *CType {
	rank := func(t *CType) int {
		switch t.K {
		case CBool:
			return 0
		case CInt:
			return 1
		case CLong:
			return 2
		case CFloat:
			return 3
		case CDouble:
			return 4
		}
		return 1
	}
	if rank(a) >= rank(b) {
		if a.K == CBool {
			return TypeInt
		}
		return a
	}
	if b.K == CBool {
		return TypeInt
	}
	return b
}

func (s *Sema) checkExpr(e Expr) *CType {
	t := s.exprType(e)
	if t == nil {
		t = TypeInt
	}
	e.setType(t)
	return t
}

func (s *Sema) exprType(e Expr) *CType {
	switch x := e.(type) {
	case *IntLit:
		if x.V > int64(int32(x.V)) || x.V < int64(int32(x.V)) {
			return TypeLong
		}
		return TypeInt
	case *FloatLit:
		return TypeFloat
	case *Ident:
		sym := s.lookup(x.Name)
		if sym == nil {
			s.errorf(x.P, "undeclared identifier %q", x.Name)
			return TypeInt
		}
		x.Sym = sym
		if sym.Ty.K == CArray {
			// Arrays decay to pointers when used as values; indexing
			// handles them directly.
			x.setLValue(false)
			return sym.Ty
		}
		x.setLValue(true)
		return sym.Ty
	case *Unary:
		t := s.checkExpr(x.X)
		switch x.Op {
		case "-":
			if !t.IsArith() {
				s.errorf(x.P, "unary - on non-arithmetic type %s", t)
			}
			if t.K == CBool {
				return TypeInt
			}
			return t
		case "~":
			if !t.IsInt() {
				s.errorf(x.P, "~ on non-integer type %s", t)
			}
			return t
		case "!":
			if !t.IsArith() && t.K != CPtr {
				s.errorf(x.P, "! on non-scalar type %s", t)
			}
			return TypeInt
		case "*":
			if t.K != CPtr {
				s.errorf(x.P, "dereference of non-pointer type %s", t)
				return TypeInt
			}
			x.setLValue(true)
			return t.Elem
		case "&":
			if !x.X.lvalue() {
				s.errorf(x.P, "address-of requires an lvalue")
				return PtrTo(t, ir.Private)
			}
			return PtrTo(t, s.lvalueSpace(x.X))
		}
	case *IncDec:
		t := s.checkExpr(x.X)
		if !x.X.lvalue() {
			s.errorf(x.P, "%s requires an lvalue", x.Op)
		}
		if !t.IsArith() && t.K != CPtr {
			s.errorf(x.P, "%s on non-scalar type %s", x.Op, t)
		}
		return t
	case *Binary:
		tx := s.checkExpr(x.X)
		ty := s.checkExpr(x.Y)
		switch x.Op {
		case "&&", "||":
			return TypeInt
		case "==", "!=", "<", ">", "<=", ">=":
			if tx.K == CPtr && ty.K == CPtr {
				return TypeInt
			}
			if !tx.IsArith() || !ty.IsArith() {
				s.errorf(x.P, "invalid comparison between %s and %s", tx, ty)
			}
			return TypeInt
		case "+", "-":
			if tx.K == CPtr && ty.IsInt() {
				return tx
			}
			if tx.K == CArray && ty.IsInt() {
				return PtrTo(tx.Elem, tx.Space)
			}
			if x.Op == "+" && ty.K == CPtr && tx.IsInt() {
				return ty
			}
			if x.Op == "-" && tx.K == CPtr && ty.K == CPtr {
				return TypeLong
			}
			fallthrough
		case "*", "/":
			if !tx.IsArith() || !ty.IsArith() {
				s.errorf(x.P, "invalid operands to %q: %s and %s", x.Op, tx, ty)
				return TypeInt
			}
			return commonArith(tx, ty)
		case "%", "&", "|", "^", "<<", ">>":
			if !tx.IsInt() || !ty.IsInt() {
				s.errorf(x.P, "invalid operands to %q: %s and %s", x.Op, tx, ty)
				return TypeInt
			}
			if x.Op == "<<" || x.Op == ">>" {
				if tx.K == CBool {
					return TypeInt
				}
				return tx
			}
			return commonArith(tx, ty)
		}
	case *Assign:
		tl := s.checkExpr(x.L)
		tr := s.checkExpr(x.R)
		if !x.L.lvalue() {
			s.errorf(x.P, "assignment target is not an lvalue")
		}
		if x.Op == "=" {
			if !s.assignable(tl, tr) {
				s.errorf(x.P, "cannot assign %s to %s", tr, tl)
			}
		} else {
			op := x.Op[:len(x.Op)-1]
			switch op {
			case "%", "&", "|", "^", "<<", ">>":
				if !tl.IsInt() || !tr.IsInt() {
					s.errorf(x.P, "invalid operands to %q", x.Op)
				}
			default:
				if tl.K == CPtr && tr.IsInt() && (op == "+" || op == "-") {
					break
				}
				if !tl.IsArith() || !tr.IsArith() {
					s.errorf(x.P, "invalid operands to %q", x.Op)
				}
			}
		}
		return tl
	case *Cond:
		s.condition(x.C)
		tt := s.checkExpr(x.Then)
		te := s.checkExpr(x.Else)
		if tt.IsArith() && te.IsArith() {
			return commonArith(tt, te)
		}
		if tt.Equal(te) {
			return tt
		}
		s.errorf(x.P, "mismatched ?: arms: %s and %s", tt, te)
		return tt
	case *Index:
		tx := s.checkExpr(x.X)
		ti := s.checkExpr(x.I)
		if !ti.IsInt() {
			s.errorf(x.P, "array index has non-integer type %s", ti)
		}
		x.setLValue(true)
		switch tx.K {
		case CPtr, CArray:
			return tx.Elem
		}
		s.errorf(x.P, "subscript of non-pointer type %s", tx)
		return TypeInt
	case *CastExpr:
		to := s.resolveType(x.To)
		from := s.checkExpr(x.X)
		okScalar := (to.IsArith() && from.IsArith()) ||
			(to.K == CPtr && (from.K == CPtr || from.K == CArray)) ||
			(to.IsInt() && from.K == CPtr)
		if !okScalar {
			s.errorf(x.P, "invalid cast from %s to %s", from, to)
		}
		return to
	case *Call:
		return s.checkCall(x)
	}
	panic(fmt.Sprintf("clc: unknown expression %T", e))
}

// lvalueSpace returns the address space of the storage behind an lvalue.
func (s *Sema) lvalueSpace(e Expr) ir.AddrSpace {
	switch x := e.(type) {
	case *Ident:
		if x.Sym != nil && x.Sym.Ty.K == CArray {
			return x.Sym.Ty.Space
		}
		return ir.Private
	case *Unary:
		if x.Op == "*" {
			if t := TypeOf(x.X); t != nil && t.K == CPtr {
				return t.Space
			}
		}
	case *Index:
		if t := TypeOf(x.X); t != nil && (t.K == CPtr || t.K == CArray) {
			return t.Space
		}
	}
	return ir.Private
}

func (s *Sema) checkCall(c *Call) *CType {
	if fd, ok := s.funcs[c.Name]; ok {
		c.Fn = fd
		if len(c.Args) != len(fd.Params) {
			s.errorf(c.P, "call to %q with %d args, want %d", c.Name, len(c.Args), len(fd.Params))
		}
		for i, a := range c.Args {
			at := s.checkExpr(a)
			if i < len(fd.Params) {
				pt := fd.Params[i].Sym
				var want *CType
				if pt != nil {
					want = pt.Ty
				} else {
					want = s.resolveType(fd.Params[i].Ty)
				}
				if at.K == CArray {
					at = PtrTo(at.Elem, at.Space)
				}
				if !s.assignable(want, at) {
					s.errorf(a.Pos(), "call to %q: argument %d has type %s, want %s", c.Name, i+1, at, want)
				}
			}
		}
		if fd.RetType == nil {
			fd.RetType = s.resolveType(fd.Ret)
		}
		return fd.RetType
	}
	bi, ok := builtins[c.Name]
	if !ok {
		s.errorf(c.P, "call to undeclared function %q", c.Name)
		for _, a := range c.Args {
			s.checkExpr(a)
		}
		return TypeInt
	}
	c.Builtin = bi
	var argTypes []*CType
	for _, a := range c.Args {
		argTypes = append(argTypes, s.checkExpr(a))
	}
	if len(c.Args) != bi.NArgs {
		// The per-kind checks below index the arguments bi takes.
		s.errorf(c.P, "builtin %q takes %d args, got %d", c.Name, bi.NArgs, len(c.Args))
		return TypeInt
	}
	switch bi.Kind {
	case BWorkItem:
		if bi.NArgs == 1 && !argTypes[0].IsInt() {
			s.errorf(c.P, "%s dimension must be an integer", c.Name)
		}
		if c.Name == "get_work_dim" {
			return TypeInt
		}
		return TypeLong
	case BBarrier:
		return TypeVoid
	case BAtomic:
		pt := argTypes[0]
		if pt.K != CPtr || !pt.Elem.IsInt() || pt.Elem.K == CBool {
			s.errorf(c.P, "%s requires a pointer to int or long, got %s", c.Name, pt)
			return TypeInt
		}
		if pt.Space != ir.Global && pt.Space != ir.Local {
			s.errorf(c.P, "%s requires a global or local pointer", c.Name)
		}
		if !bi.Inc && !argTypes[1].IsInt() {
			s.errorf(c.P, "%s operand must be an integer", c.Name)
		}
		return pt.Elem
	case BMinMax:
		t := argTypes[0]
		for _, at := range argTypes[1:] {
			t = commonArith(t, at)
		}
		if !t.IsArith() {
			s.errorf(c.P, "%s requires arithmetic operands", c.Name)
			t = TypeInt
		}
		return t
	case BMath:
		// Math builtins operate on float (double when any arg is
		// double).
		t := TypeFloat
		for _, at := range argTypes {
			if !at.IsArith() {
				s.errorf(c.P, "%s requires arithmetic operands", c.Name)
			}
			if at.K == CDouble {
				t = TypeDouble
			}
		}
		return t
	}
	return TypeInt
}
