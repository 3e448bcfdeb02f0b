package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ir"
)

// TestHelpersWriteWholeRegister holds the typed opcodes, run through
// the scalar dispatch loop's own arms (and the shared helpers they call:
// the typed loads, binOp, castOp, atomicRMW), to two rules the loops
// rely on: the destination register is overwritten whole, whatever
// stale pointer word it held, and the destination may alias an operand.
// Every case runs twice: into a register holding a stale pointer word,
// and into the operand x itself. A binop with a specialized opcode
// (add.i32, …) runs through both forms.
func TestHelpersWriteWholeRegister(t *testing.T) {
	m := NewMachine(nil)
	word := m.NewRegion(8, ir.Global)
	target := m.NewRegion(16, ir.Global)
	wordP := Value{K: ir.Pointer, P: Ptr{R: word}}
	stale := m.word(Value{K: ir.Pointer, P: Ptr{R: m.NewRegion(8, ir.Private), Off: 3}})

	// Each op is one typed instruction over x (register 0) and y
	// (register 1).
	load := func(k ir.Kind) []instr {
		return []instr{{op: opLoadI1 + vmOp(k-ir.Bool), kind: k, a: 0}}
	}
	bin := func(k ir.BinKind, kind ir.Kind) []instr {
		ins := []instr{{op: binOpcode(kind), sub: uint8(k), kind: kind, a: 0, b: 1}}
		if spec, ok := specBin[[2]uint8{uint8(k), uint8(kind)}]; ok {
			ins = append(ins, instr{op: spec, a: 0, b: 1})
		}
		return ins
	}
	cast := func(k ir.CastKind, to ir.Kind) []instr {
		return []instr{{op: castOpcode(k, to), sub: uint8(k), kind: to, a: 0}}
	}
	// x is the value operand (the one d aliases), y the pointer.
	atomic := func(k ir.AtomicKind) []instr {
		return []instr{{op: opAtomic, sub: uint8(k), kind: ir.I32, a: 1, b: 0}}
	}

	cases := []struct {
		name string
		init Value // stored to word before each run (K Void: none)
		op   []instr
		x, y Value
		want Value
		mem  Value  // word after the run (K Void: not checked)
		trap string // the run must trap with this message instead
	}{
		{name: "load bool", init: BoolV(true), op: load(ir.Bool), x: wordP, want: BoolV(true)},
		{name: "load i32", init: IntV(-5), op: load(ir.I32), x: wordP, want: IntV(-5)},
		{name: "load i64", init: LongV(1 << 40), op: load(ir.I64), x: wordP, want: LongV(1 << 40)},
		{name: "load f32", init: FloatV(0.1), op: load(ir.F32), x: wordP, want: FloatV(0.10000000149011612)},
		{name: "load f64", init: DoubleV(0.1), op: load(ir.F64), x: wordP, want: DoubleV(0.1)},
		{name: "load pointer", init: Value{K: ir.Pointer, P: Ptr{R: target, Off: 8}}, op: load(ir.Pointer), x: wordP,
			want: Value{K: ir.Pointer, P: Ptr{R: target, Off: 8}}},
		{name: "load null pointer", init: Value{K: ir.Pointer}, op: load(ir.Pointer), x: wordP, want: Value{K: ir.Pointer}},
		{name: "load out of bounds", op: load(ir.I64), x: Value{K: ir.Pointer, P: Ptr{R: word, Off: 4}},
			trap: "out-of-bounds access: offset 4 size 8 in region of 8 bytes"},

		{name: "add i32 wraps", op: bin(ir.Add, ir.I32), x: IntV(0x7fffffff), y: IntV(1), want: IntV(-0x80000000)},
		{name: "add i64", op: bin(ir.Add, ir.I64), x: LongV(0x7fffffff), y: LongV(1), want: LongV(0x80000000)},
		{name: "add bool masks", op: bin(ir.Add, ir.Bool), x: BoolV(true), y: BoolV(true), want: BoolV(false)},
		{name: "sub i32 wraps", op: bin(ir.Sub, ir.I32), x: IntV(-0x80000000), y: IntV(1), want: IntV(0x7fffffff)},
		{name: "mul i32 wraps", op: bin(ir.Mul, ir.I32), x: IntV(65536), y: IntV(65536), want: IntV(0)},
		{name: "sdiv i64", op: bin(ir.SDiv, ir.I64), x: LongV(-7), y: LongV(2), want: LongV(-3)},
		{name: "sdiv by zero", op: bin(ir.SDiv, ir.I32), x: IntV(7), y: IntV(0), trap: "integer division by zero"},
		{name: "srem i64", op: bin(ir.SRem, ir.I64), x: LongV(-7), y: LongV(2), want: LongV(-1)},
		{name: "srem by zero", op: bin(ir.SRem, ir.I32), x: IntV(7), y: IntV(0), trap: "integer remainder by zero"},
		{name: "and i32", op: bin(ir.And, ir.I32), x: IntV(12), y: IntV(10), want: IntV(8)},
		{name: "or bool masks", op: bin(ir.Or, ir.Bool), x: Value{K: ir.Bool, I: 2}, y: BoolV(true), want: BoolV(true)},
		{name: "xor i32", op: bin(ir.Xor, ir.I32), x: IntV(12), y: IntV(10), want: IntV(6)},
		{name: "shl i32 wraps", op: bin(ir.Shl, ir.I32), x: IntV(1), y: IntV(31), want: IntV(-0x80000000)},
		{name: "shl i64 masks amount", op: bin(ir.Shl, ir.I64), x: LongV(1), y: LongV(65), want: LongV(2)},
		{name: "ashr i64", op: bin(ir.AShr, ir.I64), x: LongV(-16), y: LongV(2), want: LongV(-4)},
		{name: "fadd f32 rounds", op: bin(ir.FAdd, ir.F32), x: FloatV(1), y: FloatV(1e-9), want: FloatV(1)},
		{name: "fadd f64", op: bin(ir.FAdd, ir.F64), x: DoubleV(1.5), y: DoubleV(0.25), want: DoubleV(1.75)},
		{name: "fsub f64", op: bin(ir.FSub, ir.F64), x: DoubleV(1.5), y: DoubleV(0.25), want: DoubleV(1.25)},
		{name: "fmul f32 rounds", op: bin(ir.FMul, ir.F32), x: FloatV(4097), y: FloatV(4097), want: FloatV(16785408)},
		{name: "fdiv f32 rounds", op: bin(ir.FDiv, ir.F32), x: FloatV(1), y: FloatV(3), want: FloatV(0.3333333432674408)},
		{name: "fdiv f64", op: bin(ir.FDiv, ir.F64), x: DoubleV(1), y: DoubleV(4), want: DoubleV(0.25)},

		{name: "trunc i64 to i32", op: cast(ir.Trunc, ir.I32), x: LongV(0x180000000), want: IntV(-0x80000000)},
		{name: "trunc i32 to bool", op: cast(ir.Trunc, ir.Bool), x: IntV(6), want: BoolV(false)},
		{name: "sext i32 to i64", op: cast(ir.SExt, ir.I64), x: IntV(-5), want: LongV(-5)},
		{name: "zext bool to i32", op: cast(ir.ZExt, ir.I32), x: BoolV(true), want: IntV(1)},
		{name: "fptosi f32 to i32", op: cast(ir.FPToSI, ir.I32), x: FloatV(-2.75), want: IntV(-2)},
		{name: "fptosi f64 to i32 wraps", op: cast(ir.FPToSI, ir.I32), x: DoubleV(4294967301), want: IntV(5)},
		{name: "sitofp i32 to f32 rounds", op: cast(ir.SIToFP, ir.F32), x: IntV(16777217), want: FloatV(16777216)},
		{name: "sitofp i32 to f64", op: cast(ir.SIToFP, ir.F64), x: IntV(16777217), want: DoubleV(16777217)},
		{name: "fptrunc f64 to f32", op: cast(ir.FPTrunc, ir.F32), x: DoubleV(0.1), want: FloatV(0.10000000149011612)},
		{name: "fpext f32 to f64", op: cast(ir.FPExt, ir.F64), x: FloatV(0.5), want: DoubleV(0.5)},
		{name: "ptrcast", op: cast(ir.PtrCast, ir.Pointer), x: Value{K: ir.Pointer, P: Ptr{R: target, Off: 4}},
			want: Value{K: ir.Pointer, P: Ptr{R: target, Off: 4}}},
		{name: "ptrcast null", op: cast(ir.PtrCast, ir.Pointer), x: Value{K: ir.Pointer}, want: Value{K: ir.Pointer}},

		{name: "atomic add", init: IntV(5), op: atomic(ir.AtomAdd), x: IntV(3), y: wordP, want: IntV(5), mem: IntV(8)},
		{name: "atomic sub", init: IntV(5), op: atomic(ir.AtomSub), x: IntV(3), y: wordP, want: IntV(5), mem: IntV(2)},
		{name: "atomic min", init: IntV(5), op: atomic(ir.AtomMin), x: IntV(3), y: wordP, want: IntV(5), mem: IntV(3)},
		{name: "atomic max", init: IntV(5), op: atomic(ir.AtomMax), x: IntV(3), y: wordP, want: IntV(5), mem: IntV(5)},
		{name: "atomic and", init: IntV(12), op: atomic(ir.AtomAnd), x: IntV(10), y: wordP, want: IntV(12), mem: IntV(8)},
		{name: "atomic or", init: IntV(12), op: atomic(ir.AtomOr), x: IntV(10), y: wordP, want: IntV(12), mem: IntV(14)},
		{name: "atomic xchg", init: IntV(5), op: atomic(ir.AtomXchg), x: IntV(3), y: wordP, want: IntV(5), mem: IntV(3)},
	}
	for _, c := range cases {
		for _, aliased := range []bool{false, true} {
			name := c.name + "/stale"
			if aliased {
				name = c.name + "/aliased"
			}
			t.Run(name, func(t *testing.T) {
				for _, in := range c.op {
					if c.init.K != ir.Void {
						m.store(&ir.Type{Kind: c.init.K}, c.init, Ptr{R: word})
					}
					regs := []uint64{m.word(c.x), m.word(c.y), stale}
					in.dst = 2
					if aliased {
						in.dst = 0
					}
					if msg := trapOf(func() { execOne(m, in, regs) }); msg != c.trap {
						t.Fatalf("%s: trap %q, want %q", opNames[in.op], msg, c.trap)
					}
					if c.trap != "" {
						continue
					}
					if got, want := regs[in.dst], m.word(c.want); got != want {
						t.Errorf("%s: d = %#x, want %#x", opNames[in.op], got, want)
					}
					if c.mem.K != ir.Void {
						var got Value
						m.load(&got, &ir.Type{Kind: c.mem.K}, Ptr{R: word})
						if got != c.mem {
							t.Errorf("memory = %+v, want %+v", got, c.mem)
						}
					}
				}
			})
		}
	}
}

// execOne runs one instruction over regs through the scalar dispatch
// loop of a one-item group.
func execOne(m *Machine, in instr, regs []uint64) {
	cf := &compiledFn{code: []instr{in, {op: opRet, a: -1}}}
	l := &launchCtx{m: m, fn: &ir.Function{Name: "one"}, maxSteps: defaultMaxSteps}
	g := &vmGroup{l: l, ar: &arena{tab: &m.regions}}
	g.exec(&wiState{frames: []vmFrame{{cf: cf, regp: &regs}}})
}

// trapOf runs f and returns the message of the execution trap it
// raised, or "" if it returned normally.
func trapOf(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			tr, ok := r.(trap)
			if !ok {
				panic(r)
			}
			msg = tr.msg
		}
	}()
	f()
	return ""
}

// TestDispatchLoopsAssignNoValueCalls keeps the 40-byte Value out of
// the dispatch loops. Their registers are one word each (Machine.word);
// when they were Values, a non-inlined helper returning one handed it
// back in registers, and the loop spilled them with 8-byte stores and
// copied the spill into the register file with 16-byte loads the CPU
// could not forward from those stores, which once cost 13 % of a
// Parboil run on one instruction. exec, warpExec and laneExec may not
// mention Value at all.
func TestDispatchLoopsAssignNoValueCalls(t *testing.T) {
	loops := map[string]bool{"exec": true, "warpExec": true, "laneExec": true}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !loops[fd.Name.Name] || !isVMGroupMethod(fd) {
				continue
			}
			found[fd.Name.Name] = true
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "Value" {
					t.Errorf("%s: %s mentions Value; the dispatch loops work on register words", fset.Position(id.Pos()), fd.Name.Name)
				}
				return true
			})
		}
	}
	for name := range loops {
		if !found[name] {
			t.Errorf("dispatch loop (*vmGroup).%s not found", name)
		}
	}
}

// TestWarpOnceModeHasNoDataOpcodes keeps one spelling of each opcode in
// the warp engine: warpExec runs a once-mode data instruction through
// laneExec over the first active lane, so its once-mode switch may name
// only the control transfers it handles itself. A data opcode there is
// a second copy of the lane arm's semantics.
func TestWarpOnceModeHasNoDataOpcodes(t *testing.T) {
	allowed := map[string]bool{"opJump": true, "opCondJump": true, "opCmpJump": true}
	f, err := parser.ParseFile(token.NewFileSet(), "warp.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var once *ast.CaseClause
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Name.Name != "warpExec" || !isVMGroupMethod(fd) {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if id, ok := e.(*ast.Ident); ok && id.Name == "wmOnce" {
						once = cc
					}
				}
			}
			return once == nil
		})
	}
	if once == nil {
		t.Fatal("(*vmGroup).warpExec has no wmOnce case")
	}
	for _, s := range once.Body {
		ast.Inspect(s, func(n ast.Node) bool {
			cc, ok := n.(*ast.CaseClause)
			if !ok {
				return true
			}
			for _, e := range cc.List {
				if id, ok := e.(*ast.Ident); !ok || !allowed[id.Name] {
					t.Errorf("warpExec's once mode dispatches %s itself; leave it to laneExec", types.ExprString(e))
				}
			}
			return true
		})
	}
}

func isVMGroupMethod(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return false
	}
	star, ok := fd.Recv.List[0].Type.(*ast.StarExpr)
	if !ok {
		return false
	}
	id, ok := star.X.(*ast.Ident)
	return ok && id.Name == "vmGroup"
}
