package interp

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
	"repro/internal/passes"
)

// This file is the bytecode compiler: a one-time, per-function pass that
// numbers every ir.Value into a dense register slot (ir.NumberFunction)
// and lowers basic blocks into a flat []instr array with pre-resolved
// operands — register indices instead of map lookups, constants folded
// into a prefilled tail of the register file, callees and builtins bound
// at compile time, and branch targets as pc offsets. The VM (vm.go)
// dispatches over this form; the tree-walking interpreter in exec.go is
// kept as the semantic reference.
//
// Two optimization layers sit in front of the lowering:
//
//   - the passes.O1 pipeline (mem2reg, constfold, dce, simplifycfg) runs
//     over a private clone of the module, promoting scalar locals to SSA
//     values with phis — phis lower to register moves on the incoming
//     edges (parallel-copy semantics, cycles broken through a per-frame
//     scratch register), so promoted locals never touch memory;
//   - superinstruction fusion collapses the dominant adjacent pairs and
//     triples — cmp+condbr, load+binop+store, binop+store, index+load —
//     into single dispatches when the intermediate value has no other
//     use, and a block's sin and cos of one value into one math.Sincos.
//
// Both layers are on by default and controlled per-pass by CompileOpts.

// vmOp is a VM opcode. The set is deliberately finer-grained than
// ir.Opcode where pre-resolution pays: every value-producing opcode is
// typed — the compiler resolves the kind an operation runs at into the
// opcode (load.i32, bin.f32, …) or into its predicate (cmp), so no
// helper switches on a kind at run time; builtin calls split into
// work-item, math and IR-function calls, constant-index GEPs fold the
// scaled offset, and the fused superinstructions above collapse
// multi-instruction idioms into one dispatch. The typed variants of one
// operation form a family that profiles count under one name (opNames).
type vmOp uint8

const (
	opAlloca      vmOp = iota // dst = fresh private region of imm bytes (space in sub)
	opAllocaLocal             // dst = work-group local region, slot a, imm bytes

	// Typed loads and stores, one per ir.Kind from Bool to Pointer
	// (opLoadI1 + kind - ir.Bool): dst = load [regs[a]]; store regs[a]
	// to [regs[b]].
	opLoadI1
	opLoadI32
	opLoadI64
	opLoadF32
	opLoadF64
	opLoadPtr
	opStoreI1
	opStoreI32
	opStoreI64
	opStoreF32
	opStoreF64
	opStorePtr

	opGEP      // dst = regs[a] + regs[b]*imm
	opGEPConst // dst = regs[a] + imm (pre-scaled constant index)

	// Typed binops, one per result kind from Bool to F64 (opBinI1 +
	// kind - ir.Bool): dst = binop sub(regs[a], regs[b]).
	opBinI1
	opBinI32
	opBinI64
	opBinF32
	opBinF64

	opCmp // dst = typed predicate sub (cmpSLT, cmpFLT, cmpPLT, …) of regs[a], regs[b]
	// Typed conversions (kind: the result's; sub: the ir.CastKind for
	// listings). opExt is every conversion that keeps the register as it
	// is (sext, zext, fpext, pointer bitcast): a move.
	opExt
	opTruncI1
	opTruncI32
	opFPToI1
	opFPToI32
	opFPToI64
	opSIToF32
	opSIToF64
	opFPTrunc

	opSelect       // dst = regs[a] ? regs[b] : regs[c]
	opAtomic       // dst = atomic sub on regs[a] with regs[b] (memory kind)
	opBarrier      // work-group barrier: suspend the work-item
	opCall         // dst = call fn(regs[args...])
	opWI           // dst = work-item builtin sub; dim = a<0 ? imm : regs[a].I
	opMath         // dst = math builtin sub(regs[a][, regs[b]]) at kind; c >= 0: a sin/cos pair, c = the other (sinCosPartner)
	opJump         // pc = imm
	opCondJump     // pc = regs[a] ? b : c
	opRet          // return regs[a] (a < 0: void)
	opTrap         // execution fault with msg
	opMove         // dst = regs[a] (phi edge copy)
	opCmpJump      // fused cmp+condbr: pc = typed predicate sub(regs[a], regs[b]) ? c : imm
	opBinStore     // fused bin+store: binop sub(regs[a], regs[b]) kind -> [regs[c]]
	opLoadBinStore // fused load+bin+store: load kind [regs[a]] op regs[b] -> [regs[c]]
	opLoadIdx      // fused gep+load: dst = load kind [regs[a] + regs[b].I*imm]
	opLoadOff      // fused gepconst+load: dst = load kind [regs[a] + imm]

	// Specialized binops: the (kind, op) pairs that dominate promoted
	// loop bodies dispatch as single-case opcodes — no helper call, no
	// inner switch. Semantics are bit-identical to binOp's.
	opAddI32
	opSubI32
	opMulI32
	opAndI32
	opOrI32
	opXorI32
	opAddI64
	opAddF32
	opSubF32
	opMulF32
	opDivF32
)

// Typed comparison predicates (opCmp and opCmpJump sub): the integer
// ones are ir.CmpPred's (IEQ…IGE, on sign-extended integers of any
// width), then the float ones (FEQ…FGE), then the pointer ones: equal
// regions and offsets, and order by offset within a region, by region
// ID across regions.
const (
	cmpSLT = uint8(ir.ILT)
	cmpFEQ = uint8(ir.FEQ)
	cmpPEQ = uint8(ir.FGE) + 1
	cmpPLT = cmpPEQ + uint8(ir.ILT)
)

// cmpCode is the typed predicate of p over operands of kind.
func cmpCode(p ir.CmpPred, kind ir.Kind) uint8 {
	if kind == ir.Pointer {
		return cmpPEQ + uint8(p)
	}
	return uint8(p)
}

// binOpcode is the typed binop producing kind.
func binOpcode(kind ir.Kind) vmOp { return opBinI1 + vmOp(kind-ir.Bool) }

// castOpcode is the typed opcode of conversion k to kind to.
func castOpcode(k ir.CastKind, to ir.Kind) vmOp {
	switch {
	case k == ir.Trunc && to == ir.Bool:
		return opTruncI1
	case k == ir.Trunc && to == ir.I32:
		return opTruncI32
	case k == ir.FPToSI:
		return opFPToI1 + vmOp(to-ir.Bool)
	case k == ir.SIToFP:
		return opSIToF32 + vmOp(to-ir.F32)
	case k == ir.FPTrunc:
		return opFPTrunc
	}
	return opExt
}

// specBin maps a (BinKind, Kind) pair onto its specialized opcode.
var specBin = map[[2]uint8]vmOp{
	{uint8(ir.Add), uint8(ir.I32)}:  opAddI32,
	{uint8(ir.Sub), uint8(ir.I32)}:  opSubI32,
	{uint8(ir.Mul), uint8(ir.I32)}:  opMulI32,
	{uint8(ir.And), uint8(ir.I32)}:  opAndI32,
	{uint8(ir.Or), uint8(ir.I32)}:   opOrI32,
	{uint8(ir.Xor), uint8(ir.I32)}:  opXorI32,
	{uint8(ir.Add), uint8(ir.I64)}:  opAddI64,
	{uint8(ir.FAdd), uint8(ir.F32)}: opAddF32,
	{uint8(ir.FSub), uint8(ir.F32)}: opSubF32,
	{uint8(ir.FMul), uint8(ir.F32)}: opMulF32,
	{uint8(ir.FDiv), uint8(ir.F32)}: opDivF32,
}

// lbsSwapped flags an opLoadBinStore whose loaded value is the RIGHT
// operand of the (non-commutative) binop; it shares the sub byte with
// the BinKind, which never reaches bit 7.
const lbsSwapped = 0x80

// Work-item builtin codes (opWI sub).
const (
	wiGlobalID uint8 = iota
	wiLocalID
	wiGroupID
	wiNumGroups
	wiLocalSize
	wiGlobalSize
	wiGlobalOffset
	wiWorkDim
)

var wiBuiltins = map[string]uint8{
	"get_global_id":     wiGlobalID,
	"get_local_id":      wiLocalID,
	"get_group_id":      wiGroupID,
	"get_num_groups":    wiNumGroups,
	"get_local_size":    wiLocalSize,
	"get_global_size":   wiGlobalSize,
	"get_global_offset": wiGlobalOffset,
	"get_work_dim":      wiWorkDim,
}

// instr is one VM instruction. dst/a/b/c are register-file indices (-1
// where unused); imm carries sizes, pre-scaled offsets and jump targets.
type instr struct {
	op   vmOp
	sub  uint8   // BinKind / CmpPred / CastKind / AtomicKind / builtin code / AddrSpace
	kind ir.Kind // operand or result kind where the operation is typed
	dst  int32
	a    int32
	b    int32
	c    int32
	imm  int64
	fn   *compiledFn // opCall target
	args []int32     // opCall argument registers
	msg  string      // opTrap message
}

// compiledFn is the compiled form of one IR function: flat code over a
// register file of nregs one-word registers (Machine.word), of which
// [0, nparams) are the incoming arguments and [constBase,
// constBase+len(consts)) are prefilled constants, of constKinds (a
// scratch slot for phi-cycle breaking may follow).
type compiledFn struct {
	fn         *ir.Function
	code       []instr
	nparams    int
	constBase  int
	nregs      int
	consts     []uint64
	constKinds []ir.Kind

	// blockStarts/blockNames map bytecode pcs back to the source basic
	// blocks for execution profiling: blockStarts is ascending (blocks
	// are emitted in order and each emits at least its terminator), so
	// the block containing any pc — including a jump-threaded landing
	// mid-block — is a binary search away. A final "(edge-copies)" entry
	// covers the synthesized edge-stub region after the last block.
	blockStarts []int32
	blockNames  []string

	// regPool recycles register files across frames and launches; files
	// are cleared on Get so stale values do not leak between
	// activations.
	regPool sync.Pool

	// Warp execution tables (kernels compiled with WarpWidth > 0; nil
	// otherwise). wmode holds one dispatch-mode byte per instruction;
	// uniform marks the registers whose value is warp-invariant (their
	// home is the warp's shared file in vector mode); uniformRegs lists
	// them for the spill/re-form copies; reconv maps the pc of every
	// wmDiverge branch to the pc where its sides meet again (noReconv:
	// never); reformPC marks the resume pcs (instruction after a barrier
	// in a control-uniform block) where a spilled warp may re-enter
	// vector dispatch.
	wmode       []uint8
	uniform     []bool
	uniformRegs []int32
	reconv      map[int32]int32
	reformPC    map[int32]bool
}

// getRegs returns a cleared register file with the constant tail
// prefilled. The pooled pointer travels with the frame and goes back
// verbatim in putRegs, so frame push/pop allocates nothing.
func (cf *compiledFn) getRegs() *[]uint64 {
	p := cf.regPool.Get().(*[]uint64)
	regs := *p
	clear(regs)
	copy(regs[cf.constBase:], cf.consts)
	return p
}

func (cf *compiledFn) putRegs(p *[]uint64) {
	cf.regPool.Put(p)
}

// CompileOpts controls bytecode compilation.
type CompileOpts struct {
	// Opt runs the passes.O1 pipeline (mem2reg, constfold, dce,
	// simplifycfg) over a private clone of the module before lowering;
	// the caller's module is never mutated.
	Opt bool
	// Disable names optimizations to skip: the O1 pass names
	// ("mem2reg", "constfold", "dce", "simplifycfg") and "fuse" for
	// superinstruction fusion.
	Disable []string
	// WarpWidth enables warp-style batched execution: the work-items
	// of a group run in fixed-width batches with one fetch/decode per
	// instruction per warp, driven by a per-kernel uniformity analysis
	// (passes.AnalyzeUniformity). 0 disables warp execution entirely
	// (the zero value keeps plain per-item dispatch); widths above
	// MaxWarpWidth are clamped to it.
	WarpWidth int
}

// Tier0CompileOpts is the cheapest lowering: no O1, no fusion, no warp
// tables (and so no module clone, per-pass verification or uniformity
// analysis). The runtime never compiles this way; the benchmark times it
// as the lower bound of the JIT's lowering cost.
var Tier0CompileOpts = CompileOpts{Disable: []string{"fuse"}}

// DefaultWarpWidth is the warp width DefaultCompileOpts enables:
// 64 lanes, the warp/wavefront size of the simulated AMD hardware.
const DefaultWarpWidth = 64

// MaxWarpWidth is the widest warp the engine forms: a warp's active
// lanes are one uint64 mask.
const MaxWarpWidth = 64

// DefaultCompileOpts is what CompileModule (and therefore SharedProgram)
// compiles with: the full O1 pipeline plus fusion and warp-batched
// dispatch.
var DefaultCompileOpts = CompileOpts{Opt: true, WarpWidth: DefaultWarpWidth}

func (o CompileOpts) disabled(name string) bool {
	for _, n := range o.Disable {
		if n == name {
			return true
		}
	}
	return false
}

// Prog is a compiled module: the unit the VM executes. A module keeps
// its shared one in its Compiled slot (see SharedProgram).
type Prog struct {
	// Mod is the module the program was compiled FROM — the identity a
	// machine checks before it runs the program. The executed code may
	// come from an optimized private clone (src).
	Mod *ir.Module

	src *ir.Module
	fns map[string]*compiledFn

	// localSizes assigns every local-space alloca in the module a dense
	// work-group slot; sizes are static (element size × count), so a
	// group's local regions are carved without locks.
	localSizes []int64

	// warpWidth is the lane count of warp-batched execution (0: the
	// program runs work-items one at a time).
	warpWidth int
}

// WarpWidth returns the warp lane width the program was compiled with
// (0: warp execution disabled).
func (p *Prog) WarpWidth() int { return p.warpWidth }

// CompileModule lowers every defined function of the module to bytecode
// with the default optimization pipeline (see DefaultCompileOpts). The
// module must not be mutated afterwards (callees are resolved to
// compiled-function pointers at this point).
func CompileModule(mod *ir.Module) *Prog {
	return CompileModuleOpts(mod, DefaultCompileOpts)
}

// CompileModuleOpts is CompileModule with explicit optimization
// settings — the parity suite compiles one module both ways and holds
// the outputs byte-identical.
func CompileModuleOpts(mod *ir.Module, opts CompileOpts) *Prog {
	src := mod
	if opts.Opt {
		clone := ir.CloneModule(mod)
		// A pipeline failure (it verifies after every pass) falls back
		// to lowering the unoptimized module: slower, never wrong.
		if err := passes.RunO1(clone, opts.Disable...); err == nil {
			src = clone
		}
	}
	p := &Prog{Mod: mod, src: src, fns: make(map[string]*compiledFn)}
	if opts.WarpWidth > 0 {
		p.warpWidth = min(opts.WarpWidth, MaxWarpWidth)
	}
	fuse := !opts.disabled("fuse")
	// Two phases so calls can reference functions defined later.
	for _, f := range src.Funcs {
		if !f.IsDecl() {
			p.fns[f.Name] = &compiledFn{fn: f}
		}
	}
	for _, f := range src.Funcs {
		if !f.IsDecl() {
			p.compileFn(p.fns[f.Name], fuse)
		}
	}
	return p
}

// cacheMetrics receives SharedProgram hit/miss events; the accelOS
// runtime adapts it onto its telemetry registry so cold compiles are
// observable.
var cacheMetrics atomic.Pointer[CacheMetrics]

// CacheMetrics receives shared-program events; implementations must be
// safe for concurrent use.
type CacheMetrics interface {
	ProgramCacheHit()
	ProgramCacheMiss()
}

// SetCacheMetrics installs (or, with nil, removes) the process-wide
// shared-program metrics sink.
func SetCacheMetrics(m CacheMetrics) {
	if m == nil {
		cacheMetrics.Store(nil)
		return
	}
	cacheMetrics.Store(&m)
}

// SharedProgram returns the compiled form of mod, kept on the module
// itself (mod.Compiled), compiling on first use: a live module is
// compiled once, and its bytecode is collected with it. Racing first
// uses of one module both compile; the first store wins, and the loser
// reads as the hit it would have been had it waited.
func SharedProgram(mod *ir.Module) *Prog {
	p, _ := mod.Compiled.Load().(*Prog)
	miss := false
	if p == nil {
		if fresh := CompileModule(mod); mod.Compiled.CompareAndSwap(nil, fresh) {
			p, miss = fresh, true
		} else {
			p = mod.Compiled.Load().(*Prog)
		}
	}
	if m := cacheMetrics.Load(); m != nil {
		if miss {
			(*m).ProgramCacheMiss()
		} else {
			(*m).ProgramCacheHit()
		}
	}
	return p
}

// ShareProgram installs an already-compiled program on its module, so
// every later launch of p.Mod resolves to it instead of compiling with
// the default options.
func ShareProgram(p *Prog) {
	p.Mod.Compiled.Store(p)
}

// constKey dedups constants by kind and bits.
type constKey struct {
	kind ir.Kind
	i    int64
	f    float64
}

// fixup is a branch operand awaiting its target pc: the code index and
// which field to patch, plus the target (a block, or an edge stub when
// the jump must execute phi moves first).
type fixup struct {
	at    int
	field uint8 // 'i' = imm, 'b', 'c'
	blk   *ir.Block
	stub  int // -1: blk is the target
}

// edgeStub is a synthesized trampoline for a conditional edge into a
// phi-bearing block: the parallel copies of that edge followed by a jump
// to the real target (classic critical-edge splitting, done in bytecode
// space instead of the CFG).
type edgeStub struct {
	moves []instr
	to    *ir.Block
}

type fnCompiler struct {
	prog *Prog
	cf   *compiledFn
	nb   *ir.Numbering
	fuse bool

	constRegs  map[constKey]int32
	consts     []uint64
	constKinds []ir.Kind

	blockPC map[*ir.Block]int32
	code    []instr
	fixups  []fixup
	stubs   []edgeStub
	uses    map[ir.Value]int   // operand occurrence count, for fusion legality
	blk     []*ir.Instr        // the block being lowered
	second  map[*ir.Instr]bool // sin/cos calls whose pair's first computes them

	// uni is the uniformity analysis of a kernel compiled for warp
	// execution (nil otherwise), computed once and shared by the branch
	// fusion gate, jump threading and the dispatch-mode tables.
	uni *passes.Uniformity

	needScratch bool // some edge's parallel copy had a cycle
}

func (p *Prog) compileFn(cf *compiledFn, fuse bool) {
	fn := cf.fn
	c := &fnCompiler{
		prog:      p,
		cf:        cf,
		nb:        ir.NumberFunction(fn),
		fuse:      fuse,
		constRegs: make(map[constKey]int32),
		blockPC:   make(map[*ir.Block]int32),
		uses:      make(map[ir.Value]int),
		second:    make(map[*ir.Instr]bool),
	}
	if p.warpWidth > 0 && fn.Kernel {
		// The warp stream drives only kernel top frames, so only kernels
		// are analyzed and get dispatch-mode tables.
		c.uni = passes.AnalyzeUniformity(fn)
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				c.uses[a]++
			}
		}
	}
	for _, b := range fn.Blocks {
		c.blockPC[b] = int32(len(c.code))
		c.emitBlock(b)
		if !b.Terminated() {
			c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("fell off unterminated block in %s", fn.Name)})
		}
		cf.blockStarts = append(cf.blockStarts, c.blockPC[b])
		cf.blockNames = append(cf.blockNames, b.Name)
	}
	if len(c.stubs) > 0 {
		cf.blockStarts = append(cf.blockStarts, int32(len(c.code)))
		cf.blockNames = append(cf.blockNames, "(edge-copies)")
	}
	// Edge stubs go after the straight-line code; conditional branches
	// into phi-bearing blocks land here, run the edge's copies, and jump
	// on to the real target.
	stubPC := make([]int32, len(c.stubs))
	for i, st := range c.stubs {
		stubPC[i] = int32(len(c.code))
		c.code = append(c.code, st.moves...)
		c.code = append(c.code, instr{op: opJump, imm: int64(c.blockPC[st.to])})
	}
	for _, fx := range c.fixups {
		pc := c.blockPC[fx.blk]
		if fx.stub >= 0 {
			pc = stubPC[fx.stub]
		}
		switch fx.field {
		case 'i':
			c.code[fx.at].imm = int64(pc)
		case 'b':
			c.code[fx.at].b = pc
		case 'c':
			c.code[fx.at].c = pc
		}
	}
	var keep map[int32]bool
	if c.uni != nil {
		keep = reconvergencePCs(c.uni, fn.Blocks, c.blockPC)
	}
	c.threadJumps(keep)
	cf.code = c.code
	cf.nparams = len(fn.Params)
	cf.constBase = c.nb.NumValues()
	cf.consts, cf.constKinds = c.consts, c.constKinds
	cf.nregs = cf.constBase + len(c.consts)
	if c.needScratch {
		// The scratch slot sits after the constant tail, whose size is
		// only now final; rewrite the placeholder index.
		s := int32(cf.nregs)
		cf.nregs++
		for i := range cf.code {
			if cf.code[i].dst == scratchMark {
				cf.code[i].dst = s
			}
			if cf.code[i].a == scratchMark {
				cf.code[i].a = s
			}
		}
	}
	n := cf.nregs
	cf.regPool.New = func() any {
		s := make([]uint64, n)
		return &s
	}
	if c.uni != nil {
		cf.buildWarpTables(c.uni, c.nb, c.blockPC)
	}
}

// emitBlock lowers one basic block: the phi prefix produces no code
// (phis are written by their incoming edges), fusible sequences lower
// to superinstructions, and the terminator carries this block's
// outgoing phi copies. pos records where each value-producing IR
// instruction landed in the bytecode, feeding the phi-copy coalescer.
func (c *fnCompiler) emitBlock(b *ir.Block) {
	instrs := b.Instrs
	pos := make(map[*ir.Instr]int)
	i := len(b.Phis())
	c.blk = instrs
	for i < len(instrs) {
		in := instrs[i]
		if in.IsTerminator() {
			c.emitTerm(b, in, pos)
			i++
			continue
		}
		at := len(c.code)
		if n := c.tryFuse(instrs, i); n > 0 {
			// The fused group's surviving result (if any) is produced by
			// its last constituent.
			pos[instrs[i+n-1]] = at
			i += n
			continue
		}
		pos[in] = at
		c.emit(in)
		i++
	}
}

// singleUse reports whether the instruction's result is consumed exactly
// once in the whole function — the legality condition for skipping the
// intermediate register write when fusing.
func (c *fnCompiler) singleUse(in *ir.Instr) bool { return c.uses[in] == 1 }

// tryFuse matches a superinstruction starting at instrs[i] and emits it,
// returning how many IR instructions it consumed (0: no match). Only
// adjacent sequences fuse, and every intermediate value must be
// single-use, so skipping its register write is unobservable.
func (c *fnCompiler) tryFuse(instrs []*ir.Instr, i int) int {
	if !c.fuse {
		return 0
	}
	in := instrs[i]
	switch in.Op {
	case ir.OpLoad:
		// load + bin + store: the accumulate idiom (mem op= x).
		if i+2 < len(instrs) {
			bin, st := instrs[i+1], instrs[i+2]
			if bin.Op == ir.OpBin && st.Op == ir.OpStore &&
				c.singleUse(in) && c.singleUse(bin) &&
				st.Args[0] == ir.Value(bin) &&
				(bin.Args[0] == ir.Value(in)) != (bin.Args[1] == ir.Value(in)) {
				ops, ok := c.regs([]ir.Value{in.Args[0], bin.Args[0], bin.Args[1], st.Args[1]})
				if !ok {
					return 0
				}
				sub := uint8(bin.BinK)
				x := ops[1] // the non-loaded operand
				if bin.Args[1] == ir.Value(in) {
					sub |= lbsSwapped // loaded value is the RHS
				} else {
					x = ops[2]
				}
				c.code = append(c.code, instr{op: opLoadBinStore, sub: sub, kind: bin.Ty.Kind, a: ops[0], b: x, c: ops[3]})
				return 3
			}
		}
	case ir.OpBin:
		// bin + store.
		if i+1 < len(instrs) {
			st := instrs[i+1]
			if st.Op == ir.OpStore && c.singleUse(in) && st.Args[0] == ir.Value(in) {
				ops, ok := c.regs([]ir.Value{in.Args[0], in.Args[1], st.Args[1]})
				if !ok {
					return 0
				}
				c.code = append(c.code, instr{op: opBinStore, sub: uint8(in.BinK), kind: in.Ty.Kind, a: ops[0], b: ops[1], c: ops[2]})
				return 2
			}
		}
	case ir.OpGEP:
		// index-compute + load.
		if i+1 < len(instrs) {
			ld := instrs[i+1]
			if ld.Op == ir.OpLoad && c.singleUse(in) && ld.Args[0] == ir.Value(in) {
				elem := in.Ty.Elem.Size()
				if cv, isConst := ir.ConstIntValue(in.Args[1]); isConst {
					base, ok := c.reg(in.Args[0])
					if !ok {
						return 0
					}
					c.code = append(c.code, instr{op: opLoadOff, dst: c.dst(ld), kind: ld.Ty.Kind, a: base, imm: cv * elem})
					return 2
				}
				ops, ok := c.regs(in.Args)
				if !ok {
					return 0
				}
				c.code = append(c.code, instr{op: opLoadIdx, dst: c.dst(ld), kind: ld.Ty.Kind, a: ops[0], b: ops[1], imm: elem})
				return 2
			}
		}
	case ir.OpCmp:
		// cmp + condbr, the loop back-edge test. The fused form still
		// routes each side through its phi-copy stub when needed.
		if i+1 < len(instrs) {
			br := instrs[i+1]
			if br.Op == ir.OpCondBr && c.singleUse(in) && br.Args[0] == ir.Value(in) {
				ops, ok := c.regs(in.Args)
				if !ok {
					return 0
				}
				at := len(c.code)
				c.code = append(c.code, instr{op: opCmpJump, sub: cmpCode(in.CmpK, in.Args[0].Type().Kind), a: ops[0], b: ops[1]})
				c.fixEdge(at, 'c', br.Block(), br.Then)
				c.fixEdge(at, 'i', br.Block(), br.Else)
				return 2
			}
		}
	}
	return 0
}

// reg resolves an operand to its register index, interning constants.
// The second result is false for values the function does not define
// (invalid IR); the caller lowers the whole instruction to a trap,
// preserving the tree-walker's use-of-undefined-value fault.
func (c *fnCompiler) reg(v ir.Value) (int32, bool) {
	switch k := v.(type) {
	case *ir.ConstInt:
		return c.constReg(constKey{kind: k.Ty.Kind, i: k.V}, uint64(k.V)), true
	case *ir.ConstFloat:
		return c.constReg(constKey{kind: k.Ty.Kind, f: k.V}, fword(k.V)), true
	case *ir.ConstNull:
		return c.constReg(constKey{kind: ir.Pointer}, 0), true
	}
	return c.nb.IndexOf(v)
}

func (c *fnCompiler) constReg(key constKey, w uint64) int32 {
	if r, ok := c.constRegs[key]; ok {
		return r
	}
	r := int32(c.nb.NumValues() + len(c.consts))
	c.consts = append(c.consts, w)
	c.constKinds = append(c.constKinds, key.kind)
	c.constRegs[key] = r
	return r
}

// regs resolves all operands; ok is false if any is undefined.
func (c *fnCompiler) regs(vs []ir.Value) ([]int32, bool) {
	out := make([]int32, len(vs))
	for i, v := range vs {
		r, ok := c.reg(v)
		if !ok {
			return nil, false
		}
		out[i] = r
	}
	return out, true
}

func (c *fnCompiler) dst(in *ir.Instr) int32 {
	if !in.HasResult() {
		return -1
	}
	r, _ := c.nb.IndexOf(in)
	return r
}

func (c *fnCompiler) emit(in *ir.Instr) {
	undef := func(v ir.Value) {
		c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("use of undefined value %s", v.Ident())})
	}
	ops, ok := c.regs(in.Args)
	if !ok {
		for _, v := range in.Args {
			if _, defined := c.reg(v); !defined {
				undef(v)
				return
			}
		}
	}
	switch in.Op {
	case ir.OpAlloca:
		size := in.AllocaElem.Size() * in.AllocaCount
		if in.AllocaSpace == ir.Local {
			slot := int32(len(c.prog.localSizes))
			c.prog.localSizes = append(c.prog.localSizes, size)
			c.code = append(c.code, instr{op: opAllocaLocal, dst: c.dst(in), a: slot, imm: size})
			return
		}
		c.code = append(c.code, instr{op: opAlloca, dst: c.dst(in), sub: uint8(in.AllocaSpace), imm: size})
	case ir.OpLoad:
		c.code = append(c.code, instr{op: opLoadI1 + vmOp(in.Ty.Kind-ir.Bool), dst: c.dst(in), a: ops[0], kind: in.Ty.Kind})
	case ir.OpStore:
		kind := in.Args[0].Type().Kind
		c.code = append(c.code, instr{op: opStoreI1 + vmOp(kind-ir.Bool), a: ops[0], b: ops[1], kind: kind})
	case ir.OpGEP:
		elem := in.Ty.Elem.Size()
		if cv, isConst := ir.ConstIntValue(in.Args[1]); isConst {
			c.code = append(c.code, instr{op: opGEPConst, dst: c.dst(in), a: ops[0], imm: cv * elem})
			return
		}
		c.code = append(c.code, instr{op: opGEP, dst: c.dst(in), a: ops[0], b: ops[1], imm: elem})
	case ir.OpBin:
		// Specialization is part of the fusion layer: disabling "fuse"
		// must yield the plain PR 3 instruction shapes, or the vm-O0
		// baseline the CI speedup guard compares against would be
		// partially optimized.
		if c.fuse {
			if spec, ok := specBin[[2]uint8{uint8(in.BinK), uint8(in.Ty.Kind)}]; ok {
				c.code = append(c.code, instr{op: spec, dst: c.dst(in), a: ops[0], b: ops[1]})
				return
			}
		}
		c.code = append(c.code, instr{op: binOpcode(in.Ty.Kind), dst: c.dst(in), a: ops[0], b: ops[1], sub: uint8(in.BinK), kind: in.Ty.Kind})
	case ir.OpCmp:
		c.code = append(c.code, instr{op: opCmp, dst: c.dst(in), a: ops[0], b: ops[1], sub: cmpCode(in.CmpK, in.Args[0].Type().Kind)})
	case ir.OpCast:
		c.code = append(c.code, instr{op: castOpcode(in.CastK, in.Ty.Kind), dst: c.dst(in), a: ops[0], sub: uint8(in.CastK), kind: in.Ty.Kind})
	case ir.OpSelect:
		c.code = append(c.code, instr{op: opSelect, dst: c.dst(in), a: ops[0], b: ops[1], c: ops[2]})
	case ir.OpAtomic:
		c.code = append(c.code, instr{op: opAtomic, dst: c.dst(in), a: ops[0], b: ops[1], sub: uint8(in.AtomK), kind: in.Args[1].Type().Kind})
	case ir.OpBarrier:
		c.code = append(c.code, instr{op: opBarrier})
	case ir.OpCall:
		c.emitCall(in, ops)
	default:
		c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("unsupported opcode %d", in.Op)})
	}
}

// emitTerm lowers a terminator, carrying this block's outgoing phi
// copies: unconditional branches coalesce them into their producers
// where legal and run the rest inline before the jump; conditional
// branches route any phi-bearing side through an edge stub.
func (c *fnCompiler) emitTerm(b *ir.Block, in *ir.Instr, pos map[*ir.Instr]int) {
	switch in.Op {
	case ir.OpBr:
		pairs, traps := c.edgePairs(b, in.Then)
		pairs = c.coalescePairs(pairs, pos)
		c.code = append(c.code, traps...)
		c.code = append(c.code, sequentialize(pairs, &c.needScratch)...)
		at := len(c.code)
		c.code = append(c.code, instr{op: opJump})
		c.fixups = append(c.fixups, fixup{at: at, field: 'i', blk: in.Then, stub: -1})
	case ir.OpCondBr:
		cond, ok := c.reg(in.Args[0])
		if !ok {
			c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("use of undefined value %s", in.Args[0].Ident())})
			return
		}
		at := len(c.code)
		c.code = append(c.code, instr{op: opCondJump, a: cond})
		c.fixEdge(at, 'b', b, in.Then)
		c.fixEdge(at, 'c', b, in.Else)
	case ir.OpRet:
		r := int32(-1)
		if len(in.Args) > 0 {
			var ok bool
			if r, ok = c.reg(in.Args[0]); !ok {
				c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("use of undefined value %s", in.Args[0].Ident())})
				return
			}
		}
		c.code = append(c.code, instr{op: opRet, a: r})
	}
}

// fixEdge records the branch target for one conditional edge: the block
// itself when the edge carries no phi copies, otherwise a fresh stub.
func (c *fnCompiler) fixEdge(at int, field uint8, from, to *ir.Block) {
	pairs, traps := c.edgePairs(from, to)
	moves := append(traps, sequentialize(pairs, &c.needScratch)...)
	if len(moves) == 0 {
		c.fixups = append(c.fixups, fixup{at: at, field: field, blk: to, stub: -1})
		return
	}
	c.stubs = append(c.stubs, edgeStub{moves: moves, to: to})
	c.fixups = append(c.fixups, fixup{at: at, field: field, stub: len(c.stubs) - 1})
}

// movePair is one pending phi copy of an edge, with the IR value behind
// the source register (the coalescer needs its defining instruction).
type movePair struct {
	dst, src int32
	val      ir.Value
}

// edgePairs collects the parallel copies of the from→to edge: one per
// phi in `to`. Arms the compiler cannot resolve lower to traps.
func (c *fnCompiler) edgePairs(from, to *ir.Block) (pairs []movePair, traps []instr) {
	for _, phi := range to.Phis() {
		v := phi.IncomingFor(from)
		if v == nil {
			traps = append(traps, instr{op: opTrap, msg: fmt.Sprintf("phi in %s has no incoming for edge from %s", to.Name, from.Name)})
			continue
		}
		src, ok := c.reg(v)
		if !ok {
			traps = append(traps, instr{op: opTrap, msg: fmt.Sprintf("use of undefined value %s", v.Ident())})
			continue
		}
		dst := c.dst(phi)
		if dst != src {
			pairs = append(pairs, movePair{dst: dst, src: src, val: v})
		}
	}
	return pairs, traps
}

// coalescePairs eliminates copies on an UNCONDITIONAL edge by
// retargeting the source's producer to write the phi register directly.
// Legal when the producer sits in this block (its write becomes the
// copy, just earlier) as its dst (never a sin/cos pair's second, written
// through the first's c), its result has no other use, and the phi
// register is neither read nor written by anything after the producer —
// including the other pending copies of this edge, whose parallel reads
// must still see the old value. Conditional edges never coalesce: the
// producer executes on both paths, but the copy belongs to one.
func (c *fnCompiler) coalescePairs(pairs []movePair, pos map[*ir.Instr]int) []movePair {
	kept := pairs[:0]
	for i, p := range pairs {
		si, ok := p.val.(*ir.Instr)
		if !ok || c.uses[si] != 1 {
			kept = append(kept, p)
			continue
		}
		k, emitted := pos[si]
		if !emitted || c.code[k].dst != p.src {
			kept = append(kept, p)
			continue
		}
		hazard := false
		for j := k + 1; j < len(c.code); j++ {
			if in := &c.code[j]; readsReg(in, p.dst) || in.dst == p.dst || in.op == opMath && in.c == p.dst {
				hazard = true
				break
			}
		}
		if !hazard {
			for j, o := range pairs {
				if j != i && o.src == p.dst {
					hazard = true
					break
				}
			}
		}
		if hazard {
			kept = append(kept, p)
			continue
		}
		c.code[k].dst = p.dst
	}
	return kept
}

// readsReg reports whether the instruction reads register r (jump
// targets, local-slot indices and a sin/cos pair's c are not reads).
func readsReg(in *instr, r int32) bool {
	switch in.op {
	case opAlloca, opAllocaLocal, opBarrier, opJump, opTrap:
		return false
	case opGEPConst, opCondJump, opMove, opLoadOff:
		return in.a == r
	case opGEP, opCmp, opAtomic, opCmpJump, opLoadIdx,
		opAddI32, opSubI32, opMulI32, opAndI32, opOrI32, opXorI32,
		opAddI64, opAddF32, opSubF32, opMulF32, opDivF32:
		return in.a == r || in.b == r
	case opSelect, opBinStore, opLoadBinStore:
		return in.a == r || in.b == r || in.c == r
	case opWI:
		return in.a >= 0 && in.a == r
	case opMath:
		return in.a == r || (in.b >= 0 && in.b == r)
	case opRet:
		return in.a >= 0 && in.a == r
	case opCall:
		for _, a := range in.args {
			if a == r {
				return true
			}
		}
		return false
	}
	switch {
	case in.op >= opLoadI1 && in.op <= opLoadPtr, in.op >= opExt && in.op <= opFPTrunc:
		return in.a == r
	case in.op >= opStoreI1 && in.op <= opStorePtr, in.op >= opBinI1 && in.op <= opBinF64:
		return in.a == r || in.b == r
	}
	return true // unknown op: assume it reads everything
}

// sequentialize orders an edge's parallel copies so no copy clobbers a
// source another copy still needs; cycles break through the scratch
// register.
func sequentialize(pending []movePair, needScratch *bool) []instr {
	var out []instr
	for len(pending) > 0 {
		emitted := false
		for i, m := range pending {
			blocked := false
			for j, o := range pending {
				if j != i && o.src == m.dst {
					blocked = true
					break
				}
			}
			if !blocked {
				out = append(out, instr{op: opMove, dst: m.dst, a: m.src})
				pending = append(pending[:i], pending[i+1:]...)
				emitted = true
				break
			}
		}
		if !emitted {
			// Every pending destination is still someone's source: a
			// copy cycle. Save one destination's old value in the
			// scratch register and retarget its readers there.
			*needScratch = true
			d := pending[0].dst
			out = append(out, instr{op: opMove, dst: scratchMark, a: d})
			for i := range pending {
				if pending[i].src == d {
					pending[i].src = scratchMark
				}
			}
		}
	}
	return out
}

// scratchMark is a placeholder register index for the phi-cycle scratch
// slot; it is rewritten to the real (post-constant-tail) index once the
// function's constant pool is final.
const scratchMark = int32(-2)

// threadJumps replaces each opJump whose (chased) target is a lone
// control instruction — another jump, a conditional jump, a return or a
// trap — with a copy of that instruction. Executing the copy is
// equivalent to jumping there first (none of these fall through, and
// the registers they read are the same either way), and it removes one
// dispatch per loop iteration: the back-edge jump of every counted loop
// lands directly on the loop test's fused opCmpJump. Pcs in keep are
// never bypassed: the warp engine must see lanes arrive there
// (reconvergencePCs).
func (c *fnCompiler) threadJumps(keep map[int32]bool) {
	// Resolve jump→jump chains first, bounded to stay clear of
	// jump-to-self (an intentionally empty infinite loop).
	chase := func(pc int64) int64 {
		for hops := 0; hops < 8; hops++ {
			t := c.code[pc]
			if t.op != opJump || t.imm == pc || keep[int32(pc)] {
				break
			}
			pc = t.imm
		}
		return pc
	}
	for i := range c.code {
		in := &c.code[i]
		switch in.op {
		case opJump:
			in.imm = chase(in.imm)
		case opCondJump:
			in.b = int32(chase(int64(in.b)))
			in.c = int32(chase(int64(in.c)))
		case opCmpJump:
			in.c = int32(chase(int64(in.c)))
			in.imm = chase(in.imm)
		}
	}
	for i := range c.code {
		in := &c.code[i]
		if in.op != opJump || keep[int32(in.imm)] {
			continue
		}
		switch t := c.code[in.imm]; t.op {
		case opCmpJump, opCondJump, opRet, opTrap:
			*in = t
		}
	}
}

// emitCall pre-binds the callee: defined functions become direct opCall
// to their compiled form; declarations resolve to work-item or math
// builtin opcodes with names, dims and kinds resolved now instead of per
// execution.
func (c *fnCompiler) emitCall(in *ir.Instr, ops []int32) {
	callee := c.prog.src.Lookup(in.Callee)
	if callee == nil {
		c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("call to unknown function %q", in.Callee)})
		return
	}
	if !callee.IsDecl() {
		c.code = append(c.code, instr{op: opCall, dst: c.dst(in), fn: c.prog.fns[callee.Name], args: ops})
		return
	}
	name := in.Callee
	if code, ok := wiBuiltins[name]; ok {
		// Dimension argument: constants fold into imm; non-constants
		// read a register at runtime; pointer or absent arguments mean
		// dim 0. launchCtx.workItem answers a dimension outside 0..2.
		ins := instr{op: opWI, dst: c.dst(in), sub: code, a: -1}
		if len(in.Args) == 1 && in.Args[0].Type().Kind != ir.Pointer {
			if cv, isConst := ir.ConstIntValue(in.Args[0]); isConst {
				ins.imm = cv
			} else {
				ins.a = ops[0]
			}
		}
		c.code = append(c.code, ins)
		return
	}
	if strings.HasPrefix(name, "__clc_") {
		op, kind, err := parseMathBuiltin(name)
		if err != "" {
			c.code = append(c.code, instr{op: opTrap, msg: err})
			return
		}
		ins := instr{op: opMath, dst: c.dst(in), sub: op, kind: kind, a: ops[0], b: -1, c: -1}
		if len(ops) > 1 {
			ins.b = ops[1]
		}
		if c.second[in] {
			ins.dst, ins.a = -1, -1
		} else if p := c.sinCosPartner(in, op, kind); p != nil {
			ins.c, c.second[p] = c.dst(p), true
		}
		c.code = append(c.code, ins)
		return
	}
	c.code = append(c.code, instr{op: opTrap, msg: fmt.Sprintf("unknown builtin %q", name)})
}

// sinCosPartner returns the block's next unpaired call of the other of
// sin and cos on in's value and kind (nil: none, or no fusion). The pair
// lowers to one opMath at in writing both results (the partner's into c);
// the partner to a math with no operands or destination: pcs stay put.
func (c *fnCompiler) sinCosPartner(in *ir.Instr, op uint8, kind ir.Kind) *ir.Instr {
	if !c.fuse || op != mathSin && op != mathCos {
		return nil
	}
	for _, p := range c.blk[slices.Index(c.blk, in)+1:] {
		if p.Op == ir.OpCall && len(p.Args) == 1 && p.Args[0] == in.Args[0] && !c.second[p] && strings.HasPrefix(p.Callee, "__clc_") {
			f := c.prog.src.Lookup(p.Callee)
			if pop, pkind, _ := parseMathBuiltin(p.Callee); pop == mathSin+mathCos-op && pkind == kind && f != nil && f.IsDecl() {
				return p
			}
		}
	}
	return nil
}
