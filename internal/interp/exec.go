package interp

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// NDRange describes a kernel launch geometry. Sizes are in work-items;
// Local must evenly divide Global in every used dimension.
type NDRange struct {
	Dims   int
	Global [3]int64
	Local  [3]int64
}

// ND1 builds a 1-D NDRange.
func ND1(global, local int64) NDRange {
	return NDRange{Dims: 1, Global: [3]int64{global, 1, 1}, Local: [3]int64{local, 1, 1}}
}

// ND2 builds a 2-D NDRange.
func ND2(gx, gy, lx, ly int64) NDRange {
	return NDRange{Dims: 2, Global: [3]int64{gx, gy, 1}, Local: [3]int64{lx, ly, 1}}
}

// NumGroups returns the work-group grid dimensions.
func (n NDRange) NumGroups() [3]int64 {
	var g [3]int64
	for i := 0; i < 3; i++ {
		if n.Local[i] == 0 {
			g[i] = 1
			continue
		}
		g[i] = n.Global[i] / n.Local[i]
	}
	return g
}

// TotalGroups returns the total number of work-groups.
func (n NDRange) TotalGroups() int64 {
	g := n.NumGroups()
	return g[0] * g[1] * g[2]
}

// WGSize returns work-items per work-group.
func (n NDRange) WGSize() int64 { return n.Local[0] * n.Local[1] * n.Local[2] }

// Validate checks the launch geometry.
func (n NDRange) Validate() error {
	if n.Dims < 1 || n.Dims > 3 {
		return fmt.Errorf("interp: NDRange dims %d out of range", n.Dims)
	}
	for i := 0; i < n.Dims; i++ {
		if n.Global[i] <= 0 || n.Local[i] <= 0 {
			return fmt.Errorf("interp: non-positive NDRange sizes in dim %d", i)
		}
		if n.Global[i]%n.Local[i] != 0 {
			return fmt.Errorf("interp: global size %d not divisible by local size %d in dim %d", n.Global[i], n.Local[i], i)
		}
	}
	return nil
}

// Engine selects the execution engine of a machine.
type Engine int

const (
	// EngineVM is the default: compiled bytecode over flat register
	// files, work-groups in parallel on a bounded worker pool,
	// cooperative work-items (vm.go).
	EngineVM Engine = iota
	// EngineTreeWalk is the original tree-walking interpreter — one
	// goroutine per work-item, sequential groups, values as Value. It
	// is kept as the semantic reference for the differential parity
	// suite, and shares only the helpers that spell each operation's
	// numeric semantics (below) with the VM.
	EngineTreeWalk
)

// defaultMaxSteps is the launch-global instruction budget when
// Machine.MaxSteps is zero. The budget is shared by every work-item and
// call frame of one Launch (nested frames no longer reset it), so a
// runaway kernel traps no matter where it loops.
const defaultMaxSteps = 200_000_000

// localArg is one LocalArgV placeholder in a launch's argument list:
// argument index plus the per-work-group region size to materialize.
type localArg struct {
	idx  int
	size int64
}

type launchCtx struct {
	m      *Machine
	fn     *ir.Function
	args   []Value
	argw   []uint64   // args as register words (VM engine; 0 for a placeholder)
	argBuf [8]uint64  // argw's backing for up to 8 arguments
	locals []localArg // LocalArgV placeholders, materialized per group
	nd     NDRange
	ng     [3]int64

	// VM engine state (nil/zero under the tree-walker except the step
	// budget, which both engines share).
	prog *Prog
	kcf  *compiledFn

	// Execution profiling (VM engine only): this kernel's aggregate in
	// the machine's profiler, resolved once per launch.
	kp *KernelProfile

	// Warp execution stats (VM engine with WarpWidth > 0): warps formed,
	// lanes across them (occupancy numerator), lane-mask splits at
	// divergent branches, spills to the scalar path, and barrier
	// re-formations.
	warps        atomic.Int64
	warpLanes    atomic.Int64
	warpDiverges atomic.Int64
	warpSpills   atomic.Int64
	warpReforms  atomic.Int64

	steps    atomic.Int64
	maxSteps int64
}

// addSteps charges n executed instructions against the launch budget
// and observes pending machine interrupts — the two launch-abort
// mechanisms that must fire even when a kernel never reaches a slice
// boundary.
func (l *launchCtx) addSteps(n int64) {
	if l.steps.Add(n) > l.maxSteps {
		panic(trap{fmt.Sprintf("instruction budget exceeded in %s", l.fn.Name)})
	}
	l.m.checkInterrupt()
}

type wgCtx struct {
	l     *launchCtx
	group [3]int64
	bar   *barrier

	mu     sync.Mutex
	locals map[*ir.Instr]*Region
}

type wiCtx struct {
	wg    *wgCtx
	lid   [3]int64
	steps int64 // batched count not yet flushed to the launch budget
}

// step charges one instruction, flushing to the shared budget in
// batches so the hot loop stays off the atomic.
func (wi *wiCtx) step() {
	wi.steps++
	if wi.steps >= stepBatch {
		wi.wg.l.addSteps(wi.steps)
		wi.steps = 0
	}
}

// gid returns the work-item's global id.
func (wi *wiCtx) gid() [3]int64 {
	l := wi.wg.l
	return [3]int64{
		wi.wg.group[0]*l.nd.Local[0] + wi.lid[0],
		wi.wg.group[1]*l.nd.Local[1] + wi.lid[1],
		wi.wg.group[2]*l.nd.Local[2] + wi.lid[2],
	}
}

// Launch runs a kernel to completion: all work-groups of the NDRange
// are executed and the error reports the first fault (by work-group
// linear order, tagged with the faulting work-item's global id).
//
// Under the default VM engine the kernel is executed from its compiled
// bytecode with work-groups running in parallel; under EngineTreeWalk
// the original tree-walking reference engine runs groups sequentially
// with one goroutine per work-item.
func (m *Machine) Launch(kernel string, args []Value, nd NDRange) error {
	return m.LaunchLinger(kernel, args, nd, false)
}

// LaunchLinger is Launch; linger asks this launch's helper lanes to
// wait awake for the next launch before they park (WorkerPool).
func (m *Machine) LaunchLinger(kernel string, args []Value, nd NDRange, linger bool) error {
	fn := m.Mod.Lookup(kernel)
	if fn == nil {
		return fmt.Errorf("interp: kernel %q not found", kernel)
	}
	if !fn.Kernel {
		return fmt.Errorf("interp: function %q is not a kernel", kernel)
	}
	if fn.IsDecl() {
		return fmt.Errorf("interp: kernel %q has no body", kernel)
	}
	if err := nd.Validate(); err != nil {
		return err
	}
	if len(args) != len(fn.Params) {
		return fmt.Errorf("interp: kernel %q takes %d args, got %d", kernel, len(fn.Params), len(args))
	}
	var locals []localArg
	for i, a := range args {
		size, ok := localArgSize(a)
		if !ok {
			continue
		}
		if size <= 0 {
			return fmt.Errorf("interp: kernel %q local argument %d has non-positive size %d", kernel, i, size)
		}
		if fn.Params[i].Ty.Kind != ir.Pointer {
			return fmt.Errorf("interp: kernel %q argument %d is not a pointer parameter; cannot bind local memory", kernel, i)
		}
		locals = append(locals, localArg{idx: i, size: size})
	}
	if m.Engine == EngineTreeWalk {
		return m.launchTreeWalk(fn, args, locals, nd)
	}
	return m.launchVM(fn, args, locals, nd, linger)
}

func (m *Machine) maxSteps() int64 {
	if m.MaxSteps > 0 {
		return m.MaxSteps
	}
	return defaultMaxSteps
}

// --- reference engine: tree-walking interpreter ---------------------

func (m *Machine) launchTreeWalk(fn *ir.Function, args []Value, locals []localArg, nd NDRange) error {
	l := &launchCtx{m: m, fn: fn, args: args, locals: locals, nd: nd, ng: nd.NumGroups(), maxSteps: m.maxSteps()}
	for gz := int64(0); gz < l.ng[2]; gz++ {
		for gy := int64(0); gy < l.ng[1]; gy++ {
			for gx := int64(0); gx < l.ng[0]; gx++ {
				if err := l.runGroup([3]int64{gx, gy, gz}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// wiFault is one work-item's failure, tagged for deterministic
// selection.
type wiFault struct {
	lin int64 // linearized local id
	gid [3]int64
	err error
}

func (l *launchCtx) runGroup(group [3]int64) error {
	nd := l.nd
	size := int(nd.WGSize())
	wg := &wgCtx{l: l, group: group, bar: getBarrier(size), locals: make(map[*ir.Instr]*Region)}
	// Materialize host-declared local arguments: one fresh region per
	// work-group, shared by its work-items, in place of the placeholder.
	gargs := l.args
	if len(l.locals) > 0 {
		gargs = append([]Value(nil), l.args...)
		for _, la := range l.locals {
			r := l.m.NewRegion(la.size, ir.Local)
			gargs[la.idx] = Value{K: ir.Pointer, P: Ptr{R: r}}
		}
	}
	errc := make(chan wiFault, size)
	var wgrp sync.WaitGroup
	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				wi := &wiCtx{wg: wg, lid: [3]int64{lx, ly, lz}}
				lin := (lz*nd.Local[1]+ly)*nd.Local[0] + lx
				wgrp.Add(1)
				go func() {
					defer wgrp.Done()
					defer func() {
						if r := recover(); r != nil {
							wg.bar.poison()
							f := wiFault{lin: lin, gid: wi.gid()}
							if t, ok := r.(trap); ok {
								f.err = t
							} else {
								f.err = fmt.Errorf("interp: panic: %v", r)
							}
							errc <- f
						}
					}()
					fr := &frame{wi: wi, env: make(map[ir.Value]Value)}
					fr.call(l.fn, gargs)
				}()
			}
		}
	}
	wgrp.Wait()
	putBarrier(wg.bar)
	close(errc)
	// Drain every buffered fault. Siblings unwound by barrier poisoning
	// are collateral of the real fault, so a genuine trap wins over
	// them; among peers, the lowest local id wins for determinism.
	var best *wiFault
	for f := range errc {
		f := f
		switch {
		case best == nil:
			best = &f
		case isPoison(best.err) && !isPoison(f.err):
			best = &f
		case isPoison(best.err) == isPoison(f.err) && f.lin < best.lin:
			best = &f
		}
	}
	if best == nil {
		return nil
	}
	return fmt.Errorf("interp: work-item global id (%d,%d,%d): %w", best.gid[0], best.gid[1], best.gid[2], best.err)
}

// frame is one function activation for one work-item.
type frame struct {
	wi  *wiCtx
	env map[ir.Value]Value
}

const maxCallDepth = 64

// call executes fn with args and returns its result value.
func (fr *frame) call(fn *ir.Function, args []Value) Value {
	return fr.callDepth(fn, args, 0)
}

func (fr *frame) callDepth(fn *ir.Function, args []Value, depth int) Value {
	if depth > maxCallDepth {
		panic(trap{"call depth exceeded (runaway recursion?)"})
	}
	callee := &frame{wi: fr.wi, env: make(map[ir.Value]Value)}
	for i, p := range fn.Params {
		callee.env[p] = args[i]
	}
	return callee.run(fn, depth)
}

// run executes the body of fn in this frame. The instruction budget is
// the launch-global one carried by the work-item context, so nested
// frames cannot reset it.
//
// Phis at a block head read their incoming values in parallel before
// any of them is assigned (classic phi semantics: a swap of two phis
// must not see a half-updated state), selected by the edge the control
// transfer arrived on.
func (fr *frame) run(fn *ir.Function, depth int) Value {
	blk := fn.Entry()
	var prev *ir.Block
	for {
		phis := blk.Phis()
		if n := len(phis); n > 0 {
			var buf [8]Value
			vals := buf[:0]
			for _, phi := range phis {
				fr.wi.step()
				src := phi.IncomingFor(prev)
				if src == nil {
					panic(trap{fmt.Sprintf("phi in %s has no incoming for the edge taken", blk.Name)})
				}
				vals = append(vals, fr.eval(src))
			}
			for i, phi := range phis {
				fr.env[phi] = vals[i]
			}
		}
		for _, in := range blk.Instrs[len(phis):] {
			fr.wi.step()
			switch in.Op {
			case ir.OpBr:
				prev, blk = blk, in.Then
			case ir.OpCondBr:
				if fr.eval(in.Args[0]).Bool() {
					prev, blk = blk, in.Then
				} else {
					prev, blk = blk, in.Else
				}
			case ir.OpRet:
				if len(in.Args) == 0 {
					return Value{}
				}
				return fr.eval(in.Args[0])
			default:
				fr.exec(in, depth)
			}
		}
		if !blk.Terminated() {
			panic(trap{fmt.Sprintf("fell off unterminated block in %s", fn.Name)})
		}
	}
}

func (fr *frame) eval(v ir.Value) Value {
	switch c := v.(type) {
	case *ir.ConstInt:
		return Value{K: c.Ty.Kind, I: c.V}
	case *ir.ConstFloat:
		return Value{K: c.Ty.Kind, F: c.V}
	case *ir.ConstNull:
		return Value{K: ir.Pointer}
	}
	val, ok := fr.env[v]
	if !ok {
		panic(trap{fmt.Sprintf("use of undefined value %s", v.Ident())})
	}
	return val
}

func (fr *frame) exec(in *ir.Instr, depth int) {
	m := fr.wi.wg.l.m
	var d Value // the result, written in place by the shared helpers
	switch in.Op {
	case ir.OpAlloca:
		size := in.AllocaElem.Size() * in.AllocaCount
		var r *Region
		if in.AllocaSpace == ir.Local {
			// One region per work-group, shared by all work-items.
			wg := fr.wi.wg
			wg.mu.Lock()
			r = wg.locals[in]
			if r == nil {
				r = m.NewRegion(size, ir.Local)
				wg.locals[in] = r
			}
			wg.mu.Unlock()
		} else {
			r = m.NewRegion(size, in.AllocaSpace)
		}
		fr.env[in] = Value{K: ir.Pointer, P: Ptr{R: r}}
	case ir.OpLoad:
		m.load(&d, in.Ty, fr.eval(in.Args[0]).P)
		fr.env[in] = d
	case ir.OpStore:
		v := fr.eval(in.Args[0])
		p := fr.eval(in.Args[1]).P
		m.store(in.Args[0].Type(), v, p)
	case ir.OpGEP:
		base, idx := m.word(fr.eval(in.Args[0])), fr.eval(in.Args[1]).I
		fr.env[in] = m.value(ir.Pointer, gep(base, idx*in.Ty.Elem.Size()))
	case ir.OpBin:
		x, y := m.word(fr.eval(in.Args[0])), m.word(fr.eval(in.Args[1]))
		fr.env[in] = m.value(in.Ty.Kind, binOp(binOpcode(in.Ty.Kind), in.BinK, x, y))
	case ir.OpCmp:
		x, y := m.word(fr.eval(in.Args[0])), m.word(fr.eval(in.Args[1]))
		fr.env[in] = BoolV(cmpOp(cmpCode(in.CmpK, in.Args[0].Type().Kind), x, y))
	case ir.OpCast:
		w := m.word(fr.eval(in.Args[0]))
		if op := castOpcode(in.CastK, in.Ty.Kind); op != opExt {
			w = castOp(op, w)
		}
		fr.env[in] = m.value(in.Ty.Kind, w)
	case ir.OpSelect:
		if fr.eval(in.Args[0]).Bool() {
			fr.env[in] = fr.eval(in.Args[1])
		} else {
			fr.env[in] = fr.eval(in.Args[2])
		}
	case ir.OpAtomic:
		p, v, kind := m.word(fr.eval(in.Args[0])), m.word(fr.eval(in.Args[1])), in.Args[1].Type().Kind
		fr.env[in] = m.value(kind, m.atomicRMW(in.AtomK, kind, p, v))
	case ir.OpBarrier:
		fr.wi.wg.bar.await()
	case ir.OpCall:
		fr.env[in] = fr.execCall(in, depth)
	default:
		panic(trap{fmt.Sprintf("unsupported opcode %d", in.Op)})
	}
}

func (fr *frame) execCall(in *ir.Instr, depth int) Value {
	m := fr.wi.wg.l.m
	fn := m.Mod.Lookup(in.Callee)
	if fn == nil {
		panic(trap{fmt.Sprintf("call to unknown function %q", in.Callee)})
	}
	args := make([]Value, len(in.Args))
	for i, a := range in.Args {
		args[i] = fr.eval(a)
	}
	if fn.IsDecl() {
		return fr.execBuiltin(in.Callee, args)
	}
	return fr.callDepth(fn, args, depth+1)
}

// execBuiltin evaluates work-item and math builtins.
func (fr *frame) execBuiltin(name string, args []Value) Value {
	wi := fr.wi
	if sub, ok := wiBuiltins[name]; ok {
		var dim int64
		if len(args) == 1 && args[0].K != ir.Pointer {
			dim = args[0].I
		}
		k := ir.I64
		if sub == wiWorkDim {
			k = ir.I32
		}
		return Value{K: k, I: int64(wi.wg.l.workItem(sub, dim, &wi.wg.group, &wi.lid))}
	}
	if strings.HasPrefix(name, "__clc_") {
		op, kind, errMsg := parseMathBuiltin(name)
		if errMsg != "" {
			panic(trap{errMsg})
		}
		x := args[0].F
		var y float64
		if len(args) > 1 {
			y = args[1].F
		}
		return Value{K: kind, F: evalMath(op, kind, x, y)}
	}
	panic(trap{fmt.Sprintf("unknown builtin %q", name)})
}

// --- semantics shared by all three engines -------------------------
//
// The scalar VM loop (vm.go), the warp loops (warp.go) and the
// tree-walker above share one spelling of each operation, over register
// words (Machine.word): the VM's registers hold them, and the
// tree-walker converts its Values at the helpers' boundary.

// workItem returns work-item query sub (wiGlobalID, …) for dimension dim
// of the item lid in group; every engine answers through it. A
// dimension outside 0..2 reads as OpenCL defines one past
// get_work_dim(): 0 for an id or offset, 1 for a size or count. Launches
// carry no global offset, so wiGlobalOffset is always 0.
func (l *launchCtx) workItem(sub uint8, dim int64, group, lid *[3]int64) uint64 {
	if sub == wiWorkDim {
		return uint64(l.nd.Dims)
	}
	var v int64
	if dim < 0 || dim > 2 {
		switch sub {
		case wiNumGroups, wiLocalSize, wiGlobalSize:
			v = 1
		}
	} else {
		switch sub {
		case wiGlobalID:
			v = group[dim]*l.nd.Local[dim] + lid[dim]
		case wiLocalID:
			v = lid[dim]
		case wiGroupID:
			v = group[dim]
		case wiNumGroups:
			v = l.ng[dim]
		case wiLocalSize:
			v = l.nd.Local[dim]
		case wiGlobalSize:
			v = l.nd.Global[dim]
		}
	}
	return uint64(v)
}

// atomicRMW performs an atomic read-modify-write of kind on p and
// returns the old value.
func (m *Machine) atomicRMW(k ir.AtomicKind, kind ir.Kind, p, v uint64) uint64 {
	r := m.region(p)
	return rmw(k, kind, atomicLock(Ptr{R: r}), r.at(p, kindSize[kind]), v)
}

// rmw is the read-modify-write of kind on b, bytes of a region whose
// stripe lock is mu. Nothing under the lock can trap (the access was
// checked before), so a faulting launch never leaves a pooled machine's
// shared stripe locked.
func rmw(k ir.AtomicKind, kind ir.Kind, mu *sync.Mutex, b []byte, v uint64) uint64 {
	mu.Lock()
	old := get(kind, b)
	next := v
	switch k {
	case ir.AtomAdd:
		next = old + v
	case ir.AtomSub:
		next = old - v
	case ir.AtomMin:
		next = uint64(min(int64(old), int64(v)))
	case ir.AtomMax:
		next = uint64(max(int64(old), int64(v)))
	case ir.AtomAnd:
		next = old & v
	case ir.AtomOr:
		next = old | v
	}
	put(kind, b, next)
	mu.Unlock()
	return old
}

// Math builtin codes, pre-parsed from "__clc_<op>_<type>" names by the
// bytecode compiler and on demand by the reference engine.
const (
	mathSqrt uint8 = iota
	mathRsqrt
	mathFabs
	mathExp
	mathExp2
	mathLog
	mathLog2
	mathSin
	mathCos
	mathTan
	mathAtan2
	mathFloor
	mathCeil
	mathPow
	mathFmod
	mathFmin
	mathFmax
	mathNativeDivide
)

var mathOps = map[string]uint8{
	"sqrt": mathSqrt, "rsqrt": mathRsqrt, "fabs": mathFabs,
	"exp": mathExp, "exp2": mathExp2, "log": mathLog, "log2": mathLog2,
	"sin": mathSin, "cos": mathCos, "tan": mathTan, "atan2": mathAtan2,
	"floor": mathFloor, "ceil": mathCeil, "pow": mathPow, "fmod": mathFmod,
	"fmin": mathFmin, "fmax": mathFmax, "native_divide": mathNativeDivide,
}

// parseMathBuiltin splits a "__clc_<op>_<type>" name. A non-empty errMsg
// carries the exact trap message the reference engine raises.
func parseMathBuiltin(name string) (op uint8, kind ir.Kind, errMsg string) {
	body := strings.TrimPrefix(name, "__clc_")
	idx := strings.LastIndex(body, "_")
	if idx < 0 {
		return 0, 0, fmt.Sprintf("malformed math builtin %q", name)
	}
	kind = ir.F32
	if body[idx+1:] == "double" {
		kind = ir.F64
	}
	op, ok := mathOps[body[:idx]]
	if !ok {
		return 0, 0, fmt.Sprintf("unknown math builtin %q", body[:idx])
	}
	return op, kind, ""
}

// evalMath evaluates a pre-parsed math builtin at kind (F32 or F64);
// the caller tags the result Value{K: kind, F: r}.
func evalMath(op uint8, kind ir.Kind, x, y float64) float64 {
	var r float64
	switch op {
	case mathSqrt:
		r = math.Sqrt(x)
	case mathRsqrt:
		r = 1 / math.Sqrt(x)
	case mathFabs:
		r = math.Abs(x)
	case mathExp:
		r = math.Exp(x)
	case mathExp2:
		r = math.Exp2(x)
	case mathLog:
		r = math.Log(x)
	case mathLog2:
		r = math.Log2(x)
	case mathSin:
		r = math.Sin(x)
	case mathCos:
		r = math.Cos(x)
	case mathTan:
		r = math.Tan(x)
	case mathAtan2:
		r = math.Atan2(x, y)
	case mathFloor:
		r = math.Floor(x)
	case mathCeil:
		r = math.Ceil(x)
	case mathPow:
		r = math.Pow(x, y)
	case mathFmod:
		r = math.Mod(x, y)
	case mathFmin:
		r = math.Min(x, y)
	case mathFmax:
		r = math.Max(x, y)
	case mathNativeDivide:
		r = x / y
	}
	if kind == ir.F32 {
		r = float64(float32(r))
	}
	return r
}

// sincos is a sin/cos pair of x at kind, op's result first: math.Sincos,
// whose bits are math.Sin's and math.Cos's but for the sine of a NaN,
// which math.Sin returns as it is (TestSincosMatchesSinCos).
func sincos(op uint8, kind ir.Kind, x float64) (uint64, uint64) {
	s, c := math.Sincos(x)
	if x != x {
		s = x
	}
	if op == mathCos {
		s, c = c, s
	}
	if kind == ir.F32 {
		return f32word(s), f32word(c)
	}
	return fword(s), fword(c)
}

// intOp computes x k y on integers; the typed opcode wraps the result
// to its kind.
func intOp(k ir.BinKind, x, y int64) int64 {
	switch k {
	case ir.Add:
		return x + y
	case ir.Sub:
		return x - y
	case ir.Mul:
		return x * y
	case ir.SDiv:
		if y == 0 {
			panic(trap{"integer division by zero"})
		}
		return x / y
	case ir.SRem:
		if y == 0 {
			panic(trap{"integer remainder by zero"})
		}
		return x % y
	case ir.And:
		return x & y
	case ir.Or:
		return x | y
	case ir.Xor:
		return x ^ y
	case ir.Shl:
		return x << uint64(y&63)
	}
	return x >> uint64(y&63) // AShr
}

// floatOp computes x k y in float64; an F32 opcode rounds the result.
func floatOp(k ir.BinKind, x, y float64) float64 {
	switch k {
	case ir.FAdd:
		return x + y
	case ir.FSub:
		return x - y
	case ir.FMul:
		return x * y
	}
	return x / y // FDiv
}

// Register words of floats and 32-bit integers.
func flt(w uint64) float64     { return math.Float64frombits(w) }
func fword(f float64) uint64   { return math.Float64bits(f) }
func f32word(f float64) uint64 { return math.Float64bits(float64(float32(f))) }
func i32word(x uint64) uint64  { return uint64(int64(int32(x))) }

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// binOp computes x k y at the kind of the typed opcode op (opBinI1 …
// opBinF64): F32 rounds, I32 wraps to 32 bits and Bool to the low bit.
func binOp(op vmOp, k ir.BinKind, x, y uint64) uint64 {
	switch op {
	case opBinI1:
		return uint64(intOp(k, int64(x), int64(y)) & 1)
	case opBinI32:
		return i32word(uint64(intOp(k, int64(x), int64(y))))
	case opBinI64:
		return uint64(intOp(k, int64(x), int64(y)))
	case opBinF32:
		return f32word(floatOp(k, flt(x), flt(y)))
	}
	return fword(floatOp(k, flt(x), flt(y)))
}

// cmpOp evaluates the typed predicate c (cmpCode). Pointers are equal
// when their words are; they order by offset within a region and by
// region ID across regions, which is unspecified, as on a real device.
func cmpOp(c uint8, x, y uint64) bool {
	switch {
	case c < cmpFEQ:
		return order(c, int64(x), int64(y))
	case c < cmpPEQ:
		return order(c-cmpFEQ, flt(x), flt(y))
	}
	xi, yi := int64(x>>ptrOffBits), int64(y>>ptrOffBits)
	if xi == yi {
		xi, yi = ptrOff(x), ptrOff(y)
	}
	return order(c-cmpPEQ, xi, yi)
}

// order is the integer predicate p (IEQ…IGE) over integers or floats.
func order[T int64 | float64](p uint8, x, y T) bool {
	switch ir.CmpPred(p) {
	case ir.IEQ:
		return x == y
	case ir.INE:
		return x != y
	case ir.ILT:
		return x < y
	case ir.ILE:
		return x <= y
	case ir.IGT:
		return x > y
	}
	return x >= y
}

// castOp converts x by the typed conversion op (opTruncI1 … opFPTrunc;
// opExt keeps the register and is a move). Trunc and FPToSI wrap the
// integer as binOp does.
func castOp(op vmOp, x uint64) uint64 {
	switch op {
	case opTruncI1:
		return x & 1
	case opTruncI32:
		return i32word(x)
	case opFPToI1:
		return uint64(int64(flt(x)) & 1)
	case opFPToI32:
		return i32word(uint64(int64(flt(x))))
	case opFPToI64:
		return uint64(int64(flt(x)))
	case opSIToF32:
		return f32word(float64(int64(x)))
	case opSIToF64:
		return fword(float64(int64(x)))
	}
	return f32word(flt(x)) // opFPTrunc
}
