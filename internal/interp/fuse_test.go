package interp

import (
	"testing"
	"time"

	"repro/internal/clc"
	"repro/internal/ir"
	"repro/internal/passes"
)

// opts used across the fusion tests: fuseOnly isolates the lowering
// fusion from the O1 IR pipeline; o0 is the fully unoptimized baseline.
var (
	fuseOnly = CompileOpts{}
	o0       = CompileOpts{Disable: []string{"fuse"}}
)

func countVMOps(cf *compiledFn, op vmOp) int {
	n := 0
	for _, in := range cf.code {
		if in.op == op {
			n++
		}
	}
	return n
}

func compileKernel(t *testing.T, src, name string, opts CompileOpts) (*ir.Module, *Prog) {
	t.Helper()
	mod, err := clc.Compile(src, name)
	if err != nil {
		t.Fatal(err)
	}
	return mod, CompileModuleOpts(mod, opts)
}

// runSpinOnce executes a 1-item kernel writing to out[0..n) and returns
// the int32 results.
func runKernel(t *testing.T, mod *ir.Module, p *Prog, name string, n int64) []int32 {
	t.Helper()
	m := NewMachine(mod)
	m.UseProgram(p)
	out := m.NewRegion(n*4, ir.Global)
	args := []Value{{K: ir.Pointer, P: Ptr{R: out}}}
	if err := m.Launch(name, args, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	return out.ReadInt32s(0, int(n))
}

// TestFuseLoadBinStore: the accumulate idiom `mem op= x` lowers to one
// opLoadBinStore, and the fused form computes the same bytes as the
// unfused one.
func TestFuseLoadBinStore(t *testing.T) {
	src := `
kernel void f(global int* out)
{
    out[0] = 3;
    int i;
    for (i = 0; i < 10; ++i) out[0] += i;
}
`
	mod, p := compileKernel(t, src, "f", fuseOnly)
	if n := countVMOps(p.fns["f"], opLoadBinStore); n == 0 {
		t.Error("no opLoadBinStore emitted for the accumulate idiom")
	}
	mod0, p0 := compileKernel(t, src, "f", o0)
	got := runKernel(t, mod, p, "f", 1)
	want := runKernel(t, mod0, p0, "f", 1)
	if got[0] != want[0] {
		t.Errorf("fused=%d unfused=%d", got[0], want[0])
	}
	if want[0] != 48 {
		t.Errorf("reference result %d, want 48", want[0])
	}
}

// TestFuseCmpJump: a loop's cmp+condbr pair lowers to opCmpJump with no
// free-standing opCmp left for the single-use predicate.
func TestFuseCmpJump(t *testing.T) {
	src := `
kernel void f(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 7; ++i) acc += 2;
    out[0] = acc;
}
`
	mod, p := compileKernel(t, src, "f", DefaultCompileOpts)
	cf := p.fns["f"]
	if n := countVMOps(cf, opCmpJump); n == 0 {
		t.Error("no opCmpJump emitted for the loop test")
	}
	if n := countVMOps(cf, opCmp); n != 0 {
		t.Errorf("%d free-standing opCmp remain beside the fused form", n)
	}
	got := runKernel(t, mod, p, "f", 1)
	if got[0] != 14 {
		t.Errorf("fused loop computed %d, want 14", got[0])
	}
}

// TestFuseGEPLoad: subscript reads fuse into opLoadIdx (register index)
// or opLoadOff (constant index).
func TestFuseGEPLoad(t *testing.T) {
	src := `
kernel void f(global int* out)
{
    int i;
    for (i = 1; i < 8; ++i) out[i] = out[i - 1] + out[0];
}
`
	// The constant-index form needs constfold to collapse the sext'd
	// subscript first, so compile with the full pipeline.
	mod, p := compileKernel(t, src, "f", DefaultCompileOpts)
	cf := p.fns["f"]
	if countVMOps(cf, opLoadIdx) == 0 {
		t.Error("no opLoadIdx emitted for out[i-1]")
	}
	if countVMOps(cf, opLoadOff) == 0 {
		t.Error("no opLoadOff emitted for out[0]")
	}
	mod0, p0 := compileKernel(t, src, "f", o0)
	m := NewMachine(mod)
	m.UseProgram(p)
	out := m.NewRegion(8*4, ir.Global)
	out.WriteInt32s(0, []int32{1, 0, 0, 0, 0, 0, 0, 0})
	if err := m.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	m0 := NewMachine(mod0)
	m0.UseProgram(p0)
	out0 := m0.NewRegion(8*4, ir.Global)
	out0.WriteInt32s(0, []int32{1, 0, 0, 0, 0, 0, 0, 0})
	if err := m0.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out0}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	got, want := out.ReadInt32s(0, 8), out0.ReadInt32s(0, 8)
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("out[%d]: fused=%d unfused=%d", i, got[i], want[i])
		}
	}
}

// TestFuseBinStore: a computed value stored once (not reloaded) fuses
// into opBinStore.
func TestFuseBinStore(t *testing.T) {
	m := ir.NewModule("bs")
	f := m.NewFunction("bs", ir.VoidT,
		&ir.Param{Nam: "out", Ty: ir.PointerTo(ir.I32T, ir.Global), Idx: 0},
		&ir.Param{Nam: "x", Ty: ir.I32T, Idx: 1},
		&ir.Param{Nam: "y", Ty: ir.I32T, Idx: 2})
	f.Kernel = true
	b := ir.NewBuilder(f)
	// Use xor so the specialization table stays out of the way of the
	// shape check... (xor IS specialized; sub distinguishes nothing
	// here — opBinStore carries the kind itself).
	sum := b.Bin(ir.Xor, f.Params[1], f.Params[2])
	b.Store(sum, f.Params[0])
	b.Ret(nil)
	p := CompileModuleOpts(m, CompileOpts{})
	if countVMOps(p.fns["bs"], opBinStore) != 1 {
		t.Fatal("bin+store pair did not fuse")
	}
	mach := NewMachine(m)
	mach.UseProgram(p)
	out := mach.NewRegion(4, ir.Global)
	args := []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(0b1100), IntV(0b1010)}
	if err := mach.Launch("bs", args, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := out.ReadInt32s(0, 1)[0]; got != 0b0110 {
		t.Errorf("fused xor-store wrote %b, want 110", got)
	}
}

// TestFuseMultiUseBlocked: a value with a second consumer must NOT
// fuse — the intermediate register write is observable.
func TestFuseMultiUseBlocked(t *testing.T) {
	m := ir.NewModule("mu")
	f := m.NewFunction("mu", ir.VoidT,
		&ir.Param{Nam: "out", Ty: ir.PointerTo(ir.I32T, ir.Global), Idx: 0},
		&ir.Param{Nam: "x", Ty: ir.I32T, Idx: 1})
	f.Kernel = true
	b := ir.NewBuilder(f)
	sum := b.Bin(ir.Xor, f.Params[1], f.Params[1])
	b.Store(sum, f.Params[0]) // candidate pair
	gep := b.GEP(f.Params[0], ir.CI(1))
	b.Store(sum, gep) // second use of sum
	b.Ret(nil)
	p := CompileModuleOpts(m, CompileOpts{})
	cf := p.fns["mu"]
	if countVMOps(cf, opBinStore) != 0 {
		t.Error("multi-use bin fused into opBinStore; second store now reads a stale register")
	}
}

// TestPhiLoweringSwap: two phis that exchange values around a loop form
// a parallel-copy cycle; the lowered moves must go through the scratch
// register, not clobber one side.
func TestPhiLoweringSwap(t *testing.T) {
	m := ir.NewModule("swap")
	f := m.NewFunction("swap", ir.VoidT,
		&ir.Param{Nam: "out", Ty: ir.PointerTo(ir.I32T, ir.Global), Idx: 0},
		&ir.Param{Nam: "n", Ty: ir.I32T, Idx: 1})
	f.Kernel = true
	b := ir.NewBuilder(f)
	entry := b.Cur
	head := b.NewBlock("head")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Br(head)
	b.SetInsert(head)
	i := b.Phi(ir.I32T)
	x := b.Phi(ir.I32T)
	y := b.Phi(ir.I32T)
	cond := b.Cmp(ir.ILT, i, f.Params[1])
	b.CondBr(cond, body, exit)
	b.SetInsert(body)
	i2 := b.Bin(ir.Add, i, ir.CI(1))
	b.Br(head)
	i.AddIncoming(ir.CI(0), entry)
	i.AddIncoming(i2, body)
	x.AddIncoming(ir.CI(11), entry)
	x.AddIncoming(y, body) // x <- y and y <- x: a genuine swap cycle
	y.AddIncoming(ir.CI(22), entry)
	y.AddIncoming(x, body)
	b.SetInsert(exit)
	b.Store(x, f.Params[0])
	g := b.GEP(f.Params[0], ir.CI(1))
	b.Store(y, g)
	b.Ret(nil)
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	// Compile WITHOUT the O1 pipeline (the IR is already SSA) so the
	// phis reach the lowering as written.
	p := CompileModuleOpts(m, CompileOpts{})
	run := func(n int32) (int32, int32) {
		mach := NewMachine(m)
		mach.UseProgram(p)
		out := mach.NewRegion(8, ir.Global)
		if err := mach.Launch("swap", []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(int64(n))}, ND1(1, 1)); err != nil {
			t.Fatal(err)
		}
		r := out.ReadInt32s(0, 2)
		return r[0], r[1]
	}
	if x0, y0 := run(0); x0 != 11 || y0 != 22 {
		t.Errorf("0 swaps: got (%d,%d), want (11,22)", x0, y0)
	}
	if x1, y1 := run(1); x1 != 22 || y1 != 11 {
		t.Errorf("1 swap: got (%d,%d), want (22,11)", x1, y1)
	}
	if x2, y2 := run(2); x2 != 11 || y2 != 22 {
		t.Errorf("2 swaps: got (%d,%d), want (11,22)", x2, y2)
	}
}

// TestTreeWalkerPhi: the reference engine executes SSA-form IR (phis
// included) identically to the VM.
func TestTreeWalkerPhi(t *testing.T) {
	src := `
kernel void f(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 9; ++i) acc += i ^ 3;
    out[0] = acc;
}
`
	mod, err := clc.Compile(src, "f")
	if err != nil {
		t.Fatal(err)
	}
	// Optimize once, in place, so BOTH engines execute the same
	// phi-form IR: the VM through its lowering, the tree-walker by
	// interpreting the phis directly (the semantics in exec.go).
	if err := passes.RunO1(mod); err != nil {
		t.Fatal(err)
	}
	p := CompileModuleOpts(mod, CompileOpts{})

	vm := NewMachine(mod)
	vm.UseProgram(p)
	outVM := vm.NewRegion(4, ir.Global)
	if err := vm.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: outVM}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}

	tw := NewMachine(mod)
	tw.Engine = EngineTreeWalk
	outTW := tw.NewRegion(4, ir.Global)
	if err := tw.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: outTW}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	a, b := outVM.ReadInt32s(0, 1)[0], outTW.ReadInt32s(0, 1)[0]
	if a != b {
		t.Errorf("vm=%d treewalk=%d", a, b)
	}
}

// TestWorkerPool: tasks run, a busy pool rejects instead of queueing,
// and Close is idempotent.
func TestWorkerPool(t *testing.T) {
	p := NewWorkerPool(2)
	done := make(chan int, 2)
	block := make(chan struct{})
	// Handoff is rendezvous-based: a freshly started worker needs a
	// moment to reach its receive, so retry briefly.
	submit := func(f func()) bool {
		for i := 0; i < 1000; i++ {
			if submitFunc(p, f) {
				return true
			}
			time.Sleep(time.Millisecond)
		}
		return false
	}
	if !submit(func() { <-block; done <- 1 }) {
		t.Fatal("idle pool rejected a task")
	}
	if !submit(func() { <-block; done <- 2 }) {
		t.Fatal("second worker rejected a task")
	}
	if submitFunc(p, func() {}) {
		t.Error("fully busy pool accepted a task (it would queue, not run)")
	}
	close(block)
	<-done
	<-done
	p.Close()
	if submitFunc(p, func() {}) {
		t.Error("closed pool accepted a task")
	}
	p.Close() // idempotent
}
