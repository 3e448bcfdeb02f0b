package accelpass

import (
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtlib"
)

func transform(t *testing.T, src string) *Result {
	t.Helper()
	m, err := clc.Compile(src, "t")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Transform(m)
	if err != nil {
		t.Fatalf("transform: %v", err)
	}
	return res
}

func TestWrapperStructure(t *testing.T) {
	res := transform(t, `
kernel void k(global float* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = 1.0f;
}
`)
	w := res.Module.Lookup("k")
	if w == nil || !w.Kernel {
		t.Fatal("scheduling wrapper missing")
	}
	// Signature: original params plus the RT descriptor.
	if len(w.Params) != 3 {
		t.Fatalf("wrapper has %d params, want 3 (out, n, __rt)", len(w.Params))
	}
	last := w.Params[len(w.Params)-1]
	want := ir.PointerTo(ir.I64T, ir.Global)
	if !last.Ty.Equal(want) {
		t.Errorf("last wrapper param is %s, want %s", last.Ty, want)
	}
	// The wrapper must contain the scheduling protocol: rt_env_init,
	// rt_sched_wgroup, barriers and a call to the compute function.
	text := w.String()
	for _, wantCall := range []string{"rt_env_init", "rt_sched_wgroup", "rt_is_master_workitem", "k__compute", "barrier"} {
		if !strings.Contains(text, wantCall) {
			t.Errorf("wrapper missing %s:\n%s", wantCall, text)
		}
	}
	// The SD block lives in local memory inside the wrapper.
	if !strings.Contains(text, "space local") {
		t.Errorf("wrapper has no local SD allocation:\n%s", text)
	}
}

func TestComputeFunctionInterface(t *testing.T) {
	res := transform(t, `
kernel void k(global const int* in, global int* out)
{
    out[get_global_id(0)] = in[get_group_id(0)];
}
`)
	cf := res.Module.Lookup("k__compute")
	if cf == nil {
		t.Fatal("compute function missing")
	}
	if cf.Kernel {
		t.Error("compute function still marked kernel")
	}
	// orig 2 params + rt, sd, hdlr.
	if len(cf.Params) != 5 {
		t.Fatalf("compute has %d params, want 5", len(cf.Params))
	}
	names := []string{"__rt", "__sd", "__hdlr"}
	for i, n := range names {
		if cf.Params[2+i].Nam != n {
			t.Errorf("param %d named %q, want %q", 2+i, cf.Params[2+i].Nam, n)
		}
	}
	// Builtins replaced with runtime equivalents carrying the handle.
	text := cf.String()
	if !strings.Contains(text, "rt_global_id") || !strings.Contains(text, "rt_group_id") {
		t.Errorf("builtins not replaced:\n%s", text)
	}
	if strings.Contains(text, "@get_global_id") {
		t.Errorf("raw builtin call left behind:\n%s", text)
	}
}

func TestMultiKernelModule(t *testing.T) {
	res := transform(t, `
kernel void a(global int* out) { out[get_global_id(0)] = 1; }
kernel void b(global int* out) { out[get_global_id(0)] = 2; }
`)
	if len(res.Kernels) != 2 {
		t.Fatalf("transformed %d kernels, want 2", len(res.Kernels))
	}
	for _, name := range []string{"a", "b"} {
		if f := res.Module.Lookup(name); f == nil || !f.Kernel {
			t.Errorf("kernel %s missing after transform", name)
		}
		if f := res.Module.Lookup(name + "__compute"); f == nil || f.Kernel {
			t.Errorf("compute function for %s wrong", name)
		}
	}
	// The runtime library is linked exactly once.
	count := 0
	for _, f := range res.Module.Funcs {
		if f.Name == "rt_sched_wgroup" {
			count++
		}
	}
	if count != 1 {
		t.Errorf("rt_sched_wgroup defined %d times", count)
	}
}

func TestSharedHelperBetweenKernels(t *testing.T) {
	// A helper using builtins shared by two kernels must be extended
	// once and both call sites fixed.
	res := transform(t, `
int where() { return (int)get_global_id(0); }
kernel void a(global int* out) { out[where()] = 1; }
kernel void b(global int* out) { out[where()] = 2; }
`)
	h := res.Module.Lookup("where")
	if h == nil {
		t.Fatal("helper missing")
	}
	if len(h.Params) != 3 {
		t.Fatalf("helper has %d params, want 3 (rt, sd, hdlr)", len(h.Params))
	}
	for _, kn := range []string{"a__compute", "b__compute"} {
		text := res.Module.Lookup(kn).String()
		if !strings.Contains(text, "@where(global i64*") {
			t.Errorf("%s call site not extended:\n%s", kn, text)
		}
	}
}

func TestHelperWithoutBuiltinsUntouched(t *testing.T) {
	res := transform(t, `
int plain(int a, int b) { return a + b; }
kernel void k(global int* out) { out[get_global_id(0)] = plain(1, 2); }
`)
	h := res.Module.Lookup("plain")
	if h == nil {
		t.Fatal("helper missing")
	}
	if len(h.Params) != 2 {
		t.Errorf("builtin-free helper was extended to %d params", len(h.Params))
	}
}

func TestTransformRejectsKernelFreeModule(t *testing.T) {
	m, err := clc.Compile(`int f(int a) { return a; }`, "nok")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Transform(m); err == nil {
		t.Error("module without kernels accepted")
	}
}

func TestSchedulingKernelHoists(t *testing.T) {
	m, err := clc.Compile(`
kernel void k(global float* out)
{
    local float t1[32];
    local int t2[8];
    int lid = (int)get_local_id(0);
    t1[lid % 32] = 1.0f;
    t2[lid % 8] = 2;
    barrier(1);
    out[get_global_id(0)] = t1[lid % 32] + (float)t2[lid % 8];
}
`, "h")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Transform(m)
	if err != nil {
		t.Fatal(err)
	}
	info := res.Kernels["k"]
	if len(info.Hoisted) != 2 {
		t.Fatalf("hoisted %d arrays, want 2", len(info.Hoisted))
	}
	if info.OrigLocalBytes != 32*4+8*4 {
		t.Errorf("OrigLocalBytes = %d", info.OrigLocalBytes)
	}
	if info.LocalBytes != info.OrigLocalBytes+rtlib.SDWords*8 {
		t.Errorf("LocalBytes = %d, want orig + SD block", info.LocalBytes)
	}
	// The compute function gained one pointer param per hoisted array.
	cf := res.Module.Lookup("k__compute")
	if len(cf.Params) != 1+3+2 {
		t.Errorf("compute has %d params, want 6", len(cf.Params))
	}
	// The wrapper declares them (after its SD block) and passes them in.
	var locals []*ir.Instr
	for _, in := range res.Module.Lookup("k").Entry().Instrs {
		if in.Op == ir.OpAlloca && in.AllocaSpace == ir.Local {
			locals = append(locals, in)
		}
	}
	if len(locals) != 3 || locals[1].AllocaCount != 32 || locals[2].AllocaCount != 8 {
		t.Errorf("wrapper declares %d local arrays, want the SD block, t1[32] and t2[8]", len(locals))
	}
}

// TestKernelInfoPrecedesInlining: the size metrics the scheduler plans
// with are those of the computation function as Transform leaves it —
// the O1 pipeline later folds that function and the runtime library
// into the scheduling kernel, but on a clone and after the fact, so no
// KernelInfo field (hence no plan) moves with the inliner. A kernel
// that uses two builtins links six of the library's eleven functions.
func TestKernelInfoPrecedesInlining(t *testing.T) {
	res := transform(t, `
int scale(int v, int by) { return v * by + (int)get_local_id(0); }
kernel void k(global int* out, global const int* in, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int j;
    for (j = 0; j < 4; ++j) acc += scale(in[(i + j) % n], j);
    if (i < n) out[i] = acc;
}
`)
	info := *res.Kernels["k"]
	linked := 0
	for _, f := range res.Module.Funcs {
		if strings.HasPrefix(f.Name, "rt_") && !f.IsDecl() {
			linked++
		}
	}
	// rt_global_id → rt_group_id, rt_local_id, and the wrapper's three.
	if linked != 6 {
		t.Errorf("linked %d library functions, want the 6 this module uses", linked)
	}

	opt := ir.CloneModule(res.Module)
	if err := passes.RunO1(opt); err != nil {
		t.Fatal(err)
	}
	for _, f := range opt.Funcs {
		if !f.IsDecl() && f.Name != "k" {
			t.Errorf("%s survived O1: the scheduling kernel should be the only function left", f.Name)
		}
	}
	cf := res.Module.Lookup(info.ComputeName)
	if cf == nil {
		t.Fatal("O1 on a clone removed the computation function from the transformed module")
	}
	if got := *res.Kernels["k"]; got.InstrCount != info.InstrCount || got.Chunk != info.Chunk ||
		got.Regs != info.Regs || got.LocalBytes != info.LocalBytes {
		t.Errorf("KernelInfo changed under O1: %+v, was %+v", got, info)
	}
	if n := passes.InstrCount(cf); info.InstrCount != n || info.Chunk != passes.AdaptiveChunk(n) {
		t.Errorf("InstrCount/Chunk = %d/%d, the computation function has %d instructions (chunk %d)",
			info.InstrCount, info.Chunk, n, passes.AdaptiveChunk(n))
	}
	if r := passes.ModuleRegisterEstimate(res.Module, info.ComputeName); info.Regs != r {
		t.Errorf("Regs = %d, the computation function's call graph estimates %d", info.Regs, r)
	}
}
