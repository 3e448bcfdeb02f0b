package interp

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ir"
)

// engines runs the test body once per execution engine.
func engines(t *testing.T, f func(t *testing.T, eng Engine)) {
	t.Helper()
	t.Run("vm", func(t *testing.T) { f(t, EngineVM) })
	t.Run("treewalk", func(t *testing.T) { f(t, EngineTreeWalk) })
}

func compileEngine(t *testing.T, src string, eng Engine) *Machine {
	t.Helper()
	m := compile(t, src)
	m.Engine = eng
	return m
}

// TestVMBarrierInLoop drives a barrier inside a loop body: work-items
// must stay in lockstep per iteration (the scan reads values its
// neighbors wrote in the PREVIOUS iteration), which fails if barrier
// resumption restarts or skips work-item state.
func TestVMBarrierInLoop(t *testing.T) {
	const src = `
#define WG 32
kernel void scan(global const int* in, global int* out)
{
    local int buf[2 * WG];
    int lid = (int)get_local_id(0);
    int cur = 0;
    buf[lid] = in[get_global_id(0)];
    barrier(1);
    int d;
    for (d = 1; d < WG; d <<= 1) {
        int nxt = 1 - cur;
        if (lid >= d)
            buf[nxt * WG + lid] = buf[cur * WG + lid] + buf[cur * WG + lid - d];
        else
            buf[nxt * WG + lid] = buf[cur * WG + lid];
        cur = nxt;
        barrier(1);
    }
    out[get_global_id(0)] = buf[cur * WG + lid];
}
`
	run := func(eng Engine) []int32 {
		m := compileEngine(t, src, eng)
		const n, wg = 128, 32
		in := m.NewRegion(n*4, ir.Global)
		out := m.NewRegion(n*4, ir.Global)
		iv := make([]int32, n)
		for i := range iv {
			iv[i] = int32(i%7 + 1)
		}
		in.WriteInt32s(0, iv)
		args := []Value{{K: ir.Pointer, P: Ptr{R: in}}, {K: ir.Pointer, P: Ptr{R: out}}}
		if err := m.Launch("scan", args, ND1(n, wg)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		return out.ReadInt32s(0, n)
	}
	vm := run(EngineVM)
	ref := run(EngineTreeWalk)
	for i := range ref {
		if vm[i] != ref[i] {
			t.Fatalf("out[%d]: vm %d, tree-walker %d", i, vm[i], ref[i])
		}
	}
	// Independent check on one group: inclusive prefix sums.
	sum := int32(0)
	for i := 0; i < 32; i++ {
		sum += int32(i%7 + 1)
		if vm[i] != sum {
			t.Fatalf("scan[%d] = %d, want %d", i, vm[i], sum)
		}
	}
}

// TestVMDivergentBranch sends work-items down different control-flow
// paths (including loops with data-dependent trip counts) and compares
// engines.
func TestVMDivergentBranch(t *testing.T) {
	const src = `
kernel void div(global int* out)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    if (i % 3 == 0) {
        int j;
        for (j = 0; j < i; ++j) acc += j;
    } else if (i % 3 == 1) {
        acc = -i;
    } else {
        int j = i;
        while (j > 0) { acc += 2; j >>= 1; }
    }
    out[i] = acc;
}
`
	var outs [2][]int32
	for e, eng := range []Engine{EngineVM, EngineTreeWalk} {
		m := compileEngine(t, src, eng)
		const n = 96
		out := m.NewRegion(n*4, ir.Global)
		if err := m.Launch("div", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(n, 32)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		outs[e] = out.ReadInt32s(0, n)
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("out[%d]: vm %d, tree-walker %d", i, outs[0][i], outs[1][i])
		}
	}
}

// TestVMBarrierInHelperCall puts the barrier inside a helper function:
// the VM must suspend a work-item with a non-trivial frame stack (the
// shape the JIT-transformed dyn_sched wrapper relies on when the
// computation function keeps its original barriers).
func TestVMBarrierInHelperCall(t *testing.T) {
	const src = `
#define WG 16
void exchange(local int* buf, int lid)
{
    int v = buf[lid];
    barrier(1);
    buf[(lid + 1) % WG] = v;
    barrier(1);
}
kernel void rot(global int* data)
{
    local int buf[WG];
    int lid = (int)get_local_id(0);
    buf[lid] = data[get_global_id(0)];
    barrier(1);
    exchange(buf, lid);
    data[get_global_id(0)] = buf[lid];
}
`
	engines(t, func(t *testing.T, eng Engine) {
		m := compileEngine(t, src, eng)
		const n, wg = 64, 16
		data := m.NewRegion(n*4, ir.Global)
		iv := make([]int32, n)
		for i := range iv {
			iv[i] = int32(i)
		}
		data.WriteInt32s(0, iv)
		if err := m.Launch("rot", []Value{{K: ir.Pointer, P: Ptr{R: data}}}, ND1(n, wg)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		got := data.ReadInt32s(0, n)
		for i := range got {
			g, l := i/wg, i%wg
			want := int32(g*wg + (l-1+wg)%wg) // each group rotated by one
			if got[i] != want {
				t.Fatalf("data[%d] = %d, want %d", i, got[i], want)
			}
		}
	})
}

// TestWorkItemFaultReportsGlobalID: the launch error must carry the
// faulting work-item's global id, and with several groups the first
// faulting group (in linear order) must win.
func TestWorkItemFaultReportsGlobalID(t *testing.T) {
	const src = `
kernel void f(global int* out, int bad)
{
    int i = (int)get_global_id(0);
    out[i] = 7 / (i - bad); /* traps exactly at i == bad */
}
`
	engines(t, func(t *testing.T, eng Engine) {
		m := compileEngine(t, src, eng)
		out := m.NewRegion(64*4, ir.Global)
		args := []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(37)}
		err := m.Launch("f", args, ND1(64, 8))
		if err == nil {
			t.Fatal("expected a trap")
		}
		if !strings.Contains(err.Error(), "(37,0,0)") {
			t.Errorf("error does not name the faulting global id: %v", err)
		}
		if !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("error lost the underlying fault: %v", err)
		}
	})
}

// TestErrorDrainPrefersRealFault: when a trapping work-item poisons the
// barrier and unwinds its whole group, the reported error must be the
// genuine fault, not a collateral poison unwind (the old code read one
// error nondeterministically and dropped the rest).
func TestErrorDrainPrefersRealFault(t *testing.T) {
	const src = `
kernel void f(global int* out, int bad)
{
    int i = (int)get_local_id(0);
    barrier(1);
    out[i] = 7 / (i - bad); /* one item traps, siblings hit the next barrier */
    barrier(1);
    out[i] += 1;
}
`
	engines(t, func(t *testing.T, eng Engine) {
		for trial := 0; trial < 8; trial++ {
			m := compileEngine(t, src, eng)
			out := m.NewRegion(32*4, ir.Global)
			args := []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(5)}
			err := m.Launch("f", args, ND1(32, 32))
			if err == nil {
				t.Fatal("expected a trap")
			}
			if !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("trial %d: collateral error reported instead of the fault: %v", trial, err)
			}
			if !strings.Contains(err.Error(), "(5,0,0)") {
				t.Fatalf("trial %d: wrong work-item blamed: %v", trial, err)
			}
		}
	})
}

// TestLaunchGlobalStepBudget: the instruction budget is shared across
// call frames, so a kernel that spreads its work over many helper
// invocations (each individually under the old per-frame budget) still
// traps.
func TestLaunchGlobalStepBudget(t *testing.T) {
	const src = `
int burn(int n)
{
    int acc = 0;
    int j;
    for (j = 0; j < n; ++j) acc += j;
    return acc;
}
kernel void f(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 64; ++i) acc += burn(2000);
    out[0] = acc;
}
`
	engines(t, func(t *testing.T, eng Engine) {
		m := compileEngine(t, src, eng)
		// Each burn() frame executes ~10k instructions — far below the
		// limit — but the launch total is ~64x that.
		m.MaxSteps = 100_000
		out := m.NewRegion(8, ir.Global)
		err := m.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1))
		if err == nil || !strings.Contains(err.Error(), "instruction budget exceeded") {
			t.Fatalf("launch-global budget not enforced: %v", err)
		}
		// With an adequate budget the same launch completes.
		m2 := compileEngine(t, src, eng)
		m2.MaxSteps = 10_000_000
		out2 := m2.NewRegion(8, ir.Global)
		if err := m2.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out2}}}, ND1(1, 1)); err != nil {
			t.Fatalf("budget trapped a legitimate launch: %v", err)
		}
	})
}

// TestVMPooledLaunchSteadyState: repeated launches on one machine must
// reuse register files, runner scratch and arena chunks instead of
// allocating per work-item — the satellite that makes sliced launches
// on MachinePool machines allocation-quiet.
func TestVMPooledLaunchSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := compile(t, `
kernel void vadd(global const float* a, global const float* b, global float* c)
{
    int i = (int)get_global_id(0);
    c[i] = a[i] + b[i];
}
`)
	const n = 1024
	a := m.NewRegion(n*4, ir.Global)
	b := m.NewRegion(n*4, ir.Global)
	c := m.NewRegion(n*4, ir.Global)
	args := []Value{{K: ir.Pointer, P: Ptr{R: a}}, {K: ir.Pointer, P: Ptr{R: b}}, {K: ir.Pointer, P: Ptr{R: c}}}
	launch := func() {
		if err := m.Launch("vadd", args, ND1(n, 64)); err != nil {
			t.Fatal(err)
		}
	}
	launch() // warm pools and the compiled-program cache
	avg := testing.AllocsPerRun(20, launch)
	// 1024 work-items over 16 groups: without pooling this is >1000
	// allocations (one register file per item at minimum). The bound
	// leaves room for worker bookkeeping and occasional pool misses.
	if avg > 200 {
		t.Errorf("steady-state launch allocates too much: %.0f allocs per launch", avg)
	}
}

// TestVMParityPointerStores: pointers stored to memory and reloaded
// (lazily registered regions) must behave identically on both engines.
func TestVMParityPointerStores(t *testing.T) {
	const src = `
kernel void p(global int* data, global int* out, int n)
{
    global int* cur = data;
    global int* end = data + n;
    int sum = 0;
    while (cur != end) {
        sum += *cur;
        cur = cur + 1;
    }
    if (cur == end) sum += 1000;
    if (cur != data) sum += 100;
    out[0] = sum;
}
`
	var got [2]int32
	for e, eng := range []Engine{EngineVM, EngineTreeWalk} {
		m := compileEngine(t, src, eng)
		const n = 16
		data := m.NewRegion(n*4, ir.Global)
		out := m.NewRegion(4, ir.Global)
		iv := make([]int32, n)
		for i := range iv {
			iv[i] = int32(i)
		}
		data.WriteInt32s(0, iv)
		args := []Value{{K: ir.Pointer, P: Ptr{R: data}}, {K: ir.Pointer, P: Ptr{R: out}}, IntV(n)}
		if err := m.Launch("p", args, ND1(1, 1)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		got[e] = out.ReadInt32s(0, 1)[0]
	}
	want := int32(120 + 1000 + 100)
	if got[0] != want || got[1] != want {
		t.Fatalf("pointer walk: vm %d, tree-walker %d, want %d", got[0], got[1], want)
	}
}

// TestCompiledProgramShared: pooled machines over the same module must
// resolve the same compiled program, and Reset must not drop it.
func TestCompiledProgramShared(t *testing.T) {
	mod := compileOrDie(t, `kernel void k(global int* out) { out[0] = 1; }`)
	m1, m2 := NewMachine(mod), NewMachine(mod)
	if m1.Program() != m2.Program() {
		t.Error("machines over one module compiled different programs")
	}
	p := m1.Program()
	m1.Reset()
	if m1.Program() != p {
		t.Error("Reset dropped the compiled program")
	}
}

// cacheLoopSrc is a small kernel for the program-cache tests; each test
// compiles its own module, so each starts with a cold cache entry.
const cacheLoopSrc = `
kernel void f(global int* out)
{
    int acc = 0;
    int i = 0;
    do { acc += i & 7; i = i + 1; } while (i < 100);
    out[0] = acc;
}
`

// fakeCacheMetrics counts SharedProgram events.
type fakeCacheMetrics struct {
	mu           sync.Mutex
	hits, misses int
}

func (f *fakeCacheMetrics) ProgramCacheHit() {
	f.mu.Lock()
	f.hits++
	f.mu.Unlock()
}

func (f *fakeCacheMetrics) ProgramCacheMiss() {
	f.mu.Lock()
	f.misses++
	f.mu.Unlock()
}

// TestProgramCacheMetrics: SharedProgram reports a miss on the cold
// compile and a hit on the warm lookup.
func TestProgramCacheMetrics(t *testing.T) {
	mod := compileOrDie(t, cacheLoopSrc)
	fm := &fakeCacheMetrics{}
	SetCacheMetrics(fm)
	defer SetCacheMetrics(nil)

	SharedProgram(mod)
	SharedProgram(mod)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.misses != 1 || fm.hits != 1 {
		t.Errorf("misses %d hits %d, want 1 and 1", fm.misses, fm.hits)
	}
}

// TestSharedProgramConcurrentMiss: racing first resolutions of one
// module compile with the cache lock released, yet every caller gets
// the one program the cache kept and the counters read one miss and a
// hit for each of the others — what a compile under the lock reported.
func TestSharedProgramConcurrentMiss(t *testing.T) {
	mod := compileOrDie(t, cacheLoopSrc)
	fm := &fakeCacheMetrics{}
	SetCacheMetrics(fm)
	defer SetCacheMetrics(nil)

	const callers = 8
	progs := make([]*Prog, callers)
	var wg sync.WaitGroup
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			progs[i] = SharedProgram(mod)
		}(i)
	}
	wg.Wait()
	for i, p := range progs {
		if p == nil || p != progs[0] {
			t.Fatalf("caller %d resolved %p, caller 0 resolved %p", i, p, progs[0])
		}
	}
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.misses != 1 || fm.hits != callers-1 {
		t.Errorf("misses %d hits %d, want one miss and %d hits", fm.misses, fm.hits, callers-1)
	}
}

// TestVMParity3DRuntimeDims runs a 3-D launch whose work-item builtins
// take a loop-carried (non-constant) dimension argument — the path
// where the compiler cannot fold the dim into the instruction.
func TestVMParity3DRuntimeDims(t *testing.T) {
	const src = `
kernel void dims(global long* out)
{
    int d;
    long acc = 0;
    for (d = 0; d < 3; ++d)
        acc = acc * 100 + get_global_id(d) + get_local_size(d) + get_num_groups(d);
    long i = (get_global_id(2) * get_global_size(1) + get_global_id(1)) * get_global_size(0) + get_global_id(0);
    out[i] = acc + get_work_dim() * 1000000;
}
`
	nd := NDRange{Dims: 3, Global: [3]int64{4, 4, 2}, Local: [3]int64{2, 2, 1}}
	var outs [2][]int64
	for e, eng := range []Engine{EngineVM, EngineTreeWalk} {
		m := compileEngine(t, src, eng)
		out := m.NewRegion(4*4*2*8, ir.Global)
		if err := m.Launch("dims", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, nd); err != nil {
			t.Fatalf("launch: %v", err)
		}
		outs[e] = out.ReadInt64s(0, 32)
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Fatalf("out[%d]: vm %d, tree-walker %d", i, outs[0][i], outs[1][i])
		}
	}
}

// TestWorkItemDimOutOfRange: every engine answers a work-item query with
// a dimension outside 0..2 as OpenCL does — 0 for an id or offset, 1 for
// a size or count — whether the dimension is a constant (folded at
// compile time), a uniform register or a divergent one.
func TestWorkItemDimOutOfRange(t *testing.T) {
	queries := []struct {
		name string
		want int64
	}{
		{"get_global_id", 0}, {"get_local_id", 0}, {"get_group_id", 0}, {"get_global_offset", 0},
		{"get_num_groups", 1}, {"get_local_size", 1}, {"get_global_size", 1},
	}
	dims := []string{"3", "d", "dv"}
	var body strings.Builder
	var want []int64
	for _, q := range queries {
		for _, d := range dims {
			fmt.Fprintf(&body, "    out[i * %d + %d] = %s(%s);\n", len(queries)*len(dims), len(want), q.name, d)
			want = append(want, q.want)
		}
	}
	src := `
kernel void dims(global long* out, int d)
{
    long i = get_global_id(0);
    int dv = d + (int)(i & 1) * 4;
` + body.String() + "}\n"
	mod := compileOrDie(t, src)
	const items = 16
	configs := []struct {
		name string
		eng  Engine
		opts CompileOpts
	}{
		{"treewalk", EngineTreeWalk, CompileOpts{}},
		{"tier0", EngineVM, Tier0CompileOpts},
		{"scalar-o1", EngineVM, scalarO1},
		{"warp", EngineVM, DefaultCompileOpts},
	}
	for _, c := range configs {
		for _, d := range []int64{3, -1, 7} {
			t.Run(fmt.Sprintf("%s/d=%d", c.name, d), func(t *testing.T) {
				m := NewMachine(mod)
				m.Engine = c.eng
				if c.eng == EngineVM {
					m.UseProgram(CompileModuleOpts(mod, c.opts))
				}
				out := m.NewRegion(int64(items*len(want))*8, ir.Global)
				if err := m.Launch("dims", []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(d)}, ND1(items, 8)); err != nil {
					t.Fatalf("launch: %v", err)
				}
				got := out.ReadInt64s(0, items*len(want))
				for i, v := range got {
					if q := i % len(want); v != want[q] {
						t.Fatalf("item %d: %s(%s) = %d, want %d", i/len(want), queries[q/len(dims)].name, dims[q%len(dims)], v, want[q])
					}
				}
			})
		}
	}
}

// TestVMParityLargeMixed runs a kernel exercising most opcodes (casts,
// selects, atomics, math, 2-D ids) on both engines and compares the
// raw output bytes.
func TestVMParityLargeMixed(t *testing.T) {
	const src = `
kernel void mix(global float* f, global int* c, int w)
{
    int x = (int)get_global_id(0);
    int y = (int)get_global_id(1);
    int i = y * w + x;
    float v = sqrt((float)(i + 1)) + pow(2.0f, (float)(i % 5));
    f[i] = (i % 2 == 0) ? v : -v;
    long big = (long)i * 1103515245 + 12345;
    atomic_add(&c[i % 8], (int)(big % 97));
    atomic_max(&c[8 + i % 4], i);
}
`
	var outs [2][]byte
	for e, eng := range []Engine{EngineVM, EngineTreeWalk} {
		m := compileEngine(t, src, eng)
		const w, h = 16, 8
		f := m.NewRegion(w*h*4, ir.Global)
		c := m.NewRegion(12*4, ir.Global)
		args := []Value{{K: ir.Pointer, P: Ptr{R: f}}, {K: ir.Pointer, P: Ptr{R: c}}, IntV(w)}
		if err := m.Launch("mix", args, ND2(w, h, 4, 4)); err != nil {
			t.Fatalf("launch: %v", err)
		}
		outs[e] = append(append([]byte(nil), f.Bytes...), c.Bytes...)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatal("mixed-opcode kernel differs between engines")
	}
}
