package interp

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/clc"
	"repro/internal/ir"
)

// tierLoopSrc is the canonical hot-kernel shape for the tier tests: a
// do-while loop whose body ends bin;bin;bin;cmp;condbr — the profile-
// guided compile fuses the arithmetic pair into opBinBin and the
// increment+test+branch into opBinCmpJump (the increment stays
// multi-use: the back edge's phi reads it).
const tierLoopSrc = `
kernel void f(global int* out)
{
    int acc = 0;
    int i = 0;
    do { acc += i & 7; i = i + 1; } while (i < 100);
    out[0] = acc;
}
`

// profileTier0 runs the kernel once at tier 0 under an exact-sampling
// profiler and returns the profiler plus the run's output.
func profileTier0(t *testing.T, mod *ir.Module, kernel string) (*Profiler, []int32) {
	t.Helper()
	p0 := CompileModuleOpts(mod, Tier0CompileOpts)
	if p0.Tier() != 0 {
		t.Fatalf("Tier0CompileOpts produced tier %d", p0.Tier())
	}
	prof := NewProfiler(ProfileOptions{SampleEvery: 1})
	m := NewMachine(mod)
	m.UseProgram(p0)
	m.Profiler = prof
	out := m.NewRegion(4, ir.Global)
	if err := m.Launch(kernel, []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	return prof, out.ReadInt32s(0, 1)
}

func TestGuideFromSnapshots(t *testing.T) {
	snaps := []KernelProfileSnapshot{
		{Kernel: "k1", SampleEvery: 4, Blocks: []BlockCount{
			{Fn: "f", Block: "body", Hits: 10},
			{Fn: "f", Block: "exit", Hits: 1},
		}},
		{Kernel: "k2", SampleEvery: 1, Blocks: []BlockCount{
			{Fn: "f", Block: "body", Hits: 5},
		}},
	}
	g := GuideFromSnapshots(snaps)
	if w := g.Weight("f", "body"); w != 45 {
		t.Errorf("body weight %d, want 45 (10*4 + 5*1)", w)
	}
	if w := g.Weight("f", "exit"); w != 4 {
		t.Errorf("exit weight %d, want 4", w)
	}
	if w := g.Weight("f", "cold"); w != 0 {
		t.Errorf("unseen block weight %d, want 0", w)
	}
	if w := (*ProfileGuide)(nil).Weight("f", "body"); w != 0 {
		t.Errorf("nil guide weight %d, want 0", w)
	}
}

// TestTieredSuperinstructions: a profile-guided recompile of a hot loop
// emits the two profile-gated superinstructions, records its decisions,
// and computes byte-identical results to the tier-0 form.
func TestTieredSuperinstructions(t *testing.T) {
	mod, err := clc.Compile(tierLoopSrc, "tier")
	if err != nil {
		t.Fatal(err)
	}
	prof, want := profileTier0(t, mod, "f")

	guide := GuideFromSnapshots(prof.Snapshot())
	p1 := CompileModuleOpts(mod, CompileOpts{Opt: true, WarpWidth: DefaultWarpWidth, Profile: guide})
	if p1.Tier() != 1 {
		t.Fatalf("guided compile produced tier %d", p1.Tier())
	}
	cf := p1.fns["f"]
	if countVMOps(cf, opBinBin) == 0 {
		t.Error("no opBinBin emitted for the hot acc += i & 7 pair")
	}
	if countVMOps(cf, opBinCmpJump) == 0 {
		t.Error("no opBinCmpJump emitted for the hot increment+test+branch")
	}

	decs := p1.Decisions()
	if len(decs) == 0 {
		t.Fatal("guided compile recorded no decisions")
	}
	var supers int
	for _, d := range decs {
		if len(d.BlockOrder) == 0 {
			t.Errorf("decision for %s has no block order", d.Fn)
		}
		for _, s := range d.Super {
			if !s.Gated {
				if s.Weight <= 0 {
					t.Errorf("emitted superinstruction %s in %s/%s has weight %d", s.Name, s.Fn, s.Block, s.Weight)
				}
				supers++
			}
		}
	}
	if supers == 0 {
		t.Error("no emitted superinstruction recorded in the decisions")
	}

	m := NewMachine(mod)
	m.UseProgram(p1)
	out := m.NewRegion(4, ir.Global)
	if err := m.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := out.ReadInt32s(0, 1); got[0] != want[0] {
		t.Errorf("tier-1 result %d, tier-0 result %d", got[0], want[0])
	}
}

// TestTieredLayoutParity: a loop with a strongly biased branch keeps
// byte-identical results after hot-path block layout moves the cold arm
// out of line, and the guided compile needs no more jumps than the
// static one.
func TestTieredLayoutParity(t *testing.T) {
	src := `
kernel void g(global int* out)
{
    int acc = 0;
    int i = 0;
    do {
        if ((i & 1023) == 0) { acc += 1000; } else { acc += i & 3; }
        i = i + 1;
    } while (i < 4096);
    out[0] = acc;
}
`
	mod, err := clc.Compile(src, "layout")
	if err != nil {
		t.Fatal(err)
	}
	prof, want := profileTier0(t, mod, "g")

	guide := GuideFromSnapshots(prof.Snapshot())
	p1 := CompileModuleOpts(mod, CompileOpts{Opt: true, WarpWidth: DefaultWarpWidth, Profile: guide})
	pStatic := CompileModuleOpts(mod, DefaultCompileOpts)
	if a, b := countVMOps(p1.fns["g"], opJump), countVMOps(pStatic.fns["g"], opJump); a > b {
		t.Errorf("guided layout emits %d opJumps, static %d — fallthrough elision regressed", a, b)
	}

	m := NewMachine(mod)
	m.UseProgram(p1)
	out := m.NewRegion(4, ir.Global)
	if err := m.Launch("g", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := out.ReadInt32s(0, 1); got[0] != want[0] {
		t.Errorf("guided layout result %d, tier-0 result %d", got[0], want[0])
	}
}

// TestTierControllerPromotes: end to end through the controller — the
// first program is tier 0; launches feed its profiler; crossing the
// threshold promotes in the background, bumps the hot-swap generation,
// resets the kernel's profile, and the recompiled program computes the
// same bytes.
func TestTierControllerPromotes(t *testing.T) {
	mod, err := clc.Compile(tierLoopSrc, "tierctl")
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTierController(TierOptions{HotInstrs: 1, SampleEvery: 1})
	defer tc.Close()

	p0 := tc.ProgramFor(mod)
	if p0.Tier() != 0 {
		t.Fatalf("first program is tier %d, want 0", p0.Tier())
	}
	verBefore := ProgramVersion()

	run := func(p *Prog) int32 {
		m := NewMachine(mod)
		m.UseProgram(p)
		m.Profiler = tc.Profiler()
		m.Tier = tc
		out := m.NewRegion(4, ir.Global)
		if err := m.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
			t.Fatal(err)
		}
		return out.ReadInt32s(0, 1)[0]
	}
	want := run(p0)

	deadline := time.Now().Add(10 * time.Second)
	for tc.Promotions() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if tc.Promotions() == 0 {
		t.Fatal("kernel crossed the hotness threshold but was never promoted")
	}
	if v := ProgramVersion(); v == verBefore {
		t.Error("promotion did not bump the hot-swap generation")
	}
	p1 := tc.ProgramFor(mod)
	if p1.Tier() != 1 {
		t.Fatalf("post-promotion program is tier %d, want 1", p1.Tier())
	}
	if got := run(p1); got != want {
		t.Errorf("tier-1 result %d, tier-0 result %d", got, want)
	}
	if n := tc.Profiler().KernelInstrEstimate("f"); n == 0 {
		// The post-promotion run above re-profiled the kernel; the reset
		// is observable as the estimate restarting from that single run.
		t.Log("profile reset left no counts (single re-run below threshold)")
	}
	// A second promotion must not trigger: the module is already tier 1.
	before := tc.Promotions()
	run(p1)
	time.Sleep(10 * time.Millisecond)
	if tc.Promotions() != before {
		t.Error("already-promoted module was promoted again")
	}
}

// TestTierControllerConcurrentSwap is the -race exercise: launches keep
// running (re-resolving the shared program each time) while promotions
// hot-swap the cache underneath them; every result must match.
func TestTierControllerConcurrentSwap(t *testing.T) {
	mod, err := clc.Compile(tierLoopSrc, "tierrace")
	if err != nil {
		t.Fatal(err)
	}
	tc := NewTierController(TierOptions{HotInstrs: 1, SampleEvery: 1})
	defer tc.Close()

	want := int32(0)
	for i := int32(0); i < 100; i++ {
		want += i & 7
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := tc.ProgramFor(mod)
				m := NewMachine(mod)
				m.UseProgram(p)
				m.Profiler = tc.Profiler()
				m.Tier = tc
				out := m.NewRegion(4, ir.Global)
				if err := m.Launch("f", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(1, 1)); err != nil {
					errc <- err
					return
				}
				if got := out.ReadInt32s(0, 1)[0]; got != want {
					t.Errorf("launch during swap computed %d, want %d", got, want)
					return
				}
			}
		}()
	}
	// Force promotions from a separate goroutine while launches run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			tc.PromoteSync(mod)
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestTieredFaultAttribution: a fault on one specific work-item is
// attributed to the same global id with the same error text whether the
// kernel runs the tier-0 or the profile-guided tier-1 program.
func TestTieredFaultAttribution(t *testing.T) {
	const src = `
kernel void k(global int* out, int n)
{
    int lid = (int)get_local_id(0);
    int acc = 0;
    int i = 0;
    do { acc += i & 7; i = i + 1; } while (i < 64);
    out[lid] = acc / (lid - n);
}
`
	mod, err := clc.Compile(src, "tierfault")
	if err != nil {
		t.Fatal(err)
	}
	p0 := CompileModuleOpts(mod, Tier0CompileOpts)

	launch := func(p *Prog, prof *Profiler, n int64) error {
		m := NewMachine(mod)
		m.UseProgram(p)
		m.Profiler = prof
		out := m.NewRegion(64*4, ir.Global)
		return m.Launch("k", []Value{{K: ir.Pointer, P: Ptr{R: out}}, IntV(n)}, ND1(64, 64))
	}

	// Profile a non-faulting run (n = -1: no lane divides by zero), then
	// build the guided tier-1 program from it.
	prof := NewProfiler(ProfileOptions{SampleEvery: 1})
	if err := launch(p0, prof, -1); err != nil {
		t.Fatal(err)
	}
	p1 := CompileModuleOpts(mod, CompileOpts{Opt: true, WarpWidth: DefaultWarpWidth, Profile: GuideFromSnapshots(prof.Snapshot())})

	err0 := launch(p0, nil, 5)
	err1 := launch(p1, nil, 5)
	if err0 == nil || err1 == nil {
		t.Fatalf("faulting launch did not fault (tier0=%v, tier1=%v)", err0, err1)
	}
	if err0.Error() != err1.Error() {
		t.Errorf("fault attribution differs across tiers:\n  tier0: %s\n  tier1: %s", err0, err1)
	}
	if !strings.Contains(err1.Error(), "(5,0,0)") {
		t.Errorf("tier-1 fault not attributed to lane 5: %s", err1)
	}
}

// fakeCacheMetrics counts SharedProgram events per tier.
type fakeCacheMetrics struct {
	mu     sync.Mutex
	hits   map[int]int
	misses map[int]int
}

func (f *fakeCacheMetrics) ProgramCacheHit(tier int) {
	f.mu.Lock()
	f.hits[tier]++
	f.mu.Unlock()
}

func (f *fakeCacheMetrics) ProgramCacheMiss(tier int) {
	f.mu.Lock()
	f.misses[tier]++
	f.mu.Unlock()
}

// TestProgramCacheMetrics: SharedProgram reports a tier-labeled miss on
// the cold compile and a hit on the warm lookup.
func TestProgramCacheMetrics(t *testing.T) {
	mod, err := clc.Compile(tierLoopSrc, "cachemetrics")
	if err != nil {
		t.Fatal(err)
	}
	fm := &fakeCacheMetrics{hits: make(map[int]int), misses: make(map[int]int)}
	SetCacheMetrics(fm)
	defer SetCacheMetrics(nil)

	SharedProgram(mod)
	SharedProgram(mod)
	fm.mu.Lock()
	defer fm.mu.Unlock()
	if fm.misses[1] != 1 {
		t.Errorf("tier-1 misses %v, want map[1:1]", fm.misses)
	}
	if fm.hits[1] != 1 {
		t.Errorf("tier-1 hits %v, want map[1:1]", fm.hits)
	}
}

// TestSharedProgramConcurrentMiss: racing first resolutions of one
// module compile with the cache lock released, yet every caller gets
// the one program the cache kept and the counters read one miss and a
// hit for each of the others — what a compile under the lock reported.
func TestSharedProgramConcurrentMiss(t *testing.T) {
	mod, err := clc.Compile(tierLoopSrc, "cacherace")
	if err != nil {
		t.Fatal(err)
	}
	fm := &fakeCacheMetrics{hits: make(map[int]int), misses: make(map[int]int)}
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
	if fm.misses[1] != 1 || fm.hits[1] != callers-1 {
		t.Errorf("misses %v hits %v, want one tier-1 miss and %d tier-1 hits", fm.misses, fm.hits, callers-1)
	}
}
