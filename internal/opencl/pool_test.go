package opencl

import (
	"encoding/binary"
	"sync/atomic"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rtlib"
)

// countingCacheMetrics counts SharedProgram resolutions.
type countingCacheMetrics struct{ hits, misses atomic.Int64 }

func (c *countingCacheMetrics) ProgramCacheHit()  { c.hits.Add(1) }
func (c *countingCacheMetrics) ProgramCacheMiss() { c.misses.Add(1) }

// TestManyLiveModulesCompileOnce cycles launches over more live modules
// than any fixed cache would hold, through both the native queue and
// the sliced launch handle: after one warm-up pass no launch compiles
// and no launch builds a machine.
func TestManyLiveModulesCompileOnce(t *testing.T) {
	const modules, passes = 100, 3
	const n, local = 64, 32
	plat := GetPlatforms()[0]
	defer plat.Machines().Close()
	ctx := plat.CreateContext()
	q := ctx.CreateCommandQueue()
	nd := ND1(n, local)

	type tenant struct {
		k     *Kernel
		trans *ir.Module
		out   *Buffer
	}
	ts := make([]tenant, modules)
	for i := range ts {
		p := ctx.CreateProgramWithSource(markSrc)
		if err := p.Build(); err != nil {
			t.Fatal(err)
		}
		res, err := accelpass.Transform(ir.CloneModule(p.Module))
		if err != nil {
			t.Fatal(err)
		}
		out, err := ctx.CreateBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		k, err := p.CreateKernel("mark")
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(0, out); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgInt32(1, n); err != nil {
			t.Fatal(err)
		}
		ts[i] = tenant{k, res.Module, out}
	}

	fm := &countingCacheMetrics{}
	interp.SetCacheMetrics(fm)
	defer interp.SetCacheMetrics(nil)
	pool := plat.Machines()
	var missesAfterWarmup int64
	var builtAfterWarmup int
	for pass := 0; pass < passes; pass++ {
		for _, tn := range ts {
			ev, err := q.EnqueueKernel(tn.k, nd)
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Wait(); err != nil {
				t.Fatal(err)
			}
			h, err := NewLaunchHandle(plat, tn.trans, tn.k, nd, rtlib.BuildRT(1, nd.NumGroups(), nd.Local, 1), 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.Run(); err != nil {
				t.Fatal(err)
			}
		}
		pool.mu.Lock()
		built := pool.nextMach
		pool.mu.Unlock()
		if pass == 0 {
			missesAfterWarmup, builtAfterWarmup = fm.misses.Load(), built
			if missesAfterWarmup != 2*modules {
				t.Fatalf("warm-up pass compiled %d programs, want %d (one per module)", missesAfterWarmup, 2*modules)
			}
			continue
		}
		if m := fm.misses.Load(); m != missesAfterWarmup {
			t.Errorf("pass %d: %d programs recompiled on the launch path", pass, m-missesAfterWarmup)
		}
		if built != builtAfterWarmup {
			t.Errorf("pass %d: %d machines built after warm-up", pass, built-builtAfterWarmup)
		}
	}
	if h := fm.hits.Load(); h != int64(2*modules*(passes-1)) {
		t.Errorf("hits = %d, want %d (one resolution per launch)", h, 2*modules*(passes-1))
	}
	// Every launch, native or sliced, added i+1 to out[i].
	for m, tn := range ts {
		for i := int64(0); i < n; i++ {
			if got, want := int32(binary.LittleEndian.Uint32(tn.out.Bytes[i*4:])), int32(2*passes*(i+1)); got != want {
				t.Fatalf("module %d: out[%d] = %d, want %d", m, i, got, want)
			}
		}
	}
}

// TestMachinePoolSteadyStateNoAllocs: once a machine is parked, an
// Acquire and Release pair allocates nothing.
func TestMachinePoolSteadyStateNoAllocs(t *testing.T) {
	pool := NewMachinePool()
	defer pool.Close()
	mod, err := clc.Compile(markSrc, "pool_prog")
	if err != nil {
		t.Fatal(err)
	}
	pool.Release(pool.Acquire(mod))
	if a := testing.AllocsPerRun(100, func() { pool.Release(pool.Acquire(mod)) }); a != 0 {
		t.Errorf("Acquire+Release allocates %v times per pair, want 0", a)
	}
}

// TestPooledMachineServesAnyModule: a machine released after module A
// and acquired for module B runs B's kernel — B's bytes, not a stale
// program of A's kernel of the same name — and ignores A's program.
func TestPooledMachineServesAnyModule(t *testing.T) {
	const srcA = `kernel void k(global int* out) { int i = (int)get_global_id(0); out[i] = 1; }`
	const srcB = `kernel void k(global int* out) { int i = (int)get_global_id(0); out[i] = 3 * i + 7; }`
	modA, err := clc.Compile(srcA, "a")
	if err != nil {
		t.Fatal(err)
	}
	modB, err := clc.Compile(srcB, "b")
	if err != nil {
		t.Fatal(err)
	}
	const n, local = 64, 16
	run := func(m *interp.Machine) []byte {
		out := make([]byte, n*4)
		r := m.BindRegion(out, ir.Global)
		if err := m.Launch("k", []interp.Value{{K: ir.Pointer, P: interp.Ptr{R: r}}}, ND1(n, local)); err != nil {
			t.Fatal(err)
		}
		return out
	}

	pool := NewMachinePool()
	defer pool.Close()
	mA := pool.Acquire(modA)
	run(mA)
	pool.Release(mA)
	m := pool.Acquire(modB)
	if m != mA {
		t.Fatal("pool built a machine for module B instead of reusing the idle one")
	}
	m.UseProgram(interp.SharedProgram(modA))
	out := run(m)
	for i := int64(0); i < n; i++ {
		if got, want := int32(binary.LittleEndian.Uint32(out[i*4:])), int32(3*i+7); got != want {
			t.Fatalf("out[%d] = %d, want %d (module B's kernel)", i, got, want)
		}
	}
	if m.Program() != interp.SharedProgram(modB) {
		t.Error("machine for module B does not run B's shared program")
	}
}
