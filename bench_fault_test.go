// Fault-hook overhead guard: the chaos injection points are compiled
// into the launch and placement hot paths unconditionally, so their
// disabled cost must stay negligible. BenchmarkFaultDispatch runs the
// same blocking kernel dispatch twice — "clean" with no injector
// installed (the production shape: one atomic load plus a nil check
// per hook site) and "hooks-idle" with an injector installed but every
// point at probability zero (the worst disabled case: a mutex and a
// map lookup per site, no fires). CI's bench-fault job holds the ratio
// within 3% in BENCH_fault.json.
package repro

import (
	"testing"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/opencl"
)

const faultBenchSrc = `
kernel void bump(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = out[i] + 1;
}
`

func BenchmarkFaultDispatch(b *testing.B) {
	b.Run("clean", func(b *testing.B) { benchFaultDispatch(b, false) })
	b.Run("hooks-idle", func(b *testing.B) { benchFaultDispatch(b, true) })
}

func benchFaultDispatch(b *testing.B, armed bool) {
	rt := accelos.NewClusterRuntime(opencl.GetPlatforms()[:1], cluster.LeastLoaded(), 2)
	defer rt.Shutdown()
	if armed {
		inj := fault.NewInjector(1).
			Enable(fault.DeviceFail, 0).
			Enable(fault.SliceDelay, 0)
		rt.Pool().SetFaultInjector(inj)
		opencl.SetFaultInjector(inj)
		defer opencl.SetFaultInjector(nil)
		defer rt.Pool().SetFaultInjector(nil)
	}

	app := rt.Connect("bench")
	defer app.Close()
	prog, err := app.CreateProgram(faultBenchSrc)
	if err != nil {
		b.Fatal(err)
	}
	k, err := prog.CreateKernel("bump")
	if err != nil {
		b.Fatal(err)
	}
	const n = 8192
	buf, err := app.CreateBuffer(n * 4)
	if err != nil {
		b.Fatal(err)
	}
	defer buf.Release()
	if err := k.SetArgBuffer(0, buf); err != nil {
		b.Fatal(err)
	}
	if err := k.SetArgInt32(1, n); err != nil {
		b.Fatal(err)
	}
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.EnqueueKernel(k, nd); err != nil {
			b.Fatal(err)
		}
	}
}
