// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark regenerates its figure's rows on a reduced
// population (the accelsim command runs paper-scale populations) and
// reports the headline numbers as custom metrics, so `go test -bench`
// output carries the reproduced series alongside the timing.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/accelos"
	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/elastic"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchSizes keeps -bench runtimes in seconds while preserving the
// population structure.
var benchSizes = experiments.Sizes{Pairs: 40, Fours: 24, Eights: 16}

func benchPops(b *testing.B, dev *device.Platform, overlap bool) []*experiments.Population {
	b.Helper()
	e := experiments.NewEngine(dev)
	e.WithOverlap = overlap
	return e.RunPopulations(benchSizes, 4)
}

// BenchmarkFig2 reproduces the motivating example: bfs, cutcp, stencil
// and tpacf concurrently on the K20m model (Fig. 2a-c).
func BenchmarkFig2(b *testing.B) {
	e := experiments.NewEngine(device.NVIDIAK20m())
	var r *experiments.WorkloadResult
	for i := 0; i < b.N; i++ {
		r = e.RunWorkload(experiments.Fig2Workload())
	}
	b.ReportMetric(r.Unfairness[experiments.Baseline], "unfairness-opencl")
	b.ReportMetric(r.Unfairness[experiments.AccelOS], "unfairness-accelos")
	b.ReportMetric(r.Speedup[experiments.AccelOS], "speedup-accelos")
}

// BenchmarkFig9 reproduces average system unfairness per request count
// (Fig. 9a); run with -benchtime=1x for one full population sweep.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, device.NVIDIAK20m(), false)
		for _, p := range pops {
			b.ReportMetric(p.AvgUnfairness(experiments.Baseline), fmt.Sprintf("U-opencl-%dreq", p.K))
			b.ReportMetric(p.AvgUnfairness(experiments.AccelOS), fmt.Sprintf("U-accelos-%dreq", p.K))
		}
	}
}

// BenchmarkFig10 reproduces the fairness-improvement distribution.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, device.NVIDIAK20m(), false)
		for _, p := range pops {
			xs := p.FairnessImprovements(experiments.AccelOS)
			b.ReportMetric(metrics.Percentile(xs, 50), fmt.Sprintf("FI-median-%dreq", p.K))
			b.ReportMetric(100*metrics.FractionBelow(xs, 1), fmt.Sprintf("FI-neg-pct-%dreq", p.K))
		}
	}
}

// BenchmarkFig11 reproduces the alphabetical-pair unfairness comparison.
func BenchmarkFig11(b *testing.B) {
	e := experiments.NewEngine(device.NVIDIAK20m())
	e.WithOverlap = false
	pairs := experiments.Fig11Pairs()
	var base, acc float64
	for i := 0; i < b.N; i++ {
		base, acc = 0, 0
		for _, p := range pairs {
			r := e.RunWorkload(p)
			base += r.Unfairness[experiments.Baseline]
			acc += r.Unfairness[experiments.AccelOS]
		}
	}
	b.ReportMetric(base/float64(len(pairs)), "U-opencl-mean")
	b.ReportMetric(acc/float64(len(pairs)), "U-accelos-mean")
}

// BenchmarkFig12 reproduces the kernel execution overlap averages.
func BenchmarkFig12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, device.NVIDIAK20m(), true)
		for _, p := range pops {
			b.ReportMetric(100*p.AvgOverlap(experiments.Baseline), fmt.Sprintf("overlap-opencl-pct-%dreq", p.K))
			b.ReportMetric(100*p.AvgOverlap(experiments.AccelOS), fmt.Sprintf("overlap-accelos-pct-%dreq", p.K))
		}
	}
}

// BenchmarkFig13 reproduces average throughput speedups.
func BenchmarkFig13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, device.NVIDIAK20m(), false)
		for _, p := range pops {
			b.ReportMetric(p.AvgSpeedup(experiments.AccelOS), fmt.Sprintf("speedup-accelos-%dreq", p.K))
			b.ReportMetric(p.AvgSpeedup(experiments.EK), fmt.Sprintf("speedup-ek-%dreq", p.K))
		}
	}
}

// BenchmarkFig14 reproduces the speedup distribution.
func BenchmarkFig14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, device.NVIDIAK20m(), false)
		for _, p := range pops {
			xs := p.Speedups(experiments.AccelOS)
			b.ReportMetric(metrics.Percentile(xs, 50), fmt.Sprintf("speedup-median-%dreq", p.K))
			b.ReportMetric(100*metrics.FractionBelow(xs, 1), fmt.Sprintf("slowdown-pct-%dreq", p.K))
		}
	}
}

// BenchmarkFig15 reproduces the single-kernel overhead study (naive vs
// optimized accelOS, geometric means over all 25 kernels).
func BenchmarkFig15(b *testing.B) {
	e := experiments.NewEngine(device.NVIDIAK20m())
	var rows []experiments.SingleKernelResult
	for i := 0; i < b.N; i++ {
		rows = e.Fig15()
	}
	var naive, opt []float64
	for _, r := range rows {
		naive = append(naive, r.Naive)
		opt = append(opt, r.Optimized)
	}
	b.ReportMetric(metrics.GeoMean(naive), "geomean-naive")
	b.ReportMetric(metrics.GeoMean(opt), "geomean-optimized")
}

// BenchmarkTable1 reproduces the STP/ANTT table on the NVIDIA model.
func BenchmarkTable1(b *testing.B) {
	benchTable(b, device.NVIDIAK20m())
}

// BenchmarkTable2 reproduces the STP/ANTT table on the AMD model.
func BenchmarkTable2(b *testing.B) {
	benchTable(b, device.AMDR9295X2())
}

func benchTable(b *testing.B, dev *device.Platform) {
	for i := 0; i < b.N; i++ {
		pops := benchPops(b, dev, false)
		for _, p := range pops {
			b.ReportMetric(p.AvgSTP(experiments.AccelOS), fmt.Sprintf("STP-accelos-%dreq", p.K))
			b.ReportMetric(p.AvgANTT(experiments.AccelOS), fmt.Sprintf("ANTT-accelos-%dreq", p.K))
			b.ReportMetric(p.AvgANTT(experiments.EK), fmt.Sprintf("ANTT-ek-%dreq", p.K))
		}
	}
}

// --- substrate micro-benchmarks -------------------------------------

// BenchmarkJITCompile measures the CLC front end on a Parboil kernel.
func BenchmarkJITCompile(b *testing.B) {
	k, err := parboil.ByName("mri-gridding/splitSort")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := clc.Compile(k.Source, k.Name); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJITTransform measures the full accelOS transformation
// pipeline (demotion, builtin replacement, hoisting, wrapper generation,
// linking, cleanup passes).
func BenchmarkJITTransform(b *testing.B) {
	k, err := parboil.ByName("mri-gridding/splitSort")
	if err != nil {
		b.Fatal(err)
	}
	mod, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := accelpass.Transform(ir.CloneModule(mod)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEngines names the interpreter variants of the perf record:
// "vm" is the bytecode engine behind the full O1 pipeline plus
// superinstruction fusion (the default compile), "vm-O0" the same
// engine on unoptimized bytecode (the PR 3 baseline), and "treewalk"
// the pre-VM tree-walking reference.
var benchEngines = []struct {
	name string
	eng  interp.Engine
	opts interp.CompileOpts
}{
	{"vm", interp.EngineVM, interp.DefaultCompileOpts},
	{"vm-O0", interp.EngineVM, interp.CompileOpts{Disable: []string{"fuse"}}},
	{"treewalk", interp.EngineTreeWalk, interp.CompileOpts{}},
}

// BenchmarkInterpLaunch measures functional kernel execution on the
// interpreter (one 4096-item sad launch), compiled once and launched
// per iteration, on every engine variant.
func BenchmarkInterpLaunch(b *testing.B) {
	k, err := parboil.ByName("sad/larger_sad_calc_8")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			pl, err := k.PrepareNative(e.eng)
			if err != nil {
				b.Fatal(err)
			}
			pl.Mach.UseProgram(interp.CompileModuleOpts(pl.Mach.Mod, e.opts))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := pl.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatch isolates interpreter dispatch: one work-item
// spinning a tight arithmetic loop, so ns/op is almost purely
// per-instruction overhead (map-environment tree walk vs register VM).
func BenchmarkDispatch(b *testing.B) {
	mod, err := clc.Compile(`
kernel void spin(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 100000; ++i) acc += i & 7;
    out[0] = acc;
}
`, "spin")
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range benchEngines {
		b.Run(e.name, func(b *testing.B) {
			m := interp.NewMachine(mod)
			m.Engine = e.eng
			m.UseProgram(interp.CompileModuleOpts(mod, e.opts))
			out := m.NewRegion(4, ir.Global)
			args := []interp.Value{{K: ir.Pointer, P: interp.Ptr{R: out}}}
			nd := interp.ND1(1, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Launch("spin", args, nd); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// vm-traced is the telemetry overhead guard: the same VM dispatch
	// with a live profiler at the default sampling rate. CI's
	// bench-telemetry job requires it within 3% of the untraced vm run
	// (the sampling check is the only hot-loop cost most launches pay).
	b.Run("vm-traced", func(b *testing.B) {
		m := interp.NewMachine(mod)
		m.Engine = interp.EngineVM
		m.UseProgram(interp.CompileModuleOpts(mod, interp.DefaultCompileOpts))
		m.Profiler = interp.NewProfiler(interp.ProfileOptions{})
		out := m.NewRegion(4, ir.Global)
		args := []interp.Value{{K: ir.Pointer, P: interp.Ptr{R: out}}}
		nd := interp.ND1(1, 1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := m.Launch("spin", args, nd); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarpDispatch measures warp-batched dispatch against per-item
// scalar dispatch on three divergence profiles: "uniform" spends the
// loop in warp-invariant code (one decode AND one execution per warp),
// "divergent" branches on the local id in the first iteration so the
// warp spills to the scalar path immediately (the ≤5% regression
// guard), and "mixed" re-forms at a barrier between a uniform and a
// lane-varying phase. CI guards uniform at ≥2× and divergent at ≤1.05×
// via benchjson -require-ratio.
func BenchmarkWarpDispatch(b *testing.B) {
	kernels := []struct{ name, src string }{
		{"uniform", `
kernel void k(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 20000; ++i) acc += i & 7;
    out[get_local_id(0)] = acc;
}
`},
		{"divergent", `
kernel void k(global int* out)
{
    int lid = (int)get_local_id(0);
    int acc = 0;
    int i;
    for (i = 0; i < 20000; ++i) {
        if ((i + lid) & 1) acc += i & 7;
        else acc -= i & 3;
    }
    out[lid] = acc;
}
`},
		{"mixed", `
kernel void k(global int* out)
{
    int lid = (int)get_local_id(0);
    int acc = 0;
    int i;
    for (i = 0; i < 10000; ++i) acc += i & 7;
    barrier(1);
    for (i = 0; i < 10000; ++i) acc += (i + lid) & 3;
    out[lid] = acc;
}
`},
	}
	engines := []struct {
		name string
		opts interp.CompileOpts
	}{
		{"vm", interp.CompileOpts{Opt: true}}, // scalar: WarpWidth 0
		{"vm-warp", interp.DefaultCompileOpts},
	}
	for _, k := range kernels {
		mod, err := clc.Compile(k.src, k.name)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range engines {
			b.Run(k.name+"/"+e.name, func(b *testing.B) {
				m := interp.NewMachine(mod)
				m.Engine = interp.EngineVM
				m.UseProgram(interp.CompileModuleOpts(mod, e.opts))
				out := m.NewRegion(64*4, ir.Global)
				args := []interp.Value{{K: ir.Pointer, P: interp.Ptr{R: out}}}
				nd := interp.ND1(64, 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := m.Launch("k", args, nd); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimBaseline measures the discrete-event simulator on an
// 8-kernel baseline workload.
func BenchmarkSimBaseline(b *testing.B) {
	dev := device.NVIDIAK20m()
	combo := workload.Random(7, 8, 1)[0]
	for i := 0; i < b.N; i++ {
		sim.RunBaseline(dev, workload.BuildSingle(dev, combo))
	}
}

// BenchmarkSimAccelOS measures the simulator under software scheduling.
func BenchmarkSimAccelOS(b *testing.B) {
	dev := device.NVIDIAK20m()
	combo := workload.Random(7, 8, 1)[0]
	for i := 0; i < b.N; i++ {
		sim.RunAccelOS(dev, workload.BuildSingle(dev, combo), false, accelos.PlanShares)
	}
}

// BenchmarkSimElastic measures the simulator under static merging.
func BenchmarkSimElastic(b *testing.B) {
	dev := device.NVIDIAK20m()
	combo := workload.Random(7, 8, 1)[0]
	for i := 0; i < b.N; i++ {
		sim.RunElastic(dev, workload.BuildSingle(dev, combo), elastic.Plan)
	}
}

// BenchmarkPlanShares measures the §3 resource-sharing algorithm.
func BenchmarkPlanShares(b *testing.B) {
	dev := device.NVIDIAK20m()
	execs := workload.BuildSingle(dev, workload.Random(11, 8, 1)[0])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accelos.PlanShares(dev, execs, false)
	}
}

// BenchmarkPlanTenantShares measures the tenant-weighted §3 variant the
// cluster layer plans every admission and completion with.
func BenchmarkPlanTenantShares(b *testing.B) {
	dev := device.NVIDIAK20m()
	execs := workload.BuildSingle(dev, workload.Random(11, 8, 1)[0])
	tenants := make([]string, len(execs))
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant%d", i%3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		accelos.PlanTenantShares(dev, execs, tenants, nil, false)
	}
}

// BenchmarkClusterPlacement measures one placement decision per policy
// over an 8-device heterogeneous pool — the scheduler-latency hot path
// of the admission controller.
func BenchmarkClusterPlacement(b *testing.B) {
	devs := device.PoolOf(8)
	loads := make([]sim.DeviceLoad, len(devs))
	for i, d := range devs {
		loads[i] = sim.DeviceLoad{Dev: d, Index: i, PendingWork: int64(i) * 1e6}
	}
	e := &sim.ClusterExec{
		K:      &sim.KernelExec{ID: 1, WGSize: 128, NumWGs: 4096, BaseWGCost: 1000, RegsPerThread: 16},
		Tenant: "tenant1",
	}
	for _, name := range cluster.PolicyNames() {
		pol, err := cluster.PolicyByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pol.Pick(e, loads)
			}
		})
	}
}

// BenchmarkRunCluster measures a full multi-tenant cluster simulation
// (placement + admission + tenant-weighted planning + rebalancing) per
// policy, and reports the resulting makespan and migration count.
func BenchmarkRunCluster(b *testing.B) {
	devs := device.PoolOf(4)
	for _, name := range cluster.PolicyNames() {
		b.Run(name, func(b *testing.B) {
			var r *sim.ClusterResult
			for i := 0; i < b.N; i++ {
				pol, _ := cluster.PolicyByName(name)
				sched := cluster.NewScheduler(pol, accelos.PlanWeighted)
				execs := workload.Tenants(devs, 3, 4, 0xC10)
				r = sim.RunCluster(devs, execs, sched, sim.ClusterOptions{Rebalance: true})
			}
			b.ReportMetric(float64(r.Makespan), "makespan-cycles")
			b.ReportMetric(float64(r.Migrations), "migrations")
		})
	}
}

// --- ablation benchmarks ---------------------------------------------

// BenchmarkAblationChunk sweeps the dequeue chunk size on a small-kernel
// isolated execution, the design choice behind the §6.4 adaptive table:
// chunk 1 pays one atomic per virtual group; large chunks amortize it
// but coarsen load balance.
func BenchmarkAblationChunk(b *testing.B) {
	dev := device.NVIDIAK20m()
	k, err := parboil.ByName("histo/histo_final") // small kernel, chunk-sensitive
	if err != nil {
		b.Fatal(err)
	}
	base := k.Exec(0)
	base.Iters = 2
	alone := sim.RunBaseline(dev, workload.Clone([]*sim.KernelExec{base})).Timings[0].Duration()
	for i := 0; i < b.N; i++ {
		for _, chunk := range []int64{1, 2, 4, 8} {
			e := k.Exec(0)
			e.Iters = 2
			e.Chunk = chunk
			r := sim.RunAccelOS(dev, []*sim.KernelExec{e}, false, accelos.PlanShares)
			b.ReportMetric(float64(alone)/float64(r.Timings[0].Duration()),
				fmt.Sprintf("speedup-chunk%d", chunk))
		}
	}
}

// BenchmarkAblationGreedyGrowth compares the §3 allocation with and
// without the greedy post-pass that grows conservative Diophantine
// shares until resource saturation.
func BenchmarkAblationGreedyGrowth(b *testing.B) {
	dev := device.NVIDIAK20m()
	combo := workload.Random(3, 4, 1)[0]
	for i := 0; i < b.N; i++ {
		execs := workload.BuildSingle(dev, combo)
		launches := accelos.PlanShares(dev, execs, false)
		var grown, initial int64
		for _, l := range launches {
			grown += l.PhysWGs * dev.RoundWarp(l.FP.Threads)
			// The pre-growth share is T/(K·w) threads per kernel.
			w := dev.RoundWarp(l.FP.Threads)
			x := dev.TotalThreads() / (int64(len(execs)) * w)
			if x > l.K.NumWGs {
				x = l.K.NumWGs
			}
			initial += x * w
		}
		b.ReportMetric(float64(grown)/float64(dev.TotalThreads()), "thread-utilization-greedy")
		b.ReportMetric(float64(initial)/float64(dev.TotalThreads()), "thread-utilization-initial")
	}
}

// BenchmarkAblationExclusiveDriver quantifies the AMD driver's kernel
// serialization: the same workload with and without ExclusiveKernels.
func BenchmarkAblationExclusiveDriver(b *testing.B) {
	combo := workload.Random(5, 2, 1)[0]
	for i := 0; i < b.N; i++ {
		excl := device.AMDR9295X2()
		co := device.AMDR9295X2()
		co.ExclusiveKernels = false
		re := sim.RunBaseline(excl, workload.Build(excl, combo, 2))
		rc := sim.RunBaseline(co, workload.Build(co, combo, 2))
		b.ReportMetric(re.Overlap(), "overlap-exclusive")
		b.ReportMetric(rc.Overlap(), "overlap-coscheduled")
	}
}

// BenchmarkLaunchLargeBuffer measures a minimal launch over a 16 MB
// buffer. With zero-copy binding the per-launch cost is independent of
// buffer size — the old path copied every byte in and out per launch,
// so this benchmark regressing to O(bytes) means the binding broke.
func BenchmarkLaunchLargeBuffer(b *testing.B) {
	ctx := opencl.GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	p := ctx.CreateProgramWithSource(`
kernel void touch(global int* d) { d[get_global_id(0)] = (int)get_global_id(0); }
`)
	if err := p.Build(); err != nil {
		b.Fatal(err)
	}
	k, err := p.CreateKernel("touch")
	if err != nil {
		b.Fatal(err)
	}
	const size = 16 << 20
	buf, err := ctx.CreateBuffer(size)
	if err != nil {
		b.Fatal(err)
	}
	_ = k.SetArgBuffer(0, buf)
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{64, 1, 1}, Local: [3]int64{64, 1, 1}}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.EnqueueNDRangeKernel(k, nd); err != nil {
			b.Fatal(err)
		}
	}
}

// asyncPipelineFixture is the shared setup of the host-API benchmarks:
// one application with `chains` independent 4 MB buffers and strided
// kernels on a DMA-modeled context (transfers take bus wall time with
// the host CPU idle, as on real hardware).
type asyncPipelineFixture struct {
	rt  *accelos.Runtime
	app *accelos.App
	buf []*accelos.BufferHandle
	krn []*accelos.KernelHandle
	hst [][]byte
	nd  opencl.NDRange
}

const (
	apChains = 8
	apElems  = 2 << 20 // 8 MB per chain
	apN      = 128
	apIters  = 8
)

func newAsyncPipelineFixture(b *testing.B) *asyncPipelineFixture {
	b.Helper()
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	rt.Ctx.SetDMAModel(true)
	app := rt.Connect("bench-pipeline")
	prog, err := app.CreateProgram(`
kernel void strided(global float* d, int n, int stride, int iters)
{
    int i = (int)get_global_id(0);
    if (i < n) {
        float acc = d[i * stride];
        int it;
        for (it = 0; it < iters; ++it) acc = acc * 1.000001f + 0.5f;
        d[i * stride] = acc;
    }
}
`)
	if err != nil {
		b.Fatal(err)
	}
	f := &asyncPipelineFixture{rt: rt, app: app, nd: opencl.ND1(apN, 64)}
	for c := 0; c < apChains; c++ {
		buf, err := app.CreateBuffer(apElems * 4)
		if err != nil {
			b.Fatal(err)
		}
		k, err := prog.CreateKernel("strided")
		if err != nil {
			b.Fatal(err)
		}
		_ = k.SetArgBuffer(0, buf)
		_ = k.SetArgInt32(1, apN)
		_ = k.SetArgInt32(2, apElems/apN)
		_ = k.SetArgInt32(3, apIters)
		f.buf = append(f.buf, buf)
		f.krn = append(f.krn, k)
		f.hst = append(f.hst, make([]byte, apElems*4))
	}
	return f
}

// BenchmarkAsyncPipeline runs N independent write→kernel→read chains
// from ONE application two ways: "serial" submits each command through
// the blocking wrappers (the pre-event in-order model), "async" enqueues
// everything with wait-list edges and blocks once on Finish. The async
// form overlaps DMA transfers with in-flight kernel slices, so its ns/op
// should be well under the serial ns/op (the acceptance bar is 1.5×).
func BenchmarkAsyncPipeline(b *testing.B) {
	b.Run("serial", func(b *testing.B) {
		f := newAsyncPipelineFixture(b)
		defer f.rt.Shutdown()
		defer f.app.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for c := 0; c < apChains; c++ {
				if err := f.buf[c].Write(0, f.hst[c]); err != nil {
					b.Fatal(err)
				}
				if err := f.app.EnqueueKernel(f.krn[c], f.nd); err != nil {
					b.Fatal(err)
				}
				if err := f.buf[c].Read(0, f.hst[c]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(apChains, "chains")
	})
	b.Run("async", func(b *testing.B) {
		f := newAsyncPipelineFixture(b)
		defer f.rt.Shutdown()
		defer f.app.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tails := make([]*opencl.Event, apChains)
			for c := 0; c < apChains; c++ {
				wev, err := f.buf[c].WriteAsync(0, f.hst[c])
				if err != nil {
					b.Fatal(err)
				}
				kev, err := f.app.EnqueueKernelAsync(f.krn[c], f.nd, wev)
				if err != nil {
					b.Fatal(err)
				}
				rev, err := f.buf[c].ReadAsync(0, f.hst[c], kev)
				if err != nil {
					b.Fatal(err)
				}
				tails[c] = rev
			}
			f.app.Finish()
			// The chain tail fails if any upstream command failed; a
			// silently broken async path must not record a bogus win.
			if err := opencl.WaitAll(tails...); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(apChains, "chains")
	})
}

// BenchmarkEventOverhead isolates the cost of the event machinery
// itself: enqueue + dependency resolution + completion + Wait for a
// no-op marker command, with no kernel or transfer work behind it.
func BenchmarkEventOverhead(b *testing.B) {
	ctx := opencl.GetPlatforms()[0].CreateContext()
	for _, mode := range []string{"in-order", "out-of-order"} {
		b.Run(mode, func(b *testing.B) {
			q := ctx.CreateCommandQueue()
			if mode == "out-of-order" {
				q = ctx.CreateOutOfOrderQueue()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ev, err := q.EnqueueMarker()
				if err != nil {
					b.Fatal(err)
				}
				if err := ev.Wait(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSlicedLaunch measures the sliced engine end to end through
// the accelOS runtime (JIT-transformed kernel, RT descriptor slices,
// pooled machines) — the live hot path the dynamic re-planner drives.
func BenchmarkSlicedLaunch(b *testing.B) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("bench")
	defer app.Close()
	prog, err := app.CreateProgram(`
kernel void vadd(global const float* x, global const float* y, global float* z, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) z[i] = x[i] + y[i];
}
`)
	if err != nil {
		b.Fatal(err)
	}
	const n = 4096
	x, _ := app.CreateBuffer(n * 4)
	y, _ := app.CreateBuffer(n * 4)
	z, _ := app.CreateBuffer(n * 4)
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		b.Fatal(err)
	}
	_ = k.SetArgBuffer(0, x)
	_ = k.SetArgBuffer(1, y)
	_ = k.SetArgBuffer(2, z)
	_ = k.SetArgInt32(3, n)
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := app.EnqueueKernel(k, nd); err != nil {
			b.Fatal(err)
		}
	}
}
