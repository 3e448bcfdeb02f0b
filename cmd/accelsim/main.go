// Command accelsim regenerates the paper's tables and figures on the
// simulated platforms.
//
// Usage:
//
//	accelsim -exp all                 # every figure and table, both platforms
//	accelsim -exp fig9 -platform amd  # one experiment, one platform
//	accelsim -exp fig13 -full         # paper-scale populations (625/16384/32768)
//
// Experiments: fig2, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
// table1, table2, all. Beyond the paper, `-exp cluster` simulates a
// multi-device pool behind the cluster scheduler:
//
//	accelsim -exp cluster -devices 4 -policy least-loaded
//	accelsim -exp cluster -devices 4 -policy all -tenants 4
//
// and `-exp live` drives the real interpreter-backed runtime through the
// event-based host API, comparing serial in-order submission against
// asynchronous pipelines from a single application:
//
//	accelsim -exp live -chains 8
//
// `-exp service` measures the out-of-process boundary: a wire-protocol
// daemon on a unix socket with N concurrent clients pipelining
// write→kernel→read chains through shared-memory buffers:
//
//	accelsim -exp service -clients 64 -per-tenant 8
//
// `-exp chaos` runs the fault-injection harness: a seeded multi-tenant
// Parboil workload under injected device failures and slice delays on
// the in-process runtime, the deterministic runaway-kernel watchdog
// scenario, and client-side transport chaos (dropped frames, torn
// connections, failed shm maps) against a clean child-process daemon.
// Every chain must be byte-identical to the native reference or fail
// with a typed error, and both runtimes must drain to zero:
//
//	accelsim -exp chaos -seed 42
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/accelos"
	"repro/internal/clc"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/passes"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	// Re-executed as the chaos daemon child: serve and never return.
	if sock := os.Getenv(experiments.ChaosDaemonEnv); sock != "" {
		experiments.ServeChaosDaemon(sock)
		return
	}
	exp := flag.String("exp", "all", "experiment id (fig2, fig9..fig15, table1, table2, cluster, chaos, all)")
	platform := flag.String("platform", "both", "platform: nvidia, amd or both")
	full := flag.Bool("full", false, "paper-scale populations (625 pairs, 16384 4-sets, 32768 8-sets); slow")
	pairs := flag.Int("pairs", 0, "override pair population size")
	fours := flag.Int("fours", 0, "override 4-set population size")
	eights := flag.Int("eights", 0, "override 8-set population size")
	par := flag.Int("parallel", runtime.NumCPU(), "workload-level parallelism")
	devices := flag.Int("devices", 3, "cluster experiment: pool size (heterogeneous, alternating platforms)")
	policy := flag.String("policy", "all", "cluster experiment: placement policy, or 'all' to sweep")
	tenants := flag.Int("tenants", 3, "cluster experiment: concurrent applications")
	perTenant := flag.Int("per-tenant", 4, "cluster experiment: kernel requests per application")
	chains := flag.Int("chains", 8, "live experiment: independent kernel+transfer pipelines")
	clients := flag.Int("clients", 8, "service experiment: concurrent daemon clients")
	trace := flag.String("trace", "", "run a live multi-tenant workload and write its Chrome trace_event JSON here (load in chrome://tracing or Perfetto)")
	profile := flag.Bool("profile", false, "collect and dump sampled VM execution profiles for the live run")
	seed := flag.Int64("seed", 42, "chaos experiment: fault-injection RNG seed")
	dumpIR := flag.String("dump-ir", "", "print a named Parboil kernel's IR before and after the O1 pipeline, then exit (e.g. -dump-ir sad/larger_sad_calc_8)")
	disable := flag.String("disable-pass", "", "comma-separated O1 passes to skip with -dump-ir ("+strings.Join(passNames(passes.O1()), ", ")+")")
	flag.Parse()

	if *dumpIR != "" {
		if err := runDumpIR(*dumpIR, *disable); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *trace != "" {
		if err := runTraced(*tenants, *perTenant, *trace, *profile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "cluster" {
		if err := runCluster(*devices, *policy, *tenants, *perTenant); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "live" {
		if err := runLive(*chains, *profile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "service" {
		if err := runService(*clients, *perTenant); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "chaos" {
		if err := runChaos(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	var devs []*device.Platform
	switch *platform {
	case "both":
		devs = device.Platforms()
	default:
		d, err := device.ByName(*platform)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		devs = []*device.Platform{d}
	}

	sizes := experiments.Sizes{Pairs: 200, Fours: 256, Eights: 192}
	if *full {
		sizes = experiments.PaperSizes
	}
	if *pairs > 0 {
		sizes.Pairs = *pairs
	}
	if *fours > 0 {
		sizes.Fours = *fours
	}
	if *eights > 0 {
		sizes.Eights = *eights
	}

	for _, dev := range devs {
		fmt.Printf("==================== %s ====================\n", dev.Name)
		e := experiments.NewEngine(dev)
		needPops := map[string]bool{"fig9": true, "fig10": true, "fig12": true,
			"fig13": true, "fig14": true, "table1": true, "table2": true, "all": true}
		var pops []*experiments.Population
		if needPops[*exp] {
			fmt.Printf("running populations (pairs=%d, 4-sets=%d, 8-sets=%d)...\n",
				sizes.Pairs, sizes.Fours, sizes.Eights)
			pops = e.RunPopulations(sizes, *par)
		}
		run := func(id string) {
			switch id {
			case "fig2":
				fig2(e)
			case "fig9":
				fig9(pops)
			case "fig10":
				fig10(pops)
			case "fig11":
				fig11(e)
			case "fig12":
				fig12(pops)
			case "fig13":
				fig13(pops)
			case "fig14":
				fig14(pops)
			case "fig15":
				fig15(e)
			case "table1", "table2":
				table(pops, dev.Vendor)
			default:
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
				os.Exit(2)
			}
		}
		if *exp == "all" {
			for _, id := range []string{"fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1"} {
				run(id)
			}
		} else {
			run(*exp)
		}
	}
}

var schemes = []experiments.Scheme{experiments.Baseline, experiments.EK, experiments.AccelOS}

// runDumpIR prints a kernel's IR before and after the VM's O1
// optimization pipeline — the inspection tool for the per-pass disable
// knob (skip a pass and diff the output to see what it contributed).
func runDumpIR(name, disable string) error {
	skip, err := parseDisable(disable)
	if err != nil {
		return err
	}
	k, err := parboil.ByName(name)
	if err != nil {
		return err
	}
	mod, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return err
	}
	fmt.Printf("--- %s: pre-pipeline IR (clc -O0 memory form) ---\n\n", name)
	fmt.Println(mod.String())
	opt := ir.CloneModule(mod)
	pm := passes.O1(skip...)
	if err := pm.Run(opt); err != nil {
		return fmt.Errorf("O1 pipeline: %w", err)
	}
	pipeline := strings.Join(passNames(pm), " + ")
	if pipeline == "" {
		pipeline = "no passes"
	}
	fmt.Printf("--- %s: post-pipeline IR (%s) ---\n\n", name, pipeline)
	fmt.Println(opt.String())
	pre, post := mod.Lookup(k.Name), opt.Lookup(k.Name)
	fmt.Printf("kernel %s: %d -> %d instructions\n", k.Name, pre.NumInstrs(), post.NumInstrs())
	return nil
}

// parseDisable splits -disable-pass's comma-separated list and rejects
// any name the O1 pipeline does not run, so a typo fails instead of
// silently skipping nothing.
func parseDisable(list string) ([]string, error) {
	known := passNames(passes.O1())
	var skip []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !slices.Contains(known, p) {
			return nil, fmt.Errorf("-disable-pass: %q is not an O1 pass (%s)", p, strings.Join(known, ", "))
		}
		skip = append(skip, p)
	}
	return skip, nil
}

// passNames lists a pipeline's passes in run order.
func passNames(pm *passes.Manager) []string {
	names := make([]string, len(pm.Passes))
	for i, p := range pm.Passes {
		names[i] = p.Name()
	}
	return names
}

// runCluster sweeps the cluster scheduler: one row per placement
// policy, with and without rebalancing.
func runCluster(devices int, policy string, tenants, perTenant int) error {
	pols := []string{policy}
	if policy == "all" {
		pols = cluster.PolicyNames()
	}
	fmt.Printf("--- cluster: %d devices, %d tenants x %d requests ---\n", devices, tenants, perTenant)
	fmt.Printf("%-16s %-10s %12s %8s %8s %11s %s\n",
		"policy", "rebalance", "makespan", "speedup", "spread", "migrations", "tenant shares")
	for _, pol := range pols {
		for _, reb := range []bool{false, true} {
			rep, err := experiments.RunClusterExperiment(experiments.ClusterConfig{
				Devices: devices, Policy: pol,
				Tenants: tenants, PerTenant: perTenant,
				Seed: 0xC10, Rebalance: reb,
			})
			if err != nil {
				return err
			}
			var shares strings.Builder
			for _, t := range experiments.SortedTenants(rep.TenantShares) {
				fmt.Fprintf(&shares, "%s=%.2f ", t, rep.TenantShares[t])
			}
			fmt.Printf("%-16s %-10v %12d %7.2fx %8.3f %11d %s\n",
				pol, reb, rep.Result.Makespan, rep.Speedup, rep.ShareSpread,
				rep.Result.Migrations, shares.String())
		}
	}
	return nil
}

// runLive is the live-path counterpart of the simulated experiments: it
// drives the interpreter-backed runtime through the event-based host
// API with modeled DMA timing (transfers take bus wall time, host CPU
// idle — what real hardware does). One application runs `chains`
// independent write→kernel→read pipelines twice — serially through the
// blocking wrappers, then asynchronously with wait-list edges only —
// and reports the throughput the out-of-order window buys by
// overlapping transfers with in-flight kernels.
func runLive(chains int, profile bool) error {
	if chains < 1 {
		chains = 1
	}
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	rt.Ctx.SetDMAModel(true)
	var prof *interp.Profiler
	if profile {
		prof = interp.NewProfiler(interp.ProfileOptions{SampleEvery: 1})
		rt.SetProfiler(prof)
	}
	app := rt.Connect("live")
	defer app.Close()
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
		return err
	}
	// Each chain uploads 4 MB, runs a strided kernel across it and reads
	// the 4 MB back: the transfers are DMA wall time, the kernel is
	// interpreter CPU time — overlap is only possible through events.
	const elems, n, iters = 1 << 20, 256, 16
	const stride = elems / n
	type chain struct {
		buf  *accelos.BufferHandle
		kern *accelos.KernelHandle
		host []byte
	}
	cs := make([]chain, chains)
	for c := range cs {
		buf, err := app.CreateBuffer(elems * 4)
		if err != nil {
			return err
		}
		k, err := prog.CreateKernel("strided")
		if err != nil {
			return err
		}
		_ = k.SetArgBuffer(0, buf)
		_ = k.SetArgInt32(1, n)
		_ = k.SetArgInt32(2, stride)
		_ = k.SetArgInt32(3, iters)
		host := make([]byte, elems*4)
		for i := 0; i < elems; i += stride {
			binary.LittleEndian.PutUint32(host[i*4:], math.Float32bits(float32(c+i)))
		}
		cs[c] = chain{buf: buf, kern: k, host: host}
	}
	nd := opencl.ND1(n, 64)

	serialStart := time.Now()
	for _, c := range cs {
		if err := c.buf.Write(0, c.host); err != nil {
			return err
		}
		if err := app.EnqueueKernel(c.kern, nd); err != nil {
			return err
		}
		if err := c.buf.Read(0, c.host); err != nil {
			return err
		}
	}
	serial := time.Since(serialStart)

	asyncStart := time.Now()
	tails := make([]*opencl.Event, 0, len(cs))
	events := make([]*opencl.Event, 0, 3*len(cs))
	for _, c := range cs {
		wev, err := c.buf.WriteAsync(0, c.host)
		if err != nil {
			return err
		}
		kev, err := app.EnqueueKernelAsync(c.kern, nd, wev)
		if err != nil {
			return err
		}
		rev, err := c.buf.ReadAsync(0, c.host, kev)
		if err != nil {
			return err
		}
		tails = append(tails, rev)
		events = append(events, wev, kev, rev)
	}
	app.Finish()
	async := time.Since(asyncStart)
	if err := opencl.WaitAll(tails...); err != nil {
		return fmt.Errorf("async pipeline failed: %w", err)
	}

	// Measured overlap from the events' own profiling timestamps (the
	// clGetEventProfilingInfo analogue): the sum of command execution
	// spans against the pipeline's wall time. 1.00x means fully serial;
	// anything above is work the wait-list window genuinely overlapped.
	var busy, queued time.Duration
	for _, ev := range events {
		p, err := ev.ProfilingInfo()
		if err != nil {
			return fmt.Errorf("profiling info: %w", err)
		}
		busy += p.Duration()
		queued += p.QueueDelay()
	}
	st := rt.Stats()
	fmt.Printf("--- live: %d independent write→kernel→read pipelines, one app ---\n", chains)
	fmt.Printf("serial (blocking wrappers):   %12v\n", serial)
	fmt.Printf("async  (wait-list edges):     %12v\n", async)
	fmt.Printf("throughput gain:              %11.2fx\n", float64(serial)/float64(async))
	fmt.Printf("measured overlap (profiling): %11.2fx  (%v command time in %v wall)\n",
		float64(busy)/float64(async), busy.Round(time.Millisecond), async.Round(time.Millisecond))
	fmt.Printf("mean wait-list queue delay:   %12v\n", (queued / time.Duration(len(events))).Round(time.Microsecond))
	fmt.Printf("runtime: %d launches, %d re-plans, %d wait-deferred\n",
		st.KernelsLaunched, st.Replans, st.WaitDeferred)
	if prof != nil {
		fmt.Println("\n--- VM execution profiles ---")
		prof.Dump(os.Stdout)
	}
	return nil
}

// runService measures the out-of-process service path: an in-process
// daemon on a private unix socket, `clients` concurrent client shims
// each pipelining `perClient` write→kernel→read chains through
// shared-memory buffers. Reported are aggregate launch throughput and
// the tail of the full chain latency (enqueue to read-back complete):
// a quick fan-in smoke of the daemon at client counts the benchmark's
// one- and two-tenant workloads never reach.
func runService(clients, perClient int) error {
	if clients < 1 {
		clients = 1
	}
	if perClient < 1 {
		perClient = 1
	}
	dir, err := os.MkdirTemp("", "acceld")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	sock := filepath.Join(dir, "d.sock")
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	srv := service.NewServer(rt, service.Options{Metrics: reg})
	if err := srv.Start(sock); err != nil {
		return err
	}
	defer srv.Close()

	const src = `
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
`
	const elems, n, iters = 1 << 16, 256, 16
	var wg sync.WaitGroup
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	start := time.Now()
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = func() error {
				c, err := service.Dial(sock, fmt.Sprintf("app%d", w), "")
				if err != nil {
					return err
				}
				defer c.Close()
				prog, err := c.CreateProgram(src)
				if err != nil {
					return err
				}
				k, err := prog.CreateKernel("strided")
				if err != nil {
					return err
				}
				buf, err := c.CreateBuffer(elems * 4)
				if err != nil {
					return err
				}
				_ = k.SetArgBuffer(0, buf)
				_ = k.SetArgInt32(1, n)
				_ = k.SetArgInt32(2, elems/n)
				_ = k.SetArgInt32(3, iters)
				host := make([]byte, elems*4)
				for it := 0; it < perClient; it++ {
					t0 := time.Now()
					wev, err := buf.WriteAsync(0, host)
					if err != nil {
						return err
					}
					kev, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 64), wev)
					if err != nil {
						return err
					}
					rev, err := buf.ReadAsync(0, host, kev)
					if err != nil {
						return err
					}
					if err := rev.Wait(); err != nil {
						return err
					}
					lats[w] = append(lats[w], time.Since(t0))
				}
				return nil
			}()
		}(w)
	}
	wg.Wait()
	wall := time.Since(start)
	for w, err := range errs {
		if err != nil {
			return fmt.Errorf("client %d: %w", w, err)
		}
	}
	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p int) time.Duration { return all[(len(all)-1)*p/100] }
	launches := clients * perClient
	st := rt.Stats()
	fmt.Printf("--- service: %d clients x %d write→kernel→read chains over one daemon ---\n", clients, perClient)
	fmt.Printf("wall time:          %12v\n", wall)
	fmt.Printf("launch throughput:  %12.1f launches/sec\n", float64(launches)/wall.Seconds())
	fmt.Printf("chain latency:      p50=%v p90=%v p99=%v\n",
		pct(50).Round(time.Microsecond), pct(90).Round(time.Microsecond), pct(99).Round(time.Microsecond))
	fmt.Printf("runtime: %d launches, %d re-plans, %d wait-deferred\n",
		st.KernelsLaunched, st.Replans, st.WaitDeferred)
	return nil
}

// runTraced drives a fully instrumented live multi-tenant workload —
// every tenant pipelines write→kernel→read chains through the runtime
// concurrently — and exports what the telemetry layer saw: a Chrome
// trace_event JSON of every kernel lifecycle, slice, replan and DMA
// transfer; a Prometheus-style metrics snapshot; the live §7.4
// scorecard; and (with -profile) the sampled VM execution profiles.
func runTraced(tenants, perTenant int, tracePath string, profile bool) error {
	if tenants < 1 {
		tenants = 1
	}
	if perTenant < 1 {
		perTenant = 1
	}
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	rt.Ctx.SetDMAModel(true)
	tr := telemetry.New(0)
	reg := telemetry.NewRegistry()
	score := metrics.NewLiveScorecard()
	rt.SetTelemetry(tr, reg, score)
	var prof *interp.Profiler
	if profile {
		prof = interp.NewProfiler(interp.ProfileOptions{SampleEvery: 1})
		rt.SetProfiler(prof)
	}

	const elems, n, stride = 1 << 18, 256, 1 << 10
	nd := opencl.ND1(n, 64)
	var wg sync.WaitGroup
	errCh := make(chan error, tenants)
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			errCh <- func() error {
				app := rt.Connect(fmt.Sprintf("app%d", ti))
				defer app.Close()
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
					return err
				}
				host := make([]byte, elems*4)
				var tails []*opencl.Event
				for c := 0; c < perTenant; c++ {
					buf, err := app.CreateBuffer(elems * 4)
					if err != nil {
						return err
					}
					k, err := prog.CreateKernel("strided")
					if err != nil {
						return err
					}
					_ = k.SetArgBuffer(0, buf)
					_ = k.SetArgInt32(1, n)
					_ = k.SetArgInt32(2, stride)
					_ = k.SetArgInt32(3, int32(16*(ti+1)))
					wev, err := buf.WriteAsync(0, host)
					if err != nil {
						return err
					}
					kev, err := app.EnqueueKernelAsync(k, nd, wev)
					if err != nil {
						return err
					}
					rev, err := buf.ReadAsync(0, host, kev)
					if err != nil {
						return err
					}
					tails = append(tails, rev)
				}
				app.Finish()
				return opencl.WaitAll(tails...)
			}()
		}(ti)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}

	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("--- traced live run: %d tenants x %d chains ---\n", tenants, perTenant)
	fmt.Printf("wrote %d spans to %s (%d dropped)\n\n", tr.Len(), tracePath, tr.Dropped())
	if err := reg.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	fmt.Println(score.Compute().String())
	if prof != nil {
		fmt.Println("\n--- VM execution profiles ---")
		prof.Dump(os.Stdout)
	}
	return nil
}

func fig2(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 2: parallel execution of bfs, cutcp, stencil, tpacf ---")
	r := e.RunWorkload(experiments.Fig2Workload())
	fmt.Println("(a) individual slowdowns:")
	for _, s := range schemes {
		fmt.Printf("    %-8s", s)
		for i, k := range r.Kernels {
			fmt.Printf("  %s=%.2f", shortName(k), r.Slowdowns[s][i])
		}
		fmt.Println()
	}
	fmt.Printf("(b) system unfairness: OpenCL=%.2f EK=%.2f accelOS=%.2f (accelOS %.2fx fairer)\n",
		r.Unfairness[experiments.Baseline], r.Unfairness[experiments.EK],
		r.Unfairness[experiments.AccelOS], r.FairnessImprovement(experiments.AccelOS))
	fmt.Printf("(c) throughput speedup:  EK=%.2fx accelOS=%.2fx\n",
		r.Speedup[experiments.EK], r.Speedup[experiments.AccelOS])
}

func fig9(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 9: average system unfairness (lower is better) ---")
	fmt.Printf("%8s %10s %10s %10s\n", "requests", "OpenCL", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %10.2f %10.2f %10.2f\n", p.K,
			p.AvgUnfairness(experiments.Baseline),
			p.AvgUnfairness(experiments.EK),
			p.AvgUnfairness(experiments.AccelOS))
	}
}

func fig10(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 10: fairness improvement distribution (higher is better) ---")
	fmt.Printf("%8s %-8s %8s %8s %8s %8s %8s %10s\n", "requests", "scheme", "min", "p25", "median", "p75", "max", "%below 1x")
	for _, p := range pops {
		for _, s := range []experiments.Scheme{experiments.EK, experiments.AccelOS} {
			xs := p.FairnessImprovements(s)
			fmt.Printf("%8d %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %9.1f%%\n", p.K, s.String(),
				metrics.Percentile(xs, 0), metrics.Percentile(xs, 25), metrics.Percentile(xs, 50),
				metrics.Percentile(xs, 75), metrics.Percentile(xs, 100),
				100*metrics.FractionBelow(xs, 1))
		}
	}
}

func fig11(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 11: unfairness for alphabetical 2-kernel pairs (lower is better) ---")
	fmt.Printf("%-58s %8s %8s %8s\n", "pair", "OpenCL", "EK", "accelOS")
	for _, p := range experiments.Fig11Pairs() {
		r := e.RunWorkload(p)
		name := shortName(r.Kernels[0]) + " + " + shortName(r.Kernels[1])
		fmt.Printf("%-58s %8.2f %8.2f %8.2f\n", name,
			r.Unfairness[experiments.Baseline], r.Unfairness[experiments.EK], r.Unfairness[experiments.AccelOS])
	}
}

func fig12(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 12: average kernel execution overlap (higher is better) ---")
	fmt.Printf("%8s %10s %10s %10s\n", "requests", "OpenCL", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %9.0f%% %9.0f%% %9.0f%%\n", p.K,
			100*p.AvgOverlap(experiments.Baseline),
			100*p.AvgOverlap(experiments.EK),
			100*p.AvgOverlap(experiments.AccelOS))
	}
}

func fig13(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 13: average system throughput speedup over OpenCL ---")
	fmt.Printf("%8s %10s %10s\n", "requests", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %9.2fx %9.2fx\n", p.K,
			p.AvgSpeedup(experiments.EK), p.AvgSpeedup(experiments.AccelOS))
	}
}

func fig14(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 14: throughput speedup distribution ---")
	fmt.Printf("%8s %-8s %8s %8s %8s %8s %8s %10s\n", "requests", "scheme", "min", "p25", "median", "p75", "max", "%slowdown")
	for _, p := range pops {
		for _, s := range []experiments.Scheme{experiments.EK, experiments.AccelOS} {
			xs := p.Speedups(s)
			fmt.Printf("%8d %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %9.1f%%\n", p.K, s.String(),
				metrics.Percentile(xs, 0), metrics.Percentile(xs, 25), metrics.Percentile(xs, 50),
				metrics.Percentile(xs, 75), metrics.Percentile(xs, 100),
				100*metrics.FractionBelow(xs, 1))
		}
	}
}

func fig15(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 15: accelOS single-kernel performance impact ---")
	rows := e.Fig15()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Kernel < rows[j].Kernel })
	var naive, opt []float64
	fmt.Printf("%-38s %8s %10s\n", "kernel", "naive", "optimized")
	for _, r := range rows {
		fmt.Printf("%-38s %8.3f %10.3f\n", r.Kernel, r.Naive, r.Optimized)
		naive = append(naive, r.Naive)
		opt = append(opt, r.Optimized)
	}
	fmt.Printf("%-38s %8.3f %10.3f\n", "geometric mean", metrics.GeoMean(naive), metrics.GeoMean(opt))
}

func table(pops []*experiments.Population, vendor string) {
	n := "1"
	if vendor == "AMD" {
		n = "2"
	}
	fmt.Printf("\n--- Table %s: STP / ANTT / worst ANTT (%s) ---\n", n, vendor)
	fmt.Printf("%8s | %8s %8s %8s | %8s %8s %8s\n", "", "EK", "", "", "accelOS", "", "")
	fmt.Printf("%8s | %8s %8s %8s | %8s %8s %8s\n", "RQSTs", "STP", "ANTT", "W.ANTT", "STP", "ANTT", "W.ANTT")
	for _, p := range pops {
		fmt.Printf("%8d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n", p.K,
			p.AvgSTP(experiments.EK), p.AvgANTT(experiments.EK), p.MaxWANTT(experiments.EK),
			p.AvgSTP(experiments.AccelOS), p.AvgANTT(experiments.AccelOS), p.MaxWANTT(experiments.AccelOS))
	}
}

func shortName(full string) string {
	if i := strings.Index(full, "/"); i >= 0 {
		return full[:i] + "/" + abbreviate(full[i+1:])
	}
	return full
}

func abbreviate(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

// runChaos drives the fault-injection harness end to end: the
// in-process runtime phase (device failures + slice delays), the
// deterministic watchdog scenario, then transport chaos against a
// clean daemon child (this binary re-executed via ChaosDaemonEnv).
func runChaos(seed int64) error {
	fmt.Printf("== chaos: runtime phase (seed %d) ==\n", seed)
	if _, err := experiments.RunChaosRuntime(seed, os.Stdout); err != nil {
		return err
	}
	if err := experiments.RunChaosWatchdog(os.Stdout); err != nil {
		return err
	}

	fmt.Println("== chaos: service phase (client-side transport faults) ==")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sock, stop, err := experiments.SpawnChaosDaemon(exe)
	if err != nil {
		return err
	}
	if _, err := experiments.RunChaosService(sock, seed, os.Stdout); err != nil {
		stop()
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	fmt.Println("chaos: all chains byte-identical or typed; daemon drained to mem=0 active=0")
	return nil
}
