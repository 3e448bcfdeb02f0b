package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/accelos"
	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/passes"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Per-layer metrics, all from the traced run and all measured from
// outside: spans around the harness's own calls, the counters the
// layers already keep, and probes that call one layer directly. The
// layers are the repo's packages; a layer's self time is its rung of
// the ladder
//
//	interp.launch < opencl.chain < accelos.chain < service.chain
//
// minus the rung below it.

// counters is what the runtime and the registry of the traced instance
// have counted so far.
type counters struct {
	launches, replans, deferred int64
	slices, sliceNs             int64
	enqs, enqNs                 int64
	fallbacks                   int64
	warps, warpPct              int64
	hits, misses                int64
}

func snapshot(inst *instance) counters {
	st := inst.rt.Stats()
	c := counters{
		launches:  int64(st.KernelsLaunched),
		replans:   int64(st.Replans),
		deferred:  int64(st.WaitDeferred),
		fallbacks: inst.reg.CounterTotal("divergence_fallbacks_total"),
		hits:      inst.reg.CounterTotal("program_cache_hits_total"),
		misses:    inst.reg.CounterTotal("program_cache_misses_total"),
	}
	h := histTotals(inst.reg)
	c.slices, c.sliceNs = h["slice_ns_count"], h["slice_ns_sum"]
	c.enqs, c.enqNs = h["enqueue_latency_ns_count"], h["enqueue_latency_ns_sum"]
	c.warps, c.warpPct = h["warp_occupancy_count"], h["warp_occupancy_sum"]
	return c
}

// histTotals sums every histogram family's _count and _sum lines over
// its label sets. The registry has no iterator; its text dump is the
// public way to read a family whose labels the reader does not know.
func histTotals(reg *telemetry.Registry) map[string]int64 {
	var buf bytes.Buffer
	reg.WriteText(&buf) // a bytes.Buffer write cannot fail
	out := make(map[string]int64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || line[0] == '#' {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if !strings.HasSuffix(name, "_count") && !strings.HasSuffix(name, "_sum") {
			continue
		}
		if v, err := strconv.ParseInt(line[sp+1:], 10, 64); err == nil {
			out[name] += v
		}
	}
	return out
}

func (c *counters) add(after, before counters) {
	c.launches += after.launches - before.launches
	c.replans += after.replans - before.replans
	c.deferred += after.deferred - before.deferred
	c.slices += after.slices - before.slices
	c.sliceNs += after.sliceNs - before.sliceNs
	c.enqs += after.enqs - before.enqs
	c.enqNs += after.enqNs - before.enqNs
	c.fallbacks += after.fallbacks - before.fallbacks
	c.warps += after.warps - before.warps
	c.warpPct += after.warpPct - before.warpPct
	c.hits += after.hits - before.hits
	c.misses += after.misses - before.misses
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// metrics turns counts taken over the traced instance's cycles into the
// count-derived per-layer metrics.
func (c counters) metrics(m map[string]float64) {
	m["accelos.replans_per_launch"] = ratio(c.replans, c.launches)
	m["accelos.wait_deferred_share"] = ratio(c.deferred, c.launches)
	m["accelos.slices_per_launch"] = ratio(c.slices, c.launches)
	m["accelos.slice_us"] = ratio(c.sliceNs, c.slices) / 1e3
	m["accelos.enqueue_latency_us"] = ratio(c.enqNs, c.enqs) / 1e3
	m["interp.divergence_fallbacks_per_launch"] = ratio(c.fallbacks, c.launches)
	m["interp.warp_occupancy"] = ratio(c.warpPct, c.warps)
	m["interp.program_cache_hit_share"] = ratio(c.hits, c.hits+c.misses)
}

// probeSize bounds the repeats of a probe; the smoke test uses the
// small one.
type probeSize struct {
	minReps, maxReps int
	budget           time.Duration // per timed loop, once minReps are done
	compileReps      int
	sessions         int // sessions timed step by step
	loopReps         int // tight loops (encode, observe, plan)
}

var (
	fullProbes  = probeSize{minReps: 9, maxReps: 301, budget: 30 * time.Millisecond, compileReps: 21, sessions: 25, loopReps: 20000}
	smokeProbes = probeSize{minReps: 1, maxReps: 1, budget: time.Millisecond, compileReps: 1, sessions: 2, loopReps: 50}
)

// p50 times f until the budget is spent (at least minReps, at most
// maxReps times, after one untimed call) and returns the median in µs.
func (ps probeSize) p50(f func() error) (float64, error) {
	d, err := ps.interleave(f)
	if err != nil {
		return 0, err
	}
	return medianDur(d[0]), nil
}

// interleave times the functions in turn, round after round, so that
// each sees the same stretch of machine time and their differences are
// not drift. It returns every function's samples.
func (ps probeSize) interleave(fns ...func() error) ([][]time.Duration, error) {
	for _, f := range fns {
		if err := f(); err != nil {
			return nil, err
		}
	}
	d := make([][]time.Duration, len(fns))
	start := time.Now()
	for n := 0; n < ps.minReps || (n < ps.maxReps && time.Since(start) < ps.budget); n++ {
		for i, f := range fns {
			t0 := time.Now()
			if err := f(); err != nil {
				return nil, err
			}
			d[i] = append(d[i], time.Since(t0))
		}
	}
	return d, nil
}

// mean times n calls of f and returns the mean in ns.
func mean(n int, f func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// rungs are one spec's ladder: µs per launch by rung name, each the
// median of samples interleaved with the other rungs'. The svc rungs
// are absent when the daemon does not hold the spec.
type rungs map[string]float64

func (r rungs) add(o rungs) {
	for k, v := range o {
		r[k] += v
	}
}

// jit is the daemon's compile pipeline for one source, as
// accelos.Runtime.jitProgram runs it.
type jit struct {
	orig, trans, opt *ir.Module // as compiled; transformed; O1-optimised
	infos            map[string]*accelpass.KernelInfo
}

// compileJIT runs the pipeline stage by stage. timed, when not nil, is
// told how long each named stage took (the clones between stages are
// not stages).
func compileJIT(s *launchSpec, timed func(stage string, d time.Duration)) (*jit, error) {
	stage := func(name string, f func() error) error {
		t0 := time.Now()
		err := f()
		if timed != nil {
			timed(name, time.Since(t0))
		}
		return err
	}
	j := &jit{}
	err := stage("clc.compile_us", func() (err error) {
		j.orig, err = clc.Compile(s.source, s.kernel)
		return err
	})
	if err != nil {
		return nil, err
	}
	trans := ir.CloneModule(j.orig)
	err = stage("accelpass.transform_us", func() error {
		res, err := accelpass.Transform(trans)
		if err == nil {
			j.trans, j.infos = res.Module, res.Kernels
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	j.opt = ir.CloneModule(j.trans)
	if err := stage("passes.o1_us", func() error { return passes.RunO1(j.opt) }); err != nil {
		return nil, err
	}
	return j, nil
}

// clKernel binds the spec's arguments onto a kernel of mod over plain
// byte slices, as the runtime's toCL does for a launch.
func clKernel(mod *ir.Module, s *launchSpec) (*opencl.Kernel, error) {
	k, err := (&opencl.Program{Module: mod}).CreateKernel(s.kernel)
	if err != nil {
		return nil, err
	}
	for i, a := range s.args {
		if a.data == nil {
			err = k.SetArgInt32(i, a.scalar)
		} else {
			b := append([]byte(nil), a.data...)
			err = k.SetArgBuffer(i, &opencl.Buffer{Size: int64(len(b)), Bytes: b})
		}
		if err != nil {
			return nil, err
		}
	}
	return k, nil
}

// chainSamples collects what one chain's runs report beyond their
// total time.
type chainSamples struct {
	enq, wait, queueDelay, launchDelay, exec []time.Duration
}

func (cs *chainSamples) run(c *chain, rec *recorder) error {
	ct, err := c.run(rec, 0, 0)
	if err != nil {
		return err
	}
	cs.enq, cs.wait = append(cs.enq, ct.enq), append(cs.wait, ct.total-ct.enq)
	if p, err := ct.kernel.ProfilingInfo(); err == nil {
		cs.queueDelay = append(cs.queueDelay, p.QueueDelay())
		cs.launchDelay = append(cs.launchDelay, p.LaunchDelay())
		cs.exec = append(cs.exec, p.Duration())
	}
	return nil
}

// ladder measures one spec on every rung: a bare machine, a native
// command queue, a sliced launch of the transformed module, an
// in-process App, and — when svc is the daemon's chain for the spec —
// the daemon.
func ladder(ps probeSize, plat *opencl.Platform, ctx *opencl.Context, app *accelos.App, s *launchSpec, svc *chain, rec *recorder) (rungs, error) {
	j, err := compileJIT(s, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}

	// interp: the untransformed kernel on a bare machine, VM engine.
	mach := interp.NewMachine(j.orig)
	mach.Engine = interp.EngineVM
	var args []interp.Value
	for _, a := range s.args {
		if a.data == nil {
			args = append(args, interp.IntV(int64(a.scalar)))
			continue
		}
		reg := mach.NewRegion(int64(len(a.data)), ir.Global)
		copy(reg.Bytes, a.data)
		args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: reg}})
	}

	// opencl: native write→kernel→read on a command queue.
	nc, err := nativeChain(ctx, s)
	if err != nil {
		return nil, err
	}

	// opencl sliced: the transformed module at the share a kernel alone
	// on the device is planned, compiled the way the daemon compiles it.
	info := j.infos[s.kernel]
	if info == nil {
		return nil, fmt.Errorf("%s: transformation lost the kernel", s.name)
	}
	interp.ShareProgram(interp.CompileModuleOpts(j.opt, interp.CompileOpts{WarpWidth: interp.DefaultWarpWidth}))
	k, err := clKernel(j.orig, s)
	if err != nil {
		return nil, err
	}
	plan := accelos.PlanSingle(plat.Dev, &sim.KernelExec{
		WGSize:             s.nd.WGSize(),
		NumWGs:             s.nd.TotalGroups(),
		LocalBytes:         info.OrigLocalBytes,
		RegsPerThread:      int64(info.Regs),
		Chunk:              int64(info.Chunk),
		TransRegsPerThread: int64(info.Regs) + 1,
		TransLocalBytes:    info.LocalBytes,
	}, false)
	rtWords := rtlib.BuildRT(s.nd.Dims, s.nd.NumGroups(), s.nd.Local, info.Chunk)

	// accelos: the same chain through an in-process App.
	ac, err := appChain(app, s)
	if err != nil {
		return nil, err
	}
	ac.tenant = "probe"

	var appS, svcS chainSamples
	fns := []func() error{
		func() error { return mach.Launch(s.kernel, args, s.nd) },
		func() error { _, err := nc.run(nil, 0, 0); return err },
		func() error {
			h, err := opencl.NewLaunchHandle(plat, j.opt, k, s.nd, rtWords, plan.PhysWGs, plan.Chunk)
			if err != nil {
				return err
			}
			return h.Run()
		},
		func() error { return appS.run(ac, rec) },
	}
	if svc != nil {
		fns = append(fns, func() error { return svcS.run(svc, rec) })
	}
	d, err := ps.interleave(fns...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	r := rungs{
		"interp": medianDur(d[0]), "native": medianDur(d[1]), "sliced": medianDur(d[2]),
		"app": medianDur(d[3]), "appEnq": medianDur(appS.enq), "appWait": medianDur(appS.wait),
		"queueDelay": medianDur(appS.queueDelay), "launchDelay": medianDur(appS.launchDelay), "exec": medianDur(appS.exec),
	}
	if svc != nil {
		r["svc"], r["svcEnq"], r["svcWait"] = medianDur(d[4]), medianDur(svcS.enq), medianDur(svcS.wait)
	}
	return r, nil
}

// probes fills m with every probe-derived metric. a is the traced
// instance; its tenants are idle when probes runs.
func probes(in *inputs, a *instance, dir string, ps probeSize, rec *recorder, m map[string]float64) error {
	if err := serviceProbe(in, a, ps, rec, m); err != nil {
		return err
	}
	plat := opencl.GetPlatforms()[0]
	ctx := plat.CreateContext()
	prt := accelos.NewRuntime(plat)
	app := prt.Connect("probe")
	defer func() {
		app.Close()
		prt.Shutdown()
	}()

	// The ladder for the foreground op's own launches, with the daemon
	// as the top rung, and for all 25 Parboil kernels (the per-kernel
	// sharing-tax table).
	byName := make(map[string]rungs)
	fg := rungs{}
	for i, s := range in.fgSpecs() {
		r, err := ladder(ps, plat, ctx, app, s, a.fgChains[i], rec)
		if err != nil {
			return err
		}
		byName[s.name] = r
		fg.add(r)
	}
	for _, s := range in.parboil {
		r, ok := byName[s.name]
		if !ok {
			var err error
			if r, err = ladder(ps, plat, ctx, app, s, nil, nil); err != nil {
				return err
			}
		}
		m[taxMetric(s.name)] = r["app"] / r["native"]
	}
	wrapper := fg["sliced"] - fg["interp"]
	m["interp.launch_us"] = fg["interp"]
	m["opencl.chain_us"] = fg["native"]
	m["opencl.self_us"] = fg["native"] - fg["interp"]
	m["opencl.sliced_launch_us"] = fg["sliced"]
	m["accelos.wrapper_us"] = wrapper
	m["accelos.chain_us"] = fg["app"]
	m["accelos.dispatch_us"] = fg["app"] - fg["native"] - wrapper
	m["accelos.enqueue_us"] = fg["appEnq"]
	m["accelos.wait_us"] = fg["appWait"]
	m["accelos.queue_delay_us"] = fg["queueDelay"]
	m["accelos.launch_delay_us"] = fg["launchDelay"]
	m["accelos.exec_us"] = fg["exec"]
	m["service.chain_us"] = fg["svc"]
	m["service.tax_us"] = fg["svc"] - fg["app"]
	m["service.enqueue_us"] = fg["svcEnq"]
	m["service.wait_us"] = fg["svcWait"]

	if err := compileProbe(in, app, ps, m); err != nil {
		return err
	}
	if err := wireProbe(a, dir, ps, m); err != nil {
		return err
	}

	// accelos.PlanShares over the pair's two executions.
	spmv, _ := parboil.ByName("spmv/spmv_jds")
	sgemm, _ := parboil.ByName("sgemm/mysgemmNT")
	execs := []*sim.KernelExec{spmv.Exec(1), sgemm.Exec(2)}
	m["accelos.plan_shares_us"] = mean(ps.loopReps/10+1, func() { accelos.PlanShares(plat.Dev, execs, false) }) / 1e3

	// cluster: what a pool of one would add to every launch.
	pool := cluster.NewPool([]*device.Platform{plat.Dev}, nil, 0)
	ce := &sim.ClusterExec{K: execs[0], Tenant: "probe"}
	m["cluster.submit_complete_us"] = mean(ps.loopReps/10+1, func() {
		dev, _ := pool.Submit(ce)
		pool.Complete(dev, ce)
	}) / 1e3

	// telemetry: the cost of the instruments themselves.
	tr := telemetry.New(ps.loopReps)
	now := time.Now()
	m["telemetry.span_ns"] = mean(ps.loopReps, func() { tr.Complete(0, "p", "t", "c", "n", now, now) })
	h := telemetry.NewRegistry().Histogram("probe")
	m["telemetry.observe_ns"] = mean(ps.loopReps, func() { h.Observe(12345) })
	return nil
}

// serviceProbe runs the foreground op alone through the daemon, then a
// rotation of sessions, and reads what the daemon's registry and the
// Go runtime counted meanwhile.
func serviceProbe(in *inputs, a *instance, ps probeSize, rec *recorder, m map[string]float64) error {
	reqBefore := histTotals(a.reg)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	ops := 0
	if _, err := ps.p50(func() error { ops++; _, err := a.fg.op(rec); return err }); err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	reqAfter := histTotals(a.reg)
	m["service.request_us"] = ratio(reqAfter["service_request_ns_sum"]-reqBefore["service_request_ns_sum"],
		reqAfter["service_request_ns_count"]-reqBefore["service_request_ns_count"]) / 1e3
	m["bench.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(ops)

	shm0 := a.reg.CounterTotal("service_shm_bytes_total")
	steps := make(map[string][]time.Duration)
	sess := &sessions{sock: a.sock, prefix: "probe-", specs: in.parboil, order: in.plan.sessionOrder, steps: steps}
	p := sess.party("probe")
	for i := 0; i < ps.sessions; i++ {
		if _, err := p.op(rec); err != nil {
			return err
		}
	}
	m["service.dial_us"] = medianDur(steps["service.dial"])
	m["service.close_us"] = medianDur(steps["service.close"])
	m["service.create_buffer_us"] = medianDur(steps["service.create_buffer"])
	m["service.create_program_us"] = medianDur(steps["service.create_program"])
	m["service.shm_bytes_per_session"] = float64(a.reg.CounterTotal("service_shm_bytes_total")-shm0) / float64(ps.sessions)
	return nil
}

// compileProbe calls each compile stage directly on the 25 Parboil
// sources: median over the repeats per source, summed over sources.
func compileProbe(in *inputs, app *accelos.App, ps probeSize, m map[string]float64) error {
	for _, s := range in.parboil {
		times := make(map[string][]time.Duration)
		timed := func(stage string, d time.Duration) { times[stage] = append(times[stage], d) }
		for rep := 0; rep < ps.compileReps; rep++ {
			j, err := compileJIT(s, timed)
			if err != nil {
				return err
			}
			t0 := time.Now()
			interp.CompileModuleOpts(j.opt, interp.CompileOpts{WarpWidth: interp.DefaultWarpWidth})
			t1 := time.Now()
			interp.CompileModuleOpts(j.trans, interp.Tier0CompileOpts)
			t2 := time.Now()
			if _, err := app.CreateProgram(s.source); err != nil {
				return err
			}
			timed("interp.compile_o1_us", t1.Sub(t0))
			timed("interp.compile_tier0_us", t2.Sub(t1))
			timed("accelos.create_program_us", time.Since(t2))
		}
		for stage, d := range times {
			m[stage] += medianDur(d)
		}
	}
	return nil
}

// wireProbe measures the protocol below the service: a frame echoed
// over a unix socket, message encode+decode, and a 4 KiB shm segment
// created, opened and closed where the daemon creates its segments.
func wireProbe(a *instance, dir string, ps probeSize, m map[string]float64) error {
	msg := wire.EnqueueKernel{
		Kernel: 1, Dims: 1, Global: [3]int64{bumpItems, 1, 1}, Local: [3]int64{bumpLocal, 1, 1},
		Args:  []wire.KernelArg{{Kind: wire.ArgBuffer, Buffer: 1}, {Kind: wire.ArgI32, I64: bumpItems}},
		Waits: []uint64{1},
	}
	body := msg.Encode()
	var dec wire.EnqueueKernel
	var derr error
	m["wire.encode_ns"] = mean(ps.loopReps, func() { derr = dec.Decode(msg.Encode()) })
	if derr != nil {
		return derr
	}

	ln, err := net.Listen("unix", filepath.Join(dir, "echo.sock"))
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan error, 1) // one send: the echo goroutine's exit
	go func() {
		c, err := ln.Accept()
		if err != nil {
			echoed <- err
			return
		}
		defer c.Close()
		for {
			f, err := wire.ReadFrame(c)
			if err != nil {
				echoed <- nil // the dialling side closed
				return
			}
			if err := wire.WriteFrame(c, f.Type, f.Req, f.Body); err != nil {
				echoed <- err
				return
			}
		}
	}()
	c, err := net.Dial("unix", filepath.Join(dir, "echo.sock"))
	if err != nil {
		return err
	}
	rt, err := ps.p50(func() error {
		if err := wire.WriteFrame(c, wire.MsgEnqueueKernel, 1, body); err != nil {
			return err
		}
		_, err := wire.ReadFrame(c)
		return err
	})
	c.Close()
	if eerr := <-echoed; err == nil {
		err = eerr
	}
	if err != nil {
		return err
	}
	m["wire.frame_roundtrip_us"] = rt

	m["wire.shm_create_us"], err = ps.p50(func() error {
		owner, err := wire.CreateShm(a.shmDir, 4096)
		if err != nil {
			return err
		}
		peer, err := wire.OpenShm(owner.Path)
		if err != nil {
			owner.Close()
			return err
		}
		peer.Close()
		return owner.Close()
	})
	return err
}
