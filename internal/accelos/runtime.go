package accelos

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/opencl"
	"repro/internal/rtlib"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Runtime is the accelOS background system process (level 1 of Fig. 5):
// the JIT compiler front door, the Kernel Scheduler and the memory
// manager, sitting between ProxyCL applications and the standard OpenCL
// system interface. ProxyCL calls route themselves (the Application
// Monitor's three scenarios of Fig. 6): CreateProgram enters the JIT,
// EnqueueKernelAsync the Kernel Scheduler, and everything else passes
// through, each on the calling application's goroutine.
type Runtime struct {
	Ctx *opencl.Context

	// plats are the platforms behind the device pool, index-aligned with
	// its members: kernel executions are placed per device by the pool's
	// policy and shares are planned against the chosen device's resident
	// set only. A single device is a pool of one.
	plats []*opencl.Platform
	pool  *cluster.Pool

	mem *MemoryManager

	mu          sync.Mutex
	nextApp     int
	sliceRounds int64

	openApps atomic.Int32 // Apps connected, not closed: one lets launches linger (drive)

	// launchMu guards the launch registry — every execution from
	// interception to its terminal event, keyed by its pool request —
	// the handle, resume point and started flag on each record, and the
	// plan ring. The registry is also the pending window: a record that
	// has not started is waiting on its wait list or on admission.
	launchMu sync.Mutex
	execs    map[*sim.ClusterExec]*launchRec
	nextExec int
	planLog  []PlanSample // ring of the last planLogSize samples
	planNext int          // ring slot the next sample overwrites

	// replanMu serializes plan computation + push so a stale plan can
	// never overwrite a newer one on the launch handles.
	replanMu sync.Mutex

	// buildMu guards the build cache: every source the runtime compiled,
	// keyed by its hash, shared by every Program created from it.
	// buildSlots is the counting semaphore a compile holds while it runs.
	buildMu    sync.Mutex
	builds     map[buildKey]*build
	buildSlots chan struct{}

	statsMu sync.Mutex
	stats   Stats

	// Telemetry sinks, installed once by SetTelemetry before any work is
	// scheduled and read without locks afterwards (every accessor is
	// nil-safe, so disabled telemetry costs a nil check per site).
	tracer *telemetry.Tracer
	reg    *telemetry.Registry
	score  *metrics.LiveScorecard

	// Fault tolerance (faulttol.go): the installed policy and the
	// per-(tenant, kernel) watchdog-kill counts driving quarantine.
	faultMu   sync.Mutex
	fpol      *FaultPolicy
	quarKills map[string]int
}

// planLogSize bounds PlanHistory: a daemon re-plans on every arrival and
// completion, so an unbounded log would grow for as long as it serves.
const planLogSize = 1024

// launchRec tracks one kernel execution from interception to
// completion: deferred while its wait list is incomplete, parked (h nil)
// while awaiting pool admission or between relaunches, then bound to a
// LaunchHandle and driven slice by slice. Its event is the application's
// handle to the execution.
type launchRec struct {
	id      int
	app     string
	kern    string
	ce      *sim.ClusterExec // the pool request; its registry key
	devIdx  int              // pool member it runs on; -1 until first admitted
	mod     *ir.Module
	cl      *opencl.Kernel
	nd      opencl.NDRange
	rtWords []int64
	bufs    []*opencl.Buffer // argument buffers, pinned by the app until completion
	h       *opencl.LaunchHandle
	ev      *opencl.Event
	started bool // reached startLaunch (pending → running); under launchMu

	// root pre-allocates the execution's trace-span ID at schedule time so
	// slice spans can parent to it before the root span itself is emitted
	// (at completion, from the event's profiling stamps). busy accumulates
	// slice wall time — the scorecard's "alone" estimate; only the slice
	// goroutine writes it.
	root int64
	busy time.Duration

	// Fault tolerance (faulttol.go): relaunch budget consumed after
	// device failures, the virtual-group prefix the next (re)launch
	// resumes from, the wall-clock watchdog (armed at first launch,
	// spans relaunches) and its verdict.
	relaunches int
	resumeAt   int64
	watchdog   *time.Timer
	timedOut   atomic.Bool
}

// PlanSample is one allocation pushed to an in-flight execution by the
// dynamic re-planner — the observable trace of the §5 adaptation (tests
// assert a surviving kernel's PhysWGs grows after a peer completes).
// PhysWGs is the kernel's entitlement on the modelled platform; how many
// of them a slice starts on the executing lanes is the launch handle's
// decision (Stats.PhysGroupsStarted), not the plan's.
type PlanSample struct {
	App     string
	Kernel  string
	ExecID  int
	PhysWGs int64
	Chunk   int64
}

// Stats counts runtime activity for observability and tests.
type Stats struct {
	// ProgramsJITed counts compiles performed: a program created from a
	// source the build cache already holds is not one.
	ProgramsJITed   int
	KernelsLaunched int
	// Replans counts dynamic re-plan events (every kernel arrival and
	// completion re-runs the §3 algorithm over the resident set).
	Replans int
	// QueuedAdmissions counts executions that waited in a device run
	// queue before the completion event that admitted them (runtimes
	// with a residency bound only).
	QueuedAdmissions int
	// WaitDeferred counts kernel executions that arrived with an
	// incomplete wait list: the scheduler saw them as its pending window
	// before their dependencies released them.
	WaitDeferred int
	// DeviceLaunches counts launches per pool member.
	DeviceLaunches []int
	// PhysGroupsPlanned and PhysGroupsStarted sum, over every slice run,
	// the physical work-groups the §3 plan entitled the kernel to on the
	// modelled platform and the ones the launch handle started on the
	// lanes that execute them (opencl.LaunchHandle.Step).
	PhysGroupsPlanned int64
	PhysGroupsStarted int64
}

// NewRuntime starts the accelOS daemon on one platform: a pool of one,
// unbounded, so every request is resident the moment it is admitted.
func NewRuntime(plat *opencl.Platform) *Runtime {
	return NewClusterRuntime([]*opencl.Platform{plat}, nil, 0)
}

// NewClusterRuntime starts the accelOS daemon over a pool of platforms.
// Kernel execution requests are placed on a pool member by the cluster
// placement policy (nil means least-loaded); the §3 share plan then
// divides only that device among its resident kernels, with each
// application acting as one tenant. Each pool member runs at most
// maxResident kernels concurrently (0 = unbounded): excess submissions
// wait in the device's run queue, and the completion event that frees a
// slot admits and launches them — the pool's membership events drive
// the whole live scheduling loop. Memory management and JIT compilation
// stay on the primary platform (plats[0]); this in-process reproduction
// shares one functional store, as buffers are plain host memory.
func NewClusterRuntime(plats []*opencl.Platform, pol cluster.Policy, maxResident int) *Runtime {
	if len(plats) == 0 {
		panic("accelos: runtime needs at least one platform")
	}
	devs := make([]*device.Platform, len(plats))
	for i, p := range plats {
		devs[i] = p.Dev
	}
	rt := &Runtime{
		Ctx:   plats[0].CreateContext(),
		plats: plats,
		pool:  cluster.NewPool(devs, pol, maxResident),
		execs: make(map[*sim.ClusterExec]*launchRec),

		builds: make(map[buildKey]*build),
		// Half the processors at most compile: a tenant opening many
		// connections with distinct sources cannot take the CPUs the VM
		// workers run on.
		buildSlots: make(chan struct{}, max(1, runtime.GOMAXPROCS(0)/2)),
	}
	rt.pool.SetObserver(rt.onPoolEvent)
	rt.stats.DeviceLaunches = make([]int, len(plats))
	rt.mem = newMemoryManager(rt.Ctx)
	return rt
}

// Pool exposes the runtime's device pool: residency and queue bounds,
// device fail/heal, load snapshots.
func (rt *Runtime) Pool() *cluster.Pool { return rt.pool }

// SetTelemetry installs the runtime's observability sinks: tr receives
// kernel-lifecycle/slice/replan trace spans, reg the per-tenant and
// per-device metrics, and score one shared/alone sample per completed
// kernel for the live §7.4 scorecard. Any may be nil. The sinks also
// cover the runtime's OpenCL context, so application transfer queues
// report DMA spans and byte counts. Call once, before connecting
// applications — the fields are read without locks from then on.
func (rt *Runtime) SetTelemetry(tr *telemetry.Tracer, reg *telemetry.Registry, score *metrics.LiveScorecard) {
	rt.tracer = tr
	rt.reg = reg
	rt.score = score
	rt.Ctx.SetTracer(tr)
	rt.Ctx.SetMetrics(reg)
	// Warp execution stats flow from the VM through the machine pools
	// into per-kernel metrics: occupancy (percent of warp lanes filled),
	// masked divergences and fallbacks onto the scalar path.
	var sink interp.WarpStatsSink
	if reg != nil {
		sink = warpTelemetry{reg}
	}
	for _, plat := range rt.plats {
		plat.Machines().SetWarpStats(sink)
	}
	// Shared-program-cache hits and misses make cold compiles observable.
	if reg != nil {
		interp.SetCacheMetrics(cacheTelemetry{reg})
	} else {
		interp.SetCacheMetrics(nil)
	}
}

// cacheTelemetry adapts interp shared-program-cache events onto the
// telemetry registry.
type cacheTelemetry struct{ reg *telemetry.Registry }

func (c cacheTelemetry) ProgramCacheHit()  { c.reg.Counter("program_cache_hits_total").Inc() }
func (c cacheTelemetry) ProgramCacheMiss() { c.reg.Counter("program_cache_misses_total").Inc() }

// warpTelemetry adapts interp warp-launch stats onto the telemetry
// registry, labeled by kernel: a warp_occupancy histogram (percent, one
// observation per launch), masked_divergences_total (lane-mask splits
// at divergent branches — the warp stayed in vector dispatch) and
// divergence_fallbacks_total (spills onto the scalar per-item path,
// which only a call, a trap or a barrier in a divergent region cause).
type warpTelemetry struct{ reg *telemetry.Registry }

func (w warpTelemetry) ObserveWarpLaunch(st interp.WarpLaunchStats) {
	if st.Warps > 0 && st.Width > 0 {
		pct := 100 * st.Lanes / (st.Warps * int64(st.Width))
		w.reg.Histogram("warp_occupancy", telemetry.L("kernel", st.Kernel)).Observe(pct)
	}
	w.reg.Counter("masked_divergences_total", telemetry.L("kernel", st.Kernel)).Add(st.Diverges)
	w.reg.Counter("divergence_fallbacks_total", telemetry.L("kernel", st.Kernel)).Add(st.Spills)
}

// laneTelemetry is a launch's stats sink: warpTelemetry, plus its
// lanes' stats (interp.LaneStatsSink) by tenant.
type laneTelemetry struct {
	warpTelemetry
	tenant telemetry.Label
}

func (l laneTelemetry) ObserveLinger(ns int64) {
	l.reg.Counter("lane_linger_ns_total", l.tenant).Add(ns)
}

func (l laneTelemetry) ObserveLaneStart(ns int64, handoff bool) {
	l.reg.Histogram("lane_start_ns", l.tenant).Observe(ns)
	if handoff {
		l.reg.Counter("lane_linger_handoffs_total", l.tenant).Inc()
	}
}

// Shutdown stops the VM worker goroutines of every platform the
// runtime launched on: what a runtime started is gone when Shutdown
// returns.
func (rt *Runtime) Shutdown() {
	for _, plat := range rt.plats {
		plat.Machines().Close() // idempotent: a pool may name one platform twice
	}
}

// Stats returns a snapshot of runtime counters.
func (rt *Runtime) Stats() Stats {
	rt.statsMu.Lock()
	defer rt.statsMu.Unlock()
	s := rt.stats
	s.DeviceLaunches = append([]int(nil), rt.stats.DeviceLaunches...)
	return s
}

// Memory exposes the memory manager (for tests and monitoring).
func (rt *Runtime) Memory() *MemoryManager { return rt.mem }

// ErrBuildFailed wraps every failure to turn a program's source into its
// transformed module: a front-end diagnostic, a transformation the JIT
// refused, or a compiler panic contained at the build boundary. One
// tenant's malformed source fails that tenant's CreateProgram; it never
// reaches the daemon other tenants share.
var ErrBuildFailed = errors.New("accelos: program build failed")

// maxBuilds bounds the build cache. A victim is arbitrary: an evicted
// source compiles again when it is next created, and the Programs
// already built from it keep their modules.
const maxBuilds = 64

type buildKey [sha256.Size]byte

// build is one source compiled, transformed and lowered: what every
// Program created from that source points at. The goroutine that
// claimed the source writes the fields and then closes done; they are
// immutable from there on.
type build struct {
	done chan struct{}
	err  error

	orig  *ir.Module
	trans *ir.Module
	infos map[string]*accelpass.KernelInfo
}

// buildProgram returns the finished build of src, compiling it on the
// calling goroutine when the cache does not hold it. A program carries
// no options, so the source hash is the whole key. Concurrent creators
// of one source wait for the first one's compile and share its outcome,
// error included; a failed build leaves the cache before its waiters
// wake, so the next creator compiles afresh.
func (rt *Runtime) buildProgram(tenant, src string) *build {
	key := buildKey(sha256.Sum256([]byte(src)))
	rt.buildMu.Lock()
	b := rt.builds[key]
	if b == nil {
		b = &build{done: make(chan struct{})}
		if len(rt.builds) >= maxBuilds {
			for k := range rt.builds {
				delete(rt.builds, k)
				break
			}
		}
		rt.builds[key] = b
		rt.buildMu.Unlock()
		rt.reg.Counter("jit_cache_misses_total", telemetry.L("tenant", tenant)).Inc()
		rt.runBuild(b, key, tenant, func() error {
			// The module is named after its source, not after the
			// application that happened to create it first.
			return b.compile(src, fmt.Sprintf("prog_%x", key[:8]))
		})
		return b
	}
	rt.buildMu.Unlock()
	rt.reg.Counter("jit_cache_hits_total", telemetry.L("tenant", tenant)).Inc()
	<-b.done
	return b
}

// runBuild runs b's compile under a compile slot and keeps the cache's
// promises whatever the compiler does: an error or a panic both end as
// b.err wrapping ErrBuildFailed, a failed build leaves the cache, the
// slot is returned, and done is closed last, so no waiter is stranded
// and none wakes to a half-recorded outcome.
func (rt *Runtime) runBuild(b *build, key buildKey, tenant string, compile func() error) {
	defer close(b.done)
	defer func() {
		if r := recover(); r != nil {
			b.err = fmt.Errorf("%w: compiler panic: %v", ErrBuildFailed, r)
			rt.reg.Counter("jit_panics_total", telemetry.L("tenant", tenant)).Inc()
		}
		if b.err != nil {
			rt.buildMu.Lock()
			if rt.builds[key] == b {
				delete(rt.builds, key)
			}
			rt.buildMu.Unlock()
		}
	}()
	rt.buildSlots <- struct{}{}
	defer func() { <-rt.buildSlots }()

	start := time.Now()
	if b.err = compile(); b.err != nil {
		return
	}
	rt.reg.Histogram("jit_compile_ns").Observe(int64(time.Since(start)))
	rt.statsMu.Lock()
	rt.stats.ProgramsJITed++
	rt.statsMu.Unlock()
}

// compile is the JIT proper: compile the source, clone, transform, and
// keep both modules; then lower the transformed one for the VM exactly
// as a native program is lowered — interp.CompileModule's O1 pipeline,
// fusion and warp tables over a private clone, falling back to the
// memory-form module should the pipeline fail — and leave it on the
// transformed module, so the first launch finds it compiled.
func (b *build) compile(src, name string) error {
	orig, err := clc.Compile(src, name)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBuildFailed, err)
	}
	res, err := accelpass.Transform(ir.CloneModule(orig))
	if err != nil {
		return fmt.Errorf("%w: JIT transformation: %w", ErrBuildFailed, err)
	}
	b.orig = orig
	b.trans = res.Module
	b.infos = res.Kernels
	interp.SharedProgram(b.trans)
	return nil
}

// scheduleKernel is scenario (b): the Kernel Scheduler builds the
// Virtual NDRange and hands the execution to the sliced engine. The
// kernel runs as a sequence of work-group-range slices on a pooled
// interpreter machine with buffers bound zero-copy; on every arrival
// and completion the scheduler re-runs the §3 plan over the resident
// set and pushes the resized PhysWGs/Chunk to the in-flight handles at
// their next slice boundary — the paper's §5 dynamic adaptation, live.
//
// Submissions are asynchronous: ev reports the outcome, and every
// refusal fails it rather than the call. A submission with an
// incomplete wait list is registered as pending immediately — the
// scheduler sees the app's whole dependency window — and admitted to a
// device when the last dependency completes. k is the frozen kernel of
// prog's original module, nd was validated by the caller, and bufs are
// the argument buffers it pinned.
func (rt *Runtime) scheduleKernel(app *App, prog *Program, k *opencl.Kernel, nd opencl.NDRange, waits []*opencl.Event, ev *opencl.Event, bufs []*opencl.Buffer) {
	info := prog.infos[k.Name]
	if info == nil {
		ev.Fail(fmt.Errorf("accelos: kernel %q has no JIT metadata", k.Name))
		return
	}
	// Repeat watchdog offenders are refused before they consume a
	// scheduler slot: one tenant's runaway kernel must not keep
	// re-entering the fleet to burn its deadline over and over.
	if rt.isQuarantined(app.Name, k.Name) {
		rt.reg.Counter("admission_rejections_total", telemetry.L("tenant", app.Name)).Add(1)
		ev.Fail(fmt.Errorf("accelos: kernel %q (tenant %q): %w", k.Name, app.Name, ErrKernelQuarantined))
		return
	}
	// Describe this execution for the resource-sharing algorithm, and
	// register it: the scheduler sees it from here to its terminal event.
	rec := &launchRec{
		app:  app.Name,
		kern: k.Name,
		ce: &sim.ClusterExec{Tenant: app.Name, K: &sim.KernelExec{
			WGSize:             nd.WGSize(),
			NumWGs:             nd.TotalGroups(),
			LocalBytes:         info.OrigLocalBytes,
			RegsPerThread:      int64(info.Regs),
			Chunk:              int64(info.Chunk),
			TransRegsPerThread: int64(info.Regs) + 1,
			TransLocalBytes:    info.LocalBytes,
		}},
		devIdx:  -1,
		mod:     prog.trans,
		cl:      k,
		nd:      nd,
		rtWords: rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk),
		bufs:    bufs,
		ev:      ev,
		root:    rt.tracer.NewID(),
	}
	rt.launchMu.Lock()
	rec.id = rt.nextExec
	rt.nextExec++
	rec.ce.K.ID = rec.id
	rt.execs[rec.ce] = rec
	rt.launchMu.Unlock()

	deferred := false
	for _, w := range waits {
		if w != nil && !w.Status().Terminal() {
			deferred = true
			break
		}
	}
	if deferred {
		rt.statsMu.Lock()
		rt.stats.WaitDeferred++
		rt.statsMu.Unlock()
	}
	// Admission runs when the wait list drains (immediately for an empty
	// or already-complete one). A failed dependency abandons the
	// execution and propagates the cause to its event.
	opencl.WhenAll(waits, func(depErr error) {
		if depErr != nil {
			rt.settle(rec, fmt.Errorf("accelos: kernel %q: wait-list dependency failed: %w", rec.kern, depErr), "wait-failed")
			return
		}
		// The wait list just drained: the command leaves the pending
		// window for the scheduler proper (profiling's queued→submitted
		// boundary).
		rec.ev.MarkSubmitted()
		rt.submitToPool(rec)
	})
}

// settle retires an execution — completed, failed, or one that will not
// run (again): failed wait list, released buffer, exhausted relaunch
// budget — from the registry, releases its device slot, re-plans the
// device's survivors, and only then reports the outcome on its event:
// a peer's regrown share is pushed before the application that made
// room hears back. The re-plan is called here, not from the pool's
// EvCompleted event, because another goroutine may be the one draining
// pool events. status labels the kernel in the metrics registry.
func (rt *Runtime) settle(rec *launchRec, err error, status string) {
	rt.launchMu.Lock()
	delete(rt.execs, rec.ce)
	rt.launchMu.Unlock()
	rec.stopWatchdog()
	if rec.devIdx >= 0 {
		// A no-op for an execution its device's failure already evicted.
		rt.pool.Complete(rec.devIdx, rec.ce)
		rt.replan(rec.devIdx)
	}
	if err != nil {
		rec.ev.Fail(err)
	} else {
		rec.ev.Complete()
	}
	rt.recordKernel(rec, status)
}

// submitToPool hands a registered, handle-less record to pool placement:
// the first admission, a queued orphan of a failed device, or a
// relaunch. The record is in the registry BEFORE Submit, so every
// admission — immediate, promoted from the run queue by a completion,
// migrated by a rebalance, re-admitted by a heal — reaches the launch
// path the same way, as a pool membership event handled by onPoolEvent,
// and a concurrent completion cannot admit a request the scheduler has
// not registered yet.
func (rt *Runtime) submitToPool(rec *launchRec) {
	switch _, kind := rt.pool.Submit(rec.ce); kind {
	case cluster.EvQueued:
		rt.statsMu.Lock()
		rt.stats.QueuedAdmissions++
		rt.statsMu.Unlock()
		rt.reg.Counter("admission_queued_total", telemetry.L("tenant", rec.app)).Add(1)
	case cluster.EvParked:
		// No healthy device: the pool holds the request until a
		// HealDevice re-admits it.
		rt.reg.Counter("launches_parked_total", telemetry.L("tenant", rec.app)).Add(1)
	}
}

// onPoolEvent is the runtime's scheduling loop: installed as the pool
// observer, it turns membership events into launches.
func (rt *Runtime) onPoolEvent(ev cluster.PoolEvent) {
	switch ev.Kind {
	case cluster.EvAdmitted, cluster.EvMigrated:
		rt.launchMu.Lock()
		rec := rt.execs[ev.Exec]
		rt.launchMu.Unlock()
		if rec != nil {
			rec.devIdx = ev.Dev
			rt.startLaunch(rec)
		}
	case cluster.EvCompleted:
		// settle already re-planned the survivors (§5 adaptation on
		// completion); let an idle device steal queued work from its
		// peers (the resulting EvMigrated events re-enter this loop).
		// Unbounded pools never queue, so they skip the donor scan.
		if rt.pool.Bounded() {
			rt.pool.Rebalance()
		}
	case cluster.EvQueued:
		// Nothing to do: the request waits for the admission event.
	case cluster.EvDeviceFailed:
		rt.reg.Counter("device_failures_total", telemetry.L("dev", strconv.Itoa(ev.Dev))).Inc()
	case cluster.EvEvicted:
		rt.onEviction(ev)
	case cluster.EvDeviceHealed, cluster.EvParked:
		// A heal re-admits the parked set as EvAdmitted/EvQueued events;
		// parking is counted by submitToPool on the synchronous return.
	}
}

// startLaunch binds the execution to a pooled interpreter machine on
// its device, re-plans the device (the arrival shrinks resident peers'
// shares at their next slice boundary), and drives the slices in the
// execution's own goroutine.
func (rt *Runtime) startLaunch(rec *launchRec) {
	// A buffer released while the execution waited on its dependencies
	// or in a device run queue fails the execution before it binds.
	err := rec.releasedArg()
	var h *opencl.LaunchHandle
	if err == nil {
		h, err = opencl.NewLaunchHandle(rt.plats[rec.devIdx], rec.mod, rec.cl, rec.nd, rec.rtWords, 1, rec.rtWords[rtlib.RTChunk])
	}
	if err != nil {
		rt.settle(rec, err, "failed")
		return
	}
	rt.mu.Lock()
	if rt.sliceRounds > 0 {
		h.SetSliceRounds(rt.sliceRounds)
	}
	rt.mu.Unlock()
	// Publish the handle under the launch lock: the eviction handler,
	// the re-planner and the watchdog all resolve "the handle currently
	// driving this execution" through it, and relaunches swap it. A
	// relaunch also resumes the consumed prefix — the virtual groups
	// completed before the old device failed stay completed.
	rt.launchMu.Lock()
	rec.h = h
	rec.started = true
	resumeAt := rec.resumeAt
	rt.launchMu.Unlock()
	if resumeAt > 0 {
		h.ResumeAt(resumeAt)
	}
	rt.armWatchdog(rec)
	if rt.reg != nil {
		h.SetStatsSink(laneTelemetry{warpTelemetry{rt.reg}, telemetry.L("tenant", rec.app)})
	}

	rt.statsMu.Lock()
	rt.stats.KernelsLaunched++
	rt.stats.DeviceLaunches[rec.devIdx]++
	rt.statsMu.Unlock()

	rec.ev.MarkRunning()
	rt.replan(rec.devIdx)
	go rt.drive(rec, h)
}

// drive executes the launch slice by slice on its own goroutine, then
// settles the outcome: relaunch after a device failure (budget
// permitting), a typed failure for exhausted relaunches and watchdog
// kills, or normal completion.
func (rt *Runtime) drive(rec *launchRec, h *opencl.LaunchHandle) {
	var lerr error
	traced := rt.tracer != nil || rt.reg != nil
	slice := 0
	for {
		// A buffer released mid-execution cancels the launch at the
		// next slice boundary instead of racing on the bytes; a
		// watchdog verdict that landed while the record was off a
		// device (parked, or between relaunches) lands here too.
		if rerr := rec.releasedArg(); rerr != nil {
			h.Cancel(rerr)
		}
		if rec.timedOut.Load() {
			h.Cancel(fmt.Errorf("accelos: kernel %q: %w", rec.kern, ErrKernelTimeout))
		}
		planned, _ := h.Plan()
		start := time.Now()
		// Lanes linger for a lone tenant only: with two, lingering would pick their split.
		done, serr := h.StepLinger(rt.openApps.Load() == 1)
		// Slice wall time approximates the kernel's isolated machine
		// share: it accumulates into "alone" for the live scorecard.
		d := time.Since(start)
		rec.busy += d
		started, _, _ := h.LastSlice()
		rt.statsMu.Lock()
		rt.stats.PhysGroupsPlanned += planned
		rt.stats.PhysGroupsStarted += started
		rt.statsMu.Unlock()
		if traced {
			rt.recordSlice(rec, h.MachineName(), slice, start, d, planned, started)
		}
		slice++
		if done {
			lerr = serr
			break
		}
	}
	if lerr != nil && errors.Is(lerr, errDeviceEvicted) && !rec.timedOut.Load() {
		// The device failed under the launch. The cancellation landed at
		// a slice boundary, so the consumed prefix is intact in the
		// host-resident buffers; relaunch the remaining range elsewhere.
		if rt.tryRelaunch(rec, h) {
			return // re-parked; the next admission starts a new drive
		}
		lerr = fmt.Errorf("accelos: kernel %q: %w (%d relaunches consumed): %v",
			rec.kern, ErrDeviceLost, rec.relaunches, lerr)
	}
	if lerr != nil && rec.timedOut.Load() {
		// The watchdog killed it — mid-slice (machine interrupt trap) or
		// at a boundary (cancel). Either way the typed cause wins.
		if !errors.Is(lerr, ErrKernelTimeout) {
			lerr = fmt.Errorf("accelos: kernel %q on dev %s: %w: %v",
				rec.kern, rec.devLabel(), ErrKernelTimeout, lerr)
		}
		rt.noteWatchdogKill(rec)
	}
	status := "ok"
	if lerr != nil {
		status = "failed"
	}
	rt.settle(rec, lerr, status)
}

// devLabel renders the execution's device index for metric labels (an
// execution abandoned before any admission is counted under device 0).
func (rec *launchRec) devLabel() string {
	if rec.devIdx >= 0 {
		return strconv.Itoa(rec.devIdx)
	}
	return "0"
}

// recordSlice emits one slice-execution span on the machine's trace
// thread, parented to the kernel's root span, plus the slice-duration
// and started-groups histogram samples; a slice that started fewer
// physical groups than its plan entitled it to counts as clamped.
func (rt *Runtime) recordSlice(rec *launchRec, mach string, slice int, start time.Time, d time.Duration, planned, started int64) {
	if mach == "" {
		mach = "mach"
	}
	rt.tracer.Complete(rec.root, "devices", mach, "slice", rec.kern,
		start, start.Add(d),
		telemetry.Arg{Key: "tenant", Val: rec.app},
		telemetry.Arg{Key: "slice", Val: strconv.Itoa(slice)},
		telemetry.Arg{Key: "dev", Val: rec.devLabel()})
	rt.reg.Histogram("slice_ns",
		telemetry.L("tenant", rec.app), telemetry.L("dev", rec.devLabel())).Observe(int64(d))
	rt.reg.Histogram("launch_phys_groups", telemetry.L("tenant", rec.app)).Observe(started)
	if started < planned {
		rt.reg.Counter("launch_groups_clamped_total", telemetry.L("tenant", rec.app)).Inc()
	}
}

// recordKernel emits the execution's lifecycle telemetry once its event
// is terminal: the root kernel span (enqueue→retire) with wait-list /
// schedule / execute children derived from the event's profiling
// stamps, the per-tenant latency histograms and kernel counter, and —
// for successful kernels — the shared/alone sample feeding the live
// §7.4 scorecard.
func (rt *Runtime) recordKernel(rec *launchRec, status string) {
	tr, reg, sc := rt.tracer, rt.reg, rt.score
	if tr == nil && reg == nil && sc == nil {
		return
	}
	p, err := rec.ev.ProfilingInfo()
	if err != nil {
		return // event not terminal: nothing trustworthy to record
	}
	dev := rec.devLabel()
	if tr != nil {
		thread := "exec-" + strconv.Itoa(rec.id)
		tr.CompleteAs(rec.root, 0, rec.app, thread, "kernel", rec.kern, p.Queued, p.Complete,
			telemetry.Arg{Key: "dev", Val: dev},
			telemetry.Arg{Key: "status", Val: status})
		// Children cover the phases the execution actually reached; an
		// abandoned kernel (failed wait list, released buffer) has no
		// running stamp and gets only the phases before the cut.
		if !p.Submitted.IsZero() {
			tr.Complete(rec.root, rec.app, thread, "kernel", "wait-list", p.Queued, p.Submitted)
		}
		if !p.Running.IsZero() {
			tr.Complete(rec.root, rec.app, thread, "kernel", "schedule", p.Submitted, p.Running)
			tr.Complete(rec.root, rec.app, thread, "kernel", "execute", p.Running, p.Complete)
		}
	}
	if reg != nil {
		reg.Counter("kernels_total",
			telemetry.L("tenant", rec.app), telemetry.L("dev", dev), telemetry.L("status", status)).Inc()
		if !p.Running.IsZero() {
			reg.Histogram("enqueue_latency_ns", telemetry.L("tenant", rec.app)).
				Observe(int64(p.Running.Sub(p.Queued)))
			reg.Histogram("queue_delay_ns", telemetry.L("tenant", rec.app)).
				Observe(int64(p.LaunchDelay()))
		}
	}
	if sc != nil && status == "ok" {
		sc.AddKernel(rec.app, p.Total(), rec.busy)
	}
}

// releasedArg reports the first of the execution's argument buffers the
// application has released, if any.
func (rec *launchRec) releasedArg() error {
	for _, b := range rec.bufs {
		if b.Released() {
			return fmt.Errorf("accelos: kernel %q: %w", rec.kern, opencl.ErrBufferReleased)
		}
	}
	return nil
}

// replan re-runs the §3 resource-sharing algorithm over one device's
// resident set — each application one tenant, so a tenant's share does
// not grow with the number of kernels it keeps resident — and pushes the
// result to every in-flight launch handle, which applies it at its next
// slice boundary.
func (rt *Runtime) replan(devIdx int) {
	rt.replanMu.Lock()
	defer rt.replanMu.Unlock()
	resident := rt.pool.ResidentOn(devIdx)
	if len(resident) == 0 {
		return
	}
	kes := make([]*sim.KernelExec, len(resident))
	tenants := make([]string, len(resident))
	for i, r := range resident {
		kes[i] = r.K
		tenants[i] = r.Tenant
	}
	launches := PlanTenantShares(rt.plats[devIdx].Dev, kes, tenants, nil, false)
	rt.launchMu.Lock()
	for i, l := range launches {
		// A resident request without a handle was admitted but has not
		// reached startLaunch yet; its own arrival re-plan covers it.
		rec := rt.execs[resident[i]]
		if rec == nil || rec.h == nil {
			continue
		}
		rec.h.UpdatePlan(l.PhysWGs, l.Chunk)
		sample := PlanSample{
			App: rec.app, Kernel: rec.kern, ExecID: rec.id,
			PhysWGs: l.PhysWGs, Chunk: l.Chunk,
		}
		if len(rt.planLog) < planLogSize {
			rt.planLog = append(rt.planLog, sample)
		} else {
			rt.planLog[rt.planNext] = sample
		}
		rt.planNext = (rt.planNext + 1) % planLogSize
	}
	rt.launchMu.Unlock()
	rt.statsMu.Lock()
	rt.stats.Replans++
	rt.statsMu.Unlock()
	rt.tracer.Instant(0, "runtime", "scheduler", "replan", "replan", time.Now(),
		telemetry.Arg{Key: "dev", Val: strconv.Itoa(devIdx)},
		telemetry.Arg{Key: "launches", Val: strconv.Itoa(len(launches))})
	rt.reg.Counter("replans_total").Inc()
}

// PlanHistory returns the most recent allocations (up to planLogSize)
// the dynamic re-planner pushed to in-flight executions, in push order.
func (rt *Runtime) PlanHistory() []PlanSample {
	rt.launchMu.Lock()
	defer rt.launchMu.Unlock()
	// Until the ring wraps planNext == len(planLog): the first part is empty.
	return append(append([]PlanSample(nil), rt.planLog[rt.planNext:]...), rt.planLog[:rt.planNext]...)
}

// SetSliceRounds tunes the slice granularity of subsequently scheduled
// kernels: how many dequeue rounds per planned physical work-group one
// slice covers. Smaller values return control to the scheduler more
// often, so re-plans land faster; 0 keeps opencl.DefaultSliceRounds.
func (rt *Runtime) SetSliceRounds(n int64) {
	rt.mu.Lock()
	rt.sliceRounds = n
	rt.mu.Unlock()
}

// ActiveExecutions returns how many kernel executions are currently
// in flight.
func (rt *Runtime) ActiveExecutions() int {
	rt.launchMu.Lock()
	defer rt.launchMu.Unlock()
	return len(rt.execs)
}

// InstrCountOf reports the JIT instruction count of a built kernel (used
// by tooling).
func (p *Program) InstrCountOf(name string) (int, error) {
	info := p.infos[name]
	if info == nil {
		return 0, fmt.Errorf("accelos: no metadata for kernel %q", name)
	}
	return info.InstrCount, nil
}

// AdaptiveChunkOf reports the §6.4 chunk chosen for a kernel.
func (p *Program) AdaptiveChunkOf(name string) (int, error) {
	info := p.infos[name]
	if info == nil {
		return 0, fmt.Errorf("accelos: no metadata for kernel %q", name)
	}
	return info.Chunk, nil
}
