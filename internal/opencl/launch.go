package opencl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rtlib"
)

// launchInjector is the process-wide chaos injector consulted at Step's
// SliceDelay point. With none installed (production: only the chaos
// harness installs one) the hook is one atomic load and a nil check per
// slice, not per work-group.
var launchInjector atomic.Pointer[fault.Injector]

// SetFaultInjector installs (or, with nil, removes) the chaos injector
// for the launch path.
func SetFaultInjector(in *fault.Injector) {
	if in == nil {
		launchInjector.Store(nil)
		return
	}
	launchInjector.Store(in)
}

// MachinePool keeps interpreter machines alive across launches so the
// hot path stops paying per-launch machine construction. An idle machine
// holds no module, program or region (Release resets it), so any launch
// can take it; idle machines number at most the launches ever in flight
// on the platform at once.
type MachinePool struct {
	mu   sync.Mutex
	free []*interp.Machine
	// warp, when set, receives per-launch warp execution stats from
	// every machine the pool hands out (see interp.WarpStatsSink).
	// nextMach names machines "mach-N" in construction order for trace
	// output.
	warp     interp.WarpStatsSink
	nextMach int

	// workers is the pool's persistent worker set: a long-lived group of
	// goroutines that all VM launches on this pool's machines borrow
	// parallel group runners from, instead of spawning up to GOMAXPROCS
	// goroutines per launch. Started on first use, stopped by Close.
	workers *interp.WorkerPool
}

// NewMachinePool returns an empty pool.
func NewMachinePool() *MachinePool {
	return &MachinePool{}
}

// Close stops the pool's worker goroutines and returns once they have
// exited. Launches still running on the pool's machines finish on their
// own goroutines, and a later launch starts a fresh worker set, so
// closing is about not leaving goroutines behind, not about making the
// pool unusable. The runtime that launched on a platform closes its
// pool at shutdown.
func (p *MachinePool) Close() {
	p.mu.Lock()
	w := p.workers
	p.workers = nil
	p.mu.Unlock()
	if w != nil {
		w.Close()
	}
}

// SetWarpStats installs (or, with nil, removes) a warp-statistics sink
// on every machine the pool subsequently hands out, including reused
// ones. The sink must be concurrency-safe.
func (p *MachinePool) SetWarpStats(s interp.WarpStatsSink) {
	p.mu.Lock()
	p.warp = s
	p.mu.Unlock()
}

// Acquire returns a machine for the module: an idle one pointed at mod
// when there is one, else a new one. Machines are seeded with the
// pool's persistent worker set.
func (p *MachinePool) Acquire(mod *ir.Module) *interp.Machine {
	p.mu.Lock()
	defer p.mu.Unlock()
	var m *interp.Machine
	if n := len(p.free); n > 0 {
		m = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		m.Mod = mod
	} else {
		m = interp.NewMachine(mod)
		m.Name = fmt.Sprintf("mach-%d", p.nextMach)
		p.nextMach++
	}
	if p.workers == nil {
		p.workers = interp.NewWorkerPool(0)
	}
	m.Workers = p.workers
	m.WarpStats = p.warp
	return m
}

// Release resets the machine, drops its module and parks it for any
// later launch.
func (p *MachinePool) Release(m *interp.Machine) {
	m.Reset()
	m.Mod = nil
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}

// Idle reports how many machines are parked in the pool (tests and
// monitoring).
func (p *MachinePool) Idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// DefaultSliceRounds is how many dequeue rounds each planned physical
// work-group is budgeted per slice: the slice covers PhysWGs·Chunk·rounds
// virtual groups of the plan, however many physical groups Step starts
// to consume them. Small enough that the host regains control frequently
// (so a re-plan lands quickly), large enough to amortize slice
// turnaround.
const DefaultSliceRounds = 8

// DequeuesPerLane is how many scheduling operations each physical
// work-group should get for dequeue-granularity tails to stay small —
// "several dequeues per worker". The §3 planner caps a kernel's chunk so
// its grid yields that many per planned group, and Step treats a slice
// with fewer than that per started group as too small to balance.
const DequeuesPerLane = 8

// LaunchHandle is one in-flight transformed kernel execution, run as a
// sequence of virtual-group-range slices. Each slice rewrites the RT
// descriptor's dequeue cursor and horizon (rtlib.RTNext/RTTotal) and the
// chunk size, then executes the scheduling kernel; between slices the
// host (the accelOS Kernel Scheduler) may push a new plan with
// UpdatePlan — the paper's §5 dynamic adaptation, live.
//
// The plan is the kernel's entitlement: PhysWGs is its share of the
// modelled platform and, with Chunk and the slice rounds, sizes the
// slice. Step decides how much of that entitlement to start: the
// bytecode runs on interp.Lanes() lanes (read once, at construction), a
// physical group beyond that occupancy would start only once another had
// drained the queue, so Step starts at most that many and never one that
// would find the queue empty (see Step and LastSlice).
//
// Buffers are bound zero-copy: the interpreter reads and writes
// opencl.Buffer.Bytes in place, so large buffers cost nothing per launch
// and concurrent launches sharing a buffer cannot lose each other's
// updates to whole-buffer copy-back.
type LaunchHandle struct {
	pool *MachinePool
	mach *interp.Machine
	// machName is kept past finishLocked (which drops mach) so trace
	// consumers can still name the machine the execution ran on.
	machName string
	name     string
	args     []interp.Value
	nd       NDRange // virtual (original) geometry
	rt       []byte  // RT descriptor image, bound as a machine region

	// kchunk is the kernel's own §6.4 chunk (rtWords[RTChunk] at
	// construction), as opposed to the planner's balance-capped one.
	// lanes is interp.Lanes() as read at construction, on the goroutine
	// that schedules the launch. Step does not read it itself: the read
	// takes the Go scheduler's lock, and on the goroutine that was just
	// started to drive the launch — while the spawning and the woken
	// thread are both in the scheduler — that one acquisition cost a
	// one-group kernel's whole chain 12 µs of 82.
	kchunk int64
	lanes  int64

	mu       sync.Mutex
	phys     int64 // planned (entitlement), see UpdatePlan
	chunk    int64
	rounds   int64
	total    int64
	consumed int64
	done     bool
	cancel   error // pending abort, applied at the next slice boundary
	err      error

	// What the most recent Step started (LastSlice).
	lastPhys, lastChunk, lastBudget int64
}

// NewLaunchHandle binds the kernel's arguments and the RT descriptor
// into a pooled machine of the platform and returns a handle ready to
// Step. phys and chunk seed the plan; UpdatePlan changes both between
// slices.
func NewLaunchHandle(plat *Platform, mod *ir.Module, k *Kernel, nd NDRange, rtWords []int64, phys, chunk int64) (*LaunchHandle, error) {
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	pool := plat.Machines()
	mach := pool.Acquire(mod)
	// The handle's machine executes mod (usually the JIT-transformed
	// module, not k's build product); resolve the bytecode the module
	// keeps, so every slice — and every later launch of mod — runs the
	// same compiled form.
	mach.UseProgram(interp.SharedProgram(mod))
	args, err := bind(mach, k.Name, k.args, 1)
	if err != nil {
		pool.Release(mach)
		return nil, err
	}
	img := rtlib.EncodeRT(rtWords)
	r := mach.BindRegion(img, ir.Global)
	args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})

	h := &LaunchHandle{
		pool:     pool,
		mach:     mach,
		machName: mach.Name,
		name:     k.Name,
		args:     args,
		nd:       nd,
		rt:       img,
		rounds:   DefaultSliceRounds,
		total:    rtWords[rtlib.RTTotal],
		kchunk:   rtWords[rtlib.RTChunk],
		lanes:    int64(interp.Lanes()),
	}
	h.setPlan(phys, chunk)
	return h, nil
}

func (h *LaunchHandle) setPlan(phys, chunk int64) {
	if phys < 1 {
		phys = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	h.phys, h.chunk = phys, chunk
}

// UseProgram overrides the compiled bytecode the handle's machine
// executes (the parity suite pins O0/O1 compile variants of the same
// module with it). No-op once the execution finished.
func (h *LaunchHandle) UseProgram(p *interp.Prog) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		h.mach.UseProgram(p)
	}
}

// UpdatePlan installs a new physical work-group allocation and chunk
// size; it takes effect at the next slice boundary. Calls after the
// execution completed are no-ops.
func (h *LaunchHandle) UpdatePlan(phys, chunk int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.setPlan(phys, chunk)
}

// SetSliceRounds tunes how many dequeue rounds per worker one slice
// covers (DefaultSliceRounds if never called; values < 1 clamp to 1).
func (h *LaunchHandle) SetSliceRounds(n int64) {
	if n < 1 {
		n = 1
	}
	h.mu.Lock()
	h.rounds = n
	h.mu.Unlock()
}

// SetStatsSink replaces, for this execution, the stats sink the pool
// gave the handle's machine (interp.Machine.WarpStats): the accelOS
// runtime installs one that knows the launch's tenant. No-op once the
// execution finished.
func (h *LaunchHandle) SetStatsSink(s interp.WarpStatsSink) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.done {
		h.mach.WarpStats = s
	}
}

// MachineName names the pooled interpreter machine serving (or, after
// completion, having served) this execution — the trace "thread" slice
// spans land on. Empty for machines constructed outside a pool.
func (h *LaunchHandle) MachineName() string { return h.machName }

// Plan returns the currently installed physical allocation.
func (h *LaunchHandle) Plan() (phys, chunk int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.phys, h.chunk
}

// LastSlice reports what the most recent Step actually ran: the physical
// work-groups it started (at most the planned count and the handle's
// lanes), the chunk they dequeued by, and the slice's budget in virtual
// groups.
// All zero before the first slice.
func (h *LaunchHandle) LastSlice() (phys, chunk, budget int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastPhys, h.lastChunk, h.lastBudget
}

// Progress reports how many virtual groups have been executed out of the
// total.
func (h *LaunchHandle) Progress() (consumed, total int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.consumed, h.total
}

// Done reports whether the execution finished (successfully or not).
func (h *LaunchHandle) Done() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.done
}

// Err returns the execution fault, if any.
func (h *LaunchHandle) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Cancel requests the execution abort with the given error (e.g. a
// buffer released out from under the launch). The abort lands at the
// next slice boundary — never mid-slice, so the machine is released only
// when idle. Already finished executions ignore it.
func (h *LaunchHandle) Cancel(err error) {
	if err == nil {
		err = fmt.Errorf("opencl: launch cancelled")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done || h.cancel != nil {
		return
	}
	h.cancel = err
}

// Abort cancels like Cancel and additionally interrupts the machine
// mid-slice: a kernel stuck inside one slice never reaches the slice
// boundary where Cancel lands, so the machine's next instruction-budget
// flush traps instead. The runtime's runaway-kernel watchdog uses this;
// the machine is still released only on the executing goroutine, at the
// trap's slice return.
func (h *LaunchHandle) Abort(err error) {
	if err == nil {
		err = fmt.Errorf("opencl: launch aborted")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	if h.cancel == nil {
		h.cancel = err
	}
	if h.mach != nil {
		h.mach.Interrupt(err.Error())
	}
}

// ResumeAt seeds the consumed prefix: the first Step dequeues from
// virtual group consumed instead of 0. The fault-tolerant runtime uses
// this to relaunch an execution evicted from a failed device on a
// healthy one — buffers are host-resident, so the completed slices'
// writes survive the device and only the remaining range re-executes.
// Clamped to [0, total]; a no-op once the handle has stepped or
// finished.
func (h *LaunchHandle) ResumeAt(consumed int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done || h.consumed != 0 {
		return
	}
	if consumed < 0 {
		consumed = 0
	}
	if consumed > h.total {
		consumed = h.total
	}
	h.consumed = consumed
}

// Step executes one slice: it advances the RT descriptor's dequeue
// cursor to the consumed prefix, sets the slice horizon and chunk, and
// runs the scheduling kernel. The slice's budget comes from the plan;
// the physical work-groups started are the planned ones clamped to the
// lanes that execute them and to the dequeues the budget holds. The
// kernel's work-groups atomically dequeue chunks until the horizon is
// reached, then terminate, returning control to the host. Step reports
// whether the execution is complete.
func (h *LaunchHandle) Step() (done bool, err error) { return h.StepLinger(false) }

// StepLinger is Step, passing linger to the slice's VM launch
// (interp.Machine.LaunchLinger): the workers that ran its helper lanes
// wait awake for the next launch instead of parking.
func (h *LaunchHandle) StepLinger(linger bool) (done bool, err error) {
	h.mu.Lock()
	if h.done {
		defer h.mu.Unlock()
		return true, h.err
	}
	if h.cancel != nil {
		defer h.mu.Unlock()
		h.err = h.cancel
		h.finishLocked()
		return true, h.err
	}
	phys, chunk, consumed := h.phys, h.chunk, h.consumed
	budget := phys * chunk * h.rounds
	if budget < 1 {
		budget = 1
	}
	if remaining := h.total - consumed; budget > remaining {
		budget = remaining
	}
	eff := consumed + budget
	// A group beyond the executing device's occupancy starts only after
	// another drained the queue: it would pay the wrapper prologue and a
	// failing dequeue for nothing.
	phys = min(phys, h.lanes)
	// Too few virtual groups for several dequeues per lane: balance is
	// moot, so dequeue by the kernel's own §6.4 chunk rather than the
	// planner's balance-capped one. A cheap kernel (large chunk) then
	// runs in one group; an expensive one (chunk 1) still spreads.
	if budget < phys*DequeuesPerLane {
		chunk = max(1, min(h.kchunk, budget))
	}
	// Never start a group that will find the queue empty.
	phys = max(1, min(phys, (budget+chunk-1)/chunk))
	h.lastPhys, h.lastChunk, h.lastBudget = phys, chunk, budget
	h.mu.Unlock()

	if inj := launchInjector.Load(); inj.Should(fault.SliceDelay) {
		time.Sleep(inj.SliceDelayDuration())
	}

	rtlib.PutWord(h.rt, rtlib.RTNext, consumed)
	rtlib.PutWord(h.rt, rtlib.RTChunk, chunk)
	rtlib.PutWord(h.rt, rtlib.RTTotal, eff)
	physND := NDRange{
		Dims:   h.nd.Dims,
		Global: [3]int64{phys * h.nd.Local[0], h.nd.Local[1], h.nd.Local[2]},
		Local:  h.nd.Local,
	}
	lerr := h.mach.LaunchLinger(h.name, h.args, physND, linger)

	h.mu.Lock()
	defer h.mu.Unlock()
	if lerr != nil {
		h.err = lerr
		h.finishLocked()
		return true, lerr
	}
	h.consumed = eff
	if h.consumed >= h.total {
		h.finishLocked()
		return true, nil
	}
	return false, nil
}

// finishLocked retires the handle and returns its machine to the pool.
func (h *LaunchHandle) finishLocked() {
	if h.done {
		return
	}
	h.done = true
	h.pool.Release(h.mach)
	h.mach = nil
	h.args = nil
}

// Run drives the handle to completion slice by slice.
func (h *LaunchHandle) Run() error {
	for {
		done, err := h.Step()
		if done {
			return err
		}
	}
}
