package interp

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
)

// This file is the tiered-execution controller. Tier 0 compiles a
// module cheaply (no O1, no fusion, no warp tables) so the first launch
// pays almost nothing between source and dispatch; the controller then
// watches the profiler's per-kernel instruction estimates and, once a
// kernel crosses the hotness threshold, recompiles its module on a
// background worker at tier 1 — full O1 plus profile-guided
// superinstruction selection and hot-path block layout — and hot-swaps
// the result into the shared program cache. In-flight LaunchHandles
// re-resolve at their next slice boundary (see opencl.LaunchHandle.Step
// and ProgramVersion), so a promotion never interrupts a running slice.

// ProfileGuide carries measured per-block dynamic weights into a
// tier-1+ compile: layoutBlocks chains hot successors into fallthrough
// runs, and tryFuse emits the profile-gated superinstructions only in
// blocks with nonzero weight.
type ProfileGuide struct {
	blocks map[string]map[string]int64 // fn -> block -> scaled entry count
}

// GuideFromSnapshots builds a guide from profiler snapshots, scaling
// sampled block counts by each snapshot's sampling period so guides
// built at different sampling rates rank blocks identically.
func GuideFromSnapshots(snaps []KernelProfileSnapshot) *ProfileGuide {
	g := &ProfileGuide{blocks: make(map[string]map[string]int64)}
	for _, s := range snaps {
		scale := s.SampleEvery
		if scale <= 0 {
			scale = 1
		}
		for _, bc := range s.Blocks {
			fb := g.blocks[bc.Fn]
			if fb == nil {
				fb = make(map[string]int64)
				g.blocks[bc.Fn] = fb
			}
			fb[bc.Block] += bc.Hits * scale
		}
	}
	return g
}

// Weight returns the measured dynamic entry count of one block (0 for
// blocks the profile never saw — cold by definition).
func (g *ProfileGuide) Weight(fn, block string) int64 {
	if g == nil {
		return 0
	}
	return g.blocks[fn][block]
}

// TierOptions configures a TierController.
type TierOptions struct {
	// HotInstrs is the estimated dynamic instruction count at which a
	// kernel's module is promoted to tier 1 (0: defaultHotInstrs).
	HotInstrs int64
	// Workers is the number of background recompile workers (0: 1).
	Workers int
	// WarpWidth is the lane width tier-1 programs are compiled with
	// (0: DefaultWarpWidth; negative: warp execution disabled).
	WarpWidth int
	// SampleEvery is the controller profiler's sampling period
	// (0: the profiler default).
	SampleEvery int64
}

// defaultHotInstrs keeps one-shot kernels at tier 0 (a single launch of
// a small kernel stays well under a million sampled-scaled instructions)
// while a steady hot loop crosses it within a few launches.
const defaultHotInstrs = 1 << 20

// TierEvent describes one completed tier promotion, for telemetry.
type TierEvent struct {
	Kernels   []string // kernels of the promoted module
	Tier      int      // tier the module was promoted to
	CompileNs int64    // background recompile wall time
}

// tierState is the controller's per-module record.
type tierState struct {
	mod      *ir.Module
	kernels  []string
	tier     atomic.Int32
	inflight atomic.Bool // a recompile is queued or running
}

// TierController owns tiered execution for the modules routed through
// it: ProgramFor serves the cheap tier-0 compile, Observe (called by
// Machine.Launch) applies the hotness test, and background workers run
// the tier-1 recompile + hot-swap. All methods are safe for concurrent
// use; a nil controller is inert.
type TierController struct {
	opts TierOptions
	prof *Profiler

	mu     sync.Mutex
	states map[*ir.Module]*tierState
	closed bool

	jobs chan *tierState
	wg   sync.WaitGroup

	sink       func(TierEvent) // guarded by mu
	promotions atomic.Int64
}

// NewTierController starts a controller and its background workers.
// Close releases them.
func NewTierController(opts TierOptions) *TierController {
	if opts.HotInstrs <= 0 {
		opts.HotInstrs = defaultHotInstrs
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.WarpWidth == 0 {
		opts.WarpWidth = DefaultWarpWidth
	} else if opts.WarpWidth < 0 {
		opts.WarpWidth = 0
	}
	tc := &TierController{
		opts:   opts,
		prof:   NewProfiler(ProfileOptions{SampleEvery: opts.SampleEvery}),
		states: make(map[*ir.Module]*tierState),
		jobs:   make(chan *tierState, 64),
	}
	for i := 0; i < opts.Workers; i++ {
		tc.wg.Add(1)
		go func() {
			defer tc.wg.Done()
			for st := range tc.jobs {
				tc.promote(st)
			}
		}()
	}
	return tc
}

// Profiler returns the controller's profiler; install it on the
// machines executing the controller's modules (the opencl.MachinePool
// does this when a controller is set) so Observe has counts to read.
func (tc *TierController) Profiler() *Profiler {
	if tc == nil {
		return nil
	}
	return tc.prof
}

// Promotions returns the number of completed tier promotions.
func (tc *TierController) Promotions() int64 {
	if tc == nil {
		return 0
	}
	return tc.promotions.Load()
}

// SetEventSink installs a callback invoked after each promotion (from
// the worker goroutine; keep it cheap).
func (tc *TierController) SetEventSink(fn func(TierEvent)) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	tc.sink = fn
	tc.mu.Unlock()
}

// ProgramFor returns the program to launch mod with right now: the
// cached program when one exists (never downgrade a module some other
// path already compiled, and keep serving a promoted tier-1), else a
// fresh tier-0 compile installed in the shared cache.
func (tc *TierController) ProgramFor(mod *ir.Module) *Prog {
	if tc == nil {
		return SharedProgram(mod)
	}
	tc.state(mod)
	if p := cachedProgram(mod); p != nil {
		recordCacheEvent(true, p.tier)
		return p
	}
	// Racing first launches may compile tier 0 twice; the cache keeps
	// one winner and the loser is garbage — cheap by construction.
	p := CompileModuleOpts(mod, Tier0CompileOpts)
	ShareProgram(p)
	recordCacheEvent(false, p.tier)
	return p
}

// state returns (creating on first use) the per-module record.
func (tc *TierController) state(mod *ir.Module) *tierState {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	st := tc.states[mod]
	if st == nil {
		st = &tierState{mod: mod}
		for _, f := range mod.Funcs {
			if f.Kernel && !f.IsDecl() {
				st.kernels = append(st.kernels, f.Name)
			}
		}
		tc.states[mod] = st
	}
	return st
}

// Observe applies the hotness test after a launch of kernel from mod;
// Machine.Launch calls it on the way out. Crossing the threshold
// enqueues a background promotion; the call itself never compiles.
func (tc *TierController) Observe(mod *ir.Module, kernel string) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	st := tc.states[mod]
	tc.mu.Unlock()
	if st == nil || st.tier.Load() > 0 || st.inflight.Load() {
		return
	}
	if tc.prof.KernelInstrEstimate(kernel) < tc.opts.HotInstrs {
		return
	}
	if !st.inflight.CompareAndSwap(false, true) {
		return
	}
	tc.mu.Lock()
	if tc.closed {
		tc.mu.Unlock()
		st.inflight.Store(false)
		return
	}
	select {
	case tc.jobs <- st:
	default:
		// Queue full: drop the request; the next launch re-observes.
		st.inflight.Store(false)
	}
	tc.mu.Unlock()
}

// PromoteSync recompiles mod at tier 1 immediately on the caller's
// goroutine (tests and the parity suite force promotions mid-run with
// it). A no-op for modules the controller has never seen.
func (tc *TierController) PromoteSync(mod *ir.Module) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	st := tc.states[mod]
	tc.mu.Unlock()
	if st == nil || st.tier.Load() > 0 {
		return
	}
	tc.promote(st)
}

// promote runs the tier-1 recompile of one module and hot-swaps the
// result. Concurrent promotions of the same module are benign (both
// produce equivalent programs; the cache keeps the last).
func (tc *TierController) promote(st *tierState) {
	guide := tc.guideFor(st)
	start := time.Now()
	p := CompileModuleOpts(st.mod, CompileOpts{
		Opt:       true,
		WarpWidth: tc.opts.WarpWidth,
		Profile:   guide,
	})
	elapsed := time.Since(start).Nanoseconds()
	SwapProgram(p)
	st.tier.Store(int32(p.Tier()))
	// Drop the tier-0 counts: the ordinal-seeded sampling phase and the
	// stale *compiledFn landing tables of the replaced program must not
	// skew (or pin) anything the new program's profiles feed.
	for _, k := range st.kernels {
		tc.prof.ResetKernel(k)
	}
	st.inflight.Store(false)
	tc.promotions.Add(1)
	tc.mu.Lock()
	sink := tc.sink
	tc.mu.Unlock()
	if sink != nil {
		sink(TierEvent{Kernels: st.kernels, Tier: p.Tier(), CompileNs: elapsed})
	}
}

// guideFor builds the profile guide from the controller profiler's
// snapshots of this module's kernels.
func (tc *TierController) guideFor(st *tierState) *ProfileGuide {
	mine := make(map[string]bool, len(st.kernels))
	for _, k := range st.kernels {
		mine[k] = true
	}
	var snaps []KernelProfileSnapshot
	for _, s := range tc.prof.Snapshot() {
		if mine[s.Kernel] {
			snaps = append(snaps, s)
		}
	}
	return GuideFromSnapshots(snaps)
}

// Close stops the background workers and waits for in-flight
// promotions to finish. Observe becomes a no-op afterwards.
func (tc *TierController) Close() {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	if tc.closed {
		tc.mu.Unlock()
		return
	}
	tc.closed = true
	tc.mu.Unlock()
	close(tc.jobs)
	tc.wg.Wait()
}
