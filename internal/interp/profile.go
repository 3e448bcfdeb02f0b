package interp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the VM execution-profile collector: optional per-opcode
// and per-block dynamic frequencies plus per-kernel instruction, barrier
// and fault totals — the measurement layer tiered (profile-guided)
// execution needs. Profiling is sampled at work-group granularity: a
// profiled group runs a separate dispatch loop (vm_profile.go) with
// counting hooks, every other group runs the unmodified hot loop, so the
// overhead scales with 1/SampleEvery instead of with the counting cost.
// Faults are counted on every group, sampled or not.

// numOps sizes per-opcode count tables (opBinCmpJump is the last opcode).
const numOps = int(opBinCmpJump) + 1

// opNames names every vmOp for profile dumps; keep in sync with the
// opcode enum in compile.go.
var opNames = [numOps]string{
	opAlloca:       "alloca",
	opAllocaLocal:  "alloca.local",
	opLoad:         "load",
	opStore:        "store",
	opGEP:          "gep",
	opGEPConst:     "gep.const",
	opBin:          "bin",
	opCmp:          "cmp",
	opCast:         "cast",
	opSelect:       "select",
	opAtomic:       "atomic",
	opBarrier:      "barrier",
	opCall:         "call",
	opWI:           "wi",
	opMath:         "math",
	opJump:         "jump",
	opCondJump:     "condjump",
	opRet:          "ret",
	opTrap:         "trap",
	opMove:         "move",
	opCmpJump:      "cmp+jump",
	opBinStore:     "bin+store",
	opLoadBinStore: "load+bin+store",
	opLoadIdx:      "gep+load",
	opLoadOff:      "gepconst+load",
	opAddI32:       "add.i32",
	opSubI32:       "sub.i32",
	opMulI32:       "mul.i32",
	opAndI32:       "and.i32",
	opOrI32:        "or.i32",
	opXorI32:       "xor.i32",
	opAddI64:       "add.i64",
	opAddF32:       "add.f32",
	opSubF32:       "sub.f32",
	opMulF32:       "mul.f32",
	opDivF32:       "div.f32",
	opBinBin:       "bin+bin",
	opBinCmpJump:   "bin+cmp+jump",
}

// defaultSampleEvery is the sampling period when ProfileOptions leaves
// it zero: one work-group in 64 runs the counting loop, which keeps the
// overhead on dispatch-bound benchmarks well under the 3% CI budget.
const defaultSampleEvery = 64

// ProfileOptions configures a Profiler.
type ProfileOptions struct {
	// PerOpcode collects dynamic opcode frequencies.
	PerOpcode bool
	// PerBlock collects basic-block entry counts per compiled function.
	PerBlock bool
	// SampleEvery profiles one work-group in N (0: defaultSampleEvery;
	// 1: every group — exact counts, full counting overhead).
	SampleEvery int64
}

// Profiler collects VM execution profiles for the launches of the
// machines it is installed on (Machine.Profiler; the opencl.MachinePool
// seeds it across a platform's pooled machines). Only the bytecode VM
// engine is profiled; the tree-walking reference engine ignores it.
type Profiler struct {
	opts  ProfileOptions
	every int64

	mu      sync.Mutex
	kernels map[string]*KernelProfile
}

// NewProfiler returns a profiler with the given options.
func NewProfiler(opts ProfileOptions) *Profiler {
	every := opts.SampleEvery
	if every <= 0 {
		every = defaultSampleEvery
	}
	return &Profiler{opts: opts, every: every, kernels: make(map[string]*KernelProfile)}
}

// kernel returns (creating on first use) the per-kernel aggregate.
func (p *Profiler) kernel(name string) *KernelProfile {
	p.mu.Lock()
	defer p.mu.Unlock()
	kp := p.kernels[name]
	if kp == nil {
		kp = &KernelProfile{name: name}
		p.kernels[name] = kp
	}
	return kp
}

// KernelProfile aggregates the sampled groups of one kernel. Group and
// fault counters are atomic (every group touches them); the sampled
// aggregates are flushed under the mutex once per sampled group.
type KernelProfile struct {
	name       string
	groupsSeen atomic.Int64
	launches   atomic.Int64 // seeds the per-launch sampling phase
	faults     atomic.Int64

	// Warp execution stats, aggregated per retired launch (every launch,
	// not only sampled groups): warps formed, lanes across them,
	// lane-mask splits, spills to the scalar path and barrier
	// re-formations.
	warps        atomic.Int64
	warpLanes    atomic.Int64
	warpDiverges atomic.Int64
	warpSpills   atomic.Int64
	warpReforms  atomic.Int64

	mu            sync.Mutex
	groupsSampled int64
	instrs        int64
	barriers      int64
	opcodes       [numOps]int64
	blocks        map[*compiledFn][]int64
}

// groupProfile is the per-sampled-group scratch the profiled dispatch
// loop counts into — plain non-atomic fields owned by one worker, merged
// into the KernelProfile when the group retires.
type groupProfile struct {
	perOp    bool
	perBlock bool
	instrs   int64
	barriers int64
	opcodes  [numOps]int64
	blocks   map[*compiledFn][]int64
}

func (p *Profiler) newGroupProfile() *groupProfile {
	gp := &groupProfile{perOp: p.opts.PerOpcode, perBlock: p.opts.PerBlock}
	if gp.perBlock {
		gp.blocks = make(map[*compiledFn][]int64, 4)
	}
	return gp
}

// enterBlock attributes a control transfer to the basic block containing
// pc. Jump threading can land transfers mid-block, so the containing
// block is found by binary search over the sorted block-start table; pcs
// in the edge-stub region past the last block attribute to its
// "(edge-copies)" pseudo-block.
func (gp *groupProfile) enterBlock(cf *compiledFn, pc int32) {
	starts := cf.blockStarts
	if len(starts) == 0 {
		return
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > pc }) - 1
	if i < 0 {
		return
	}
	hits := gp.blocks[cf]
	if hits == nil {
		hits = make([]int64, len(starts))
		gp.blocks[cf] = hits
	}
	hits[i]++
}

// enterBlockN is enterBlock weighted by the live-lane count: the warp
// dispatch loop (warp.go) attributes one entry per lane so sampled
// block counts stay engine-invariant.
func (gp *groupProfile) enterBlockN(cf *compiledFn, pc int32, n int64) {
	starts := cf.blockStarts
	if len(starts) == 0 {
		return
	}
	i := sort.Search(len(starts), func(i int) bool { return starts[i] > pc }) - 1
	if i < 0 {
		return
	}
	hits := gp.blocks[cf]
	if hits == nil {
		hits = make([]int64, len(starts))
		gp.blocks[cf] = hits
	}
	hits[i] += n
}

// flush merges one retired sampled group into the kernel aggregate.
func (kp *KernelProfile) flush(gp *groupProfile) {
	kp.mu.Lock()
	kp.groupsSampled++
	kp.instrs += gp.instrs
	kp.barriers += gp.barriers
	if gp.perOp {
		for i, n := range gp.opcodes {
			kp.opcodes[i] += n
		}
	}
	if gp.perBlock {
		if kp.blocks == nil {
			kp.blocks = make(map[*compiledFn][]int64, len(gp.blocks))
		}
		for cf, hits := range gp.blocks {
			dst := kp.blocks[cf]
			if dst == nil {
				dst = make([]int64, len(hits))
				kp.blocks[cf] = dst
			}
			for i, n := range hits {
				dst[i] += n
			}
		}
	}
	kp.mu.Unlock()
}

// OpcodeCount is one opcode's sampled dynamic frequency.
type OpcodeCount struct {
	Name  string
	Count int64
}

// BlockCount is one basic block's sampled entry count.
type BlockCount struct {
	Fn    string
	Block string
	Hits  int64
}

// KernelProfileSnapshot is the exported view of one kernel's profile.
type KernelProfileSnapshot struct {
	Kernel       string
	SampleEvery  int64
	Groups       int64         // work-groups executed (sampled or not)
	Sampled      int64         // work-groups that ran the counting loop
	Instrs       int64         // instructions in sampled groups
	Barriers     int64         // barrier suspensions in sampled groups
	Faults       int64         // faulting groups (counted unsampled)
	Warps        int64         // warps formed (all groups, warp mode only)
	WarpLanes    int64         // lanes across formed warps (occupancy numerator)
	WarpDiverges int64         // lane-mask splits at divergent branches (stayed in vector dispatch)
	WarpSpills   int64         // fallbacks onto the scalar path (call, trap, divergent barrier)
	WarpReforms  int64         // barrier re-formations back into vector dispatch
	Opcodes      []OpcodeCount // nonzero counts, descending
	Blocks       []BlockCount  // nonzero entry counts, descending
}

// ResetKernel discards one kernel's accumulated profile, including its
// launch ordinal (which seeds the sampling phase). The tier controller
// calls it after a hot-swap so tier-1 decisions, if a further promotion
// is ever added, would not be skewed by stale tier-0 counts — and so
// stale *compiledFn block tables from the replaced program do not pin
// the old code alive.
func (p *Profiler) ResetKernel(name string) {
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.kernels, name)
	p.mu.Unlock()
}

// KernelInstrEstimate returns the estimated total dynamic instruction
// count for one kernel (sampled count scaled by the sampling period),
// without building a full snapshot — the tier controller's hotness test
// runs on the launch path.
func (p *Profiler) KernelInstrEstimate(name string) int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	kp := p.kernels[name]
	p.mu.Unlock()
	if kp == nil {
		return 0
	}
	kp.mu.Lock()
	n := kp.instrs
	kp.mu.Unlock()
	return n * p.every
}

// Snapshot returns the per-kernel profiles, sorted by kernel name.
func (p *Profiler) Snapshot() []KernelProfileSnapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	kps := make([]*KernelProfile, 0, len(p.kernels))
	for _, kp := range p.kernels {
		kps = append(kps, kp)
	}
	p.mu.Unlock()
	sort.Slice(kps, func(i, j int) bool { return kps[i].name < kps[j].name })

	out := make([]KernelProfileSnapshot, 0, len(kps))
	for _, kp := range kps {
		s := KernelProfileSnapshot{
			Kernel:       kp.name,
			SampleEvery:  p.every,
			Groups:       kp.groupsSeen.Load(),
			Faults:       kp.faults.Load(),
			Warps:        kp.warps.Load(),
			WarpLanes:    kp.warpLanes.Load(),
			WarpDiverges: kp.warpDiverges.Load(),
			WarpSpills:   kp.warpSpills.Load(),
			WarpReforms:  kp.warpReforms.Load(),
		}
		kp.mu.Lock()
		s.Sampled = kp.groupsSampled
		s.Instrs = kp.instrs
		s.Barriers = kp.barriers
		for op, n := range kp.opcodes {
			if n > 0 {
				s.Opcodes = append(s.Opcodes, OpcodeCount{Name: opNames[op], Count: n})
			}
		}
		for cf, hits := range kp.blocks {
			for b, n := range hits {
				if n > 0 {
					s.Blocks = append(s.Blocks, BlockCount{Fn: cf.fn.Name, Block: cf.blockNames[b], Hits: n})
				}
			}
		}
		kp.mu.Unlock()
		sort.SliceStable(s.Opcodes, func(i, j int) bool { return s.Opcodes[i].Count > s.Opcodes[j].Count })
		sort.SliceStable(s.Blocks, func(i, j int) bool {
			if s.Blocks[i].Hits != s.Blocks[j].Hits {
				return s.Blocks[i].Hits > s.Blocks[j].Hits
			}
			if s.Blocks[i].Fn != s.Blocks[j].Fn {
				return s.Blocks[i].Fn < s.Blocks[j].Fn
			}
			return s.Blocks[i].Block < s.Blocks[j].Block
		})
		out = append(out, s)
	}
	return out
}

// Dump writes a human-readable profile report.
func (p *Profiler) Dump(w io.Writer) {
	snaps := p.Snapshot()
	if len(snaps) == 0 {
		fmt.Fprintln(w, "no kernels profiled")
		return
	}
	for _, s := range snaps {
		fmt.Fprintf(w, "kernel %s: groups %d (sampled %d, 1 in %d), instrs %d, barriers %d, faults %d\n",
			s.Kernel, s.Groups, s.Sampled, s.SampleEvery, s.Instrs, s.Barriers, s.Faults)
		if s.Warps > 0 {
			fmt.Fprintf(w, "  warps: %d (avg %.1f lanes), masked divergences %d, divergence fallbacks %d, re-forms %d\n",
				s.Warps, float64(s.WarpLanes)/float64(s.Warps), s.WarpDiverges, s.WarpSpills, s.WarpReforms)
		}
		if len(s.Opcodes) > 0 {
			fmt.Fprintf(w, "  opcodes:\n")
			for _, oc := range s.Opcodes {
				fmt.Fprintf(w, "    %-16s %12d (%.1f%%)\n", oc.Name, oc.Count, 100*float64(oc.Count)/float64(s.Instrs))
			}
		}
		if len(s.Blocks) > 0 {
			fmt.Fprintf(w, "  blocks:\n")
			for _, bc := range s.Blocks {
				fmt.Fprintf(w, "    %-32s %12d\n", bc.Fn+"/"+bc.Block, bc.Hits)
			}
		}
	}
}
