package interp

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// This file is the VM execution-profile collector: per-opcode and
// per-block dynamic frequencies plus per-kernel instruction, barrier and
// fault totals. Nothing is counted per instruction. A work-group
// counts only where control LANDS — frame entry and the target of every
// jump — in a table indexed by pc (the dispatch loops carry one
// `if gp != nil` hook per control transfer; jump threading lands
// mid-block, hence per pc, not per block). From a landing a work-item executes every
// instruction up to and including the next jump, return or trap, so the
// rest is derived: flush adds hits × run length to the instruction
// total, Snapshot walks each run for opcode counts and bins landings into
// blocks. Calls and barriers are walked through: the callee's entry is a
// landing of its own and the resume continues the run. Every group of
// a profiled launch records its landings.

// numOps sizes per-opcode count tables (opDivF32 is the last opcode).
const numOps = int(opDivF32) + 1

// opNames names every vmOp for profile dumps; keep in sync with the
// opcode enum in compile.go. The typed variants of one operation share
// its name, so a profile counts operations, not the kinds they run at.
var opNames = func() [numOps]string {
	n := [numOps]string{
		opAlloca:       "alloca",
		opAllocaLocal:  "alloca.local",
		opGEP:          "gep",
		opGEPConst:     "gep.const",
		opCmp:          "cmp",
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
	}
	for op := opLoadI1; op <= opFPTrunc; op++ {
		switch {
		case op <= opLoadPtr:
			n[op] = "load"
		case op <= opStorePtr:
			n[op] = "store"
		case op >= opBinI1 && op <= opBinF64:
			n[op] = "bin"
		case op >= opExt:
			n[op] = "cast"
		}
	}
	return n
}()

// Profiler collects VM execution profiles for the launches of the
// machines it is installed on (Machine.Profiler). Only the bytecode VM
// engine is profiled; the tree-walking reference engine ignores it.
type Profiler struct {
	mu      sync.Mutex
	kernels map[string]*KernelProfile
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{kernels: make(map[string]*KernelProfile)}
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

// KernelProfile aggregates the groups of one kernel. The fault and warp
// counters are atomic; the landing aggregates are flushed under the
// mutex once per group.
type KernelProfile struct {
	name   string
	faults atomic.Int64

	// Warp execution stats, aggregated per retired launch: warps
	// formed, lanes across them, lane-mask splits, spills to the scalar
	// path and barrier re-formations.
	warps        atomic.Int64
	warpLanes    atomic.Int64
	warpDiverges atomic.Int64
	warpSpills   atomic.Int64
	warpReforms  atomic.Int64

	mu     sync.Mutex
	groups int64
	instrs int64
	lands  groupProfile
}

// groupProfile is the per-group scratch the dispatch loops count into:
// landings per pc of each function the group entered. Plain non-atomic
// tables owned by one worker, merged into the KernelProfile when the
// group retires; nil when the machine has no profiler.
type groupProfile map[*compiledFn][]int64

// land records n work-items arriving at pc of cf by a control transfer
// (the warp engine lands every active lane at once).
func (gp groupProfile) land(cf *compiledFn, pc int32, n int64) {
	hits := gp[cf]
	if hits == nil {
		hits = make([]int64, len(cf.code))
		gp[cf] = hits
	}
	hits[pc] += n
}

// runEnd returns the pc of the instruction that ends the straight-line
// run a landing at pc starts: the next jump, return or trap (whatever
// follows it is reached by a landing of its own). Every block the
// compiler emits ends in one or falls through into a block that does.
func (cf *compiledFn) runEnd(pc int) int {
	for {
		switch cf.code[pc].op {
		case opJump, opCondJump, opCmpJump, opRet, opTrap:
			return pc
		}
		pc++
	}
}

// flush merges one retired group into the kernel aggregate and adds its
// instructions, hits × run length per landing. A faulting group's last
// run is attributed to its end: an over-count of less than one run
// length.
func (kp *KernelProfile) flush(gp groupProfile) {
	kp.mu.Lock()
	defer kp.mu.Unlock()
	kp.groups++
	if kp.lands == nil {
		kp.lands = make(groupProfile, len(gp))
	}
	for cf, hits := range gp {
		dst := kp.lands[cf]
		if dst == nil {
			dst = make([]int64, len(hits))
			kp.lands[cf] = dst
		}
		for pc, n := range hits {
			if n == 0 {
				continue
			}
			dst[pc] += n
			kp.instrs += n * int64(cf.runEnd(pc)-pc+1)
		}
	}
}

// OpcodeCount is one opcode's dynamic frequency.
type OpcodeCount struct {
	Name  string
	Count int64
}

// BlockCount is one basic block's entry count.
type BlockCount struct {
	Fn    string
	Block string
	Hits  int64
}

// KernelProfileSnapshot is the exported view of one kernel's profile.
type KernelProfileSnapshot struct {
	Kernel       string
	Groups       int64         // work-groups run (faulting ones included)
	Instrs       int64         // instructions executed
	Barriers     int64         // barrier suspensions
	Faults       int64         // faulting groups
	Warps        int64         // warps formed (all groups, warp mode only)
	WarpLanes    int64         // lanes across formed warps (occupancy numerator)
	WarpDiverges int64         // lane-mask splits at divergent branches (stayed in vector dispatch)
	WarpSpills   int64         // fallbacks onto the scalar path (call, trap, divergent barrier)
	WarpReforms  int64         // barrier re-formations back into vector dispatch
	Opcodes      []OpcodeCount // nonzero counts, descending
	Blocks       []BlockCount  // nonzero entry counts, descending
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
			Faults:       kp.faults.Load(),
			Warps:        kp.warps.Load(),
			WarpLanes:    kp.warpLanes.Load(),
			WarpDiverges: kp.warpDiverges.Load(),
			WarpSpills:   kp.warpSpills.Load(),
			WarpReforms:  kp.warpReforms.Load(),
		}
		kp.mu.Lock()
		s.Groups = kp.groups
		s.Instrs = kp.instrs
		var opcodes [numOps]int64
		for cf, hits := range kp.lands {
			blocks := make([]int64, len(cf.blockStarts))
			for pc, n := range hits {
				if n == 0 {
					continue
				}
				for q, end := pc, cf.runEnd(pc); q <= end; q++ {
					opcodes[cf.code[q].op] += n
				}
				// Jump threading lands mid-block, so the containing block
				// is a binary search away; the edge-stub region past the
				// last block bins into its "(edge-copies)" pseudo-block.
				if b := sort.Search(len(blocks), func(i int) bool { return cf.blockStarts[i] > int32(pc) }) - 1; b >= 0 {
					blocks[b] += n
				}
			}
			for b, n := range blocks {
				if n > 0 {
					s.Blocks = append(s.Blocks, BlockCount{Fn: cf.fn.Name, Block: cf.blockNames[b], Hits: n})
				}
			}
		}
		s.Barriers = opcodes[opBarrier]
		for op, n := range opcodes {
			switch {
			case n == 0:
			case len(s.Opcodes) > 0 && s.Opcodes[len(s.Opcodes)-1].Name == opNames[op]:
				// Another typed variant of the family just listed.
				s.Opcodes[len(s.Opcodes)-1].Count += n
			default:
				s.Opcodes = append(s.Opcodes, OpcodeCount{Name: opNames[op], Count: n})
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
		fmt.Fprintf(w, "kernel %s: groups %d, instrs %d, barriers %d, faults %d\n",
			s.Kernel, s.Groups, s.Instrs, s.Barriers, s.Faults)
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
