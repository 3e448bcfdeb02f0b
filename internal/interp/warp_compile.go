package interp

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/passes"
)

// Warp dispatch modes: one byte per bytecode instruction of a kernel,
// telling the warp execution loop (warp.go) how to run it in vector
// dispatch.
const (
	// wmSpill leaves vector mode: the warp's live lanes materialize
	// scalar work-item state and continue on the per-item path. Only
	// what the warp stream cannot express spills: a call (the stream
	// drives kernel top frames only; the inliner leaves calls only to
	// recursive or oversized helpers), a barrier inside a divergent
	// region (a lane subset cannot park the warp), and a trap (the
	// scalar path attributes it to the exact work-item).
	wmSpill uint8 = iota
	// wmOnce executes the instruction once for the warp's active lanes:
	// a jump in warpExec, any other opcode as laneExec over the first
	// active lane alone. Its destination (if any) is a uniform register
	// homed in the warp's shared file, where the result lands, and
	// uniform operands read from there (the rare divergent-homed
	// operand — the phi-cycle scratch — reads the first active lane,
	// whose value every active lane shares whenever the analysis proved
	// the result uniform). Inside a divergent region the active lanes
	// are a subset, and a uniform register holds their value: the
	// analysis keeps every register a region defines from being read
	// by lanes that did not run it with them.
	wmOnce
	// wmLane executes the instruction once per active lane, reading
	// uniform operands from the shared file and divergent ones from
	// the lane's column of the warp's register-major lane file.
	wmLane
	// wmDiverge is a branch on a divergent condition: each active lane
	// evaluates it, and when the lanes disagree the warp's lane mask
	// splits — one side runs first, the other waits on the
	// reconvergence stack, and both meet again at the branch block's
	// immediate postdominator (compiledFn.reconv).
	wmDiverge
	// wmBarrier suspends the whole warp at a work-group barrier —
	// arrival is counted once per warp, not once per lane.
	wmBarrier
	// wmRet retires the active lanes (kernel top-frame return; calls
	// never run in vector mode, so there is no caller).
	wmRet
)

// noReconv is the reconvergence pc of a divergent branch whose sides
// never meet again (each runs to its own return).
const noReconv = int32(-1)

// warpModeNames names the dispatch modes for clcc -stage warp.
var warpModeNames = [...]string{
	wmSpill: "spill", wmOnce: "once", wmLane: "lane",
	wmDiverge: "diverge", wmBarrier: "barrier", wmRet: "ret",
}

// reconvergencePCs returns, for a kernel about to be finished by
// threadJumps, the pcs jump threading must leave alone: the first pc of
// every block where a divergent branch reconverges (lanes arriving by a
// threaded copy of its leading instruction would never be seen
// arriving) and of every block that ends in a divergent branch (a copy
// of the branch in a predecessor would sit in a block with a different
// postdominator).
func reconvergencePCs(u *passes.Uniformity, blocks []*ir.Block, blockPC map[*ir.Block]int32) map[int32]bool {
	keep := make(map[int32]bool)
	for _, b := range blocks {
		if !u.DivergentBranch(b) {
			continue
		}
		keep[blockPC[b]] = true
		if r := u.Reconverge(b); r != nil {
			keep[blockPC[r]] = true
		}
	}
	return keep
}

// buildWarpTables derives the warp execution tables of a compiled
// kernel from the uniformity analysis: the per-register uniformity
// (register homes), the per-instruction dispatch mode, the
// reconvergence pc of every divergent branch, and the barrier resume
// pcs where a spilled warp may re-form. Blocks are emitted in the
// function's order, so fn.Blocks is parallel to cf.blockStarts.
func (cf *compiledFn) buildWarpTables(u *passes.Uniformity, nb *ir.Numbering, blockPC map[*ir.Block]int32) {
	fn := cf.fn
	blocks := fn.Blocks

	uniform := make([]bool, cf.nregs)
	for _, p := range fn.Params {
		if i, ok := nb.IndexOf(p); ok {
			uniform[i] = true
		}
	}
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				if i, ok := nb.IndexOf(in); ok {
					uniform[i] = u.ValueUniform(in)
				}
			}
		}
	}
	for i := cf.constBase; i < cf.constBase+len(cf.consts); i++ {
		uniform[i] = true
	}
	// A phi-cycle scratch slot (past the constant tail) stays divergent:
	// it shuttles both uniform and divergent edge copies.

	// Per-block control-uniformity and branch reconvergence, aligned
	// with blockStarts. The edge-stub region after the last block holds
	// only moves and jumps; its instructions take their mode from their
	// registers, so the region counts as uniform.
	blkU := make([]bool, len(cf.blockStarts))
	for i, b := range blocks {
		blkU[i] = u.BlockUniform(b)
	}
	if len(blkU) > len(blocks) {
		blkU[len(blocks)] = true
	}
	blockAt := func(pc int32) int {
		return sort.Search(len(cf.blockStarts), func(i int) bool { return cf.blockStarts[i] > pc }) - 1
	}
	pcUniform := func(pc int32) bool {
		i := blockAt(pc)
		return i >= 0 && blkU[i]
	}

	wmode := make([]uint8, len(cf.code))
	reconv := make(map[int32]int32)
	ru := func(r int32) bool { return r >= 0 && uniform[r] }
	// diverge marks the branch at pc divergent and records where its
	// sides meet. Divergent branches are never threaded into other
	// blocks (reconvergencePCs), so the branch sits in its own block.
	diverge := func(pc int) uint8 {
		r := noReconv
		if i := blockAt(int32(pc)); i >= 0 && i < len(blocks) {
			if rb := u.Reconverge(blocks[i]); rb != nil {
				r = blockPC[rb]
			}
		}
		reconv[int32(pc)] = r
		return wmDiverge
	}
	for pc := range cf.code {
		in := &cf.code[pc]
		var m uint8
		switch in.op {
		case opCall, opTrap:
			m = wmSpill
		case opRet:
			m = wmRet
		case opBarrier:
			m = wmBarrier
			if !pcUniform(int32(pc)) {
				m = wmSpill
			}
		case opJump:
			m = wmOnce
		case opCondJump:
			m = wmOnce
			if !ru(in.a) {
				m = diverge(pc)
			}
		case opCmpJump:
			m = wmOnce
			if !ru(in.a) || !ru(in.b) {
				m = diverge(pc)
			}
		case opStoreI1, opStoreI32, opStoreI64, opStoreF32, opStoreF64, opStorePtr:
			// A store of a uniform value through a uniform pointer in a
			// control-uniform block: every lane writes the same bytes to
			// the same place, so one write is byte-equivalent.
			m = wmLane
			if ru(in.a) && ru(in.b) && pcUniform(int32(pc)) {
				m = wmOnce
			}
		case opBinStore:
			m = wmLane
			if ru(in.a) && ru(in.b) && ru(in.c) && pcUniform(int32(pc)) {
				m = wmOnce
			}
		case opLoadBinStore, opAtomic:
			// The loaded/old value is per-lane by definition.
			m = wmLane
		default:
			// Value-producing instructions follow their destinations'
			// homes (a pair's c is one): uniform results compute once.
			m = wmLane
			if ru(in.dst) && (in.op != opMath || in.c < 0 || ru(in.c)) {
				m = wmOnce
			}
		}
		wmode[pc] = m
	}

	// Spilled warps re-form at barriers in control-uniform blocks: all
	// lanes arrive with a single frame at the same resume pc.
	reform := make(map[int32]bool)
	for pc := range cf.code {
		if cf.code[pc].op == opBarrier && wmode[pc] == wmBarrier {
			reform[int32(pc)+1] = true
		}
	}

	var uregs []int32
	for i, ok := range uniform {
		if ok && i < cf.constBase {
			uregs = append(uregs, int32(i))
		}
	}
	cf.wmode = wmode
	cf.uniform = uniform
	cf.uniformRegs = uregs
	cf.reconv = reconv
	cf.reformPC = reform
}
