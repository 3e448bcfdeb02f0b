package interp

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/ir"
)

// Warp-style batched work-item execution: the work-items of a group run
// in fixed-width batches ("warps") with ONE fetch/decode per instruction
// per warp. Register homes are split by the uniformity analysis
// (warp_compile.go): uniform registers — the same for every lane that
// executes them together — live in a shared file per warp and their
// instructions execute once per warp (wmOnce); divergent registers live
// in the register-major file after it, one MaxWarpWidth-word column per
// register, and their instructions (wmLane) are decoded once as well,
// then loop over the active lanes inside the opcode's arm (laneExec),
// which indexes each operand's col without a bounds check.
//
// A branch on a divergent condition (wmDiverge) splits the warp's
// active-lane mask instead of leaving vector dispatch: one side runs
// first, the other waits on a reconvergence stack, and both resume
// together at the branch block's immediate postdominator. A
// master-only region runs with one lane, `if (i < n)` with the lanes
// that pass; lanes that leave a loop early wait, lanes that return
// early retire, and the rest carry on. Only what the stream cannot
// express SPILLS (wmSpill: a call, a barrier inside a divergent region,
// a trap): each lane's registers are transposed out into a per-item
// file and the lanes continue on the unmodified per-item scalar path
// (vm.go), re-forming the warp (and transposing back) at the next
// barrier when every surviving lane arrives at the same resume pc with
// a single frame.
//
// Equivalence with the cooperative scalar engine relies on the same
// contract the scalar engine itself shares with the fully concurrent
// tree-walker: between barriers, work-items of a group do not race on
// memory (racing kernels are undefined on any engine and on real
// hardware). Under that contract, lockstep vector interleaving and
// run-to-barrier scalar interleaving produce byte-identical memory,
// and a load through a warp-invariant address yields a warp-invariant
// value — which is what lets the scheduling wrapper's reads of its SD
// and RT words, its chunk loop and its terminate test run once per
// warp.

// WarpLaunchStats summarizes the warp execution of one VM launch.
// Occupancy is Lanes / (Warps * Width); Diverges counts lane-mask
// splits at divergent branches (the warp stayed in vector dispatch),
// Spills the fallbacks onto the scalar per-item path, Reforms the
// barrier re-formations back into vector dispatch.
type WarpLaunchStats struct {
	Kernel   string
	Width    int
	Warps    int64
	Lanes    int64
	Diverges int64
	Spills   int64
	Reforms  int64
}

// WarpStatsSink receives per-launch warp statistics (Machine.WarpStats);
// the accelOS runtime adapts these onto its telemetry registry.
type WarpStatsSink interface {
	ObserveWarpLaunch(WarpLaunchStats)
}

// LaneStatsSink, when a machine's WarpStats implements it, hears each
// multi-lane launch's second-lane start delay (ns) and whether a
// lingering worker took it, and each linger's polling time (ns).
type LaneStatsSink interface {
	ObserveLaneStart(ns int64, handoff bool)
	ObserveLinger(ns int64)
}

// flushWarpStats publishes the launch's warp counters into the kernel
// profile and the machine's stats sink once the launch retires.
func (l *launchCtx) flushWarpStats() {
	w := l.warps.Load()
	if w == 0 {
		return
	}
	st := WarpLaunchStats{
		Kernel:   l.fn.Name,
		Width:    l.prog.warpWidth,
		Warps:    w,
		Lanes:    l.warpLanes.Load(),
		Diverges: l.warpDiverges.Load(),
		Spills:   l.warpSpills.Load(),
		Reforms:  l.warpReforms.Load(),
	}
	if l.kp != nil {
		l.kp.warps.Add(st.Warps)
		l.kp.warpLanes.Add(st.Lanes)
		l.kp.warpDiverges.Add(st.Diverges)
		l.kp.warpSpills.Add(st.Spills)
		l.kp.warpReforms.Add(st.Reforms)
	}
	if s := l.m.WarpStats; s != nil {
		s.ObserveWarpLaunch(st)
	}
}

// pendingLanes is one entry of a warp's reconvergence stack: lanes that
// resume at pc once everything above them has reached rpc (or retired).
// A branch that splits the active lanes pushes the lanes of before the
// split, parked at the reconvergence pc, and above them the side that
// runs second.
type pendingLanes struct {
	pc, rpc int32
	mask    uint64
}

// warp is one lane batch of a work-group. lanes holds its work-items in
// local-id order, bit j of every mask being lanes[j]; live are those
// that have not returned. Uniform registers and the constant tail live
// in the shared file uregs, divergent ones in file after it (lane j's
// register r is file[r*MaxWarpWidth+j]). In vector mode the lanes of
// mask execute at pc until they reach rpc, with sel (in idx for a
// partial mask) listing their indices and stack holding the lanes that
// wait. spill holds the per-item kernel files the lanes take on the
// scalar path; tmp is a lane loop's scratch column.
type warp struct {
	lanes   []*wiState
	live    uint64
	file    []uint64
	spill   []uint64
	uniform []bool
	uregs   []uint64
	steps   int64
	vector  bool

	pc, rpc int32
	mask    uint64
	sel     []uint8
	idx     [MaxWarpWidth]uint8
	stack   []pendingLanes
	tmp     [MaxWarpWidth]uint64
}

// col is one operand of a lane loop, resolved once per instruction: a
// divergent register's column of the warp file, mask MaxWarpWidth-1, or a
// uniform register's slot in the shared file, mask 0, whose array spans
// the words after it. Lane j reads p[j&m&(MaxWarpWidth-1)]: no check.
type col struct {
	p *[MaxWarpWidth]uint64
	m uint8
}

func (c col) at(j uint8) uint64     { return c.p[j&c.m&(MaxWarpWidth-1)] }
func (c col) set(j uint8, v uint64) { c.p[j&c.m&(MaxWarpWidth-1)] = v }

// reg resolves register r's home for a lane loop.
func (w *warp) reg(r int32) col {
	if w.uniform[r] {
		return col{p: (*[MaxWarpWidth]uint64)(w.uregs[r : r+MaxWarpWidth])}
	}
	return col{(*[MaxWarpWidth]uint64)(w.file[int(r)*MaxWarpWidth:]), MaxWarpWidth - 1}
}

// one and zero are constant operands: the unit index of a constant-offset
// GEP, and the absent second argument of a unary math builtin.
var one, zero = col{p: &[MaxWarpWidth]uint64{1}}, col{p: new([MaxWarpWidth]uint64)}

// laneIDs is every full mask's active-lane list, 0…n−1.
var laneIDs = [MaxWarpWidth]uint8{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
	22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
	44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63}

// run makes the lanes of mask the active ones, at pc until rpc. The
// lane list is a function of the mask, so it is rebuilt only when the
// mask changes, and a full mask takes the prebuilt one.
func (w *warp) run(pc, rpc int32, mask uint64) {
	w.pc, w.rpc = pc, rpc
	switch {
	case mask == w.mask:
	case mask&(mask+1) == 0:
		w.mask, w.sel = mask, laneIDs[:bits.Len64(mask)]
	default:
		w.mask, w.sel = mask, w.idx[:0]
		for m := mask; m != 0; m &= m - 1 {
			w.sel = append(w.sel, uint8(bits.TrailingZeros64(m)))
		}
	}
}

// split divides the active lanes at a divergent branch whose sides meet
// again at rpc: taken continue at tpc, the rest at fpc. A side that is
// already at rpc just waits there.
func (w *warp) split(rpc, tpc int32, taken uint64, fpc int32) {
	rest := w.mask &^ taken
	if rpc == noReconv {
		// The sides return separately; whatever the enclosing branch
		// reconverges at (if anything) still applies to both.
		rpc = w.rpc
	}
	if rpc != w.rpc {
		w.stack = append(w.stack, pendingLanes{pc: rpc, rpc: w.rpc, mask: w.mask})
	}
	switch {
	case tpc == rpc:
		w.run(fpc, rpc, rest)
	case fpc == rpc:
		w.run(tpc, rpc, taken)
	default:
		w.stack = append(w.stack, pendingLanes{pc: fpc, rpc: rpc, mask: rest})
		w.run(tpc, rpc, taken)
	}
}

// resumePending activates the topmost waiting lanes that are still
// live, reporting false when none wait.
func (w *warp) resumePending() bool {
	for n := len(w.stack); n > 0; n = len(w.stack) {
		e := w.stack[n-1]
		w.stack = w.stack[:n-1]
		if m := e.mask & w.live; m != 0 {
			w.run(e.pc, e.rpc, m)
			return true
		}
	}
	return false
}

// runGroupWarp is the warp-mode replacement for runGroupVM's round
// loop: the group's items are partitioned into warps, and each round
// every warp advances to its next barrier — in vector dispatch, or on
// the scalar per-item path after a spill. The warps' register and spill
// files are cut from the runner's slab; a spill marks the latter dirty.
func (l *launchCtx) runGroupWarp(gr *groupRunner, g *vmGroup, size, width int, argPatch []uint64) error {
	kcf := l.kcf
	nw := (size + width - 1) / width
	if cap(gr.warps) < nw {
		gr.warps = make([]warp, nw)
	}
	warps := gr.warps[:nw]
	nregs := kcf.nregs
	words := (MaxWarpWidth + 1) * nregs
	slab := gr.grow(2 * nw * words)
	gr.dirty = max(gr.dirty, nw*words)
	for i := range warps {
		w := &warps[i]
		base := i * width
		n := min(width, size-base)
		w.lanes = w.lanes[:0]
		for j := 0; j < n; j++ {
			wi := &gr.items[base+j]
			wi.kregs = nil
			w.lanes = append(w.lanes, wi)
		}
		w.live = ^uint64(0) >> (64 - n)
		w.uregs, w.file = slab[i*words:i*words+nregs], slab[i*words+nregs:(i+1)*words]
		w.spill = slab[(nw+i)*words : (nw+i+1)*words]
		w.uniform = kcf.uniform
		l.fillKernelRegs(w.uregs, argPatch)
		w.steps, w.vector, w.stack = 0, true, w.stack[:0]
		w.run(0, noReconv, w.live)
		l.warps.Add(1)
		l.warpLanes.Add(int64(n))
	}
	live := size
	for live > 0 {
		for i := range warps {
			w := &warps[i]
			if w.live == 0 {
				continue
			}
			before := bits.OnesCount64(w.live)
			if !w.vector && g.tryReform(w) {
				l.warpReforms.Add(1)
			}
			if w.vector {
				if err := g.warpResume(w); err != nil {
					g.faultWI = w.lanes[g.lane]
					return l.groupFault(gr, g, err)
				}
			}
			if !w.vector {
				// Spilled (just now, and the lanes still owe this round
				// their run to the next barrier, or in an earlier round).
				gr.dirty = len(slab)
				for m := w.live; m != 0; m &= m - 1 {
					j := bits.TrailingZeros64(m)
					wi := w.lanes[j]
					if err := g.resume(wi); err != nil {
						g.faultWI = wi
						return l.groupFault(gr, g, err)
					}
					if wi.status == wiDone {
						w.live &^= 1 << j
					}
				}
			}
			live -= before - bits.OnesCount64(w.live)
		}
	}
	if g.prof != nil {
		l.kp.flush(g.prof)
	}
	return nil
}

// groupFault is the shared fault path of the scalar and warp group
// runners: release pooled state, count the fault, and tag the error
// with the faulting work-item's global id (g.faultWI).
func (l *launchCtx) groupFault(gr *groupRunner, g *vmGroup, err error) error {
	wi := g.faultWI
	var lid [3]int64
	if wi != nil {
		lid = wi.lid
	}
	gid := [3]int64{
		g.group[0]*l.nd.Local[0] + lid[0],
		g.group[1]*l.nd.Local[1] + lid[1],
		g.group[2]*l.nd.Local[2] + lid[2],
	}
	g.release(gr)
	if l.kp != nil {
		l.kp.faults.Add(1)
		if g.prof != nil {
			l.kp.flush(g.prof)
		}
	}
	return fmt.Errorf("interp: work-item global id (%d,%d,%d): %w", gid[0], gid[1], gid[2], err)
}

// tryReform re-enters vector dispatch after a spill: legal when every
// surviving lane is suspended at the same barrier-resume pc with a
// single frame. Each lane's divergent registers go back into its column
// of the warp file, and the shared file is re-gathered from the first
// surviving lane. A uniform value defined in a divergent region is never
// live outside it (temporal rule, passes.Uniformity), so a
// control-uniform barrier sees only warp-invariant uniform registers:
// all lane copies of one that can still be read agree.
func (g *vmGroup) tryReform(w *warp) bool {
	cf := g.l.kcf
	pc := int32(-1)
	for m := w.live; m != 0; m &= m - 1 {
		wi := w.lanes[bits.TrailingZeros64(m)]
		if wi.status != wiBarrier || len(wi.frames) != 1 {
			return false
		}
		fpc := wi.frames[0].pc
		if pc < 0 {
			pc = fpc
		} else if fpc != pc {
			return false
		}
	}
	if pc < 0 || !cf.reformPC[pc] {
		return false
	}
	for m := w.live; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		for r, u := range w.uniform {
			if !u {
				w.file[r*MaxWarpWidth+j] = w.lanes[j].kregs[r]
			}
		}
	}
	l0 := w.lanes[bits.TrailingZeros64(w.live)].kregs
	for _, r := range cf.uniformRegs {
		w.uregs[r] = l0[r]
	}
	w.vector = true
	w.run(pc, noReconv, w.live)
	return true
}

// warpResume runs a warp's vector dispatch until its next suspension
// point (barrier, wholesale return, or spill), converting traps into
// errors; the faulting lane is left in g.lane.
func (g *vmGroup) warpResume(w *warp) (err error) {
	defer catch(&err)
	g.warpExec(w)
	return nil
}

// warpSpill hands every live lane to the scalar path: the active lanes
// re-execute pc, a waiting lane resumes where the topmost stack entry
// holding it would have resumed it, and each lane takes a per-item file
// from the warp's spill area: the shared file (its uniform registers and
// constant tail) with the lane's column of every divergent register.
func (g *vmGroup) warpSpill(w *warp, pc int32) {
	nregs := g.l.kcf.nregs
	placed := w.mask
	for _, j := range w.sel {
		w.lanes[j].frames[0].pc = pc
	}
	for i := len(w.stack) - 1; i >= 0; i-- {
		e := w.stack[i]
		for m := e.mask & w.live &^ placed; m != 0; m &= m - 1 {
			w.lanes[bits.TrailingZeros64(m)].frames[0].pc = e.pc
		}
		placed |= e.mask
	}
	for m := w.live; m != 0; m &= m - 1 {
		j := bits.TrailingZeros64(m)
		wi := w.lanes[j]
		wi.kregs = w.spill[j*nregs : (j+1)*nregs : (j+1)*nregs]
		copy(wi.kregs, w.uregs)
		for r, u := range w.uniform {
			if !u {
				wi.kregs[r] = w.file[r*MaxWarpWidth+j]
			}
		}
		wi.status = wiRunning
	}
	w.stack = w.stack[:0]
	w.vector = false
	g.l.warpSpills.Add(1)
}

// suspend leaves the dispatch loop: the step batch goes to the launch
// budget unless the warp keeps it for its next resume.
func (l *launchCtx) suspend(w *warp, steps, diverges int64, keep bool) {
	w.steps = 0
	if keep {
		w.steps = steps
	} else if steps > 0 {
		l.addSteps(steps)
	}
	if diverges > 0 {
		l.warpDiverges.Add(diverges)
	}
}

// warpExec is the vector dispatch loop: one fetch/decode per
// instruction per warp. A lane-mode instruction goes to laneExec, which
// loops the active lanes inside its arm. A once-mode one is a jump,
// taken here, or a data instruction, which laneExec runs for the first
// active lane alone: its destination is uniform, so the result lands in
// the shared file. Instruction cost is charged per active lane (n steps
// per dispatch), so the launch instruction budget is engine-invariant;
// so is the execution profile, which lands every active lane at each
// control transfer.
func (g *vmGroup) warpExec(w *warp) {
	l := g.l
	cf := l.kcf
	code := cf.code
	wmode := cf.wmode
	sel := w.sel
	n := int64(len(sel))
	pc, rpc := w.pc, w.rpc
	steps := w.steps
	gp := g.prof
	var diverges int64
	g.lane = sel[0]

	for {
		if pc == rpc {
			// The active lanes are where the branch that split them off
			// reconverges: they wait in the entry that holds the lanes
			// of before the split, below whatever else is still to run.
			if !w.resumePending() {
				panic(trap{"warp: reconvergence stack underflow"})
			}
			sel, n, pc, rpc = w.sel, int64(len(w.sel)), w.pc, w.rpc
			continue
		}
		in := &code[pc]
		mode := wmode[pc]
		if mode == wmSpill {
			l.suspend(w, steps, diverges, false)
			g.warpSpill(w, pc)
			return
		}
		pc++
		steps += n
		if steps >= stepBatch {
			g.lane = sel[0]
			l.addSteps(steps)
			steps = 0
		}
		switch mode {
		case wmOnce:
			// A once-mode jump reads uniform operands, or the first
			// active lane's column (the phi-cycle scratch).
			j := sel[0]
			switch in.op {
			case opJump:
				pc = int32(in.imm)
			case opCondJump:
				if w.reg(in.a).at(j) != 0 {
					pc = in.b
				} else {
					pc = in.c
				}
			case opCmpJump:
				if cmpOp(in.sub, w.reg(in.a).at(j), w.reg(in.b).at(j)) {
					pc = in.c
				} else {
					pc = int32(in.imm)
				}
			default:
				g.laneExec(in, w, sel[:1])
				continue
			}
			if gp != nil {
				gp.land(cf, pc, n)
			}

		case wmLane:
			g.laneExec(in, w, sel)

		case wmDiverge:
			// Every active lane evaluates the branch; taken collects the
			// lanes whose condition holds.
			var taken uint64
			var tpc, fpc int32
			switch in.op {
			case opCondJump:
				tpc, fpc = in.b, in.c
				a := w.reg(in.a)
				for _, j := range sel {
					if a.at(j) != 0 {
						taken |= 1 << j
					}
				}
			case opCmpJump:
				tpc, fpc = in.c, int32(in.imm)
				p, a, b := in.sub, w.reg(in.a), w.reg(in.b)
				for _, j := range sel {
					if cmpOp(p, a.at(j), b.at(j)) {
						taken |= 1 << j
					}
				}
			default:
				panic(trap{"warp: diverge-mode dispatch of unexpected opcode"})
			}
			if gp != nil {
				// Both sides of a split land, each with its own lanes.
				nt := int64(bits.OnesCount64(taken))
				gp.land(cf, tpc, nt)
				gp.land(cf, fpc, n-nt)
			}
			switch {
			case taken == w.mask || tpc == fpc:
				pc = tpc
			case taken == 0:
				pc = fpc
			default:
				diverges++
				w.split(cf.reconv[pc-1], tpc, taken, fpc)
				sel, n, pc, rpc = w.sel, int64(len(w.sel)), w.pc, w.rpc
			}

		case wmBarrier:
			if w.mask != w.live {
				// Cannot happen while the analysis holds (a barrier in a
				// control-uniform block is reached by every live lane),
				// but a lane subset must never park the warp.
				l.suspend(w, steps, diverges, false)
				g.warpSpill(w, pc-1)
				return
			}
			for _, j := range sel {
				wi := w.lanes[j]
				wi.frames[0].pc = pc
				wi.status = wiBarrier
			}
			w.pc = pc
			l.suspend(w, steps, diverges, true)
			return

		case wmRet:
			for _, j := range sel {
				wi := w.lanes[j]
				wi.frames[0] = vmFrame{}
				wi.frames = wi.frames[:0]
				wi.status = wiDone
			}
			w.live &^= w.mask
			if !w.resumePending() {
				l.suspend(w, steps, diverges, false)
				return
			}
			sel, n, pc, rpc = w.sel, int64(len(w.sel)), w.pc, w.rpc
		}
	}
}

// laneExec executes one data instruction for the lanes sel (the active
// ones, or the first alone in once mode): it resolves each operand's
// column once, then loops the lanes inside the opcode's arm, in column
// order (a full mask's sel is 0, 1, …). A fault is the first active
// lane's, except where one lane's own data traps (a GEP on null, an
// integer division by zero, a bad access): the trap path records it.
func (g *vmGroup) laneExec(in *instr, w *warp, sel []uint8) {
	dst, ra, rb, rc := in.dst, in.a, in.b, in.c
	g.lane = sel[0]
	switch in.op {
	case opAlloca:
		d, sp := w.reg(dst), ir.AddrSpace(in.sub)
		for _, j := range sel {
			d.set(j, g.ar.alloc(in.imm, sp))
		}
	case opAllocaLocal:
		d, p := w.reg(dst), g.local(ra, in.imm)
		for _, j := range sel {
			d.set(j, p)
		}
	case opLoadI1, opLoadI32, opLoadI64, opLoadF32, opLoadF64, opLoadPtr:
		g.loadLanes(in.kind, sel, w.reg(ra), w.reg(dst))
	case opGEP, opGEPConst, opLoadIdx, opLoadOff:
		// A constant offset scales the unit index; a fused load puts its
		// addresses in the scratch column.
		load := in.op == opLoadIdx || in.op == opLoadOff
		a, b, d := w.reg(ra), one, w.reg(dst)
		if in.op == opGEP || in.op == opLoadIdx {
			b = w.reg(rb)
		}
		if load {
			d = col{&w.tmp, MaxWarpWidth - 1}
		}
		scale := in.imm
		for _, j := range sel {
			x := a.at(j)
			if x == 0 {
				g.lane = j // gep's one trap
			}
			d.set(j, gep(x, int64(b.at(j))*scale))
		}
		if load {
			g.loadLanes(in.kind, sel, d, w.reg(dst))
		}
	case opStoreI1, opStoreI32, opStoreI64, opStoreF32, opStoreF64, opStorePtr:
		g.storeLanes(in.kind, sel, w.reg(rb), w.reg(ra))
	case opBinI1, opBinI32, opBinI64, opBinF32, opBinF64:
		g.binLanes(in.op, ir.BinKind(in.sub), sel, w.reg(dst), w.reg(ra), w.reg(rb))
	case opBinStore:
		t := col{&w.tmp, MaxWarpWidth - 1}
		g.binLanes(binOpcode(in.kind), ir.BinKind(in.sub), sel, t, w.reg(ra), w.reg(rb))
		g.storeLanes(in.kind, sel, w.reg(rc), t)
	case opLoadBinStore:
		t := col{&w.tmp, MaxWarpWidth - 1}
		g.loadLanes(in.kind, sel, w.reg(ra), t)
		x, y := t, w.reg(rb)
		if in.sub&lbsSwapped != 0 {
			x, y = y, x
		}
		g.binLanes(binOpcode(in.kind), ir.BinKind(in.sub&^lbsSwapped), sel, t, x, y)
		g.storeLanes(in.kind, sel, w.reg(rc), t)
	case opAtomic:
		g.atomicLanes(ir.AtomicKind(in.sub), in.kind, sel, w.reg(dst), w.reg(ra), w.reg(rb))
	case opCmp:
		p, d, a, b := in.sub, w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, boolWord(cmpOp(p, a.at(j), b.at(j))))
		}
	case opMove, opExt:
		d, a := w.reg(dst), w.reg(ra)
		for _, j := range sel {
			d.set(j, a.at(j))
		}
	case opAddI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, i32word(a.at(j)+b.at(j)))
		}
	case opSubI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, i32word(a.at(j)-b.at(j)))
		}
	case opMulI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, i32word(a.at(j)*b.at(j)))
		}
	case opAndI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, a.at(j)&b.at(j))
		}
	case opOrI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, a.at(j)|b.at(j))
		}
	case opXorI32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, a.at(j)^b.at(j))
		}
	case opAddI64:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, a.at(j)+b.at(j))
		}
	case opAddF32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, f32word(flt(a.at(j))+flt(b.at(j))))
		}
	case opSubF32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, f32word(flt(a.at(j))-flt(b.at(j))))
		}
	case opMulF32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, f32word(flt(a.at(j))*flt(b.at(j))))
		}
	case opDivF32:
		d, a, b := w.reg(dst), w.reg(ra), w.reg(rb)
		for _, j := range sel {
			d.set(j, f32word(flt(a.at(j))/flt(b.at(j))))
		}
	case opTruncI1, opTruncI32, opFPToI1, opFPToI32, opFPToI64, opSIToF32, opSIToF64, opFPTrunc:
		op, d, a := in.op, w.reg(dst), w.reg(ra)
		for _, j := range sel {
			d.set(j, castOp(op, a.at(j)))
		}
	case opSelect:
		d, a, b, c := w.reg(dst), w.reg(ra), w.reg(rb), w.reg(rc)
		for _, j := range sel {
			if a.at(j) != 0 {
				d.set(j, b.at(j))
			} else {
				d.set(j, c.at(j))
			}
		}
	case opWI:
		d, a, dim := w.reg(dst), zero, in.imm
		if ra >= 0 {
			a, dim = w.reg(ra), 0
		}
		for _, j := range sel {
			d.set(j, g.l.workItem(in.sub, dim+int64(a.at(j)), &g.group, &w.lanes[j].lid))
		}
	case opMath:
		if dst < 0 {
			break // a sin/cos pair's second, which its first computed
		}
		op, kind, d, a, b := in.sub, in.kind, w.reg(dst), w.reg(ra), zero
		if rc >= 0 {
			e := w.reg(rc)
			for _, j := range sel {
				x, y := sincos(op, kind, flt(a.at(j)))
				d.set(j, x)
				e.set(j, y)
			}
			break
		}
		if rb >= 0 {
			b = w.reg(rb)
		}
		for _, j := range sel {
			d.set(j, fword(evalMath(op, kind, flt(a.at(j)), flt(b.at(j)))))
		}
	default:
		panic(trap{"warp: lane-mode dispatch of unexpected opcode"})
	}
}

// binLanes is d = a op b for the lanes sel. An integer division by zero
// is the one trap, so a zero divisor records its lane.
func (g *vmGroup) binLanes(op vmOp, k ir.BinKind, sel []uint8, d, a, b col) {
	for _, j := range sel {
		y := b.at(j)
		if y == 0 {
			g.lane = j
		}
		d.set(j, binOp(op, k, a.at(j), y))
	}
}

// The memory arms resolve the first active lane's region once per
// instruction (a null or dangling word traps there, on that lane) and
// check once that every lane's access lies inside it (inRegion); a hot
// kind's lane loop then indexes the region's bytes. Otherwise, and for
// bool and pointer kinds, each lane goes through Machine.mem, recorded
// first as the lane its trap is attributed to.

// inRegion reports whether every lane's pointer word in a names r and
// its access of size bytes lies inside r: one bounds check from the
// lowest to the highest offset.
func inRegion(r *Region, sel []uint8, a col, size int64) bool {
	id, lo, hi := uint64(r.ID), int64(math.MaxInt64), int64(math.MinInt64)
	for _, j := range sel {
		p := a.at(j)
		if p>>ptrOffBits != id {
			return false
		}
		lo, hi = min(lo, ptrOff(p)), max(hi, ptrOff(p))
	}
	_, ok := span(r.Bytes, lo, hi-lo+size)
	return ok
}

// loadLanes is d = load of kind through the pointer words a.
func (g *vmGroup) loadLanes(kind ir.Kind, sel []uint8, a, d col) {
	m := g.l.m
	r := m.region(a.at(sel[0]))
	b, fast := r.Bytes, inRegion(r, sel, a, kindSize[kind])
	switch {
	case fast && kind == ir.I32:
		for _, j := range sel {
			off := ptrOff(a.at(j))
			d.set(j, get(ir.I32, b[off:off+4]))
		}
	case fast && kind == ir.F32:
		for _, j := range sel {
			off := ptrOff(a.at(j))
			d.set(j, get(ir.F32, b[off:off+4]))
		}
	case fast && (kind == ir.I64 || kind == ir.F64):
		for _, j := range sel {
			off := ptrOff(a.at(j))
			d.set(j, get(ir.I64, b[off:off+8]))
		}
	default:
		for _, j := range sel {
			g.lane = j
			d.set(j, loadKind[kind](m, a.at(j)))
		}
	}
}

// storeLanes stores the words v of kind through the pointer words a.
func (g *vmGroup) storeLanes(kind ir.Kind, sel []uint8, a, v col) {
	m := g.l.m
	r := m.region(a.at(sel[0]))
	b, fast := r.Bytes, inRegion(r, sel, a, kindSize[kind])
	switch {
	case fast && kind == ir.I32:
		for _, j := range sel {
			off := ptrOff(a.at(j))
			put(ir.I32, b[off:off+4], v.at(j))
		}
	case fast && kind == ir.F32:
		for _, j := range sel {
			off := ptrOff(a.at(j))
			put(ir.F32, b[off:off+4], v.at(j))
		}
	case fast && kind != ir.Bool:
		for _, j := range sel {
			off := ptrOff(a.at(j))
			put(ir.I64, b[off:off+8], v.at(j))
		}
	default:
		for _, j := range sel {
			g.lane = j
			storeKind[kind](m, a.at(j), v.at(j))
		}
	}
}

// atomicLanes is d = the atomic k of kind through the pointer words a
// with the operands b, lane by lane.
func (g *vmGroup) atomicLanes(k ir.AtomicKind, kind ir.Kind, sel []uint8, d, a, b col) {
	m := g.l.m
	r := m.region(a.at(sel[0]))
	size := kindSize[kind]
	if !inRegion(r, sel, a, size) {
		for _, j := range sel {
			g.lane = j
			d.set(j, m.atomicRMW(k, kind, a.at(j), b.at(j)))
		}
		return
	}
	mu := atomicLock(Ptr{R: r})
	for _, j := range sel {
		off := ptrOff(a.at(j))
		d.set(j, rmw(k, kind, mu, r.Bytes[off:off+size], b.at(j)))
	}
}
