package interp

import (
	"fmt"
	"math/bits"

	"repro/internal/ir"
)

// Warp-style batched work-item execution: the work-items of a group run
// in fixed-width batches ("warps") with ONE fetch/decode per instruction
// per warp. Register homes are split by the uniformity analysis
// (warp_compile.go): uniform registers — the same for every lane that
// executes them together — live in a single shared file per warp and
// their instructions execute once per warp (wmOnce);
// divergent registers live in each lane's own file and their
// instructions (wmLane) are decoded once as well, then loop over the
// active lanes inside the opcode's arm (laneExec). Each opcode is
// spelled once: a once-mode instruction other than a jump is laneExec
// over the first active lane, its result stored into the shared file.
//
// A branch on a divergent condition (wmDiverge) splits the warp's
// active-lane mask instead of leaving vector dispatch: one side runs
// first, the other waits on a reconvergence stack, and both resume
// together at the branch block's immediate postdominator. A
// master-only region runs with one lane, `if (i < n)` with the lanes
// that pass; lanes that leave a loop early wait, lanes that return
// early retire, and the rest carry on. Only what the stream cannot
// express SPILLS (wmSpill: a call, a barrier inside a divergent region,
// a trap): the shared registers are broadcast into every lane file and
// the lanes continue on the unmodified per-item scalar path (vm.go),
// re-forming the warp at the next barrier when every surviving lane
// arrives at the same resume pc with a single frame.
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
// local-id order, bit i of every mask being lanes[i]; live are those
// that have not returned. In vector mode the lanes of mask execute at
// pc until they reach rpc, with active listing them for the dispatch
// loop and stack holding the lanes that wait; uregp is the shared file
// the uniform registers live in.
type warp struct {
	lanes  []*wiState
	live   uint64
	uregp  *[]uint64
	steps  int64
	vector bool

	pc, rpc int32
	mask    uint64
	active  []*wiState
	stack   []pendingLanes
}

// run makes the lanes of mask the active ones, at pc until rpc.
func (w *warp) run(pc, rpc int32, mask uint64) {
	w.pc, w.rpc, w.mask = pc, rpc, mask
	w.active = w.active[:0]
	for m := mask; m != 0; m &= m - 1 {
		w.active = append(w.active, w.lanes[bits.TrailingZeros64(m)])
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
// the scalar per-item path after a spill.
func (l *launchCtx) runGroupWarp(gr *groupRunner, g *vmGroup, size, width int, argPatch []uint64) error {
	kcf := l.kcf
	nw := (size + width - 1) / width
	if cap(gr.warps) < nw {
		gr.warps = make([]warp, nw)
	}
	warps := gr.warps[:nw]
	for i := range warps {
		w := &warps[i]
		base := i * width
		n := min(width, size-base)
		w.lanes = w.lanes[:0]
		for j := 0; j < n; j++ {
			wi := &gr.items[base+j]
			wi.lane = uint8(j)
			w.lanes = append(w.lanes, wi)
		}
		w.live = ^uint64(0) >> (64 - n)
		w.uregp = kcf.getRegs()
		uregs := *w.uregp
		copy(uregs, l.argw)
		for pi, la := range l.locals {
			uregs[la.idx] = argPatch[pi]
		}
		w.steps, w.vector, w.stack = 0, true, w.stack[:0]
		w.run(0, noReconv, w.live)
		l.warps.Add(1)
		l.warpLanes.Add(int64(n))
	}
	defer func() {
		for i := range warps {
			kcf.putRegs(warps[i].uregp)
			warps[i].uregp = nil
		}
	}()
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
					return l.groupFault(gr, g, err)
				}
			}
			if !w.vector {
				// Spilled (just now, and the lanes still owe this round
				// their run to the next barrier, or in an earlier round).
				for m := w.live; m != 0; m &= m - 1 {
					wi := w.lanes[bits.TrailingZeros64(m)]
					if err := g.resume(wi); err != nil {
						g.faultWI = wi
						return l.groupFault(gr, g, err)
					}
					if wi.status == wiDone {
						w.live &^= 1 << wi.lane
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
// single frame. The shared file is re-gathered from the first surviving
// lane. A uniform value defined in a divergent region is never live
// outside it (temporal rule, passes.Uniformity), so a control-uniform
// barrier sees only warp-invariant uniform registers: all lane copies
// of one that can still be read agree.
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
	uregs := *w.uregp
	l0 := w.lanes[bits.TrailingZeros64(w.live)].kregs
	for _, r := range cf.uniformRegs {
		uregs[r] = l0[r]
	}
	w.vector = true
	w.run(pc, noReconv, w.live)
	return true
}

// warpResume runs a warp's vector dispatch until its next suspension
// point (barrier, wholesale return, or spill), converting traps into
// errors. The faulting lane is left in g.faultWI.
func (g *vmGroup) warpResume(w *warp) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(trap); ok {
				err = t
				return
			}
			err = fmt.Errorf("interp: panic: %v", r)
		}
	}()
	g.warpExec(w)
	return nil
}

// warpSpill hands every live lane to the scalar path: the active lanes
// re-execute pc, a waiting lane resumes where the topmost stack entry
// holding it would have resumed it, and each lane file receives the
// shared registers and the constant tail it did not need until now.
func (g *vmGroup) warpSpill(w *warp, pc int32) {
	cf := g.l.kcf
	uregs := *w.uregp
	placed := w.mask
	for _, wi := range w.active {
		wi.frames[0].pc = pc
	}
	for i := len(w.stack) - 1; i >= 0; i-- {
		e := w.stack[i]
		for m := e.mask & w.live &^ placed; m != 0; m &= m - 1 {
			w.lanes[bits.TrailingZeros64(m)].frames[0].pc = e.pc
		}
		placed |= e.mask
	}
	for m := w.live; m != 0; m &= m - 1 {
		wi := w.lanes[bits.TrailingZeros64(m)]
		for _, r := range cf.uniformRegs {
			wi.kregs[r] = uregs[r]
		}
		copy(wi.kregs[cf.constBase:], cf.consts)
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

// shared resolves a lane-mode operand register's home once per
// instruction: its slot in the warp's shared file if the register is
// uniform, nil if it is divergent and every lane reads its own file
// (at).
func shared(uniform []bool, uregs []uint64, r int32) *uint64 {
	if uniform[r] {
		return &uregs[r]
	}
	return nil
}

// at is one lane's operand: the resolved shared slot, or register r of
// the lane file lr.
func at(s *uint64, lr []uint64, r int32) *uint64 {
	if s != nil {
		return s
	}
	return &lr[r]
}

// warpExec is the vector dispatch loop: one fetch/decode per
// instruction per warp. A lane-mode instruction goes to laneExec, which
// loops the active lanes inside its arm. A once-mode one is a jump,
// taken here, or a data instruction, which laneExec runs for the first
// active lane alone; its result is then copied into the shared file.
// That lane's copy of a uniform register is never read in vector mode,
// and warpSpill overwrites it before the scalar path could. Instruction
// cost is charged per active lane (n steps per dispatch), so the launch
// instruction budget is engine-invariant; so is the execution
// profile, which lands every active lane at each control transfer.
func (g *vmGroup) warpExec(w *warp) {
	l := g.l
	cf := l.kcf
	code := cf.code
	wmode := cf.wmode
	uniform := cf.uniform
	uregs := *w.uregp
	lanes := w.active
	n := int64(len(lanes))
	pc, rpc := w.pc, w.rpc
	steps := w.steps
	gp := g.prof
	var diverges int64
	g.faultWI = lanes[0]

	for {
		if pc == rpc {
			// The active lanes are where the branch that split them off
			// reconverges: they wait in the entry that holds the lanes
			// of before the split, below whatever else is still to run.
			if !w.resumePending() {
				panic(trap{"warp: reconvergence stack underflow"})
			}
			lanes, n, pc, rpc = w.active, int64(len(w.active)), w.pc, w.rpc
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
			l.addSteps(steps)
			steps = 0
		}
		switch mode {
		case wmOnce:
			g.faultWI = lanes[0]
			lr := lanes[0].kregs
			switch in.op {
			case opJump:
				pc = int32(in.imm)
				if gp != nil {
					gp.land(cf, pc, n)
				}
			case opCondJump:
				if *at(shared(uniform, uregs, in.a), lr, in.a) != 0 {
					pc = in.b
				} else {
					pc = in.c
				}
				if gp != nil {
					gp.land(cf, pc, n)
				}
			case opCmpJump:
				a, b := at(shared(uniform, uregs, in.a), lr, in.a), at(shared(uniform, uregs, in.b), lr, in.b)
				if cmpOp(in.sub, *a, *b) {
					pc = in.c
				} else {
					pc = int32(in.imm)
				}
				if gp != nil {
					gp.land(cf, pc, n)
				}
			default:
				// The first active lane's file also holds the phi-cycle
				// scratch, the one divergent-homed operand a once-mode
				// instruction can read. Store and bin-store have no
				// result; their dst is 0, a parameter register.
				g.laneExec(in, lanes[:1], uregs)
				if op := in.op; op != opBinStore && (op < opStoreI1 || op > opStorePtr) {
					uregs[in.dst] = lr[in.dst]
				}
			}

		case wmLane:
			g.laneExec(in, lanes, uregs)

		case wmDiverge:
			// Every active lane evaluates the branch; taken collects the
			// lanes whose condition holds.
			var taken uint64
			var tpc, fpc int32
			switch in.op {
			case opCondJump:
				tpc, fpc = in.b, in.c
				a := shared(uniform, uregs, in.a)
				for _, wi := range lanes {
					if *at(a, wi.kregs, in.a) != 0 {
						taken |= 1 << wi.lane
					}
				}
			case opCmpJump:
				tpc, fpc = in.c, int32(in.imm)
				p := in.sub
				a, b := shared(uniform, uregs, in.a), shared(uniform, uregs, in.b)
				for _, wi := range lanes {
					if cmpOp(p, *at(a, wi.kregs, in.a), *at(b, wi.kregs, in.b)) {
						taken |= 1 << wi.lane
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
				lanes, n, pc, rpc = w.active, int64(len(w.active)), w.pc, w.rpc
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
			for _, wi := range lanes {
				wi.frames[0].pc = pc
				wi.status = wiBarrier
			}
			w.pc = pc
			l.suspend(w, steps, diverges, true)
			return

		case wmRet:
			for _, wi := range lanes {
				wi.frames[0] = vmFrame{}
				wi.frames = wi.frames[:0]
				wi.status = wiDone
			}
			w.live &^= w.mask
			if !w.resumePending() {
				l.suspend(w, steps, diverges, false)
				return
			}
			lanes, n, pc, rpc = w.active, int64(len(w.active)), w.pc, w.rpc
		}
	}
}

// laneExec executes one data instruction for lanes: the active lanes of
// a lane-mode instruction, or the first active lane alone of a
// once-mode one (warpExec copies its result into the shared file). It
// decodes the instruction and resolves each operand's home once, then
// loops the lanes inside the opcode's arm. A fault is attributed to the
// first active lane, except in the arms that can trap on one lane's own
// data (an out-of-bounds load, store or atomic, a GEP on a null pointer,
// an integer division by zero): there each lane records itself before
// it runs, as the scalar engine's item order would.
func (g *vmGroup) laneExec(in *instr, lanes []*wiState, uregs []uint64) {
	l := g.l
	m := l.m
	uniform := l.kcf.uniform
	dst, ra, rb, rc := in.dst, in.a, in.b, in.c
	g.faultWI = lanes[0]
	switch in.op {
	case opAlloca:
		for _, wi := range lanes {
			wi.kregs[dst] = g.ar.alloc(in.imm, ir.AddrSpace(in.sub))
		}
	case opAllocaLocal:
		p := g.local(ra, in.imm)
		for _, wi := range lanes {
			wi.kregs[dst] = p
		}
	case opLoadI1, opLoadI32, opLoadI64, opLoadF32, opLoadF64, opLoadPtr:
		load := loadKind[in.kind]
		a := shared(uniform, uregs, ra)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = load(m, *at(a, lr, ra))
		}
	case opLoadIdx:
		load, scale := loadKind[in.kind], in.imm
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = load(m, gep(*at(a, lr, ra), int64(*at(b, lr, rb))*scale))
		}
	case opLoadOff:
		load, off := loadKind[in.kind], in.imm
		a := shared(uniform, uregs, ra)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = load(m, gep(*at(a, lr, ra), off))
		}
	case opStoreI1, opStoreI32, opStoreI64, opStoreF32, opStoreF64, opStorePtr:
		store := storeKind[in.kind]
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			store(m, *at(b, lr, rb), *at(a, lr, ra))
		}
	case opGEP:
		scale := in.imm
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = gep(*at(a, lr, ra), int64(*at(b, lr, rb))*scale)
		}
	case opGEPConst:
		off := in.imm
		a := shared(uniform, uregs, ra)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = gep(*at(a, lr, ra), off)
		}
	case opBinI1, opBinI32, opBinI64, opBinF32, opBinF64:
		op, k := in.op, ir.BinKind(in.sub)
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = binOp(op, k, *at(a, lr, ra), *at(b, lr, rb))
		}
	case opBinStore:
		op, k, store := binOpcode(in.kind), ir.BinKind(in.sub), storeKind[in.kind]
		a, b, c := shared(uniform, uregs, ra), shared(uniform, uregs, rb), shared(uniform, uregs, rc)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			store(m, *at(c, lr, rc), binOp(op, k, *at(a, lr, ra), *at(b, lr, rb)))
		}
	case opLoadBinStore:
		op, k, swapped := binOpcode(in.kind), ir.BinKind(in.sub&^lbsSwapped), in.sub&lbsSwapped != 0
		load, store := loadKind[in.kind], storeKind[in.kind]
		a, b, c := shared(uniform, uregs, ra), shared(uniform, uregs, rb), shared(uniform, uregs, rc)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			x, y := load(m, *at(a, lr, ra)), *at(b, lr, rb)
			if swapped {
				x, y = y, x
			}
			store(m, *at(c, lr, rc), binOp(op, k, x, y))
		}
	case opAtomic:
		k := ir.AtomicKind(in.sub)
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			g.faultWI = wi
			lr := wi.kregs
			lr[dst] = m.atomicRMW(k, in.kind, *at(a, lr, ra), *at(b, lr, rb))
		}
	case opCmp:
		p := in.sub
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = boolWord(cmpOp(p, *at(a, lr, ra), *at(b, lr, rb)))
		}
	case opMove, opExt:
		a := shared(uniform, uregs, ra)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = *at(a, lr, ra)
		}
	case opAddI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = i32word(*at(a, lr, ra) + *at(b, lr, rb))
		}
	case opSubI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = i32word(*at(a, lr, ra) - *at(b, lr, rb))
		}
	case opMulI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = i32word(*at(a, lr, ra) * *at(b, lr, rb))
		}
	case opAndI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = *at(a, lr, ra) & *at(b, lr, rb)
		}
	case opOrI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = *at(a, lr, ra) | *at(b, lr, rb)
		}
	case opXorI32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = *at(a, lr, ra) ^ *at(b, lr, rb)
		}
	case opAddI64:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = *at(a, lr, ra) + *at(b, lr, rb)
		}
	case opAddF32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = f32word(flt(*at(a, lr, ra)) + flt(*at(b, lr, rb)))
		}
	case opSubF32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = f32word(flt(*at(a, lr, ra)) - flt(*at(b, lr, rb)))
		}
	case opMulF32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = f32word(flt(*at(a, lr, ra)) * flt(*at(b, lr, rb)))
		}
	case opDivF32:
		a, b := shared(uniform, uregs, ra), shared(uniform, uregs, rb)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = f32word(flt(*at(a, lr, ra)) / flt(*at(b, lr, rb)))
		}
	case opTruncI1, opTruncI32, opFPToI1, opFPToI32, opFPToI64, opSIToF32, opSIToF64, opFPTrunc:
		op := in.op
		a := shared(uniform, uregs, ra)
		for _, wi := range lanes {
			lr := wi.kregs
			lr[dst] = castOp(op, *at(a, lr, ra))
		}
	case opSelect:
		a, b, c := shared(uniform, uregs, ra), shared(uniform, uregs, rb), shared(uniform, uregs, rc)
		for _, wi := range lanes {
			lr := wi.kregs
			if *at(a, lr, ra) != 0 {
				lr[dst] = *at(b, lr, rb)
			} else {
				lr[dst] = *at(c, lr, rc)
			}
		}
	case opWI:
		var a *uint64
		if ra >= 0 {
			a = shared(uniform, uregs, ra)
		}
		for _, wi := range lanes {
			lr := wi.kregs
			dim := in.imm
			if ra >= 0 {
				dim = int64(*at(a, lr, ra))
			}
			lr[dst] = l.workItem(in.sub, dim, &g.group, &wi.lid)
		}
	case opMath:
		op, kind := in.sub, in.kind
		a := shared(uniform, uregs, ra)
		var b *uint64
		if rb >= 0 {
			b = shared(uniform, uregs, rb)
		}
		for _, wi := range lanes {
			lr := wi.kregs
			var y uint64
			if rb >= 0 {
				y = *at(b, lr, rb)
			}
			lr[dst] = fword(evalMath(op, kind, flt(*at(a, lr, ra)), flt(y)))
		}
	default:
		panic(trap{"warp: lane-mode dispatch of unexpected opcode"})
	}
}
