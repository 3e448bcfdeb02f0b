package interp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ir"
)

// This file is the bytecode VM and its execution engine:
//
//   - work-items execute over flat register files with an explicit frame
//     stack, so a work-item suspends at a barrier at ANY call depth by
//     saving (pc, frames) — no goroutine per work-item;
//   - the work-items of one group run cooperatively in local-id order,
//     yielding only at barriers (one "round" between barriers replaces
//     the old cyclic-barrier rendezvous);
//   - work-groups are independent by construction and run in parallel on
//     a bounded worker pool, cutting goroutine count per launch from
//     Global work-items to O(NumCPU);
//   - kernel-frame register files are windows of one slab per group,
//     callee frames, per-group local regions and per-item private
//     allocas come from pools and bump arenas, so repeated sliced
//     launches on pooled machines stop allocating per slice;
//   - there is one scalar dispatch loop (exec). Execution profiling does
//     not duplicate it: a sampled group records where control lands
//     (kernel and callee entry, every jump target) and profile.go
//     derives instruction, opcode, barrier and block counts from that.
//
// Semantics are shared with the warp loops (warp.go) and the reference
// tree-walker (exec.go) through one set of helpers (exec.go, load and
// store in memory.go); load, binOp, castOp and atomicRMW write their
// result in place through a destination register pointer. The Parboil
// differential parity suite holds the engines byte-identical.

type wiStatus uint8

const (
	wiRunning wiStatus = iota
	wiBarrier          // suspended at a work-group barrier
	wiDone             // returned from the kernel frame
)

// vmFrame is one suspended or active function activation. regp is the
// register-file pointer: of a callee frame, the pooled file, which
// returns to the pool verbatim when the frame pops; of the kernel frame
// (index 0), the work-item's window of the group's slab.
type vmFrame struct {
	cf   *compiledFn
	regp *[]Value
	pc   int32
	dst  int32 // caller register receiving the return value (-1: none)
}

// wiState is the full execution state of one work-item: a stack of
// frames plus its local id. Suspending at a barrier is just returning
// with the stack intact.
type wiState struct {
	frames []vmFrame
	kregs  []Value // kernel-frame register file (frames[0].regp points here)
	lid    [3]int64
	status wiStatus
	lane   uint8 // bit of this work-item in its warp's lane masks
	steps  int64 // batched instruction count not yet flushed to the launch budget
}

// arena bump-allocates private and local regions for the groups one
// worker runs. Regions are never recycled within a launch (a dangling
// pointer into a dead frame's alloca reads exactly what the reference
// engine would read), but the backing chunks amortize allocation and
// arrive pre-zeroed.
type arena struct {
	buf     []byte
	regions []Region
}

const arenaChunk = 64 << 10

func (a *arena) alloc(size int64, space ir.AddrSpace) *Region {
	if size > int64(len(a.buf)) {
		n := int64(arenaChunk)
		if size > n {
			n = size
		}
		a.buf = make([]byte, n)
	}
	b := a.buf[:size:size]
	a.buf = a.buf[size:]
	if len(a.regions) == 0 {
		a.regions = make([]Region, 64)
	}
	r := &a.regions[0]
	a.regions = a.regions[1:]
	*r = Region{Bytes: b, Space: space}
	return r
}

// groupRunner is one worker's reusable scratch: work-item states, the
// slab their kernel-frame register files are cut from, the warps, the
// per-group local-region table and the alloca arena. Runners are pooled
// across launches and machines.
type groupRunner struct {
	items  []wiState
	slab   []Value
	dirty  int // slab prefix written since the last scrub
	warps  []warp
	locals []*Region
	ar     arena
}

var runnerPool = sync.Pool{New: func() any { return new(groupRunner) }}

// kernelRegs cuts one register file per work-item out of the runner's
// slab. The files are not cleared between the groups of a launch: every
// register is written before it is read (SSA dominance; constants and
// arguments are filled in by whoever runs the item), and whatever a
// group leaves behind belongs to the same launch.
func (gr *groupRunner) kernelRegs(size, nregs int) {
	need := size * nregs
	if cap(gr.slab) < need {
		gr.slab = make([]Value, need)
		gr.dirty = 0
	}
	gr.dirty = max(gr.dirty, need)
	slab := gr.slab[:need]
	for i := range gr.items {
		gr.items[i].kregs = slab[i*nregs : (i+1)*nregs : (i+1)*nregs]
	}
}

// scrub returns the runner to the pool with nothing of the finished
// launch in it: a pooled runner serves any tenant next, and stale
// register values would also pin the regions they point to.
func (gr *groupRunner) scrub() {
	clear(gr.slab[:gr.dirty])
	gr.dirty = 0
	runnerPool.Put(gr)
}

// vmGroup is the execution context of one work-group.
type vmGroup struct {
	l      *launchCtx
	group  [3]int64
	locals []*Region
	ar     *arena

	// prof is non-nil when this group was sampled for execution
	// profiling: the dispatch loops record where control lands.
	prof groupProfile

	// faultWI is the work-item a fault is attributed to (groupFault).
	faultWI *wiState
}

// stepBatch is how many instructions a work-item executes between
// flushes to the launch-global instruction budget.
const stepBatch = 4096

// launchVM runs the kernel's work-groups on persistent workers: the
// claim loop pulls work-group linear indices from an atomic cursor and
// runs them to completion. The launching goroutine always runs a claim
// loop itself; up to workers-1 helpers are borrowed from the machine's
// WorkerPool (no goroutine is ever spawned per launch — tiny slices on
// pooled machines used to pay GOMAXPROCS spawns each). The first
// faulting group (in linear order) wins error reporting, as under the
// old sequential group loop.
func (m *Machine) launchVM(fn *ir.Function, args []Value, locals []localArg, nd NDRange) error {
	prog := m.Program()
	kcf := prog.fns[fn.Name]
	if kcf == nil {
		return fmt.Errorf("interp: kernel %q not compiled", fn.Name)
	}
	l := &launchCtx{m: m, fn: fn, args: args, locals: locals, nd: nd, ng: nd.NumGroups(), prog: prog, kcf: kcf, maxSteps: m.maxSteps()}
	total := l.ng[0] * l.ng[1] * l.ng[2]
	if p := m.Profiler; p != nil {
		l.prof = p
		l.kp = p.kernel(fn.Name)
		// A kernel's groups form one stream across its launches and
		// every every-th slot of the stream is sampled, so launches of
		// any group count T sample ⌊groups/every⌋ of them. This launch
		// takes the next total slots; its groups map onto them rotated
		// by a hash of the launch ordinal (Fibonacci hashing, so
		// launches that sample land on unrelated rotations whatever the
		// period), and the sampled group walks across the grid over
		// repeats instead of staying at one place.
		l.profBase = l.kp.groupsSeen.Add(total) - total
		c := uint64(l.kp.launches.Add(1) - 1)
		l.profRot = int64((c*0x9E3779B97F4A7C15)>>33) % total
	}
	defer l.flushWarpStats()
	workers := int64(Lanes())
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		gr := runnerPool.Get().(*groupRunner)
		defer gr.scrub()
		for i := int64(0); i < total; i++ {
			if err := l.runGroupVM(gr, i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64
		abort   atomic.Bool
		mu      sync.Mutex
		bestIdx = int64(-1)
		bestErr error
		wg      sync.WaitGroup
	)
	claim := func() {
		gr := runnerPool.Get().(*groupRunner)
		defer gr.scrub()
		for !abort.Load() {
			i := next.Add(1) - 1
			if i >= total {
				return
			}
			if err := l.runGroupVM(gr, i); err != nil {
				mu.Lock()
				if bestIdx < 0 || i < bestIdx {
					bestIdx, bestErr = i, err
				}
				mu.Unlock()
				abort.Store(true)
			}
		}
	}
	pool := m.Workers
	if pool == nil {
		pool = defaultWorkers()
	}
	for w := int64(1); w < workers; w++ {
		wg.Add(1)
		if !pool.TrySubmit(func() { defer wg.Done(); claim() }) {
			// Every worker is busy with other launches; their claim
			// loops drain those first, so run this launch here instead
			// of queueing behind them.
			wg.Done()
			break
		}
	}
	claim()
	wg.Wait()
	return bestErr
}

func delinearize(i int64, ng [3]int64) [3]int64 {
	return [3]int64{i % ng[0], (i / ng[0]) % ng[1], i / (ng[0] * ng[1])}
}

// fastCmp is cmpOp over register pointers, returning the bare verdict.
func fastCmp(p ir.CmpPred, x, y *Value) bool {
	if !p.IsFloatPred() && x.K != ir.Pointer {
		xi, yi := x.I, y.I
		switch p {
		case ir.IEQ:
			return xi == yi
		case ir.INE:
			return xi != yi
		case ir.ILT:
			return xi < yi
		case ir.ILE:
			return xi <= yi
		case ir.IGT:
			return xi > yi
		case ir.IGE:
			return xi >= yi
		}
	}
	return cmpOp(p, *x, *y).Bool()
}

// runGroupVM executes one work-group cooperatively: every live work-item
// is resumed once per round and runs until its next barrier (or until it
// returns); when the round ends, all live items have arrived, which IS
// the barrier release. Completed items count as arrived at every later
// barrier, so a group whose items retire at different loop trip counts
// drains instead of deadlocking. lin is the group's linear index.
func (l *launchCtx) runGroupVM(gr *groupRunner, lin int64) error {
	group := delinearize(lin, l.ng)
	nd := l.nd
	size := int(nd.WGSize())
	if cap(gr.items) < size {
		gr.items = make([]wiState, size)
	}
	gr.items = gr.items[:size]
	nslots := len(l.prog.localSizes)
	if cap(gr.locals) < nslots {
		gr.locals = make([]*Region, nslots)
	}
	gr.locals = gr.locals[:nslots]
	clear(gr.locals)
	g := &vmGroup{l: l, group: group, locals: gr.locals, ar: &gr.ar}
	if p := l.prof; p != nil {
		// Sample the group whose slot of the kernel's group stream is a
		// multiple of the period (see launchVM).
		total := l.ng[0] * l.ng[1] * l.ng[2]
		if (l.profBase+(lin+l.profRot)%total+1)%p.every == 0 {
			// Every work-item enters the kernel frame once.
			g.prof = groupProfile{}
			g.prof.land(l.kcf, 0, int64(size))
		}
	}

	// Materialize host-declared local arguments: one region per group,
	// patched over the LocalArgV placeholder in every item's registers.
	var largs [8]Value
	argPatch := largs[:0]
	for _, la := range l.locals {
		r := g.ar.alloc(la.size, ir.Local)
		argPatch = append(argPatch, Value{K: ir.Pointer, P: Ptr{R: r}})
	}

	gr.kernelRegs(size, l.kcf.nregs)
	i := 0
	for lz := int64(0); lz < nd.Local[2]; lz++ {
		for ly := int64(0); ly < nd.Local[1]; ly++ {
			for lx := int64(0); lx < nd.Local[0]; lx++ {
				wi := &gr.items[i]
				i++
				wi.lid = [3]int64{lx, ly, lz}
				wi.status = wiRunning
				wi.steps = 0
				wi.frames = append(wi.frames[:0], vmFrame{cf: l.kcf, regp: &wi.kregs, pc: 0, dst: -1})
			}
		}
	}

	if ww := l.prog.warpWidth; ww > 1 && size > 1 && len(l.kcf.wmode) > 0 {
		return l.runGroupWarp(gr, g, size, ww, argPatch)
	}

	for i := range gr.items {
		l.fillKernelRegs(gr.items[i].kregs, argPatch)
	}

	live := size
	for live > 0 {
		for i := range gr.items {
			wi := &gr.items[i]
			if wi.status == wiDone {
				continue
			}
			if err := g.resume(wi); err != nil {
				g.faultWI = wi
				return l.groupFault(gr, g, err)
			}
			if wi.status == wiDone {
				live--
			}
		}
	}
	if g.prof != nil {
		l.kp.flush(g.prof)
	}
	return nil
}

// fillKernelRegs prepares a kernel-frame register file for scalar
// execution: arguments (host-declared local arguments patched to this
// group's regions) at the front, the constant tail at the back.
func (l *launchCtx) fillKernelRegs(regs []Value, argPatch []Value) {
	copy(regs, l.args)
	for pi, la := range l.locals {
		regs[la.idx] = argPatch[pi]
	}
	copy(regs[l.kcf.constBase:], l.kcf.consts)
}

// release returns the callee frames of every unfinished work-item after
// a fault so pooled register files are not pinned by the abandoned
// group (kernel frames live in the runner's slab).
func (g *vmGroup) release(gr *groupRunner) {
	for i := range gr.items {
		wi := &gr.items[i]
		for f := range wi.frames {
			if f > 0 {
				wi.frames[f].cf.putRegs(wi.frames[f].regp)
			}
			wi.frames[f] = vmFrame{}
		}
		wi.frames = wi.frames[:0]
	}
}

// resume runs a work-item until its next suspension point, converting
// execution faults (traps) into errors.
func (g *vmGroup) resume(wi *wiState) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(trap); ok {
				err = t
				return
			}
			err = fmt.Errorf("interp: panic: %v", r)
		}
	}()
	g.exec(wi)
	return nil
}

// exec is the scalar dispatch loop, the only one. It caches the top
// frame in locals and only touches the frame stack on call, return and
// barrier. A sampled group (gp != nil) records where control lands — the
// target of every jump and the callee's entry — one nil check per control
// transfer, nothing per instruction; profile.go derives the rest.
func (g *vmGroup) exec(wi *wiState) {
	gp := g.prof
	l := g.l
	m := l.m
	top := len(wi.frames) - 1
	cf := wi.frames[top].cf
	code := cf.code
	regs := *wi.frames[top].regp
	pc := wi.frames[top].pc
	steps := wi.steps

	for {
		in := &code[pc]
		pc++
		steps++
		if steps >= stepBatch {
			l.addSteps(steps)
			steps = 0
		}
		switch in.op {
		case opAlloca:
			r := g.ar.alloc(in.imm, ir.AddrSpace(in.sub))
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: r}}
		case opAllocaLocal:
			r := g.locals[in.a]
			if r == nil {
				r = g.ar.alloc(in.imm, ir.Local)
				g.locals[in.a] = r
			}
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: r}}
		case opLoad:
			m.load(&regs[in.dst], kindTypes[in.kind], regs[in.a].P)
		case opStore:
			m.store(kindTypes[in.kind], regs[in.a], regs[in.b].P)
		case opGEP:
			base := regs[in.a].P
			checkGEP(base)
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + regs[in.b].I*in.imm}}
		case opGEPConst:
			base := regs[in.a].P
			checkGEP(base)
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + in.imm}}
		case opBin:
			// Operands and result stay in the register file: binOp reads
			// through x and y and writes through d, so no 40-byte Value is
			// copied into or returned from the call.
			binOp(&regs[in.dst], ir.BinKind(in.sub), in.kind, &regs[in.a], &regs[in.b])
		case opCmp:
			regs[in.dst] = BoolV(fastCmp(ir.CmpPred(in.sub), &regs[in.a], &regs[in.b]))
		case opMove:
			regs[in.dst] = regs[in.a]
		case opAddI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I + regs[in.b].I))}
		case opSubI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I - regs[in.b].I))}
		case opMulI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I * regs[in.b].I))}
		case opAndI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I & regs[in.b].I))}
		case opOrI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I | regs[in.b].I))}
		case opXorI32:
			regs[in.dst] = Value{K: ir.I32, I: int64(int32(regs[in.a].I ^ regs[in.b].I))}
		case opAddI64:
			regs[in.dst] = Value{K: ir.I64, I: regs[in.a].I + regs[in.b].I}
		case opAddF32:
			regs[in.dst] = Value{K: ir.F32, F: float64(float32(regs[in.a].F + regs[in.b].F))}
		case opSubF32:
			regs[in.dst] = Value{K: ir.F32, F: float64(float32(regs[in.a].F - regs[in.b].F))}
		case opMulF32:
			regs[in.dst] = Value{K: ir.F32, F: float64(float32(regs[in.a].F * regs[in.b].F))}
		case opDivF32:
			regs[in.dst] = Value{K: ir.F32, F: float64(float32(regs[in.a].F / regs[in.b].F))}
		case opCmpJump:
			if fastCmp(ir.CmpPred(in.sub), &regs[in.a], &regs[in.b]) {
				pc = in.c
			} else {
				pc = int32(in.imm)
			}
			if gp != nil {
				gp.land(cf, pc, 1)
			}
		case opBinStore:
			var v Value
			binOp(&v, ir.BinKind(in.sub), in.kind, &regs[in.a], &regs[in.b])
			m.store(kindTypes[in.kind], v, regs[in.c].P)
		case opLoadBinStore:
			t := kindTypes[in.kind]
			var v Value
			m.load(&v, t, regs[in.a].P)
			x, y := &v, &regs[in.b]
			if in.sub&lbsSwapped != 0 {
				x, y = y, x
			}
			binOp(&v, ir.BinKind(in.sub&^lbsSwapped), in.kind, x, y)
			m.store(t, v, regs[in.c].P)
		case opLoadIdx:
			base := regs[in.a].P
			checkGEP(base)
			m.load(&regs[in.dst], kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + regs[in.b].I*in.imm})
		case opLoadOff:
			base := regs[in.a].P
			checkGEP(base)
			m.load(&regs[in.dst], kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + in.imm})
		case opCast:
			castOp(&regs[in.dst], ir.CastKind(in.sub), in.kind, &regs[in.a])
		case opSelect:
			if regs[in.a].Bool() {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case opAtomic:
			m.atomicRMW(&regs[in.dst], ir.AtomicKind(in.sub), kindTypes[in.kind], regs[in.a].P, &regs[in.b])
		case opBarrier:
			wi.frames[top].pc = pc
			wi.status = wiBarrier
			wi.steps = steps
			return
		case opCall:
			if top+1 > maxCallDepth {
				panic(trap{"call depth exceeded (runaway recursion?)"})
			}
			wi.frames[top].pc = pc
			callee := in.fn
			cregp := callee.getRegs()
			cregs := *cregp
			for ai, ar := range in.args {
				cregs[ai] = regs[ar]
			}
			wi.frames = append(wi.frames, vmFrame{cf: callee, regp: cregp, pc: 0, dst: in.dst})
			top++
			cf, code, regs, pc = callee, callee.code, cregs, 0
			if gp != nil {
				gp.land(cf, 0, 1)
			}
		case opWI:
			dim := in.imm
			if in.a >= 0 {
				dim = regs[in.a].I
			}
			l.workItem(&regs[in.dst], in.sub, dim, &g.group, &wi.lid)
		case opMath:
			x := regs[in.a].F
			var y float64
			if in.b >= 0 {
				y = regs[in.b].F
			}
			regs[in.dst] = Value{K: in.kind, F: evalMath(in.sub, in.kind, x, y)}
		case opJump:
			pc = int32(in.imm)
			if gp != nil {
				gp.land(cf, pc, 1)
			}
		case opCondJump:
			if regs[in.a].Bool() {
				pc = in.b
			} else {
				pc = in.c
			}
			if gp != nil {
				gp.land(cf, pc, 1)
			}
		case opRet:
			if top == 0 {
				// The kernel frame's registers are the group slab's.
				wi.frames[0] = vmFrame{}
				wi.frames = wi.frames[:0]
				wi.status = wiDone
				wi.steps = steps
				return
			}
			var rv Value
			if in.a >= 0 {
				rv = regs[in.a]
			}
			cf.putRegs(wi.frames[top].regp)
			dst := wi.frames[top].dst
			wi.frames[top] = vmFrame{}
			wi.frames = wi.frames[:top]
			top--
			fr := &wi.frames[top]
			cf, code, regs, pc = fr.cf, fr.cf.code, *fr.regp, fr.pc
			if dst >= 0 {
				regs[dst] = rv
			}
		case opTrap:
			panic(trap{in.msg})
		}
	}
}
