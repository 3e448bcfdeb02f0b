package interp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
)

// This file is the bytecode VM and its execution engine:
//
//   - work-items execute over flat register files of one-word registers
//     (an integer sign-extended, a float as float64 bits, a pointer as
//     the word memory stores; Machine.word) with an explicit frame
//     stack, so a work-item suspends at a barrier at ANY call depth by
//     saving (pc, frames) — no goroutine per work-item;
//   - the work-items of one group run cooperatively in local-id order,
//     yielding only at barriers (one "round" between barriers);
//   - work-groups are independent by construction and run in parallel on
//     a bounded worker pool, cutting goroutine count per launch from
//     Global work-items to O(NumCPU);
//   - kernel-frame register files are windows of one slab per group
//     runner (per item on the scalar path, per warp in warp mode),
//     callee frames, per-group local regions and per-item private
//     allocas come from pools and bump arenas, so repeated sliced
//     launches on pooled machines stop allocating per slice;
//   - there is one scalar dispatch loop (exec). Execution profiling does
//     not duplicate it: a profiled group records where control lands
//     (kernel and callee entry, every jump target) and profile.go
//     derives instruction, opcode, barrier and block counts from that.
//
// The compiler types every value-producing opcode (compile.go), so an
// arm never asks what kind its operands are. Semantics are shared with
// the warp loops (warp.go) and the reference tree-walker (exec.go)
// through one set of helpers over register words (exec.go; the typed
// loads and stores in memory.go), which the tree-walker reaches by
// converting its Values at their boundary. The Parboil differential
// parity suite holds the engines byte-identical.

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
	regp *[]uint64
	pc   int32
	dst  int32 // caller register receiving the return value (-1: none)
}

// wiState is the full execution state of one work-item: a stack of
// frames plus its local id. Suspending at a barrier is just returning
// with the stack intact.
type wiState struct {
	frames []vmFrame
	kregs  []uint64 // kernel-frame register file on the scalar path (frames[0].regp points here)
	lid    [3]int64
	status wiStatus
	steps  int64 // batched instruction count not yet flushed to the launch budget
}

// arena bump-allocates private and local regions for the groups one
// worker runs and registers each under an ID from a block it reserves
// from the launch's machine (use). Regions are never recycled within a
// launch (a dangling pointer into a dead frame's alloca reads exactly
// what the reference engine would read), but the backing chunks
// amortize allocation and arrive pre-zeroed.
type arena struct {
	buf     []byte
	regions []Region
	tab     *regionTable
	id, end int // the reserved IDs not yet given out
}

const (
	arenaChunk   = 64 << 10
	arenaIDBlock = 64
)

// use points the arena at the machine a launch runs on.
func (a *arena) use(t *regionTable) { a.tab, a.id, a.end = t, 0, 0 }

// alloc returns the pointer word of a fresh zeroed region.
func (a *arena) alloc(size int64, space ir.AddrSpace) uint64 {
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
	if a.id == a.end {
		a.id = a.tab.reserve(arenaIDBlock)
		a.end = a.id + arenaIDBlock
	}
	a.tab.set(r, a.id)
	a.id++
	return uint64(r.ID) << ptrOffBits
}

// groupRunner is one worker's reusable scratch: work-item states, the
// slab the kernel-frame register files (per item, or per warp) are cut
// from, the warps, the per-group local-region table and the alloca
// arena. Runners are pooled across launches and machines.
type groupRunner struct {
	items  []wiState
	slab   []uint64
	dirty  int // slab prefix written since the last scrub
	warps  []warp
	locals []uint64
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
	slab := gr.grow(need)
	gr.dirty = max(gr.dirty, need)
	for i := range gr.items {
		gr.items[i].kregs = slab[i*nregs : (i+1)*nregs : (i+1)*nregs]
	}
}

// grow returns the slab's first need words; the caller marks what it
// writes dirty.
func (gr *groupRunner) grow(need int) []uint64 {
	if cap(gr.slab) < need {
		gr.slab = make([]uint64, need)
		gr.dirty = 0
	}
	return gr.slab[:need]
}

// scrub returns the runner to the pool with nothing of the finished
// launch in it: a pooled runner serves any tenant next.
func (gr *groupRunner) scrub() {
	clear(gr.slab[:gr.dirty])
	gr.dirty = 0
	gr.ar.tab = nil
	runnerPool.Put(gr)
}

// getRunner takes a pooled runner for a launch on the machine m.
func getRunner(m *Machine) *groupRunner {
	gr := runnerPool.Get().(*groupRunner)
	gr.ar.use(&m.regions)
	return gr
}

// vmGroup is the execution context of one work-group.
type vmGroup struct {
	l      *launchCtx
	group  [3]int64
	locals []uint64 // pointer words of the group's local regions, by slot (0: not yet)
	ar     *arena

	// prof is non-nil when the machine has a profiler: the dispatch
	// loops record where control lands.
	prof groupProfile

	// faultWI is the work-item a fault is attributed to (groupFault);
	// vector dispatch records the faulting lane's index in lane.
	faultWI *wiState
	lane    uint8
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
func (m *Machine) launchVM(fn *ir.Function, args []Value, locals []localArg, nd NDRange, linger bool) error {
	prog := m.Program()
	kcf := prog.fns[fn.Name]
	if kcf == nil {
		return fmt.Errorf("interp: kernel %q not compiled", fn.Name)
	}
	l := &launchCtx{m: m, fn: fn, args: args, locals: locals, nd: nd, ng: nd.NumGroups(), prog: prog, kcf: kcf, maxSteps: m.maxSteps()}
	l.argw = l.argBuf[:0]
	for _, a := range args {
		w := uint64(0)
		if _, local := localArgSize(a); !local {
			w = m.word(a)
		}
		l.argw = append(l.argw, w)
	}
	// The regions the launch's arenas register live as long as the launch.
	defer m.regions.truncate(m.regions.reserve(0))
	total := l.ng[0] * l.ng[1] * l.ng[2]
	if p := m.Profiler; p != nil {
		l.kp = p.kernel(fn.Name)
	}
	defer l.flushWarpStats()
	workers := int64(Lanes())
	if workers > total {
		workers = total
	}
	if workers <= 1 {
		gr := getRunner(m)
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
		gr := getRunner(m)
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
	sink, _ := m.WarpStats.(LaneStatsSink)
	var lane2 time.Duration // submit → the second lane's first claim
	t0, handoff := time.Now(), false
	for w := int64(1); w < workers; w++ {
		wg.Add(1)
		ok, lingered := pool.trySubmit(&task{run: func() {
			if w == 1 {
				lane2 = time.Since(t0)
			}
			defer wg.Done()
			claim()
		}, linger: linger, sink: sink})
		if !ok {
			// Every worker is busy with other launches; their claim
			// loops drain those first, so run this launch here instead
			// of queueing behind them.
			wg.Done()
			break
		}
		handoff = handoff || w == 1 && lingered
	}
	claim()
	wg.Wait()
	if sink != nil && lane2 > 0 {
		sink.ObserveLaneStart(int64(lane2), handoff)
	}
	return bestErr
}

func delinearize(i int64, ng [3]int64) [3]int64 {
	return [3]int64{i % ng[0], (i / ng[0]) % ng[1], i / (ng[0] * ng[1])}
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
		gr.locals = make([]uint64, nslots)
	}
	gr.locals = gr.locals[:nslots]
	clear(gr.locals)
	g := &vmGroup{l: l, group: group, locals: gr.locals, ar: &gr.ar}
	if l.kp != nil {
		// Every work-item enters the kernel frame once.
		g.prof = groupProfile{}
		g.prof.land(l.kcf, 0, int64(size))
	}

	// Materialize host-declared local arguments: one region per group,
	// patched over the LocalArgV placeholder in every item's registers.
	var largs [8]uint64
	argPatch := largs[:0]
	for _, la := range l.locals {
		argPatch = append(argPatch, g.ar.alloc(la.size, ir.Local))
	}

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

	gr.kernelRegs(size, l.kcf.nregs)
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
func (l *launchCtx) fillKernelRegs(regs []uint64, argPatch []uint64) {
	copy(regs, l.argw)
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

// local returns the pointer word of the group's local region in slot,
// allocating the region on first use.
func (g *vmGroup) local(slot int32, size int64) uint64 {
	if p := g.locals[slot]; p != 0 {
		return p
	}
	p := g.ar.alloc(size, ir.Local)
	g.locals[slot] = p
	return p
}

// resume runs a work-item until its next suspension point, converting
// execution faults (traps) into errors.
func (g *vmGroup) resume(wi *wiState) (err error) {
	defer catch(&err)
	g.exec(wi)
	return nil
}

// catch, deferred, turns a dispatch loop's panic into *err: a trap as
// itself, anything else wrapped.
func catch(err *error) {
	if r := recover(); r != nil {
		if t, ok := r.(trap); ok {
			*err = t
			return
		}
		*err = fmt.Errorf("interp: panic: %v", r)
	}
}

// exec is the scalar dispatch loop, the only one. It caches the top
// frame in locals and only touches the frame stack on call, return and
// barrier. A profiled group (gp != nil) records where control lands — the
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
			regs[in.dst] = g.ar.alloc(in.imm, ir.AddrSpace(in.sub))
		case opAllocaLocal:
			regs[in.dst] = g.local(in.a, in.imm)
		case opLoadI1:
			regs[in.dst] = m.loadI1(regs[in.a])
		case opLoadI32:
			regs[in.dst] = m.loadI32(regs[in.a])
		case opLoadF32:
			regs[in.dst] = m.loadF32(regs[in.a])
		case opLoadI64, opLoadF64:
			regs[in.dst] = m.load64(regs[in.a])
		case opLoadPtr:
			regs[in.dst] = m.loadPtr(regs[in.a])
		case opStoreI1:
			m.storeI1(regs[in.b], regs[in.a])
		case opStoreI32:
			m.storeI32(regs[in.b], regs[in.a])
		case opStoreF32:
			m.storeF32(regs[in.b], regs[in.a])
		case opStoreI64, opStoreF64, opStorePtr:
			m.store64(regs[in.b], regs[in.a])
		case opGEP:
			regs[in.dst] = gep(regs[in.a], int64(regs[in.b])*in.imm)
		case opGEPConst:
			regs[in.dst] = gep(regs[in.a], in.imm)
		case opBinI1, opBinI32, opBinI64, opBinF32, opBinF64:
			regs[in.dst] = binOp(in.op, ir.BinKind(in.sub), regs[in.a], regs[in.b])
		case opCmp:
			regs[in.dst] = boolWord(cmpOp(in.sub, regs[in.a], regs[in.b]))
		case opMove, opExt:
			regs[in.dst] = regs[in.a]
		case opAddI32:
			regs[in.dst] = i32word(regs[in.a] + regs[in.b])
		case opSubI32:
			regs[in.dst] = i32word(regs[in.a] - regs[in.b])
		case opMulI32:
			regs[in.dst] = i32word(regs[in.a] * regs[in.b])
		case opAndI32:
			regs[in.dst] = regs[in.a] & regs[in.b]
		case opOrI32:
			regs[in.dst] = regs[in.a] | regs[in.b]
		case opXorI32:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
		case opAddI64:
			regs[in.dst] = regs[in.a] + regs[in.b]
		case opAddF32:
			regs[in.dst] = f32word(flt(regs[in.a]) + flt(regs[in.b]))
		case opSubF32:
			regs[in.dst] = f32word(flt(regs[in.a]) - flt(regs[in.b]))
		case opMulF32:
			regs[in.dst] = f32word(flt(regs[in.a]) * flt(regs[in.b]))
		case opDivF32:
			regs[in.dst] = f32word(flt(regs[in.a]) / flt(regs[in.b]))
		case opCmpJump:
			if cmpOp(in.sub, regs[in.a], regs[in.b]) {
				pc = in.c
			} else {
				pc = int32(in.imm)
			}
			if gp != nil {
				gp.land(cf, pc, 1)
			}
		case opBinStore:
			storeKind[in.kind](m, regs[in.c], binOp(binOpcode(in.kind), ir.BinKind(in.sub), regs[in.a], regs[in.b]))
		case opLoadBinStore:
			x, y := loadKind[in.kind](m, regs[in.a]), regs[in.b]
			if in.sub&lbsSwapped != 0 {
				x, y = y, x
			}
			storeKind[in.kind](m, regs[in.c], binOp(binOpcode(in.kind), ir.BinKind(in.sub&^lbsSwapped), x, y))
		case opLoadIdx:
			regs[in.dst] = loadKind[in.kind](m, gep(regs[in.a], int64(regs[in.b])*in.imm))
		case opLoadOff:
			regs[in.dst] = loadKind[in.kind](m, gep(regs[in.a], in.imm))
		case opTruncI1, opTruncI32, opFPToI1, opFPToI32, opFPToI64, opSIToF32, opSIToF64, opFPTrunc:
			regs[in.dst] = castOp(in.op, regs[in.a])
		case opSelect:
			if regs[in.a] != 0 {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case opAtomic:
			regs[in.dst] = m.atomicRMW(ir.AtomicKind(in.sub), in.kind, regs[in.a], regs[in.b])
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
				dim = int64(regs[in.a])
			}
			regs[in.dst] = l.workItem(in.sub, dim, &g.group, &wi.lid)
		case opMath:
			if in.c >= 0 {
				regs[in.dst], regs[in.c] = sincos(in.sub, in.kind, flt(regs[in.a]))
			} else if in.dst >= 0 { // not a pair's second, which its first computed
				var y uint64
				if in.b >= 0 {
					y = regs[in.b]
				}
				regs[in.dst] = fword(evalMath(in.sub, in.kind, flt(regs[in.a]), flt(y)))
			}
		case opJump:
			pc = int32(in.imm)
			if gp != nil {
				gp.land(cf, pc, 1)
			}
		case opCondJump:
			if regs[in.a] != 0 {
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
			var rv uint64
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
