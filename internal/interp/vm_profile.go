package interp

import (
	"repro/internal/ir"
)

// execProf is the profiled twin of exec (vm.go): the identical dispatch
// loop plus counting hooks — per-instruction opcode counts, block-entry
// counts at every control transfer, and barrier totals. It exists as a
// separate loop so the unprofiled hot path carries no per-instruction
// branch: runGroupVM selects the loop once per group (sampling), and the
// profiled-vs-unprofiled parity test holds the two loops semantically
// byte-identical. When editing exec, mirror the change here.
func (g *vmGroup) execProf(wi *wiState) {
	gp := g.prof
	l := g.l
	m := l.m
	top := len(wi.frames) - 1
	cf := wi.frames[top].cf
	code := cf.code
	regs := *wi.frames[top].regp
	pc := wi.frames[top].pc
	steps := wi.steps

	if pc == 0 && gp.perBlock {
		// Fresh kernel-frame entry (barrier resumes restart mid-block and
		// are not block entries).
		gp.enterBlock(cf, 0)
	}

	for {
		in := &code[pc]
		pc++
		steps++
		gp.instrs++
		if gp.perOp {
			gp.opcodes[in.op]++
		}
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
			regs[in.dst] = m.load(kindTypes[in.kind], regs[in.a].P)
		case opStore:
			m.store(kindTypes[in.kind], regs[in.a], regs[in.b].P)
		case opGEP:
			base := regs[in.a].P
			if base.IsNull() {
				panic(trap{"gep on null pointer"})
			}
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + regs[in.b].I*in.imm}}
		case opGEPConst:
			base := regs[in.a].P
			if base.IsNull() {
				panic(trap{"gep on null pointer"})
			}
			regs[in.dst] = Value{K: ir.Pointer, P: Ptr{R: base.R, Off: base.Off + in.imm}}
		case opBin:
			regs[in.dst] = fastBin(ir.BinKind(in.sub), in.kind, &regs[in.a], &regs[in.b])
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
			if gp.perBlock {
				gp.enterBlock(cf, pc)
			}
		case opBinBin:
			t := i32Bin(ir.BinKind(in.sub), regs[in.a].I, regs[in.b].I)
			var r int64
			if in.imm&bbSwapped != 0 {
				r = i32Bin(ir.BinKind(in.imm&0xff), regs[in.c].I, t)
			} else {
				r = i32Bin(ir.BinKind(in.imm&0xff), t, regs[in.c].I)
			}
			regs[in.dst] = Value{K: ir.I32, I: r}
		case opBinCmpJump:
			v := i32Bin(ir.BinKind(in.sub), regs[in.a].I, regs[in.b].I)
			regs[in.dst] = Value{K: ir.I32, I: v}
			x, y := v, regs[in.args[1]].I
			if in.args[0]&bcjSwapped != 0 {
				x, y = y, x
			}
			if i32Cmp(ir.CmpPred(in.args[0]&0xffff), x, y) {
				pc = in.c
			} else {
				pc = int32(in.imm)
			}
			if gp.perBlock {
				gp.enterBlock(cf, pc)
			}
		case opBinStore:
			m.store(kindTypes[in.kind], binOp(ir.BinKind(in.sub), kindTypes[in.kind], regs[in.a], regs[in.b]), regs[in.c].P)
		case opLoadBinStore:
			t := kindTypes[in.kind]
			v := m.load(t, regs[in.a].P)
			x := regs[in.b]
			if in.sub&lbsSwapped != 0 {
				v, x = x, v
			}
			m.store(t, binOp(ir.BinKind(in.sub&^lbsSwapped), t, v, x), regs[in.c].P)
		case opLoadIdx:
			base := regs[in.a].P
			if base.IsNull() {
				panic(trap{"gep on null pointer"})
			}
			regs[in.dst] = m.load(kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + regs[in.b].I*in.imm})
		case opLoadOff:
			base := regs[in.a].P
			if base.IsNull() {
				panic(trap{"gep on null pointer"})
			}
			regs[in.dst] = m.load(kindTypes[in.kind], Ptr{R: base.R, Off: base.Off + in.imm})
		case opCast:
			regs[in.dst] = castOp(ir.CastKind(in.sub), kindTypes[in.kind], regs[in.a])
		case opSelect:
			if regs[in.a].Bool() {
				regs[in.dst] = regs[in.b]
			} else {
				regs[in.dst] = regs[in.c]
			}
		case opAtomic:
			regs[in.dst] = m.atomicRMW(ir.AtomicKind(in.sub), kindTypes[in.kind], regs[in.a].P, regs[in.b])
		case opBarrier:
			gp.barriers++
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
			if gp.perBlock {
				gp.enterBlock(cf, 0)
			}
		case opWI:
			dim := in.imm
			if in.a >= 0 {
				dim = regs[in.a].I
				if dim < 0 || dim > 2 {
					dim = 0
				}
			}
			var v Value
			switch in.sub {
			case wiGlobalID:
				v = LongV(g.group[dim]*l.nd.Local[dim] + wi.lid[dim])
			case wiLocalID:
				v = LongV(wi.lid[dim])
			case wiGroupID:
				v = LongV(g.group[dim])
			case wiNumGroups:
				v = LongV(l.ng[dim])
			case wiLocalSize:
				v = LongV(l.nd.Local[dim])
			case wiGlobalSize:
				v = LongV(l.nd.Global[dim])
			case wiGlobalOffset:
				v = LongV(0)
			case wiWorkDim:
				v = IntV(int64(l.nd.Dims))
			}
			regs[in.dst] = v
		case opMath:
			x := regs[in.a].F
			var y float64
			if in.b >= 0 {
				y = regs[in.b].F
			}
			regs[in.dst] = evalMath(in.sub, in.kind, x, y)
		case opJump:
			pc = int32(in.imm)
			if gp.perBlock {
				gp.enterBlock(cf, pc)
			}
		case opCondJump:
			if regs[in.a].Bool() {
				pc = in.b
			} else {
				pc = in.c
			}
			if gp.perBlock {
				gp.enterBlock(cf, pc)
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
