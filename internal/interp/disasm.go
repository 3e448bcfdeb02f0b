package interp

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/ir"
)

// DumpWarp writes the bytecode of one kernel with each instruction's
// warp dispatch mode — once, lane, diverge (with the pc its sides
// reconverge at), barrier, ret or spill — so a spill that crept back
// into a kernel is readable off the listing (clcc -stage warp). Uniform
// registers print as uN (homed in the warp's shared file), divergent
// ones as rN (one per lane), constants by value.
func (p *Prog) DumpWarp(w io.Writer, kernel string) error {
	cf := p.fns[kernel]
	if cf == nil {
		return fmt.Errorf("interp: kernel %q not compiled", kernel)
	}
	if len(cf.wmode) == 0 {
		return fmt.Errorf("interp: kernel %q has no warp tables (compiled with WarpWidth 0)", kernel)
	}
	modes := make(map[uint8]int)
	for _, m := range cf.wmode {
		modes[m]++
	}
	var counts []string
	for m, name := range warpModeNames {
		if n := modes[uint8(m)]; n > 0 {
			counts = append(counts, fmt.Sprintf("%d %s", n, name))
		}
	}
	fmt.Fprintf(w, "kernel %s: %d instructions (%s), %d registers (%d uniform), warp width %d\n",
		kernel, len(cf.code), strings.Join(counts, ", "), cf.constBase, len(cf.uniformRegs), p.warpWidth)

	reg := func(r int32) string {
		switch {
		case r < 0:
			return "_"
		case int(r) >= cf.constBase && int(r) < cf.constBase+len(cf.consts):
			w := cf.consts[int(r)-cf.constBase]
			switch cf.constKinds[int(r)-cf.constBase] {
			case ir.Pointer:
				return "null"
			case ir.F32, ir.F64:
				return fmt.Sprintf("%g", flt(w))
			}
			return fmt.Sprintf("%d", int64(w))
		case cf.uniform[r]:
			return fmt.Sprintf("u%d", r)
		}
		return fmt.Sprintf("r%d", r)
	}
	blk := 0
	for pc := range cf.code {
		for blk < len(cf.blockStarts) && int(cf.blockStarts[blk]) == pc {
			fmt.Fprintf(w, "  %s:\n", cf.blockNames[blk])
			blk++
		}
		in := &cf.code[pc]
		mode := warpModeNames[cf.wmode[pc]]
		if cf.wmode[pc] == wmDiverge {
			if r := cf.reconv[int32(pc)]; r == noReconv {
				mode += "→exit"
			} else {
				mode += fmt.Sprintf("→%04d", r)
			}
		}
		fmt.Fprintf(w, "    %04d %-13s %s\n", pc, mode, in.disasm(reg))
	}
	return nil
}

// disasm renders one instruction; reg names a register operand.
func (in *instr) disasm(reg func(int32) string) string {
	name := opNames[in.op]
	switch {
	case in.op >= opLoadI1 && in.op <= opLoadPtr:
		return fmt.Sprintf("%s = %s %s [%s]", reg(in.dst), name, kindName(in.kind), reg(in.a))
	case in.op >= opStoreI1 && in.op <= opStorePtr:
		return fmt.Sprintf("%s %s %s -> [%s]", name, kindName(in.kind), reg(in.a), reg(in.b))
	case in.op >= opBinI1 && in.op <= opBinF64:
		return fmt.Sprintf("%s = %s %s %s %s, %s", reg(in.dst), name, ir.BinKind(in.sub), kindName(in.kind), reg(in.a), reg(in.b))
	case in.op >= opExt && in.op <= opFPTrunc:
		return fmt.Sprintf("%s = %s %s %s to %s", reg(in.dst), name, ir.CastKind(in.sub), reg(in.a), kindName(in.kind))
	}
	switch in.op {
	case opAlloca:
		return fmt.Sprintf("%s = %s %dB", reg(in.dst), name, in.imm)
	case opAllocaLocal:
		return fmt.Sprintf("%s = %s slot %d, %dB", reg(in.dst), name, in.a, in.imm)
	case opGEP:
		return fmt.Sprintf("%s = %s %s + %s*%d", reg(in.dst), name, reg(in.a), reg(in.b), in.imm)
	case opGEPConst:
		return fmt.Sprintf("%s = %s %s + %d", reg(in.dst), name, reg(in.a), in.imm)
	case opCmp:
		return fmt.Sprintf("%s = %s %s %s, %s", reg(in.dst), name, cmpNames[in.sub], reg(in.a), reg(in.b))
	case opSelect:
		return fmt.Sprintf("%s = %s %s ? %s : %s", reg(in.dst), name, reg(in.a), reg(in.b), reg(in.c))
	case opAtomic:
		return fmt.Sprintf("%s = %s %s %s [%s], %s", reg(in.dst), name, ir.AtomicKind(in.sub), kindName(in.kind), reg(in.a), reg(in.b))
	case opBarrier:
		return name
	case opCall:
		args := make([]string, len(in.args))
		for i, a := range in.args {
			args[i] = reg(a)
		}
		return fmt.Sprintf("%s = %s %s(%s)", reg(in.dst), name, in.fn.fn.Name, strings.Join(args, ", "))
	case opWI:
		dim := fmt.Sprint(in.imm)
		if in.a >= 0 {
			dim = reg(in.a)
		}
		return fmt.Sprintf("%s = %s %s(%s)", reg(in.dst), name, wiNames[in.sub], dim)
	case opMath:
		if in.c >= 0 {
			return fmt.Sprintf("%s, %s = %s #%d %s %s", reg(in.dst), reg(in.c), name, in.sub, kindName(in.kind), reg(in.a))
		}
		if in.b >= 0 {
			return fmt.Sprintf("%s = %s #%d %s %s, %s", reg(in.dst), name, in.sub, kindName(in.kind), reg(in.a), reg(in.b))
		}
		return fmt.Sprintf("%s = %s #%d %s %s", reg(in.dst), name, in.sub, kindName(in.kind), reg(in.a))
	case opJump:
		return fmt.Sprintf("%s %04d", name, in.imm)
	case opCondJump:
		return fmt.Sprintf("%s %s ? %04d : %04d", name, reg(in.a), in.b, in.c)
	case opRet:
		return fmt.Sprintf("%s %s", name, reg(in.a))
	case opTrap:
		return fmt.Sprintf("%s %q", name, in.msg)
	case opMove:
		return fmt.Sprintf("%s = %s %s", reg(in.dst), name, reg(in.a))
	case opCmpJump:
		return fmt.Sprintf("%s %s %s, %s ? %04d : %04d", name, cmpNames[in.sub], reg(in.a), reg(in.b), in.c, in.imm)
	case opBinStore:
		return fmt.Sprintf("%s %s %s %s, %s -> [%s]", name, ir.BinKind(in.sub), kindName(in.kind), reg(in.a), reg(in.b), reg(in.c))
	case opLoadBinStore:
		return fmt.Sprintf("%s %s %s [%s], %s -> [%s]", name, ir.BinKind(in.sub&^lbsSwapped), kindName(in.kind), reg(in.a), reg(in.b), reg(in.c))
	case opLoadIdx:
		return fmt.Sprintf("%s = %s %s [%s + %s*%d]", reg(in.dst), name, kindName(in.kind), reg(in.a), reg(in.b), in.imm)
	case opLoadOff:
		return fmt.Sprintf("%s = %s %s [%s + %d]", reg(in.dst), name, kindName(in.kind), reg(in.a), in.imm)
	}
	// The specialized binops: dst = op a, b.
	return fmt.Sprintf("%s = %s %s, %s", reg(in.dst), name, reg(in.a), reg(in.b))
}

// wiNames names the work-item builtin codes (opWI sub).
var wiNames = func() [wiWorkDim + 1]string {
	var t [wiWorkDim + 1]string
	for name, code := range wiBuiltins {
		t[code] = name
	}
	return t
}()

// cmpNames names the typed comparison predicates: ir.CmpPred's names,
// then the pointer ones.
var cmpNames = [...]string{"eq", "ne", "slt", "sle", "sgt", "sge", "oeq", "one", "olt", "ole", "ogt", "oge",
	"peq", "pne", "plt", "ple", "pgt", "pge"}

// kindName names a value kind for listings.
func kindName(k ir.Kind) string {
	return [...]string{"void", "i1", "i32", "i64", "float", "double", "ptr"}[k]
}
