package passes

import (
	"math/bits"

	"repro/internal/ir"
)

// RegisterEstimate computes an approximation of the per-work-item register
// pressure of a function: the maximum number of simultaneously live SSA
// values (plus a fixed overhead for the work-item state the hardware keeps
// per thread). The host runtime feeds this into the occupancy model, the
// same role -cl-nv-maxrregcount metadata plays on real drivers.
//
// The estimate uses standard iterative backward liveness over basic
// blocks.
func RegisterEstimate(f *ir.Function) int {
	if f.IsDecl() {
		return 0
	}
	// Values are numbered densely (parameters, then instruction
	// results) and every set is a bitset over that numbering.
	nb := ir.NumberFunction(f)
	words := (nb.NumValues() + 63) / 64
	index := func(v ir.Value) (int32, bool) {
		switch v.(type) {
		case *ir.Instr, *ir.Param:
			return nb.IndexOf(v)
		}
		return 0, false
	}
	type bbinfo struct {
		use, def, in, out []uint64
		succs             []*ir.Block
	}
	sets := make([]uint64, 4*words*len(f.Blocks))
	take := func() []uint64 {
		s := sets[:words:words]
		sets = sets[words:]
		return s
	}
	info := make(map[*ir.Block]*bbinfo, len(f.Blocks))
	for _, b := range f.Blocks {
		bi := &bbinfo{use: take(), def: take(), in: take(), out: take(), succs: b.Succs()}
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if i, ok := index(a); ok && bi.def[i/64]&(1<<(i%64)) == 0 {
					bi.use[i/64] |= 1 << (i % 64)
				}
			}
			if in.HasResult() {
				if i, ok := nb.IndexOf(in); ok {
					bi.def[i/64] |= 1 << (i % 64)
				}
			}
		}
		info[b] = bi
	}
	// Iterate to fixed point: out = union of successors' in;
	// in = use ∪ (out − def).
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			bi := info[f.Blocks[i]]
			for _, s := range bi.succs {
				for w, sw := range info[s].in {
					bi.out[w] |= sw
				}
			}
			for w := range bi.in {
				if nw := bi.in[w] | bi.use[w] | bi.out[w]&^bi.def[w]; nw != bi.in[w] {
					bi.in[w] = nw
					changed = true
				}
			}
		}
	}
	// Walk each block backwards tracking the live set size.
	maxLive := 0
	live := make([]uint64, words)
	for _, b := range f.Blocks {
		n := 0
		for w, ow := range info[b].out {
			live[w] = ow
			n += bits.OnesCount64(ow)
		}
		maxLive = max(maxLive, n)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			in := b.Instrs[i]
			if in.HasResult() {
				if r, ok := nb.IndexOf(in); ok && live[r/64]&(1<<(r%64)) != 0 {
					live[r/64] &^= 1 << (r % 64)
					n--
				}
			}
			for _, a := range in.Args {
				if r, ok := index(a); ok && live[r/64]&(1<<(r%64)) == 0 {
					live[r/64] |= 1 << (r % 64)
					n++
				}
			}
			maxLive = max(maxLive, n)
		}
	}
	// Hardware baseline per thread: program counter / thread IDs /
	// stack pointer equivalents.
	const threadOverhead = 4
	return maxLive + threadOverhead
}

// ModuleRegisterEstimate returns the register estimate of the given kernel
// including all user functions it (transitively) calls, approximated by
// the maximum over the call graph — GPU compilers fully inline, so the
// caller's pressure subsumes the callee's temporaries at their call sites.
func ModuleRegisterEstimate(m *ir.Module, kernel string) int {
	seen := make(map[string]bool)
	var walk func(name string) int
	walk = func(name string) int {
		if seen[name] {
			return 0
		}
		seen[name] = true
		f := m.Lookup(name)
		if f == nil || f.IsDecl() {
			return 0
		}
		est := RegisterEstimate(f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if c := walk(in.Callee); c > est {
						est = c
					}
				}
			}
		}
		return est
	}
	return walk(kernel)
}

// InstrCount counts the IR instructions of a function body, the size
// metric used by the adaptive scheduling table (§6.4): fewer than 10
// instructions → chunks of 8 virtual groups per dequeue, and so on.
func InstrCount(f *ir.Function) int {
	if f == nil {
		return 0
	}
	return f.NumInstrs()
}

// AdaptiveChunk returns the number of virtual groups a work-group dequeues
// per scheduling operation, per the paper's table (§6.4).
func AdaptiveChunk(instrCount int) int {
	switch {
	case instrCount < 10:
		return 8
	case instrCount < 20:
		return 6
	case instrCount < 30:
		return 4
	case instrCount < 40:
		return 2
	default:
		return 1
	}
}
