package passes

import "repro/internal/ir"

// AllocaUse summarizes how the address of one private-space alloca is
// used within its function. It is the single definition of "the address
// never escapes" shared by mem2reg (promotion candidates) and DCE
// (write-only allocas), so the two passes can never disagree about what
// memory is private to straight load/store access.
type AllocaUse struct {
	Alloca *ir.Instr
	Loads  []*ir.Instr // OpLoad reading directly through the alloca
	Stores []*ir.Instr // OpStore writing directly through the alloca

	// Escapes is set when the address is used any other way: stored as a
	// value, offset by a GEP, passed to a call, compared, selected,
	// atomically updated or cast. Such an alloca may be read or written
	// through derived pointers the analysis cannot see.
	Escapes bool
}

// AnalyzeAllocas inspects every private-space alloca of f and classifies
// all uses of its address.
func AnalyzeAllocas(f *ir.Function) map[*ir.Instr]*AllocaUse {
	uses := make(map[*ir.Instr]*AllocaUse)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.AllocaSpace == ir.Private {
				uses[in] = &AllocaUse{Alloca: in}
			}
		}
	}
	if len(uses) == 0 {
		return uses
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				al, ok := a.(*ir.Instr)
				if !ok || al.Op != ir.OpAlloca {
					continue
				}
				u, tracked := uses[al]
				if !tracked {
					continue
				}
				switch {
				case in.Op == ir.OpLoad:
					u.Loads = append(u.Loads, in)
				case in.Op == ir.OpStore && i == 1:
					u.Stores = append(u.Stores, in)
				default:
					u.Escapes = true
				}
			}
		}
	}
	return uses
}

// Promotable reports whether the alloca can be rewritten into SSA
// values: a single scalar element whose address is only ever loaded
// from or stored to.
func (u *AllocaUse) Promotable() bool {
	return !u.Escapes && u.Alloca.AllocaCount == 1 && u.Alloca.AllocaElem.Kind != ir.Void
}

// WriteOnly reports whether the alloca is only ever written: no loads,
// no escaping uses. Its stores are dead.
func (u *AllocaUse) WriteOnly() bool {
	return !u.Escapes && len(u.Loads) == 0
}
