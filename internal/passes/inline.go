package passes

import "repro/internal/ir"

// Inline folds calls to defined functions into their callers, callees
// first, and drops the functions it leaves without a caller (a function
// nothing ever called is not the pass's to remove). GPU compilers
// inline everything; here the reason is the VM's warp engine, which
// drives kernel top frames only — a call leaves vector dispatch, so the
// scheduling kernel of a transformed module (wrapper → computation
// function → rt_* library) ran its whole body one work-item at a time.
//
// The pass runs on SSA form, after mem2reg has promoted each small
// function on its own: mem2reg's cost grows faster than linearly in
// function size and must never see the merged kernel.
//
// Left as calls: recursive functions (any function on a call-graph
// cycle), functions without a return, functions that declare local
// memory (one region per declaration per group must stay one region),
// and any call that would grow its caller past inlineMaxInstrs — the
// bound that keeps a doubling call chain in tenant source from
// exploding the JIT.
type Inline struct{}

// Name implements Pass.
func (Inline) Name() string { return "inline" }

// inlineMaxInstrs bounds a caller's instruction count after inlining.
// The largest Parboil kernel is about a tenth of it once its wrapper,
// computation function and library calls are merged.
const inlineMaxInstrs = 4096

// Run implements Pass.
func (Inline) Run(m *ir.Module) error {
	order, recursive := callOrder(m)
	inlined := make(map[*ir.Function]bool)
	for _, f := range order {
		inlineInto(m, f, recursive, inlined)
	}
	dropUncalled(m, inlined)
	return nil
}

// callOrder returns the module's definitions callees-first (a postorder
// of the call graph) and the set of functions on a call-graph cycle.
func callOrder(m *ir.Module) (order []*ir.Function, recursive map[*ir.Function]bool) {
	recursive = make(map[*ir.Function]bool)
	const (
		unseen = iota
		onStack
		done
	)
	state := make(map[*ir.Function]int, len(m.Funcs))
	var stack []*ir.Function
	var visit func(f *ir.Function)
	visit = func(f *ir.Function) {
		state[f] = onStack
		stack = append(stack, f)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op != ir.OpCall {
					continue
				}
				c := m.Lookup(in.Callee)
				if c == nil || c.IsDecl() {
					continue
				}
				switch state[c] {
				case unseen:
					visit(c)
				case onStack:
					// Everything from c up to f closes a cycle.
					for i := len(stack) - 1; i >= 0; i-- {
						recursive[stack[i]] = true
						if stack[i] == c {
							break
						}
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[f] = done
		order = append(order, f)
	}
	for _, f := range m.Funcs {
		if !f.IsDecl() && state[f] == unseen {
			visit(f)
		}
	}
	return order, recursive
}

// inlinable reports whether calls to f may be replaced by its body.
func inlinable(f *ir.Function, recursive map[*ir.Function]bool) bool {
	if f == nil || f.IsDecl() || f.Kernel || recursive[f] {
		return false
	}
	returns := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpAlloca && in.AllocaSpace == ir.Local:
				return false
			case in.Op == ir.OpRet:
				returns = true
			}
		}
	}
	return returns
}

// inlineInto inlines every eligible call in f. Callees were processed
// before f, so one sweep over the (growing) block list handles whatever
// an inlined body brings along.
func inlineInto(m *ir.Module, f *ir.Function, recursive, inlined map[*ir.Function]bool) {
	ok := make(map[*ir.Function]bool)
	results := make(map[ir.Value]ir.Value) // inlined call -> its value
	size := f.NumInstrs()
	for bi := 0; bi < len(f.Blocks); bi++ {
		b := f.Blocks[bi]
		for i, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			c := m.Lookup(in.Callee)
			if c == f {
				continue
			}
			can, seen := ok[c]
			if !seen {
				can = inlinable(c, recursive)
				ok[c] = can
			}
			if !can || size+c.NumInstrs() > inlineMaxInstrs {
				continue
			}
			size += c.NumInstrs()
			if r := ir.InlineCall(b, i, c); r != nil {
				results[in] = r
			}
			inlined[c] = true
			// The rest of b moved to the continuation block, which the
			// outer loop reaches after the inlined body.
			break
		}
	}
	if len(results) == 0 {
		return
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				// A result can itself be an inlined call: f(g(x)).
				for r, ok := results[a]; ok; r, ok = results[a] {
					a = r
					in.Args[i] = r
				}
			}
		}
	}
}

// dropUncalled removes the inlined functions no remaining call names,
// repeating because a dropped function may have been the last caller
// of another.
func dropUncalled(m *ir.Module, inlined map[*ir.Function]bool) {
	for {
		called := make(map[string]bool)
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op == ir.OpCall {
						called[in.Callee] = true
					}
				}
			}
		}
		var dead []string
		for _, f := range m.Funcs {
			if inlined[f] && !called[f.Name] {
				dead = append(dead, f.Name)
			}
		}
		if len(dead) == 0 {
			return
		}
		for _, name := range dead {
			m.Remove(name)
		}
	}
}
