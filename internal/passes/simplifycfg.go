package passes

import "repro/internal/ir"

// SimplifyCFG folds conditional branches on constants and merges
// straight-line block pairs: a block ending in an unconditional branch
// to a block with no other predecessor (and no phis) absorbs it. The clc
// front end emits a separate for.post block per loop and mem2reg's store
// elimination leaves such pairs pure straight-line code, so merging them
// removes one dispatched jump per loop iteration in the bytecode VM;
// inlining leaves a pair at either end of every inlined body, and a
// decided branch wherever a callee tested an argument the call site
// passed as a constant (rt_group_id's dimension).
type SimplifyCFG struct{}

// Name implements Pass.
func (SimplifyCFG) Name() string { return "simplifycfg" }

// Run implements Pass.
func (SimplifyCFG) Run(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		removeUnreachable(f)
		if foldConstBranches(f) {
			removeUnreachable(f)
		}
		mergeStraightLine(f)
	}
	return nil
}

// foldConstBranches rewrites every conditional branch on a constant
// into a branch to the side it always takes, dropping the block's arm
// from the phis of the side it never does.
func foldConstBranches(f *ir.Function) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil || t.Op != ir.OpCondBr {
			continue
		}
		c, ok := ir.ConstIntValue(t.Args[0])
		if !ok {
			continue
		}
		taken, dropped := t.Then, t.Else
		if c == 0 {
			taken, dropped = dropped, taken
		}
		if dropped != taken {
			for _, phi := range dropped.Phis() {
				for i, ib := range phi.Incoming {
					if ib == b {
						phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
						phi.Incoming = append(phi.Incoming[:i], phi.Incoming[i+1:]...)
						break
					}
				}
			}
		}
		t.Op, t.Args, t.Then, t.Else = ir.OpBr, nil, taken, nil
		changed = true
	}
	return changed
}

// mergeStraightLine absorbs, into every block that ends in an
// unconditional branch, the target of that branch while the target has
// no other predecessor and no phis. One sweep suffices: absorbing c
// into b moves c's out-edges to b without changing any other block's
// predecessor count.
func mergeStraightLine(f *ir.Function) {
	npreds := make(map[*ir.Block]int, len(f.Blocks))
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			npreds[s]++
		}
	}
	absorbed := make(map[*ir.Block]bool)
	for _, b := range f.Blocks {
		if absorbed[b] {
			continue
		}
		for {
			t := b.Terminator()
			if t == nil || t.Op != ir.OpBr {
				break
			}
			c := t.Then
			if c == b || c == f.Entry() || npreds[c] != 1 || len(c.Phis()) > 0 {
				break
			}
			// Drop b's branch, re-append c's instructions (keeping their
			// block back-pointers consistent), and retarget any phi in
			// c's successors that named c as the incoming edge.
			b.Instrs = b.Instrs[:len(b.Instrs)-1]
			for _, in := range c.Instrs {
				b.Append(in)
			}
			for _, s := range c.Succs() {
				for _, phi := range s.Phis() {
					for i, ib := range phi.Incoming {
						if ib == c {
							phi.Incoming[i] = b
						}
					}
				}
			}
			absorbed[c] = true
		}
	}
	if len(absorbed) == 0 {
		return
	}
	kept := f.Blocks[:0]
	for _, b := range f.Blocks {
		if !absorbed[b] {
			kept = append(kept, b)
		}
	}
	f.Blocks = kept
}
