package passes

import "repro/internal/ir"

// Uniformity analysis: classifies every SSA value and every basic block
// of a kernel by whether it is the same across the work-items of one
// work-group ("uniform") or may differ per item ("divergent"). The
// bytecode compiler (internal/interp) uses the verdicts to build the
// warp execution stream: uniform instructions execute once per warp on
// a shared register file, divergent ones loop over the active lanes,
// and a branch on a divergent condition splits the warp's lane mask
// until the branch block's immediate postdominator, where the lanes
// reconverge.
//
// A value is divergent if it (transitively) depends on a per-item
// source: get_local_id / get_global_id, an atomic result (each lane
// observes a different old value), a private alloca (a distinct region
// per lane), or a call into IR code (not analyzed across calls — the
// VM leaves vector dispatch at calls anyway). Kernel arguments,
// constants and group-level builtins (get_group_id, get_local_size,
// get_num_groups, ...) are uniform. A load is uniform iff its address
// is: between two barriers the work-items of a group do not race on
// memory (the contract interp/warp.go states and every engine relies
// on), so all of them read the same bytes through the same address.
//
// A block is control-uniform when all work-items of a warp enter it
// together: it is not control-dependent on any branch with a divergent
// condition. Control dependence is approximated region-wise: every
// block reachable from a divergent branch's successors without passing
// the branch block's immediate postdominator is marked divergent (if
// the branch block has no postdominator — it cannot reach function
// exit, or its paths return separately — everything reachable from its
// successors is marked).
//
// A phi is uniform only if all incoming values are uniform AND its
// block and all predecessors are control-uniform: if lanes may arrive
// over different edges, the phi selects different incomings per lane
// even when each incoming is itself uniform.

// Uniformity holds the per-function analysis result.
type Uniformity struct {
	vals  map[ir.Value]bool // defined values: true = uniform
	blks  map[*ir.Block]bool
	ipdom map[*ir.Block]*ir.Block
}

// ValueUniform reports whether v is uniform across the work-items of a
// group. Constants and kernel parameters are always uniform.
func (u *Uniformity) ValueUniform(v ir.Value) bool {
	switch v.(type) {
	case *ir.ConstInt, *ir.ConstFloat, *ir.ConstNull, *ir.Param:
		return true
	}
	return u.vals[v]
}

// BlockUniform reports whether all work-items of a warp enter b
// together (b is not control-dependent on a divergent branch).
func (u *Uniformity) BlockUniform(b *ir.Block) bool { return u.blks[b] }

// DivergentBranch reports whether b ends in a conditional branch whose
// condition may differ between the work-items of a warp.
func (u *Uniformity) DivergentBranch(b *ir.Block) bool {
	t := b.Terminator()
	return t != nil && t.Op == ir.OpCondBr && !u.ValueUniform(t.Args[0])
}

// Reconverge returns the block where work-items that took different
// sides of b's branch meet again: b's immediate postdominator. Nil
// means they never do — each side runs to its own return.
func (u *Uniformity) Reconverge(b *ir.Block) *ir.Block { return u.ipdom[b] }

// divergentSeed reports whether the instruction is a divergence source
// regardless of its operands.
func divergentSeed(in *ir.Instr, mod *ir.Module) bool {
	switch in.Op {
	case ir.OpAtomic:
		return true
	case ir.OpAlloca:
		// A private alloca is a distinct region per work-item; local
		// allocas are one region per group, hence uniform.
		return in.AllocaSpace != ir.Local
	case ir.OpCall:
		switch in.Callee {
		case "get_local_id", "get_global_id":
			return true
		}
		if mod != nil {
			if f := mod.Lookup(in.Callee); f != nil && !f.IsDecl() {
				// Calls into IR code are not analyzed across the call.
				return true
			}
		}
		return false
	}
	return false
}

// AnalyzeUniformity computes the uniformity verdicts for f. The
// analysis is a monotone fixpoint: everything starts uniform, seeds
// and control dependence knock values and blocks over to divergent
// until nothing changes.
func AnalyzeUniformity(f *ir.Function) *Uniformity {
	u := &Uniformity{vals: make(map[ir.Value]bool), blks: make(map[*ir.Block]bool)}
	if f.Entry() == nil {
		return u
	}
	ipdom := computePostDom(f)
	u.ipdom = ipdom
	for _, b := range f.Blocks {
		u.blks[b] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				u.vals[in] = true
			}
		}
	}
	mod := f.Mod

	uniformArgs := func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if !u.ValueUniform(a) {
				return false
			}
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() || !u.vals[in] {
					continue
				}
				div := false
				switch {
				case in.Op == ir.OpPhi:
					div = !u.blks[b] || !uniformArgs(in)
					if !div {
						for _, p := range in.Incoming {
							if !u.blks[p] {
								div = true
								break
							}
						}
					}
				case divergentSeed(in, mod):
					div = true
				default:
					div = !uniformArgs(in)
				}
				if div {
					u.vals[in] = false
					changed = true
				}
			}
			// Control dependence: a branch on a divergent condition
			// makes everything up to its postdominator divergent. A
			// branch inside an already-divergent block still
			// propagates — nested divergence widens the region.
			if u.DivergentBranch(b) {
				stop := ipdom[b] // nil: cannot reach exit, mark all reachable
				seen := map[*ir.Block]bool{}
				var mark func(x *ir.Block)
				mark = func(x *ir.Block) {
					if x == stop || seen[x] {
						return
					}
					seen[x] = true
					if u.blks[x] {
						u.blks[x] = false
						changed = true
					}
					for _, s := range x.Succs() {
						mark(s)
					}
				}
				for _, s := range b.Succs() {
					mark(s)
				}
			}
		}
	}
	return u
}

// computePostDom returns each block's immediate postdominator over the
// reversed CFG, with a virtual exit joining all return blocks. A nil
// entry (or absent block) means the virtual exit itself is the
// immediate postdominator, or the block cannot reach function exit.
func computePostDom(f *ir.Function) map[*ir.Block]*ir.Block {
	blocks := f.Blocks
	n := len(blocks)
	idx := make(map[*ir.Block]int, n)
	for i, b := range blocks {
		idx[b] = i
	}
	// Reverse adjacency: radj[i] lists the predecessors of block i in
	// the reversed graph, i.e. its CFG successors; exit is node n.
	radj := make([][]int, n+1)
	for i, b := range blocks {
		t := b.Terminator()
		if t != nil && t.Op == ir.OpRet {
			radj[i] = append(radj[i], n)
		}
		for _, s := range b.Succs() {
			radj[i] = append(radj[i], idx[s])
		}
	}
	// Forward edges of the reversed graph (CFG predecessors + virtual
	// exit edges), for the DFS from the exit.
	fwd := make([][]int, n+1)
	for i, outs := range radj {
		for _, o := range outs {
			fwd[o] = append(fwd[o], i)
		}
	}
	// Postorder of the reversed graph from the exit; unreachable nodes
	// (blocks that never reach a return) stay unnumbered.
	post := make([]int, 0, n+1)
	num := make([]int, n+1)
	for i := range num {
		num[i] = -1
	}
	seen := make([]bool, n+1)
	var visit func(x int)
	visit = func(x int) {
		if seen[x] {
			return
		}
		seen[x] = true
		for _, y := range fwd[x] {
			visit(y)
		}
		num[x] = len(post)
		post = append(post, x)
	}
	visit(n)

	// Cooper/Harvey/Kennedy over the reversed graph: higher postorder
	// number = closer to the exit root.
	ip := make([]int, n+1)
	for i := range ip {
		ip[i] = -1
	}
	ip[n] = n
	intersect := func(a, b int) int {
		for a != b {
			for num[a] < num[b] {
				a = ip[a]
			}
			for num[b] < num[a] {
				b = ip[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- { // skip the exit root
			x := post[i]
			ni := -1
			for _, p := range radj[x] {
				if ip[p] < 0 {
					continue
				}
				if ni < 0 {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni >= 0 && ip[x] != ni {
				ip[x] = ni
				changed = true
			}
		}
	}
	out := make(map[*ir.Block]*ir.Block, n)
	for i, b := range blocks {
		if ip[i] >= 0 && ip[i] < n {
			out[b] = blocks[ip[i]]
		}
	}
	return out
}
