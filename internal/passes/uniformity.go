package passes

import "repro/internal/ir"

// Uniformity analysis: classifies every SSA value and every basic block
// of a kernel by whether it is the same for the work-items that execute
// it together ("uniform") or may differ between them ("divergent"). The
// bytecode compiler (internal/interp) uses the verdicts to build the
// warp execution stream: uniform instructions execute once per warp on
// a shared register file, divergent ones loop over the active lanes,
// and a branch on a divergent condition splits the warp's lane mask
// until the branch block's immediate postdominator, where the lanes
// reconverge. Inside a divergent region a uniform value is computed
// once by the lanes that run the region together: a loop nested in
// `if (i < n)` runs its counter, index math and loads once per warp.
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
// A phi is divergent if an incoming value is, or if lanes may reach it
// over different edges of a divergent branch: when its block is where
// that branch reconverges (join). A value defined in a divergent region
// is divergent where lanes that did not execute it together may read it
// (temporal and wrap, see diverge). So no uniform value defined in a
// divergent region is live outside it, and every uniform value live in
// a control-uniform block is the same across the whole warp.

// Uniformity holds the per-function analysis result.
type Uniformity struct {
	vals  map[ir.Value]bool // defined values: true = uniform
	blks  map[*ir.Block]bool
	ipdom map[*ir.Block]*ir.Block
}

// ValueUniform reports whether v is the same for every work-item that
// executes it together with others: across the warp in a
// control-uniform block, across the lanes that run a divergent region
// together inside one. Constants and kernel parameters are always
// uniform.
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
// knock values over to divergent through their uses, and a branch the
// first time its condition turns divergent applies its region (diverge)
// until nothing changes.
func AnalyzeUniformity(f *ir.Function) *Uniformity {
	u := &Uniformity{vals: make(map[ir.Value]bool), blks: make(map[*ir.Block]bool)}
	if f.Entry() == nil {
		return u
	}
	u.ipdom = computePostDom(f)
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

	var live *liveness // computed when the first branch turns divergent
	walked := make(map[*ir.Block]bool)
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if !in.HasResult() || !u.vals[in] {
					continue
				}
				if divergentSeed(in, mod) || !uniformArgs(in) {
					u.vals[in] = false
					changed = true
				}
			}
			if !walked[b] && u.DivergentBranch(b) {
				walked[b] = true
				if live == nil {
					live = computeLiveness(f)
				}
				u.diverge(b, live)
				changed = true
			}
		}
	}
	return u
}

// diverge applies the divergence of b's branch. Its region is every
// block reachable from its successors before its reconvergence block
// (all of them when the sides never meet); the lanes that take one
// side run the region to the reconvergence block while the others
// wait. Each of the three rules keeps a shared register from being
// read by lanes that did not execute its definition together:
//
//   - join: a phi in the reconvergence block is divergent, since the
//     lanes arrive over different edges;
//   - temporal: a value defined in the region and live on entry to the
//     reconvergence block is divergent, since each side left the
//     region with its own value (a loop counter read after a loop
//     whose trip count is per lane);
//   - wrap: a value defined in the region and live along an edge out
//     of b is divergent when the other side enters the region, since
//     that side may run first and reach the definition again (whole
//     loop iterations beside a break, or beside the exit edge's phi
//     copies) before the lanes waiting on the edge read it.
func (u *Uniformity) diverge(b *ir.Block, live *liveness) {
	stop := u.ipdom[b] // nil: the sides never meet
	region := map[*ir.Block]bool{}
	var mark func(x *ir.Block)
	mark = func(x *ir.Block) {
		if x == stop || region[x] {
			return
		}
		region[x] = true
		for _, s := range x.Succs() {
			mark(s)
		}
	}
	succs := b.Succs()
	for _, s := range succs {
		mark(s)
	}
	if stop != nil {
		for _, phi := range stop.Phis() {
			u.vals[phi] = false
		}
	}
	for x := range region {
		u.blks[x] = false
		for _, in := range x.Instrs {
			if !in.HasResult() || !u.vals[in] {
				continue
			}
			div := stop != nil && live.in(stop, in)
			for i, s := range succs {
				// The lanes on the edge to s may wait while the other
				// side runs region code, unless that side leads straight
				// to stop. They read s's phi copies, and past them what
				// is live into s (into stop: the temporal rule's).
				if len(succs) == 2 && succs[1-i] != stop {
					div = div || phiOperand(b, s, in) || s != stop && live.in(s, in)
				}
			}
			if div {
				u.vals[in] = false
			}
		}
	}
}

// liveness is the SSA liveness of a function's instruction results:
// for every block, the set of values live on entry to it. A phi
// defines its result on entry to its block and reads each incoming
// value at the end of the incoming block.
type liveness struct {
	nb  *ir.Numbering
	ins map[*ir.Block][]uint64
}

func (lv *liveness) has(set []uint64, v *ir.Instr) bool {
	i, _ := lv.nb.IndexOf(v)
	return set[i/64]&(1<<(i%64)) != 0
}

// in reports whether v is live on entry to b.
func (lv *liveness) in(b *ir.Block, v *ir.Instr) bool { return lv.has(lv.ins[b], v) }

// phiOperand reports whether v is the value one of s's phis takes on
// the edge from b.
func phiOperand(b, s *ir.Block, v *ir.Instr) bool {
	for _, phi := range s.Phis() {
		if phi.IncomingFor(b) == ir.Value(v) {
			return true
		}
	}
	return false
}

// computeLiveness solves backward liveness over bitsets indexed by the
// function's value numbering: in(b) = use(b) ∪ (out(b) − def(b)), where
// out(b) joins the successors' in-sets and the phi operands flowing
// from b, and use(b) skips phi operands.
func computeLiveness(f *ir.Function) *liveness {
	nb := ir.NumberFunction(f)
	words := (nb.NumValues() + 63) / 64
	bit := func(set []uint64, v ir.Value) {
		if in, ok := v.(*ir.Instr); ok {
			if i, ok := nb.IndexOf(in); ok {
				set[i/64] |= 1 << (i % 64)
			}
		}
	}
	n := len(f.Blocks)
	sets := make([]uint64, 4*words*n)
	take := func() []uint64 {
		s := sets[:words:words]
		sets = sets[words:]
		return s
	}
	use, def, phiOut := make([][]uint64, n), make([][]uint64, n), make([][]uint64, n)
	lv := &liveness{nb: nb, ins: make(map[*ir.Block][]uint64, n)}
	idx := make(map[*ir.Block]int, n)
	for i, b := range f.Blocks {
		idx[b] = i
		use[i], def[i], phiOut[i] = take(), take(), take()
		lv.ins[b] = take()
	}
	for i, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpPhi {
				for k, a := range in.Args {
					if p, ok := idx[in.Incoming[k]]; ok {
						bit(phiOut[p], a)
					}
				}
			} else {
				for _, a := range in.Args {
					if ai, ok := a.(*ir.Instr); ok && !lv.has(def[i], ai) {
						bit(use[i], a)
					}
				}
			}
			if in.HasResult() {
				bit(def[i], in)
			}
		}
	}
	succs := make([][]*ir.Block, n)
	for i, b := range f.Blocks {
		succs[i] = b.Succs()
	}
	out := make([]uint64, words)
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			copy(out, phiOut[i])
			for _, s := range succs[i] {
				for w, sw := range lv.ins[s] {
					out[w] |= sw
				}
			}
			in := lv.ins[f.Blocks[i]]
			for w := range in {
				if nw := in[w] | use[i][w] | out[w]&^def[i][w]; nw != in[w] {
					in[w] = nw
					changed = true
				}
			}
		}
	}
	return lv
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
