package passes

import "repro/internal/ir"

// Mem2Reg promotes private-space scalar allocas whose address never
// escapes (see AnalyzeAllocas) into SSA values: loads become uses of the
// reaching definition, stores become definitions, and join points get
// OpPhi nodes placed on the iterated dominance frontier of the
// definition blocks (pruned by block-level liveness, so no phi is
// created where the variable is dead). This is the classic
// Cytron-et-al. construction; it removes the load/store + bounds-check
// pair the bytecode VM pays for every scalar local in clc's -O0 output.
//
// An alloca instruction itself counts as a definition carrying the zero
// value of its element type: a fresh private region arrives zeroed, and
// re-executing an alloca (one declared inside a loop) yields a fresh
// zeroed region, so "reset to zero at the alloca's program point" is the
// exact register equivalent.
type Mem2Reg struct{}

// Name implements Pass.
func (Mem2Reg) Name() string { return "mem2reg" }

// Run implements Pass.
func (Mem2Reg) Run(m *ir.Module) error {
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		// Promotion walks the dominator tree, which only covers blocks
		// reachable from the entry; drop the rest so no stale load in an
		// unreachable block keeps referencing a deleted alloca.
		removeUnreachable(f)
		promoteFunc(f)
	}
	return nil
}

// zeroValue returns the constant a promoted variable holds before any
// store: private regions arrive zeroed, so it is always the zero of the
// element type.
func zeroValue(t *ir.Type) ir.Value {
	switch {
	case t.IsFloat():
		return &ir.ConstFloat{Ty: t, V: 0}
	case t.IsPointer():
		return &ir.ConstNull{Ty: t}
	default:
		return &ir.ConstInt{Ty: t, V: 0}
	}
}

func promoteFunc(f *ir.Function) {
	uses := AnalyzeAllocas(f)
	var vars []*AllocaUse
	varOf := make(map[*ir.Instr]int) // alloca -> index in vars
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if u := uses[in]; u != nil && u.Promotable() {
				varOf[in] = len(vars)
				vars = append(vars, u)
			}
		}
	}
	if len(vars) == 0 {
		return
	}
	d := computeDom(f)
	if len(d.rpo) == 0 {
		return
	}

	live := liveInBlocks(vars, varOf, d)

	// Phi placement: iterated dominance frontier of the definition
	// blocks, pruned to blocks where the variable is live on entry.
	phiVar := make(map[*ir.Instr]int) // inserted phi -> var index
	for vi, u := range vars {
		defBlocks := map[*ir.Block]bool{u.Alloca.Block(): true}
		for _, st := range u.Stores {
			defBlocks[st.Block()] = true
		}
		work := make([]*ir.Block, 0, len(defBlocks))
		for b := range defBlocks {
			work = append(work, b)
		}
		hasPhi := make(map[*ir.Block]bool)
		for len(work) > 0 {
			x := work[len(work)-1]
			work = work[:len(work)-1]
			for _, y := range d.front[x] {
				if hasPhi[y] || !live[vi][d.num[y]] {
					continue
				}
				hasPhi[y] = true
				phi := &ir.Instr{Op: ir.OpPhi, Ty: u.Alloca.AllocaElem}
				prependInstr(y, phi)
				phiVar[phi] = vi
				if !defBlocks[y] {
					defBlocks[y] = true
					work = append(work, y)
				}
			}
		}
	}

	rn := &renamer{
		d:       d,
		varOf:   varOf,
		phiVar:  phiVar,
		stacks:  make([][]ir.Value, len(vars)),
		zeros:   make([]ir.Value, len(vars)),
		loadVal: make(map[*ir.Instr]ir.Value),
		dead:    make(map[*ir.Instr]bool),
	}
	for vi, u := range vars {
		rn.zeros[vi] = zeroValue(u.Alloca.AllocaElem)
	}
	rn.block(d.rpo[0])

	// Sweep: drop the promoted allocas, loads and stores, and rewrite
	// every remaining operand that referenced a deleted load.
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if rn.dead[in] {
				continue
			}
			for i, a := range in.Args {
				in.Args[i] = rn.resolve(a)
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}

	collapseTrivialPhis(f)
}

// prependInstr inserts an instruction at the head of the block, where
// phis must live. Append first so the block back-pointer is set, then
// rotate it to the front.
func prependInstr(b *ir.Block, in *ir.Instr) {
	b.Append(in)
	copy(b.Instrs[1:], b.Instrs[:len(b.Instrs)-1])
	b.Instrs[0] = in
}

// liveInBlocks computes, per promoted variable, the set of blocks where
// the variable is live on entry: a load is reachable without an
// intervening definition (store or the alloca itself). Block-granular
// backward dataflow, the standard pruning that keeps phis out of blocks
// where the value is dead. The result is indexed [variable][d.num of
// the block].
func liveInBlocks(vars []*AllocaUse, varOf map[*ir.Instr]int, d *domInfo) [][]bool {
	nv, nb := len(vars), len(d.rpo)
	flat := make([]bool, 3*nv*nb)
	rows := func() [][]bool {
		r := make([][]bool, nv)
		for i := range r {
			r[i], flat = flat[:nb:nb], flat[nb:]
		}
		return r
	}
	upExposed, defIn, liveIn := rows(), rows(), rows()
	for bi, b := range d.rpo {
		for _, in := range b.Instrs {
			switch {
			case in.Op == ir.OpAlloca:
				if vi, ok := varOf[in]; ok {
					defIn[vi][bi] = true
				}
			case in.Op == ir.OpLoad:
				if al, ok := in.Args[0].(*ir.Instr); ok && al.Op == ir.OpAlloca {
					if vi, ok := varOf[al]; ok && !defIn[vi][bi] {
						upExposed[vi][bi] = true
					}
				}
			case in.Op == ir.OpStore:
				if al, ok := in.Args[1].(*ir.Instr); ok && al.Op == ir.OpAlloca {
					if vi, ok := varOf[al]; ok {
						defIn[vi][bi] = true
					}
				}
			}
		}
	}
	succs := make([][]int, nb)
	for bi, b := range d.rpo {
		for _, s := range b.Succs() {
			succs[bi] = append(succs[bi], d.num[s])
		}
	}
	for changed := true; changed; {
		changed = false
		for bi := nb - 1; bi >= 0; bi-- {
			for vi := 0; vi < nv; vi++ {
				if liveIn[vi][bi] {
					continue
				}
				in := upExposed[vi][bi]
				if !in && !defIn[vi][bi] {
					for _, s := range succs[bi] {
						if liveIn[vi][s] {
							in = true
							break
						}
					}
				}
				if in {
					liveIn[vi][bi] = true
					changed = true
				}
			}
		}
	}
	return liveIn
}

// renamer is the dominator-tree walk of the classic SSA construction:
// one definition stack per promoted variable.
type renamer struct {
	d       *domInfo
	varOf   map[*ir.Instr]int
	phiVar  map[*ir.Instr]int
	stacks  [][]ir.Value
	zeros   []ir.Value
	loadVal map[*ir.Instr]ir.Value // deleted load -> reaching definition
	dead    map[*ir.Instr]bool
}

func (r *renamer) top(vi int) ir.Value {
	s := r.stacks[vi]
	if len(s) == 0 {
		return r.zeros[vi]
	}
	return s[len(s)-1]
}

// resolve chases a value through deleted loads to the definition that
// reaches them.
func (r *renamer) resolve(v ir.Value) ir.Value {
	for {
		ld, ok := v.(*ir.Instr)
		if !ok {
			return v
		}
		repl, ok := r.loadVal[ld]
		if !ok {
			return v
		}
		v = repl
	}
}

func (r *renamer) block(b *ir.Block) {
	pushed := make([]int, len(r.stacks))
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpPhi:
			if vi, ok := r.phiVar[in]; ok {
				r.stacks[vi] = append(r.stacks[vi], in)
				pushed[vi]++
			}
		case ir.OpAlloca:
			if vi, ok := r.varOf[in]; ok {
				r.stacks[vi] = append(r.stacks[vi], r.zeros[vi])
				pushed[vi]++
				r.dead[in] = true
			}
		case ir.OpLoad:
			if al, ok := in.Args[0].(*ir.Instr); ok {
				if vi, ok := r.varOf[al]; ok {
					r.loadVal[in] = r.top(vi)
					r.dead[in] = true
				}
			}
		case ir.OpStore:
			if al, ok := in.Args[1].(*ir.Instr); ok {
				if vi, ok := r.varOf[al]; ok {
					r.stacks[vi] = append(r.stacks[vi], r.resolve(in.Args[0]))
					pushed[vi]++
					r.dead[in] = true
				}
			}
		}
	}
	for _, s := range b.Succs() {
		for _, phi := range s.Phis() {
			if vi, ok := r.phiVar[phi]; ok {
				phi.AddIncoming(r.top(vi), b)
			}
		}
	}
	for _, c := range r.d.domkid[b] {
		r.block(c)
	}
	for vi, n := range pushed {
		if n > 0 {
			r.stacks[vi] = r.stacks[vi][:len(r.stacks[vi])-n]
		}
	}
}

// collapseTrivialPhis removes phis whose arms all carry the same value
// (or the phi itself), iterating because a collapse can make another
// phi trivial.
func collapseTrivialPhis(f *ir.Function) {
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if in.Op == ir.OpPhi {
					var only ir.Value
					trivial := true
					for _, a := range in.Args {
						if a == ir.Value(in) {
							continue
						}
						if only == nil {
							only = a
						} else if only != a {
							trivial = false
							break
						}
					}
					if trivial && only != nil {
						replaceAllUses(f, in, only)
						changed = true
						continue
					}
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
		}
	}
}
