package ir

import "fmt"

// CloneModule returns a deep copy of the module: functions, blocks and
// instructions are all fresh objects, so the copy can be transformed or
// linked without affecting the original.
func CloneModule(m *Module) *Module {
	out := NewModule(m.Name)
	for _, f := range m.Funcs {
		out.Add(CloneFunction(f))
	}
	return out
}

// CloneFunction returns a deep copy of a function.
func CloneFunction(f *Function) *Function {
	nf := &Function{
		Name:    f.Name,
		Ret:     f.Ret,
		Kernel:  f.Kernel,
		Builtin: f.Builtin,
		nblk:    f.nblk,
	}
	params := make(map[*Param]Value, len(f.Params))
	for _, p := range f.Params {
		np := &Param{Nam: p.Nam, Ty: p.Ty, Idx: p.Idx}
		params[p] = np
		nf.Params = append(nf.Params, np)
	}
	nf.Blocks = cloneBody(f, nf, params, func(b *Block) string { return b.Name })
	return nf
}

// cloneBody copies the blocks of f into fresh blocks owned by into
// (without adding them to into.Blocks): instructions are new objects,
// operands that are parameters of f are replaced through params,
// operands and branch targets inside f follow the copies, and anything
// else (constants) is shared.
func cloneBody(f, into *Function, params map[*Param]Value, name func(*Block) string) []*Block {
	blockMap := make(map[*Block]*Block, len(f.Blocks))
	instrMap := make(map[*Instr]*Instr, f.NumInstrs())
	out := make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{Name: name(b), Fn: into, Instrs: make([]*Instr, 0, len(b.Instrs))}
		blockMap[b] = nb
		out[i] = nb
	}
	// First pass: clone instructions without operands resolved.
	for _, b := range f.Blocks {
		nb := blockMap[b]
		for _, in := range b.Instrs {
			ni := &Instr{
				Op: in.Op, Ty: in.Ty,
				BinK: in.BinK, CmpK: in.CmpK, CastK: in.CastK, AtomK: in.AtomK,
				Callee:     in.Callee,
				AllocaElem: in.AllocaElem, AllocaCount: in.AllocaCount, AllocaSpace: in.AllocaSpace,
				Scope: in.Scope,
			}
			instrMap[in] = ni
			nb.Append(ni)
		}
	}
	// Second pass: remap operands and branch targets.
	remap := func(v Value) Value {
		switch x := v.(type) {
		case *Instr:
			if ni, ok := instrMap[x]; ok {
				return ni
			}
		case *Param:
			if np, ok := params[x]; ok {
				return np
			}
		}
		return v
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			ni := instrMap[in]
			if len(in.Args) > 0 {
				ni.Args = make([]Value, len(in.Args))
				for i, a := range in.Args {
					ni.Args[i] = remap(a)
				}
			}
			if in.Then != nil {
				ni.Then = blockMap[in.Then]
			}
			if in.Else != nil {
				ni.Else = blockMap[in.Else]
			}
			if len(in.Incoming) > 0 {
				ni.Incoming = make([]*Block, len(in.Incoming))
				for i, ib := range in.Incoming {
					ni.Incoming[i] = blockMap[ib]
				}
			}
		}
	}
	return out
}

// InlineCall replaces the OpCall at b.Instrs[idx] with a copy of the
// callee's body. The block is split at the call: b keeps what came
// before and branches into the copied entry block, every return of the
// copy branches to a continuation block holding what came after, and
// the call's result becomes the returned value (a phi in the
// continuation when the callee returns from several places). The copy
// and the continuation follow b in the function's block order.
//
// The callee must be a definition with at least one return whose
// signature matches the call (ir.Verify checks that), and must not be
// the caller itself. The call instruction is gone from the function
// afterwards but may still be named as an operand: result is the value
// to put in its place (nil for a void callee), left to the caller so
// that a sweep of many calls rewrites operands once.
func InlineCall(b *Block, idx int, callee *Function) (result Value) {
	f := b.Fn
	call := b.Instrs[idx]
	n := f.nblk
	f.nblk++

	cont := &Block{Name: fmt.Sprintf("inl%d.cont", n), Fn: f}
	for _, in := range b.Instrs[idx+1:] {
		cont.Append(in)
	}
	b.Instrs = b.Instrs[:idx]
	for _, s := range cont.Succs() {
		for _, phi := range s.Phis() {
			for i, ib := range phi.Incoming {
				if ib == b {
					phi.Incoming[i] = cont
				}
			}
		}
	}

	params := make(map[*Param]Value, len(callee.Params))
	for i, p := range callee.Params {
		params[p] = call.Args[i]
	}
	body := cloneBody(callee, f, params, func(cb *Block) string {
		return fmt.Sprintf("inl%d.%s", n, cb.Name)
	})
	b.Append(&Instr{Op: OpBr, Ty: VoidT, Then: body[0]})

	// Returns become branches to the continuation.
	var rets []*Instr
	for _, nb := range body {
		if t := nb.Terminator(); t != nil && t.Op == OpRet {
			rets = append(rets, t)
		}
	}
	if call.HasResult() {
		if len(rets) == 1 {
			result = rets[0].Args[0]
		} else {
			phi := &Instr{Op: OpPhi, Ty: call.Ty}
			for _, r := range rets {
				phi.AddIncoming(r.Args[0], r.blk)
			}
			cont.Append(phi)
			copy(cont.Instrs[1:], cont.Instrs[:len(cont.Instrs)-1])
			cont.Instrs[0] = phi
			result = phi
		}
	}
	for _, r := range rets {
		r.Op, r.Args, r.Then = OpBr, nil, cont
	}

	// Splice the copy and the continuation in after b.
	at := 0
	for i, fb := range f.Blocks {
		if fb == b {
			at = i + 1
			break
		}
	}
	blocks := make([]*Block, 0, len(f.Blocks)+len(body)+1)
	blocks = append(blocks, f.Blocks[:at]...)
	blocks = append(blocks, body...)
	blocks = append(blocks, cont)
	f.Blocks = append(blocks, f.Blocks[at:]...)

	return result
}
