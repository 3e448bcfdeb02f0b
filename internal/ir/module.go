package ir

import (
	"fmt"
	"sync/atomic"
)

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Name   string
	Instrs []*Instr
	Fn     *Function
}

// Append adds an instruction to the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.blk = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// Terminator returns the block's final instruction if it is a terminator,
// or nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if !last.IsTerminator() {
		return nil
	}
	return last
}

// Terminated reports whether the block ends in a terminator.
func (b *Block) Terminated() bool { return b.Terminator() != nil }

// Succs returns the block's unique successors in Then/Else order.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	var s []*Block
	if t.Then != nil {
		s = append(s, t.Then)
	}
	if t.Else != nil && t.Else != t.Then {
		s = append(s, t.Else)
	}
	return s
}

// Phis returns the block's leading run of OpPhi instructions.
func (b *Block) Phis() []*Instr {
	n := 0
	for _, in := range b.Instrs {
		if in.Op != OpPhi {
			break
		}
		n++
	}
	return b.Instrs[:n]
}

// Function is an IR function: a signature plus (for definitions) a list of
// basic blocks. A function with no blocks is an external declaration.
type Function struct {
	Name   string
	Params []*Param
	Ret    *Type
	Blocks []*Block

	// Kernel marks OpenCL kernel entry points (callable from the host
	// with an NDRange).
	Kernel bool

	// Builtin marks work-item/builtin functions provided by the
	// execution environment rather than IR definitions.
	Builtin bool

	Mod *Module

	nblk int // block name counter
}

// IsDecl reports whether the function is a declaration without a body.
func (f *Function) IsDecl() bool { return len(f.Blocks) == 0 }

// NewBlock appends a fresh basic block with a unique name derived from
// hint.
func (f *Function) NewBlock(hint string) *Block {
	if hint == "" {
		hint = "bb"
	}
	b := &Block{Name: fmt.Sprintf("%s%d", hint, f.nblk), Fn: f}
	f.nblk++
	f.Blocks = append(f.Blocks, b)
	return b
}

// Entry returns the entry block of the function.
func (f *Function) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Signature returns a printable signature string.
func (f *Function) Signature() string {
	s := f.Ret.String() + " @" + f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ", "
		}
		s += p.Ty.String() + " %" + p.Nam
	}
	return s + ")"
}

// NumInstrs returns the number of instructions in the function body. This
// is the size measure used by the adaptive scheduling policy (§6.4 of the
// paper).
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Module is a compilation unit: an ordered set of functions.
type Module struct {
	Name  string
	Funcs []*Function

	// Compiled holds the module's executable form for whichever backend
	// fills it (interp keeps its bytecode here); ir never reads it, and
	// the compiled code is collected with the module.
	Compiled atomic.Value

	index map[string]*Function
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{Name: name, index: make(map[string]*Function)}
}

// NewFunction creates a function definition shell and registers it in the
// module. It replaces an existing declaration of the same name.
func (m *Module) NewFunction(name string, ret *Type, params ...*Param) *Function {
	f := &Function{Name: name, Ret: ret, Params: params, Mod: m}
	m.Add(f)
	return f
}

// Add registers a function, replacing any previous entry with the same
// name.
func (m *Module) Add(f *Function) {
	f.Mod = m
	if m.index == nil {
		m.index = make(map[string]*Function)
	}
	if old, ok := m.index[f.Name]; ok {
		for i, g := range m.Funcs {
			if g == old {
				m.Funcs[i] = f
				m.index[f.Name] = f
				return
			}
		}
	}
	m.index[f.Name] = f
	m.Funcs = append(m.Funcs, f)
}

// Remove deletes a function from the module by name.
func (m *Module) Remove(name string) {
	f, ok := m.index[name]
	if !ok {
		return
	}
	delete(m.index, name)
	for i, g := range m.Funcs {
		if g == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			return
		}
	}
}

// Lookup returns the function with the given name, or nil.
func (m *Module) Lookup(name string) *Function {
	if m.index == nil {
		return nil
	}
	return m.index[name]
}

// Kernels returns all kernel entry points in declaration order.
func (m *Module) Kernels() []*Function {
	var ks []*Function
	for _, f := range m.Funcs {
		if f.Kernel && !f.IsDecl() {
			ks = append(ks, f)
		}
	}
	return ks
}
