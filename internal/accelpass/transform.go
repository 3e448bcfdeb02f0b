// Package accelpass implements the accelOS JIT kernel transformation
// (§6 of the paper). For every OpenCL kernel in a module it:
//
//  1. converts the kernel function into a regular computation function,
//  2. extends its interface with pointers to the runtime data structures
//     (the RT descriptor in global memory, the SD scheduling block in
//     local memory, and the virtual-group handle),
//  3. replaces OpenCL work-item builtins with runtime equivalents,
//     transitively through helper functions,
//  4. hoists local-memory declarations out of the computation function,
//  5. generates a scheduling kernel (dyn_sched in the paper's Fig. 8)
//     that atomically dequeues virtual groups from the Virtual NDRange
//     and invokes the computation function for each, and
//  6. statically links the result against the GPU scheduling runtime
//     library (package rtlib).
//
// The transformed module still exposes a kernel under each original
// kernel's name, so the host runtime's interposition stays transparent to
// applications.
package accelpass

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/passes"
	"repro/internal/rtlib"
)

// KernelInfo describes one transformed kernel.
type KernelInfo struct {
	// Name is the original kernel name; the scheduling kernel is
	// registered under this name in the transformed module.
	Name string
	// ComputeName is the demoted computation function.
	ComputeName string
	// InstrCount is the IR instruction count of the computation
	// function, the size metric for adaptive scheduling.
	InstrCount int
	// Chunk is the number of virtual groups dequeued per scheduling
	// operation (§6.4).
	Chunk int
	// Regs is the estimated register usage per work-item.
	Regs int
	// LocalBytes is the per-work-group local memory footprint of the
	// transformed kernel: hoisted arrays plus the SD block.
	LocalBytes int64
	// OrigLocalBytes is the local memory the original kernel used.
	OrigLocalBytes int64
	// Hoisted lists the hoisted local arrays (for diagnostics).
	Hoisted []HoistedArray
}

// HoistedArray describes a local array moved from the kernel body into
// the scheduling kernel.
type HoistedArray struct {
	Elem  *ir.Type
	Count int64
}

// Result is the output of Transform.
type Result struct {
	// Module is the transformed, linked module.
	Module *ir.Module
	// Kernels maps original kernel names to their transformation info.
	Kernels map[string]*KernelInfo
}

var (
	rtPtrT = ir.PointerTo(ir.I64T, ir.Global)
	sdPtrT = ir.PointerTo(ir.I64T, ir.Local)
)

// Transform rewrites the module in place (it becomes the transformed
// module) and returns per-kernel metadata. The caller should clone the
// module first if the original is still needed (the host runtime keeps
// the original for baseline execution).
func Transform(m *ir.Module) (*Result, error) {
	kernels := m.Kernels()
	if len(kernels) == 0 {
		return nil, fmt.Errorf("accelpass: module %s has no kernels", m.Name)
	}
	res := &Result{Module: m, Kernels: make(map[string]*KernelInfo)}

	// Step 1+2: demote kernels and extend interfaces.
	extend := extensionSet(m, kernels)
	for _, f := range extend {
		appendRuntimeParams(f)
	}
	var infos []*KernelInfo
	for _, k := range kernels {
		info := &KernelInfo{Name: k.Name, ComputeName: k.Name + "__compute"}
		m.Remove(k.Name)
		k.Name = info.ComputeName
		k.Kernel = false
		m.Add(k)
		infos = append(infos, info)
		res.Kernels[info.Name] = info
	}

	// Step 3: replace work-item builtins and fix calls into extended
	// functions.
	extended := make(map[string]bool)
	for _, f := range extend {
		extended[f.Name] = true
	}
	for _, f := range extend {
		guardDims(f)
		if err := replaceBuiltins(f, extended); err != nil {
			return nil, err
		}
	}

	// Step 4: hoist local declarations out of the computation functions.
	for _, info := range infos {
		cf := m.Lookup(info.ComputeName)
		hoisted, origLocal := hoistLocals(cf)
		info.Hoisted = hoisted
		info.OrigLocalBytes = origLocal
		info.LocalBytes = origLocal + rtlib.SDWords*8
	}

	// Step 5: generate the scheduling kernels.
	for _, info := range infos {
		buildSchedulingKernel(m, info, m.Lookup(info.ComputeName))
	}

	// Step 6: link the runtime library (the functions this module uses).
	if err := rtlib.Link(m); err != nil {
		return nil, fmt.Errorf("accelpass: linking runtime library: %w", err)
	}

	// Cleanup passes (the manager verifies the module after each, so
	// what leaves here is verified), then record size metrics.
	pm := passes.NewManager(passes.ConstFold{}, passes.DCE{})
	if err := pm.Run(m); err != nil {
		return nil, fmt.Errorf("accelpass: %w", err)
	}
	for _, info := range infos {
		cf := m.Lookup(info.ComputeName)
		info.InstrCount = passes.InstrCount(cf)
		info.Chunk = passes.AdaptiveChunk(info.InstrCount)
		info.Regs = passes.ModuleRegisterEstimate(m, info.ComputeName)
	}
	return res, nil
}

// extensionSet returns the definitions whose interfaces must carry the
// runtime pointers: all kernels, plus every function that (transitively)
// calls a work-item builtin.
func extensionSet(m *ir.Module, kernels []*ir.Function) []*ir.Function {
	need := make(map[*ir.Function]bool)
	for _, k := range kernels {
		need[k] = true
	}
	// Direct users of work-item builtins.
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					if _, ok := rtlib.Replacement[in.Callee]; ok {
						need[f] = true
					}
				}
			}
		}
	}
	// Propagate up the call graph to a fixed point.
	for changed := true; changed; {
		changed = false
		for _, f := range m.Funcs {
			if f.IsDecl() || need[f] {
				continue
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if in.Op != ir.OpCall {
						continue
					}
					callee := m.Lookup(in.Callee)
					if callee != nil && need[callee] {
						need[f] = true
						changed = true
					}
				}
			}
		}
	}
	var out []*ir.Function
	for _, f := range m.Funcs { // deterministic order
		if need[f] {
			out = append(out, f)
		}
	}
	return out
}

// appendRuntimeParams appends (__rt, __sd, __hdlr) to the function
// signature.
func appendRuntimeParams(f *ir.Function) {
	n := len(f.Params)
	f.Params = append(f.Params,
		&ir.Param{Nam: "__rt", Ty: rtPtrT, Idx: n},
		&ir.Param{Nam: "__sd", Ty: sdPtrT, Idx: n + 1},
		&ir.Param{Nam: "__hdlr", Ty: ir.I64T, Idx: n + 2},
	)
}

// runtimeArgs returns the values of the appended runtime parameters of f.
func runtimeArgs(f *ir.Function) (rt, sd, hdlr ir.Value) {
	n := len(f.Params)
	return f.Params[n-3], f.Params[n-2], f.Params[n-1]
}

// pastWorkDim is the OpenCL value of each work-item builtin that takes
// a dimension, for a dimension outside 0..2: 0 for an id or offset, 1
// for a size or count.
var pastWorkDim = map[string]int64{
	"get_global_id": 0, "get_local_id": 0, "get_group_id": 0, "get_global_offset": 0,
	"get_num_groups": 1, "get_local_size": 1, "get_global_size": 1,
}

// guardDims keeps a dimension outside 0..2 away from the runtime
// library, whose replacements index the RT descriptor by it. A constant
// one folds to the builtin's OpenCL value; a runtime one is clamped to 0
// for the call, and the result is replaced by that value when the
// dimension is out of range. Calls with constant dimensions 0..2 are
// left as they are.
func guardDims(f *ir.Function) {
	repl := make(map[*ir.Instr]ir.Value)
	for _, b := range f.Blocks {
		instrs := b.Instrs
		b.Instrs = make([]*ir.Instr, 0, len(instrs))
		ib := &ir.Builder{Fn: f, Cur: b}
		for _, in := range instrs {
			past, ok := pastWorkDim[in.Callee]
			if in.Op != ir.OpCall || !ok || len(in.Args) != 1 {
				b.Append(in)
				continue
			}
			d := in.Args[0]
			pastV := &ir.ConstInt{Ty: in.Ty, V: past}
			if c, isConst := ir.ConstIntValue(d); isConst {
				if c < 0 || c > 2 {
					repl[in] = pastV
				} else {
					b.Append(in)
				}
				continue
			}
			dt := d.Type()
			inRange := ib.Bin(ir.And,
				ib.Cmp(ir.IGE, d, &ir.ConstInt{Ty: dt, V: 0}),
				ib.Cmp(ir.ILT, d, &ir.ConstInt{Ty: dt, V: 3}))
			call := ib.Call(in.Callee, in.Ty, ib.Select(inRange, d, &ir.ConstInt{Ty: dt, V: 0}))
			repl[in] = ib.Select(inRange, call, pastV)
		}
	}
	for call, v := range repl {
		replaceUsesInFunc(f, call, v)
	}
}

// replaceBuiltins rewrites work-item builtin calls into runtime library
// calls and threads the runtime parameters through calls to other
// extended functions.
func replaceBuiltins(f *ir.Function, extended map[string]bool) error {
	rt, sd, hdlr := runtimeArgs(f)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall {
				continue
			}
			if repl, ok := rtlib.Replacement[in.Callee]; ok {
				args := []ir.Value{rt, sd, hdlr}
				if in.Callee != "get_work_dim" {
					if len(in.Args) != 1 {
						return fmt.Errorf("accelpass: %s: builtin %s with %d args", f.Name, in.Callee, len(in.Args))
					}
					args = append(args, in.Args[0])
				}
				in.Callee = repl
				in.Args = args
				continue
			}
			if extended[in.Callee] {
				in.Args = append(in.Args, rt, sd, hdlr)
			}
		}
	}
	return nil
}

// hoistLocals removes local-space allocas from the computation function,
// appending a pointer parameter for each; the scheduling kernel declares
// the arrays and passes them in (§6.2 "Local Data Hoisting"). It returns
// the hoist descriptors and the total local bytes.
func hoistLocals(f *ir.Function) ([]HoistedArray, int64) {
	var hoisted []HoistedArray
	var bytes int64
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.AllocaSpace == ir.Local {
				idx := len(f.Params)
				p := &ir.Param{
					Nam: fmt.Sprintf("__hoist%d", len(hoisted)),
					Ty:  ir.PointerTo(in.AllocaElem, ir.Local),
					Idx: idx,
				}
				f.Params = append(f.Params, p)
				replaceUsesInFunc(f, in, p)
				hoisted = append(hoisted, HoistedArray{Elem: in.AllocaElem, Count: in.AllocaCount})
				bytes += in.AllocaElem.Size() * in.AllocaCount
				continue
			}
			kept = append(kept, in)
		}
		b.Instrs = kept
	}
	return hoisted, bytes
}

func replaceUsesInFunc(f *ir.Function, old, new ir.Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// buildSchedulingKernel adds the dyn_sched wrapper (Fig. 8b) of a
// computation function to m. The wrapper keeps the original kernel's
// name so the interposition layer can launch it transparently; its
// signature is the original parameter list plus the RT descriptor
// pointer appended by the kernel scheduler. In CLC it would read:
//
//	kernel void K(<original params>, global long* __rt)
//	{
//	    local long __sd[SDWords];
//	    local T __h0[N0]; ...                  // the hoisted arrays
//	    int __master = rt_is_master_workitem();
//	    if (__master) rt_env_init(__rt, __sd);
//	    for (;;) {
//	        if (__master) rt_sched_wgroup(__rt, __sd);
//	        barrier(3);
//	        if (__sd[0] == 1) break;
//	        for (long __ind = __sd[1]; __ind < __sd[2]; __ind = __ind + 1)
//	            K__compute(<original params>, __rt, __sd, __ind, __h0, ...);
//	        barrier(3);
//	    }
//	}
//
// Compared to the paper's figure, an extra barrier closes each iteration
// so the master's next dequeue cannot overwrite the SD block while slower
// work-items are still reading the current chunk bounds, and the master
// test is evaluated once, ahead of the loop, instead of per dequeue. The
// IR is built directly, not compiled from that text — the JIT runs this
// for every program of every tenant — and in memory form (the loop
// variable is an alloca), so every engine can run it unoptimized.
func buildSchedulingKernel(m *ir.Module, info *KernelInfo, compute *ir.Function) {
	// The compute signature is: originals..., __rt, __sd, __hdlr,
	// hoists...
	nOrig := len(compute.Params) - 3 - len(info.Hoisted)
	params := make([]*ir.Param, 0, nOrig+1)
	for i, p := range compute.Params[:nOrig] {
		params = append(params, &ir.Param{Nam: p.Nam, Ty: p.Ty, Idx: i})
	}
	rt := &ir.Param{Nam: "__rt", Ty: rtPtrT, Idx: nOrig}
	k := m.NewFunction(info.Name, ir.VoidT, append(params, rt)...)
	k.Kernel = true

	b := ir.NewBuilder(k)
	sd := b.Alloca(ir.I64T, rtlib.SDWords, ir.Local)
	hoists := make([]ir.Value, len(info.Hoisted))
	for i, h := range info.Hoisted {
		hoists[i] = b.Alloca(h.Elem, h.Count, ir.Local)
	}
	ind := b.Alloca(ir.I64T, 1, ir.Private)
	sdWord := func(i int64) ir.Value { return b.Load(b.GEP(sd, ir.CI(i))) }

	master := b.Cmp(ir.INE, b.Call("rt_is_master_workitem", ir.I32T), ir.CI(0))
	initBlk, loop := b.NewBlock("sched.init"), b.NewBlock("sched.loop")
	b.CondBr(master, initBlk, loop)

	b.SetInsert(initBlk)
	b.Call("rt_env_init", ir.VoidT, rt, sd)
	b.Br(loop)

	dequeue, sync := b.NewBlock("sched.dequeue"), b.NewBlock("sched.sync")
	b.SetInsert(loop)
	b.CondBr(master, dequeue, sync)

	b.SetInsert(dequeue)
	b.Call("rt_sched_wgroup", ir.VoidT, rt, sd)
	b.Br(sync)

	done, chunk := b.NewBlock("sched.done"), b.NewBlock("sched.chunk")
	b.SetInsert(sync)
	b.Barrier(ir.FenceLocal | ir.FenceGlobal)
	b.CondBr(b.Cmp(ir.IEQ, sdWord(rtlib.SDStatus), ir.CI64(rtlib.StatusTerminate)), done, chunk)

	b.SetInsert(done)
	b.Ret(nil)

	cond, body, end := b.NewBlock("sched.cond"), b.NewBlock("sched.body"), b.NewBlock("sched.end")
	b.SetInsert(chunk)
	b.Store(sdWord(rtlib.SDBase), ind)
	b.Br(cond)

	b.SetInsert(cond)
	b.CondBr(b.Cmp(ir.ILT, b.Load(ind), sdWord(rtlib.SDEnd)), body, end)

	b.SetInsert(body)
	args := make([]ir.Value, 0, len(compute.Params))
	for _, p := range params {
		args = append(args, p)
	}
	args = append(args, rt, sd, b.Load(ind))
	b.Call(compute.Name, ir.VoidT, append(args, hoists...)...)
	b.Store(b.Bin(ir.Add, b.Load(ind), ir.CI64(1)), ind)
	b.Br(cond)

	b.SetInsert(end)
	b.Barrier(ir.FenceLocal | ir.FenceGlobal)
	b.Br(loop)
}
