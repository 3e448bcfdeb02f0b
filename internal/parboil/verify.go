package parboil

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rtlib"
)

// VerifyEquivalence compiles the kernel, runs its verification launch
// natively and through the accelOS transformation with physGroups
// physical work-groups, and compares every output buffer byte for byte.
// It is the end-to-end correctness check of the JIT pipeline (the paper's
// claim that the transformation is semantics-preserving).
func (k *Kernel) VerifyEquivalence(physGroups int64) error {
	orig, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return fmt.Errorf("%s: compile: %w", k.FullName(), err)
	}
	tm := ir.CloneModule(orig)
	res, err := accelpass.Transform(tm)
	if err != nil {
		return fmt.Errorf("%s: transform: %w", k.FullName(), err)
	}
	info := res.Kernels[k.Name]
	if info == nil {
		return fmt.Errorf("%s: transformation lost the kernel", k.FullName())
	}
	spec := k.Setup()

	native, err := runSpec(orig, k.Name, spec, nil, 0)
	if err != nil {
		return fmt.Errorf("%s: native run: %w", k.FullName(), err)
	}
	trans, err := runSpec(tm, k.Name, spec, info, physGroups)
	if err != nil {
		return fmt.Errorf("%s: transformed run: %w", k.FullName(), err)
	}
	for i := range native {
		if !bytes.Equal(native[i], trans[i]) {
			return fmt.Errorf("%s: output buffer %d (%s) differs between native and transformed execution",
				k.FullName(), i, spec.Args[i].Name)
		}
	}
	return nil
}

// runSpec executes one launch of the kernel over the interpreter and
// returns the final bytes of every argument buffer (outputs and inputs
// alike; inputs must come back untouched unless marked Out).
func runSpec(mod *ir.Module, kernel string, spec LaunchSpec, info *accelpass.KernelInfo, physGroups int64) ([][]byte, error) {
	return runSpecEngine(mod, kernel, spec, info, physGroups, interp.EngineVM)
}

// runSpecEngine is runSpec on an explicit execution engine; the
// differential parity suite runs every kernel on both and compares.
func runSpecEngine(mod *ir.Module, kernel string, spec LaunchSpec, info *accelpass.KernelInfo, physGroups int64, eng interp.Engine) ([][]byte, error) {
	mach := interp.NewMachine(mod)
	mach.Engine = eng
	return launchSpec(mach, kernel, spec, info, physGroups)
}

// launchSpec binds the spec's arguments on mach and runs the one launch:
// natively, or (info non-nil) as the transformed kernel over physGroups
// physical work-groups.
func launchSpec(mach *interp.Machine, kernel string, spec LaunchSpec, info *accelpass.KernelInfo, physGroups int64) ([][]byte, error) {
	args, bufs, err := bindSpecArgs(mach, spec)
	if err != nil {
		return nil, err
	}
	nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
	if info != nil {
		// Transformed execution: append the RT descriptor and shrink the
		// physical grid (the Kernel Scheduler's job, §5).
		rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
		rtr := mach.NewRegion(rtlib.RTWords*8, ir.Global)
		rtr.WriteInt64s(0, rtWords)
		args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: rtr}})
		if physGroups < 1 {
			physGroups = 1
		}
		nd = interp.NDRange{
			Dims:   nd.Dims,
			Global: [3]int64{physGroups * nd.Local[0], nd.Local[1], nd.Local[2]},
			Local:  nd.Local,
		}
	}
	if err := mach.Launch(kernel, args, nd); err != nil {
		return nil, err
	}
	return bufs, nil
}

// bindSpecArgs materializes the spec's arguments on the machine:
// scalars as values, arrays as freshly written global regions. The
// returned bufs parallel the args (nil entries for scalars) and alias
// the regions' backing bytes for output comparison.
func bindSpecArgs(mach *interp.Machine, spec LaunchSpec) ([]interp.Value, [][]byte, error) {
	var args []interp.Value
	var bufs [][]byte
	for _, a := range spec.Args {
		switch {
		case a.Scalar != nil:
			args = append(args, interp.IntV(*a.Scalar))
			bufs = append(bufs, nil)
		case a.I32 != nil:
			r := mach.NewRegion(int64(len(a.I32))*4, ir.Global)
			r.WriteInt32s(0, a.I32)
			args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
			bufs = append(bufs, r.Bytes)
		case a.F32 != nil:
			r := mach.NewRegion(int64(len(a.F32))*4, ir.Global)
			r.WriteFloat32s(0, a.F32)
			args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
			bufs = append(bufs, r.Bytes)
		case a.I64 != nil:
			r := mach.NewRegion(int64(len(a.I64))*8, ir.Global)
			r.WriteInt64s(0, a.I64)
			args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
			bufs = append(bufs, r.Bytes)
		default:
			return nil, nil, fmt.Errorf("argument %q has no value", a.Name)
		}
	}
	return args, bufs, nil
}

// Reference helpers used by golden tests.

// Float32At reads a float32 from little-endian buffer bytes.
func Float32At(b []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
}

// Int32At reads an int32 from little-endian buffer bytes.
func Int32At(b []byte, i int) int32 {
	return int32(binary.LittleEndian.Uint32(b[i*4:]))
}

// RunNative executes the kernel's verification launch natively and
// returns the final contents of every argument buffer (nil entries for
// scalars). Used by golden-reference tests and examples.
func (k *Kernel) RunNative() ([][]byte, error) {
	return k.RunNativeEngine(interp.EngineVM)
}

// RunNativeEngine is RunNative on an explicit interpreter engine.
func (k *Kernel) RunNativeEngine(eng interp.Engine) ([][]byte, error) {
	mod, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return nil, err
	}
	return runSpecEngine(mod, k.Name, k.Setup(), nil, 0, eng)
}

// RunNativeVM runs the verification launch on the bytecode VM compiled
// with explicit optimization settings — the O0/O1 axes of the
// differential parity suite.
func (k *Kernel) RunNativeVM(opts interp.CompileOpts) ([][]byte, error) {
	mod, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return nil, err
	}
	mach := interp.NewMachine(mod)
	mach.UseProgram(interp.CompileModuleOpts(mod, opts))
	return launchSpec(mach, k.Name, k.Setup(), nil, 0)
}
