package parboil

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"

	"repro/internal/accelos"
	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/passes"
	"repro/internal/rtlib"
	"repro/internal/sim"
)

// vmParityO0 compiles the bytecode exactly as PR 3 shipped it: no O1
// pipeline, no superinstruction fusion (WarpWidth zero: scalar).
var vmParityO0 = interp.CompileOpts{Disable: []string{"fuse"}}

// vmParityO1 is the O1 pipeline plus fusion on the scalar per-item
// engine — DefaultCompileOpts minus warp execution.
var vmParityO1 = interp.CompileOpts{Opt: true}

// TestVMParityNative is the differential suite over the native path,
// now a four-axis comparison: every Parboil kernel runs its
// verification launch on (1) the tree-walking reference interpreter,
// (2) the bytecode VM without any optimization, (3) the scalar VM
// behind the full O1 pipeline plus fusion, and (4) the warp-batched
// engine (DefaultCompileOpts, 64-lane warps with lane masking),
// with identical inputs — and every argument buffer must match byte
// for byte across all four.
func TestVMParityNative(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.FullName(), func(t *testing.T) {
			t.Parallel()
			ref, err := k.RunNativeEngine(interp.EngineTreeWalk)
			if err != nil {
				t.Fatalf("tree-walker: %v", err)
			}
			vm0, err := k.RunNativeVM(vmParityO0)
			if err != nil {
				t.Fatalf("vm O0: %v", err)
			}
			vm1, err := k.RunNativeVM(vmParityO1)
			if err != nil {
				t.Fatalf("vm O1: %v", err)
			}
			vmw, err := k.RunNativeVM(interp.DefaultCompileOpts)
			if err != nil {
				t.Fatalf("vm warp: %v", err)
			}
			spec := k.Setup()
			for i := range ref {
				if !bytes.Equal(ref[i], vm0[i]) {
					t.Errorf("buffer %d (%s) differs between tree-walker and unoptimized VM", i, spec.Args[i].Name)
				}
				if !bytes.Equal(ref[i], vm1[i]) {
					t.Errorf("buffer %d (%s) differs between tree-walker and O1 VM", i, spec.Args[i].Name)
				}
				if !bytes.Equal(ref[i], vmw[i]) {
					t.Errorf("buffer %d (%s) differs between tree-walker and warp VM", i, spec.Args[i].Name)
				}
			}
		})
	}
}

// TestVMParityTransformedSliced is the differential suite over the live
// execution path: every kernel's JIT-transformed form runs as a
// multi-slice LaunchHandle execution on the VM (one dequeue round per
// slice, a reduced physical grid) — on the program the handle resolves
// from the shared cache, as the runtime's launches do (O1, fusion, warp
// tables), and pinned to the scalar O1 and unoptimized forms — and each
// must reproduce the tree-walker's native output buffers byte for byte.
func TestVMParityTransformedSliced(t *testing.T) {
	for _, k := range Kernels() {
		k := k
		t.Run(k.FullName(), func(t *testing.T) {
			t.Parallel()
			ref, err := k.RunNativeEngine(interp.EngineTreeWalk)
			if err != nil {
				t.Fatalf("tree-walker: %v", err)
			}

			orig, err := clc.Compile(k.Source, k.Name)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tm := ir.CloneModule(orig)
			res, err := accelpass.Transform(tm)
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			info := res.Kernels[k.Name]
			if info == nil {
				t.Fatal("transformation lost the kernel")
			}

			spec := k.Setup()
			for _, variant := range []struct {
				name string
				prog *interp.Prog // nil: the shared program
			}{
				{"warp", nil},
				{"O1", interp.CompileModuleOpts(tm, vmParityO1)},
				{"O0", interp.CompileModuleOpts(tm, vmParityO0)},
			} {
				cl, bufs, err := clKernelFromSpec(orig, k.Name, spec)
				if err != nil {
					t.Fatal(err)
				}
				nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
				rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
				h, err := opencl.NewLaunchHandle(opencl.GetPlatforms()[0], tm, cl, nd, rtWords, 2, rtWords[rtlib.RTChunk])
				if err != nil {
					t.Fatalf("%s handle: %v", variant.name, err)
				}
				if variant.prog != nil {
					h.UseProgram(variant.prog)
				}
				h.SetSliceRounds(1) // force many slices
				slices := 0
				for {
					done, err := h.Step()
					if err != nil {
						t.Fatalf("%s slice %d: %v", variant.name, slices, err)
					}
					slices++
					if done {
						break
					}
				}
				if total := nd.TotalGroups(); total > 2 && slices < 2 {
					t.Fatalf("%s: expected a multi-slice execution, got %d slice(s) for %d virtual groups",
						variant.name, slices, total)
				}
				for i := range ref {
					if !bytes.Equal(ref[i], bufs[i]) {
						t.Errorf("buffer %d (%s) differs between tree-walker native and %s VM sliced execution",
							i, spec.Args[i].Name, variant.name)
					}
				}
			}
		})
	}
}

// TestNoGroupFindsTheQueueEmpty runs every kernel's verification launch
// the way the live runtime does when the kernel is alone on the device —
// the §3 plan PlanSingle gives on the modelled K20m, default slice
// rounds — and checks on every slice that the handle started no more
// physical groups than the lanes executing them and the dequeues the
// slice's budget holds: the plan is an entitlement of up to 100+ groups,
// and each one started past those bounds would pay the wrapper prologue
// and a failing dequeue for nothing. Outputs must still match the
// native launch byte for byte.
func TestNoGroupFindsTheQueueEmpty(t *testing.T) {
	dev := device.NVIDIAK20m()
	lanes := int64(interp.Lanes())
	for _, k := range Kernels() {
		t.Run(k.FullName(), func(t *testing.T) {
			ref, err := k.RunNativeEngine(interp.EngineVM)
			if err != nil {
				t.Fatalf("native: %v", err)
			}
			orig, err := clc.Compile(k.Source, k.Name)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			tm := ir.CloneModule(orig)
			res, err := accelpass.Transform(tm)
			if err != nil {
				t.Fatalf("transform: %v", err)
			}
			info := res.Kernels[k.Name]
			spec := k.Setup()
			cl, bufs, err := clKernelFromSpec(orig, k.Name, spec)
			if err != nil {
				t.Fatal(err)
			}
			nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
			plan := accelos.PlanSingle(dev, &sim.KernelExec{
				WGSize:             nd.WGSize(),
				NumWGs:             nd.TotalGroups(),
				LocalBytes:         info.OrigLocalBytes,
				RegsPerThread:      int64(info.Regs),
				Chunk:              int64(info.Chunk),
				TransRegsPerThread: int64(info.Regs) + 1,
				TransLocalBytes:    info.LocalBytes,
			}, false)
			rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
			h, err := opencl.NewLaunchHandle(opencl.GetPlatforms()[0], tm, cl, nd, rtWords, plan.PhysWGs, plan.Chunk)
			if err != nil {
				t.Fatal(err)
			}
			for slice, done := 0, false; !done; slice++ {
				if done, err = h.Step(); err != nil {
					t.Fatalf("slice %d: %v", slice, err)
				}
				started, chunk, budget := h.LastSlice()
				dequeues := (budget + chunk - 1) / chunk
				if started < 1 || started > plan.PhysWGs || started > lanes || started > dequeues {
					t.Errorf("slice %d: started %d groups; planned %d, %d lanes, %d dequeues (budget %d, chunk %d)",
						slice, started, plan.PhysWGs, lanes, dequeues, budget, chunk)
				}
			}
			for i := range ref {
				if !bytes.Equal(ref[i], bufs[i]) {
					t.Errorf("buffer %d (%s) differs from the native launch", i, spec.Args[i].Name)
				}
			}
		})
	}
}

// clKernelFromSpec materializes an opencl.Kernel over the module with
// the spec's arguments bound as device buffers, returning the backing
// bytes of each argument (nil for scalars) for output comparison.
func clKernelFromSpec(mod *ir.Module, name string, spec LaunchSpec) (*opencl.Kernel, [][]byte, error) {
	p := &opencl.Program{Module: mod}
	cl, err := p.CreateKernel(name)
	if err != nil {
		return nil, nil, err
	}
	var bufs [][]byte
	for i, a := range spec.Args {
		switch {
		case a.Scalar != nil:
			if err := cl.SetArgInt32(i, int32(*a.Scalar)); err != nil {
				return nil, nil, err
			}
			bufs = append(bufs, nil)
		case a.I32 != nil:
			b := make([]byte, 4*len(a.I32))
			for j, v := range a.I32 {
				binary.LittleEndian.PutUint32(b[4*j:], uint32(v))
			}
			if err := cl.SetArgBuffer(i, &opencl.Buffer{Size: int64(len(b)), Bytes: b}); err != nil {
				return nil, nil, err
			}
			bufs = append(bufs, b)
		case a.F32 != nil:
			b := make([]byte, 4*len(a.F32))
			for j, v := range a.F32 {
				binary.LittleEndian.PutUint32(b[4*j:], math.Float32bits(v))
			}
			if err := cl.SetArgBuffer(i, &opencl.Buffer{Size: int64(len(b)), Bytes: b}); err != nil {
				return nil, nil, err
			}
			bufs = append(bufs, b)
		case a.I64 != nil:
			b := make([]byte, 8*len(a.I64))
			for j, v := range a.I64 {
				binary.LittleEndian.PutUint64(b[8*j:], uint64(v))
			}
			if err := cl.SetArgBuffer(i, &opencl.Buffer{Size: int64(len(b)), Bytes: b}); err != nil {
				return nil, nil, err
			}
			bufs = append(bufs, b)
		}
	}
	return cl, bufs, nil
}

// transformedWarpListing returns the `clcc -stage warp` listing of a
// kernel's JIT-transformed module compiled the way the daemon compiles
// it: interp.CompileModule, O1 over a private clone plus fusion and
// warp tables.
func transformedWarpListing(k *Kernel) (string, error) {
	trans, err := transformed(k)
	if err != nil {
		return "", err
	}
	var listing bytes.Buffer
	err = interp.CompileModule(trans).DumpWarp(&listing, k.Name)
	return listing.String(), err
}

func transformed(k *Kernel) (*ir.Module, error) {
	orig, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return nil, err
	}
	res, err := accelpass.Transform(ir.CloneModule(orig))
	if err != nil {
		return nil, err
	}
	return res.Module, nil
}

// TestCompileModuleMatchesStagedJIT: for every kernel the daemon's one
// compile call, interp.CompileModule over the transformed module, lowers
// to the same bytecode and warp tables as the staged pipeline the
// benchmark's per-layer JIT rungs time — passes.RunO1 over a clone, then
// lowering with warp tables only — so those rungs time the program the
// runtime runs.
func TestCompileModuleMatchesStagedJIT(t *testing.T) {
	for _, k := range Kernels() {
		got, err := transformedWarpListing(k)
		if err != nil {
			t.Fatalf("%s: %v", k.FullName(), err)
		}
		opt, err := transformed(k)
		if err != nil {
			t.Fatal(err)
		}
		if err := passes.RunO1(opt); err != nil {
			t.Fatalf("%s: O1: %v", k.FullName(), err)
		}
		var staged bytes.Buffer
		if err := interp.CompileModuleOpts(opt, interp.CompileOpts{WarpWidth: interp.DefaultWarpWidth}).DumpWarp(&staged, k.Name); err != nil {
			t.Fatalf("%s: %v", k.FullName(), err)
		}
		if got != staged.String() {
			t.Errorf("%s: CompileModule differs from the staged RunO1 + WarpWidth lowering:\n%s\nstaged:\n%s", k.FullName(), got, staged.String())
		}
	}
}

// TestTransformedKernelsStayVector: compiled the way the daemon's JIT
// compiles them, none of the 25 scheduling kernels contains an
// instruction at which a warp leaves vector dispatch — the wrapper, the
// computation function and the rt_* library are one function, and no
// Parboil kernel has a recursive helper or a barrier under a divergent
// branch. The listing checked is the one `clcc -stage warp` prints.
func TestTransformedKernelsStayVector(t *testing.T) {
	for _, k := range Kernels() {
		listing, err := transformedWarpListing(k)
		if err != nil {
			t.Fatalf("%s: %v", k.FullName(), err)
		}
		diverges := false
		for _, line := range strings.Split(listing, "\n") {
			f := strings.Fields(line)
			if len(f) < 2 {
				continue
			}
			if f[1] == "spill" {
				t.Errorf("%s leaves vector dispatch at: %s", k.FullName(), line)
			}
			diverges = diverges || strings.HasPrefix(f[1], "diverge→")
		}
		if !diverges {
			t.Errorf("%s: no masked branch in the listing — the master-only dequeue should be one:\n%s", k.FullName(), listing)
		}
	}
}
