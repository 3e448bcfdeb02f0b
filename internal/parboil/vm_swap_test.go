package parboil

import (
	"bytes"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/rtlib"
)

// TestVMParitySwappedProgramSliced swaps the program under a sliced
// execution with UseProgram after its first slice: every kernel's
// JIT-transformed form starts on an unoptimized scalar lowering
// (interp.Tier0CompileOpts: no O1, no fusion) and finishes on the shared
// program the runtime runs (O1, fusion, warp tables). Everything a
// sliced execution carries from one slice to the next lives in memory —
// the RT descriptor, the dequeue counter, the buffers — so the output
// must still match the tree-walker's native run byte for byte.
func TestVMParitySwappedProgramSliced(t *testing.T) {
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
			cl, bufs, err := clKernelFromSpec(orig, k.Name, spec)
			if err != nil {
				t.Fatal(err)
			}
			nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
			rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
			h, err := opencl.NewLaunchHandle(opencl.GetPlatforms()[0], tm, cl, nd, rtWords, 2, rtWords[rtlib.RTChunk])
			if err != nil {
				t.Fatalf("handle: %v", err)
			}
			h.UseProgram(interp.CompileModuleOpts(tm, interp.Tier0CompileOpts))
			h.SetSliceRounds(1) // force many slices
			slices := 0
			for {
				done, err := h.Step()
				if err != nil {
					t.Fatalf("slice %d: %v", slices, err)
				}
				slices++
				if done {
					break
				}
				if slices == 1 {
					h.UseProgram(interp.SharedProgram(tm))
				}
			}
			if total := nd.TotalGroups(); total > 2 && slices < 2 {
				t.Fatalf("expected a multi-slice execution, got %d slice(s) for %d virtual groups", slices, total)
			}
			for i := range ref {
				if !bytes.Equal(ref[i], bufs[i]) {
					t.Errorf("buffer %d (%s) differs between tree-walker native and tier-switched VM sliced execution",
						i, spec.Args[i].Name)
				}
			}
		})
	}
}
