package parboil

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/rtlib"
)

// fuzzKernel is a Parboil kernel compiled and transformed once, with its
// native output.
type fuzzKernel struct {
	orig, tm *ir.Module
	info     *accelpass.KernelInfo
	native   [][]byte
}

var fuzzKernels sync.Map // kernel full name → *fuzzKernel

func loadFuzzKernel(t *testing.T, k *Kernel) *fuzzKernel {
	if v, ok := fuzzKernels.Load(k.FullName()); ok {
		return v.(*fuzzKernel)
	}
	native, err := k.RunNative()
	if err != nil {
		t.Fatal(err)
	}
	orig, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		t.Fatal(err)
	}
	tm := ir.CloneModule(orig)
	res, err := accelpass.Transform(tm)
	if err != nil {
		t.Fatal(err)
	}
	fk := &fuzzKernel{orig: orig, tm: tm, info: res.Kernels[k.Name], native: native}
	v, _ := fuzzKernels.LoadOrStore(k.FullName(), fk)
	return v.(*fuzzKernel)
}

var errFault = errors.New("injected device fault")

// FuzzSliceScheduleParity slices one Parboil kernel per input under a
// fuzzed plan (phys, chunk), slice rounds per step (cycled) and a device
// fault before step faultAt (0: none), after which a fresh handle
// resumes the consumed prefix on the same device or, for an odd
// recovery, on the other; the kernel must leave the native launch's
// bytes. internal/opencl's FuzzSliceSchedule checks the same schedules'
// exactly-once and start rules on its mark kernel. A failing input
// lands in testdata/fuzz/FuzzSliceScheduleParity and is kept.
func FuzzSliceScheduleParity(f *testing.F) {
	f.Add(uint8(4), uint8(1), []byte{8}, uint8(0), uint8(0), uint8(0))
	f.Add(uint8(3), uint8(2), []byte{1, 3}, uint8(2), uint8(1), uint8(7))
	f.Add(uint8(1), uint8(4), []byte{1}, uint8(3), uint8(2), uint8(20))
	f.Add(uint8(13), uint8(1), []byte{8}, uint8(1), uint8(1), uint8(12))
	plats := opencl.GetPlatforms() // built once, so their lanes are too
	f.Fuzz(func(t *testing.T, phys, chunk uint8, rounds []byte, faultAt, recovery, kernel uint8) {
		if len(rounds) == 0 {
			rounds = []byte{opencl.DefaultSliceRounds - 1}
		}
		ks := Kernels()
		k := ks[int(kernel)%len(ks)]
		fk := loadFuzzKernel(t, k)
		spec := k.Setup()
		cl, bufs, err := clKernelFromSpec(fk.orig, k.Name, spec)
		if err != nil {
			t.Fatal(err)
		}
		nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
		rt := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, fk.info.Chunk)
		p, c := 1+int64(phys%16), 1+int64(chunk%16)
		h, err := opencl.NewLaunchHandle(plats[0], fk.tm, cl, nd, rt, p, c)
		if err != nil {
			t.Fatal(err)
		}
		for step, done := 0, false; !done; step++ {
			if step > 0 && step == int(faultAt%8) {
				h.Cancel(errFault)
				if _, err := h.Step(); !errors.Is(err, errFault) {
					t.Fatalf("step %d: a cancelled handle stepped with %v", step, err)
				}
				consumed, _ := h.Progress()
				if h, err = opencl.NewLaunchHandle(plats[recovery%2], fk.tm, cl, nd, rt, p, c); err != nil {
					t.Fatal(err)
				}
				h.ResumeAt(consumed)
			}
			h.SetSliceRounds(1 + int64(rounds[step%min(len(rounds), 8)]%8))
			if done, err = h.Step(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		for i := range fk.native {
			if !bytes.Equal(fk.native[i], bufs[i]) {
				t.Fatalf("%s buffer %d (%s) differs from the native launch", k.FullName(), i, spec.Args[i].Name)
			}
		}
	})
}
