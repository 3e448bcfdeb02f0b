package accelos

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/opencl"
)

const vaddSrc = `
kernel void vadd(global const float* a, global const float* b, global float* c, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
`

func float32ToBits(v float32) uint32 { return math.Float32bits(v) }

func bitsToFloat32(b uint32) float32 { return math.Float32frombits(b) }

func TestRuntimeEndToEnd(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()

	app := rt.Connect("quicktest")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatalf("CreateProgram: %v", err)
	}
	if got := rt.Stats().ProgramsJITed; got != 1 {
		t.Errorf("ProgramsJITed = %d, want 1", got)
	}

	const n = 1024
	a, err := app.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)

	av := make([]byte, n*4)
	bv := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(av[i*4:], float32ToBits(float32(i)))
		binary.LittleEndian.PutUint32(bv[i*4:], float32ToBits(float32(3*i)))
	}
	if err := a.Write(0, av); err != nil {
		t.Fatal(err)
	}
	if err := b.Write(0, bv); err != nil {
		t.Fatal(err)
	}

	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, a); err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)

	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
	if err := app.EnqueueKernel(k, nd); err != nil {
		t.Fatalf("EnqueueKernel: %v", err)
	}

	out := make([]byte, n*4)
	if err := c.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := bitsToFloat32(binary.LittleEndian.Uint32(out[i*4:]))
		if got != float32(4*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(4*i))
		}
	}
	st := rt.Stats()
	if st.KernelsLaunched != 1 {
		t.Errorf("KernelsLaunched = %d, want 1", st.KernelsLaunched)
	}
	// One device is a pool of one: same counters, same pool surface.
	if len(st.DeviceLaunches) != 1 || st.DeviceLaunches[0] != 1 {
		t.Errorf("DeviceLaunches = %v, want [1]", st.DeviceLaunches)
	}
	if rt.Pool() == nil || len(rt.Pool().Devices()) != 1 {
		t.Error("a one-device runtime should expose its pool of one")
	}
}

func TestRuntimeConcurrentApps(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()

	const apps, n = 4, 512
	var wg sync.WaitGroup
	errs := make(chan error, apps)
	for ai := 0; ai < apps; ai++ {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			app := rt.Connect(fmt.Sprintf("app%d", ai))
			defer app.Close()
			prog, err := app.CreateProgram(vaddSrc)
			if err != nil {
				errs <- err
				return
			}
			a, _ := app.CreateBuffer(n * 4)
			b, _ := app.CreateBuffer(n * 4)
			c, _ := app.CreateBuffer(n * 4)
			buf := make([]byte, n*4)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], float32ToBits(float32(i+ai)))
			}
			_ = a.Write(0, buf)
			_ = b.Write(0, buf)
			k, err := prog.CreateKernel("vadd")
			if err != nil {
				errs <- err
				return
			}
			_ = k.SetArgBuffer(0, a)
			_ = k.SetArgBuffer(1, b)
			_ = k.SetArgBuffer(2, c)
			_ = k.SetArgInt32(3, n)
			nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
			for iter := 0; iter < 3; iter++ {
				if err := app.EnqueueKernel(k, nd); err != nil {
					errs <- err
					return
				}
			}
			out := make([]byte, n*4)
			_ = c.Read(0, out)
			for i := 0; i < n; i++ {
				got := bitsToFloat32(binary.LittleEndian.Uint32(out[i*4:]))
				if got != float32(2*(i+ai)) {
					errs <- fmt.Errorf("app %d: c[%d] = %v, want %v", ai, i, got, float32(2*(i+ai)))
					return
				}
			}
		}(ai)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := rt.Stats().KernelsLaunched; got != apps*3 {
		t.Errorf("KernelsLaunched = %d, want %d", got, apps*3)
	}
}

// TestClusterRuntimeSpreadsLaunches drives the pooled runtime: the
// round-robin policy must route launches across both platforms, and the
// cluster scheduling path must preserve functional results.
func TestClusterRuntimeSpreadsLaunches(t *testing.T) {
	rt := NewClusterRuntime(opencl.GetPlatforms(), cluster.RoundRobin(), 0)
	defer rt.Shutdown()

	const apps, n, iters = 2, 512, 3
	var wg sync.WaitGroup
	errs := make(chan error, apps)
	for ai := 0; ai < apps; ai++ {
		wg.Add(1)
		go func(ai int) {
			defer wg.Done()
			app := rt.Connect(fmt.Sprintf("cluster-app%d", ai))
			defer app.Close()
			prog, err := app.CreateProgram(vaddSrc)
			if err != nil {
				errs <- err
				return
			}
			a, _ := app.CreateBuffer(n * 4)
			b, _ := app.CreateBuffer(n * 4)
			c, _ := app.CreateBuffer(n * 4)
			buf := make([]byte, n*4)
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(buf[i*4:], float32ToBits(float32(i)))
			}
			_ = a.Write(0, buf)
			_ = b.Write(0, buf)
			k, err := prog.CreateKernel("vadd")
			if err != nil {
				errs <- err
				return
			}
			_ = k.SetArgBuffer(0, a)
			_ = k.SetArgBuffer(1, b)
			_ = k.SetArgBuffer(2, c)
			_ = k.SetArgInt32(3, n)
			nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
			for it := 0; it < iters; it++ {
				if err := app.EnqueueKernel(k, nd); err != nil {
					errs <- err
					return
				}
			}
			out := make([]byte, n*4)
			_ = c.Read(0, out)
			for i := 0; i < n; i++ {
				if got := bitsToFloat32(binary.LittleEndian.Uint32(out[i*4:])); got != float32(2*i) {
					errs <- fmt.Errorf("app %d: c[%d] = %v, want %v", ai, i, got, float32(2*i))
					return
				}
			}
		}(ai)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.KernelsLaunched != apps*iters {
		t.Errorf("KernelsLaunched = %d, want %d", st.KernelsLaunched, apps*iters)
	}
	if len(st.DeviceLaunches) != 2 {
		t.Fatalf("DeviceLaunches %v, want per-device counters for 2 platforms", st.DeviceLaunches)
	}
	total := 0
	for i, cnt := range st.DeviceLaunches {
		if cnt == 0 {
			t.Errorf("pool member %d received no launches under round-robin", i)
		}
		total += cnt
	}
	if total != apps*iters {
		t.Errorf("per-device launches sum to %d, want %d", total, apps*iters)
	}
	if rt.Pool() == nil {
		t.Error("cluster runtime should expose its pool")
	}
}
