package accelos

import (
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/opencl"
)

// TestAsyncPipelineEndToEnd drives a full write→kernel→read dependency
// chain through the event API: every call returns immediately, the
// chain orders itself through wait-list edges, and the result is
// correct.
func TestAsyncPipelineEndToEnd(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("async")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	a, _ := app.CreateBuffer(n * 4)
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)
	av := make([]byte, n*4)
	bv := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(av[i*4:], float32ToBits(float32(i)))
		binary.LittleEndian.PutUint32(bv[i*4:], float32ToBits(float32(2*i)))
	}
	wa, err := a.WriteAsync(0, av)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := b.WriteAsync(0, bv)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)
	kev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), wa, wb)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	rev, err := c.ReadAsync(0, out, kev)
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := bitsToFloat32(binary.LittleEndian.Uint32(out[i*4:]))
		if got != float32(3*i) {
			t.Fatalf("c[%d] = %v, want %v", i, got, float32(3*i))
		}
	}
	app.Finish() // everything already terminal; must not hang
	if got := app.group.Pending(); got != 0 {
		t.Fatalf("outstanding after Finish = %d", got)
	}
}

// execCounts counts the runtime's registered executions: pending ones
// wait on their wait list or on admission, running ones have launched
// and not yet settled.
func execCounts(rt *Runtime) (pending, running int) {
	rt.launchMu.Lock()
	defer rt.launchMu.Unlock()
	for _, rec := range rt.execs {
		if rec.started {
			running++
		} else {
			pending++
		}
	}
	return pending, running
}

// TestPendingWindowAccounting gates a kernel on a user event and checks
// the Kernel Scheduler sees it as pending (the scheduler's lookahead
// window) before the dependency releases it to running.
func TestPendingWindowAccounting(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("window")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	a, _ := app.CreateBuffer(n * 4)
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)
	k, _ := prog.CreateKernel("vadd")
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)

	gate := opencl.NewUserEvent()
	ev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler registers the execution as pending before the call
	// returns, even though its wait list is incomplete.
	if pending, running := execCounts(rt); pending != 1 || running != 0 {
		t.Fatalf("gated kernel: pending=%d running=%d, want 1 and 0", pending, running)
	}
	if got := ev.Status(); got.Terminal() {
		t.Fatalf("gated kernel already terminal: %v", got)
	}
	gate.Complete()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if pending, running := execCounts(rt); pending != 0 || running != 0 {
		t.Errorf("after completion: pending=%d running=%d, want 0", pending, running)
	}
	if got := rt.Stats().WaitDeferred; got != 1 {
		t.Errorf("WaitDeferred = %d, want 1", got)
	}
}

// TestAsyncFailurePropagation fails a dependency and checks the kernel
// never launches, its event carries the cause, and the accounting
// drains.
func TestAsyncFailurePropagation(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("failprop")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a, _ := app.CreateBuffer(n * 4)
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)
	k, _ := prog.CreateKernel("vadd")
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)

	bad := opencl.NewUserEvent()
	ev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), bad)
	if err != nil {
		t.Fatal(err)
	}
	cause := fmt.Errorf("host-side staging failed")
	bad.Fail(cause)
	err = ev.Wait()
	if !errors.Is(err, cause) {
		t.Fatalf("event error = %v, want wrapped %v", err, cause)
	}
	if got := rt.Stats().KernelsLaunched; got != 0 {
		t.Errorf("failed-dependency kernel launched (KernelsLaunched=%d)", got)
	}
	if pending, _ := execCounts(rt); pending != 0 {
		t.Errorf("pending after abandon = %d", pending)
	}
	// The queue stays usable: the same kernel without the poisoned
	// dependency runs fine.
	if err := app.EnqueueKernel(k, opencl.ND1(n, 64)); err != nil {
		t.Fatalf("kernel after abandoned peer: %v", err)
	}
}

// TestBufferReleaseFailsDeferredKernel releases a buffer while a kernel
// depending on it is still gated: the kernel must fail with
// ErrBufferReleased, and the memory-manager accounting must be returned
// only when the pins drain.
func TestBufferReleaseFailsDeferredKernel(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("release")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a, _ := app.CreateBuffer(n * 4)
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)
	k, _ := prog.CreateKernel("vadd")
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)

	gate := opencl.NewUserEvent()
	ev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	used := rt.Memory().Used()
	c.Release()
	c.Release() // double release is a no-op
	if got := rt.Memory().Used(); got != used {
		t.Fatalf("memory accounting freed with kernel pinned: %d -> %d", used, got)
	}
	gate.Complete()
	if err := ev.Wait(); !errors.Is(err, opencl.ErrBufferReleased) {
		t.Fatalf("kernel on released buffer: %v, want ErrBufferReleased", err)
	}
	// With the pin dropped the accounting returns.
	deadline := time.Now().Add(2 * time.Second)
	for rt.Memory().Used() != used-n*4 {
		if time.Now().After(deadline) {
			t.Fatalf("memory accounting not returned: used=%d", rt.Memory().Used())
		}
		time.Sleep(time.Millisecond)
	}
	// New submissions on the released handle are rejected outright.
	if _, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64)); err == nil {
		t.Fatal("enqueue with released buffer accepted")
	}
}

// TestDeferredFreeAfterAppClose pins a buffer with a gated kernel,
// releases the buffer AND closes the app, then lets the pin drain: the
// deferred free must return the bytes exactly once, after Close
// released the app's other buffers.
func TestDeferredFreeAfterAppClose(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("closer")

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	a, _ := app.CreateBuffer(n * 4)
	b, _ := app.CreateBuffer(n * 4)
	c, _ := app.CreateBuffer(n * 4)
	k, _ := prog.CreateKernel("vadd")
	_ = k.SetArgBuffer(0, a)
	_ = k.SetArgBuffer(1, b)
	_ = k.SetArgBuffer(2, c)
	_ = k.SetArgInt32(3, n)

	gate := opencl.NewUserEvent()
	ev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	c.Release() // free deferred: the gated kernel pins c
	app.Close() // releases a and b now; c's free waits for the kernel
	gate.Complete()
	_ = ev.Wait()
	deadline := time.Now().Add(2 * time.Second)
	for rt.Memory().Used() != 0 {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if got := rt.Memory().Used(); got != 0 {
		t.Fatalf("memory accounting after close + deferred free = %d, want 0 (double-subtract?)", got)
	}
}

// TestSetArgLocalProxyCL runs a __local-pointer kernel through the full
// interposition stack: JIT transformation, sliced execution, and a
// host-sized local scratchpad per (physical) work-group.
func TestSetArgLocalProxyCL(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("localarg")
	defer app.Close()

	prog, err := app.CreateProgram(`
kernel void revblk(global int* data, local int* scratch, int n)
{
    int l = (int)get_local_id(0);
    int ls = (int)get_local_size(0);
    int g = (int)get_global_id(0);
    if (g < n) scratch[l] = data[g];
    barrier(3);
    if (g < n) data[g] = scratch[ls - 1 - l];
}
`)
	if err != nil {
		t.Fatal(err)
	}
	const n, local = 512, 32
	d, err := app.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], uint32(i))
	}
	if err := d.Write(0, host); err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("revblk")
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, d)
	if err := k.SetArgLocal(1, 4*local); err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgInt32(2, n)
	if err := app.EnqueueKernel(k, opencl.ND1(n, local)); err != nil {
		t.Fatalf("EnqueueKernel: %v", err)
	}
	out := make([]byte, n*4)
	if err := d.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		blk := i / local
		want := uint32(blk*local + (local - 1 - i%local))
		if got := binary.LittleEndian.Uint32(out[i*4:]); got != want {
			t.Fatalf("data[%d] = %d, want %d", i, got, want)
		}
	}
}

// TestAppFinishDrainsPipelines launches several overlapping pipelines
// and checks Finish blocks until every event is terminal.
func TestAppFinishDrainsPipelines(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("finish")
	defer app.Close()

	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	const n, chains = 256, 6
	type chain struct {
		c   *BufferHandle
		out []byte
	}
	var chs []chain
	for ci := 0; ci < chains; ci++ {
		a, _ := app.CreateBuffer(n * 4)
		b, _ := app.CreateBuffer(n * 4)
		c, _ := app.CreateBuffer(n * 4)
		av := make([]byte, n*4)
		bv := make([]byte, n*4)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(av[i*4:], float32ToBits(float32(i)))
			binary.LittleEndian.PutUint32(bv[i*4:], float32ToBits(float32(ci)))
		}
		wa, err := a.WriteAsync(0, av)
		if err != nil {
			t.Fatal(err)
		}
		wb, err := b.WriteAsync(0, bv)
		if err != nil {
			t.Fatal(err)
		}
		k, _ := prog.CreateKernel("vadd")
		_ = k.SetArgBuffer(0, a)
		_ = k.SetArgBuffer(1, b)
		_ = k.SetArgBuffer(2, c)
		_ = k.SetArgInt32(3, n)
		kev, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 64), wa, wb)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]byte, n*4)
		if _, err := c.ReadAsync(0, out, kev); err != nil {
			t.Fatal(err)
		}
		chs = append(chs, chain{c: c, out: out})
	}
	app.Finish()
	if got := app.group.Pending(); got != 0 {
		t.Fatalf("outstanding after Finish = %d", got)
	}
	for ci, ch := range chs {
		for i := 0; i < n; i++ {
			got := bitsToFloat32(binary.LittleEndian.Uint32(ch.out[i*4:]))
			if got != float32(i+ci) {
				t.Fatalf("chain %d: c[%d] = %v, want %v", ci, i, got, float32(i+ci))
			}
		}
	}
}
