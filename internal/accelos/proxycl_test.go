package accelos

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/opencl"
)

// vaddSetup builds vadd over three fresh n-float buffers, with a and b
// filled so that c = a + b reads 3i, and binds every argument.
func vaddSetup(t *testing.T, app *App, n int) (k *KernelHandle, a, b, c *BufferHandle) {
	t.Helper()
	prog, err := app.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if k, err = prog.CreateKernel("vadd"); err != nil {
		t.Fatal(err)
	}
	bufs := make([]*BufferHandle, 3)
	for i := range bufs {
		if bufs[i], err = app.CreateBuffer(int64(n) * 4); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(i, bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.SetArgInt32(3, int32(n)); err != nil {
		t.Fatal(err)
	}
	av, bv := make([]byte, n*4), make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(av[i*4:], float32ToBits(float32(i)))
		binary.LittleEndian.PutUint32(bv[i*4:], float32ToBits(float32(2*i)))
	}
	if err := bufs[0].Write(0, av); err != nil {
		t.Fatal(err)
	}
	if err := bufs[1].Write(0, bv); err != nil {
		t.Fatal(err)
	}
	return k, bufs[0], bufs[1], bufs[2]
}

// TestEnqueueKernelAsyncArguments pins what EnqueueKernelAsync does with
// the kernel's bindings: it freezes them, so rebinding while the launch
// waits changes nothing; it fails synchronously on an argument never
// set; and it fails on a released buffer without leaving the other
// buffers pinned.
func TestEnqueueKernelAsyncArguments(t *testing.T) {
	const n = 256
	nd := opencl.ND1(n, 64)

	t.Run("rebind-while-gated", func(t *testing.T) {
		rt := NewRuntime(opencl.GetPlatforms()[0])
		defer rt.Shutdown()
		app := rt.Connect("freeze")
		defer app.Close()
		k, _, _, c := vaddSetup(t, app, n)
		other, err := app.CreateBuffer(n * 4)
		if err != nil {
			t.Fatal(err)
		}
		gate := opencl.NewUserEvent()
		ev, err := app.EnqueueKernelAsync(k, nd, gate)
		if err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgBuffer(2, other); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgInt32(3, 0); err != nil {
			t.Fatal(err)
		}
		gate.Complete()
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, n*4)
		if err := c.Read(0, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got := bitsToFloat32(binary.LittleEndian.Uint32(out[i*4:])); got != float32(3*i) {
				t.Fatalf("c[%d] = %v, want %v (the launch saw the rebinding)", i, got, float32(3*i))
			}
		}
		if err := other.Read(0, out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != 0 {
				t.Fatalf("byte %d of the buffer bound after the enqueue = %d, want untouched", i, v)
			}
		}
	})

	t.Run("unset-argument", func(t *testing.T) {
		rt := NewRuntime(opencl.GetPlatforms()[0])
		defer rt.Shutdown()
		app := rt.Connect("unset")
		defer app.Close()
		prog, err := app.CreateProgram(vaddSrc)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("vadd")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			b, err := app.CreateBuffer(n * 4)
			if err != nil {
				t.Fatal(err)
			}
			if err := k.SetArgBuffer(i, b); err != nil {
				t.Fatal(err)
			}
		}
		ev, err := app.EnqueueKernelAsync(k, nd)
		if err == nil || ev != nil {
			t.Fatalf("enqueue with argument 3 unset = (%v, %v), want a synchronous error", ev, err)
		}
		if !strings.Contains(err.Error(), "argument 3") {
			t.Fatalf("error %q does not name argument 3", err)
		}
		if got := app.group.Pending(); got != 0 {
			t.Fatalf("outstanding after a refused enqueue = %d, want 0", got)
		}
	})

	t.Run("released-buffer", func(t *testing.T) {
		rt := NewRuntime(opencl.GetPlatforms()[0])
		defer rt.Shutdown()
		app := rt.Connect("released")
		defer app.Close()
		k, a, b, c := vaddSetup(t, app, n)
		c.Release()
		if _, err := app.EnqueueKernelAsync(k, nd); !errors.Is(err, opencl.ErrBufferReleased) {
			t.Fatalf("enqueue over a released buffer: err = %v, want ErrBufferReleased", err)
		}
		// The refused enqueue must not leave a or b pinned: with no pin
		// their release frees at once.
		a.Release()
		b.Release()
		if got := rt.Memory().Used(); got != 0 {
			t.Fatalf("memory used after releasing every buffer = %d, want 0 (a pin leaked)", got)
		}
	})
}

// TestLedgerKeepsPinnedBytesAfterClose closes an application while a
// gated kernel pins its buffer. The bytes stay allocated until the
// kernel lets go, so the memory manager must keep counting them: a
// second application's allocation that does not fit beside them pauses
// (§5) until the free, instead of passing the manager and failing on
// the device with ErrOutOfMemory.
func TestLedgerKeepsPinnedBytesAfterClose(t *testing.T) {
	dev := *opencl.GetPlatforms()[0].Dev
	dev.GlobalMemMB = 1
	rt := NewRuntime(&opencl.Platform{Dev: &dev})
	defer rt.Shutdown()

	a := rt.Connect("closer")
	prog, err := a.CreateProgram(fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := a.CreateBuffer(700 << 10)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("fill")
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, buf)
	_ = k.SetArgInt32(1, 0)
	_ = k.SetArgInt32(2, 64)
	gate := opencl.NewUserEvent()
	ev, err := a.EnqueueKernelAsync(k, opencl.ND1(64, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	a.Close() // releases buf; its free waits for the gated kernel
	if used, alloc := rt.Memory().Used(), rt.Ctx.AllocatedBytes(); used != alloc {
		t.Fatalf("after Close: memory manager reports %d bytes used, the context holds %d", used, alloc)
	}

	b := rt.Connect("waiter")
	defer b.Close()
	type created struct {
		h   *BufferHandle
		err error
	}
	done := make(chan created, 1)
	go func() {
		h, err := b.CreateBuffer(500 << 10)
		done <- created{h, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Memory().Paused() == 0 {
		select {
		case r := <-done:
			t.Fatalf("CreateBuffer returned (%v) while the closed app's buffer was still pinned; want a pause", r.err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("CreateBuffer neither paused nor returned")
		}
		time.Sleep(time.Millisecond)
	}
	gate.Complete()
	_ = ev.Wait() // the released buffer fails the launch; the unpin frees it
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("CreateBuffer after the free: %v", r.err)
		}
		r.h.Release()
	case <-time.After(5 * time.Second):
		t.Fatal("CreateBuffer still paused after the pinned buffer was freed")
	}
	if got := rt.Memory().Used(); got != 0 {
		t.Fatalf("memory used after every release = %d, want 0", got)
	}
}
