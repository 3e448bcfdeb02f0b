package accelos

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/opencl"
)

// TestAppCloseConcurrentInflight is the -race regression test for the
// track/Close race: hammer an app with concurrent enqueues from several
// goroutines while Close tears it down mid-flight. Every failure must
// be one of the typed sentinels (ErrAppClosed before registration,
// ErrBufferReleased after Close yanked the buffers), never a panic, a
// leaked registration, or a stuck Close.
func TestAppCloseConcurrentInflight(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("churny")

	const n = 64 * 32
	// One buffer+kernel per goroutine: the launches themselves may
	// overlap freely without the workload racing on shared bytes — the
	// race under test is track/Close, not buffer content.
	const workers = 4
	kerns := make([]*KernelHandle, workers)
	bufs := make([]*BufferHandle, workers)
	for g := 0; g < workers; g++ {
		kerns[g], bufs[g] = setupIntKernel(t, app, churnSrc, "churn", n)
	}

	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		k, buf := kerns[g], bufs[g]
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := make([]byte, 4*n)
			for {
				wev, err := buf.WriteAsync(0, data)
				if err == nil {
					var kev *opencl.Event
					kev, err = app.EnqueueKernelAsync(k, opencl.NDRange{
						Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1},
					}, wev)
					if err == nil {
						_ = kev.Wait()
						continue
					}
				}
				if !errors.Is(err, ErrAppClosed) && !errors.Is(err, opencl.ErrBufferReleased) {
					t.Errorf("enqueue during close: unexpected error %v", err)
				}
				return
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let the enqueue storm get going
	app.Close()
	wg.Wait()
	app.Finish() // valid after Close: drains the cancelled tail

	deadline := time.Now().Add(5 * time.Second)
	for rt.Memory().Used() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("memory accounting not returned after Close: used=%d", rt.Memory().Used())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAppClosedTypedErrors checks satellite 2: every App entry point
// reports a closed app with the comparable ErrAppClosed sentinel (the
// wire layer maps it to a lossless error code), and a second Close is a
// no-op.
func TestAppClosedTypedErrors(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("shortlived")

	const n = 64
	k, buf := setupIntKernel(t, app, peerSrc, "peer", n)
	app.Close()
	app.Close() // idempotent

	if _, err := app.CreateProgram(peerSrc); !errors.Is(err, ErrAppClosed) {
		t.Errorf("CreateProgram after Close = %v, want ErrAppClosed", err)
	}
	if _, err := app.CreateBuffer(64); !errors.Is(err, ErrAppClosed) {
		t.Errorf("CreateBuffer after Close = %v, want ErrAppClosed", err)
	}
	if _, err := app.NewControlledEvent(); !errors.Is(err, ErrAppClosed) {
		t.Errorf("NewControlledEvent after Close = %v, want ErrAppClosed", err)
	}
	if _, err := app.EnqueueKernelAsync(k, opencl.ND1(n, 32)); !errors.Is(err, ErrAppClosed) {
		t.Errorf("EnqueueKernelAsync after Close = %v, want ErrAppClosed", err)
	}
	if _, err := buf.WriteAsync(0, make([]byte, 4)); !errors.Is(err, ErrAppClosed) {
		t.Errorf("WriteAsync after Close = %v, want ErrAppClosed", err)
	}
	if _, err := buf.ReadAsync(0, make([]byte, 4)); !errors.Is(err, ErrAppClosed) {
		t.Errorf("ReadAsync after Close = %v, want ErrAppClosed", err)
	}
	if got := rt.Memory().Used(); got != 0 {
		t.Fatalf("memory accounting after Close = %d, want 0", got)
	}
}

// TestAppCloseReleasesBuffers: Close must release what the app still
// holds (a disconnecting daemon client's buffers) while leaving
// explicitly released handles alone.
func TestAppCloseReleasesBuffers(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("holder")
	a, err := app.CreateBuffer(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.CreateBuffer(1 << 12); err != nil {
		t.Fatal(err)
	}
	a.Release()
	if got := rt.Memory().Used(); got != 1<<12 {
		t.Fatalf("used after explicit release = %d, want %d", got, 1<<12)
	}
	app.Close()
	if got := rt.Memory().Used(); got != 0 {
		t.Fatalf("used after Close = %d, want 0", got)
	}
}
