package accelos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/opencl"
)

// smallRuntime returns a runtime over a 1 MB copy of the first
// platform's device, so a few buffers oversubscribe it.
func smallRuntime(t *testing.T) *Runtime {
	t.Helper()
	dev := *opencl.GetPlatforms()[0].Dev
	dev.GlobalMemMB = 1
	rt := NewRuntime(&opencl.Platform{Dev: &dev})
	t.Cleanup(rt.Shutdown)
	return rt
}

type created struct {
	h   *BufferHandle
	err error
}

// createAsync starts a CreateBuffer that may pause.
func createAsync(app *App, size int64) <-chan created {
	done := make(chan created, 1)
	go func() {
		h, err := app.CreateBuffer(size)
		done <- created{h, err}
	}()
	return done
}

// waitPaused waits until n allocations are paused. The manager checks
// whether a pause can ever end in the same critical section that
// registers it, so an allocation seen paused was not failed on entry.
func waitPaused(t *testing.T, rt *Runtime, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Memory().Paused() != n {
		if time.Now().After(deadline) {
			t.Fatalf("Paused = %d, want %d", rt.Memory().Paused(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func await(t *testing.T, done <-chan created, what string) created {
	t.Helper()
	select {
	case r := <-done:
		return r
	case <-time.After(5 * time.Second):
		t.Fatalf("%s: CreateBuffer still paused", what)
		return created{}
	}
}

func mustCreate(t *testing.T, app *App, size int64) *BufferHandle {
	t.Helper()
	h, err := app.CreateBuffer(size)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestMemoryManagerPausesApps: an allocation that does not fit beside
// a peer's pauses, resumes once the peer frees, and one larger than the
// device fails at once with opencl.ErrOutOfMemory.
func TestMemoryManagerPausesApps(t *testing.T) {
	rt := smallRuntime(t)
	holder, waiter := rt.Connect("holder"), rt.Connect("waiter")
	defer holder.Close()
	defer waiter.Close()

	h := mustCreate(t, holder, 800<<10)
	done := createAsync(waiter, 500<<10)
	waitPaused(t, rt, 1)
	h.Release()
	r := await(t, done, "after the peer freed")
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := rt.Memory().Used(); got != 500<<10 {
		t.Errorf("Used = %d, want %d", got, 500<<10)
	}
	if got := rt.Memory().TotalPauses(); got != 1 {
		t.Errorf("TotalPauses = %d, want 1", got)
	}
	if _, err := waiter.CreateBuffer(5 << 20); !errors.Is(err, opencl.ErrOutOfMemory) {
		t.Errorf("allocation beyond capacity: err = %v, want ErrOutOfMemory", err)
	}
	if got := rt.Memory().Paused(); got != 0 {
		t.Errorf("an oversized allocation paused: Paused = %d", got)
	}
}

// TestMemoryManagerOversubscription: 8 tenants × 20 alloc/free rounds of
// 40 % of the device each; two fit at a time, every round completes and
// the ledger drains to zero.
func TestMemoryManagerOversubscription(t *testing.T) {
	rt := smallRuntime(t)
	size := rt.Ctx.GlobalMemBytes() * 2 / 5
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := rt.Connect(fmt.Sprintf("tenant-%d", id))
			defer app.Close()
			for j := 0; j < 20; j++ {
				h, err := app.CreateBuffer(size)
				if err != nil {
					t.Error(err)
					return
				}
				h.Release()
			}
		}(i)
	}
	wg.Wait()
	if got := rt.Memory().Used(); got != 0 {
		t.Errorf("Used = %d after all frees", got)
	}
}

// TestPauseEndsWhenItFits: a pause ends with the buffer once a free
// makes room, and the freed bytes go to the paused allocation before a
// newer one that would also fit.
func TestPauseEndsWhenItFits(t *testing.T) {
	rt := smallRuntime(t)
	holder, waiter, late := rt.Connect("holder"), rt.Connect("waiter"), rt.Connect("late")
	defer holder.Close()
	defer waiter.Close()
	defer late.Close()

	h := mustCreate(t, holder, 600<<10)
	done := createAsync(waiter, 600<<10)
	waitPaused(t, rt, 1)
	h.Release()
	// The late allocation asks right after the free, before the waiter's
	// goroutine has run, and finds the bytes already the waiter's: it
	// pauses until the waiter frees.
	lateDone := createAsync(late, 600<<10)
	waitPaused(t, rt, 1)
	r := await(t, done, "after the free")
	if r.err != nil {
		t.Fatalf("paused allocation after the free: %v", r.err)
	}
	r.h.Release()
	if r := await(t, lateDone, "late allocation"); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestPauseFailsWhenStuck: when every application holding buffers is
// paused and nothing is draining, no free can come; only the holder
// that paused last fails with opencl.ErrOutOfMemory, and its release
// lets the other pause end.
func TestPauseFailsWhenStuck(t *testing.T) {
	rt := smallRuntime(t)
	first, last := rt.Connect("first"), rt.Connect("last")
	defer first.Close()
	defer last.Close()

	mustCreate(t, first, 400<<10)
	lastHeld := mustCreate(t, last, 400<<10)
	firstDone := createAsync(first, 400<<10)
	waitPaused(t, rt, 1) // last still runs: no failure yet
	lastDone := createAsync(last, 400<<10)
	r := await(t, lastDone, "the last paused holder")
	if !errors.Is(r.err, opencl.ErrOutOfMemory) {
		t.Fatalf("last paused holder: err = %v, want ErrOutOfMemory", r.err)
	}
	select {
	case r := <-firstDone:
		t.Fatalf("the first paused holder ended too (%v); only the last may fail", r.err)
	default:
	}
	if got := rt.Memory().Paused(); got != 1 {
		t.Fatalf("Paused = %d after the failure, want 1", got)
	}
	lastHeld.Release()
	if r := await(t, firstDone, "after the failed holder released"); r.err != nil {
		t.Fatal(r.err)
	}
}

// TestPauseEndsOnClose: closing the application ends its paused
// allocation with ErrAppClosed.
func TestPauseEndsOnClose(t *testing.T) {
	rt := smallRuntime(t)
	holder, waiter := rt.Connect("holder"), rt.Connect("waiter")
	defer holder.Close()

	mustCreate(t, holder, 800<<10)
	done := createAsync(waiter, 500<<10)
	waitPaused(t, rt, 1)
	waiter.Close()
	if r := await(t, done, "after Close"); !errors.Is(r.err, ErrAppClosed) {
		t.Fatalf("paused allocation after Close: err = %v, want ErrAppClosed", r.err)
	}
	if got := rt.Memory().Paused(); got != 0 {
		t.Fatalf("Paused = %d after Close, want 0", got)
	}
}

// TestPauseSparesDrainingHolder: an application whose only buffer is
// released but still pinned by a command is paused yet not failed: the
// unpin frees the bytes without anyone acting.
func TestPauseSparesDrainingHolder(t *testing.T) {
	rt := smallRuntime(t)
	app := rt.Connect("drainer")
	defer app.Close()
	prog, err := app.CreateProgram(fillSrc)
	if err != nil {
		t.Fatal(err)
	}
	buf := mustCreate(t, app, 600<<10)
	k, err := prog.CreateKernel("fill")
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, buf)
	_ = k.SetArgInt32(1, 0)
	_ = k.SetArgInt32(2, 64)
	gate := opencl.NewUserEvent()
	ev, err := app.EnqueueKernelAsync(k, opencl.ND1(64, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	buf.Release() // pinned by the gated kernel: the free waits
	done := createAsync(app, 600<<10)
	waitPaused(t, rt, 1)
	gate.Complete()
	_ = ev.Wait() // the released buffer fails the launch; the unpin frees it
	r := await(t, done, "after the unpin")
	if r.err != nil {
		t.Fatalf("allocation after the pinned buffer drained: %v", r.err)
	}
	r.h.Release()
	if got := rt.Memory().Used(); got != 0 {
		t.Fatalf("Used = %d after every release, want 0", got)
	}
}
