package opencl

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// buildKernel compiles src and resolves kernel name on a fresh context.
func buildKernel(t *testing.T, src, name string) (*Context, *Kernel) {
	t.Helper()
	ctx := GetPlatforms()[0].CreateContext()
	p := ctx.CreateProgramWithSource(src)
	if err := p.Build(); err != nil {
		t.Fatal(err)
	}
	k, err := p.CreateKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, k
}

const incSrc = `
kernel void inc(global int* d, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) d[i] = d[i] + 1;
}
`

func TestEventLifecycleAndCallbacks(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	b, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := q.EnqueueWrite(b, 0, make([]byte, 64))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	if ev.Status() != EventComplete {
		t.Fatalf("status after Wait = %v", ev.Status())
	}
	// Callbacks registered after completion fire immediately.
	fired := false
	ev.OnComplete(func(e *Event) {
		fired = true
		if e.Status() != EventComplete {
			t.Errorf("callback saw status %v", e.Status())
		}
	})
	if !fired {
		t.Error("post-completion callback did not fire synchronously")
	}
}

func TestUserEventGatesCommand(t *testing.T) {
	ctx, k := buildKernel(t, incSrc, "inc")
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	_ = k.SetArgInt32(1, 64)
	gate := NewUserEvent()
	ev, err := q.EnqueueKernel(k, ND1(64, 64), gate)
	if err != nil {
		t.Fatal(err)
	}
	// The command must hold in the queued state while its gate is open.
	time.Sleep(10 * time.Millisecond)
	if s := ev.Status(); s != EventQueued {
		t.Fatalf("gated command status = %v, want queued", s)
	}
	gate.Complete()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if err := q.EnqueueReadBuffer(b, 0, out); err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(out)); got != 1 {
		t.Fatalf("d[0] = %d, want 1", got)
	}
}

// dagSrc gives every node of a dependency DAG its own output slot: a
// node writes one more than the largest value it observes in its
// predecessors' slots (p < 0: no such predecessor). Nodes never touch a
// slot they are not ordered against, so nothing here races.
const dagSrc = `
kernel void mark(global int* d, int self, int p0, int p1, int p2)
{
    int m = 0;
    if (p0 >= 0) { int v = d[p0]; if (v > m) m = v; }
    if (p1 >= 0) { int v = d[p1]; if (v > m) m = v; }
    if (p2 >= 0) { int v = d[p2]; if (v > m) m = v; }
    d[self] = m + 1;
}
`

// TestWaitListOrderingProperty enqueues randomized layered DAGs on an
// out-of-order queue where ONLY wait-list edges order the commands,
// many times. Every command in layer i waits on a random non-empty
// subset of layer i-1, so it must observe at least one predecessor's
// finished value i and write i+1; a command released before a
// predecessor it waits on reads that slot's initial 0 and writes less.
func TestWaitListOrderingProperty(t *testing.T) {
	ctx, k := buildKernel(t, dagSrc, "mark")
	rng := rand.New(rand.NewSource(0xE7E47))
	for round := 0; round < 20; round++ {
		q := ctx.CreateOutOfOrderQueue()
		depth := 2 + rng.Intn(6)
		width := 1 + rng.Intn(3)
		b, err := ctx.CreateBuffer(int64(4 * depth * width))
		if err != nil {
			t.Fatal(err)
		}
		_ = k.SetArgBuffer(0, b)
		prev := []*Event{}
		for layer := 0; layer < depth; layer++ {
			var cur []*Event
			for w := 0; w < width; w++ {
				var waits []*Event
				preds := [3]int32{-1, -1, -1}
				for pi, p := range prev {
					if rng.Intn(2) == 0 {
						waits = append(waits, p)
						preds[pi] = int32((layer-1)*width + pi)
					}
				}
				if len(prev) > 0 && len(waits) == 0 {
					pi := rng.Intn(len(prev))
					waits = append(waits, prev[pi])
					preds[pi] = int32((layer-1)*width + pi)
				}
				_ = k.SetArgInt32(1, int32(layer*width+w))
				for a, p := range preds {
					_ = k.SetArgInt32(2+a, p)
				}
				ev, err := q.EnqueueKernel(k, ND1(1, 1), waits...)
				if err != nil {
					t.Fatal(err)
				}
				cur = append(cur, ev)
			}
			prev = cur
		}
		if err := q.Finish(); err != nil {
			t.Fatal(err)
		}
		out := make([]byte, 4*depth*width)
		if err := q.EnqueueReadBuffer(b, 0, out); err != nil {
			t.Fatal(err)
		}
		for node := 0; node < depth*width; node++ {
			want := int32(node/width + 1)
			if got := int32(binary.LittleEndian.Uint32(out[node*4:])); got != want {
				t.Fatalf("round %d: node %d (layer %d) wrote %d, want %d (wait-list edge violated)",
					round, node, node/width, got, want)
			}
		}
		b.Release()
	}
}

// TestInOrderQueueImplicitChain verifies the in-order mode is the
// special case of an implicit wait-list chain: no explicit events, yet
// commands observe strict ordering.
func TestInOrderQueueImplicitChain(t *testing.T) {
	ctx, k := buildKernel(t, incSrc, "inc")
	q := ctx.CreateCommandQueue()
	b, err := ctx.CreateBuffer(4)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	_ = k.SetArgInt32(1, 1)
	const n = 40
	var last *Event
	for i := 0; i < n; i++ {
		ev, err := q.EnqueueKernel(k, ND1(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		last = ev
	}
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4)
	if err := q.EnqueueReadBuffer(b, 0, out); err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(out)); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

// TestOutOfOrderStressSharedBuffer hammers one buffer from many
// dependency chains on an out-of-order queue (run under -race): chains
// are independent of each other but internally ordered, so each chain's
// cell must count its own links.
func TestOutOfOrderStressSharedBuffer(t *testing.T) {
	ctx, k := buildKernel(t, `
kernel void bump(global int* d, int cell)
{
    d[cell] = d[cell] + 1;
}
`, "bump")
	q := ctx.CreateOutOfOrderQueue()
	const chains, links = 16, 8
	b, err := ctx.CreateBuffer(4 * chains)
	if err != nil {
		t.Fatal(err)
	}
	events := make([]*Event, chains)
	for c := 0; c < chains; c++ {
		_ = k.SetArgBuffer(0, b)
		_ = k.SetArgInt32(1, int32(c))
		var prev *Event
		for l := 0; l < links; l++ {
			var waits []*Event
			if prev != nil {
				waits = append(waits, prev)
			}
			ev, err := q.EnqueueKernel(k, ND1(1, 1), waits...)
			if err != nil {
				t.Fatal(err)
			}
			prev = ev
		}
		events[c] = prev
	}
	if err := WaitAll(events...); err != nil {
		t.Fatal(err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*chains)
	if err := q.EnqueueReadBuffer(b, 0, out); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < chains; c++ {
		if got := int32(binary.LittleEndian.Uint32(out[c*4:])); got != links {
			t.Errorf("chain %d count = %d, want %d", c, got, links)
		}
	}
}

// TestFailurePropagation checks the failure path end to end: a trapping
// kernel fails its event, dependent commands do not run and fail with
// the propagated cause, and completion callbacks observe the failure.
func TestFailurePropagation(t *testing.T) {
	ctx, k := buildKernel(t, `
kernel void oob(global int* d)
{
    d[1 << 20] = 1;
}
`, "oob")
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	bad, err := q.EnqueueKernel(k, ND1(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	var cbStatus EventStatus
	var cbErr error
	var wg sync.WaitGroup
	wg.Add(1)
	bad.OnComplete(func(e *Event) {
		cbStatus, cbErr = e.Status(), e.Err()
		wg.Done()
	})
	dependent, err := q.EnqueueWrite(b, 0, make([]byte, 8), bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Wait(); err == nil {
		t.Fatal("trapping kernel reported success")
	}
	wg.Wait()
	if cbStatus != EventFailed || cbErr == nil {
		t.Fatalf("callback saw (%v, %v), want (failed, error)", cbStatus, cbErr)
	}
	err = dependent.Wait()
	if err == nil {
		t.Fatal("dependent of failed event reported success")
	}
	if dependent.Status() != EventFailed {
		t.Fatalf("dependent status = %v", dependent.Status())
	}
	if want := "wait-list dependency failed"; !strings.Contains(err.Error(), want) {
		t.Fatalf("dependent error %q does not mention %q", err, want)
	}
}

// TestEnqueueNonBlocking checks the core contract: Enqueue* returns
// while a previously enqueued kernel is still running.
func TestEnqueueNonBlocking(t *testing.T) {
	ctx, k := buildKernel(t, `
kernel void spink(global int* d, int iters)
{
    int acc = 0;
    int i;
    for (i = 0; i < iters; ++i) acc += i & 7;
    d[0] = acc;
}
`, "spink")
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(16)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	_ = k.SetArgInt32(1, 2_000_000)
	slow, err := q.EnqueueKernel(k, ND1(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Enqueue more work behind it; each call must return immediately.
	start := time.Now()
	_ = k.SetArgInt32(1, 1)
	fast, err := q.EnqueueKernel(k, ND1(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("enqueue blocked %v while kernel in flight", d)
	}
	if slow.Status().Terminal() {
		t.Skip("slow kernel finished before the check; timing too tight to assert")
	}
	if err := WaitAll(slow, fast); err != nil {
		t.Fatal(err)
	}
}

// TestBufferReleaseSemantics: releasing a buffer with queued commands
// fails those commands with ErrBufferReleased, keeps the accounting
// alive until the last pin drops, rejects new enqueues, and tolerates
// double release.
func TestBufferReleaseSemantics(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(1024)
	if err != nil {
		t.Fatal(err)
	}
	gate := NewUserEvent()
	ev, err := q.EnqueueWrite(b, 0, make([]byte, 8), gate)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if ctx.AllocatedBytes() != 1024 {
		t.Fatalf("memory freed with a command still pinned: %d", ctx.AllocatedBytes())
	}
	b.Release() // double release is a no-op
	if _, err := q.EnqueueWrite(b, 0, make([]byte, 8)); !errors.Is(err, ErrBufferReleased) {
		t.Fatalf("enqueue on released buffer: %v, want ErrBufferReleased", err)
	}
	gate.Complete()
	if err := ev.Wait(); !errors.Is(err, ErrBufferReleased) {
		t.Fatalf("queued command on released buffer: %v, want ErrBufferReleased", err)
	}
	if err := q.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := ctx.AllocatedBytes(); got != 0 {
		t.Fatalf("memory not freed after last pin dropped: %d", got)
	}
	if b.Pinned() != 0 {
		t.Fatalf("pins leaked: %d", b.Pinned())
	}
}

// TestFinishDrainsQueue checks Finish waits for every command,
// including long dependency chains still releasing.
func TestFinishDrainsQueue(t *testing.T) {
	ctx, k := buildKernel(t, incSrc, "inc")
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(4)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	_ = k.SetArgInt32(1, 1)
	gate := NewUserEvent()
	prev := gate
	const n = 25
	for i := 0; i < n; i++ {
		ev, err := q.EnqueueKernel(k, ND1(1, 1), prev)
		if err != nil {
			t.Fatal(err)
		}
		prev = ev
	}
	done := make(chan struct{})
	go func() {
		_ = q.Finish()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Finish returned while commands were gated")
	case <-time.After(20 * time.Millisecond):
	}
	gate.Complete()
	<-done
	out := make([]byte, 4)
	if err := q.EnqueueReadBuffer(b, 0, out); err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(out)); got != n {
		t.Fatalf("count after Finish = %d, want %d", got, n)
	}
	if q.Pending() != 0 {
		t.Fatalf("pending after Finish = %d", q.Pending())
	}
}

// TestSetArgLocalQueue runs a kernel whose scratchpad is a host-sized
// __local pointer argument through the event API: each work-group
// reverses its block through local memory.
func TestSetArgLocalQueue(t *testing.T) {
	ctx, k := buildKernel(t, `
kernel void revblk(global int* data, local int* scratch, int n)
{
    int l = (int)get_local_id(0);
    int ls = (int)get_local_size(0);
    int g = (int)get_global_id(0);
    if (g < n) scratch[l] = data[g];
    barrier(3);
    if (g < n) data[g] = scratch[ls - 1 - l];
}
`, "revblk")
	q := ctx.CreateCommandQueue()
	const n, local = 128, 16
	b, err := ctx.CreateBuffer(4 * n)
	if err != nil {
		t.Fatal(err)
	}
	host := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], uint32(i))
	}
	wev, err := q.EnqueueWrite(b, 0, host)
	if err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgBuffer(0, b)
	if err := k.SetArgLocal(1, 4*local); err != nil {
		t.Fatal(err)
	}
	_ = k.SetArgInt32(2, n)
	kev, err := q.EnqueueKernel(k, ND1(n, local), wev)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 4*n)
	rev, err := q.EnqueueRead(b, 0, out, kev)
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		blk := i / local
		want := uint32(blk*local + (local - 1 - i%local))
		if got := binary.LittleEndian.Uint32(out[i*4:]); got != want {
			t.Fatalf("data[%d] = %d, want %d", i, got, want)
		}
	}
	// Non-positive sizes and out-of-range indices are rejected.
	if err := k.SetArgLocal(1, 0); err == nil {
		t.Error("zero-size local argument accepted")
	}
	if err := k.SetArgLocal(9, 4); err == nil {
		t.Error("out-of-range local argument accepted")
	}
}

// TestMarkerJoin checks EnqueueMarker as a fan-in point.
func TestMarkerJoin(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateOutOfOrderQueue()
	b, err := ctx.CreateBuffer(64)
	if err != nil {
		t.Fatal(err)
	}
	var evs []*Event
	for i := 0; i < 8; i++ {
		data := make([]byte, 8)
		data[0] = byte(i + 1)
		ev, err := q.EnqueueWrite(b, int64(i*8), data)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	m, err := q.EnqueueMarker(evs...)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if b.Bytes[i*8] != byte(i+1) {
			t.Fatalf("slot %d not written before marker completed", i)
		}
	}
}

// TestWhenAllEmptyAndStatusStrings covers the degenerate paths.
func TestWhenAllEmptyAndStatusStrings(t *testing.T) {
	fired := false
	WhenAll(nil, func(err error) {
		if err != nil {
			t.Errorf("empty WhenAll err = %v", err)
		}
		fired = true
	})
	if !fired {
		t.Fatal("empty WhenAll did not fire synchronously")
	}
	for s, want := range map[EventStatus]string{
		EventQueued: "queued", EventSubmitted: "submitted", EventRunning: "running",
		EventComplete: "complete", EventFailed: "failed",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
	u := NewUserEvent()
	u.Fail(nil)
	if u.Status() != EventFailed || u.Err() == nil {
		t.Error("Fail(nil) did not synthesize an error")
	}
	u.Complete() // terminal events ignore further transitions
	if u.Status() != EventFailed {
		t.Error("terminal event re-transitioned")
	}
	_ = fmt.Sprintf("%v", u.Status())
}

// TestWaitListDependantsRunBeforeObservers: an event releases the
// commands waiting on it before it notifies its OnComplete observers,
// whatever order they registered in, and on failure the dependant still
// runs exactly once with the cause.
func TestWaitListDependantsRunBeforeObservers(t *testing.T) {
	for _, cause := range []error{nil, errors.New("upstream failed")} {
		ev := NewUserEvent()
		var order []string
		ev.OnComplete(func(*Event) { order = append(order, "observer") })
		runs := 0
		var got error
		WhenAll([]*Event{ev}, func(err error) {
			runs++
			got = err
			order = append(order, "dependant")
		})
		if cause == nil {
			ev.Complete()
		} else {
			ev.Fail(cause)
		}
		if runs != 1 {
			t.Errorf("cause %v: dependant ran %d times, want 1", cause, runs)
		}
		if got != cause {
			t.Errorf("dependant saw %v, want %v", got, cause)
		}
		if want := []string{"dependant", "observer"}; fmt.Sprint(order) != fmt.Sprint(want) {
			t.Errorf("cause %v: callbacks ran %v, want %v", cause, order, want)
		}
	}
}

// TestEventWaitContext covers the bounded wait: a completed event
// returns its terminal error regardless of context state, a pending
// event returns the context's error on cancellation or deadline, and a
// completion that races the cancel is surfaced if it wins.
func TestEventWaitContext(t *testing.T) {
	// Terminal success and failure return immediately.
	ok := NewUserEvent()
	ok.Complete()
	if err := ok.WaitContext(context.Background()); err != nil {
		t.Fatalf("WaitContext on complete event: %v", err)
	}
	boom := errors.New("boom")
	bad := NewUserEvent()
	bad.Fail(boom)
	if err := bad.WaitContext(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("WaitContext on failed event: %v, want boom", err)
	}

	// A pending event is released by cancellation with the context's
	// error — the hang this method exists to prevent.
	pending := NewUserEvent()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- pending.WaitContext(ctx) }()
	select {
	case err := <-done:
		t.Fatalf("WaitContext returned %v before cancel", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitContext after cancel: %v, want context.Canceled", err)
	}
	pending.Complete() // leave no waiter behind

	// Deadline expiry behaves the same way.
	late := NewUserEvent()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer dcancel()
	if err := late.WaitContext(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("WaitContext past deadline: %v, want DeadlineExceeded", err)
	}
	late.Complete()
}
