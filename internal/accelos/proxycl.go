package accelos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/opencl"
)

// ErrAppClosed is returned (possibly wrapped) by every App entry point
// once Close has begun. It is a comparable sentinel so interposition
// layers — in particular the wire protocol — can map the condition to a
// typed code instead of string-matching.
var ErrAppClosed = errors.New("accelos: application closed")

// ProxyCL (level 2 of Fig. 5) is the library applications link instead
// of vendor OpenCL: the same call shapes, transparently routed to the
// accelOS daemon. The paper transports calls over interprocess shared
// memory (shown in the authors' prior work to have negligible overhead);
// in this reproduction the App methods are that boundary: each call runs
// the runtime on the application's own goroutine, routed by what it is
// (the Application Monitor's scenarios of Fig. 6) — a program creation
// to the JIT, a kernel execution to the Kernel Scheduler, anything else
// straight through to OpenCL.
//
// Submissions are event-based: EnqueueKernelAsync and the buffer
// Read/WriteAsync calls return an *opencl.Event immediately, accept wait
// lists, and complete in the background — one application can pipeline
// transfers against in-flight kernels and express whole dependency
// graphs, which the Kernel Scheduler sees as its pending window. The
// event-free EnqueueKernel/Read/Write calls remain as thin blocking
// wrappers.

// App is one connected application.
type App struct {
	rt   *Runtime
	ID   int
	Name string

	// q carries the application's asynchronous buffer transfers: an
	// out-of-order queue, so only wait-list edges order commands.
	q *opencl.CommandQueue

	// group tracks the app's incomplete events for Finish.
	group opencl.EventGroup

	// mu guards the close state: Close may race with enqueues from
	// other goroutines (a daemon connection dropping mid-launch), so
	// every entry point holds an op ticket while it registers work, and
	// Close waits for tickets to drain before tearing down.
	mu     sync.Mutex
	cond   *sync.Cond
	closed bool
	ops    int
}

// Connect registers an application with the daemon.
func (rt *Runtime) Connect(name string) *App {
	rt.mu.Lock()
	rt.nextApp++
	id := rt.nextApp
	rt.mu.Unlock()
	q := rt.Ctx.CreateOutOfOrderQueue()
	// The queue reports telemetry (DMA spans and byte counts) under the
	// tenant's name.
	q.SetLabel(name)
	rt.openApps.Add(1)
	return &App{rt: rt, ID: id, Name: name, q: q}
}

// begin takes an op ticket, failing with ErrAppClosed once Close has
// begun. Every successful begin is paired with end before the entry
// point returns; the work it registered (events, requests) is then
// drained by Close via the event group.
func (a *App) begin() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return ErrAppClosed
	}
	a.ops++
	return nil
}

func (a *App) isClosed() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.closed
}

func (a *App) end() {
	a.mu.Lock()
	a.ops--
	if a.ops == 0 && a.cond != nil {
		a.cond.Broadcast()
	}
	a.mu.Unlock()
}

// Close releases everything the application holds. It is safe against
// concurrent in-flight work: new entry points fail with ErrAppClosed, a
// paused CreateBuffer returns it, registrations already underway are
// waited out before teardown, and the app's remaining buffers are
// released — cancelling in-flight launches at their next slice boundary. Close does not block on the
// outstanding events themselves (they fail or complete asynchronously,
// exactly as a released buffer behaves); callers that need the drain
// call Finish, which remains valid after Close. A second Close is a
// no-op.
func (a *App) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	a.rt.openApps.Add(-1)
	a.mu.Unlock()
	a.rt.mem.wake() // a paused CreateBuffer of this app returns ErrAppClosed
	a.mu.Lock()
	if a.cond == nil {
		a.cond = sync.NewCond(&a.mu)
	}
	for a.ops > 0 {
		a.cond.Wait()
	}
	a.mu.Unlock()
	for _, h := range a.rt.mem.holding(a) {
		h.Release()
	}
}

// track registers an event against the app's outstanding set (Finish
// waits for the set to drain).
func (a *App) track(ev *opencl.Event) {
	a.group.Add(ev)
}

// NewControlledEvent returns a tracked event the caller completes
// itself — the hook interposition layers (the wire service) use to
// splice host-side conditions into the app's dependency graph while
// Finish and Close still account for them.
func (a *App) NewControlledEvent() (*opencl.Event, error) {
	if err := a.begin(); err != nil {
		return nil, err
	}
	defer a.end()
	ev := opencl.NewUserEvent()
	a.track(ev)
	return ev, nil
}

// Finish blocks until every event the application enqueued (kernels and
// transfers) has reached a terminal status. Per-command errors are
// reported on the commands' own events.
func (a *App) Finish() {
	a.group.Wait()
}

// Program is the application's handle to a built OpenCL program. The
// runtime keeps both the original and the JIT-transformed module in the
// program's build, which it shares with every other Program of the same
// source, whichever application created it; the modules are immutable
// and outlive the build's cache entry for as long as a Program points at
// them. The application never sees the difference.
type Program struct {
	app    *App
	Source string

	*build
}

// CreateProgram intercepts clCreateProgramWithSource+clBuildProgram:
// scenario (a) of the Application Monitor — the JIT compiler analyzes
// and transforms the kernel code. The first creation of a source
// compiles it here, on the caller's goroutine; creations of the same
// source in the meantime wait for that compile, and later ones find it
// in the runtime's build cache. A source that does not build fails with
// an error wrapping ErrBuildFailed. The application keeps launching
// kernels under their original names; the transformed module provides
// them.
func (a *App) CreateProgram(src string) (*Program, error) {
	if err := a.begin(); err != nil {
		return nil, err
	}
	defer a.end()
	b := a.rt.buildProgram(a.Name, src)
	if b.err != nil {
		return nil, b.err
	}
	return &Program{app: a, Source: src, build: b}, nil
}

// BufferHandle is the application's device memory handle: the
// opencl.Buffer, which owns the release state — commands pin it at
// enqueue, and a released buffer fails them rather than yanking the
// bytes — plus what accelOS hangs on its free.
type BufferHandle struct {
	app *App
	// Size in bytes.
	Size int64
	buf  *opencl.Buffer

	// onFree, when set, runs once the context has freed the buffer
	// (i.e. once the last pin is gone and the backing is dead). The
	// service layer hangs shared-memory segment teardown here.
	onFree func()

	// released makes Release run once, so the memory manager counts
	// each release's pending free exactly once.
	released atomic.Bool
}

// Released reports whether the buffer has been released.
func (h *BufferHandle) Released() bool { return h.buf.Released() }

// CreateBuffer allocates device memory. The accelOS memory manager may
// pause the application (block) until peers release memory (§5); a
// pause that cannot end fails with opencl.ErrOutOfMemory, and Close
// ends it with ErrAppClosed.
func (a *App) CreateBuffer(size int64) (*BufferHandle, error) {
	return a.createBuffer(size, func() (*opencl.Buffer, error) {
		return a.rt.Ctx.CreateBuffer(size)
	}, nil)
}

// CreateBufferBacked allocates a buffer of size bytes whose device
// backing back makes — the zero-copy hook for the out-of-process
// service, which backs buffers with shared-memory segments mapped by
// both the daemon and the client. back runs once the device has room,
// after any pause. onFree (optional) runs once the backing is truly
// dead: after release, once the last in-flight command unpinned it.
func (a *App) CreateBufferBacked(size int64, back func() ([]byte, error), onFree func()) (*BufferHandle, error) {
	return a.createBuffer(size, func() (*opencl.Buffer, error) {
		return a.rt.Ctx.CreateBufferBacked(size, back)
	}, onFree)
}

func (a *App) createBuffer(size int64, mk func() (*opencl.Buffer, error), onFree func()) (*BufferHandle, error) {
	if err := a.begin(); err != nil {
		return nil, err
	}
	defer a.end()
	// Pausing happens in the application's own goroutine, so other
	// tenants are never held up by it. The op ticket stays held: Close
	// ends the pause before it waits for tickets to drain.
	h := &BufferHandle{app: a, Size: size, onFree: onFree}
	if err := a.rt.mem.alloc(h, mk); err != nil {
		return nil, err
	}
	return h, nil
}

// Release frees the buffer. The release is refcount-aware: with
// commands in flight the device memory is freed only when the last
// command unpins the buffer, queued commands fail with a clear error
// instead of racing on the bytes, and a double Release is a no-op.
func (h *BufferHandle) Release() {
	if h.released.Swap(true) {
		return
	}
	mem := h.app.rt.mem
	mem.draining.Add(1)
	h.buf.ReleaseFunc(func() {
		mem.freed(h)
		if h.onFree != nil {
			h.onFree()
		}
	})
}

// WriteAsync schedules a host→device copy and returns its event
// immediately (shared-memory transport: no daemon round trip needed, as
// in the paper's IPC design). The data slice must stay untouched until
// the event completes.
func (h *BufferHandle) WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	if err := h.app.begin(); err != nil {
		return nil, err
	}
	defer h.app.end()
	ev, err := h.app.q.EnqueueWrite(h.buf, off, data, waits...)
	if err != nil {
		return nil, err
	}
	h.app.track(ev)
	return ev, nil
}

// ReadAsync schedules a device→host copy and returns its event
// immediately; out is filled when the event completes.
func (h *BufferHandle) ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	if err := h.app.begin(); err != nil {
		return nil, err
	}
	defer h.app.end()
	ev, err := h.app.q.EnqueueRead(h.buf, off, out, waits...)
	if err != nil {
		return nil, err
	}
	h.app.track(ev)
	return ev, nil
}

// Write copies host bytes into the buffer, blocking until the copy
// completes (thin wrapper over WriteAsync + Wait).
func (h *BufferHandle) Write(off int64, data []byte) error {
	ev, err := h.WriteAsync(off, data)
	if err != nil {
		return err
	}
	return ev.Wait()
}

// Read copies buffer bytes back to the host, blocking until the copy
// completes (thin wrapper over ReadAsync + Wait).
func (h *BufferHandle) Read(off int64, out []byte) error {
	ev, err := h.ReadAsync(off, out)
	if err != nil {
		return err
	}
	return ev.Wait()
}

// KernelHandle is the application's kernel object: an opencl.Kernel
// over the program's original module, so its arity and bindings are the
// original signature's. The Kernel Scheduler appends the RT descriptor
// when it launches the transformed wrapper.
type KernelHandle struct {
	prog *Program
	cl   *opencl.Kernel
}

// CreateKernel resolves a kernel by its original name (the JIT keeps
// the name on the scheduling wrapper, so this is transparent).
func (p *Program) CreateKernel(name string) (*KernelHandle, error) {
	cl, err := (&opencl.Program{Module: p.orig}).CreateKernel(name)
	if err != nil {
		return nil, err
	}
	return &KernelHandle{prog: p, cl: cl}, nil
}

// NumArgs reports the kernel's arity (its original signature, before
// the JIT appends the RT descriptor).
func (k *KernelHandle) NumArgs() int { return k.cl.NumArgs() }

// SetArgBuffer binds a buffer argument.
func (k *KernelHandle) SetArgBuffer(i int, b *BufferHandle) error { return k.cl.SetArgBuffer(i, b.buf) }

// SetArgInt32 binds an int scalar argument.
func (k *KernelHandle) SetArgInt32(i int, v int32) error { return k.cl.SetArgInt32(i, v) }

// SetArgInt64 binds a long scalar argument.
func (k *KernelHandle) SetArgInt64(i int, v int64) error { return k.cl.SetArgInt64(i, v) }

// SetArgFloat32 binds a float scalar argument.
func (k *KernelHandle) SetArgFloat32(i int, v float32) error { return k.cl.SetArgFloat32(i, v) }

// SetArgLocal binds a local-memory argument of the given byte size for
// a __local pointer parameter: every work-group of the launch receives
// its own zeroed local region of that size.
func (k *KernelHandle) SetArgLocal(i int, size int64) error { return k.cl.SetArgLocal(i, size) }

// EnqueueKernelAsync intercepts clEnqueueNDRangeKernel: scenario (b) —
// the Kernel Scheduler alters the grid and launches the transformed
// kernel. The call returns the execution's event immediately; the
// kernel starts once every wait-list event completes (a failed
// dependency fails this event instead of launching). Arguments are
// frozen at enqueue (opencl.Kernel.Snapshot), and the buffers they name
// stay pinned until the event completes.
func (a *App) EnqueueKernelAsync(k *KernelHandle, nd opencl.NDRange, waits ...*opencl.Event) (*opencl.Event, error) {
	if err := a.begin(); err != nil {
		return nil, err
	}
	defer a.end()
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	snap, bufs, err := k.cl.Snapshot()
	if err != nil {
		return nil, err
	}
	for pi, b := range bufs {
		if err := b.Pin(); err != nil {
			for _, p := range bufs[:pi] {
				p.Unpin()
			}
			return nil, fmt.Errorf("accelos: kernel %q: %w", snap.Name, err)
		}
	}
	ev := opencl.NewUserEvent()
	ev.OnComplete(func(*opencl.Event) {
		for _, b := range bufs {
			b.Unpin()
		}
	})
	a.track(ev)
	a.rt.scheduleKernel(a, k.prog, snap, nd, waits, ev, bufs)
	return ev, nil
}

// EnqueueKernel launches the kernel and blocks until the execution
// completes — the pre-event call shape, now a thin wrapper over
// EnqueueKernelAsync + Wait. Concurrent applications' launches overlap.
func (a *App) EnqueueKernel(k *KernelHandle, nd opencl.NDRange) error {
	ev, err := a.EnqueueKernelAsync(k, nd)
	if err != nil {
		return err
	}
	return ev.Wait()
}
