package opencl

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/telemetry"
)

// CommandQueue is the command half of the asynchronous host API. Every
// Enqueue* call validates its arguments, snapshots them, and returns an
// *Event immediately; the command body executes in the background once
// its wait list completes.
//
// Two orderings are supported:
//
//   - in-order (CreateCommandQueue): every command implicitly waits on
//     the previously enqueued command — the classic OpenCL queue, now
//     just the special case of a wait-list chain;
//   - out-of-order (CreateOutOfOrderQueue): only explicit wait-list
//     edges order commands; independent commands run concurrently.
//
// Commands on a failed dependency do not run: their event fails with the
// propagated cause. On an in-order queue that poisons the rest of the
// chain, exactly like a real device rejecting commands after an error.
type CommandQueue struct {
	Ctx *Context

	outOfOrder bool

	mu    sync.Mutex
	label string // telemetry identity ("" renders as "queue")
	chain *Event // in-order queues: last enqueued command's event
	group EventGroup
}

// SetLabel names the queue in telemetry output: command spans carry it
// as their process and DMA metrics as their queue label. The accelOS
// runtime sets it to the owning tenant's name.
func (q *CommandQueue) SetLabel(name string) {
	q.mu.Lock()
	q.label = name
	q.mu.Unlock()
}

// Label returns the telemetry name ("queue" when never set).
func (q *CommandQueue) Label() string {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.label == "" {
		return "queue"
	}
	return q.label
}

// CreateCommandQueue returns an in-order queue.
func (c *Context) CreateCommandQueue() *CommandQueue {
	return &CommandQueue{Ctx: c}
}

// CreateOutOfOrderQueue returns a queue in out-of-order execution mode:
// commands are ordered only by their wait lists.
func (c *Context) CreateOutOfOrderQueue() *CommandQueue {
	q := c.CreateCommandQueue()
	q.outOfOrder = true
	return q
}

// enqueue is the dispatcher: it gathers the command's dependencies
// (wait list plus, on in-order queues, the implicit chain), pins the
// buffers the command touches, and releases the command body to a
// background goroutine once every dependency has completed. It returns
// the command's event without blocking, and keeps bufs until then.
//
// op and nbytes describe the command for telemetry: when the context
// carries a tracer/registry, completion emits a span from the event's
// profiling stamps, and transfer commands (nbytes > 0) count DMA bytes
// and wall time under the queue's label.
func (q *CommandQueue) enqueue(what, op string, nbytes int, bufs []*Buffer, waits []*Event, run func() error) (*Event, error) {
	deps := compactWaits(waits)
	q.mu.Lock()
	if !q.outOfOrder && q.chain != nil {
		deps = append(deps, q.chain)
	}
	for i, b := range bufs {
		if err := b.Pin(); err != nil {
			for _, p := range bufs[:i] {
				p.Unpin()
			}
			q.mu.Unlock()
			return nil, fmt.Errorf("%s: %w", what, err)
		}
	}
	ev := newEvent()
	// Registered before the queue's group hears of the completion, so
	// Finish returns with the command's buffers unpinned.
	ev.OnComplete(func(*Event) {
		for _, b := range bufs {
			b.Unpin()
		}
	})
	if !q.outOfOrder {
		q.chain = ev
	}
	q.group.Add(ev)
	q.mu.Unlock()

	if tr, reg := q.Ctx.telemetrySinks(); tr != nil || reg != nil {
		label := q.Label()
		ev.OnComplete(func(e *Event) {
			p, perr := e.ProfilingInfo()
			if perr != nil {
				return
			}
			status := "ok"
			if e.Err() != nil {
				status = "failed"
			}
			if tr != nil {
				args := []telemetry.Arg{{Key: "status", Val: status}}
				if nbytes > 0 {
					args = append(args, telemetry.Arg{Key: "bytes", Val: strconv.Itoa(nbytes)})
				}
				// Command spans cover the running body; commands that
				// never ran (failed dependency) have no running stamp and
				// emit nothing.
				if !p.Running.IsZero() {
					tr.Complete(0, label, "commands", "command", op, p.Running, p.Complete, args...)
				}
			}
			if reg != nil && nbytes > 0 && status == "ok" {
				reg.Counter("dma_bytes_total", telemetry.L("queue", label)).Add(int64(nbytes))
				reg.Histogram("dma_ns", telemetry.L("queue", label)).Observe(int64(p.Duration()))
			}
		})
	}

	WhenAll(deps, func(depErr error) {
		if depErr != nil {
			ev.finish(fmt.Errorf("%s: wait-list dependency failed: %w", what, depErr))
			return
		}
		ev.transition(EventSubmitted)
		go func() {
			// A buffer released while the command sat in the queue fails
			// the command instead of touching freed memory.
			for _, b := range bufs {
				if b.Released() {
					ev.finish(fmt.Errorf("%s: %w", what, ErrBufferReleased))
					return
				}
			}
			ev.transition(EventRunning)
			err := run()
			if err != nil {
				err = fmt.Errorf("%s: %w", what, err)
			}
			ev.finish(err)
		}()
	})
	return ev, nil
}

// EnqueueWrite schedules a host→device copy and returns its event.
// The data slice must stay untouched until the event completes.
func (q *CommandQueue) EnqueueWrite(b *Buffer, off int64, data []byte, waits ...*Event) (*Event, error) {
	if off < 0 || off+int64(len(data)) > b.Size {
		return nil, fmt.Errorf("opencl: write outside buffer bounds")
	}
	return q.enqueue("opencl: write", "write", len(data), []*Buffer{b}, waits, func() error {
		copy(b.Bytes[off:], data)
		return nil
	})
}

// EnqueueRead schedules a device→host copy and returns its event. The
// out slice is filled when the event completes.
func (q *CommandQueue) EnqueueRead(b *Buffer, off int64, out []byte, waits ...*Event) (*Event, error) {
	if off < 0 || off+int64(len(out)) > b.Size {
		return nil, fmt.Errorf("opencl: read outside buffer bounds")
	}
	return q.enqueue("opencl: read", "read", len(out), []*Buffer{b}, waits, func() error {
		copy(out, b.Bytes[off:])
		return nil
	})
}

// EnqueueKernel schedules a kernel launch and returns its event. The
// kernel's argument bindings are snapshotted at enqueue time, so the
// caller may rebind them for the next launch immediately. Buffers are
// bound into the machine zero-copy when the command runs.
func (q *CommandQueue) EnqueueKernel(k *Kernel, nd NDRange, waits ...*Event) (*Event, error) {
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	args, bufs, err := k.freeze()
	if err != nil {
		return nil, err
	}
	pool := q.Ctx.Plat.Machines()
	mod, name, prog := k.Prog.Module, k.Name, k.Prog.Compiled()
	return q.enqueue(fmt.Sprintf("opencl: kernel %q", name), "kernel "+name, 0, bufs, waits, func() error {
		mach := pool.Acquire(mod)
		defer pool.Release(mach)
		mach.UseProgram(prog)
		vals, err := bind(mach, name, args, 0)
		if err != nil {
			return err
		}
		return mach.Launch(name, vals, nd)
	})
}

// EnqueueMarker returns an event that completes when every event in the
// wait list has completed (on an in-order queue, also every previously
// enqueued command) — a join point for fan-in dependency graphs.
func (q *CommandQueue) EnqueueMarker(waits ...*Event) (*Event, error) {
	return q.enqueue("opencl: marker", "marker", 0, nil, waits, func() error { return nil })
}

// Finish blocks until every command enqueued so far has reached a
// terminal status and returns nil; per-command errors are reported on
// the commands' own events. A wait list referencing a user event that is
// never completed blocks Finish.
func (q *CommandQueue) Finish() error {
	q.group.Wait()
	return nil
}

// Pending reports how many enqueued commands have not yet completed.
func (q *CommandQueue) Pending() int {
	return q.group.Pending()
}

// --- blocking wrappers (the pre-event API call shapes) ----------------

// EnqueueWriteBuffer copies host bytes into a buffer, blocking until the
// copy completes (thin wrapper over EnqueueWrite + Wait).
func (q *CommandQueue) EnqueueWriteBuffer(b *Buffer, off int64, data []byte) error {
	ev, err := q.EnqueueWrite(b, off, data)
	if err != nil {
		return err
	}
	return ev.Wait()
}

// EnqueueReadBuffer copies buffer bytes back to the host, blocking until
// the copy completes (thin wrapper over EnqueueRead + Wait).
func (q *CommandQueue) EnqueueReadBuffer(b *Buffer, off int64, out []byte) error {
	ev, err := q.EnqueueRead(b, off, out)
	if err != nil {
		return err
	}
	return ev.Wait()
}

// EnqueueNDRangeKernel launches the kernel and blocks until it completes
// (thin wrapper over EnqueueKernel + Wait).
func (q *CommandQueue) EnqueueNDRangeKernel(k *Kernel, nd NDRange) error {
	ev, err := q.EnqueueKernel(k, nd)
	if err != nil {
		return err
	}
	return ev.Wait()
}
