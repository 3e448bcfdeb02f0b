package service

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/opencl"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ErrClientClosed fails calls and pending events once the client (or
// the connection under it) is closed.
var ErrClientClosed = errors.New("service: client closed")

// Client is the out-of-process ProxyCL shim: the same surface as
// accelos.App — programs, buffers, kernels, async enqueues with wait
// lists, Finish — backed by a daemon in another process. Events
// returned here are local mirrors completed by the daemon's
// MsgEventDone frames; buffer bytes live in shared-memory segments
// mapped into both processes, so Write/ReadAsync move bytes only
// between the caller's slices and the mapping, never over the socket.
//
// A Client is safe for concurrent use. Wait-list events must have been
// produced by this Client (or already be terminal); events from other
// sources can gate writes — whose dependencies resolve client-side —
// but not kernel launches or reads, which order inside the daemon.
type Client struct {
	nc     net.Conn
	br     *bufio.Reader // the one reader of nc: handshake, then readLoop
	tenant string

	// ctx spans the connection's lifetime; shutdown cancels it, which
	// unblocks every WaitContext parked on a mirror event. This bounds
	// the client's blocking paths by the connection: no wait can outlive
	// the socket it is waiting on.
	ctx     context.Context
	cancel  context.CancelFunc
	metrics *telemetry.Registry // optional, from DialOptions

	wmu sync.Mutex // serializes request frames

	mu      sync.Mutex
	closed  bool
	callErr error // why the connection died, for late callers
	nextReq uint64
	calls   map[uint64]chan wire.Frame
	events  map[uint64]*pendingEvent
	evIDs   map[*opencl.Event]uint64
	bufs    map[*RemoteBuffer]struct{}

	group opencl.EventGroup
}

// pendingEvent is a local mirror awaiting its MsgEventDone.
type pendingEvent struct {
	ev *opencl.Event
	// onDone runs before Complete on success — the read path's
	// copy-out of the shared mapping.
	onDone func()
}

// Dial connects to a daemon socket and runs the authenticated
// handshake.
func Dial(path, tenant, token string) (*Client, error) {
	nc, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	hello := wire.Hello{Version: wire.Version, Tenant: tenant, Token: token}
	if err := wire.WriteFrame(nc, wire.MsgHello, 0, hello.Encode()); err != nil {
		nc.Close()
		return nil, err
	}
	br := getReader(nc)
	f, err := wire.ReadFrame(br)
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("service: handshake: %w", err)
	}
	var w wire.Welcome
	if f.Type != wire.MsgWelcome || w.Decode(f.Body) != nil {
		nc.Close()
		return nil, fmt.Errorf("service: handshake: unexpected %v frame", f.Type)
	}
	if w.Code != wire.CodeOK {
		nc.Close()
		return nil, w.Code.Err(w.Msg)
	}
	return newClient(nc, br, tenant), nil
}

// newClient wraps a connection whose handshake is done — read through
// br, which may already hold bytes past the welcome — and starts its
// reply reader; Close (or the connection dying) stops it.
func newClient(nc net.Conn, br *bufio.Reader, tenant string) *Client {
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		nc:     nc,
		br:     br,
		tenant: tenant,
		ctx:    ctx,
		cancel: cancel,
		calls:  make(map[uint64]chan wire.Frame),
		events: make(map[uint64]*pendingEvent),
		evIDs:  make(map[*opencl.Event]uint64),
		bufs:   make(map[*RemoteBuffer]struct{}),
	}
	go c.readLoop()
	return c
}

// Close tears the connection down: pending calls and events fail with
// ErrClientClosed, mappings are unmapped, and the daemon — seeing the
// disconnect — releases the tenant's buffers and cancels its in-flight
// launches.
func (c *Client) Close() error {
	c.shutdown(ErrClientClosed)
	return nil
}

func (c *Client) shutdown(cause error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.callErr = cause
	calls := c.calls
	events := c.events
	bufs := c.bufs
	c.calls = nil
	c.events = nil
	c.evIDs = nil
	c.bufs = nil
	c.mu.Unlock()

	c.nc.Close()
	c.cancel()
	for _, ch := range calls {
		close(ch)
	}
	for _, pe := range events {
		pe.ev.Fail(cause)
	}
	for b := range bufs {
		b.unmap()
	}
}

// waitEvent blocks on a mirror event, bounded by the connection's
// lifetime. shutdown fails every registered mirror, so the context leg
// only matters for waits that raced registration teardown — it turns a
// would-be hang into the typed connection-death error.
func (c *Client) waitEvent(ev *opencl.Event) error {
	err := ev.WaitContext(c.ctx)
	if errors.Is(err, context.Canceled) {
		c.mu.Lock()
		cause := c.callErr
		c.mu.Unlock()
		if cause != nil {
			return cause
		}
		return ErrClientClosed
	}
	return err
}

func (c *Client) readLoop() {
	defer putReader(c.br)
	for {
		f, err := wire.ReadFrame(c.br)
		if err != nil {
			c.shutdown(fmt.Errorf("%w: %v", ErrClientClosed, err))
			return
		}
		if f.Type == wire.MsgEventDone {
			var st wire.Status
			if st.Decode(f.Body) != nil {
				continue
			}
			c.mu.Lock()
			pe := c.events[f.Req]
			delete(c.events, f.Req)
			c.mu.Unlock()
			if pe == nil {
				continue
			}
			if st.Code != wire.CodeOK {
				pe.ev.Fail(st.Code.Err(st.Msg))
			} else {
				if pe.onDone != nil {
					pe.onDone()
				}
				pe.ev.Complete()
			}
			// Forget the mirror's daemon id only once it is terminal: a
			// concurrent waitIDs must find the event either known (the
			// daemon resolves the id, in flight or finished) or terminal
			// (nothing left to order), never neither.
			c.mu.Lock()
			delete(c.evIDs, pe.ev)
			c.mu.Unlock()
			continue
		}
		c.mu.Lock()
		ch := c.calls[f.Req]
		delete(c.calls, f.Req)
		c.mu.Unlock()
		if ch != nil {
			ch <- f
		}
	}
}

func (c *Client) send(t wire.MsgType, req uint64, body []byte) error {
	c.wmu.Lock()
	err := wire.WriteFrame(c.nc, t, req, body)
	c.wmu.Unlock()
	if err != nil {
		// Wrap before returning too, so the caller sees the same typed
		// connection-death error as every pending call and event.
		err = fmt.Errorf("%w: %v", ErrClientClosed, err)
		c.shutdown(err)
	}
	return err
}

// call runs one synchronous request: register a reply slot, send, wait.
func (c *Client) call(t wire.MsgType, body []byte) (wire.Frame, error) {
	c.mu.Lock()
	if c.closed {
		err := c.callErr
		c.mu.Unlock()
		return wire.Frame{}, err
	}
	c.nextReq++
	req := c.nextReq
	ch := make(chan wire.Frame, 1)
	c.calls[req] = ch
	c.mu.Unlock()
	if err := c.send(t, req, body); err != nil {
		return wire.Frame{}, err
	}
	f, ok := <-ch
	if !ok {
		c.mu.Lock()
		err := c.callErr
		c.mu.Unlock()
		return wire.Frame{}, err
	}
	if f.Type == wire.MsgError {
		var st wire.Status
		if err := st.Decode(f.Body); err != nil {
			return wire.Frame{}, err
		}
		return wire.Frame{}, st.Code.Err(st.Msg)
	}
	return f, nil
}

// Finish blocks until every event this client enqueued is terminal —
// the App.Finish analogue.
func (c *Client) Finish() {
	c.group.Wait()
}

// Outstanding reports incomplete mirror events.
func (c *Client) Outstanding() int {
	return c.group.Pending()
}

// RemoteProgram is a program compiled inside the daemon.
type RemoteProgram struct {
	c  *Client
	id uint64
}

// CreateProgram ships CLC source to the daemon for JIT compilation.
func (c *Client) CreateProgram(src string) (*RemoteProgram, error) {
	m := wire.ProgramCreate{Source: src}
	f, err := c.call(wire.MsgProgramCreate, m.Encode())
	if err != nil {
		return nil, err
	}
	var info wire.ProgramInfo
	if err := info.Decode(f.Body); err != nil {
		return nil, err
	}
	return &RemoteProgram{c: c, id: info.Prog}, nil
}

// RemoteKernel mirrors accelos.KernelHandle: argument bindings are
// staged locally and travel with each enqueue.
type RemoteKernel struct {
	c  *Client
	id uint64

	mu   sync.Mutex
	args []wire.KernelArg
	set  []bool
}

// CreateKernel resolves a kernel by name inside the daemon.
func (p *RemoteProgram) CreateKernel(name string) (*RemoteKernel, error) {
	m := wire.KernelCreate{Prog: p.id, Name: name}
	f, err := p.c.call(wire.MsgKernelCreate, m.Encode())
	if err != nil {
		return nil, err
	}
	var info wire.KernelInfo
	if err := info.Decode(f.Body); err != nil {
		return nil, err
	}
	return &RemoteKernel{
		c:    p.c,
		id:   info.Kernel,
		args: make([]wire.KernelArg, info.NumArgs),
		set:  make([]bool, info.NumArgs),
	}, nil
}

func (k *RemoteKernel) setArg(i int, a wire.KernelArg) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("service: argument %d out of range", i)
	}
	k.args[i] = a
	k.set[i] = true
	return nil
}

// SetArgBuffer binds a buffer argument.
func (k *RemoteKernel) SetArgBuffer(i int, b *RemoteBuffer) error {
	return k.setArg(i, wire.KernelArg{Kind: wire.ArgBuffer, Buffer: b.id})
}

// SetArgInt32 binds an int scalar argument.
func (k *RemoteKernel) SetArgInt32(i int, v int32) error {
	return k.setArg(i, wire.KernelArg{Kind: wire.ArgI32, I64: int64(v)})
}

// SetArgInt64 binds a long scalar argument.
func (k *RemoteKernel) SetArgInt64(i int, v int64) error {
	return k.setArg(i, wire.KernelArg{Kind: wire.ArgI64, I64: v})
}

// SetArgFloat32 binds a float scalar argument.
func (k *RemoteKernel) SetArgFloat32(i int, v float32) error {
	return k.setArg(i, wire.KernelArg{Kind: wire.ArgF32, F32: v})
}

// SetArgLocal binds a local-memory argument of the given byte size.
func (k *RemoteKernel) SetArgLocal(i int, size int64) error {
	if size <= 0 {
		return fmt.Errorf("service: local argument %d has non-positive size %d", i, size)
	}
	return k.setArg(i, wire.KernelArg{Kind: wire.ArgLocal, I64: size})
}

// snapshot copies the staged bindings for one enqueue.
func (k *RemoteKernel) snapshot() ([]wire.KernelArg, error) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for i, ok := range k.set {
		if !ok {
			return nil, fmt.Errorf("service: kernel argument %d not set", i)
		}
	}
	return append([]wire.KernelArg(nil), k.args...), nil
}

// RemoteBuffer is a device buffer whose backing is a shared-memory
// segment mapped into this process.
type RemoteBuffer struct {
	c    *Client
	id   uint64
	size int64

	mapMu    sync.RWMutex // guards the mapping against a concurrent unmap
	shm      *wire.Shm
	released bool
}

// CreateBuffer allocates a buffer in the daemon and maps its segment.
func (c *Client) CreateBuffer(size int64) (*RemoteBuffer, error) {
	m := wire.BufferCreate{Size: size}
	f, err := c.call(wire.MsgBufferCreate, m.Encode())
	if err != nil {
		return nil, err
	}
	var info wire.BufferInfo
	if err := info.Decode(f.Body); err != nil {
		return nil, err
	}
	shm, err := wire.OpenShm(info.Path)
	if err != nil {
		// Map failure orphans the server-side buffer; release it.
		rel := wire.BufferRelease{Buffer: info.Buffer}
		c.call(wire.MsgBufferRelease, rel.Encode())
		return nil, err
	}
	b := &RemoteBuffer{c: c, id: info.Buffer, size: info.Size, shm: shm}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		shm.Close()
		return nil, ErrClientClosed
	}
	c.bufs[b] = struct{}{}
	c.mu.Unlock()
	return b, nil
}

// Size returns the buffer size in bytes.
func (b *RemoteBuffer) Size() int64 { return b.size }

// Bytes exposes the raw shared mapping — writes through it are
// immediately visible to kernels in the daemon (and vice versa), with
// no transfer at all. The caller owns the consistency story: don't
// touch ranges a running kernel is using, and never after Release.
func (b *RemoteBuffer) Bytes() []byte {
	b.mapMu.RLock()
	defer b.mapMu.RUnlock()
	if b.released {
		return nil
	}
	return b.shm.Bytes
}

func (b *RemoteBuffer) unmap() {
	b.mapMu.Lock()
	defer b.mapMu.Unlock()
	if !b.released {
		b.released = true
		b.shm.Close()
	}
}

// Release drops the buffer on both sides of the boundary. In-flight
// commands that pinned it complete first (server-side refcounts); new
// commands fail with opencl.ErrBufferReleased.
func (b *RemoteBuffer) Release() {
	b.c.mu.Lock()
	if b.c.bufs != nil {
		delete(b.c.bufs, b)
	}
	b.c.mu.Unlock()
	b.unmap()
	m := wire.BufferRelease{Buffer: b.id}
	b.c.call(wire.MsgBufferRelease, m.Encode())
}

// enqueueEvent registers a mirror event for an enqueue under a fresh
// request id. Caller sends the frame with the returned id.
func (c *Client) enqueueEvent(onDone func()) (uint64, *opencl.Event, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return 0, nil, c.callErr
	}
	c.nextReq++
	req := c.nextReq
	ev := opencl.NewUserEvent()
	c.events[req] = &pendingEvent{ev: ev, onDone: onDone}
	c.evIDs[ev] = req
	c.group.Add(ev)
	return req, ev, nil
}

// dropEvent unregisters a mirror whose frame never went out.
func (c *Client) dropEvent(req uint64) {
	c.mu.Lock()
	pe := c.events[req]
	if pe != nil {
		delete(c.events, req)
		delete(c.evIDs, pe.ev)
	}
	c.mu.Unlock()
}

// waitIDs maps wait-list events to daemon-side event ids. Terminal
// successes are pruned (the daemon already saw them complete);
// terminal failures short-circuit with the dependency's error; a live
// event this client didn't produce cannot be ordered inside the daemon
// and is rejected.
func (c *Client) waitIDs(waits []*opencl.Event) ([]uint64, error) {
	var ids []uint64
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range waits {
		if w == nil {
			continue
		}
		if id, ok := c.evIDs[w]; ok {
			ids = append(ids, id)
			continue
		}
		if w.Status().Terminal() {
			if err := w.Err(); err != nil {
				return nil, err
			}
			continue // already complete: nothing to order
		}
		return nil, errors.New("service: wait event was not produced by this client")
	}
	return ids, nil
}

// EnqueueKernelAsync launches a kernel in the daemon and returns its
// mirror event immediately; the launch starts once every wait-list
// event completes, and a failed dependency fails the event instead.
func (c *Client) EnqueueKernelAsync(k *RemoteKernel, nd opencl.NDRange, waits ...*opencl.Event) (*opencl.Event, error) {
	if err := nd.Validate(); err != nil {
		return nil, err
	}
	args, err := k.snapshot()
	if err != nil {
		return nil, err
	}
	ids, depErr := c.waitIDs(waits)
	req, ev, err := c.enqueueEvent(nil)
	if err != nil {
		return nil, err
	}
	if depErr != nil {
		// A dependency already failed: mirror the in-process semantics
		// (the event fails; the enqueue itself succeeds) without
		// bothering the daemon.
		c.dropEvent(req)
		ev.Fail(depErr)
		return ev, nil
	}
	m := wire.EnqueueKernel{
		Kernel: k.id,
		Dims:   uint8(nd.Dims),
		Global: nd.Global,
		Local:  nd.Local,
		Args:   args,
		Waits:  ids,
	}
	if err := c.send(wire.MsgEnqueueKernel, req, m.Encode()); err != nil {
		return nil, err // shutdown already failed the mirror
	}
	return ev, nil
}

// EnqueueKernel launches and waits — the blocking wrapper.
func (c *Client) EnqueueKernel(k *RemoteKernel, nd opencl.NDRange) error {
	ev, err := c.EnqueueKernelAsync(k, nd)
	if err != nil {
		return err
	}
	return c.waitEvent(ev)
}

// WriteAsync schedules a host→buffer transfer and returns its mirror
// event. The bytes move with a single local copy into the shared
// mapping — nothing crosses the socket but the completion signal. The
// copy happens once the wait list resolves, so waits may be any events
// (they gate client-side); data must stay untouched until the event
// completes.
func (b *RemoteBuffer) WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	c := b.c
	if off < 0 || off+int64(len(data)) > b.size {
		return nil, fmt.Errorf("service: write [%d,%d) outside buffer of %d bytes", off, off+int64(len(data)), b.size)
	}
	req, ev, err := c.enqueueEvent(nil)
	if err != nil {
		return nil, err
	}
	// Announce the transfer first so later enqueues can name it in
	// wait lists; the daemon's event completes only on our CopyDone.
	m := wire.EnqueueCopy{Dir: wire.CopyWrite, Buffer: b.id, Off: off, N: int64(len(data))}
	if err := c.send(wire.MsgEnqueueCopy, req, m.Encode()); err != nil {
		return nil, err
	}
	opencl.WhenAll(waits, func(depErr error) {
		st := wire.Status{Code: wire.CodeOK}
		switch {
		case depErr != nil:
			st = wire.Status{Code: wire.CodeOf(depErr), Msg: depErr.Error()}
		case !b.copyIn(off, data):
			st = wire.Status{Code: wire.CodeBufferReleased, Msg: "service: buffer released before write landed"}
		}
		c.send(wire.MsgCopyDone, req, st.Encode())
	})
	return ev, nil
}

// copyIn lands bytes in the mapping unless it is gone.
func (b *RemoteBuffer) copyIn(off int64, data []byte) bool {
	b.mapMu.RLock()
	defer b.mapMu.RUnlock()
	if b.released {
		return false
	}
	copy(b.shm.Bytes[off:], data)
	return true
}

// copyOut reads bytes from the mapping unless it is gone.
func (b *RemoteBuffer) copyOut(off int64, out []byte) bool {
	b.mapMu.RLock()
	defer b.mapMu.RUnlock()
	if b.released {
		return false
	}
	copy(out, b.shm.Bytes[off:int(off)+len(out)])
	return true
}

// ReadAsync schedules a buffer→host transfer: the daemon signals once
// the wait list (the producing kernels) resolves, and the bytes are
// copied out of the shared mapping into out when the signal lands.
func (b *RemoteBuffer) ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error) {
	c := b.c
	if off < 0 || off+int64(len(out)) > b.size {
		return nil, fmt.Errorf("service: read [%d,%d) outside buffer of %d bytes", off, off+int64(len(out)), b.size)
	}
	ids, depErr := c.waitIDs(waits)
	req, ev, err := c.enqueueEvent(func() {
		if !b.copyOut(off, out) {
			// Mapping died between the daemon's signal and the copy;
			// the event still completes — matching a released buffer's
			// in-flight read, whose failure the daemon reports itself.
		}
	})
	if err != nil {
		return nil, err
	}
	if depErr != nil {
		c.dropEvent(req)
		ev.Fail(depErr)
		return ev, nil
	}
	m := wire.EnqueueCopy{Dir: wire.CopyRead, Buffer: b.id, Off: off, N: int64(len(out)), Waits: ids}
	if err := c.send(wire.MsgEnqueueCopy, req, m.Encode()); err != nil {
		return nil, err
	}
	return ev, nil
}

// Write copies host bytes into the buffer, blocking until complete.
func (b *RemoteBuffer) Write(off int64, data []byte) error {
	ev, err := b.WriteAsync(off, data)
	if err != nil {
		return err
	}
	return b.c.waitEvent(ev)
}

// Read copies buffer bytes back to the host, blocking until complete.
func (b *RemoteBuffer) Read(off int64, out []byte) error {
	ev, err := b.ReadAsync(off, out)
	if err != nil {
		return err
	}
	return b.c.waitEvent(ev)
}
