// Package service is the out-of-process accelOS boundary: a daemon
// (Server, wrapped by cmd/acceld) hosting one accelos.Runtime behind a
// unix socket, and a client shim (Dial) exposing the same ProxyCL
// surface as accelos.App to other processes.
//
// The transport is the internal/wire protocol. Each accepted connection
// registers as one tenant App; enqueues map onto the runtime's async
// event machinery and are answered out of order — one MsgEventDone per
// enqueue when its event turns terminal. Buffers are backed by
// shared-memory segments created server-side and mmap'd by the client,
// so buffer bytes never ride the socket: kernel launches bind the
// client's own pages (interp.Machine.BindRegion) and "transfers" are
// pure event signaling.
//
// The server defends itself the way the paper's daemon must: a
// handshake deadline and per-frame write deadlines evict slow or
// hostile clients, a per-connection in-flight window applies
// backpressure, per-tenant token buckets rate-limit enqueues before
// they reach the admission controller, and a dropped connection
// releases the tenant's buffers — cancelling its in-flight launches at
// their next slice boundary.
package service

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Options tunes a Server. The zero value serves: open auth, a 1024-deep
// in-flight window, no rate limit, 10s handshake and write deadlines.
type Options struct {
	// Auth maps tenant name → token. nil admits any tenant (the
	// paper's single-user workstation mode); non-nil rejects unknown
	// tenants and wrong tokens at the handshake.
	Auth map[string]string

	// MaxInflight bounds each connection's unanswered enqueues. Above
	// it, enqueues fail immediately with CodeBackpressure instead of
	// queueing unboundedly inside the daemon.
	MaxInflight int

	// RatePerSec, when positive, token-bucket rate-limits each tenant's
	// enqueues across all of its connections. Burst is the bucket
	// depth (defaults to max(1, RatePerSec)).
	RatePerSec float64
	Burst      int

	// HandshakeTimeout bounds how long a fresh connection may sit
	// before completing the hello exchange; WriteTimeout bounds every
	// reply frame. Exceeding either evicts the connection.
	HandshakeTimeout time.Duration
	WriteTimeout     time.Duration

	// ShmDir is where buffer segments are created (os.TempDir() when
	// empty). It must be on a filesystem that supports shared mappings.
	ShmDir string

	// Metrics, when set, receives the daemon's per-tenant counters and
	// request latencies.
	Metrics *telemetry.Registry
}

func (o *Options) withDefaults() Options {
	v := *o
	if v.MaxInflight <= 0 {
		v.MaxInflight = 1024
	}
	if v.HandshakeTimeout <= 0 {
		v.HandshakeTimeout = 10 * time.Second
	}
	if v.WriteTimeout <= 0 {
		v.WriteTimeout = 10 * time.Second
	}
	if v.Burst <= 0 {
		v.Burst = int(v.RatePerSec)
		if v.Burst < 1 {
			v.Burst = 1
		}
	}
	return v
}

// Server multiplexes wire-protocol clients onto one accelos.Runtime.
type Server struct {
	rt   *accelos.Runtime
	opts Options

	mu      sync.Mutex
	ln      net.Listener
	conns   map[*conn]struct{}
	buckets map[string]*bucket
	closed  bool
	wg      sync.WaitGroup
}

// NewServer wraps a runtime in a wire-protocol daemon.
func NewServer(rt *accelos.Runtime, opts Options) *Server {
	return &Server{
		rt:      rt,
		opts:    opts.withDefaults(),
		conns:   make(map[*conn]struct{}),
		buckets: make(map[string]*bucket),
	}
}

// Start listens on a unix socket at path (replacing a stale socket
// file) and serves in the background until Close.
func (s *Server) Start(path string) error {
	if st, err := os.Stat(path); err == nil && st.Mode()&os.ModeSocket != 0 {
		os.Remove(path)
	}
	ln, err := net.Listen("unix", path)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("service: server closed")
	}
	s.ln = ln
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.serve(ln)
	}()
	return nil
}

func (s *Server) serve(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := &conn{
			s:      s,
			nc:     nc,
			br:     bufio.NewReaderSize(nc, frameReadBuf),
			progs:  make(map[uint64]*accelos.Program),
			kerns:  make(map[uint64]*accelos.KernelHandle),
			bufs:   make(map[uint64]*accelos.BufferHandle),
			events: make(map[uint64]*opencl.Event),
			manual: make(map[uint64]*opencl.Event),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
}

// NumConns reports admitted, not-yet-torn-down connections.
func (s *Server) NumConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close stops accepting, evicts every connection (releasing its
// buffers and cancelling its in-flight launches), and waits for the
// connection goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.nc.Close() // unblocks the read loop; its deferred teardown cleans up
	}
	s.wg.Wait()
	return nil
}

func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// allow spends one token from the tenant's bucket.
func (s *Server) allow(tenant string) bool {
	if s.opts.RatePerSec <= 0 {
		return true
	}
	s.mu.Lock()
	b := s.buckets[tenant]
	if b == nil {
		b = &bucket{tokens: float64(s.opts.Burst), last: time.Now()}
		s.buckets[tenant] = b
	}
	s.mu.Unlock()
	return b.take(s.opts.RatePerSec, float64(s.opts.Burst))
}

type bucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (b *bucket) take(rate, burst float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * rate
	b.last = now
	if b.tokens > burst {
		b.tokens = burst
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

func (s *Server) counter(name, tenant string, extra ...telemetry.Label) *telemetry.Counter {
	if s.opts.Metrics == nil {
		return nil
	}
	labels := append([]telemetry.Label{telemetry.L("tenant", tenant)}, extra...)
	return s.opts.Metrics.Counter(name, labels...)
}

// frameReadBuf sizes the per-connection read buffer on both ends: small
// control frames (the steady state) fit whole; a larger body bypasses
// the buffer and is read straight into the frame.
const frameReadBuf = 4096

// conn is one client connection = one tenant App.
type conn struct {
	s  *Server
	nc net.Conn
	// br is the one reader of nc, for the handshake and the loop alike:
	// a frame's length prefix and body then cost one read syscall, not
	// two, and bytes buffered past the hello are not stranded.
	br     *bufio.Reader
	tenant string
	app    *accelos.App

	wmu sync.Mutex // serializes reply frames

	mu       sync.Mutex
	torndown bool
	nextObj  uint64
	inflight int
	progs    map[uint64]*accelos.Program
	kerns    map[uint64]*accelos.KernelHandle
	bufs     map[uint64]*accelos.BufferHandle
	// events holds every enqueue's event keyed by its request id, so
	// later enqueues can wait on it. Entries live for the connection:
	// clients prune terminal waits locally, so steady-state wait lists
	// only name live events.
	events map[uint64]*opencl.Event
	// manual holds write-transfer events the CLIENT completes (via
	// MsgCopyDone once its bytes landed in the mapping). Teardown must
	// fail these — a dead client will never signal them.
	manual map[uint64]*opencl.Event
}

func (c *conn) serve() {
	defer c.teardown()
	if !c.handshake() {
		return
	}
	for {
		f, err := wire.ReadFrame(c.br)
		if err != nil {
			return
		}
		if err := c.dispatch(f); err != nil {
			// Protocol violation: drop the connection.
			c.countEviction("protocol")
			return
		}
	}
}

// handshake runs the versioned hello exchange under its own deadline
// and registers the tenant App. It reports whether the connection was
// admitted; rejected connections get a Welcome explaining why.
func (c *conn) handshake() bool {
	s := c.s
	c.nc.SetReadDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	f, err := wire.ReadFrame(c.br)
	if err != nil {
		c.countEviction("handshake-timeout")
		return false
	}
	var hello wire.Hello
	if f.Type != wire.MsgHello || hello.Decode(f.Body) != nil {
		c.reject(f.Req, wire.CodeBadHandshake, "first frame must be a hello")
		return false
	}
	if hello.Version != wire.Version {
		c.reject(f.Req, wire.CodeBadHandshake,
			fmt.Sprintf("protocol version %d, server speaks %d", hello.Version, wire.Version))
		return false
	}
	if s.opts.Auth != nil {
		tok, ok := s.opts.Auth[hello.Tenant]
		if !ok || tok != hello.Token {
			c.reject(f.Req, wire.CodeUnknownTenant, fmt.Sprintf("tenant %q", hello.Tenant))
			return false
		}
	}
	c.nc.SetReadDeadline(time.Time{})
	c.tenant = hello.Tenant
	c.app = s.rt.Connect(hello.Tenant)
	if ctr := s.counter("service_connections_total", c.tenant); ctr != nil {
		ctr.Inc()
	}
	w := wire.Welcome{Code: wire.CodeOK, Version: wire.Version}
	return c.writeFrame(wire.MsgWelcome, f.Req, w.Encode()) == nil
}

// reject answers a failed handshake and counts it.
func (c *conn) reject(req uint64, code wire.Code, msg string) {
	if ctr := c.s.counter("service_rejections_total", c.tenant,
		telemetry.L("reason", code.String())); ctr != nil {
		ctr.Inc()
	}
	w := wire.Welcome{Code: code, Msg: msg, Version: wire.Version}
	c.writeFrame(wire.MsgWelcome, req, w.Encode())
}

// teardown is the mid-launch-disconnect path: fail the events only the
// client could complete, close the tenant App — which releases every
// buffer it still holds and cancels its in-flight launches at their
// next slice boundary — and drain the cancelled tail so the runtime is
// clean before the connection is forgotten.
func (c *conn) teardown() {
	c.mu.Lock()
	if c.torndown {
		c.mu.Unlock()
		return
	}
	c.torndown = true
	manual := make([]*opencl.Event, 0, len(c.manual))
	for _, ev := range c.manual {
		manual = append(manual, ev)
	}
	c.manual = nil
	c.mu.Unlock()

	c.nc.Close()
	for _, ev := range manual {
		ev.Fail(fmt.Errorf("service: client disconnected before completing transfer: %w", accelos.ErrAppClosed))
	}
	if c.app != nil {
		c.app.Close()
		c.app.Finish()
		if ctr := c.s.counter("service_disconnects_total", c.tenant); ctr != nil {
			ctr.Inc()
		}
	}
	c.s.dropConn(c)
}

// writeFrame sends one reply under the write deadline; a slow client
// whose socket buffer stays full past the deadline is evicted.
func (c *conn) writeFrame(t wire.MsgType, req uint64, body []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.WriteTimeout))
	err := wire.WriteFrame(c.nc, t, req, body)
	if err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.countEviction("write-timeout")
		}
		c.nc.Close() // read loop unblocks; teardown runs there
	}
	return err
}

func (c *conn) countEviction(reason string) {
	if ctr := c.s.counter("service_evictions_total", c.tenant,
		telemetry.L("reason", reason)); ctr != nil {
		ctr.Inc()
	}
}

func (c *conn) countRequest(op string) {
	if ctr := c.s.counter("service_requests_total", c.tenant,
		telemetry.L("op", op)); ctr != nil {
		ctr.Inc()
	}
}

// replyErr answers a synchronous request with a typed error code.
func (c *conn) replyErr(req uint64, err error) {
	st := wire.Status{Code: wire.CodeOf(err), Msg: err.Error()}
	c.writeFrame(wire.MsgError, req, st.Encode())
}

// eventDone reports an enqueue's terminal state. An enqueue rejected
// before an event existed (backpressure, rate limit, unknown ids)
// reports through the same frame, so the client surface stays uniform:
// every enqueue gets exactly one MsgEventDone.
func (c *conn) eventDone(req uint64, err error) {
	var st wire.Status
	if err != nil {
		st = wire.Status{Code: wire.CodeOf(err), Msg: err.Error()}
	}
	c.writeFrame(wire.MsgEventDone, req, st.Encode())
}

func (c *conn) dispatch(f wire.Frame) error {
	switch f.Type {
	case wire.MsgProgramCreate:
		var m wire.ProgramCreate
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		// Compilation is slow: handle off the read loop so the
		// connection stays responsive (and replies go out of order).
		go c.handleProgramCreate(f.Req, m.Source)
		return nil
	case wire.MsgBufferCreate:
		var m wire.BufferCreate
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		// Allocation may pause (memory oversubscription): also async.
		go c.handleBufferCreate(f.Req, m.Size)
		return nil
	case wire.MsgKernelCreate:
		var m wire.KernelCreate
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		c.handleKernelCreate(f.Req, m)
		return nil
	case wire.MsgBufferRelease:
		var m wire.BufferRelease
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		c.handleBufferRelease(f.Req, m)
		return nil
	case wire.MsgEnqueueKernel:
		var m wire.EnqueueKernel
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		c.handleEnqueueKernel(f.Req, m)
		return nil
	case wire.MsgEnqueueCopy:
		var m wire.EnqueueCopy
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		c.handleEnqueueCopy(f.Req, m)
		return nil
	case wire.MsgCopyDone:
		var st wire.Status
		if err := st.Decode(f.Body); err != nil {
			return err
		}
		c.handleCopyDone(f.Req, st)
		return nil
	}
	return fmt.Errorf("service: unexpected frame %v", f.Type)
}

func (c *conn) handleProgramCreate(req uint64, src string) {
	c.countRequest("program-create")
	p, err := c.app.CreateProgram(src)
	if err != nil {
		c.replyErr(req, err)
		return
	}
	c.mu.Lock()
	if c.torndown {
		c.mu.Unlock()
		return
	}
	c.nextObj++
	id := c.nextObj
	c.progs[id] = p
	c.mu.Unlock()
	m := wire.ProgramInfo{Prog: id}
	c.writeFrame(wire.MsgProgramInfo, req, m.Encode())
}

func (c *conn) handleBufferCreate(req uint64, size int64) {
	c.countRequest("buffer-create")
	shm, err := wire.CreateShm(c.s.opts.ShmDir, size)
	if err != nil {
		c.replyErr(req, err)
		return
	}
	// The segment's mapping IS the buffer's device backing; it is
	// unmapped and unlinked only once the buffer is truly dead (after
	// release, once the last in-flight command unpinned it).
	h, err := c.app.CreateBufferBacked(shm.Bytes, func() { shm.Close() })
	if err != nil {
		shm.Close()
		c.replyErr(req, err)
		return
	}
	c.mu.Lock()
	if c.torndown {
		// App.Close ran concurrently... but begin/end means
		// CreateBufferBacked either failed above or registered the
		// handle with the app before Close, in which case Close
		// released it. Either way just drop the reply.
		c.mu.Unlock()
		return
	}
	c.nextObj++
	id := c.nextObj
	c.bufs[id] = h
	c.mu.Unlock()
	m := wire.BufferInfo{Buffer: id, Path: shm.Path, Size: size}
	c.writeFrame(wire.MsgBufferInfo, req, m.Encode())
}

func (c *conn) handleKernelCreate(req uint64, m wire.KernelCreate) {
	c.countRequest("kernel-create")
	c.mu.Lock()
	p := c.progs[m.Prog]
	c.mu.Unlock()
	if p == nil {
		c.replyErr(req, fmt.Errorf("program %d: %w", m.Prog, wire.ErrNotFound))
		return
	}
	k, err := p.CreateKernel(m.Name)
	if err != nil {
		c.replyErr(req, fmt.Errorf("%w: %v", wire.ErrBadRequest, err))
		return
	}
	c.mu.Lock()
	c.nextObj++
	id := c.nextObj
	c.kerns[id] = k
	numArgs := k.NumArgs()
	c.mu.Unlock()
	info := wire.KernelInfo{Kernel: id, NumArgs: uint32(numArgs)}
	c.writeFrame(wire.MsgKernelInfo, req, info.Encode())
}

func (c *conn) handleBufferRelease(req uint64, m wire.BufferRelease) {
	c.countRequest("buffer-release")
	c.mu.Lock()
	b := c.bufs[m.Buffer]
	c.mu.Unlock()
	if b == nil {
		c.replyErr(req, fmt.Errorf("buffer %d: %w", m.Buffer, wire.ErrNotFound))
		return
	}
	b.Release()
	c.writeFrame(wire.MsgAck, req, nil)
}

// admitEnqueue applies the per-connection backpressure window and the
// per-tenant rate limit, reserving an in-flight slot on success.
func (c *conn) admitEnqueue(req uint64) bool {
	c.mu.Lock()
	if c.inflight >= c.s.opts.MaxInflight {
		c.mu.Unlock()
		c.countRejection(wire.ErrBackpressure)
		c.eventDone(req, fmt.Errorf("%w (window %d)", wire.ErrBackpressure, c.s.opts.MaxInflight))
		return false
	}
	c.inflight++
	c.mu.Unlock()
	if !c.s.allow(c.tenant) {
		c.releaseSlot()
		c.countRejection(wire.ErrRateLimited)
		c.eventDone(req, fmt.Errorf("%w (%.3g/s)", wire.ErrRateLimited, c.s.opts.RatePerSec))
		return false
	}
	return true
}

func (c *conn) releaseSlot() {
	c.mu.Lock()
	c.inflight--
	c.mu.Unlock()
}

func (c *conn) countRejection(sentinel error) {
	if ctr := c.s.counter("service_rejections_total", c.tenant,
		telemetry.L("reason", wire.CodeOf(sentinel).String())); ctr != nil {
		ctr.Inc()
	}
}

// resolveWaits maps client wait ids to server-side events.
func (c *conn) resolveWaits(ids []uint64) ([]*opencl.Event, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	waits := make([]*opencl.Event, 0, len(ids))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		ev := c.events[id]
		if ev == nil {
			return nil, fmt.Errorf("wait event %d: %w", id, wire.ErrNotFound)
		}
		waits = append(waits, ev)
	}
	return waits, nil
}

// registerEvent files an enqueue's event under its request id and
// arranges the MsgEventDone reply (and the in-flight slot release) on
// completion.
func (c *conn) registerEvent(req uint64, ev *opencl.Event, op string, start time.Time) {
	c.mu.Lock()
	c.events[req] = ev
	c.mu.Unlock()
	ev.OnComplete(func(e *opencl.Event) {
		c.releaseSlot()
		if m := c.s.opts.Metrics; m != nil {
			m.Histogram("service_request_ns", telemetry.L("tenant", c.tenant),
				telemetry.L("op", op)).Observe(time.Since(start).Nanoseconds())
		}
		c.eventDone(req, e.Err())
	})
}

func (c *conn) handleEnqueueKernel(req uint64, m wire.EnqueueKernel) {
	start := time.Now()
	c.countRequest("enqueue-kernel")
	if !c.admitEnqueue(req) {
		return
	}
	c.mu.Lock()
	k := c.kerns[m.Kernel]
	c.mu.Unlock()
	if k == nil {
		c.releaseSlot()
		c.eventDone(req, fmt.Errorf("kernel %d: %w", m.Kernel, wire.ErrNotFound))
		return
	}
	waits, err := c.resolveWaits(m.Waits)
	if err == nil {
		err = c.bindArgs(k, m.Args)
	}
	if err != nil {
		c.releaseSlot()
		c.eventDone(req, err)
		return
	}
	nd := opencl.NDRange{Dims: int(m.Dims), Global: m.Global, Local: m.Local}
	ev, err := c.app.EnqueueKernelAsync(k, nd, waits...)
	if err != nil {
		c.releaseSlot()
		c.eventDone(req, err)
		return
	}
	c.registerEvent(req, ev, "enqueue-kernel", start)
}

// bindArgs applies a launch's argument bindings to the kernel handle.
// Enqueues are handled on the read loop, so the handle is never bound
// concurrently; EnqueueKernelAsync snapshots the bindings.
func (c *conn) bindArgs(k *accelos.KernelHandle, args []wire.KernelArg) error {
	for i, a := range args {
		var err error
		switch a.Kind {
		case wire.ArgBuffer:
			c.mu.Lock()
			b := c.bufs[a.Buffer]
			c.mu.Unlock()
			if b == nil {
				return fmt.Errorf("arg %d: buffer %d: %w", i, a.Buffer, wire.ErrNotFound)
			}
			err = k.SetArgBuffer(i, b)
		case wire.ArgI32:
			err = k.SetArgInt32(i, int32(a.I64))
		case wire.ArgI64:
			err = k.SetArgInt64(i, a.I64)
		case wire.ArgF32:
			err = k.SetArgFloat32(i, a.F32)
		case wire.ArgLocal:
			err = k.SetArgLocal(i, a.I64)
		default:
			err = fmt.Errorf("arg %d: unknown kind %d", i, a.Kind)
		}
		if err != nil {
			return fmt.Errorf("%w: %v", wire.ErrBadRequest, err)
		}
	}
	return nil
}

func (c *conn) handleEnqueueCopy(req uint64, m wire.EnqueueCopy) {
	start := time.Now()
	op := "enqueue-write"
	if m.Dir == wire.CopyRead {
		op = "enqueue-read"
	}
	c.countRequest(op)
	if !c.admitEnqueue(req) {
		return
	}
	c.mu.Lock()
	b := c.bufs[m.Buffer]
	c.mu.Unlock()
	switch {
	case b == nil:
		c.releaseSlot()
		c.eventDone(req, fmt.Errorf("buffer %d: %w", m.Buffer, wire.ErrNotFound))
		return
	case b.Released():
		c.releaseSlot()
		c.eventDone(req, fmt.Errorf("buffer %d: %w", m.Buffer, opencl.ErrBufferReleased))
		return
	case m.Off < 0 || m.N < 0 || m.Off+m.N > b.Size:
		c.releaseSlot()
		c.eventDone(req, fmt.Errorf("%w: copy [%d,%d) outside buffer of %d bytes",
			wire.ErrBadRequest, m.Off, m.Off+m.N, b.Size))
		return
	}
	if mtr := c.s.opts.Metrics; mtr != nil {
		mtr.Counter("service_shm_bytes_total", telemetry.L("tenant", c.tenant),
			telemetry.L("op", op)).Add(m.N)
	}
	switch m.Dir {
	case wire.CopyWrite:
		// The client copies into the shared mapping once its own
		// dependencies resolve, then signals MsgCopyDone; nothing to
		// order server-side. The event exists so later enqueues can
		// wait on the transfer.
		ev, err := c.app.NewControlledEvent()
		if err != nil {
			c.releaseSlot()
			c.eventDone(req, err)
			return
		}
		c.mu.Lock()
		c.manual[req] = ev
		c.mu.Unlock()
		c.registerEvent(req, ev, op, start)
	case wire.CopyRead:
		// The event completes when the server-side dependencies (the
		// kernels producing the data) do; the client copies out of the
		// mapping when MsgEventDone lands.
		waits, err := c.resolveWaits(m.Waits)
		if err != nil {
			c.releaseSlot()
			c.eventDone(req, err)
			return
		}
		ev, err := c.app.NewControlledEvent()
		if err != nil {
			c.releaseSlot()
			c.eventDone(req, err)
			return
		}
		c.registerEvent(req, ev, op, start)
		opencl.WhenAll(waits, func(err error) {
			if err != nil {
				ev.Fail(err)
				return
			}
			ev.Complete()
		})
	default:
		c.releaseSlot()
		c.eventDone(req, fmt.Errorf("%w: unknown copy direction %d", wire.ErrBadRequest, m.Dir))
	}
}

func (c *conn) handleCopyDone(req uint64, st wire.Status) {
	c.mu.Lock()
	ev := c.manual[req]
	delete(c.manual, req)
	c.mu.Unlock()
	if ev == nil {
		return // unknown or already torn down; EventDone already went out
	}
	if st.Code == wire.CodeOK {
		ev.Complete()
	} else {
		ev.Fail(st.Code.Err(st.Msg))
	}
}
