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
			br:     getReader(nc),
			progs:  make(map[uint64]*accelos.Program),
			kerns:  make(map[uint64]*accelos.KernelHandle),
			bufs:   make(map[uint64]*accelos.BufferHandle),
			reqs:   make(map[uint64]enqueued),
			failed: make(map[uint64]error),
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

// frameReadBuf sizes the per-connection read buffer on both ends: small
// control frames (the steady state) fit whole; a larger body bypasses
// the buffer and is read straight into the frame.
const frameReadBuf = 4096

// readers recycles the per-connection read buffers: a session that
// dials, makes a few calls and closes would otherwise leave two of
// them to the collector.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, frameReadBuf) }}

func getReader(nc net.Conn) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(nc)
	return br
}

// putReader returns a reader whose connection nothing reads any more.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}

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
	progs    map[uint64]*accelos.Program
	kerns    map[uint64]*accelos.KernelHandle
	bufs     map[uint64]*accelos.BufferHandle
	// reqs holds each enqueue while it is in flight, keyed by its
	// request id, so its size is the MaxInflight window. Only the read
	// loop inserts; the callback that sends MsgEventDone removes.
	reqs map[uint64]enqueued
	// failed keeps the cause of each failed or refused enqueue, for
	// later waits that name it: the one per-request state that grows
	// with the connection. lastReq is the highest enqueue id seen.
	failed  map[uint64]error
	lastReq uint64
}

// enqueued is one enqueue awaiting its terminal state. clientDone marks
// a write copy, which only the client's MsgCopyDone completes.
type enqueued struct {
	ev         *opencl.Event
	clientDone bool
}

func (c *conn) serve() {
	defer c.teardown()
	defer putReader(c.br)
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
			c.inc("service_evictions_total", telemetry.L("reason", "protocol"))
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
		c.inc("service_evictions_total", telemetry.L("reason", "handshake-timeout"))
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
	c.inc("service_connections_total")
	w := wire.Welcome{Code: wire.CodeOK, Version: wire.Version}
	return c.writeFrame(wire.MsgWelcome, f.Req, w.Encode()) == nil
}

// reject answers a failed handshake and counts it.
func (c *conn) reject(req uint64, code wire.Code, msg string) {
	c.inc("service_rejections_total", telemetry.L("reason", code.String()))
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
	var writes []*opencl.Event
	for _, r := range c.reqs {
		if r.clientDone {
			writes = append(writes, r.ev)
		}
	}
	c.mu.Unlock()

	c.nc.Close()
	for _, ev := range writes {
		ev.Fail(fmt.Errorf("service: client disconnected before completing transfer: %w", accelos.ErrAppClosed))
	}
	if c.app != nil {
		c.app.Close()
		c.app.Finish()
		c.inc("service_disconnects_total")
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
			c.inc("service_evictions_total", telemetry.L("reason", "write-timeout"))
		}
		c.nc.Close() // read loop unblocks; teardown runs there
	}
	return err
}

// inc adds one to a per-tenant counter when the server has metrics.
func (c *conn) inc(name string, labels ...telemetry.Label) {
	if m := c.s.opts.Metrics; m != nil {
		m.Counter(name, append([]telemetry.Label{telemetry.L("tenant", c.tenant)}, labels...)...).Inc()
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
		c.enqueue(f.Req, "enqueue-kernel", false, func() (*opencl.Event, error) { return c.launch(m) })
		return nil
	case wire.MsgEnqueueCopy:
		var m wire.EnqueueCopy
		if err := m.Decode(f.Body); err != nil {
			return err
		}
		op := "enqueue-write"
		if m.Dir == wire.CopyRead {
			op = "enqueue-read"
		}
		c.enqueue(f.Req, op, m.Dir == wire.CopyWrite, func() (*opencl.Event, error) { return c.copyEvent(op, m) })
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
	c.inc("service_requests_total", telemetry.L("op", "program-create"))
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
	c.inc("service_requests_total", telemetry.L("op", "buffer-create"))
	// The segment's mapping IS the buffer's device backing. It is made
	// only once the runtime admitted the size, and unmapped and unlinked
	// only once the buffer is truly dead (after release, once the last
	// in-flight command unpinned it).
	var shm *wire.Shm
	h, err := c.app.CreateBufferBacked(size, func() ([]byte, error) {
		s, err := wire.CreateShm(c.s.opts.ShmDir, size)
		if err != nil {
			return nil, err
		}
		shm = s
		return s.Bytes, nil
	}, func() { shm.Close() })
	if err != nil {
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
	c.inc("service_requests_total", telemetry.L("op", "kernel-create"))
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
	c.inc("service_requests_total", telemetry.L("op", "buffer-release"))
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

// enqueue is every enqueue's one path: count it, admit it, build its
// event and keep it in reqs until the event is terminal — or refuse it,
// keeping the cause in failed. Either way one MsgEventDone answers req.
func (c *conn) enqueue(req uint64, op string, clientDone bool, build func() (*opencl.Event, error)) {
	start := time.Now()
	c.inc("service_requests_total", telemetry.L("op", op))
	ev, err := c.admit(req, build)
	c.mu.Lock()
	c.lastReq = max(c.lastReq, req)
	if err != nil {
		c.failed[req] = err
		c.mu.Unlock()
		c.eventDone(req, err)
		return
	}
	c.reqs[req] = enqueued{ev: ev, clientDone: clientDone}
	c.mu.Unlock()
	ev.OnComplete(func(e *opencl.Event) {
		err := e.Err()
		c.mu.Lock()
		delete(c.reqs, req)
		if err != nil {
			c.failed[req] = err
		}
		c.mu.Unlock()
		if m := c.s.opts.Metrics; m != nil {
			m.Histogram("service_request_ns", telemetry.L("tenant", c.tenant),
				telemetry.L("op", op)).Observe(time.Since(start).Nanoseconds())
		}
		c.eventDone(req, err)
	})
}

// admit applies the in-flight window and the tenant's rate limit, then
// builds the enqueue's event. Only the read loop inserts into reqs, so
// the window cannot fill between this check and enqueue's insert.
func (c *conn) admit(req uint64, build func() (*opencl.Event, error)) (*opencl.Event, error) {
	c.mu.Lock()
	_, dup := c.reqs[req]
	full := len(c.reqs) >= c.s.opts.MaxInflight
	c.mu.Unlock()
	switch {
	case dup:
		return nil, fmt.Errorf("%w: request %d is already in flight", wire.ErrBadRequest, req)
	case full:
		c.inc("service_rejections_total", telemetry.L("reason", wire.CodeBackpressure.String()))
		return nil, fmt.Errorf("%w (window %d)", wire.ErrBackpressure, c.s.opts.MaxInflight)
	case !c.s.allow(c.tenant):
		c.inc("service_rejections_total", telemetry.L("reason", wire.CodeRateLimited.String()))
		return nil, fmt.Errorf("%w (%.3g/s)", wire.ErrRateLimited, c.s.opts.RatePerSec)
	}
	return build()
}

// resolveWaits maps client wait ids to the events they order after. An
// id in flight resolves to its event. A failed or refused one fails the
// dependent as the runtime fails a command whose dependency failed, the
// cause wrapped so its wire code survives. Any other id up to the
// highest enqueue seen completed successfully and drops out; the
// client may name one whose MsgEventDone is still on its way back.
func (c *conn) resolveWaits(ids []uint64) ([]*opencl.Event, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	waits := make([]*opencl.Event, 0, len(ids))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if r, ok := c.reqs[id]; ok {
			waits = append(waits, r.ev)
		} else if err := c.failed[id]; err != nil {
			return nil, fmt.Errorf("wait event %d: wait-list dependency failed: %w", id, err)
		} else if id > c.lastReq {
			return nil, fmt.Errorf("wait event %d: %w", id, wire.ErrNotFound)
		}
	}
	return waits, nil
}

// launch builds a kernel enqueue's event.
func (c *conn) launch(m wire.EnqueueKernel) (*opencl.Event, error) {
	c.mu.Lock()
	k := c.kerns[m.Kernel]
	c.mu.Unlock()
	if k == nil {
		return nil, fmt.Errorf("kernel %d: %w", m.Kernel, wire.ErrNotFound)
	}
	waits, err := c.resolveWaits(m.Waits)
	if err == nil {
		err = c.bindArgs(k, m.Args)
	}
	if err != nil {
		return nil, err
	}
	nd := opencl.NDRange{Dims: int(m.Dims), Global: m.Global, Local: m.Local}
	return c.app.EnqueueKernelAsync(k, nd, waits...)
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

// copyEvent builds a transfer enqueue's event.
func (c *conn) copyEvent(op string, m wire.EnqueueCopy) (*opencl.Event, error) {
	c.mu.Lock()
	b := c.bufs[m.Buffer]
	c.mu.Unlock()
	switch {
	case b == nil:
		return nil, fmt.Errorf("buffer %d: %w", m.Buffer, wire.ErrNotFound)
	case b.Released():
		return nil, fmt.Errorf("buffer %d: %w", m.Buffer, opencl.ErrBufferReleased)
	case m.Off < 0 || m.N < 0 || m.Off+m.N > b.Size:
		return nil, fmt.Errorf("%w: copy [%d,%d) outside buffer of %d bytes",
			wire.ErrBadRequest, m.Off, m.Off+m.N, b.Size)
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
		return c.app.NewControlledEvent()
	case wire.CopyRead:
		// The event completes when the server-side dependencies (the
		// kernels producing the data) do; the client copies out of the
		// mapping when MsgEventDone lands.
		waits, err := c.resolveWaits(m.Waits)
		if err != nil {
			return nil, err
		}
		ev, err := c.app.NewControlledEvent()
		if err != nil {
			return nil, err
		}
		opencl.WhenAll(waits, func(err error) {
			if err != nil {
				ev.Fail(err)
				return
			}
			ev.Complete()
		})
		return ev, nil
	}
	return nil, fmt.Errorf("%w: unknown copy direction %d", wire.ErrBadRequest, m.Dir)
}

// handleCopyDone completes a write copy in flight. Any other id — a
// kernel's, a read's, one already terminal — is ignored: its
// MsgEventDone comes from the daemon's own event.
func (c *conn) handleCopyDone(req uint64, st wire.Status) {
	c.mu.Lock()
	r := c.reqs[req]
	c.mu.Unlock()
	if !r.clientDone {
		return
	}
	if st.Code == wire.CodeOK {
		r.ev.Complete()
	} else {
		r.ev.Fail(st.Code.Err(st.Msg))
	}
}
