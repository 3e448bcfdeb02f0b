package service

import (
	"bufio"
	"net"
	"testing"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/wire"
)

// rawConn speaks the wire protocol to a daemon one frame at a time, so
// a test can name any request id in a wait list or a MsgCopyDone.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	br  *bufio.Reader
	req uint64
	got map[uint64]wire.Frame // replies read while waiting for another

	kernel, buf uint64
}

// dialRaw handshakes and creates an inc kernel bound to a fresh buffer.
// The test never maps the buffer: only the daemon touches its pages.
func dialRaw(t *testing.T, sock string) *rawConn {
	t.Helper()
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	r := &rawConn{t: t, nc: nc, br: bufio.NewReader(nc), got: make(map[uint64]wire.Frame)}
	if f := r.reply(r.send(wire.MsgHello, (&wire.Hello{Version: wire.Version, Tenant: "raw"}).Encode())); f.Type != wire.MsgWelcome {
		t.Fatalf("handshake answered with %v", f.Type)
	}
	var prog wire.ProgramInfo
	r.decode(r.send(wire.MsgProgramCreate, (&wire.ProgramCreate{Source: svcIncSrc}).Encode()), wire.MsgProgramInfo, &prog)
	var kern wire.KernelInfo
	r.decode(r.send(wire.MsgKernelCreate, (&wire.KernelCreate{Prog: prog.Prog, Name: "inc"}).Encode()), wire.MsgKernelInfo, &kern)
	var buf wire.BufferInfo
	r.decode(r.send(wire.MsgBufferCreate, (&wire.BufferCreate{Size: 32 * 4}).Encode()), wire.MsgBufferInfo, &buf)
	r.kernel, r.buf = kern.Kernel, buf.Buffer
	return r
}

// send writes one frame under a fresh request id and returns the id.
func (r *rawConn) send(t wire.MsgType, body []byte) uint64 {
	r.t.Helper()
	r.req++
	if err := wire.WriteFrame(r.nc, t, r.req, body); err != nil {
		r.t.Fatal(err)
	}
	return r.req
}

// reply reads frames until the one answering req arrives.
func (r *rawConn) reply(req uint64) wire.Frame {
	r.t.Helper()
	for {
		if f, ok := r.got[req]; ok {
			delete(r.got, req)
			return f
		}
		f, err := wire.ReadFrame(r.br)
		if err != nil {
			r.t.Fatalf("waiting for the reply to %d: %v", req, err)
		}
		r.got[f.Req] = f
	}
}

func (r *rawConn) decode(req uint64, want wire.MsgType, m interface{ Decode([]byte) error }) {
	r.t.Helper()
	if f := r.reply(req); f.Type != want || m.Decode(f.Body) != nil {
		r.t.Fatalf("request %d answered with %v, want %v", req, f.Type, want)
	}
}

// code returns the status of req's MsgEventDone.
func (r *rawConn) code(req uint64) wire.Code {
	r.t.Helper()
	var st wire.Status
	r.decode(req, wire.MsgEventDone, &st)
	return st.Code
}

// launch enqueues the inc kernel behind waits.
func (r *rawConn) launch(waits ...uint64) uint64 {
	m := wire.EnqueueKernel{Kernel: r.kernel, Dims: 1, Global: [3]int64{32, 1, 1}, Local: [3]int64{32, 1, 1},
		Args:  []wire.KernelArg{{Kind: wire.ArgBuffer, Buffer: r.buf}, {Kind: wire.ArgI32, I64: 32}},
		Waits: waits}
	return r.send(wire.MsgEnqueueKernel, m.Encode())
}

// write announces a write copy; copyDone completes it.
func (r *rawConn) write() uint64 {
	return r.send(wire.MsgEnqueueCopy, (&wire.EnqueueCopy{Dir: wire.CopyWrite, Buffer: r.buf, N: 4}).Encode())
}

func (r *rawConn) copyDone(req uint64, code wire.Code) {
	r.t.Helper()
	if err := wire.WriteFrame(r.nc, wire.MsgCopyDone, req, (&wire.Status{Code: code}).Encode()); err != nil {
		r.t.Fatal(err)
	}
}

// TestServiceWaitResolution names request ids in wait lists after they
// left the daemon's in-flight table: a success drops out of the wait, a
// failure or a refusal fails the dependent with its own code, and an id
// the connection never used is not found. A MsgCopyDone that names a
// kernel is ignored, and an enqueue reusing an id in flight is refused.
func TestServiceWaitResolution(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	srv, sock := startService(t, rt, Options{})
	released := wire.CodeOf(opencl.ErrBufferReleased)

	t.Run("completed", func(t *testing.T) {
		r := dialRaw(t, sock)
		w := r.write()
		r.copyDone(w, wire.CodeOK)
		if c := r.code(w); c != wire.CodeOK {
			t.Fatalf("write: %v", c)
		}
		if c := r.code(r.launch(w)); c != wire.CodeOK {
			t.Errorf("kernel behind a completed write: %v, want ok", c)
		}
	})
	t.Run("failed kernel", func(t *testing.T) {
		r := dialRaw(t, sock)
		w := r.write()
		k := r.launch(w)
		r.copyDone(w, released)
		if c := r.code(k); c != released {
			t.Fatalf("kernel behind a failed write: %v, want %v", c, released)
		}
		if c := r.code(r.launch(k)); c != released {
			t.Errorf("kernel behind the failed kernel: %v, want %v", c, released)
		}
	})
	t.Run("refused", func(t *testing.T) {
		r := dialRaw(t, sock)
		bad := r.send(wire.MsgEnqueueKernel, (&wire.EnqueueKernel{Kernel: r.kernel, Dims: 1,
			Global: [3]int64{32, 1, 1}, Local: [3]int64{32, 1, 1}, Args: []wire.KernelArg{{Kind: 99}}}).Encode())
		want := wire.CodeOf(wire.ErrBadRequest)
		if c := r.code(bad); c != want {
			t.Fatalf("kernel with a bad argument: %v, want %v", c, want)
		}
		if c := r.code(r.launch(bad)); c != want {
			t.Errorf("kernel behind the refused one: %v, want %v", c, want)
		}
	})
	t.Run("unseen", func(t *testing.T) {
		r := dialRaw(t, sock)
		if c, want := r.code(r.launch(r.req+100)), wire.CodeOf(wire.ErrNotFound); c != want {
			t.Errorf("kernel behind an id never sent: %v, want %v", c, want)
		}
	})
	t.Run("copy-done naming a kernel", func(t *testing.T) {
		r := dialRaw(t, sock)
		w := r.write()
		k := r.launch(w)
		r.copyDone(k, released)
		r.copyDone(w, wire.CodeOK)
		if c := r.code(w); c != wire.CodeOK {
			t.Fatalf("write: %v", c)
		}
		if c := r.code(k); c != wire.CodeOK {
			t.Errorf("kernel: %v, want ok: a copy-done naming it must be ignored", c)
		}
	})
	t.Run("duplicate id", func(t *testing.T) {
		r := dialRaw(t, sock)
		w := r.write()
		// A second write under w's id must not take its place: the first
		// would then never complete, and teardown would wait on it.
		dup := wire.EnqueueCopy{Dir: wire.CopyWrite, Buffer: r.buf, N: 4}
		if err := wire.WriteFrame(r.nc, wire.MsgEnqueueCopy, w, dup.Encode()); err != nil {
			t.Fatal(err)
		}
		if c, want := r.code(w), wire.CodeOf(wire.ErrBadRequest); c != want {
			t.Fatalf("write under an id in flight: %v, want %v", c, want)
		}
		r.copyDone(w, wire.CodeOK)
		if c := r.code(w); c != wire.CodeOK {
			t.Fatalf("first write: %v", c)
		}
		r.nc.Close()
		waitFor(t, "connection teardown", func() bool { return srv.NumConns() == 0 })
	})
}

// TestServiceInflightTableDrains runs write → kernel → read chains over
// one connection and finds the daemon's per-connection tables empty
// once every reply is in: nothing outlives its request. The transfers
// move zero bytes so that only the daemon touches the buffer's pages
// (the race detector cannot see the socket ordering the two sides).
func TestServiceInflightTableDrains(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	srv, sock := startService(t, rt, Options{})
	c, err := Dial(sock, "drain", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prog, err := c.CreateProgram(svcIncSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("inc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, n); err != nil {
		t.Fatal(err)
	}
	for chain := 0; chain < 10000; chain++ {
		wev, err := buf.WriteAsync(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		kev, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 16), wev)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := buf.ReadAsync(0, nil, kev)
		if err != nil {
			t.Fatal(err)
		}
		// A kernel's read dependant replies before the kernel itself
		// does, so wait for all three.
		if err := opencl.WaitAll(wev, kev, rev); err != nil {
			t.Fatalf("chain %d: %v", chain, err)
		}
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if len(srv.conns) != 1 {
		t.Fatalf("%d connections, want 1", len(srv.conns))
	}
	for sc := range srv.conns {
		sc.mu.Lock()
		reqs, failed := len(sc.reqs), len(sc.failed)
		sc.mu.Unlock()
		if reqs != 0 || failed != 0 {
			t.Errorf("after the last reply: %d requests in flight and %d failures kept, want none", reqs, failed)
		}
	}
}
