package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/opencl"
	"repro/internal/wire"
)

// TestMirrorKnownUntilTerminal pins the order readLoop retires a mirror
// event in: complete (or fail) first, forget its daemon id second. The
// completion hook runs where a concurrent waitIDs used to find the
// event neither known to the client nor terminal and report "wait
// event was not produced by this client" — once per 50–70 k small
// ungated chains, which is why the benchmark issues its chains gated.
func TestMirrorKnownUntilTerminal(t *testing.T) {
	cn, sn := net.Pipe()
	c := newClient(cn, bufio.NewReader(cn), "race")
	defer c.Close()

	for _, code := range []wire.Code{wire.CodeOK, wire.CodeOf(wire.ErrNotFound)} {
		var ev *opencl.Event
		var during error
		req, ev, err := c.enqueueEvent(func() { _, during = c.waitIDs([]*opencl.Event{ev}) })
		if err != nil {
			t.Fatal(err)
		}
		st := wire.Status{Code: code, Msg: "scripted"}
		if err := wire.WriteFrame(sn, wire.MsgEventDone, req, st.Encode()); err != nil {
			t.Fatal(err)
		}
		werr := ev.Wait()
		if (werr == nil) != (code == wire.CodeOK) {
			t.Fatalf("code %v: mirror finished with %v", code, werr)
		}
		if during != nil {
			t.Errorf("code %v: waitIDs during completion: %v", code, during)
		}
		// Terminal now: a later wait list either still knows the id or
		// prunes the event (success) / reports its error (failure).
		ids, err := c.waitIDs([]*opencl.Event{ev})
		if code == wire.CodeOK && err != nil {
			t.Errorf("waitIDs after completion: %v", err)
		}
		if code != wire.CodeOK && err == nil && len(ids) == 0 {
			t.Errorf("waitIDs dropped a failed dependency silently")
		}
	}
}

// TestServiceUngatedChains issues write → kernel → read chains the
// plain way — each command enqueued while the one before may be
// completing on the reply reader — against a child-process daemon.
// Every chain must succeed and read back what the kernel wrote.
func TestServiceUngatedChains(t *testing.T) {
	d := startDaemon(t)
	c, err := Dial(d.sock, "ungated", "")
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
	in, out, want := make([]byte, n*4), make([]byte, n*4), make([]byte, n*4)
	for chain := 0; chain < 400; chain++ {
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(in[i*4:], uint32(chain*n+i))
			binary.LittleEndian.PutUint32(want[i*4:], uint32(chain*n+i+1))
		}
		wev, err := buf.WriteAsync(0, in)
		if err != nil {
			t.Fatalf("chain %d write: %v", chain, err)
		}
		kev, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 16), wev)
		if err != nil {
			t.Fatalf("chain %d kernel: %v", chain, err)
		}
		rev, err := buf.ReadAsync(0, out, kev)
		if err != nil {
			t.Fatalf("chain %d read: %v", chain, err)
		}
		if err := rev.Wait(); err != nil {
			t.Fatalf("chain %d: %v", chain, err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("chain %d read back the wrong bytes", chain)
		}
	}
	c.Close()
	if rep := d.stop(t); rep != "FINAL mem=0 active=0" {
		t.Errorf("daemon did not drain: %q", rep)
	}
}
