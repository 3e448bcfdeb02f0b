package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/accelos"
	"repro/internal/opencl"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := []byte("payload")
	if err := WriteFrame(&buf, MsgEnqueueKernel, 42, body); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrame(&buf, MsgAck, 43, nil); err != nil {
		t.Fatal(err)
	}
	f, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgEnqueueKernel || f.Req != 42 || !bytes.Equal(f.Body, body) {
		t.Fatalf("frame 1 = %+v", f)
	}
	f, err = ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != MsgAck || f.Req != 43 || len(f.Body) != 0 {
		t.Fatalf("frame 2 = %+v", f)
	}
}

// TestFrameRejectsHostileLengths: a length or count the bytes cannot
// back fails before anything of that size is allocated.
func TestFrameRejectsHostileLengths(t *testing.T) {
	// claims returns a body of the largest frame whose u32 count at off
	// claims as many elements as the body has bytes.
	claims := func(off int) []byte {
		b := make([]byte, MaxFrame-9)
		binary.LittleEndian.PutUint32(b[off:], uint32(len(b)))
		return b
	}
	const kernelHead = 8 + 1 + 6*8 // kernel, dims, global, local
	args, kernelWaits := claims(kernelHead), claims(kernelHead+4)
	copyWaits := claims(1 + 3*8) // dir, buffer, off, n
	oversized := make([]byte, MaxFrame)
	cases := []struct {
		name string
		run  func() error
	}{
		{"frame length above MaxFrame", func() error {
			_, err := ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
			return err
		}},
		{"frame length below type and request id", func() error {
			_, err := ReadFrame(bytes.NewReader([]byte{3, 0, 0, 0, 1, 2, 3}))
			return err
		}},
		{"oversized write", func() error { return WriteFrame(io.Discard, MsgHello, 0, oversized) }},
		{"kernel argument count past the body", func() error { return new(EnqueueKernel).Decode(args) }},
		{"kernel wait count past the body", func() error { return new(EnqueueKernel).Decode(kernelWaits) }},
		{"copy wait count past the body", func() error { return new(EnqueueCopy).Decode(copyWaits) }},
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.run()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%s: allocated %d bytes before refusing", c.name, n)
		}
	}
}

// message is what every frame body implements.
type message interface {
	Encode() []byte
	Decode([]byte) error
}

// FuzzFrame reads arbitrary bytes as a frame and decodes its body as
// every message: each step returns an error or a value, never panics,
// and a body that decodes re-encodes to the same message.
func FuzzFrame(f *testing.F) {
	seeds := []struct {
		t MsgType
		m message
	}{
		{MsgHello, &Hello{Version: Version, Tenant: "t", Token: "k"}},
		{MsgProgramCreate, &ProgramCreate{Source: "kernel void k() {}"}},
		{MsgKernelCreate, &KernelCreate{Prog: 1, Name: "k"}},
		{MsgBufferCreate, &BufferCreate{Size: 4096}},
		{MsgBufferRelease, &BufferRelease{Buffer: 2}},
		{MsgEnqueueKernel, &EnqueueKernel{Kernel: 3, Dims: 1, Global: [3]int64{64, 1, 1}, Local: [3]int64{16, 1, 1},
			Args: []KernelArg{{Kind: ArgBuffer, Buffer: 2}, {Kind: ArgF32, F32: 1.5}}, Waits: []uint64{4, 5}}},
		{MsgEnqueueCopy, &EnqueueCopy{Dir: CopyRead, Buffer: 2, Off: 8, N: 64, Waits: []uint64{6}}},
		{MsgCopyDone, &Status{Code: CodeBufferReleased, Msg: "gone"}},
		{MsgWelcome, &Welcome{Code: CodeOK, Version: Version}},
		{MsgProgramInfo, &ProgramInfo{Prog: 1}},
		{MsgKernelInfo, &KernelInfo{Kernel: 3, NumArgs: 2}},
		{MsgBufferInfo, &BufferInfo{Buffer: 2, Path: "/dev/shm/x", Size: 4096}},
		{MsgAck, nil},
		{MsgEventDone, &Status{}},
		{MsgError, &Status{Code: CodeNotFound, Msg: "kernel 9"}},
	}
	for _, s := range seeds {
		var body []byte
		if s.m != nil {
			body = s.m.Encode()
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, s.t, 7, body); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	decoders := []func() message{
		func() message { return new(Hello) }, func() message { return new(Welcome) },
		func() message { return new(ProgramCreate) }, func() message { return new(ProgramInfo) },
		func() message { return new(KernelCreate) }, func() message { return new(KernelInfo) },
		func() message { return new(BufferCreate) }, func() message { return new(BufferInfo) },
		func() message { return new(BufferRelease) }, func() message { return new(EnqueueKernel) },
		func() message { return new(EnqueueCopy) }, func() message { return new(Status) },
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := ReadFrame(bytes.NewReader(b))
		if err != nil {
			return
		}
		for _, mk := range decoders {
			m := mk()
			if m.Decode(fr.Body) != nil {
				continue
			}
			again := mk()
			if err := again.Decode(m.Encode()); err != nil || fmt.Sprint(again) != fmt.Sprint(m) {
				t.Fatalf("%T: %+v re-encodes to %+v (err %v)", m, m, again, err)
			}
		}
	})
}

func TestMessageRoundTrips(t *testing.T) {
	hello := Hello{Version: Version, Tenant: "tenant-a", Token: "s3cret"}
	var h2 Hello
	if err := h2.Decode(hello.Encode()); err != nil || h2 != hello {
		t.Fatalf("hello: %+v err=%v", h2, err)
	}

	ek := EnqueueKernel{
		Kernel: 7,
		Dims:   2,
		Global: [3]int64{1024, 8, 1},
		Local:  [3]int64{64, 1, 1},
		Args: []KernelArg{
			{Kind: ArgBuffer, Buffer: 3},
			{Kind: ArgI32, I64: -9},
			{Kind: ArgF32, F32: 2.5},
			{Kind: ArgLocal, I64: 4096},
		},
		Waits: []uint64{11, 12},
	}
	var ek2 EnqueueKernel
	if err := ek2.Decode(ek.Encode()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ek2) != fmt.Sprint(ek) {
		t.Fatalf("enqueue-kernel: %+v != %+v", ek2, ek)
	}

	ec := EnqueueCopy{Dir: CopyRead, Buffer: 3, Off: 16, N: 1024, Waits: []uint64{5}}
	var ec2 EnqueueCopy
	if err := ec2.Decode(ec.Encode()); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ec2) != fmt.Sprint(ec) {
		t.Fatalf("enqueue-copy: %+v != %+v", ec2, ec)
	}

	bi := BufferInfo{Buffer: 9, Path: "/tmp/accelos-shm-1", Size: 4096}
	var bi2 BufferInfo
	if err := bi2.Decode(bi.Encode()); err != nil || bi2 != bi {
		t.Fatalf("buffer-info: %+v err=%v", bi2, err)
	}

	// Truncated bodies must error, not decode garbage.
	enc := ek.Encode()
	var trunc EnqueueKernel
	if err := trunc.Decode(enc[:len(enc)-3]); err == nil {
		t.Fatal("truncated body decoded cleanly")
	}
}

// TestCodeRoundTrip checks that runtime sentinels survive encode →
// decode such that errors.Is against the original sentinel holds on the
// client side, and that every code keeps its number.
func TestCodeRoundTrip(t *testing.T) {
	cases := []struct {
		err  error
		code Code
	}{
		{fmt.Errorf("kernel arg 2: %w", opencl.ErrBufferReleased), CodeBufferReleased},
		{accelos.ErrAppClosed, CodeAppClosed},
		{opencl.ErrOutOfMemory, CodeOutOfMemory},
		{fmt.Errorf("%w: 3:7: expected ';'", accelos.ErrBuildFailed), CodeBuildFailed},
		{ErrBackpressure, CodeBackpressure},
		{ErrRateLimited, CodeRateLimited},
		{ErrUnknownTenant, CodeUnknownTenant},
		{ErrNotFound, CodeNotFound},
	}
	for _, c := range cases {
		got := CodeOf(c.err)
		if got != c.code {
			t.Errorf("CodeOf(%v) = %v, want %v", c.err, got, c.code)
			continue
		}
		// Simulate the wire: only (code, message) crosses.
		st := Status{Code: got, Msg: c.err.Error()}
		var st2 Status
		if err := st2.Decode(st.Encode()); err != nil {
			t.Fatal(err)
		}
		back := st2.Code.Err(st2.Msg)
		if !errors.Is(back, errors.Unwrap(&remoteError{code: c.code})) {
			t.Errorf("reconstructed %v does not unwrap to its sentinel", back)
		}
		if back.Error() != c.err.Error() {
			t.Errorf("message lost: %q != %q", back.Error(), c.err.Error())
		}
	}
	// The headline round trips, spelled the way client code writes them.
	if !errors.Is(CodeBufferReleased.Err("gone"), opencl.ErrBufferReleased) {
		t.Error("ErrBufferReleased does not round-trip")
	}
	if !errors.Is(CodeAppClosed.Err("closed"), accelos.ErrAppClosed) {
		t.Error("ErrAppClosed does not round-trip")
	}
	if !errors.Is(CodeBuildFailed.Err("3:7: expected ';'"), accelos.ErrBuildFailed) {
		t.Error("ErrBuildFailed does not round-trip")
	}
	// Codes are appended, never renumbered: a peer built from another
	// revision reads the same numbers.
	for _, c := range []struct {
		code Code
		num  uint16
	}{
		{CodeBufferReleased, 2}, {CodeAppClosed, 3}, {CodeOutOfMemory, 4},
		{CodeDeviceLost, 5}, {CodeKernelTimeout, 6}, {CodeQuarantined, 7},
		{CodeBadHandshake, 16}, {CodeUnknownTenant, 17}, {CodeBackpressure, 18},
		{CodeRateLimited, 19}, {CodeNotFound, 20}, {CodeBadRequest, 21},
		{CodeInternal, 22}, {CodeBuildFailed, 23},
	} {
		if uint16(c.code) != c.num {
			t.Errorf("%v = %d, want %d: codes are never renumbered", c.code, uint16(c.code), c.num)
		}
	}
	// Code 1 is retired: what an older peer sends under it decodes to an
	// untyped failure that keeps the server's message.
	var old Status
	if err := old.Decode((&Status{Code: 1, Msg: "device run queue full"}).Encode()); err != nil {
		t.Fatal(err)
	}
	if err := old.Code.Err(old.Msg); err == nil || err.Error() != "device run queue full" || errors.Unwrap(err) != nil {
		t.Errorf("retired code 1 decodes to %v (unwraps to %v), want an untyped error with the server's message",
			err, errors.Unwrap(err))
	}
	if CodeOf(nil) != CodeOK || CodeOK.Err("") != nil {
		t.Error("CodeOK must map to nil and back")
	}
	if CodeOf(fmt.Errorf("novel failure")) != CodeInternal {
		t.Error("unrecognized errors must collapse to CodeInternal")
	}
}

func TestShmSharedVisibility(t *testing.T) {
	owner, err := CreateShm(t.TempDir(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer owner.Close()
	peer, err := OpenShm(owner.Path)
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if len(peer.Bytes) != 4096 {
		t.Fatalf("peer mapping size = %d", len(peer.Bytes))
	}
	copy(owner.Bytes, "written by owner")
	if got := string(peer.Bytes[:16]); got != "written by owner" {
		t.Fatalf("peer sees %q", got)
	}
	peer.Bytes[0] = 'W'
	if owner.Bytes[0] != 'W' {
		t.Fatal("owner does not see peer's write")
	}
	// Owner close unlinks; peer's mapping must stay valid.
	if err := owner.Close(); err != nil {
		t.Fatal(err)
	}
	if peer.Bytes[1] != 'r' {
		t.Fatal("peer mapping died with the owner's unlink")
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := peer.Close(); err != nil {
		t.Fatal(err) // double close is safe
	}
}
