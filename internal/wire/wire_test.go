package wire

import (
	"bytes"
	"errors"
	"fmt"
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

func TestFrameRejectsHostileLengths(t *testing.T) {
	// A length field above MaxFrame must be rejected before any
	// allocation of that size.
	hostile := []byte{0xff, 0xff, 0xff, 0xff}
	if _, err := ReadFrame(bytes.NewReader(hostile)); err == nil {
		t.Fatal("oversized frame length accepted")
	}
	// Undersized: length can't even hold type + request id.
	tiny := []byte{3, 0, 0, 0, 1, 2, 3}
	if _, err := ReadFrame(bytes.NewReader(tiny)); err == nil {
		t.Fatal("undersized frame length accepted")
	}
	if err := WriteFrame(&bytes.Buffer{}, MsgHello, 0, make([]byte, MaxFrame)); err == nil {
		t.Fatal("oversized write accepted")
	}
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
