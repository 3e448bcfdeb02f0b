// Package wire defines the accelOS service protocol: length-prefixed
// binary frames carried over a unix-domain socket between the ProxyCL
// client shim (service.Dial) and the accelOS daemon (cmd/acceld).
//
// Every frame is
//
//	[u32 length][u8 type][u64 request id][body]
//
// where length counts the type byte, the request id, and the body. The
// request id is chosen by the client and echoed on every reply, so the
// server is free to answer out of order: slow requests (program
// compilation, blocking buffer allocation) are answered when they
// finish, and enqueue requests are answered with a single MsgEventDone
// frame when the server-side event completes — the request id doubles
// as the event id for wait lists.
//
// Bodies are hand-rolled little-endian encodings (no reflection, no
// external codec): fixed-width integers, and strings/byte slices as a
// u32 length followed by raw bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"repro/internal/fault"
)

// Version is the protocol version carried in the handshake. The server
// rejects clients with a different version rather than guessing at
// compatibility.
const Version = 1

// MaxFrame bounds a single frame's payload (type + request id + body).
// Frames above it are a protocol violation — a hostile or corrupt peer
// — and the connection is dropped rather than the length trusted.
const MaxFrame = 1 << 20

// MsgType identifies a frame's payload shape.
type MsgType uint8

const (
	// Client → server.
	MsgHello         MsgType = 1 // Hello: versioned handshake + tenant auth
	MsgProgramCreate MsgType = 2 // ProgramCreate → ProgramInfo | Error
	MsgKernelCreate  MsgType = 3 // KernelCreate → KernelInfo | Error
	MsgBufferCreate  MsgType = 4 // BufferCreate → BufferInfo | Error
	MsgBufferRelease MsgType = 5 // BufferRelease → Ack | Error
	MsgEnqueueKernel MsgType = 6 // EnqueueKernel → EventDone (no immediate ack)
	MsgEnqueueCopy   MsgType = 7 // EnqueueCopy → EventDone (no immediate ack)
	MsgCopyDone      MsgType = 8 // CopyDone: client signals a write's bytes landed

	// Server → client.
	MsgWelcome     MsgType = 16 // Welcome: handshake verdict
	MsgProgramInfo MsgType = 17
	MsgKernelInfo  MsgType = 18
	MsgBufferInfo  MsgType = 19
	MsgAck         MsgType = 20
	MsgEventDone   MsgType = 21 // Status body; terminal state of an enqueue
	MsgError       MsgType = 22 // Status body; request-level failure
)

func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "hello"
	case MsgProgramCreate:
		return "program-create"
	case MsgKernelCreate:
		return "kernel-create"
	case MsgBufferCreate:
		return "buffer-create"
	case MsgBufferRelease:
		return "buffer-release"
	case MsgEnqueueKernel:
		return "enqueue-kernel"
	case MsgEnqueueCopy:
		return "enqueue-copy"
	case MsgCopyDone:
		return "copy-done"
	case MsgWelcome:
		return "welcome"
	case MsgProgramInfo:
		return "program-info"
	case MsgKernelInfo:
		return "kernel-info"
	case MsgBufferInfo:
		return "buffer-info"
	case MsgAck:
		return "ack"
	case MsgEventDone:
		return "event-done"
	case MsgError:
		return "error"
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Frame is one decoded protocol frame.
type Frame struct {
	Type MsgType
	Req  uint64
	Body []byte
}

// WriteFrame encodes and writes one frame. It issues a single Write so
// concurrent writers need only serialize at the io.Writer.
func WriteFrame(w io.Writer, t MsgType, req uint64, body []byte) error {
	if injector.Load().Should(fault.WireDropFrame) {
		// The transport "swallowed" the frame. Surfacing an error (rather
		// than silently dropping) is what a real peer observes eventually
		// — a request whose reply never comes is indistinguishable from a
		// dead connection, and the client's recovery is the same: tear
		// down and redial.
		return fault.Errf(fault.WireDropFrame, t.String())
	}
	n := 1 + 8 + len(body)
	if n > MaxFrame {
		return fmt.Errorf("wire: frame too large (%d bytes)", n)
	}
	bp := frames.Get().(*[]byte)
	if cap(*bp) < 4+n {
		*bp = make([]byte, 4+n)
	}
	buf := (*bp)[:4+n]
	binary.LittleEndian.PutUint32(buf[0:], uint32(n))
	buf[4] = byte(t)
	binary.LittleEndian.PutUint64(buf[5:], req)
	copy(buf[13:], body)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrame {
		frames.Put(bp)
	}
	return err
}

// frames recycles WriteFrame's buffers: a Write does not keep its
// argument, so the buffer is free again once the call returns. Frames
// above maxPooledFrame (program sources) are left to the collector.
var frames = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledFrame = 4096

// ReadFrame reads one frame, rejecting lengths above MaxFrame.
func ReadFrame(r io.Reader) (Frame, error) {
	if injector.Load().Should(fault.WireCloseConn) {
		return Frame{}, fault.Errf(fault.WireCloseConn, "")
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > MaxFrame {
		return Frame{}, fmt.Errorf("wire: bad frame length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, err
	}
	return Frame{
		Type: MsgType(buf[0]),
		Req:  binary.LittleEndian.Uint64(buf[1:9]),
		Body: buf[9:],
	}, nil
}

// Enc builds a frame body.
type Enc struct{ b []byte }

func (e *Enc) U8(v uint8)   { e.b = append(e.b, v) }
func (e *Enc) U16(v uint16) { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *Enc) I64(v int64)  { e.U64(uint64(v)) }
func (e *Enc) F32(v float32) {
	e.U32(math.Float32bits(v))
}
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.b = append(e.b, s...)
}

// Bytes returns the accumulated body.
func (e *Enc) Bytes() []byte { return e.b }

// Dec decodes a frame body. The first malformed field latches an error;
// callers check Err once at the end instead of after every field.
type Dec struct {
	b   []byte
	off int
	bad bool
}

// NewDec wraps a body for decoding.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) take(n int) []byte {
	if d.bad || d.off+n > len(d.b) {
		d.bad = true
		return nil
	}
	v := d.b[d.off : d.off+n]
	d.off += n
	return v
}

func (d *Dec) U8() uint8 {
	v := d.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (d *Dec) U16() uint16 {
	v := d.take(2)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(v)
}

func (d *Dec) U32() uint32 {
	v := d.take(4)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(v)
}

func (d *Dec) U64() uint64 {
	v := d.take(8)
	if v == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(v)
}

func (d *Dec) I64() int64   { return int64(d.U64()) }
func (d *Dec) F32() float32 { return math.Float32frombits(d.U32()) }
func (d *Dec) Str() string {
	n := int(d.U32())
	if d.bad || n > len(d.b)-d.off {
		d.bad = true
		return ""
	}
	return string(d.take(n))
}

// count reads an element count and bounds it by the bytes left, each
// element taking size encoded bytes: a hostile count fails the decode
// instead of reserving room for elements the body cannot hold.
func (d *Dec) count(size int) int {
	n := int(d.U32())
	if d.bad || n > (len(d.b)-d.off)/size {
		d.bad = true
		return 0
	}
	return n
}

// Err reports whether any field ran past the body.
func (d *Dec) Err() error {
	if d.bad {
		return fmt.Errorf("wire: truncated or malformed message body")
	}
	return nil
}

// Hello is the client's first frame: protocol version plus tenant
// identity and authentication token.
type Hello struct {
	Version uint32
	Tenant  string
	Token   string
}

func (m *Hello) Encode() []byte {
	var e Enc
	e.U32(m.Version)
	e.Str(m.Tenant)
	e.Str(m.Token)
	return e.Bytes()
}

func (m *Hello) Decode(b []byte) error {
	d := NewDec(b)
	m.Version = d.U32()
	m.Tenant = d.Str()
	m.Token = d.Str()
	return d.Err()
}

// Welcome is the server's handshake verdict. Code OK admits the
// connection; anything else explains the rejection and the server
// closes the socket.
type Welcome struct {
	Code    Code
	Msg     string
	Version uint32
}

func (m *Welcome) Encode() []byte {
	var e Enc
	e.U16(uint16(m.Code))
	e.Str(m.Msg)
	e.U32(m.Version)
	return e.Bytes()
}

func (m *Welcome) Decode(b []byte) error {
	d := NewDec(b)
	m.Code = Code(d.U16())
	m.Msg = d.Str()
	m.Version = d.U32()
	return d.Err()
}

// ProgramCreate carries CLC source to compile server-side.
type ProgramCreate struct {
	Source string
}

func (m *ProgramCreate) Encode() []byte {
	var e Enc
	e.Str(m.Source)
	return e.Bytes()
}

func (m *ProgramCreate) Decode(b []byte) error {
	d := NewDec(b)
	m.Source = d.Str()
	return d.Err()
}

// ProgramInfo replies with the server-assigned program id.
type ProgramInfo struct {
	Prog uint64
}

func (m *ProgramInfo) Encode() []byte {
	var e Enc
	e.U64(m.Prog)
	return e.Bytes()
}

func (m *ProgramInfo) Decode(b []byte) error {
	d := NewDec(b)
	m.Prog = d.U64()
	return d.Err()
}

// KernelCreate names a kernel inside a created program.
type KernelCreate struct {
	Prog uint64
	Name string
}

func (m *KernelCreate) Encode() []byte {
	var e Enc
	e.U64(m.Prog)
	e.Str(m.Name)
	return e.Bytes()
}

func (m *KernelCreate) Decode(b []byte) error {
	d := NewDec(b)
	m.Prog = d.U64()
	m.Name = d.Str()
	return d.Err()
}

// KernelInfo replies with the kernel id and its arity.
type KernelInfo struct {
	Kernel  uint64
	NumArgs uint32
}

func (m *KernelInfo) Encode() []byte {
	var e Enc
	e.U64(m.Kernel)
	e.U32(m.NumArgs)
	return e.Bytes()
}

func (m *KernelInfo) Decode(b []byte) error {
	d := NewDec(b)
	m.Kernel = d.U64()
	m.NumArgs = d.U32()
	return d.Err()
}

// BufferCreate asks for a device buffer of Size bytes backed by a
// shared-memory segment.
type BufferCreate struct {
	Size int64
}

func (m *BufferCreate) Encode() []byte {
	var e Enc
	e.I64(m.Size)
	return e.Bytes()
}

func (m *BufferCreate) Decode(b []byte) error {
	d := NewDec(b)
	m.Size = d.I64()
	return d.Err()
}

// BufferInfo replies with the buffer id and the filesystem path of the
// shared-memory segment the client mmaps. The segment IS the buffer's
// device backing (interp.Machine.BindRegion binds it zero-copy), so
// bytes written through the client's mapping are the bytes kernels
// read — no per-transfer copy crosses the process boundary.
type BufferInfo struct {
	Buffer uint64
	Path   string
	Size   int64
}

func (m *BufferInfo) Encode() []byte {
	var e Enc
	e.U64(m.Buffer)
	e.Str(m.Path)
	e.I64(m.Size)
	return e.Bytes()
}

func (m *BufferInfo) Decode(b []byte) error {
	d := NewDec(b)
	m.Buffer = d.U64()
	m.Path = d.Str()
	m.Size = d.I64()
	return d.Err()
}

// BufferRelease drops the server-side buffer (refcount-aware: in-flight
// launches cancel at their next slice boundary, then the backing is
// freed).
type BufferRelease struct {
	Buffer uint64
}

func (m *BufferRelease) Encode() []byte {
	var e Enc
	e.U64(m.Buffer)
	return e.Bytes()
}

func (m *BufferRelease) Decode(b []byte) error {
	d := NewDec(b)
	m.Buffer = d.U64()
	return d.Err()
}

// Kernel argument kinds carried inside EnqueueKernel.
const (
	ArgBuffer uint8 = 1
	ArgI32    uint8 = 2
	ArgI64    uint8 = 3
	ArgF32    uint8 = 4
	ArgLocal  uint8 = 5
)

// argSize is a KernelArg's encoded size: kind, buffer, value, float.
const argSize = 1 + 8 + 8 + 4

// KernelArg is one argument binding for a launch. Exactly one field
// besides Kind is meaningful, selected by Kind.
type KernelArg struct {
	Kind   uint8
	Buffer uint64 // ArgBuffer: buffer id
	I64    int64  // ArgI32/ArgI64/ArgLocal: value or local byte size
	F32    float32
}

// EnqueueKernel launches a kernel. No immediate ack is sent: one
// MsgEventDone frame tagged with this request id arrives when the
// server-side event reaches a terminal state, and the request id names
// the event in later wait lists.
type EnqueueKernel struct {
	Kernel uint64
	Dims   uint8
	Global [3]int64
	Local  [3]int64
	Args   []KernelArg
	Waits  []uint64
}

func (m *EnqueueKernel) Encode() []byte {
	e := Enc{b: make([]byte, 0, 8+1+6*8+4+argSize*len(m.Args)+4+8*len(m.Waits))}
	e.U64(m.Kernel)
	e.U8(m.Dims)
	for _, v := range m.Global {
		e.I64(v)
	}
	for _, v := range m.Local {
		e.I64(v)
	}
	e.U32(uint32(len(m.Args)))
	for _, a := range m.Args {
		e.U8(a.Kind)
		e.U64(a.Buffer)
		e.I64(a.I64)
		e.F32(a.F32)
	}
	e.U32(uint32(len(m.Waits)))
	for _, w := range m.Waits {
		e.U64(w)
	}
	return e.Bytes()
}

func (m *EnqueueKernel) Decode(b []byte) error {
	d := NewDec(b)
	m.Kernel = d.U64()
	m.Dims = d.U8()
	for i := range m.Global {
		m.Global[i] = d.I64()
	}
	for i := range m.Local {
		m.Local[i] = d.I64()
	}
	na := d.count(argSize)
	m.Args = make([]KernelArg, 0, na)
	for i := 0; i < na; i++ {
		m.Args = append(m.Args, KernelArg{
			Kind:   d.U8(),
			Buffer: d.U64(),
			I64:    d.I64(),
			F32:    d.F32(),
		})
	}
	nw := d.count(8)
	m.Waits = make([]uint64, 0, nw)
	for i := 0; i < nw; i++ {
		m.Waits = append(m.Waits, d.U64())
	}
	return d.Err()
}

// Copy directions for EnqueueCopy.
const (
	CopyWrite uint8 = 1 // host → buffer: client copies into the mapping, then signals
	CopyRead  uint8 = 2 // buffer → host: server signals, client copies out of the mapping
)

// EnqueueCopy registers a transfer event. The bytes themselves never
// ride the socket — the client reads/writes the mmap'd segment — so a
// "transfer" is pure event signaling:
//
//   - CopyWrite: the server creates an event and waits for the client's
//     MsgCopyDone (sent after the client's dependencies resolved and its
//     bytes landed in the mapping).
//   - CopyRead: the server completes the event once Waits resolve; the
//     client copies out of the mapping when MsgEventDone arrives.
type EnqueueCopy struct {
	Dir    uint8
	Buffer uint64
	Off    int64
	N      int64
	Waits  []uint64
}

func (m *EnqueueCopy) Encode() []byte {
	e := Enc{b: make([]byte, 0, 1+3*8+4+8*len(m.Waits))}
	e.U8(m.Dir)
	e.U64(m.Buffer)
	e.I64(m.Off)
	e.I64(m.N)
	e.U32(uint32(len(m.Waits)))
	for _, w := range m.Waits {
		e.U64(w)
	}
	return e.Bytes()
}

func (m *EnqueueCopy) Decode(b []byte) error {
	d := NewDec(b)
	m.Dir = d.U8()
	m.Buffer = d.U64()
	m.Off = d.I64()
	m.N = d.I64()
	nw := d.count(8)
	m.Waits = make([]uint64, 0, nw)
	for i := 0; i < nw; i++ {
		m.Waits = append(m.Waits, d.U64())
	}
	return d.Err()
}

// Status is the shared body of MsgWelcome-free verdict frames:
// MsgEventDone, MsgError, and MsgCopyDone all carry a code plus a
// human-readable message.
type Status struct {
	Code Code
	Msg  string
}

func (m *Status) Encode() []byte {
	e := Enc{b: make([]byte, 0, 2+4+len(m.Msg))}
	e.U16(uint16(m.Code))
	e.Str(m.Msg)
	return e.Bytes()
}

func (m *Status) Decode(b []byte) error {
	d := NewDec(b)
	m.Code = Code(d.U16())
	m.Msg = d.Str()
	return d.Err()
}
