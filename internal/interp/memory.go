// Package interp executes IR modules the way an OpenCL device would run
// native kernel code: an NDRange of work-groups, work-items running
// concurrently within a group (one goroutine each), work-group barriers,
// atomics, and byte-addressed memory split into regions (buffers, local
// scratchpads, private allocas).
//
// The interpreter is the functional half of the device substitute: the
// timing half lives in internal/sim. It is used to verify that the accelOS
// kernel transformation preserves semantics (the transformed dyn_sched
// kernel must produce bit-identical buffers).
package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/ir"
)

// Region is a contiguous block of byte-addressable memory. Pointers are
// (region, offset) pairs; storing a pointer to memory encodes the region's
// registry ID.
type Region struct {
	ID    int
	Bytes []byte
	Space ir.AddrSpace
}

// Ptr is a pointer value: a region plus a byte offset.
type Ptr struct {
	R   *Region
	Off int64
}

// IsNull reports whether the pointer is null.
func (p Ptr) IsNull() bool { return p.R == nil }

// Value is a runtime value: one of the scalar kinds or a pointer.
type Value struct {
	K ir.Kind
	I int64
	F float64
	P Ptr
}

// IntV returns an i32 value.
func IntV(v int64) Value { return Value{K: ir.I32, I: v} }

// LongV returns an i64 value.
func LongV(v int64) Value { return Value{K: ir.I64, I: v} }

// BoolV returns an i1 value.
func BoolV(b bool) Value {
	v := int64(0)
	if b {
		v = 1
	}
	return Value{K: ir.Bool, I: v}
}

// FloatV returns a float value.
func FloatV(v float64) Value { return Value{K: ir.F32, F: v} }

// DoubleV returns a double value.
func DoubleV(v float64) Value { return Value{K: ir.F64, F: v} }

// PtrV returns a pointer value.
func PtrV(p Ptr, space ir.AddrSpace) Value {
	return Value{K: ir.Pointer, P: p}
}

// localArgMagic tags a Value produced by LocalArgV. The sentinel never
// reaches kernel code: Launch replaces it with a fresh per-work-group
// local region before any work-item runs.
const localArgMagic = -0x10ca1a59

// LocalArgV returns a local-memory argument placeholder of the given
// byte size (the host API's clSetKernelArg(size, NULL) form). At launch,
// every work-group receives its own zeroed local region of that size in
// place of the placeholder, shared by the group's work-items.
func LocalArgV(size int64) Value {
	return Value{K: ir.Pointer, I: localArgMagic, P: Ptr{Off: size}}
}

// localArgSize reports whether v is a LocalArgV placeholder and, if so,
// its requested size.
func localArgSize(v Value) (int64, bool) {
	if v.K == ir.Pointer && v.P.R == nil && v.I == localArgMagic {
		return v.P.Off, true
	}
	return 0, false
}

// Bool reports the truthiness of an integer value.
func (v Value) Bool() bool { return v.I != 0 }

// Machine owns the memory registry and executes kernel launches over a
// module.
type Machine struct {
	Mod *ir.Module

	// Engine selects the execution engine: the bytecode VM (default) or
	// the tree-walking reference interpreter.
	Engine Engine

	// Workers is the persistent worker set VM launches borrow parallel
	// group runners from (opencl.MachinePool seeds it per platform).
	// Nil machines share a process-wide default pool.
	Workers *WorkerPool

	mu      sync.Mutex
	regions []*Region

	// MaxSteps bounds the total instructions one Launch may execute
	// across all its work-items and call frames. Zero means the default
	// budget (defaultMaxSteps).
	MaxSteps int64

	// prog is the compiled bytecode of Mod, resolved lazily through the
	// shared program cache. Machines are owned by one launch at a time
	// (the pool hands them out exclusively), so no lock is needed.
	prog *Prog

	// Profiler, when set, collects sampled execution profiles for VM
	// launches on this machine (see NewProfiler; the tree-walking engine
	// ignores it). Like prog, the field is unlocked because a machine is
	// owned by one launch at a time; the profiler itself is safe to share
	// across machines.
	Profiler *Profiler

	// WarpStats, when set, receives per-launch warp execution statistics
	// (warps formed, lane occupancy, divergence spills) from VM launches
	// that ran in warp mode. Like Profiler, it is per-launch-exclusive on
	// the machine and may be shared across machines if the sink itself is
	// thread-safe.
	WarpStats WarpStatsSink

	// Name labels the machine in trace output (opencl.MachinePool assigns
	// "mach-N"); empty for anonymous machines.
	Name string

	// interrupt, when set, aborts the launch executing on the machine at
	// its next budget flush (see Interrupt); cleared by Reset.
	interrupt atomic.Pointer[string]
}

// Interrupt requests that the launch currently executing on the machine
// (and any later one, until Reset) abort mid-slice: the next instruction
// budget flush panics an execution trap carrying msg, which the engine
// recovers into the launch error. This is the watchdog's lever against a
// kernel stuck inside one slice — a slice-boundary Cancel never lands if
// the slice itself does not terminate.
func (m *Machine) Interrupt(msg string) {
	if msg == "" {
		msg = "machine interrupted"
	}
	m.interrupt.Store(&msg)
}

// checkInterrupt panics the pending interrupt as an execution trap, if
// one is set. It runs on the budget-flush path (once per stepBatch
// instructions per work-item), so both engines observe interrupts
// promptly without a per-instruction atomic.
func (m *Machine) checkInterrupt() {
	if msg := m.interrupt.Load(); msg != nil {
		panic(trap{*msg})
	}
}

// Program returns the machine's compiled bytecode, compiling the module
// through the shared cache on first use. Pooled machines keep it across
// Reset, so sliced launches and re-plans reuse the compiled form.
func (m *Machine) Program() *Prog {
	if m.prog == nil {
		m.prog = SharedProgram(m.Mod)
	}
	return m.prog
}

// UseProgram seeds the machine with an already-compiled program (the
// opencl layer caches one per built Program). Programs for a different
// module are ignored.
func (m *Machine) UseProgram(p *Prog) {
	if p != nil && p.Mod == m.Mod {
		m.prog = p
	}
}

// Atomic read-modify-writes must serialize across machines, not per
// machine: with zero-copy buffer binding, concurrent launches on
// separate machines can target the same bound bytes through distinct
// Region objects, so per-machine (or per-region) locking would silently
// break their atomicity. A single global mutex would instead serialize
// every tenant's scheduling dequeues; the lock is therefore striped by
// the backing array, so only launches genuinely sharing memory contend.
const atomicStripes = 64

var atomicMus [atomicStripes]sync.Mutex

// atomicLock returns the stripe lock for the pointer's backing array.
func atomicLock(p Ptr) *sync.Mutex {
	var addr uintptr
	if p.R != nil {
		addr = uintptr(unsafe.Pointer(unsafe.SliceData(p.R.Bytes)))
	}
	return &atomicMus[(addr>>6)%atomicStripes]
}

// NewMachine returns a machine for the module.
func NewMachine(mod *ir.Module) *Machine {
	m := &Machine{Mod: mod}
	// Region ID 0 is reserved so that a zero word never decodes to a
	// valid pointer.
	m.regions = append(m.regions, nil)
	return m
}

// NewRegion allocates a zeroed region of the given size.
func (m *Machine) NewRegion(size int64, space ir.AddrSpace) *Region {
	return m.BindRegion(make([]byte, size), space)
}

// BindRegion registers a region backed by caller-owned bytes: loads and
// stores go straight through to the slice, with no copy in either
// direction. This is how the host runtime maps device buffers into the
// machine — the interpreter's equivalent of the GPU reading accelerator
// memory in place.
func (m *Machine) BindRegion(bytes []byte, space ir.AddrSpace) *Region {
	r := &Region{Bytes: bytes, Space: space}
	m.registerRegion(r)
	return r
}

// registerRegion assigns the region an ID in the machine's registry so
// pointers into it can be encoded as memory words. Host-visible regions
// register eagerly; the VM's arena-allocated allocas register lazily,
// on the first encode — most never need an ID at all.
func (m *Machine) registerRegion(r *Region) {
	m.mu.Lock()
	if r.ID == 0 {
		r.ID = len(m.regions)
		m.regions = append(m.regions, r)
	}
	m.mu.Unlock()
}

// Reset drops every region from the registry so a pooled machine can be
// reused without accumulating dead regions (and without keeping bound
// buffer bytes alive). Pointers stored into surviving memory before the
// reset become dangling, exactly as across separate machines.
func (m *Machine) Reset() {
	m.interrupt.Store(nil)
	m.mu.Lock()
	m.regions = m.regions[:1]
	m.mu.Unlock()
}

// regionByID resolves an encoded region ID.
func (m *Machine) regionByID(id int) *Region {
	m.mu.Lock()
	defer m.mu.Unlock()
	if id <= 0 || id >= len(m.regions) {
		return nil
	}
	return m.regions[id]
}

const ptrOffBits = 40

// encodePtr packs a pointer into a 64-bit word for in-memory storage,
// registering the target region on first encode.
func (m *Machine) encodePtr(p Ptr) uint64 {
	if p.R == nil {
		return 0
	}
	if p.R.ID == 0 {
		m.registerRegion(p.R)
	}
	if p.Off < 0 || p.Off >= 1<<ptrOffBits {
		panic(trap{fmt.Sprintf("pointer offset %d out of encodable range", p.Off)})
	}
	return uint64(p.R.ID)<<ptrOffBits | uint64(p.Off)
}

// decodePtr unpacks a stored pointer word.
func (m *Machine) decodePtr(w uint64) Ptr {
	if w == 0 {
		return Ptr{}
	}
	id := int(w >> ptrOffBits)
	off := int64(w & (1<<ptrOffBits - 1))
	r := m.regionByID(id)
	if r == nil {
		panic(trap{fmt.Sprintf("load of dangling pointer word %#x", w)})
	}
	return Ptr{R: r, Off: off}
}

// trap is an execution fault (out-of-bounds access, division by zero, ...).
type trap struct{ msg string }

func (t trap) Error() string { return "interp: " + t.msg }

func checkBounds(p Ptr, size int64) {
	if p.IsNull() {
		panic(trap{"null pointer dereference"})
	}
	if p.Off < 0 || p.Off+size > int64(len(p.R.Bytes)) {
		panic(trap{fmt.Sprintf("out-of-bounds access: offset %d size %d in region of %d bytes", p.Off, size, len(p.R.Bytes))})
	}
}

// checkGEP traps on a null GEP base: it has no region to offset into.
func checkGEP(p Ptr) {
	if p.IsNull() {
		panic(trap{"gep on null pointer"})
	}
}

// load reads a typed value from memory into d (see the helpers in
// exec.go for why it does not return the Value).
func (m *Machine) load(d *Value, t *ir.Type, p Ptr) {
	size := t.Size()
	checkBounds(p, size)
	b := p.R.Bytes[p.Off:]
	switch t.Kind {
	case ir.Bool:
		*d = Value{K: ir.Bool, I: int64(b[0] & 1)}
	case ir.I32:
		*d = Value{K: ir.I32, I: int64(int32(binary.LittleEndian.Uint32(b)))}
	case ir.I64:
		*d = Value{K: ir.I64, I: int64(binary.LittleEndian.Uint64(b))}
	case ir.F32:
		*d = Value{K: ir.F32, F: float64(math.Float32frombits(binary.LittleEndian.Uint32(b)))}
	case ir.F64:
		*d = Value{K: ir.F64, F: math.Float64frombits(binary.LittleEndian.Uint64(b))}
	case ir.Pointer:
		*d = Value{K: ir.Pointer, P: m.decodePtr(binary.LittleEndian.Uint64(b))}
	default:
		panic(trap{fmt.Sprintf("load of unsupported type %s", t)})
	}
}

// store writes a typed value to memory.
func (m *Machine) store(t *ir.Type, v Value, p Ptr) {
	size := t.Size()
	checkBounds(p, size)
	b := p.R.Bytes[p.Off:]
	switch t.Kind {
	case ir.Bool:
		b[0] = byte(v.I & 1)
	case ir.I32:
		binary.LittleEndian.PutUint32(b, uint32(v.I))
	case ir.I64:
		binary.LittleEndian.PutUint64(b, uint64(v.I))
	case ir.F32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(v.F)))
	case ir.F64:
		binary.LittleEndian.PutUint64(b, math.Float64bits(v.F))
	case ir.Pointer:
		binary.LittleEndian.PutUint64(b, m.encodePtr(v.P))
	default:
		panic(trap{fmt.Sprintf("store of unsupported type %s", t)})
	}
}

// Buffer helpers for host code (the mini OpenCL runtime).

// WriteInt32s copies host data into a region at a byte offset.
func (r *Region) WriteInt32s(off int64, data []int32) {
	for i, v := range data {
		binary.LittleEndian.PutUint32(r.Bytes[off+int64(i)*4:], uint32(v))
	}
}

// ReadInt32s copies data out of a region.
func (r *Region) ReadInt32s(off int64, n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.Bytes[off+int64(i)*4:]))
	}
	return out
}

// WriteInt64s copies host data into a region.
func (r *Region) WriteInt64s(off int64, data []int64) {
	for i, v := range data {
		binary.LittleEndian.PutUint64(r.Bytes[off+int64(i)*8:], uint64(v))
	}
}

// ReadInt64s copies data out of a region.
func (r *Region) ReadInt64s(off int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(r.Bytes[off+int64(i)*8:]))
	}
	return out
}

// WriteFloat32s copies host data into a region.
func (r *Region) WriteFloat32s(off int64, data []float32) {
	for i, v := range data {
		binary.LittleEndian.PutUint32(r.Bytes[off+int64(i)*4:], math.Float32bits(v))
	}
}

// ReadFloat32s copies data out of a region.
func (r *Region) ReadFloat32s(off int64, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(r.Bytes[off+int64(i)*4:]))
	}
	return out
}

// barrier is a reusable (cyclic) synchronization barrier for the
// work-items of one work-group (tree-walking engine only; the VM
// suspends work-items cooperatively instead).
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   int
	dead  bool
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// barrierPool recycles barriers across work-groups and launches; a
// barrier is only returned after every work-item goroutine has joined,
// so resetting its state is safe.
var barrierPool = sync.Pool{New: func() any { return newBarrier(0) }}

func getBarrier(n int) *barrier {
	b := barrierPool.Get().(*barrier)
	b.n, b.count, b.gen, b.dead = n, 0, 0, false
	return b
}

func putBarrier(b *barrier) { barrierPool.Put(b) }

// poisonMsg marks the collateral unwind of work-items whose sibling
// trapped; error draining prefers the genuine fault over these.
const poisonMsg = "barrier poisoned by sibling work-item fault"

func isPoison(err error) bool {
	t, ok := err.(trap)
	return ok && t.msg == poisonMsg
}

// await blocks until all n work-items arrive. If the barrier has been
// poisoned (a sibling work-item trapped), it panics to unwind this
// work-item too.
func (b *barrier) await() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		panic(trap{poisonMsg})
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen && !b.dead {
		b.cond.Wait()
	}
	if b.dead {
		panic(trap{poisonMsg})
	}
}

// poison wakes all waiters with a fault so a trapped work-group unwinds
// instead of deadlocking.
func (b *barrier) poison() {
	b.mu.Lock()
	b.dead = true
	b.cond.Broadcast()
	b.mu.Unlock()
}
