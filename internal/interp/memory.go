// Package interp executes IR modules the way an OpenCL device would run
// native kernel code: an NDRange of work-groups, work-items running
// concurrently within a group (one goroutine each), work-group barriers,
// atomics, and byte-addressed memory split into regions (buffers, local
// scratchpads, private allocas). Every region is registered with its
// machine when it is created; a pointer is one word, the region's ID
// above a signed byte offset, in a VM register and in memory alike, and
// decodes through a registry that takes no lock.
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

// Region is a contiguous block of byte-addressable memory. A region is
// registered with its machine when it is created, and the ID it gets
// there is what a pointer word names it by.
type Region struct {
	ID    int
	Bytes []byte
	Space ir.AddrSpace
}

// Ptr is a pointer value of the host API and the tree-walker: a region
// plus a byte offset. The VM holds the same pointer as one word (ptrWord).
type Ptr struct {
	R   *Region
	Off int64
}

// IsNull reports whether the pointer is null.
func (p Ptr) IsNull() bool { return p.R == nil }

// Value is a runtime value of the host API and the tree-walker: one of
// the scalar kinds or a pointer. The VM's registers hold the same value
// as one word (Machine.word).
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
	// Mod is the module the machine launches. A pooled machine is
	// pointed at each launch's module after Reset.
	Mod *ir.Module

	// Engine selects the execution engine: the bytecode VM (default) or
	// the tree-walking reference interpreter.
	Engine Engine

	// Workers is the persistent worker set VM launches borrow parallel
	// group runners from (opencl.MachinePool seeds it per platform).
	// Nil machines share a process-wide default pool.
	Workers *WorkerPool

	regions regionTable

	// MaxSteps bounds the total instructions one Launch may execute
	// across all its work-items and call frames. Zero means the default
	// budget (defaultMaxSteps).
	MaxSteps int64

	// prog is the compiled bytecode of Mod, resolved lazily from the
	// module (SharedProgram). Machines are owned by one launch at a time
	// (the pool hands them out exclusively), so no lock is needed.
	prog *Prog

	// Profiler, when set, collects the execution profiles of VM
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

// Program returns the machine's compiled bytecode, resolving the
// module's shared program on first use; sliced launches and re-plans
// reuse it until Reset.
func (m *Machine) Program() *Prog {
	if m.prog == nil {
		m.prog = SharedProgram(m.Mod)
	}
	return m.prog
}

// UseProgram seeds the machine with an already-compiled program (a
// compile variant, or one resolved ahead of the launch). Programs for a
// different module are ignored.
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

// atomicLock returns the stripe lock for the region's backing array.
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
	// Region ID 0 is reserved so that the zero word is the null pointer.
	m.regions.next = 1
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
	m.regions.set(r, m.regions.reserve(1))
	return r
}

// Reset drops the machine's program and every region, so a pooled
// machine can be pointed at any module next (by setting Mod) without
// running a stale program or keeping bound buffer bytes alive. Pointers
// stored into surviving memory before the reset become dangling,
// exactly as across separate machines.
func (m *Machine) Reset() {
	m.prog = nil
	m.interrupt.Store(nil)
	m.regions.truncate(1)
}

// regionByID resolves a region ID.
func (m *Machine) regionByID(id int) *Region { return m.regions.get(uint64(id)) }

// regionTable is the registry pointer words name regions by. Decoding
// takes no lock: pages never move once published, and the directory is
// replaced, never mutated, when it grows. Registering takes the lock
// once per block of IDs (reserve), not once per region.
type regionTable struct {
	mu   sync.Mutex
	next int // IDs handed out, the reserved ID 0 included
	dir  atomic.Pointer[[]*regionPage]
}

const regionPageBits = 8

type regionPage [1 << regionPageBits]atomic.Pointer[Region]

// reserve hands out n consecutive IDs and returns the first (with n 0,
// the first ID not yet handed out).
func (t *regionTable) reserve(n int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.next
	if first+n > 1<<(64-ptrOffBits) {
		panic(trap{"too many regions for a pointer word"})
	}
	t.next += n
	var dir []*regionPage
	if d := t.dir.Load(); d != nil {
		dir = *d
	}
	if need := (t.next-1)>>regionPageBits + 1; need > len(dir) {
		grown := append(dir[:len(dir):len(dir)], make([]*regionPage, need-len(dir))...)
		for i := len(dir); i < need; i++ {
			grown[i] = new(regionPage)
		}
		t.dir.Store(&grown)
	}
	return first
}

// set gives r the reserved ID id.
func (t *regionTable) set(r *Region, id int) {
	r.ID = id
	(*t.dir.Load())[id>>regionPageBits][id&(1<<regionPageBits-1)].Store(r)
}

// get returns the region with ID id: nil for 0 and for an ID that was
// never handed out or has been dropped.
func (t *regionTable) get(id uint64) *Region {
	d := t.dir.Load()
	if d == nil || id>>regionPageBits >= uint64(len(*d)) {
		return nil
	}
	return (*d)[id>>regionPageBits][id&(1<<regionPageBits-1)].Load()
}

// truncate drops every region with an ID at or above n.
func (t *regionTable) truncate(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.dir.Load(); d != nil {
		for id := n; id < t.next; id++ {
			(*d)[id>>regionPageBits][id&(1<<regionPageBits-1)].Store(nil)
		}
	}
	t.next = n
}

// A pointer word is a region ID above ptrOffBits and a signed byte offset
// below: the form of a pointer in a VM register and in memory. The null
// pointer is the zero word, and no other word names region 0. Offset
// arithmetic wraps within the offset field; only an access checks it.
const ptrOffBits = 40

// ptrOff is the signed byte offset of pointer word w.
func ptrOff(w uint64) int64 { return int64(w<<(64-ptrOffBits)) >> (64 - ptrOffBits) }

// gep offsets pointer word p by delta bytes; a null base traps: it has
// no region to offset into.
func gep(p uint64, delta int64) uint64 {
	if p == 0 {
		panic(trap{"gep on null pointer"})
	}
	const mask = 1<<ptrOffBits - 1
	return p&^mask | (p+uint64(delta))&mask
}

// encodePtr packs a pointer into its word, registering a region that
// has no ID yet.
func (m *Machine) encodePtr(p Ptr) uint64 {
	if p.R == nil {
		return 0
	}
	if p.R.ID == 0 {
		m.regions.set(p.R, m.regions.reserve(1))
	}
	if p.Off < -1<<(ptrOffBits-1) || p.Off >= 1<<(ptrOffBits-1) {
		panic(trap{fmt.Sprintf("pointer offset %d out of encodable range", p.Off)})
	}
	return uint64(p.R.ID)<<ptrOffBits | uint64(p.Off)&(1<<ptrOffBits-1)
}

// decodePtr unpacks a pointer word.
func (m *Machine) decodePtr(w uint64) Ptr {
	if w == 0 {
		return Ptr{}
	}
	r := m.regions.get(w >> ptrOffBits)
	if r == nil {
		panic(trap{fmt.Sprintf("load of dangling pointer word %#x", w)})
	}
	return Ptr{R: r, Off: ptrOff(w)}
}

// word is v's register word, the form every VM register and shared
// helper holds a value in: an integer sign-extended (a bool 0 or 1), a
// float as its float64 bits (an F32 is a float64 rounded to float32
// precision), a pointer encoded. The tree-walker crosses into the shared
// helpers through word and value.
func (m *Machine) word(v Value) uint64 {
	switch v.K {
	case ir.F32, ir.F64:
		return math.Float64bits(v.F)
	case ir.Pointer:
		return m.encodePtr(v.P)
	}
	return uint64(v.I)
}

// value is the Value of kind k that register word w holds.
func (m *Machine) value(k ir.Kind, w uint64) Value {
	switch k {
	case ir.F32, ir.F64:
		return Value{K: k, F: math.Float64frombits(w)}
	case ir.Pointer:
		return Value{K: k, P: m.decodePtr(w)}
	}
	return Value{K: k, I: int64(w)}
}

// trap is an execution fault (out-of-bounds access, division by zero, ...).
type trap struct{ msg string }

func (t trap) Error() string { return "interp: " + t.msg }

// region is the region pointer word p names, trapping on a null or
// dangling word.
func (m *Machine) region(p uint64) *Region {
	r := m.regions.get(p >> ptrOffBits)
	if r == nil {
		if p == 0 {
			panic(trap{"null pointer dereference"})
		}
		panic(trap{fmt.Sprintf("access through dangling pointer word %#x", p)})
	}
	return r
}

// span is the one bounds check of a memory access: the size bytes at
// offset off of b, or false when they do not all lie inside b.
func span(b []byte, off, size int64) ([]byte, bool) {
	if off < 0 || off > int64(len(b))-size {
		return nil, false
	}
	return b[off : off+size], true
}

// mem returns the size bytes pointer word p addresses, trapping on a
// null, dangling or out-of-bounds access.
func (m *Machine) mem(p uint64, size int64) []byte { return m.region(p).at(p, size) }

// at returns the size bytes at pointer word p's offset in r, trapping
// when they do not all lie inside it.
func (r *Region) at(p uint64, size int64) []byte {
	b, ok := span(r.Bytes, ptrOff(p), size)
	if !ok {
		panic(trap{fmt.Sprintf("out-of-bounds access: offset %d size %d in region of %d bytes", ptrOff(p), size, len(r.Bytes))})
	}
	return b
}

// kindSize is the number of bytes a value of each kind occupies in memory.
var kindSize = [ir.Pointer + 1]int64{ir.Bool: 1, ir.I32: 4, ir.I64: 8, ir.F32: 4, ir.F64: 8, ir.Pointer: 8}

// get and put are the single spelling of how a register word of each
// kind sits in its bytes b. With a constant kind they fold to one form.
func get(kind ir.Kind, b []byte) uint64 {
	switch kind {
	case ir.Bool:
		return uint64(b[0] & 1)
	case ir.I32:
		return uint64(int64(int32(binary.LittleEndian.Uint32(b))))
	case ir.F32:
		return math.Float64bits(float64(math.Float32frombits(binary.LittleEndian.Uint32(b))))
	}
	return binary.LittleEndian.Uint64(b)
}

func put(kind ir.Kind, b []byte, v uint64) {
	switch kind {
	case ir.Bool:
		b[0] = byte(v & 1)
	case ir.I32:
		binary.LittleEndian.PutUint32(b, uint32(v))
	case ir.F32:
		binary.LittleEndian.PutUint32(b, math.Float32bits(float32(math.Float64frombits(v))))
	default:
		binary.LittleEndian.PutUint64(b, v)
	}
}

// The typed loads and stores over pointer words, one per memory form.
// The dispatch loops call them by typed opcode; the fused opcodes and the
// tree-walker, which carry a kind, go through loadKind and storeKind.
func (m *Machine) loadI1(p uint64) uint64  { return get(ir.Bool, m.mem(p, 1)) }
func (m *Machine) loadI32(p uint64) uint64 { return get(ir.I32, m.mem(p, 4)) }
func (m *Machine) loadF32(p uint64) uint64 { return get(ir.F32, m.mem(p, 4)) }
func (m *Machine) load64(p uint64) uint64  { return get(ir.I64, m.mem(p, 8)) }

// loadPtr loads a pointer word, trapping on one that names no region.
func (m *Machine) loadPtr(p uint64) uint64 { return m.live(m.load64(p)) }

// live returns the loaded pointer word w, trapping if it names no region.
func (m *Machine) live(w uint64) uint64 {
	if w != 0 && m.regions.get(w>>ptrOffBits) == nil {
		panic(trap{fmt.Sprintf("load of dangling pointer word %#x", w)})
	}
	return w
}

func (m *Machine) storeI1(p, v uint64)  { put(ir.Bool, m.mem(p, 1), v) }
func (m *Machine) storeI32(p, v uint64) { put(ir.I32, m.mem(p, 4), v) }
func (m *Machine) storeF32(p, v uint64) { put(ir.F32, m.mem(p, 4), v) }
func (m *Machine) store64(p, v uint64)  { put(ir.I64, m.mem(p, 8), v) }

// loadKind and storeKind index the typed loads and stores by ir.Kind.
var (
	loadKind = [ir.Pointer + 1]func(*Machine, uint64) uint64{ir.Bool: (*Machine).loadI1, ir.I32: (*Machine).loadI32,
		ir.I64: (*Machine).load64, ir.F32: (*Machine).loadF32, ir.F64: (*Machine).load64, ir.Pointer: (*Machine).loadPtr}
	storeKind = [ir.Pointer + 1]func(*Machine, uint64, uint64){ir.Bool: (*Machine).storeI1, ir.I32: (*Machine).storeI32,
		ir.I64: (*Machine).store64, ir.F32: (*Machine).storeF32, ir.F64: (*Machine).store64, ir.Pointer: (*Machine).store64}
)

// load reads a value of type t from memory into d (the tree-walker's
// typed access).
func (m *Machine) load(d *Value, t *ir.Type, p Ptr) {
	if t.Kind == ir.Void {
		panic(trap{fmt.Sprintf("load of unsupported type %s", t)})
	}
	*d = m.value(t.Kind, loadKind[t.Kind](m, m.encodePtr(p)))
}

// store writes a value of type t to memory.
func (m *Machine) store(t *ir.Type, v Value, p Ptr) {
	if t.Kind == ir.Void {
		panic(trap{fmt.Sprintf("store of unsupported type %s", t)})
	}
	storeKind[t.Kind](m, m.encodePtr(p), m.word(v))
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
