// Package opencl is a miniature OpenCL host API over the in-process
// device substitute: platforms/contexts/programs/kernels/buffers/queues
// with the call shapes of the real API (level 0 of the paper's stack,
// Fig. 5). Functional execution runs on the IR interpreter; timing
// studies use internal/sim instead.
//
// The accelOS runtime (internal/accelos) interposes on this API through
// ProxyCL exactly as the paper's runtime interposes on vendor OpenCL.
package opencl

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/clc"
	"repro/internal/device"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/telemetry"
)

// Platform pairs the API with a modeled device.
type Platform struct {
	Dev *device.Platform

	machOnce sync.Once
	machines *MachinePool
}

// Machines returns the platform's persistent interpreter machine pool
// (created on first use). Launch handles draw their machines from here
// so the execution hot path reuses machines instead of constructing one
// per launch.
func (p *Platform) Machines() *MachinePool {
	p.machOnce.Do(func() { p.machines = NewMachinePool() })
	return p.machines
}

// GetPlatforms lists the available platforms (the paper's two
// evaluation machines).
func GetPlatforms() []*Platform {
	var ps []*Platform
	for _, d := range device.Platforms() {
		ps = append(ps, &Platform{Dev: d})
	}
	return ps
}

// Context owns device memory and programs.
type Context struct {
	Plat *Platform

	// mu serialises buffer creation: the ledger check, the backing and
	// the charge. Frees and readers use allocated without it, and the
	// enqueue path never takes it.
	mu        sync.Mutex
	allocated atomic.Int64
	tracer    atomic.Pointer[telemetry.Tracer]
	metrics   atomic.Pointer[telemetry.Registry]
}

// SetTracer installs a trace-span sink on the context: every command
// its queues complete then emits a span from the event's profiling
// stamps. Nil removes it; with no tracer the hot path pays one atomic
// load per enqueue. Install before enqueuing work.
func (c *Context) SetTracer(t *telemetry.Tracer) { c.tracer.Store(t) }

// SetMetrics installs a metrics registry on the context: transfer
// commands then count DMA bytes and wall time per queue label. Nil
// removes it. Install before enqueuing work.
func (c *Context) SetMetrics(r *telemetry.Registry) { c.metrics.Store(r) }

// telemetrySinks snapshots the installed sinks for one enqueue.
func (c *Context) telemetrySinks() (*telemetry.Tracer, *telemetry.Registry) {
	return c.tracer.Load(), c.metrics.Load()
}

// CreateContext returns a context on the platform.
func (p *Platform) CreateContext() *Context {
	return &Context{Plat: p}
}

// GlobalMemBytes returns the device memory capacity.
func (c *Context) GlobalMemBytes() int64 {
	return c.Plat.Dev.GlobalMemMB * 1024 * 1024
}

// AllocatedBytes returns the current device memory usage.
func (c *Context) AllocatedBytes() int64 { return c.allocated.Load() }

// Buffer is a device memory allocation. Under the asynchronous API a
// buffer may have commands in flight at any moment, so its lifetime is
// refcount-aware: commands pin it while queued or running, Release marks
// it released immediately but defers the actual free until the last pin
// drops, and commands touching a released buffer fail with
// ErrBufferReleased instead of racing on Bytes.
type Buffer struct {
	ctx  *Context
	Size int64
	// Region is the backing store; the accelOS runtime binds it to the
	// interpreter machine at launch time.
	Bytes []byte

	mu       sync.Mutex
	pins     int
	released bool
	freed    bool
	onFree   func()
}

// CreateBuffer allocates device memory.
func (c *Context) CreateBuffer(size int64) (*Buffer, error) {
	return c.CreateBufferBacked(size, func() ([]byte, error) { return make([]byte, size), nil })
}

// CreateBufferBacked allocates a buffer of size bytes whose device
// backing back makes once the ledger has room for them (clCreateBuffer
// with CL_MEM_USE_HOST_PTR). The accelOS service layer backs buffers
// with shared-memory segments mapped into both the daemon and its
// client, so kernel launches bind the client's own pages and transfers
// never copy; a refused allocation makes no segment. The backing must
// stay valid until the buffer is freed.
func (c *Context) CreateBufferBacked(size int64, back func() ([]byte, error)) (*Buffer, error) {
	if size <= 0 {
		return nil, fmt.Errorf("opencl: invalid buffer size %d", size)
	}
	// A free racing this create only lowers allocated, so the check
	// stays safe while back runs.
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.allocated.Load()+size > c.GlobalMemBytes() {
		return nil, ErrOutOfMemory
	}
	b, err := back()
	if err != nil {
		return nil, err
	}
	c.allocated.Add(size)
	return &Buffer{ctx: c, Size: size, Bytes: b}, nil
}

// ErrOutOfMemory mirrors CL_MEM_OBJECT_ALLOCATION_FAILURE.
var ErrOutOfMemory = fmt.Errorf("opencl: device memory exhausted")

// ErrBufferReleased fails commands enqueued on — or still queued when
// the application released — a buffer.
var ErrBufferReleased = fmt.Errorf("opencl: buffer released with command in flight")

// Pin takes a command reference on the buffer: the memory stays alive
// until the matching Unpin even if the application releases the buffer
// meanwhile. Pinning a released buffer fails.
func (b *Buffer) Pin() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.released {
		return ErrBufferReleased
	}
	b.pins++
	return nil
}

// Unpin drops a command reference; the last Unpin after Release frees
// the device memory.
func (b *Buffer) Unpin() {
	b.mu.Lock()
	b.pins--
	free := b.released && b.pins == 0 && !b.freed
	if free {
		b.freed = true
	}
	b.mu.Unlock()
	if free {
		b.free()
	}
}

// Released reports whether the application has released the buffer.
func (b *Buffer) Released() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.released
}

// Pinned reports how many commands currently hold the buffer (tests and
// monitoring).
func (b *Buffer) Pinned() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.pins
}

// Release marks the buffer released. With no commands in flight the
// device memory is freed immediately; otherwise the free is deferred to
// the last Unpin, queued commands fail with ErrBufferReleased when they
// would run, and new enqueues are rejected. Double release is a no-op.
// Buffers constructed outside a context (ctx == nil, e.g. host-side
// descriptor images) release to nothing instead of faulting.
func (b *Buffer) Release() { b.ReleaseFunc(nil) }

// ReleaseFunc is Release with a hook invoked exactly once when the
// device memory is actually freed (immediately, or at the last Unpin).
// Runtime layers use it to mirror their own memory accounting.
func (b *Buffer) ReleaseFunc(onFree func()) {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return
	}
	b.released = true
	b.onFree = onFree
	free := b.pins == 0 && !b.freed
	if free {
		b.freed = true
	}
	b.mu.Unlock()
	if free {
		b.free()
	}
}

// free returns the memory to the context's accounting and fires the
// release hook. Called exactly once, guarded by b.freed.
func (b *Buffer) free() {
	if b.ctx != nil {
		b.ctx.allocated.Add(-b.Size)
	}
	b.mu.Lock()
	hook := b.onFree
	b.onFree = nil
	b.mu.Unlock()
	if hook != nil {
		hook()
	}
}

// Program is kernel source plus its build product, the IR module (which
// keeps the interpreter's compiled bytecode once a kernel has launched).
type Program struct {
	Ctx    *Context
	Source string
	Module *ir.Module
}

// CreateProgramWithSource registers kernel source.
func (c *Context) CreateProgramWithSource(src string) *Program {
	return &Program{Ctx: c, Source: src}
}

// Build compiles the program ("vendor compiler" path). The accelOS JIT
// intercepts this step and substitutes the transformed module.
func (p *Program) Build() error {
	if p.Module != nil {
		return nil
	}
	m, err := clc.Compile(p.Source, "program")
	if err != nil {
		return fmt.Errorf("opencl: build failed: %w", err)
	}
	p.Module = m
	return nil
}

// Compiled returns the program's bytecode: the module's shared program,
// compiled on first use (interp.SharedProgram).
func (p *Program) Compiled() *interp.Prog {
	if p.Module == nil {
		return nil
	}
	return interp.SharedProgram(p.Module)
}

// Kernel is a program entry point with bound arguments.
type Kernel struct {
	Prog *Program
	Name string

	args []arg
}

type arg struct {
	set       bool
	buf       *Buffer
	localSize int64 // > 0: local-memory argument of this byte size
	val       interp.Value
}

// CreateKernel resolves a kernel by name.
func (p *Program) CreateKernel(name string) (*Kernel, error) {
	if p.Module == nil {
		return nil, fmt.Errorf("opencl: program not built")
	}
	f := p.Module.Lookup(name)
	if f == nil || !f.Kernel {
		return nil, fmt.Errorf("opencl: kernel %q not found", name)
	}
	return &Kernel{Prog: p, Name: name, args: make([]arg, len(f.Params))}, nil
}

// freeze copies the kernel's bindings for one launch and collects the
// buffers they name, failing on an argument never set. The launch binds
// the copy, so the caller may rebind the kernel at once.
func (k *Kernel) freeze() ([]arg, []*Buffer, error) {
	args := make([]arg, len(k.args))
	copy(args, k.args)
	bufs := make([]*Buffer, 0, len(args))
	for i, a := range args {
		if !a.set {
			return nil, nil, unsetArg(k.Name, i)
		}
		if a.buf != nil {
			bufs = append(bufs, a.buf)
		}
	}
	return args, bufs, nil
}

// Snapshot freezes the kernel's bindings into a new Kernel of the same
// program and returns it with the buffers they name: the form a runtime
// that launches the kernel later, through NewLaunchHandle, keeps.
// Rebinding k does not change the snapshot. An argument never set fails
// it.
func (k *Kernel) Snapshot() (*Kernel, []*Buffer, error) {
	args, bufs, err := k.freeze()
	if err != nil {
		return nil, nil, err
	}
	return &Kernel{Prog: k.Prog, Name: k.Name, args: args}, bufs, nil
}

// bind turns a kernel's bindings into the values a launch on mach
// passes, binding buffers into the machine zero-copy. extra reserves
// room for values the caller appends (the RT descriptor).
func bind(mach *interp.Machine, name string, args []arg, extra int) ([]interp.Value, error) {
	vals := make([]interp.Value, 0, len(args)+extra)
	for i, a := range args {
		switch {
		case !a.set:
			return nil, unsetArg(name, i)
		case a.buf != nil:
			r := mach.BindRegion(a.buf.Bytes, ir.Global)
			vals = append(vals, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
		case a.localSize > 0:
			vals = append(vals, interp.LocalArgV(a.localSize))
		default:
			vals = append(vals, a.val)
		}
	}
	return vals, nil
}

func unsetArg(kernel string, i int) error {
	return fmt.Errorf("opencl: kernel %q argument %d not set", kernel, i)
}

// NumArgs returns the kernel's declared argument count.
func (k *Kernel) NumArgs() int { return len(k.args) }

// SetArgBuffer binds a buffer argument.
func (k *Kernel) SetArgBuffer(i int, b *Buffer) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("opencl: argument index %d out of range", i)
	}
	k.args[i] = arg{set: true, buf: b}
	return nil
}

// SetArgInt32 binds an int scalar.
func (k *Kernel) SetArgInt32(i int, v int32) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("opencl: argument index %d out of range", i)
	}
	k.args[i] = arg{set: true, val: interp.IntV(int64(v))}
	return nil
}

// SetArgInt64 binds a long scalar.
func (k *Kernel) SetArgInt64(i int, v int64) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("opencl: argument index %d out of range", i)
	}
	k.args[i] = arg{set: true, val: interp.LongV(v)}
	return nil
}

// SetArgFloat32 binds a float scalar.
func (k *Kernel) SetArgFloat32(i int, v float32) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("opencl: argument index %d out of range", i)
	}
	k.args[i] = arg{set: true, val: interp.FloatV(float64(v))}
	return nil
}

// SetArgLocal binds a local-memory argument of the given byte size (the
// clSetKernelArg(size, NULL) form for __local pointer parameters): at
// launch every work-group receives its own zeroed local region of that
// size.
func (k *Kernel) SetArgLocal(i int, size int64) error {
	if i < 0 || i >= len(k.args) {
		return fmt.Errorf("opencl: argument index %d out of range", i)
	}
	if size <= 0 {
		return fmt.Errorf("opencl: local argument %d has non-positive size %d", i, size)
	}
	k.args[i] = arg{set: true, localSize: size}
	return nil
}

// NDRange is a launch geometry.
type NDRange = interp.NDRange

// ND1 builds a 1-D launch geometry.
func ND1(global, local int64) NDRange { return interp.ND1(global, local) }

// ND2 builds a 2-D launch geometry.
func ND2(gx, gy, lx, ly int64) NDRange { return interp.ND2(gx, gy, lx, ly) }
