package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/service"
)

// launchSpec is one kernel launch with fixed inputs and the outputs the
// untransformed kernel produces for them. Every rung of the ladder —
// interp, opencl, accelos, service — runs the same spec, so the rungs
// differ only in the layers between the caller and the VM.
type launchSpec struct {
	name   string // "bump" or the Parboil "benchmark/kernel"
	source string
	kernel string
	nd     opencl.NDRange
	args   []specArg
}

// specArg is a scalar (data == nil) or an array argument. Arrays marked
// out are read back after the launch and compared with want.
type specArg struct {
	scalar int32
	data   []byte
	out    bool
	want   []byte
}

const (
	bumpItems = 256
	bumpLocal = 64
	bumpSrc   = `
kernel void bump(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = out[i] + 1;
}
`
)

// bumpSpec is the small chain of solo-small and churn-sessions: 1 KiB
// written, 256 work-items, 1 KiB read back; the read-back must equal
// input+1.
func bumpSpec(input []byte) *launchSpec {
	want := make([]byte, len(input))
	for i := 0; i < len(input); i += 4 {
		binary.LittleEndian.PutUint32(want[i:], binary.LittleEndian.Uint32(input[i:])+1)
	}
	return &launchSpec{
		name:   "bump",
		source: bumpSrc,
		kernel: "bump",
		nd:     opencl.ND1(bumpItems, bumpLocal),
		args: []specArg{
			{data: input, out: true, want: want},
			{scalar: bumpItems},
		},
	}
}

// parboilSpec is a Parboil verification launch; want is what
// Kernel.RunNative produces for the same inputs.
func parboilSpec(k *parboil.Kernel) (*launchSpec, error) {
	native, err := k.RunNative()
	if err != nil {
		return nil, fmt.Errorf("%s: native run: %w", k.FullName(), err)
	}
	ls := k.Setup()
	s := &launchSpec{
		name:   k.FullName(),
		source: k.Source,
		kernel: k.Name,
		nd:     opencl.NDRange{Dims: ls.Dims, Global: ls.Global, Local: ls.Local},
	}
	for i, a := range ls.Args {
		if a.Scalar != nil {
			s.args = append(s.args, specArg{scalar: int32(*a.Scalar)})
			continue
		}
		data := parboil.EncodeArg(a)
		if data == nil {
			return nil, fmt.Errorf("%s: argument %q has no value", k.FullName(), a.Name)
		}
		s.args = append(s.args, specArg{data: data, out: a.Out, want: native[i]})
	}
	return s, nil
}

// parboilSpecs builds all 25 specs in registration order.
func parboilSpecs() ([]*launchSpec, error) {
	var specs []*launchSpec
	for _, k := range parboil.Kernels() {
		s, err := parboilSpec(k)
		if err != nil {
			return nil, err
		}
		specs = append(specs, s)
	}
	return specs, nil
}

type enqueueFn func(buf []byte, waits ...*opencl.Event) (*opencl.Event, error)

// chain is a launchSpec bound to one API surface: programs, kernels and
// buffers exist, and run issues write→kernel→read against them.
type chain struct {
	spec    *launchSpec
	layer   string      // span prefix: "service", "accelos" or "opencl"
	tenant  string      // span track
	write   []enqueueFn // one per array argument
	read    []enqueueFn // one per out argument
	launch  func(waits ...*opencl.Event) (*opencl.Event, error)
	outs    [][]byte // read-back targets, parallel to read
	want    [][]byte
	uploads []*opencl.Event // scratch, reused across runs
	reads   []*opencl.Event
}

// chainTimes are the stamps of one run: enq is the time inside the
// enqueue calls, total the time from the first call to the last read
// having landed. kernel is the launch event, kept for ProfilingInfo.
type chainTimes struct {
	enq, total time.Duration
	kernel     *opencl.Event
}

// run issues the chain gated on a user event, so every command is
// enqueued before any runs, then waits for the reads and compares them.
// The gate also keeps the service client's mirror events registered
// until the commands that name them in wait lists have been sent (see
// README, "gated chain").
//
// parent and op place the chain's spans: a chain that is an op of its
// own passes 0, 0; a chain inside a round passes the round's span id
// twice.
func (c *chain) run(rec *recorder, parent, op int64) (chainTimes, error) {
	var ct chainTimes
	id := rec.newID()
	if op == 0 {
		op = id
	}
	t0 := time.Now()
	gate := opencl.NewUserEvent()
	err := c.enqueue(gate, &ct)
	tEnq := time.Now()
	gate.Complete()
	if err == nil {
		for _, ev := range c.reads {
			if werr := ev.Wait(); werr != nil && err == nil {
				err = fmt.Errorf("%s: %w", c.spec.name, werr)
			}
		}
	}
	t1 := time.Now()
	ct.enq, ct.total = tEnq.Sub(t0), t1.Sub(t0)
	if rec != nil {
		rec.add(id, parent, op, c.tenant, c.layer+".chain "+c.spec.name, t0, t1)
		rec.add(rec.newID(), id, op, c.tenant, c.layer+".enqueue", t0, tEnq)
		rec.add(rec.newID(), id, op, c.tenant, c.layer+".wait", tEnq, t1)
	}
	if err != nil {
		return ct, err
	}
	for i, out := range c.outs {
		if !bytes.Equal(out, c.want[i]) {
			return ct, fmt.Errorf("%s: output %d differs from the native reference", c.spec.name, i)
		}
	}
	return ct, nil
}

func (c *chain) enqueue(gate *opencl.Event, ct *chainTimes) error {
	c.uploads, c.reads = c.uploads[:0], c.reads[:0]
	w := 0
	for _, a := range c.spec.args {
		if a.data == nil {
			continue
		}
		ev, err := c.write[w](a.data, gate)
		if err != nil {
			return fmt.Errorf("%s: write: %w", c.spec.name, err)
		}
		c.uploads = append(c.uploads, ev)
		w++
	}
	kev, err := c.launch(c.uploads...)
	if err != nil {
		return fmt.Errorf("%s: enqueue: %w", c.spec.name, err)
	}
	ct.kernel = kev
	for i, rd := range c.read {
		ev, err := rd(c.outs[i], kev)
		if err != nil {
			return fmt.Errorf("%s: read: %w", c.spec.name, err)
		}
		c.reads = append(c.reads, ev)
	}
	return nil
}

// binder is what an API surface supplies to build a chain over it:
// scalar binding, buffer creation bound to argument i (returning the
// buffer's write and read enqueues), and the kernel launch.
type binder struct {
	layer     string
	setScalar func(i int, v int32) error
	buffer    func(i int, size int64) (write, read enqueueFn, err error)
	launch    func(waits ...*opencl.Event) (*opencl.Event, error)
}

func newChain(s *launchSpec, b binder) (*chain, error) {
	c := &chain{spec: s, layer: b.layer, launch: b.launch}
	for i, a := range s.args {
		if a.data == nil {
			if err := b.setScalar(i, a.scalar); err != nil {
				return nil, fmt.Errorf("%s: argument %d: %w", s.name, i, err)
			}
			continue
		}
		wr, rd, err := b.buffer(i, int64(len(a.data)))
		if err != nil {
			return nil, fmt.Errorf("%s: buffer %d: %w", s.name, i, err)
		}
		c.write = append(c.write, wr)
		if a.out {
			c.read = append(c.read, rd)
			c.outs = append(c.outs, make([]byte, len(a.data)))
			c.want = append(c.want, a.want)
		}
	}
	return c, nil
}

// serviceChain builds the spec's program, kernel and buffers in the
// daemon through one client connection.
func serviceChain(cl *service.Client, s *launchSpec) (*chain, error) {
	prog, err := cl.CreateProgram(s.source)
	if err != nil {
		return nil, fmt.Errorf("%s: program: %w", s.name, err)
	}
	k, err := prog.CreateKernel(s.kernel)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel: %w", s.name, err)
	}
	return newChain(s, binder{
		layer:     "service",
		setScalar: k.SetArgInt32,
		buffer: func(i int, size int64) (enqueueFn, enqueueFn, error) {
			b, err := cl.CreateBuffer(size)
			if err != nil {
				return nil, nil, err
			}
			wr := func(d []byte, w ...*opencl.Event) (*opencl.Event, error) { return b.WriteAsync(0, d, w...) }
			rd := func(o []byte, w ...*opencl.Event) (*opencl.Event, error) { return b.ReadAsync(0, o, w...) }
			return wr, rd, k.SetArgBuffer(i, b)
		},
		launch: func(w ...*opencl.Event) (*opencl.Event, error) { return cl.EnqueueKernelAsync(k, s.nd, w...) },
	})
}

// appChain is serviceChain without the socket: the same runtime entered
// through an in-process accelos.App.
func appChain(app *accelos.App, s *launchSpec) (*chain, error) {
	prog, err := app.CreateProgram(s.source)
	if err != nil {
		return nil, fmt.Errorf("%s: program: %w", s.name, err)
	}
	k, err := prog.CreateKernel(s.kernel)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel: %w", s.name, err)
	}
	return newChain(s, binder{
		layer:     "accelos",
		setScalar: k.SetArgInt32,
		buffer: func(i int, size int64) (enqueueFn, enqueueFn, error) {
			b, err := app.CreateBuffer(size)
			if err != nil {
				return nil, nil, err
			}
			wr := func(d []byte, w ...*opencl.Event) (*opencl.Event, error) { return b.WriteAsync(0, d, w...) }
			rd := func(o []byte, w ...*opencl.Event) (*opencl.Event, error) { return b.ReadAsync(0, o, w...) }
			return wr, rd, k.SetArgBuffer(i, b)
		},
		launch: func(w ...*opencl.Event) (*opencl.Event, error) { return app.EnqueueKernelAsync(k, s.nd, w...) },
	})
}

// nativeChain runs the untransformed kernel on a plain out-of-order
// opencl.CommandQueue: no accelOS, no wrapper, no daemon.
func nativeChain(ctx *opencl.Context, s *launchSpec) (*chain, error) {
	prog := ctx.CreateProgramWithSource(s.source)
	if err := prog.Build(); err != nil {
		return nil, fmt.Errorf("%s: build: %w", s.name, err)
	}
	k, err := prog.CreateKernel(s.kernel)
	if err != nil {
		return nil, fmt.Errorf("%s: kernel: %w", s.name, err)
	}
	q := ctx.CreateOutOfOrderQueue()
	return newChain(s, binder{
		layer:     "opencl",
		setScalar: k.SetArgInt32,
		buffer: func(i int, size int64) (enqueueFn, enqueueFn, error) {
			b, err := ctx.CreateBuffer(size)
			if err != nil {
				return nil, nil, err
			}
			wr := func(d []byte, w ...*opencl.Event) (*opencl.Event, error) { return q.EnqueueWrite(b, 0, d, w...) }
			rd := func(o []byte, w ...*opencl.Event) (*opencl.Event, error) { return q.EnqueueRead(b, 0, o, w...) }
			return wr, rd, k.SetArgBuffer(i, b)
		},
		launch: func(w ...*opencl.Event) (*opencl.Event, error) { return q.EnqueueKernel(k, s.nd, w...) },
	})
}
