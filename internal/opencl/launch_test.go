package opencl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rtlib"
)

const markSrc = `
kernel void mark(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = out[i] + i + 1;
}
`

// markModules is markSrc compiled and JIT-transformed, once.
var markModules = sync.OnceValues(func() ([2]*ir.Module, error) {
	orig, err := clc.Compile(markSrc, "mark_prog")
	if err != nil {
		return [2]*ir.Module{}, err
	}
	res, err := accelpass.Transform(ir.CloneModule(orig))
	if err != nil {
		return [2]*ir.Module{}, err
	}
	return [2]*ir.Module{orig, res.Module}, nil
})

// buildTransformed returns the mark kernel's original-signature kernel
// (with bound args) and the transformed module, the way the accelOS
// scheduler hands them to the launch path.
func buildTransformed(t testing.TB, buf *Buffer, n int64) (*Kernel, *ir.Module) {
	t.Helper()
	mods, err := markModules()
	if err != nil {
		t.Fatal(err)
	}
	p := &Program{Module: mods[0]}
	k, err := p.CreateKernel("mark")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, int32(n)); err != nil {
		t.Fatal(err)
	}
	return k, mods[1]
}

// TestLaunchHandleSlicesAndReplans drives a transformed kernel slice by
// slice, changing the plan mid-flight, and checks the result is exactly
// a single pass over every virtual group.
func TestLaunchHandleSlicesAndReplans(t *testing.T) {
	plat := GetPlatforms()[0]
	ctx := plat.CreateContext()
	const groups, local = 16, 64
	const n = groups * local
	buf, err := ctx.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	k, trans := buildTransformed(t, buf, n)

	nd := NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{local, 1, 1}}
	rtWords := rtlib.BuildRT(1, nd.NumGroups(), nd.Local, 1)
	h, err := NewLaunchHandle(plat, trans, k, nd, rtWords, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.SetSliceRounds(1)

	// First slice: 2 workers x chunk 1 x 1 round = 2 virtual groups.
	done, err := h.Step()
	if err != nil || done {
		t.Fatalf("after slice 1: done=%v err=%v", done, err)
	}
	if consumed, total := h.Progress(); consumed != 2 || total != groups {
		t.Fatalf("progress = %d/%d, want 2/%d", consumed, total, groups)
	}

	// Re-plan mid-flight: the next slice covers 4x2 = 8 groups.
	h.UpdatePlan(4, 2)
	if phys, chunk := h.Plan(); phys != 4 || chunk != 2 {
		t.Fatalf("plan = (%d,%d), want (4,2)", phys, chunk)
	}
	if done, err = h.Step(); err != nil || done {
		t.Fatalf("after slice 2: done=%v err=%v", done, err)
	}
	if consumed, _ := h.Progress(); consumed != 10 {
		t.Fatalf("consumed = %d, want 10", consumed)
	}

	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if !h.Done() {
		t.Fatal("handle not done after Run")
	}
	if consumed, total := h.Progress(); consumed != total {
		t.Fatalf("consumed %d of %d after completion", consumed, total)
	}
	// UpdatePlan after completion is a no-op, not a crash.
	h.UpdatePlan(64, 4)

	for i := int64(0); i < n; i++ {
		want := int32(i + 1)
		if got := int32(binary.LittleEndian.Uint32(buf.Bytes[i*4:])); got != want {
			t.Fatalf("out[%d] = %d, want %d (virtual group ran zero or multiple times)", i, got, want)
		}
	}
	// The machine went back to the platform pool on completion.
	if idle := plat.Machines().Idle(); idle != 1 {
		t.Errorf("pool idle machines = %d, want 1", idle)
	}
}

// TestLaunchHandleZeroCopy verifies buffers are bound in place: the
// kernel's writes appear in Buffer.Bytes with no read-back step, and
// host writes between slices are visible to later slices.
func TestLaunchHandleZeroCopy(t *testing.T) {
	plat := GetPlatforms()[0]
	ctx := plat.CreateContext()
	const groups, local = 8, 32
	const n = groups * local
	buf, err := ctx.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	k, trans := buildTransformed(t, buf, n)
	nd := NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{local, 1, 1}}
	rtWords := rtlib.BuildRT(1, nd.NumGroups(), nd.Local, 1)
	h, err := NewLaunchHandle(plat, trans, k, nd, rtWords, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	h.SetSliceRounds(1)
	if done, err := h.Step(); done || err != nil {
		t.Fatalf("first slice: done=%v err=%v", done, err)
	}
	// Virtual group 0 already landed in the buffer — no copy-back.
	if got := int32(binary.LittleEndian.Uint32(buf.Bytes[0:])); got != 1 {
		t.Fatalf("out[0] = %d after first slice, want 1 (zero-copy write not visible)", got)
	}
	// Host mutation between slices is seen by the remaining slices
	// (out[i] += i+1 accumulates on top of it).
	last := int64(n - 1)
	binary.LittleEndian.PutUint32(buf.Bytes[last*4:], 100)
	if err := h.Run(); err != nil {
		t.Fatal(err)
	}
	if got := int32(binary.LittleEndian.Uint32(buf.Bytes[last*4:])); got != int32(100+last+1) {
		t.Fatalf("out[last] = %d, want %d (host write between slices lost)", got, 100+last+1)
	}
}

// TestMachinePoolReuse checks the hot path stops constructing machines:
// sequential launches on one platform share a pooled machine.
func TestMachinePoolReuse(t *testing.T) {
	pool := NewMachinePool()
	mod, err := clc.Compile(markSrc, "pool_prog")
	if err != nil {
		t.Fatal(err)
	}
	m1 := pool.Acquire(mod)
	pool.Release(m1)
	if idle := pool.Idle(); idle != 1 {
		t.Fatalf("idle = %d, want 1", idle)
	}
	m2 := pool.Acquire(mod)
	if m2 != m1 {
		t.Error("pool did not reuse the released machine")
	}
	if idle := pool.Idle(); idle != 0 {
		t.Fatalf("idle = %d after acquire, want 0", idle)
	}
	// Release resets the region registry so bound buffers are dropped.
	r := m2.BindRegion(make([]byte, 64), ir.Global)
	if r.ID <= 0 {
		t.Fatal("bound region got reserved ID")
	}
	pool.Release(m2)
	m3 := pool.Acquire(mod)
	r2 := m3.BindRegion(make([]byte, 64), ir.Global)
	if r2.ID != 1 {
		t.Errorf("region ID after pooled reset = %d, want 1", r2.ID)
	}
}

// TestConcurrentEnqueueSharedBuffer is the opencl-level half of the
// copy-back race regression: two queues launch kernels writing disjoint
// windows of one buffer concurrently; in-place binding means neither
// overwrites the other (run under -race).
func TestConcurrentEnqueueSharedBuffer(t *testing.T) {
	plat := GetPlatforms()[0]
	ctx := plat.CreateContext()
	const half = 1024
	buf, err := ctx.CreateBuffer(2 * half * 4)
	if err != nil {
		t.Fatal(err)
	}
	p := ctx.CreateProgramWithSource(`
kernel void fill(global int* out, int base, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[base + i] = base + i + 7;
}
`)
	if err := p.Build(); err != nil {
		t.Fatal(err)
	}
	mk := func(base int32) *Kernel {
		k, err := p.CreateKernel("fill")
		if err != nil {
			t.Fatal(err)
		}
		_ = k.SetArgBuffer(0, buf)
		_ = k.SetArgInt32(1, base)
		_ = k.SetArgInt32(2, half)
		return k
	}
	nd := NDRange{Dims: 1, Global: [3]int64{half, 1, 1}, Local: [3]int64{64, 1, 1}}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, base := range []int32{0, half} {
		q := ctx.CreateCommandQueue()
		k := mk(base)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if err := q.EnqueueNDRangeKernel(k, nd); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < 2*half; i++ {
		if got := int32(binary.LittleEndian.Uint32(buf.Bytes[i*4:])); got != int32(i+7) {
			t.Fatalf("out[%d] = %d, want %d", i, got, i+7)
		}
	}
}

// runMarkSliced drives the mark kernel over total virtual groups to
// completion under one plan and slice round; see runMarkSchedule.
func runMarkSliced(t *testing.T, phys, chunk, kchunk, total, rounds int64) [][3]int64 {
	t.Helper()
	return runMarkSchedule(t, kchunk, total, sliceSchedule{phys: phys, chunk: chunk, rounds: []int64{rounds}})
}

// sliceSchedule is one way to slice an execution: the plan, the slice
// rounds of each step (cycled), and a device fault before step faultAt
// (0: none) after which a fresh handle resumes from the consumed prefix,
// on the same device or, if relaunch, on the other.
type sliceSchedule struct {
	phys, chunk int64
	rounds      []int64
	faultAt     int
	relaunch    bool
}

var errFault = errors.New("injected device fault")

// runMarkSchedule drives the mark kernel over total virtual groups to
// completion under s, returning LastSlice of every slice. It fails the
// test unless every virtual group ran exactly once and every slice
// started at least one physical group and none beyond the lanes or the
// dequeues its budget held.
func runMarkSchedule(t *testing.T, kchunk, total int64, s sliceSchedule) [][3]int64 {
	t.Helper()
	const local = 8
	n := total * local
	buf := &Buffer{Size: n * 4, Bytes: make([]byte, n*4)}
	k, trans := buildTransformed(t, buf, n)
	nd := NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{local, 1, 1}}
	rt := rtlib.BuildRT(1, nd.NumGroups(), nd.Local, int(kchunk))
	plats := GetPlatforms()
	h, err := NewLaunchHandle(plats[0], trans, k, nd, rt, s.phys, s.chunk)
	if err != nil {
		t.Fatal(err)
	}
	lanes := int64(interp.Lanes())
	var slices [][3]int64
	for step, done := 0, false; !done; step++ {
		if step > 0 && step == s.faultAt {
			// The device fails between two slices: the cancellation lands
			// at the boundary, the consumed prefix stays done, and a new
			// handle resumes the rest, as the runtime's relaunch does.
			h.Cancel(errFault)
			if _, err := h.Step(); !errors.Is(err, errFault) {
				t.Fatalf("step %d: a cancelled handle stepped with %v", step, err)
			}
			consumed, _ := h.Progress()
			plat := plats[0]
			if s.relaunch {
				plat = plats[1]
			}
			if h, err = NewLaunchHandle(plat, trans, k, nd, rt, s.phys, s.chunk); err != nil {
				t.Fatal(err)
			}
			h.ResumeAt(consumed)
		}
		h.SetSliceRounds(s.rounds[step%len(s.rounds)])
		if done, err = h.Step(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		p, c, b := h.LastSlice()
		slices = append(slices, [3]int64{p, c, b})
		if dequeues := (b + c - 1) / c; p < 1 || p > lanes || p > dequeues {
			t.Fatalf("slice %d started %d groups for %d dequeues (budget %d, chunk %d) on %d lanes",
				len(slices)-1, p, dequeues, b, c, lanes)
		}
	}
	for i := int64(0); i < n; i++ {
		if got := int32(binary.LittleEndian.Uint32(buf.Bytes[i*4:])); got != int32(i+1) {
			t.Fatalf("%+v: out[%d] = %d, want %d (virtual group ran zero or multiple times)", s, i, got, i+1)
		}
	}
	return slices
}

// FuzzSliceSchedule drives the mark kernel over total virtual groups
// (its own chunk kchunk) under fuzzed plans, slice rounds and a device
// fault with resume or relaunch; runMarkSchedule's oracles must hold.
// internal/parboil's FuzzSliceScheduleParity slices a Parboil kernel the
// same way against its native bytes. A failing input lands in
// testdata/fuzz/FuzzSliceSchedule and is kept.
func FuzzSliceSchedule(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(4), uint16(40), []byte{8}, uint8(0), uint8(0))
	f.Add(uint8(3), uint8(2), uint8(1), uint16(97), []byte{1, 3}, uint8(2), uint8(1))
	f.Add(uint8(1), uint8(4), uint8(2), uint16(64), []byte{1}, uint8(3), uint8(2))
	f.Add(uint8(13), uint8(1), uint8(1), uint16(5), []byte{8}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, phys, chunk, kchunk uint8, total uint16, rounds []byte, faultAt, recovery uint8) {
		runMarkSchedule(t, 1+int64(kchunk%16), 1+int64(total%512), fuzzedSchedule(phys, chunk, rounds, faultAt, recovery))
	})
}

// fuzzedSchedule maps fuzzer bytes onto a sliceSchedule: up to 16
// physical groups and chunk 16, up to 8 rounds of up to 8, a fault
// before one of the first 7 steps.
func fuzzedSchedule(phys, chunk uint8, rounds []byte, faultAt, recovery uint8) sliceSchedule {
	s := sliceSchedule{
		phys:     1 + int64(phys%16),
		chunk:    1 + int64(chunk%16),
		faultAt:  int(faultAt % 8),
		relaunch: recovery%2 == 1,
	}
	for i, r := range rounds {
		if i == 8 {
			break
		}
		s.rounds = append(s.rounds, 1+int64(r%8))
	}
	if len(s.rounds) == 0 {
		s.rounds = []int64{DefaultSliceRounds}
	}
	return s
}

// TestStepStartsOnlyUsableGroups pins the rule Step applies to the plan:
// at most interp.Lanes() physical groups, the kernel's own §6.4 chunk
// when the slice holds fewer than DequeuesPerLane dequeues per started
// group, and never a group that would find the queue empty — while the
// slice budget stays the plan's phys·chunk·rounds.
func TestStepStartsOnlyUsableGroups(t *testing.T) {
	type slice = [3]int64 // started groups, chunk, budget
	cases := []struct {
		name                              string
		phys, chunk, kchunk, total, round int64
		want                              map[int]slice // first slice, by GOMAXPROCS
	}{
		{"cheap kernel, four groups: one dequeue, one group", 4, 1, 4, 4, 8,
			map[int]slice{1: {1, 4, 4}, 2: {1, 4, 4}, 8: {1, 4, 4}}},
		{"costly kernel, five groups, chunk 1: spreads over the lanes", 5, 1, 1, 5, 8,
			map[int]slice{1: {1, 1, 5}, 2: {2, 1, 5}, 8: {5, 1, 5}}},
		{"large grid keeps the planner's chunk", 104, 2, 4, 4096, 8,
			map[int]slice{1: {1, 2, 1664}, 2: {2, 2, 1664}, 8: {8, 2, 1664}}},
		{"budget at the balance threshold of one lane only", 4, 2, 8, 40, 1,
			map[int]slice{1: {1, 2, 8}, 2: {1, 8, 8}, 8: {1, 8, 8}}},
		{"kernel chunk larger than the budget", 2, 1, 16, 6, 8,
			map[int]slice{1: {1, 6, 6}, 2: {1, 6, 6}, 8: {1, 6, 6}}},
		{"entitlement below the lanes", 1, 4, 4, 64, 8,
			map[int]slice{1: {1, 4, 32}, 2: {1, 4, 32}, 8: {1, 4, 32}}},
		{"ragged last dequeue", 3, 1, 2, 7, 8,
			map[int]slice{1: {1, 2, 7}, 2: {2, 2, 7}, 8: {3, 2, 7}}},
	}
	for _, procs := range []int{1, 2, 8} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/%s", procs, c.name), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				slices := runMarkSliced(t, c.phys, c.chunk, c.kchunk, c.total, c.round)
				if slices[0] != c.want[procs] {
					t.Errorf("first slice (started, chunk, budget) = %v, want %v", slices[0], c.want[procs])
				}
				// The budget is the plan's, so the slice count is too.
				planned := c.phys * c.chunk * c.round
				if want := (c.total + planned - 1) / planned; int64(len(slices)) != want {
					t.Errorf("%d slices, want %d (slice boundaries must not depend on the lanes)", len(slices), want)
				}
			})
		}
	}
}

// TestFewLongGroupsStillSpread is the tpacf/gen_hists shape: fewer than
// lanes·DequeuesPerLane virtual groups, each expensive, so the kernel's
// §6.4 chunk is 1. Serialising such a grid onto one physical group
// because it is "small" nearly doubled that kernel's time; the kernel's
// chunk, not the group count, decides.
func TestFewLongGroupsStillSpread(t *testing.T) {
	const lanes = 4
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lanes))
	slices := runMarkSliced(t, 13, 1, 1, 5, 8)
	if len(slices) != 1 || slices[0] != [3]int64{lanes, 1, 5} {
		t.Fatalf("slices (started, chunk, budget) = %v, want one slice of %d groups dequeuing 5 virtual groups by 1", slices, lanes)
	}
}
