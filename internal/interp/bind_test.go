package interp

import (
	"sync"
	"testing"

	"repro/internal/ir"
)

// TestBindRegionZeroCopy checks that a bound region reads and writes
// the caller's slice in place — the contract the opencl layer relies on
// to map device buffers into machines without per-launch copies.
func TestBindRegionZeroCopy(t *testing.T) {
	m := NewMachine(&ir.Module{})
	host := make([]byte, 16)
	r := m.BindRegion(host, ir.Global)
	if &r.Bytes[0] != &host[0] {
		t.Fatal("BindRegion copied the backing slice")
	}

	m.store(ir.I64T, LongV(0x1122334455667788), Ptr{R: r})
	if host[0] != 0x88 || host[7] != 0x11 {
		t.Errorf("store not visible in caller slice: % x", host[:8])
	}
	host[8] = 42
	var v Value
	if m.load(&v, ir.I64T, Ptr{R: r, Off: 8}); v.I != 42 {
		t.Errorf("caller write not visible to load: got %d", v.I)
	}
}

// TestMachineReset checks a pooled machine drops its regions (so bound
// buffers are not kept alive) while keeping the reserved zero ID.
func TestMachineReset(t *testing.T) {
	m := NewMachine(&ir.Module{})
	r1 := m.NewRegion(8, ir.Global)
	if r1.ID != 1 {
		t.Fatalf("first region ID = %d, want 1", r1.ID)
	}
	m.Reset()
	if got := m.regionByID(r1.ID); got != nil {
		t.Error("region survived Reset")
	}
	r2 := m.NewRegion(8, ir.Global)
	if r2.ID != 1 {
		t.Errorf("post-reset region ID = %d, want 1", r2.ID)
	}
	if m.regionByID(0) != nil {
		t.Error("reserved region 0 must stay nil")
	}
}

// TestCrossMachineAtomics: with zero-copy binding, two machines can
// target the same bytes; atomics must serialize across machines, not
// per machine (run under -race).
func TestCrossMachineAtomics(t *testing.T) {
	src := &ir.Module{}
	m1, m2 := NewMachine(src), NewMachine(src)
	shared := make([]byte, 8)
	r1 := m1.BindRegion(shared, ir.Global)
	r2 := m2.BindRegion(shared, ir.Global)

	// Both machines must resolve the same backing array to the same
	// stripe lock, or cross-machine atomicity silently breaks.
	if atomicLock(Ptr{R: r1}) != atomicLock(Ptr{R: r2}) {
		t.Fatal("regions over the same bytes map to different atomic stripes")
	}
	// Emulate what OpAtomic does, from both machines concurrently.
	add := func(m *Machine, r *Region, n int) {
		for i := 0; i < n; i++ {
			mu := atomicLock(Ptr{R: r})
			mu.Lock()
			var old Value
			m.load(&old, ir.I64T, Ptr{R: r})
			m.store(ir.I64T, LongV(old.I+1), Ptr{R: r})
			mu.Unlock()
		}
	}
	const n = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); add(m1, r1, n) }()
	go func() { defer wg.Done(); add(m2, r2, n) }()
	wg.Wait()
	var v Value
	if m1.load(&v, ir.I64T, Ptr{R: r1}); v.I != 2*n {
		t.Errorf("cross-machine atomic count = %d, want %d", v.I, 2*n)
	}
}
