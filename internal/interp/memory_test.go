package interp

import (
	"testing"
	"testing/quick"

	"repro/internal/ir"
)

func TestRegionReadWriteRoundTrip(t *testing.T) {
	m := NewMachine(nil)
	r := m.NewRegion(64, ir.Global)

	i32s := []int32{1, -2, 1 << 30, -(1 << 30)}
	r.WriteInt32s(0, i32s)
	if got := r.ReadInt32s(0, 4); got[1] != -2 || got[2] != 1<<30 {
		t.Errorf("int32 roundtrip: %v", got)
	}
	i64s := []int64{-(1 << 60), 1 << 60}
	r.WriteInt64s(16, i64s)
	if got := r.ReadInt64s(16, 2); got[0] != -(1<<60) || got[1] != 1<<60 {
		t.Errorf("int64 roundtrip: %v", got)
	}
	f32s := []float32{1.5, -0.25, 3e10}
	r.WriteFloat32s(32, f32s)
	if got := r.ReadFloat32s(32, 3); got[0] != 1.5 || got[2] != 3e10 {
		t.Errorf("float32 roundtrip: %v", got)
	}
}

func TestTypedLoadStoreProperty(t *testing.T) {
	m := NewMachine(nil)
	r := m.NewRegion(16, ir.Global)
	p := Ptr{R: r}
	f := func(i int64, fl float64) bool {
		var v Value
		m.store(ir.I64T, Value{K: ir.I64, I: i}, p)
		if m.load(&v, ir.I64T, p); v.I != i {
			return false
		}
		m.store(ir.F64T, Value{K: ir.F64, F: fl}, p)
		if m.load(&v, ir.F64T, p); v.F != fl {
			return false
		}
		i32 := int64(int32(i))
		m.store(ir.I32T, Value{K: ir.I32, I: i32}, p)
		m.load(&v, ir.I32T, p)
		return v.I == i32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPointerEncodingRoundTrip(t *testing.T) {
	m := NewMachine(nil)
	r := m.NewRegion(128, ir.Global)
	slot := m.NewRegion(8, ir.Private)
	p := Ptr{R: r, Off: 40}
	m.store(ir.PointerTo(ir.F32T, ir.Global), Value{K: ir.Pointer, P: p}, Ptr{R: slot})
	var got Value
	m.load(&got, ir.PointerTo(ir.F32T, ir.Global), Ptr{R: slot})
	if got.P.R != r || got.P.Off != 40 {
		t.Errorf("pointer roundtrip: %+v", got.P)
	}
	// Null pointer stores as zero and loads back as null.
	m.store(ir.PointerTo(ir.F32T, ir.Global), Value{K: ir.Pointer}, Ptr{R: slot})
	if m.load(&got, ir.PointerTo(ir.F32T, ir.Global), Ptr{R: slot}); !got.P.IsNull() {
		t.Error("null pointer did not round-trip")
	}
}

func TestBoundsChecks(t *testing.T) {
	m := NewMachine(nil)
	r := m.NewRegion(8, ir.Global)
	mustTrap := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected a trap")
			}
		}()
		fn()
	}
	var v Value
	mustTrap(func() { m.load(&v, ir.I64T, Ptr{R: r, Off: 1}) })
	mustTrap(func() { m.load(&v, ir.I32T, Ptr{R: r, Off: -4}) })
	mustTrap(func() { m.store(ir.I32T, IntV(0), Ptr{}) })
}

func TestBarrierPoison(t *testing.T) {
	b := newBarrier(2)
	done := make(chan bool, 1)
	go func() {
		defer func() { done <- recover() != nil }()
		b.await() // waits for a partner that traps instead
	}()
	b.poison()
	if !<-done {
		t.Error("poisoned barrier did not unwind the waiter")
	}
	// New arrivals must also unwind.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("await on a dead barrier did not panic")
			}
		}()
		b.await()
	}()
}

func TestValueConstructors(t *testing.T) {
	if !BoolV(true).Bool() || BoolV(false).Bool() {
		t.Error("BoolV broken")
	}
	if IntV(5).K != ir.I32 || LongV(5).K != ir.I64 {
		t.Error("int constructors have wrong kinds")
	}
	if FloatV(1.5).F != 1.5 || DoubleV(2.5).K != ir.F64 {
		t.Error("float constructors broken")
	}
}

func TestNDRangeValidation(t *testing.T) {
	bad := []NDRange{
		{Dims: 0},
		{Dims: 4},
		{Dims: 1, Global: [3]int64{0, 1, 1}, Local: [3]int64{1, 1, 1}},
		{Dims: 1, Global: [3]int64{10, 1, 1}, Local: [3]int64{3, 1, 1}},
		{Dims: 2, Global: [3]int64{8, 7, 1}, Local: [3]int64{4, 2, 1}},
	}
	for _, nd := range bad {
		if err := nd.Validate(); err == nil {
			t.Errorf("invalid NDRange accepted: %+v", nd)
		}
	}
	good := ND2(8, 4, 4, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid NDRange rejected: %v", err)
	}
	if good.TotalGroups() != 4 || good.WGSize() != 8 {
		t.Errorf("NDRange math wrong: %d groups, wg %d", good.TotalGroups(), good.WGSize())
	}
}

func TestLaunchArgValidation(t *testing.T) {
	src := `kernel void k(global int* out, int n) { out[0] = n; }`
	mod := compileOrDie(t, src)
	m := NewMachine(mod)
	out := m.NewRegion(8, ir.Global)
	args := []Value{{K: ir.Pointer, P: Ptr{R: out}}}
	if err := m.Launch("k", args, ND1(1, 1)); err == nil {
		t.Error("wrong arg count accepted")
	}
	if err := m.Launch("missing", nil, ND1(1, 1)); err == nil {
		t.Error("unknown kernel accepted")
	}
	if err := m.Launch("k", append(args, IntV(1)), NDRange{Dims: 1, Global: [3]int64{3, 1, 1}, Local: [3]int64{2, 1, 1}}); err == nil {
		t.Error("invalid geometry accepted")
	}
}
