package accelos

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/device"
	"repro/internal/parboil"
	"repro/internal/sim"
)

func execFor(id int, wgs, numWGs int64) *sim.KernelExec {
	return &sim.KernelExec{
		ID: id, WGSize: wgs, NumWGs: numWGs,
		LocalBytes: 1024, RegsPerThread: 20,
		BaseWGCost: 10000, MemIntensity: 0.5, SatFrac: 0.4, Chunk: 2,
	}
}

// Property: for any request mix, PlanShares never oversubscribes any
// device resource and never plans zero or more-than-grid workers.
func TestPlanSharesInvariants(t *testing.T) {
	dev := device.NVIDIAK20m()
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 || len(sizes) > 12 {
			return true
		}
		var execs []*sim.KernelExec
		for i, s := range sizes {
			wgs := int64(32 + int(s%8)*32)
			numWGs := int64(1 + int(s)*50)
			execs = append(execs, execFor(i, wgs, numWGs))
		}
		launches := PlanShares(dev, execs, false)
		var th, lm, rg int64
		for i, l := range launches {
			if l.PhysWGs < 1 || l.PhysWGs > execs[i].NumWGs {
				return false
			}
			if l.Chunk < 1 {
				return false
			}
			th += l.PhysWGs * dev.RoundWarp(l.FP.Threads)
			lm += l.PhysWGs * l.FP.LocalBytes
			rg += l.PhysWGs * l.FP.Regs
		}
		return th <= dev.TotalThreads() && lm <= dev.TotalLocalMem() && rg <= dev.TotalRegs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestPlanSharesScalesDownWithK(t *testing.T) {
	dev := device.NVIDIAK20m()
	for _, k := range []int{1, 2, 4, 8} {
		var execs []*sim.KernelExec
		for i := 0; i < k; i++ {
			execs = append(execs, execFor(i, 128, 100000))
		}
		launches := PlanShares(dev, execs, false)
		want := dev.TotalThreads() / int64(k)
		got := launches[0].PhysWGs * 128
		// Within one work-group of the equal share.
		if got > want || got < want-256 {
			t.Errorf("K=%d: share %d threads, want ~%d", k, got, want)
		}
	}
}

func TestPlanWeightedRatios(t *testing.T) {
	dev := device.NVIDIAK20m()
	execs := []*sim.KernelExec{execFor(0, 128, 100000), execFor(1, 128, 100000)}
	launches := PlanWeighted(dev, execs, []float64{3, 1}, false)
	r := float64(launches[0].PhysWGs) / float64(launches[1].PhysWGs)
	if r < 2.5 || r > 3.5 {
		t.Errorf("3:1 weights produced a %.2f:1 thread split", r)
	}
	// Equal weights must reproduce PlanShares.
	even := PlanWeighted(dev, execs, []float64{1, 1}, false)
	plain := PlanShares(dev, execs, false)
	for i := range even {
		diff := even[i].PhysWGs - plain[i].PhysWGs
		if diff < -2 || diff > 2 {
			t.Errorf("kernel %d: weighted(1,1)=%d vs PlanShares=%d", i, even[i].PhysWGs, plain[i].PhysWGs)
		}
	}
}

func TestPlanWeightedValidation(t *testing.T) {
	dev := device.NVIDIAK20m()
	execs := []*sim.KernelExec{execFor(0, 128, 100)}
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { PlanWeighted(dev, execs, []float64{1, 2}, false) })
	mustPanic(func() { PlanWeighted(dev, execs, []float64{-1}, false) })
}

func TestLocalMemoryBoundShares(t *testing.T) {
	// Kernels demanding huge local memory must be limited by L, not T.
	dev := device.NVIDIAK20m()
	var execs []*sim.KernelExec
	for i := 0; i < 2; i++ {
		e := execFor(i, 64, 100000)
		e.TransLocalBytes = 24 * 1024 // half a CU's local memory per WG
		execs = append(execs, e)
	}
	launches := PlanShares(dev, execs, false)
	var lm int64
	for _, l := range launches {
		lm += l.PhysWGs * l.FP.LocalBytes
	}
	if lm > dev.TotalLocalMem() {
		t.Errorf("local memory oversubscribed: %d > %d", lm, dev.TotalLocalMem())
	}
	if launches[0].PhysWGs > 13 { // 26 CU-halves / 2 kernels
		t.Errorf("local-bound share %d too large", launches[0].PhysWGs)
	}
}

func TestPlanSharesEmptyAndNilDevice(t *testing.T) {
	// K=0 callers may not hold a device at all; planning must not touch
	// it (regression: the guard has to run before any dev access).
	if got := PlanShares(nil, nil, false); got != nil {
		t.Errorf("PlanShares(nil, nil) = %v, want nil", got)
	}
	if got := PlanShares(nil, []*sim.KernelExec{}, true); got != nil {
		t.Errorf("PlanShares(nil, []) = %v, want nil", got)
	}
	if got := PlanWeighted(nil, nil, nil, false); got != nil {
		t.Errorf("PlanWeighted(nil, nil, nil) = %v, want nil", got)
	}
	if got := PlanTenantShares(nil, nil, nil, nil, false); got != nil {
		t.Errorf("PlanTenantShares(nil, nil, nil, nil) = %v, want nil", got)
	}
}

func TestPlanSharesOversizedFootprintFloorsAtOne(t *testing.T) {
	// A kernel whose transformed footprint exceeds a whole compute unit
	// has occupancy limit 0; its allocation must floor at 1 physical
	// work-group (the worker that will serially drain the queue), never
	// 0 — a zero-worker launch would hang.
	dev := device.NVIDIAK20m()
	e := execFor(0, 64, 1000)
	e.TransLocalBytes = dev.LocalMemPerCU + 1 // no CU can hold one WG
	if occ := dev.MaxConcurrentWGs(e.TransFootprint()); occ != 0 {
		t.Fatalf("test premise: occupancy = %d, want 0", occ)
	}
	for _, naive := range []bool{false, true} {
		launches := PlanShares(dev, []*sim.KernelExec{e}, naive)
		if got := launches[0].PhysWGs; got != 1 {
			t.Errorf("naive=%v: oversized footprint got %d physical WGs, want 1", naive, got)
		}
		if launches[0].Chunk < 1 {
			t.Errorf("naive=%v: chunk %d < 1", naive, launches[0].Chunk)
		}
	}
	// Same floor when sharing with a normal kernel.
	launches := PlanShares(dev, []*sim.KernelExec{e, execFor(1, 64, 1000)}, false)
	if launches[0].PhysWGs != 1 {
		t.Errorf("shared: oversized kernel got %d physical WGs, want 1", launches[0].PhysWGs)
	}
}

// smallCU is a deliberately tiny device shape so saturation boundaries
// are easy to hit in tests.
func smallCU() *device.Platform {
	return &device.Platform{
		Name: "test-small", Vendor: "test",
		NumCUs: 2, ThreadsPerCU: 256, LocalMemPerCU: 4096, RegsPerCU: 8192,
		WarpSize: 32, LaunchOverhead: 100, SchedOpCost: 10, VGOverhead: 2,
	}
}

// TestPlanSharesGreedySaturation checks the greedy-growth post-pass on
// several device shapes: allocations never exceed per-kernel occupancy
// or grid caps, and growth stops only once a device resource is
// saturated (no kernel below its cap could take one more work-group).
func TestPlanSharesGreedySaturation(t *testing.T) {
	cases := []struct {
		name string
		dev  *device.Platform
		mk   func() []*sim.KernelExec
	}{
		{"k20m-thread-bound", device.NVIDIAK20m(), func() []*sim.KernelExec {
			return []*sim.KernelExec{execFor(0, 256, 100000), execFor(1, 256, 100000)}
		}},
		{"amd-thread-bound", device.AMDR9295X2(), func() []*sim.KernelExec {
			return []*sim.KernelExec{execFor(0, 256, 100000), execFor(1, 128, 100000), execFor(2, 64, 100000)}
		}},
		{"small-local-bound", smallCU(), func() []*sim.KernelExec {
			a := execFor(0, 32, 100000)
			a.TransLocalBytes = 1024 // 8 WGs fill all local memory
			b := execFor(1, 32, 100000)
			b.TransLocalBytes = 1024
			return []*sim.KernelExec{a, b}
		}},
		{"small-reg-bound", smallCU(), func() []*sim.KernelExec {
			a := execFor(0, 32, 100000)
			a.TransRegsPerThread = 64 // 2048 regs per WG: 8 WGs fill the file
			return []*sim.KernelExec{a, execFor(1, 32, 4)}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev := tc.dev
			execs := tc.mk()
			launches := PlanShares(dev, execs, false)

			var th, lm, rg int64
			atCap := true
			for i, l := range launches {
				occ := dev.MaxConcurrentWGs(l.FP)
				cap := execs[i].NumWGs
				if occ > 0 && occ < cap {
					cap = occ
				}
				if cap < 1 {
					cap = 1
				}
				if l.PhysWGs > cap {
					t.Errorf("kernel %d: %d physical WGs exceeds cap %d", i, l.PhysWGs, cap)
				}
				if l.PhysWGs < cap {
					atCap = false
				}
				th += l.PhysWGs * dev.RoundWarp(l.FP.Threads)
				lm += l.PhysWGs * l.FP.LocalBytes
				rg += l.PhysWGs * l.FP.Regs
			}
			if th > dev.TotalThreads() || lm > dev.TotalLocalMem() || rg > dev.TotalRegs() {
				t.Fatalf("oversubscribed: threads %d/%d local %d/%d regs %d/%d",
					th, dev.TotalThreads(), lm, dev.TotalLocalMem(), rg, dev.TotalRegs())
			}
			if atCap {
				return // every kernel at its occupancy/grid cap: nothing left to grow
			}
			// Saturation: no kernel below cap can take one more WG.
			for i, l := range launches {
				fits := th+dev.RoundWarp(l.FP.Threads) <= dev.TotalThreads() &&
					lm+l.FP.LocalBytes <= dev.TotalLocalMem() &&
					rg+l.FP.Regs <= dev.TotalRegs()
				occ := dev.MaxConcurrentWGs(l.FP)
				below := l.PhysWGs < execs[i].NumWGs && (occ <= 0 || l.PhysWGs < occ)
				if fits && below {
					t.Errorf("kernel %d could still grow: greedy pass stopped early", i)
				}
			}
		})
	}
}

func TestPlanTenantSharesAggregates(t *testing.T) {
	// Tenant "big" runs 3 kernels, tenant "small" runs 1; with equal
	// tenant weights, each tenant's aggregate thread allocation must be
	// about half the device — not the 3:1 split per-kernel equal shares
	// would produce.
	dev := device.NVIDIAK20m()
	execs := []*sim.KernelExec{
		execFor(0, 128, 100000), execFor(1, 128, 100000), execFor(2, 128, 100000),
		execFor(3, 128, 100000),
	}
	tenants := []string{"big", "big", "big", "small"}
	launches := PlanTenantShares(dev, execs, tenants, nil, false)
	agg := map[string]int64{}
	for i, l := range launches {
		agg[tenants[i]] += l.PhysWGs * dev.RoundWarp(l.FP.Threads)
	}
	ratio := float64(agg["big"]) / float64(agg["small"])
	if ratio < 0.8 || ratio > 1.25 {
		t.Errorf("equal-weight tenants got %d vs %d threads (ratio %.2f), want ~1",
			agg["big"], agg["small"], ratio)
	}

	// Explicit 3:1 weights skew the aggregate accordingly.
	weighted := PlanTenantShares(dev, execs, tenants, map[string]float64{"big": 3, "small": 1}, false)
	agg = map[string]int64{}
	for i, l := range weighted {
		agg[tenants[i]] += l.PhysWGs * dev.RoundWarp(l.FP.Threads)
	}
	ratio = float64(agg["big"]) / float64(agg["small"])
	if ratio < 2 || ratio > 4 {
		t.Errorf("3:1 tenant weights got aggregate ratio %.2f, want ~3", ratio)
	}
}

func TestPlanTenantSharesValidation(t *testing.T) {
	dev := device.NVIDIAK20m()
	execs := []*sim.KernelExec{execFor(0, 128, 100)}
	mustPanic := func(fn func()) {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		fn()
	}
	mustPanic(func() { PlanTenantShares(dev, execs, []string{"a", "b"}, nil, false) })
	mustPanic(func() { PlanTenantShares(dev, execs, []string{"a"}, map[string]float64{"a": -1}, false) })
}

// TestPlanSharesIsTheUnitWeightPlan pins the equivalence that lets
// PlanShares, PlanWeighted and PlanTenantShares share one body: on a
// seeded table of populations drawn from the 25 Parboil kernels (K up
// to 8, both devices, naive and tuned, some with reshaped grids) equal
// sharing, unit weights and one-kernel-per-tenant give the same plan,
// and that plan still starts from the paper's integer seed
// min(T/(K·w), L/(K·m), R/(K·r)) — the body computes it in floating
// point, and the chunk is fixed from the seed before growth, so a
// rounding slip below an exact quotient would show up here.
func TestPlanSharesIsTheUnitWeightPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	kernels := parboil.Kernels()
	devs := device.Platforms()
	for trial := 0; trial < 4000; trial++ {
		k := 1 + rng.Intn(8)
		dev := devs[rng.Intn(len(devs))]
		naive := rng.Intn(2) == 0
		execs := make([]*sim.KernelExec, k)
		unit := make([]float64, k)
		tenants := make([]string, k)
		for i := range execs {
			execs[i] = kernels[rng.Intn(len(kernels))].Exec(i)
			if rng.Intn(3) == 0 {
				execs[i].NumWGs = 1 + rng.Int63n(5000)
				execs[i].WGSize = int64(1+rng.Intn(32)) * 32
				execs[i].TransLocalBytes = 32 + rng.Int63n(16384)
			}
			unit[i] = 1
			tenants[i] = fmt.Sprint("tenant", i)
		}
		plain := PlanShares(dev, execs, naive)
		weighted := PlanWeighted(dev, execs, unit, naive)
		perTenant := PlanTenantShares(dev, execs, tenants, nil, naive)
		for i, ke := range execs {
			fp := ke.TransFootprint()
			seed := min(dev.TotalThreads()/(int64(k)*dev.RoundWarp(fp.Threads)),
				dev.TotalLocalMem()/(int64(k)*fp.LocalBytes),
				dev.TotalRegs()/(int64(k)*fp.Regs))
			seed = max(1, min(seed, ke.NumWGs, dev.MaxConcurrentWGs(fp)))
			chunk := ke.Chunk
			if naive {
				chunk = 1
			}
			chunk = max(1, min(chunk, ke.NumWGs/(seed*8)))
			p := plain[i]
			if p.PhysWGs < seed || p.Chunk != chunk {
				t.Fatalf("trial %d (K=%d, %s) kernel %d: plan %d groups chunk %d, integer seed %d chunk %d",
					trial, k, dev.Name, i, p.PhysWGs, p.Chunk, seed, chunk)
			}
			for name, other := range map[string]*sim.Launch{"PlanWeighted": weighted[i], "PlanTenantShares": perTenant[i]} {
				if other.PhysWGs != p.PhysWGs || other.Chunk != p.Chunk {
					t.Fatalf("trial %d (K=%d, %s) kernel %d: PlanShares %d/%d, %s %d/%d",
						trial, k, dev.Name, i, p.PhysWGs, p.Chunk, name, other.PhysWGs, other.Chunk)
				}
			}
		}
	}
}
