package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func TestEventOrdering(t *testing.T) {
	e := newEngine(device.NVIDIAK20m(), 1)
	var order []int
	e.schedule(30, func() { order = append(order, 3) })
	e.schedule(10, func() { order = append(order, 1) })
	e.schedule(20, func() { order = append(order, 2) })
	e.schedule(10, func() { order = append(order, 4) }) // same time: FIFO by seq
	e.run()
	want := []int{1, 4, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v, want %v", order, want)
		}
	}
	if e.now != 30 {
		t.Errorf("clock = %d, want 30", e.now)
	}
}

func TestResourceAccounting(t *testing.T) {
	dev := device.NVIDIAK20m()
	e := newEngine(dev, 1)
	fp := device.Footprint{Threads: 100, LocalBytes: 1000, Regs: 2000}
	if !e.cus[0].fits(fp, dev.WarpSize) {
		t.Fatal("fresh CU rejects a small footprint")
	}
	e.cus[0].take(fp, dev.WarpSize)
	// Thread accounting rounds to warp granularity.
	if got := dev.ThreadsPerCU - e.cus[0].freeThreads; got != 128 {
		t.Errorf("threads taken = %d, want 128 (warp-rounded)", got)
	}
	e.cus[0].release(fp, dev.WarpSize)
	if e.cus[0].freeThreads != dev.ThreadsPerCU || e.cus[0].freeLocal != dev.LocalMemPerCU {
		t.Error("release did not restore the CU")
	}
}

func TestPickCUPrefersFree(t *testing.T) {
	dev := device.NVIDIAK20m()
	e := newEngine(dev, 1)
	fp := device.Footprint{Threads: 512}
	e.cus[0].take(fp, dev.WarpSize)
	e.cus[0].take(fp, dev.WarpSize)
	if cu := e.pickCU(fp); cu == 0 {
		t.Error("pickCU chose the most loaded CU")
	}
	// Fill everything; a too-large footprint must be rejected.
	if cu := e.pickCU(device.Footprint{Threads: dev.ThreadsPerCU + 1}); cu != -1 {
		t.Errorf("oversized footprint placed on CU %d", cu)
	}
}

func TestOverlapIntegration(t *testing.T) {
	e := newEngine(device.NVIDIAK20m(), 2)
	// App 0 resident [0, 100); app 1 resident [50, 150).
	e.schedule(0, func() { e.addResident(0, 0.5) })
	e.schedule(50, func() { e.addResident(1, 0.5) })
	e.schedule(100, func() { e.removeResident(0); e.appFinished(0) })
	e.schedule(150, func() { e.removeResident(1); e.appFinished(1) })
	e.run()
	e.mark()
	if e.timeAny != 150 {
		t.Errorf("timeAny = %d, want 150", e.timeAny)
	}
	if e.timeAll != 50 {
		t.Errorf("timeAll = %d, want 50 (the co-resident window)", e.timeAll)
	}
}

func TestSlowMultSolo(t *testing.T) {
	e := newEngine(device.NVIDIAK20m(), 1)
	e.setRoof(0, 50)
	e.residentWGs[0] = 100
	e.memIntens[0] = 0.9
	// Alone, over the roof: slowdown = n/roof (bandwidth demand clamps
	// at the kernel's own intensity, below 1).
	got := e.slowMult(0, 100)
	if got < 1.9 || got > 2.1 {
		t.Errorf("solo saturation mult = %v, want ~2", got)
	}
	// Below the roof: no slowdown.
	if m := e.slowMult(0, 25); m != 1 {
		t.Errorf("under-roof mult = %v, want 1", m)
	}
	// No roof: compute bound.
	e.setRoof(1, 0)
	e.residentWGs[1] = 1000
	if m := e.slowMult(1, 1000); m != 1 {
		t.Errorf("roofless mult = %v, want 1", m)
	}
}

func TestSlowMultSharing(t *testing.T) {
	e := newEngine(device.NVIDIAK20m(), 2)
	// Two saturated memory-bound kernels: total demand 2, each slowed
	// by own-roof x 2.
	e.setRoof(0, 50)
	e.setRoof(1, 50)
	e.residentWGs[0], e.memIntens[0] = 50, 1.0
	e.residentWGs[1], e.memIntens[1] = 50, 1.0
	m0 := e.slowMult(0, 50)
	if m0 < 1.9 || m0 > 2.1 {
		t.Errorf("shared mult = %v, want ~2", m0)
	}
	// A starved victim (below its roof) still pays the bandwidth factor.
	e.residentWGs[0] = 10
	mv := e.slowMult(0, 10)
	if mv < 1.1 {
		t.Errorf("starved victim mult = %v, want > 1.1", mv)
	}
}

// Property: VG costs are positive, deterministic and within the
// imbalance/skew envelope.
func TestVGCostEnvelope(t *testing.T) {
	f := func(id uint8, vg uint16, imb, skew uint8) bool {
		k := &KernelExec{
			ID: int(id), NumWGs: 4096, BaseWGCost: 10000,
			Imbalance: float64(imb%100) / 100,
			Skew:      float64(skew%100) / 100,
		}
		c := k.VGCost(int64(vg) % k.NumWGs)
		if c != k.VGCost(int64(vg)%k.NumWGs) {
			return false // non-deterministic
		}
		hi := float64(k.BaseWGCost) * (1 + k.Imbalance) * (1 + k.Skew/2) * 1.01
		return c >= 1 && float64(c) <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total work is conserved — the sum over any chunking of the
// queue equals TotalWork.
func TestTotalWorkConserved(t *testing.T) {
	f := func(id uint8, n16, chunk8 uint8) bool {
		k := &KernelExec{ID: int(id), NumWGs: int64(n16%200) + 1, BaseWGCost: 5000, Imbalance: 0.4, Skew: 0.3}
		if id%3 == 0 {
			// Uniform cost, with and without a cost model: TotalWork's
			// closed form must agree with the walk.
			k.Imbalance, k.Skew, k.BaseWGCost = 0, 0, int64(id%2)*5000
		}
		chunk := int64(chunk8%8) + 1
		var sum int64
		for base := int64(0); base < k.NumWGs; base += chunk {
			end := base + chunk
			if end > k.NumWGs {
				end = k.NumWGs
			}
			for vg := base; vg < end; vg++ {
				sum += k.VGCost(vg)
			}
		}
		return sum == k.TotalWork()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEstimateIsolatedCycles(t *testing.T) {
	dev := device.NVIDIAK20m()
	k := &KernelExec{ID: 0, WGSize: 128, NumWGs: 1000, BaseWGCost: 10000, SatFrac: 0.5, RegsPerThread: 16}
	est := k.EstimateIsolatedCycles(dev)
	r := RunBaseline(dev, []*KernelExec{k})
	actual := r.Timings[0].Duration()
	ratio := float64(est) / float64(actual)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("analytic estimate %d vs simulated %d (ratio %.2f) diverge", est, actual, ratio)
	}
}

func TestExclusiveKernelsNeverCoResident(t *testing.T) {
	dev := device.AMDR9295X2() // ExclusiveKernels
	execs := []*KernelExec{
		{ID: 0, WGSize: 64, NumWGs: 200, BaseWGCost: 10000, MemIntensity: 0.5, SatFrac: 0.4, RegsPerThread: 16},
		{ID: 1, WGSize: 64, NumWGs: 200, BaseWGCost: 10000, MemIntensity: 0.5, SatFrac: 0.4, RegsPerThread: 16},
	}
	r := RunBaseline(dev, execs)
	if r.TimeAll != 0 {
		t.Errorf("exclusive-kernel driver co-scheduled kernels for %d cycles", r.TimeAll)
	}
	if r.Overlap() != 0 {
		t.Errorf("overlap = %v, want 0", r.Overlap())
	}
}

func TestBaselineCompletesAllWork(t *testing.T) {
	dev := device.NVIDIAK20m()
	execs := []*KernelExec{
		{ID: 0, WGSize: 128, NumWGs: 500, BaseWGCost: 8000, Iters: 3, RegsPerThread: 20, SatFrac: 0.3, MemIntensity: 0.6},
		{ID: 1, WGSize: 64, NumWGs: 300, BaseWGCost: 12000, Iters: 2, RegsPerThread: 16, SatFrac: 0.4, MemIntensity: 0.5},
	}
	r := RunBaseline(dev, execs)
	for _, tm := range r.Timings {
		if tm.End <= tm.Start || tm.Start < 0 {
			t.Errorf("kernel %d timing not closed: %+v", tm.ID, tm)
		}
	}
	if r.Makespan <= 0 {
		t.Error("makespan not recorded")
	}
}
