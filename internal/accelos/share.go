// Package accelos implements the host runtime of the paper: the
// resource-sharing algorithm (§3), the Kernel Scheduler, the ProxyCL
// interposition layer that routes each call as the Application Monitor
// would, and device memory management (§5). The JIT half of accelOS
// lives in internal/accelpass.
package accelos

import (
	"repro/internal/device"
	"repro/internal/opencl"
	"repro/internal/sim"
)

const inf = int64(1) << 62

// PlanShares runs the paper's resource-sharing algorithm (§3) for K
// concurrent kernel execution requests. For each kernel i with work-group
// size w_i, local memory m_i and register demand r_i it computes
//
//	x_i = T/(K·w_i), y_i = L/(K·m_i), z_i = R/(K·r_i)
//
// takes min(x_i, y_i, z_i) physical work-groups, then greedily grows the
// allocations round-robin until a device resource saturates (the
// Diophantine solutions are conservative). Allocations are additionally
// capped by the kernel's own virtual group count and by its occupancy
// limit — extra physical groups past either cap could never run or would
// find the queue empty.
//
// naive selects the untuned variant (one virtual group per scheduling
// operation); the optimized variant uses the adaptive chunk recorded in
// each KernelExec.
func PlanShares(dev *device.Platform, execs []*sim.KernelExec, naive bool) []*sim.Launch {
	k := float64(len(execs))
	return planFractions(dev, execs, func(int) float64 { return 1 / k }, naive)
}

// PlanSingle plans an isolated kernel execution under accelOS (used for
// the overhead study of §8.5): with K=1 the allocation is the occupancy
// limit, so the transformed kernel spans the whole device.
func PlanSingle(dev *device.Platform, ke *sim.KernelExec, naive bool) *sim.Launch {
	return PlanShares(dev, []*sim.KernelExec{ke}, naive)[0]
}

// PlanWeighted generalizes PlanShares to non-equal sharing ratios
// (§2.2 of the paper: "this can easily be achieved by changing the
// sharing ratio", e.g. favouring a longer-running or more important
// application). weights[i] is kernel i's share of the device; the
// resource constraints become x_i = (w_i/Σw)·T/w_i etc.
func PlanWeighted(dev *device.Platform, execs []*sim.KernelExec, weights []float64, naive bool) []*sim.Launch {
	if len(weights) != len(execs) {
		panic("accelos: PlanWeighted needs one weight per kernel")
	}
	var sum float64
	for _, w := range weights {
		if w <= 0 {
			panic("accelos: sharing weights must be positive")
		}
		sum += w
	}
	return planFractions(dev, execs, func(i int) float64 { return weights[i] / sum }, naive)
}

// planFractions is the one body of the §3 algorithm: frac(i) is kernel
// i's fraction of every device resource (1/K under equal sharing, where
// "furthest below its share" is simply "smallest thread share").
func planFractions(dev *device.Platform, execs []*sim.KernelExec, frac func(i int) float64, naive bool) []*sim.Launch {
	if len(execs) == 0 {
		// No requests: nothing to plan. Returning before any device
		// access keeps PlanShares(nil, nil, naive) safe — callers probe
		// an empty schedule without holding a device.
		return nil
	}
	launches := make([]*sim.Launch, len(execs))
	// Per kernel: the cap on its allocation, the threads one of its
	// groups occupies, and its weighted thread share.
	type bound struct {
		cap, threads int64
		want         float64
	}
	bounds := make([]bound, len(execs))
	for i, ke := range execs {
		fp := ke.TransFootprint()
		f := frac(i)
		b := &bounds[i]
		b.threads = dev.RoundWarp(fp.Threads)
		b.want = f * float64(dev.TotalThreads())
		x := int64(b.want / float64(b.threads))
		y := inf
		if fp.LocalBytes > 0 {
			y = int64(f * float64(dev.TotalLocalMem()) / float64(fp.LocalBytes))
		}
		z := inf
		if fp.Regs > 0 {
			z = int64(f * float64(dev.TotalRegs()) / float64(fp.Regs))
		}
		n := min(x, y, z)
		if n < 1 {
			n = 1
		}
		b.cap = ke.NumWGs
		if occ := dev.MaxConcurrentWGs(fp); occ < b.cap {
			b.cap = occ
		}
		if b.cap < 1 {
			b.cap = 1
		}
		if n > b.cap {
			n = b.cap
		}
		chunk := ke.Chunk
		if naive || chunk < 1 {
			chunk = 1
		}
		// Keep several dequeues per worker so chunk-granularity tails
		// stay small: a chunk near the per-worker share would serialize
		// small grids.
		if cap := ke.NumWGs / (n * opencl.DequeuesPerLane); chunk > cap {
			chunk = cap
			if chunk < 1 {
				chunk = 1
			}
		}
		launches[i] = &sim.Launch{K: ke, PhysWGs: n, Chunk: chunk, FP: fp}
	}
	fits := func() bool {
		var th, lm, rg int64
		for i, l := range launches {
			th += l.PhysWGs * bounds[i].threads
			lm += l.PhysWGs * l.FP.LocalBytes
			rg += l.PhysWGs * l.FP.Regs
		}
		return th <= dev.TotalThreads() && lm <= dev.TotalLocalMem() && rg <= dev.TotalRegs()
	}
	// Greedy growth until saturation, the kernel furthest below its
	// thread share first: that keeps the share objective
	// (min_i min_j |x_i·w_i − x_j·w_j| under equal sharing) while
	// filling leftover capacity.
	for {
		best := -1
		bestGap := 0.0
		for i, l := range launches {
			if l.PhysWGs >= bounds[i].cap {
				continue
			}
			gap := bounds[i].want - float64(l.PhysWGs*bounds[i].threads)
			if best < 0 || gap > bestGap {
				best, bestGap = i, gap
			}
		}
		if best < 0 {
			break
		}
		launches[best].PhysWGs++
		if !fits() {
			launches[best].PhysWGs--
			bounds[best].cap = launches[best].PhysWGs // saturated: stop growing it
		}
	}
	return launches
}

// PlanTenantShares extends PlanShares with per-tenant weights on one
// device: kernels are grouped by tenant, the device is divided between
// tenants in proportion to weights (absent tenants weigh 1), and each
// tenant's slice is split equally among its kernels. tenants[i] names
// kernel i's tenant. This is the per-device building block of the
// cluster layer's aggregate fair sharing (internal/cluster equalizes
// the same quantity across a pool).
func PlanTenantShares(dev *device.Platform, execs []*sim.KernelExec, tenants []string, weights map[string]float64, naive bool) []*sim.Launch {
	if len(tenants) != len(execs) {
		panic("accelos: PlanTenantShares needs one tenant per kernel")
	}
	if len(execs) == 0 {
		return nil
	}
	counts := make(map[string]int, len(tenants))
	for _, t := range tenants {
		counts[t]++
	}
	per := make([]float64, len(execs))
	for i, t := range tenants {
		w := 1.0
		if v, ok := weights[t]; ok {
			if v <= 0 {
				panic("accelos: tenant weights must be positive")
			}
			w = v
		}
		per[i] = w / float64(counts[t])
	}
	return PlanWeighted(dev, execs, per, naive)
}
