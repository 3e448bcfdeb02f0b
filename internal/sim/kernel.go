// Package sim is a discrete-event simulator of work-group scheduling on
// an accelerator. It models the three execution regimes the paper
// evaluates:
//
//   - the standard hardware scheduler (per-CU round-robin FIFO queues with
//     head-of-line blocking, which serializes concurrent kernels),
//   - accelOS software scheduling (a reduced set of physical work-groups
//     per kernel, each dynamically dequeuing chunks of virtual groups),
//   - Elastic Kernels (static merged co-scheduling with fixed
//     virtual-group ranges per physical work-group).
//
// Time is in device cycles. The simulator is deterministic: per-group
// cost variation comes from a hash, not a random source.
package sim

import "repro/internal/device"

// KernelExec describes one kernel execution request: its NDRange, its
// resource footprint, and its calibrated cost model.
type KernelExec struct {
	// ID distinguishes requests within a workload (used for cost
	// hashing and result reporting).
	ID int
	// Name is the kernel name (diagnostics only).
	Name string

	// WGSize is work-items per work-group.
	WGSize int64
	// NumWGs is the original number of work-groups (= virtual groups
	// under accelOS).
	NumWGs int64
	// LocalBytes is per-work-group local memory of the original kernel.
	LocalBytes int64
	// RegsPerThread is the per-work-item register usage.
	RegsPerThread int64

	// BaseWGCost is the mean execution cost of one work-group in
	// cycles.
	BaseWGCost int64
	// Imbalance in [0,1] scales deterministic per-group cost variation.
	Imbalance float64
	// Skew in [-1,1] adds a systematic cost gradient across the
	// NDRange (positive: early work-groups are more expensive), the
	// pattern of triangular loops and sorted inputs. Static dispatch
	// turns skew into inter-CU load imbalance; dynamic dequeue absorbs
	// it.
	Skew float64
	// MemIntensity in [0,1] is the kernel's memory-bandwidth demand,
	// which drives co-residency contention.
	MemIntensity float64
	// SatFrac is the kernel's scalability roof as a fraction of its
	// occupancy limit on the device: beyond SatFrac·MaxConcurrentWGs
	// concurrently executing work-groups, added work-groups stop
	// improving throughput (the memory-bandwidth ceiling). Zero means
	// the kernel scales to full occupancy.
	SatFrac float64

	// Iters is the number of times the application launches this
	// kernel back to back (Parboil applications iterate their kernels);
	// zero means one launch.
	Iters int64

	// Chunk is the adaptive scheduling chunk (virtual groups per
	// dequeue) of the optimized transformed kernel; the naive variant
	// uses 1.
	Chunk int64
	// TransRegsPerThread is register usage after transformation
	// (§6.5: +0..1 after inlining).
	TransRegsPerThread int64
	// TransLocalBytes is per-work-group local memory after
	// transformation (original + the SD block).
	TransLocalBytes int64
}

// hash01 returns a deterministic value in [0,1) from the kernel ID and
// virtual group index (splitmix64-style mixing).
func hash01(kid int, vg int64) float64 {
	x := uint64(kid+1)*0x9E3779B97F4A7C15 ^ uint64(vg+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return float64(x>>11) / float64(1<<53)
}

// VGCost returns the cost in cycles of virtual group vg:
// base · (1 + imbalance·h) · (1 + skew·(0.5 - pos)) with h a
// deterministic hash in [-1, 1] and pos the group's relative position in
// the NDRange.
func (k *KernelExec) VGCost(vg int64) int64 {
	h := 2*hash01(k.ID, vg) - 1
	c := float64(k.BaseWGCost) * (1 + k.Imbalance*h)
	if k.Skew != 0 && k.NumWGs > 1 {
		pos := float64(vg) / float64(k.NumWGs-1)
		c *= 1 + k.Skew*(0.5-pos)
	}
	if c < 1 {
		c = 1
	}
	return int64(c)
}

// SatRoof returns the kernel's scalability roof in concurrent
// work-groups on the given device (0 = unlimited).
func (k *KernelExec) SatRoof(dev *device.Platform) int64 {
	if k.SatFrac <= 0 {
		return 0
	}
	roof := int64(k.SatFrac * float64(dev.MaxConcurrentWGs(k.Footprint())))
	if roof < 1 {
		roof = 1
	}
	return roof
}

// SelfSaturation returns the cost multiplier when n work-groups of this
// kernel execute concurrently against the given roof: past the roof,
// per-group progress slows proportionally (aggregate throughput stays at
// the roof).
func SelfSaturation(n, roof int64) float64 {
	if roof <= 0 || n <= roof {
		return 1
	}
	return float64(n) / float64(roof)
}

// TotalWork returns the exact summed cost of all virtual groups.
func (k *KernelExec) TotalWork() int64 {
	if k.Imbalance == 0 && k.Skew == 0 {
		// Every group costs the same (the live runtime's requests carry
		// no cost model at all): no need to hash the whole grid.
		return max(k.NumWGs, 0) * k.VGCost(0)
	}
	var sum int64
	for vg := int64(0); vg < k.NumWGs; vg++ {
		sum += k.VGCost(vg)
	}
	return sum
}

// Footprint returns the per-work-group resource demand of the original
// kernel.
func (k *KernelExec) Footprint() device.Footprint {
	return device.Footprint{
		Threads:    k.WGSize,
		LocalBytes: k.LocalBytes,
		Regs:       k.RegsPerThread * k.WGSize,
	}
}

// TransFootprint returns the footprint of the transformed kernel.
func (k *KernelExec) TransFootprint() device.Footprint {
	regs := k.TransRegsPerThread
	if regs == 0 {
		regs = k.RegsPerThread + 1
	}
	local := k.TransLocalBytes
	if local == 0 {
		local = k.LocalBytes + 32
	}
	return device.Footprint{
		Threads:    k.WGSize,
		LocalBytes: local,
		Regs:       regs * k.WGSize,
	}
}

// KernelTiming is the simulated lifetime of one kernel execution.
type KernelTiming struct {
	ID     int
	Name   string
	Submit int64 // cycles: when the launch was issued
	Start  int64 // first work dispatched
	End    int64 // last work completed
}

// Duration returns End-Submit: the turnaround the application observes.
func (t KernelTiming) Duration() int64 { return t.End - t.Submit }

// NumIters returns the launch count (at least 1).
func (k *KernelExec) NumIters() int64 {
	if k.Iters < 1 {
		return 1
	}
	return k.Iters
}

// Result is the outcome of simulating one workload under one scheme.
type Result struct {
	Timings  []KernelTiming
	Makespan int64 // completion time of the last kernel
	// TimeAll and TimeAny are device co-execution integrals: cycles
	// during which all remaining applications (resp. at least one) had
	// work resident.
	TimeAll int64
	TimeAny int64
}

// Overlap is the paper's kernel execution overlap O = T(c)/T(t).
func (r *Result) Overlap() float64 {
	if r.TimeAny <= 0 {
		return 0
	}
	return float64(r.TimeAll) / float64(r.TimeAny)
}

// ByID returns the timing for a kernel ID.
func (r *Result) ByID(id int) *KernelTiming {
	for i := range r.Timings {
		if r.Timings[i].ID == id {
			return &r.Timings[i]
		}
	}
	return nil
}

// EstimateIsolatedCycles analytically estimates one isolated launch's
// duration: total work divided by the kernel's effective parallelism
// (occupancy limit, scalability roof and grid size, whichever binds),
// plus launch overhead.
func (k *KernelExec) EstimateIsolatedCycles(dev *device.Platform) int64 {
	par := dev.MaxConcurrentWGs(k.Footprint())
	if roof := k.SatRoof(dev); roof > 0 && roof < par {
		par = roof
	}
	if k.NumWGs < par {
		par = k.NumWGs
	}
	if par < 1 {
		par = 1
	}
	return k.TotalWork()/par + dev.LaunchOverhead
}

// EqualizeIters sets each request's iteration count so that isolated
// application durations are comparable: the longest single launch runs
// baseIters times and shorter kernels iterate proportionally more, the
// way benchmark applications of similar wall-clock length would behave.
func EqualizeIters(dev *device.Platform, execs []*KernelExec, baseIters int64) {
	if len(execs) == 0 {
		return
	}
	var maxEst int64 = 1
	ests := make([]int64, len(execs))
	for i, k := range execs {
		ests[i] = k.EstimateIsolatedCycles(dev)
		if ests[i] > maxEst {
			maxEst = ests[i]
		}
	}
	target := maxEst * baseIters
	for i, k := range execs {
		n := (target + ests[i]/2) / ests[i]
		if n < 1 {
			n = 1
		}
		if n > 256 {
			n = 256
		}
		k.Iters = n
	}
}
