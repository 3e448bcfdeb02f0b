// Package device models the resource topology of an OpenCL accelerator:
// compute units with per-CU limits on resident threads, local memory and
// registers. The paper's resource-sharing algebra (§3) and the
// discrete-event simulator (internal/sim) both consume these models.
package device

import "fmt"

// Platform describes an accelerator.
type Platform struct {
	Name   string
	Vendor string

	// Resource topology.
	NumCUs        int
	ThreadsPerCU  int64 // maximum resident work-items per compute unit
	LocalMemPerCU int64 // bytes of local memory (shared/LDS) per CU
	RegsPerCU     int64 // 32-bit registers per CU
	GlobalMemMB   int64 // device memory capacity
	WarpSize      int64 // SIMD granularity (warp / wavefront)

	// Timing model (cycles unless noted).
	ClockMHz float64
	// LaunchOverhead is the driver/runtime cost of a kernel launch.
	LaunchOverhead int64
	// SchedOpCost is the cost of one software scheduling operation
	// (the atomic dequeue in rt_sched_wgroup).
	SchedOpCost int64
	// VGOverhead is the extra per-virtual-group cost the transformed
	// kernel pays for runtime ID computation.
	VGOverhead int64
	// ExclusiveKernels models drivers that never co-schedule distinct
	// kernels (the AMD stack in the paper: 4%/0%/0% baseline overlap);
	// the hardware scheduler then admits a kernel's work-groups only
	// once no other kernel is resident.
	ExclusiveKernels bool
}

// NVIDIAK20m models the paper's first platform: a Tesla K20m
// (13 SMX, 2048 threads/SMX, 48 KB shared memory, 64K registers).
func NVIDIAK20m() *Platform {
	return &Platform{
		Name:   "NVIDIA Tesla K20m",
		Vendor: "NVIDIA",

		NumCUs:        13,
		ThreadsPerCU:  2048,
		LocalMemPerCU: 48 * 1024,
		RegsPerCU:     65536,
		GlobalMemMB:   5 * 1024,
		WarpSize:      32,

		ClockMHz:       706,
		LaunchOverhead: 9000,
		SchedOpCost:    150,
		VGOverhead:     26,
	}
}

// AMDR9295X2 models the paper's second platform: one GPU of an
// R9 295X2 (44 CUs, 2560 threads/CU, 32 KB LDS, 64K VGPRs ×4 banks).
func AMDR9295X2() *Platform {
	return &Platform{
		Name:   "AMD Radeon R9 295X2",
		Vendor: "AMD",

		NumCUs:        44,
		ThreadsPerCU:  2560,
		LocalMemPerCU: 32 * 1024,
		RegsPerCU:     65536 * 4,
		GlobalMemMB:   4 * 1024,
		WarpSize:      64,

		ClockMHz:         1018,
		LaunchOverhead:   14000,
		SchedOpCost:      190,
		VGOverhead:       30,
		ExclusiveKernels: true,
	}
}

// Platforms returns the two evaluation platforms in paper order.
func Platforms() []*Platform {
	return []*Platform{NVIDIAK20m(), AMDR9295X2()}
}

// ByName resolves a platform by vendor or name substring.
func ByName(name string) (*Platform, error) {
	for _, p := range Platforms() {
		if p.Vendor == name || p.Name == name {
			return p, nil
		}
	}
	switch name {
	case "nvidia", "k20m":
		return NVIDIAK20m(), nil
	case "amd", "r9":
		return AMDR9295X2(), nil
	}
	return nil, fmt.Errorf("device: unknown platform %q", name)
}

// PoolOf returns n simulated devices for cluster experiments,
// alternating the two evaluation platforms so pools of two or more are
// heterogeneous. Members get distinct names for per-device reporting.
func PoolOf(n int) []*Platform {
	pool := make([]*Platform, n)
	for i := range pool {
		var p *Platform
		if i%2 == 0 {
			p = NVIDIAK20m()
		} else {
			p = AMDR9295X2()
		}
		p.Name = fmt.Sprintf("%s #%d", p.Name, i)
		pool[i] = p
	}
	return pool
}

// TotalThreads returns the maximum concurrently resident work-items on
// the device (the T of §3).
func (p *Platform) TotalThreads() int64 {
	return int64(p.NumCUs) * p.ThreadsPerCU
}

// TotalLocalMem returns the device-wide local memory (the L of §3).
func (p *Platform) TotalLocalMem() int64 {
	return int64(p.NumCUs) * p.LocalMemPerCU
}

// TotalRegs returns the device-wide register count (the R of §3).
func (p *Platform) TotalRegs() int64 {
	return int64(p.NumCUs) * p.RegsPerCU
}

// Footprint is the per-work-group resource demand of a kernel execution.
type Footprint struct {
	Threads    int64 // work-group size
	LocalBytes int64 // local memory per work-group
	Regs       int64 // registers per work-group (regs/thread × threads)
}

// RoundWarp rounds a work-group size up to warp granularity, the way
// hardware allocates thread slots.
func (p *Platform) RoundWarp(threads int64) int64 {
	if p.WarpSize <= 0 {
		return threads
	}
	return (threads + p.WarpSize - 1) / p.WarpSize * p.WarpSize
}

// WGsPerCU returns the occupancy limit: how many work-groups with the
// given footprint can be resident on one compute unit simultaneously.
func (p *Platform) WGsPerCU(fp Footprint) int64 {
	threads := p.RoundWarp(fp.Threads)
	if threads <= 0 {
		return 0
	}
	n := p.ThreadsPerCU / threads
	if fp.LocalBytes > 0 {
		if m := p.LocalMemPerCU / fp.LocalBytes; m < n {
			n = m
		}
	}
	if fp.Regs > 0 {
		if m := p.RegsPerCU / fp.Regs; m < n {
			n = m
		}
	}
	return n
}

// MaxConcurrentWGs returns the device-wide occupancy limit for the
// footprint.
func (p *Platform) MaxConcurrentWGs(fp Footprint) int64 {
	return p.WGsPerCU(fp) * int64(p.NumCUs)
}
