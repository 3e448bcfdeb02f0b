// Package parboil provides the 25 OpenCL kernels of the Parboil
// benchmark suite (Stratton et al., 2012) as used in the paper's
// evaluation (§7.2), rebuilt for this reproduction:
//
//   - each kernel is real CLC source that compiles through internal/clc,
//     runs on the interpreter, and goes through the accelOS JIT
//     transformation (a per-kernel launch spec with deterministic inputs
//     supports original-vs-transformed equivalence checking);
//   - each kernel carries a calibrated timing profile (work-group count
//     and size, per-group cost, imbalance, skew, memory intensity,
//     scalability roof, footprint) that drives the discrete-event
//     simulator for the paper's figures.
//
// The kernel bodies are faithful simplifications: they preserve each
// kernel's computational pattern (atomics for histogramming, local-memory
// tiles and barriers for scans/stencils/sgemm, irregular gather for
// spmv/bfs), while profiles carry the performance characteristics. All
// kernels produce deterministic outputs (no atomic-append compaction), so
// transformed execution must match natively bit for bit.
package parboil

import (
	"fmt"
	"sync"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/passes"
	"repro/internal/sim"
)

// Profile is the calibrated cost model of one kernel at benchmark scale.
type Profile struct {
	WGSize        int64
	NumWGs        int64
	LocalBytes    int64
	RegsPerThread int64

	BaseWGCost   int64
	Imbalance    float64
	Skew         float64
	MemIntensity float64
	SatFrac      float64

	// InstrCount is the IR instruction count of the benchmark-scale
	// kernel (the real Parboil kernel is larger than the simplified
	// source here); it selects the §6.4 adaptive chunk in simulation.
	InstrCount int
}

// Arg describes one kernel argument for the verification launch.
// Exactly one of the value fields is set.
type Arg struct {
	Name   string
	I32    []int32   // int buffer
	F32    []float32 // float buffer
	I64    []int64   // long buffer
	Scalar *int64    // int scalar
	Out    bool      // output buffer: compared between runs
}

// ScalarArg builds an int scalar argument.
func ScalarArg(name string, v int64) Arg {
	val := v
	return Arg{Name: name, Scalar: &val}
}

// LaunchSpec is a concrete, small-scale launch used for functional
// verification on the interpreter.
type LaunchSpec struct {
	Dims   int
	Global [3]int64
	Local  [3]int64
	Args   []Arg
}

// Kernel is one Parboil kernel: source, verification launch and timing
// profile.
type Kernel struct {
	Benchmark string
	Name      string
	Source    string
	// Setup builds a deterministic small-scale verification launch.
	Setup   func() LaunchSpec
	Profile Profile
}

// FullName returns "benchmark/kernel".
func (k *Kernel) FullName() string { return k.Benchmark + "/" + k.Name }

var (
	regMu    sync.Mutex
	registry []*Kernel
)

func register(k *Kernel) *Kernel {
	regMu.Lock()
	defer regMu.Unlock()
	registry = append(registry, k)
	return k
}

// Kernels returns all 25 Parboil kernels in registration (alphabetical
// benchmark) order.
func Kernels() []*Kernel {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]*Kernel, len(registry))
	copy(out, registry)
	return out
}

// ByName finds a kernel by "benchmark/kernel" or bare kernel name.
func ByName(name string) (*Kernel, error) {
	for _, k := range Kernels() {
		if k.FullName() == name || k.Name == name {
			return k, nil
		}
	}
	return nil, fmt.Errorf("parboil: unknown kernel %q", name)
}

// Exec converts the kernel's profile into a simulator execution request.
// The adaptive chunk follows the §6.4 table applied to the profile's
// benchmark-scale instruction count (the simplified sources in this
// repository under-count the real kernels); the transformed footprint
// deltas come from the JIT metadata.
func (k *Kernel) Exec(id int) *sim.KernelExec {
	p := k.Profile
	return &sim.KernelExec{
		ID:            id,
		Name:          k.FullName(),
		WGSize:        p.WGSize,
		NumWGs:        p.NumWGs,
		LocalBytes:    p.LocalBytes,
		RegsPerThread: p.RegsPerThread,

		BaseWGCost:   p.BaseWGCost,
		Imbalance:    p.Imbalance,
		Skew:         p.Skew,
		MemIntensity: p.MemIntensity,
		SatFrac:      p.SatFrac,

		Chunk:              int64(passes.AdaptiveChunk(p.InstrCount)),
		TransRegsPerThread: p.RegsPerThread + 1,
		TransLocalBytes:    p.LocalBytes + 32,
	}
}

// JITMeta is the transformation metadata extracted from the compiled
// kernel.
type JITMeta struct {
	InstrCount int
	Chunk      int
	SDBytes    int64
}

var (
	metaMu    sync.Mutex
	metaCache = map[string]JITMeta{}
)

// jitMeta compiles and transforms the kernel source once and caches the
// adaptive-scheduling metadata.
func (k *Kernel) jitMeta() JITMeta {
	metaMu.Lock()
	defer metaMu.Unlock()
	if m, ok := metaCache[k.FullName()]; ok {
		return m
	}
	m := JITMeta{Chunk: 1, SDBytes: 32}
	mod, err := clc.Compile(k.Source, k.Name)
	if err == nil {
		if res, terr := accelpass.Transform(mod); terr == nil {
			if info, ok := res.Kernels[k.Name]; ok {
				m.InstrCount = info.InstrCount
				m.Chunk = info.Chunk
				m.SDBytes = 32
			}
		}
	}
	metaCache[k.FullName()] = m
	return m
}
