// Package fault is the chaos-injection layer: a seeded, probabilistic
// Injector consulted at named points hooked into the cluster pool
// (device failure), the opencl launch path (slice delay), and the wire
// transport (frame drop, connection close, shm map failure).
//
// Production builds compile the hooks in but install no injector: every
// hook site is one atomic load plus a nil check, paid once per slice,
// placement, frame or shm map and never inside the interpreter's
// work-item loops. The chaos harness installs one Injector
// process-wide, runs a seeded multi-tenant workload, and asserts the
// runtime's recovery invariants.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Point names one injection site. The constants below are the complete
// set of hooks wired into the runtime.
type Point string

const (
	// DeviceFail fires in cluster.Pool.Submit after placement: the
	// device the request landed on is failed (FailDevice), evicting its
	// resident set and exercising slice-boundary relaunch.
	DeviceFail Point = "device-fail"
	// SliceDelay fires in opencl.LaunchHandle.Step before each slice:
	// the slice is delayed by the injector's slice-delay duration,
	// widening the windows the chaos harness wants to race.
	SliceDelay Point = "slice-delay"
	// WireDropFrame fires in wire.WriteFrame: the frame is not written
	// and the caller gets an ErrInjected-wrapped error, as if the
	// transport swallowed the write.
	WireDropFrame Point = "wire-drop-frame"
	// WireCloseConn fires in wire.ReadFrame: the read fails with an
	// ErrInjected-wrapped error, as if the peer closed the connection.
	WireCloseConn Point = "wire-close-conn"
	// ShmMapFail fires in wire.OpenShm: the mapping fails, as if the
	// daemon's segment could not be mapped into the client.
	ShmMapFail Point = "shm-map-fail"
)

// ErrInjected marks every synthesized failure so tests can tell an
// injected fault from an organic one: errors.Is(err, fault.ErrInjected).
var ErrInjected = errors.New("fault: injected failure")

type pointState struct {
	prob  float64
	limit int64 // max fires; 0 = unlimited
	fired int64
}

// Injector decides, per named point, whether to inject a failure. All
// decisions draw from one seeded RNG, so a chaos run is reproducible
// from its seed (modulo goroutine interleaving of the call order). The
// zero probability for unconfigured points makes an installed-but-empty
// injector inert. All methods are safe for concurrent use and safe on a
// nil receiver (hooks call Should on whatever pointer they loaded).
type Injector struct {
	mu         sync.Mutex
	rng        *rand.Rand
	points     map[Point]*pointState
	sliceDelay time.Duration
}

// NewInjector returns an injector drawing from a RNG seeded with seed.
func NewInjector(seed int64) *Injector {
	return &Injector{
		rng:    rand.New(rand.NewSource(seed)),
		points: make(map[Point]*pointState),
	}
}

// Enable arms a point with an injection probability in [0, 1]. It
// returns the injector for chaining.
func (in *Injector) Enable(p Point, prob float64) *Injector {
	return in.EnableLimited(p, prob, 0)
}

// EnableLimited arms a point with a probability and a cap on the total
// number of fires (0 = unlimited). A capped point disarms itself once
// spent — the harness uses this to bound how many devices it kills.
func (in *Injector) EnableLimited(p Point, prob float64, limit int64) *Injector {
	in.mu.Lock()
	in.points[p] = &pointState{prob: prob, limit: limit}
	in.mu.Unlock()
	return in
}

// Disable disarms a point.
func (in *Injector) Disable(p Point) {
	in.mu.Lock()
	delete(in.points, p)
	in.mu.Unlock()
}

// SetSliceDelay sets the delay injected when SliceDelay fires.
func (in *Injector) SetSliceDelay(d time.Duration) {
	in.mu.Lock()
	in.sliceDelay = d
	in.mu.Unlock()
}

// SliceDelayDuration returns the configured slice delay (nil-safe).
func (in *Injector) SliceDelayDuration() time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.sliceDelay
}

// Should reports whether the point fires this time. Nil injectors and
// unarmed points never fire.
func (in *Injector) Should(p Point) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.points[p]
	if st == nil || st.prob <= 0 {
		return false
	}
	if st.limit > 0 && st.fired >= st.limit {
		return false
	}
	if st.prob < 1 && in.rng.Float64() >= st.prob {
		return false
	}
	st.fired++
	return true
}

// Fired returns how many times the point has fired (nil-safe).
func (in *Injector) Fired(p Point) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if st := in.points[p]; st != nil {
		return st.fired
	}
	return 0
}

// Counts snapshots fire counts for every armed point (nil-safe).
func (in *Injector) Counts() map[Point]int64 {
	out := make(map[Point]int64)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for p, st := range in.points {
		out[p] = st.fired
	}
	return out
}

// Errf builds the ErrInjected-wrapped error a hook returns when a point
// fires, so errors.Is(err, ErrInjected) holds across the stack.
func Errf(p Point, detail string) error {
	if detail == "" {
		return fmt.Errorf("%w at %s", ErrInjected, p)
	}
	return fmt.Errorf("%w at %s: %s", ErrInjected, p, detail)
}
