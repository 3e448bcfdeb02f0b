package accelos

// Fault tolerance: device-failure recovery, the runaway-kernel
// watchdog, and repeat-offender quarantine.
//
// Recovery rides on the sliced execution engine. A kernel runs as a
// sequence of virtual-group-range slices whose writes land in
// host-resident buffers, so when a device fails, everything a launch
// completed before the failure survives; the runtime relaunches only
// the *remaining* range on a healthy device (LaunchHandle.ResumeAt).
// The in-flight slice is host-simulated and runs to its boundary before
// the cancellation lands, so recovery is slice-atomic: every virtual
// group executes exactly once and the recovered result is byte-
// identical to a fault-free run — for every kernel, including those
// with non-idempotent writes. What is NOT preserved: a launch whose
// device fails more than MaxRelaunches times fails with ErrDeviceLost,
// and nothing survives a process (daemon) restart — buffers and
// launches are process-resident state.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// Typed failure causes. They cross the service boundary intact (the
// wire layer assigns them error codes), so remote clients can
// errors.Is against the same sentinels.
var (
	// ErrDeviceLost fails an execution's event when device failures
	// exhausted its relaunch budget (FaultPolicy.MaxRelaunches).
	ErrDeviceLost = errors.New("accelos: device lost: relaunch budget exhausted")
	// ErrKernelTimeout fails an execution's event when the runaway-
	// kernel watchdog killed it: the launch exceeded the per-launch
	// wall-clock deadline (FaultPolicy.LaunchDeadline).
	ErrKernelTimeout = errors.New("accelos: kernel exceeded launch deadline")
	// ErrKernelQuarantined rejects a submission at admission because the
	// (tenant, kernel) pair accumulated FaultPolicy.QuarantineAfter
	// watchdog kills — one tenant's infinite loop must not keep
	// re-entering the fleet.
	ErrKernelQuarantined = errors.New("accelos: kernel quarantined after repeated watchdog kills")
)

// errDeviceEvicted is the internal cancellation cause marking "the
// device under this launch failed": the drive loop turns it into a
// relaunch instead of a failure.
var errDeviceEvicted = errors.New("accelos: device failed under launch")

// DefaultMaxRelaunches is the per-launch device-failure relaunch budget
// when no FaultPolicy was installed or its MaxRelaunches is zero.
const DefaultMaxRelaunches = 3

// FaultPolicy configures the runtime's fault-tolerance behavior.
// Install with SetFaultPolicy before scheduling work.
type FaultPolicy struct {
	// MaxRelaunches bounds how many times one kernel execution may be
	// relaunched after device failures before its event fails with
	// ErrDeviceLost. 0 means DefaultMaxRelaunches; negative disables
	// relaunching (the first eviction is fatal).
	MaxRelaunches int
	// LaunchDeadline is the per-launch wall-clock watchdog: an
	// execution still running this long after its first slice started
	// is aborted (mid-slice if necessary) and its event fails with
	// ErrKernelTimeout. The deadline spans relaunches and parking.
	// 0 disables the watchdog.
	LaunchDeadline time.Duration
	// QuarantineAfter quarantines a (tenant, kernel) pair once it
	// accumulates this many watchdog kills: later submissions are
	// rejected at admission with ErrKernelQuarantined. 0 disables
	// quarantine.
	QuarantineAfter int
}

// SetFaultPolicy installs the fault-tolerance policy. Call before
// scheduling work; without a call the runtime uses the zero policy
// (DefaultMaxRelaunches, no watchdog, no quarantine).
func (rt *Runtime) SetFaultPolicy(fp FaultPolicy) {
	rt.faultMu.Lock()
	rt.fpol = &fp
	rt.faultMu.Unlock()
}

// faultPolicy returns the effective policy with defaults applied.
func (rt *Runtime) faultPolicy() FaultPolicy {
	rt.faultMu.Lock()
	defer rt.faultMu.Unlock()
	fp := FaultPolicy{}
	if rt.fpol != nil {
		fp = *rt.fpol
	}
	if fp.MaxRelaunches == 0 {
		fp.MaxRelaunches = DefaultMaxRelaunches
	}
	return fp
}

// quarantineKey joins tenant and kernel with a byte neither contains.
func quarantineKey(tenant, kern string) string { return tenant + "\x00" + kern }

// noteWatchdogKill records one watchdog kill for quarantine accounting
// and telemetry.
func (rt *Runtime) noteWatchdogKill(rec *launchRec) {
	rt.reg.Counter("watchdog_kills_total",
		telemetry.L("tenant", rec.app), telemetry.L("kernel", rec.kern)).Inc()
	rt.faultMu.Lock()
	if rt.quarKills == nil {
		rt.quarKills = make(map[string]int)
	}
	rt.quarKills[quarantineKey(rec.app, rec.kern)]++
	rt.faultMu.Unlock()
}

// isQuarantined reports whether the (tenant, kernel) pair is over the
// policy's watchdog-kill allowance.
func (rt *Runtime) isQuarantined(tenant, kern string) bool {
	fp := rt.faultPolicy()
	if fp.QuarantineAfter <= 0 {
		return false
	}
	rt.faultMu.Lock()
	defer rt.faultMu.Unlock()
	return rt.quarKills[quarantineKey(tenant, kern)] >= fp.QuarantineAfter
}

// WatchdogKills reports recorded watchdog kills for a (tenant, kernel)
// pair (tests and monitoring).
func (rt *Runtime) WatchdogKills(tenant, kern string) int {
	rt.faultMu.Lock()
	defer rt.faultMu.Unlock()
	return rt.quarKills[quarantineKey(tenant, kern)]
}

// armWatchdog starts the execution's wall-clock deadline at its first
// launch. The timer survives relaunches — the deadline bounds the
// execution, not one placement of it.
func (rt *Runtime) armWatchdog(rec *launchRec) {
	fp := rt.faultPolicy()
	if fp.LaunchDeadline <= 0 || rec.watchdog != nil {
		return
	}
	rec.watchdog = time.AfterFunc(fp.LaunchDeadline, func() {
		rec.timedOut.Store(true)
		// Abort the handle currently driving the execution (relaunches
		// swap handles; read under the registry lock). Abort interrupts
		// the machine, so even a kernel stuck inside one slice traps at
		// its next budget flush.
		rt.launchMu.Lock()
		h := rec.h
		rt.launchMu.Unlock()
		if h != nil {
			h.Abort(fmt.Errorf("accelos: kernel %q: %w", rec.kern, ErrKernelTimeout))
		}
	})
}

// stopWatchdog cancels the deadline timer once the execution reached a
// terminal state.
func (rec *launchRec) stopWatchdog() {
	if rec.watchdog != nil {
		rec.watchdog.Stop()
	}
}

// onEviction reacts to a device failure throwing an execution out of
// the pool. One without a handle (queued, or never launched) simply
// re-enters placement — the membership event of the new placement
// claims it, exactly like a first admission; an in-flight one is
// cancelled at its next slice boundary with errDeviceEvicted, and its
// drive goroutine performs the relaunch with the consumed prefix
// preserved. Pool events arrive in mutation order, so the admission
// that gave the execution its handle has always been handled first.
func (rt *Runtime) onEviction(ev cluster.PoolEvent) {
	rt.launchMu.Lock()
	rec := rt.execs[ev.Exec]
	var h *opencl.LaunchHandle
	if rec != nil {
		h = rec.h
	}
	rt.launchMu.Unlock()
	switch {
	case rec == nil: // already settled
	case h != nil:
		h.Cancel(fmt.Errorf("%w (device %d)", errDeviceEvicted, ev.Dev))
	default:
		rt.submitToPool(rec)
	}
}

// tryRelaunch consumes one unit of the execution's relaunch budget and
// re-enters pool placement with the consumed prefix recorded, so the
// next startLaunch resumes where the failed device stopped. It reports
// false when the budget is exhausted (the caller fails the event with
// ErrDeviceLost). Runs on the execution's drive goroutine.
func (rt *Runtime) tryRelaunch(rec *launchRec, h *opencl.LaunchHandle) bool {
	fp := rt.faultPolicy()
	if fp.MaxRelaunches <= 0 || rec.relaunches >= fp.MaxRelaunches {
		return false
	}
	rec.relaunches++
	consumed, _ := h.Progress()
	rt.launchMu.Lock()
	rec.resumeAt = consumed
	rec.h = nil
	rt.launchMu.Unlock()
	rt.reg.Counter("relaunches_total",
		telemetry.L("kernel", rec.kern), telemetry.L("reason", "device-failed")).Inc()
	rt.submitToPool(rec)
	return true
}
