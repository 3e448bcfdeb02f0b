package accelos

import (
	"encoding/binary"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// runawaySrc is the runaway kernel for the watchdog tests: every item
// spins until its own output word, which the host never sets, turns
// non-zero, so only the watchdog or the launch-global instruction budget
// can end it. The budget does after about 1 s on a 2-vCPU box, 20 times
// the tests' 50 ms deadline, however fast the VM runs a loop trip.
const runawaySrc = `
kernel void spin(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; out[i] == 0; ++t) acc += (i + t) & 7;
    if (i < n) out[i] = acc;
}
`

func churnND(n int64) opencl.NDRange {
	return opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1}}
}

// residentDevice polls the pool for the device carrying the only
// in-flight execution.
func residentDevice(t *testing.T, rt *Runtime) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for d := range rt.Pool().Devices() {
			if len(rt.Pool().ResidentOn(d)) > 0 {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no device ever held the launch")
		}
		time.Sleep(time.Millisecond)
	}
}

// verifyChurn checks the churn kernel's output — every virtual group
// ran exactly once iff every element holds its lane id plus one.
func verifyChurn(t *testing.T, buf *BufferHandle, n int64) {
	t.Helper()
	out := make([]byte, n*4)
	if err := buf.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		want := int32(i%32) + 1
		if got := int32(binary.LittleEndian.Uint32(out[i*4:])); got != want {
			t.Fatalf("out[%d] = %d, want %d (slice lost or re-run across relaunch)", i, got, want)
		}
	}
}

// TestDeviceFailureRelaunchByteIdentical is the headline recovery test:
// a sliced kernel's device fails mid-flight, the remaining virtual-group
// range relaunches on the surviving device, and the result is
// byte-identical to a fault-free run. The failure window is raced, so
// the scenario retries until a relaunch actually happened.
func TestDeviceFailureRelaunchByteIdentical(t *testing.T) {
	plats := opencl.GetPlatforms()
	if len(plats) < 2 {
		t.Skip("needs two device models")
	}
	rt := NewClusterRuntime(plats, cluster.LeastLoaded(), 2)
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	rt.SetSliceRounds(1) // fine slices: wide failure window, fast cancel

	app := rt.Connect("victim")
	defer app.Close()
	const n = 512 * 32
	k, buf := setupIntKernel(t, app, churnSrc, "churn", n)
	defer buf.Release()

	relaunches := func() int64 {
		return reg.Counter("relaunches_total",
			telemetry.L("kernel", "churn"), telemetry.L("reason", "device-failed")).Value()
	}
	for attempt := 0; attempt < 5; attempt++ {
		base := relaunches()
		done := make(chan error, 1)
		go func() { done <- app.EnqueueKernel(k, churnND(n)) }()
		dev := residentDevice(t, rt)
		rt.Pool().FailDevice(dev)
		if err := <-done; err != nil {
			t.Fatalf("kernel failed instead of relaunching: %v", err)
		}
		rt.Pool().HealDevice(dev)
		if relaunches() > base {
			verifyChurn(t, buf, n)
			if got := reg.Counter("device_failures_total",
				telemetry.L("dev", strconv.Itoa(dev))).Value(); got < 1 {
				t.Errorf("device_failures_total{dev=%d} = %d, want >= 1", dev, got)
			}
			return
		}
		// The kernel drained before the failure landed; clear the buffer
		// and try again.
		if err := buf.Write(0, make([]byte, n*4)); err != nil {
			t.Fatal(err)
		}
		t.Logf("attempt %d: kernel completed before the device failure, retrying", attempt)
	}
	t.Fatal("no attempt caught the kernel in flight")
}

// TestNoHealthyDeviceParksUntilHeal takes the only device away — before
// the submit, or under a launch already running — on the plain
// one-device runtime and on a bounded pool of one: the execution must
// park (typed EvParked path, counted), wait, and complete
// byte-identically once the device heals; a launch caught mid-flight
// resumes at its consumed prefix (churn adds to its output, so a slice
// run twice or lost would show). The mid-launch window is raced, so
// that case retries until the failure landed in flight.
func TestNoHealthyDeviceParksUntilHeal(t *testing.T) {
	plain := func() *Runtime { return NewRuntime(opencl.GetPlatforms()[0]) }
	bounded := func() *Runtime {
		return NewClusterRuntime(opencl.GetPlatforms()[:1], cluster.LeastLoaded(), 2)
	}
	for _, tc := range []struct {
		name      string
		mk        func() *Runtime
		midLaunch bool
	}{
		{"bounded/before-submit", bounded, false},
		{"plain/before-submit", plain, false},
		{"plain/mid-launch", plain, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := tc.mk()
			defer rt.Shutdown()
			reg := telemetry.NewRegistry()
			rt.SetTelemetry(nil, reg, nil)
			rt.SetSliceRounds(1) // fine slices: wide failure window, fast cancel

			app := rt.Connect("parked")
			defer app.Close()
			n := int64(64 * 32)
			if tc.midLaunch {
				n = 512 * 32
			}
			k, buf := setupIntKernel(t, app, churnSrc, "churn", n)
			defer buf.Release()

			for attempt := 0; attempt < 5; attempt++ {
				if !tc.midLaunch {
					rt.Pool().FailDevice(0)
				}
				done := make(chan error, 1)
				go func() { done <- app.EnqueueKernel(k, churnND(n)) }()
				if tc.midLaunch {
					residentDevice(t, rt)
					rt.Pool().FailDevice(0)
				}

				// Wait for the park — or, when raced, for the kernel to
				// drain before the failure landed.
				finished := false
				for deadline := time.Now().Add(5 * time.Second); rt.Pool().Parked() == 0 && !finished; {
					select {
					case err := <-done:
						if err != nil || !tc.midLaunch {
							t.Fatalf("kernel finished with every device failed: %v", err)
						}
						finished = true
					default:
						if time.Now().After(deadline) {
							t.Fatal("submit never parked")
						}
						time.Sleep(time.Millisecond)
					}
				}
				if finished {
					rt.Pool().HealDevice(0)
					if err := buf.Write(0, make([]byte, n*4)); err != nil {
						t.Fatal(err)
					}
					t.Logf("attempt %d: kernel completed before the device failure, retrying", attempt)
					continue
				}
				select {
				case err := <-done:
					t.Fatalf("kernel finished with every device failed: %v", err)
				case <-time.After(50 * time.Millisecond):
				}

				rt.Pool().HealDevice(0)
				if err := <-done; err != nil {
					t.Fatalf("parked kernel failed after heal: %v", err)
				}
				verifyChurn(t, buf, n)
				if got := reg.Counter("launches_parked_total", telemetry.L("tenant", "parked")).Value(); got < 1 {
					t.Errorf("launches_parked_total = %d, want >= 1", got)
				}
				relaunched := reg.Counter("relaunches_total",
					telemetry.L("kernel", "churn"), telemetry.L("reason", "device-failed")).Value()
				if tc.midLaunch && relaunched < 1 {
					t.Errorf("relaunches_total = %d, want >= 1 for a launch evicted in flight", relaunched)
				}
				return
			}
			t.Fatal("no attempt caught the kernel in flight")
		})
	}
}

// TestRelaunchBudgetExhaustedDeviceLost disables relaunching entirely
// (MaxRelaunches < 0): the first eviction must fail the execution with
// the typed ErrDeviceLost instead of recovering.
func TestRelaunchBudgetExhaustedDeviceLost(t *testing.T) {
	plats := opencl.GetPlatforms()
	if len(plats) < 2 {
		t.Skip("needs two device models")
	}
	rt := NewClusterRuntime(plats, cluster.LeastLoaded(), 2)
	defer rt.Shutdown()
	rt.SetSliceRounds(1)
	rt.SetFaultPolicy(FaultPolicy{MaxRelaunches: -1})

	app := rt.Connect("doomed")
	defer app.Close()
	const n = 512 * 32
	k, buf := setupIntKernel(t, app, churnSrc, "churn", n)
	defer buf.Release()

	for attempt := 0; attempt < 5; attempt++ {
		done := make(chan error, 1)
		go func() { done <- app.EnqueueKernel(k, churnND(n)) }()
		dev := residentDevice(t, rt)
		rt.Pool().FailDevice(dev)
		err := <-done
		rt.Pool().HealDevice(dev)
		switch {
		case errors.Is(err, ErrDeviceLost):
			return
		case err == nil:
			t.Logf("attempt %d: kernel completed before the device failure, retrying", attempt)
		default:
			t.Fatalf("err = %v, want ErrDeviceLost", err)
		}
	}
	t.Fatal("no attempt caught the kernel in flight")
}

// TestWatchdogTimeoutAndQuarantine runs a runaway kernel against a
// short wall-clock deadline twice: both launches must die with the
// typed ErrKernelTimeout (aborted mid-slice via the machine interrupt),
// after which the (tenant, kernel) pair is quarantined and the third
// submission is rejected at admission.
func TestWatchdogTimeoutAndQuarantine(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	rt.SetFaultPolicy(FaultPolicy{LaunchDeadline: 50 * time.Millisecond, QuarantineAfter: 2})

	app := rt.Connect("looper")
	defer app.Close()
	const n = 64
	k, buf := setupIntKernel(t, app, runawaySrc, "spin", n)
	defer buf.Release()

	for i := 0; i < 2; i++ {
		start := time.Now()
		err := app.EnqueueKernel(k, churnND(n))
		if !errors.Is(err, ErrKernelTimeout) {
			t.Fatalf("launch %d: err = %v, want ErrKernelTimeout", i, err)
		}
		// The abort must land mid-slice (machine interrupt), not after
		// the kernel ran to completion on its own.
		if d := time.Since(start); d > 10*time.Second {
			t.Fatalf("launch %d took %v — watchdog did not interrupt the slice", i, d)
		}
	}
	if got := rt.WatchdogKills("looper", "spin"); got != 2 {
		t.Fatalf("WatchdogKills = %d, want 2", got)
	}
	if got := reg.Counter("watchdog_kills_total",
		telemetry.L("tenant", "looper"), telemetry.L("kernel", "spin")).Value(); got != 2 {
		t.Errorf("watchdog_kills_total = %d, want 2", got)
	}

	err := app.EnqueueKernel(k, churnND(n))
	if !errors.Is(err, ErrKernelQuarantined) {
		t.Fatalf("post-quarantine launch: err = %v, want ErrKernelQuarantined", err)
	}
	if got := reg.Counter("admission_rejections_total",
		telemetry.L("tenant", "looper")).Value(); got < 1 {
		t.Errorf("admission_rejections_total = %d, want >= 1", got)
	}

	// Quarantine is per (tenant, kernel): the same tenant's other
	// kernels still run. Lift the deadline first — under -race the
	// interpreter is slow enough that even an honest kernel can blow
	// 50ms — which also proves quarantine persists independent of the
	// watchdog that filled it.
	rt.SetFaultPolicy(FaultPolicy{QuarantineAfter: 2})
	if err := app.EnqueueKernel(k, churnND(n)); !errors.Is(err, ErrKernelQuarantined) {
		t.Fatalf("quarantine did not survive the policy change: err = %v", err)
	}
	k2, buf2 := setupIntKernel(t, app, churnSrc, "churn", 64*32)
	defer buf2.Release()
	if err := app.EnqueueKernel(k2, churnND(64*32)); err != nil {
		t.Fatalf("innocent kernel rejected alongside the quarantined one: %v", err)
	}
}
