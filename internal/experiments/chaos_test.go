package experiments

// The chaos suite runs both harness phases under the race detector.
// Phase B (the service boundary) needs the daemon in a real child
// process: transport injection is installed process-wide on the client
// side, and an in-process daemon would both eat injected faults meant
// for clients and make -race report false races on the shared mmap
// pages (synchronization crosses the socket, which -race cannot see).
// TestMain therefore re-executes this test binary in daemon mode, the
// same shape the service suite and accelsim's -exp chaos use.

import (
	"io"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/parboil"
)

func TestMain(m *testing.M) {
	if sock := os.Getenv(ChaosDaemonEnv); sock != "" {
		ServeChaosDaemon(sock)
		return
	}
	os.Exit(m.Run())
}

// TestChaosRuntime is phase A: seeded device failures and slice delays
// under the 25-kernel multi-tenant workload. RunChaosRuntime itself
// asserts byte-identical-or-typed-error and a full drain; the test
// additionally pins that the harness exercised something and that no
// goroutines leak.
func TestChaosRuntime(t *testing.T) {
	// The harness takes its reference outputs from bare machines, which
	// borrow the VM's process-wide default workers; those start on first
	// use and belong to the process, not to the harness. Start them
	// before counting.
	if _, err := parboil.Kernels()[0].RunNative(); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	rep, err := RunChaosRuntime(42, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chains != 25 {
		t.Errorf("chains = %d, want 25", rep.Chains)
	}
	if rep.OK+rep.TypedFailed != rep.Chains {
		t.Errorf("ok(%d) + typed(%d) != chains(%d)", rep.OK, rep.TypedFailed, rep.Chains)
	}
	if rep.OK == 0 {
		t.Error("no chain succeeded — the harness is not proving recovery, only failure")
	}
	if rep.FaultsFired["device-fail"] == 0 && rep.FaultsFired["slice-delay"] == 0 {
		t.Errorf("no faults fired: %v — the chaos run was a plain run", rep.FaultsFired)
	}
	// Everything the harness started must be gone again: the runtime's
	// Shutdown stops the platforms' worker sets with everything else.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosWatchdog is the deterministic runaway-kernel scenario.
func TestChaosWatchdog(t *testing.T) {
	if err := RunChaosWatchdog(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestChaosService is phase B: client-side frame drops, torn
// connections and shm map failures against a clean child-process
// daemon. Every chain must converge via retry/replay, and the daemon
// must drain to mem=0 active=0 afterwards (asserted by stop).
func TestChaosService(t *testing.T) {
	sock, stop, err := SpawnChaosDaemon(os.Args[0], "-test.run=^$")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunChaosService(sock, 7, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chains != 25 || rep.OK != 25 {
		t.Errorf("chains=%d ok=%d, want 25/25", rep.Chains, rep.OK)
	}
	var fired int64
	for _, n := range rep.FaultsFired {
		fired += n
	}
	if fired == 0 {
		t.Errorf("no transport faults fired: %v", rep.FaultsFired)
	}
	if err := stop(); err != nil {
		t.Error(err)
	}
}
