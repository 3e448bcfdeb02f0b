package accelos

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/opencl"
)

// churnSrc is a long-running kernel with a 4 KB local-memory footprint:
// on the K20m model the §3 plan is then capped by local memory far
// below the virtual group count, leaving the share room to grow when a
// co-resident kernel completes.
// The spin loop keeps the kernel long-running relative to the O1
// bytecode VM (the tests below need its slices to still be in flight
// while a peer arrives); `acc & 0` contributes nothing to the output
// but keeps the loop live through mem2reg + DCE. Its trip count is a
// margin over the VM's speed: at 300 trips the register-major warp
// engine finished the kernel before TestBoundedClusterAdmission's
// queued tenant arrived in 22 of 200 runs at GOMAXPROCS=1 (0 of 200
// on the engine before it).
const churnSrc = `
kernel void churn(global int* out, int n)
{
    local int scratch[1024];
    int l = (int)get_local_id(0);
    scratch[l] = l;
    barrier(1);
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; t < 1200; ++t) acc += (i + t) & 7;
    if (i < n) out[i] = out[i] + scratch[l] + 1 + (acc & 0);
}
`

// peerSrc is a short-lived co-resident kernel with the same local
// footprint, so the two split the device's local memory while both run.
const peerSrc = `
kernel void peer(global int* out, int n)
{
    local int scratch[1024];
    int l = (int)get_local_id(0);
    scratch[l] = 2 * l;
    barrier(1);
    int i = (int)get_global_id(0);
    if (i < n) out[i] = scratch[l];
}
`

func setupIntKernel(t *testing.T, app *App, src, name string, n int64) (*KernelHandle, *BufferHandle) {
	t.Helper()
	prog, err := app.CreateProgram(src)
	if err != nil {
		t.Fatalf("CreateProgram(%s): %v", name, err)
	}
	buf, err := app.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, int32(n)); err != nil {
		t.Fatal(err)
	}
	return k, buf
}

// TestLiveDynamicResharing is the acceptance test for the sliced
// engine: with two apps on one device, the surviving kernel's planned
// PhysWGs must strictly increase after its peer completes — impossible
// under the old admission-time-only plan, which never revisited a
// running launch.
func TestLiveDynamicResharing(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	// Fine slices so re-plans land quickly.
	rt.SetSliceRounds(1)

	const longN, shortN = 512 * 32, 64 * 32
	appL := rt.Connect("long")
	defer appL.Close()
	appS := rt.Connect("short")
	defer appS.Close()

	kL, bufL := setupIntKernel(t, appL, churnSrc, "churn", longN)
	defer bufL.Release()
	kS, bufS := setupIntKernel(t, appS, peerSrc, "peer", shortN)
	defer bufS.Release()

	longDone := make(chan error, 1)
	go func() {
		longDone <- appL.EnqueueKernel(kL, opencl.NDRange{
			Dims: 1, Global: [3]int64{longN, 1, 1}, Local: [3]int64{32, 1, 1},
		})
	}()

	// Wait until the long kernel is in flight and has received its
	// solo plan.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if hist := rt.PlanHistory(); len(hist) > 0 && hist[0].App == "long" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("long kernel never received an initial plan")
		}
		time.Sleep(time.Millisecond)
	}

	// The peer arrives (shrinking the long kernel's share at its next
	// slice boundary) and completes (regrowing it) before returning:
	// the completion re-plan is pushed before the reply.
	if err := appS.EnqueueKernel(kS, opencl.NDRange{
		Dims: 1, Global: [3]int64{shortN, 1, 1}, Local: [3]int64{32, 1, 1},
	}); err != nil {
		t.Fatalf("peer EnqueueKernel: %v", err)
	}
	if err := <-longDone; err != nil {
		t.Fatalf("long EnqueueKernel: %v", err)
	}

	var longPlans []int64
	for _, s := range rt.PlanHistory() {
		if s.App == "long" {
			longPlans = append(longPlans, s.PhysWGs)
		}
	}
	if len(longPlans) < 3 {
		t.Fatalf("long kernel saw %d plans (%v), want >= 3 (solo, shrunk, regrown)", len(longPlans), longPlans)
	}
	solo := longPlans[0]
	minP, minIdx := solo, 0
	for i, p := range longPlans {
		if p < minP {
			minP, minIdx = p, i
		}
	}
	if minP >= solo {
		t.Fatalf("long kernel's share never shrank on peer arrival: plans %v", longPlans)
	}
	regrown := false
	for _, p := range longPlans[minIdx+1:] {
		if p > minP {
			regrown = true
		}
	}
	if !regrown {
		t.Fatalf("long kernel's PhysWGs did not strictly increase after peer completed: plans %v", longPlans)
	}
	if got := rt.Stats().Replans; got < 3 {
		t.Errorf("Replans = %d, want >= 3", got)
	}

	// Slicing and re-planning must not corrupt results: every virtual
	// group ran exactly once.
	out := make([]byte, longN*4)
	if err := bufL.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < longN; i++ {
		want := int32(i%32) + 1
		if got := int32(binary.LittleEndian.Uint32(out[i*4:])); got != want {
			t.Fatalf("long out[%d] = %d, want %d", i, got, want)
		}
	}
}

// busySrc is a long-running kernel with no local memory: launched with
// 128-wide groups its share of the K20m is bound by threads alone, so a
// plan's PhysWGs·128 reads directly as a fraction of the device.
const busySrc = `
kernel void busy(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; t < 300; ++t) acc += (i + t) & 7;
    if (i < n) out[i] = out[i] + 1 + (acc & 0);
}
`

// TestTenantFairnessOnOneDevice: shares are divided between tenants,
// then among a tenant's kernels, on the plain one-device runtime too.
// Tenant "many" keeps three kernels resident beside tenant "one"'s
// single kernel; the lone kernel is planned about half of the device's
// threads — per-kernel equal sharing would hand it a quarter.
func TestTenantFairnessOnOneDevice(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	rt.SetSliceRounds(1)
	dev := rt.Pool().Devices()[0]

	const n = 256 * 128
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{128, 1, 1}}
	many := rt.Connect("many")
	defer many.Close()
	one := rt.Connect("one")
	defer one.Close()

	var evs []*opencl.Event
	for _, app := range []*App{many, many, many, one} {
		k, buf := setupIntKernel(t, app, busySrc, "busy", n)
		defer buf.Release()
		ev, err := app.EnqueueKernelAsync(k, nd)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	}
	for _, ev := range evs {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// One re-plan logs one sample per launched resident, back to back:
	// four distinct executions in a row is a plan over all four.
	hist := rt.PlanHistory()
	for i := 0; i+4 <= len(hist); i++ {
		threads := map[string]int64{}
		execs := map[int]bool{}
		for _, s := range hist[i : i+4] {
			execs[s.ExecID] = true
			threads[s.App] += s.PhysWGs * dev.RoundWarp(128)
		}
		if len(execs) < 4 {
			continue
		}
		total := float64(dev.TotalThreads())
		if f := float64(threads["one"]) / total; f < 0.4 || f > 0.6 {
			t.Errorf("tenant one's kernel planned %.2f of the device's threads beside three kernels of tenant many, want about 0.5", f)
		}
		if f := float64(threads["many"]) / total; f < 0.4 || f > 0.6 {
			t.Errorf("tenant many's three kernels planned %.2f of the device's threads together, want about 0.5", f)
		}
		return
	}
	t.Fatalf("the four kernels were never resident together; plans: %+v", hist)
}

// fillSrc writes a deterministic value to a caller-chosen window of a
// buffer, so two apps can target disjoint halves of one allocation.
const fillSrc = `
kernel void fill(global int* out, int base, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[base + i] = base + i + 1;
}
`

// TestSharedBufferConcurrentLaunches is the regression test for the
// copy-back lost-update race: before zero-copy binding, every launch
// copied the WHOLE buffer in and out, so two apps writing disjoint
// halves of a shared buffer clobbered each other's half on copy-back
// (and the full-buffer copies raced under -race). With buffers bound
// in place, concurrent disjoint writers compose.
func TestSharedBufferConcurrentLaunches(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()

	const half = 2048
	appA := rt.Connect("writer-a")
	defer appA.Close()
	appB := rt.Connect("writer-b")
	defer appB.Close()

	shared, err := appA.CreateBuffer(2 * half * 4)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Release()

	mkKernel := func(app *App, base int32) *KernelHandle {
		prog, err := app.CreateProgram(fillSrc)
		if err != nil {
			t.Fatal(err)
		}
		k, err := prog.CreateKernel("fill")
		if err != nil {
			t.Fatal(err)
		}
		_ = k.SetArgBuffer(0, shared)
		_ = k.SetArgInt32(1, base)
		_ = k.SetArgInt32(2, half)
		return k
	}
	kA := mkKernel(appA, 0)
	kB := mkKernel(appB, half)

	nd := opencl.NDRange{Dims: 1, Global: [3]int64{half, 1, 1}, Local: [3]int64{64, 1, 1}}
	const iters = 4
	var wg sync.WaitGroup
	errs := make(chan error, 2*iters)
	run := func(app *App, k *KernelHandle) {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := app.EnqueueKernel(k, nd); err != nil {
				errs <- err
				return
			}
		}
	}
	wg.Add(2)
	go run(appA, kA)
	go run(appB, kB)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	out := make([]byte, 2*half*4)
	if err := shared.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*half; i++ {
		if got := int32(binary.LittleEndian.Uint32(out[i*4:])); got != int32(i+1) {
			t.Fatalf("shared[%d] = %d, want %d (lost update across concurrent launches)", i, got, i+1)
		}
	}
}

// TestBoundedClusterAdmission exercises the event-driven admission
// path: with maxResident 1, the second app's execution waits in the run
// queue and is launched by the completion event that frees the slot.
func TestBoundedClusterAdmission(t *testing.T) {
	rt := NewClusterRuntime(opencl.GetPlatforms()[:1], cluster.LeastLoaded(), 1)
	defer rt.Shutdown()
	rt.SetSliceRounds(1)

	const longN, shortN = 256 * 32, 32 * 32
	appL := rt.Connect("resident")
	defer appL.Close()
	appQ := rt.Connect("queued")
	defer appQ.Close()

	kL, bufL := setupIntKernel(t, appL, churnSrc, "churn", longN)
	defer bufL.Release()
	kQ, bufQ := setupIntKernel(t, appQ, peerSrc, "peer", shortN)
	defer bufQ.Release()

	longDone := make(chan error, 1)
	go func() {
		longDone <- appL.EnqueueKernel(kL, opencl.NDRange{
			Dims: 1, Global: [3]int64{longN, 1, 1}, Local: [3]int64{32, 1, 1},
		})
	}()
	// Wait for the first kernel to hold the device slot.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().KernelsLaunched == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first kernel never launched")
		}
		time.Sleep(time.Millisecond)
	}

	// This blocks until the queued execution is admitted by the first
	// kernel's completion event, launched, and completed.
	if err := appQ.EnqueueKernel(kQ, opencl.NDRange{
		Dims: 1, Global: [3]int64{shortN, 1, 1}, Local: [3]int64{32, 1, 1},
	}); err != nil {
		t.Fatalf("queued EnqueueKernel: %v", err)
	}
	if err := <-longDone; err != nil {
		t.Fatal(err)
	}

	st := rt.Stats()
	if st.QueuedAdmissions != 1 {
		t.Errorf("QueuedAdmissions = %d, want 1", st.QueuedAdmissions)
	}
	if st.KernelsLaunched != 2 {
		t.Errorf("KernelsLaunched = %d, want 2", st.KernelsLaunched)
	}

	out := make([]byte, shortN*4)
	if err := bufQ.Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < shortN; i++ {
		want := int32(2 * (i % 32))
		if got := int32(binary.LittleEndian.Uint32(out[i*4:])); got != want {
			t.Fatalf("queued out[%d] = %d, want %d", i, got, want)
		}
	}
}
