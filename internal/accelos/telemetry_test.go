package accelos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/interp"
	"repro/internal/metrics"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// TestRuntimeTelemetryEndToEnd drives a kernel + transfers through a
// fully instrumented runtime and checks every telemetry surface saw it:
// the kernel lifecycle span tree, slice spans on a named machine, DMA
// metrics under the tenant's queue label, the live scorecard, and a
// loadable Chrome trace export.
func TestRuntimeTelemetryEndToEnd(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	tr := telemetry.New(0)
	reg := telemetry.NewRegistry()
	score := metrics.NewLiveScorecard()
	rt.SetTelemetry(tr, reg, score)

	app := rt.Connect("tenant-a")
	defer app.Close()
	const n = 64 * 32
	k, buf := setupIntKernel(t, app, peerSrc, "peer", n)
	defer buf.Release()
	if err := buf.Write(0, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1}}
	if err := app.EnqueueKernel(k, nd); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	if err := buf.Read(0, out); err != nil {
		t.Fatal(err)
	}
	app.Finish()
	// The runtime records a kernel's telemetry after completing its event
	// (the record reads the event's terminal stamps), so the reply can
	// overtake it; the scorecard sample is the last thing written.
	for deadline := time.Now().Add(5 * time.Second); len(score.Compute().Tenants) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("kernel telemetry never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	spans := tr.Spans()
	var root *telemetry.Span
	byName := map[string]int{}
	for i := range spans {
		byName[spans[i].Name]++
		if spans[i].Cat == "kernel" && spans[i].Name == "peer" {
			root = &spans[i]
		}
	}
	if root == nil {
		t.Fatalf("no kernel root span; spans: %v", byName)
	}
	if root.Proc != "tenant-a" {
		t.Errorf("root span proc = %q, want tenant-a", root.Proc)
	}
	for _, child := range []string{"wait-list", "schedule", "execute"} {
		found := false
		for _, s := range spans {
			if s.Name == child && s.Parent == root.ID {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %q child of the kernel root span", child)
		}
	}
	sliceSpans := 0
	for _, s := range spans {
		if s.Cat == "slice" {
			sliceSpans++
			if s.Parent != root.ID {
				t.Errorf("slice span parented to %d, want root %d", s.Parent, root.ID)
			}
			if !strings.HasPrefix(s.Thread, "mach-") {
				t.Errorf("slice span thread = %q, want a mach-N machine name", s.Thread)
			}
		}
	}
	if sliceSpans == 0 {
		t.Error("no slice spans recorded")
	}
	// The app's write and read ran on its labeled transfer queue.
	if byName["write"] == 0 || byName["read"] == 0 {
		t.Errorf("missing transfer command spans: %v", byName)
	}

	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`kernels_total{dev="0",status="ok",tenant="tenant-a"} 1`,
		`dma_bytes_total{queue="tenant-a"}`,
		`enqueue_latency_ns`,
		`slice_ns`,
		`launch_phys_groups`,
		`replans_total`,
		`warp_occupancy`,
		`divergence_fallbacks_total`,
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("metrics snapshot missing %q:\n%s", want, text.String())
		}
	}

	// Plan vs started groups: the plan is the entitlement on the modelled
	// platform, the handle starts what the executing lanes can hold, and
	// a slice that started fewer counts as clamped.
	st := rt.Stats()
	if st.PhysGroupsStarted < 1 || st.PhysGroupsStarted > st.PhysGroupsPlanned ||
		st.PhysGroupsStarted > int64(sliceSpans*interp.Lanes()) {
		t.Errorf("physical groups started %d, planned %d, over %d slices on %d lanes",
			st.PhysGroupsStarted, st.PhysGroupsPlanned, sliceSpans, interp.Lanes())
	}
	clamped := reg.Counter("launch_groups_clamped_total", telemetry.L("tenant", "tenant-a")).Value()
	if (clamped > 0) != (st.PhysGroupsStarted < st.PhysGroupsPlanned) {
		t.Errorf("launch_groups_clamped_total = %d with %d of %d planned groups started",
			clamped, st.PhysGroupsStarted, st.PhysGroupsPlanned)
	}

	sc := score.Compute()
	if len(sc.Tenants) != 1 || sc.Tenants[0].Tenant != "tenant-a" || sc.Tenants[0].Kernels != 1 {
		t.Errorf("scorecard = %+v, want one kernel for tenant-a", sc)
	}
	if sc.Tenants[0].Slowdown < 1 {
		t.Errorf("individual slowdown %f < 1", sc.Tenants[0].Slowdown)
	}

	var jsonBuf bytes.Buffer
	if err := tr.WriteChromeTrace(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(jsonBuf.Bytes(), &doc); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Errorf("Chrome trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
}

// TestRuntimeAdmissionQueueTelemetry checks the bounded runtime's run
// queue from the telemetry side: with one resident slot, two executions
// submitted behind a running one wait in the queue, each wait is counted
// per tenant, and all three complete.
func TestRuntimeAdmissionQueueTelemetry(t *testing.T) {
	rt := NewClusterRuntime(opencl.GetPlatforms()[:1], cluster.LeastLoaded(), 1)
	defer rt.Shutdown()
	rt.SetSliceRounds(1)
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)

	const longN, shortN = 256 * 32, 32 * 32
	app := rt.Connect("greedy")
	defer app.Close()
	kL, bufL := setupIntKernel(t, app, churnSrc, "churn", longN)
	defer bufL.Release()
	kQ, bufQ := setupIntKernel(t, app, peerSrc, "peer", shortN)
	defer bufQ.Release()

	ndL := opencl.NDRange{Dims: 1, Global: [3]int64{longN, 1, 1}, Local: [3]int64{32, 1, 1}}
	ndS := opencl.NDRange{Dims: 1, Global: [3]int64{shortN, 1, 1}, Local: [3]int64{32, 1, 1}}
	evL, err := app.EnqueueKernelAsync(kL, ndL)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the long kernel to hold the device slot, so the next two
	// submissions land in the run queue.
	deadline := time.Now().Add(5 * time.Second)
	for rt.Stats().KernelsLaunched == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first kernel never launched")
		}
		time.Sleep(time.Millisecond)
	}
	evQ, err := app.EnqueueKernelAsync(kQ, ndS)
	if err != nil {
		t.Fatal(err)
	}
	for rt.Stats().QueuedAdmissions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second kernel never queued")
		}
		time.Sleep(time.Millisecond)
	}
	evR, err := app.EnqueueKernelAsync(kQ, ndS)
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range []*opencl.Event{evL, evQ, evR} {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	st := rt.Stats()
	if st.QueuedAdmissions != 2 {
		t.Errorf("QueuedAdmissions = %d, want 2", st.QueuedAdmissions)
	}
	if st.KernelsLaunched != 3 {
		t.Errorf("KernelsLaunched = %d, want 3", st.KernelsLaunched)
	}
	if got := reg.Counter("admission_queued_total", telemetry.L("tenant", "greedy")).Value(); got != 2 {
		t.Errorf("admission_queued_total{tenant=greedy} = %d, want 2", got)
	}
	// A kernel is counted after its event reports, so wait for all three.
	waitCounter(t, reg, "kernels_total", 3)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `kernels_total{dev="0",status="ok",tenant="greedy"} 3`) {
		t.Errorf("metrics snapshot missing the three completed kernels:\n%s", text.String())
	}
}
