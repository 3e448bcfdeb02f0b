package accelos

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// mixSrc is a multi-group kernel whose output depends on every launch
// before it, so a launch that ran a group twice or skipped one shows in
// the bytes.
const mixSrc = `
kernel void mix(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; t < 16; ++t) acc += (i * t) & 15;
    if (i < n) out[i] = out[i] * 5 + acc;
}
`

// laneCounter is a machine-pool stats sink that counts what native
// launches report about their lanes.
type laneCounter struct{ handoffs, lingers atomic.Int64 }

func (c *laneCounter) ObserveWarpLaunch(interp.WarpLaunchStats) {}
func (c *laneCounter) ObserveLinger(int64)                      { c.lingers.Add(1) }
func (c *laneCounter) ObserveLaneStart(_ int64, handoff bool) {
	if handoff {
		c.handoffs.Add(1)
	}
}

// TestLingerGate: a lone tenant's back-to-back multi-group launches
// start on a lingering worker; with a second App connected nothing
// lingers; once it closes, lingering resumes; the native CommandQueue
// never lingers. Outputs match native launches throughout.
func TestLingerGate(t *testing.T) {
	if interp.Lanes() < 2 {
		t.Skip("one lane: launches have no helper to linger")
	}
	plat := opencl.GetPlatforms()[0]
	rt := NewRuntime(plat)
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	native := &laneCounter{}
	plat.Machines().SetWarpStats(native)
	defer plat.Machines().SetWarpStats(nil)

	const n = 16 * 32
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1}}
	app := rt.Connect("a")
	defer app.Close()
	k, buf := setupIntKernel(t, app, mixSrc, "mix", n)
	defer buf.Release()
	if err := buf.Write(0, make([]byte, n*4)); err != nil {
		t.Fatal(err)
	}

	prog := rt.Ctx.CreateProgramWithSource(mixSrc)
	if err := prog.Build(); err != nil {
		t.Fatal(err)
	}
	nk, err := prog.CreateKernel("mix")
	if err != nil {
		t.Fatal(err)
	}
	nbuf, err := rt.Ctx.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := nk.SetArgBuffer(0, nbuf); err != nil {
		t.Fatal(err)
	}
	if err := nk.SetArgInt32(1, n); err != nil {
		t.Fatal(err)
	}
	q := rt.Ctx.CreateCommandQueue()

	handoffs := func() int64 { return reg.CounterTotal("lane_linger_handoffs_total") }
	// phase runs the App's launches back to back, then as many native
	// ones, and compares the two buffers. It returns the hand-offs the
	// App's launches got. Each side starts 50 ms after the other ended,
	// fifty times the 1 ms a worker lingers for, so no worker the other
	// side left lingering is still there.
	phase := func(name string) int64 {
		t.Helper()
		time.Sleep(50 * time.Millisecond)
		before := handoffs()
		const launches = 20
		for i := 0; i < launches; i++ {
			if err := app.EnqueueKernel(k, nd); err != nil {
				t.Fatalf("%s: EnqueueKernel: %v", name, err)
			}
		}
		got := handoffs() - before
		t.Logf("%s: %d of %d launches handed to a lingering worker", name, got, launches)
		time.Sleep(50 * time.Millisecond)
		for i := 0; i < launches; i++ {
			if err := q.EnqueueNDRangeKernel(nk, nd); err != nil {
				t.Fatalf("%s: native launch: %v", name, err)
			}
		}
		out, want := make([]byte, n*4), make([]byte, n*4)
		if err := buf.Read(0, out); err != nil {
			t.Fatal(err)
		}
		if err := q.EnqueueReadBuffer(nbuf, 0, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, want) {
			t.Fatalf("%s: the App's output differs from native", name)
		}
		return got
	}

	// A loaded machine can stretch every gap between two launches past
	// the linger, so a lone tenant gets a few phases to show a hand-off;
	// with two Apps none may ever happen.
	lingers := func(name string) bool {
		for try := 0; try < 5; try++ {
			if phase(name) > 0 {
				return true
			}
		}
		return false
	}
	if !lingers("one App") {
		t.Error("a lone tenant's launches were never handed to a lingering worker")
	}
	other := rt.Connect("b")
	if got := phase("two Apps"); got != 0 {
		t.Errorf("%d launches were handed to a lingering worker with two Apps connected", got)
	}
	other.Close()
	if !lingers("second App closed") {
		t.Error("lingering did not resume after the second App closed")
	}
	if h, l := native.handoffs.Load(), native.lingers.Load(); h != 0 || l != 0 {
		t.Errorf("native launches: %d hand-offs, %d lingers; want none", h, l)
	}
	if reg.CounterTotal("lane_linger_ns_total") == 0 {
		t.Error("no lingering time recorded")
	}
	if reg.Histogram("lane_start_ns", telemetry.L("tenant", "a")).Count() == 0 {
		t.Error("no lane start delay recorded")
	}
}
