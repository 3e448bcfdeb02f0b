package opencl

import (
	"testing"
	"time"
)

// TestEventProfilingTimestamps: a command event must stamp each status
// transition in order, and the derived spans must be non-negative with
// the body's Duration covering the 1 MB copy.
func TestEventProfilingTimestamps(t *testing.T) {
	ctx := GetPlatforms()[0].CreateContext()
	q := ctx.CreateCommandQueue()
	buf, err := ctx.CreateBuffer(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	gate := NewUserEvent()
	ev, err := q.EnqueueWrite(buf, 0, make([]byte, 1<<20), gate)
	if err != nil {
		t.Fatal(err)
	}
	// While gated, the event is not terminal: profiling data is withheld
	// behind the sentinel, mirroring CL_PROFILING_INFO_NOT_AVAILABLE.
	if _, perr := ev.ProfilingInfo(); perr != ErrProfilingNotAvailable {
		t.Fatalf("gated event ProfilingInfo error = %v, want ErrProfilingNotAvailable", perr)
	}
	time.Sleep(2 * time.Millisecond)
	gate.Complete()
	if err := ev.Wait(); err != nil {
		t.Fatal(err)
	}
	p, perr := ev.ProfilingInfo()
	if perr != nil {
		t.Fatalf("ProfilingInfo after Wait: %v", perr)
	}
	if p.Queued.IsZero() {
		t.Fatal("no queued timestamp recorded at enqueue")
	}
	for name, ts := range map[string]time.Time{
		"submitted": p.Submitted, "running": p.Running, "complete": p.Complete,
	} {
		if ts.IsZero() {
			t.Errorf("missing %s timestamp: %+v", name, p)
		}
	}
	if p.Submitted.Before(p.Queued) || p.Running.Before(p.Submitted) || p.Complete.Before(p.Running) {
		t.Errorf("timestamps out of order: %+v", p)
	}
	// The gate held the command for >= 2ms before submission.
	if p.QueueDelay() < 2*time.Millisecond {
		t.Errorf("queue delay %v, want >= 2ms (the user-event gate)", p.QueueDelay())
	}
	if p.Duration() <= 0 {
		t.Errorf("zero Duration for a 1MB write")
	}
	if p.Total() < p.QueueDelay()+p.Duration() {
		t.Errorf("Total %v < QueueDelay %v + Duration %v", p.Total(), p.QueueDelay(), p.Duration())
	}
}

// TestEventProfilingUserEvent: user events never pass through
// submitted/running; their derived spans must degrade to zero rather
// than go negative.
func TestEventProfilingUserEvent(t *testing.T) {
	u := NewUserEvent()
	if _, perr := u.ProfilingInfo(); perr != ErrProfilingNotAvailable {
		t.Fatalf("incomplete user event ProfilingInfo error = %v, want ErrProfilingNotAvailable", perr)
	}
	u.Complete()
	p, perr := u.ProfilingInfo()
	if perr != nil {
		t.Fatalf("ProfilingInfo after Complete: %v", perr)
	}
	if p.Queued.IsZero() || p.Complete.IsZero() {
		t.Fatalf("user event missing terminal stamps: %+v", p)
	}
	if !p.Submitted.IsZero() || !p.Running.IsZero() {
		t.Errorf("user event has submitted/running stamps: %+v", p)
	}
	if p.QueueDelay() != 0 || p.LaunchDelay() != 0 || p.Duration() != 0 {
		t.Errorf("skipped states must yield zero spans: %+v", p)
	}
	if p.Total() < 0 {
		t.Errorf("negative total: %v", p.Total())
	}
}
