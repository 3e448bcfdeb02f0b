package interp

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ir"
)

// profSrc has the profile-interesting shapes: a data-dependent loop, a
// divergent branch, a helper call and a barrier.
const profSrc = `
int helper(int x) { return x * 3 + 1; }

kernel void prof(global const int* in, global int* out)
{
    local int buf[32];
    int i = (int)get_global_id(0);
    int lid = (int)get_local_id(0);
    buf[lid] = in[i];
    barrier(1);
    int acc = 0;
    int j;
    for (j = 0; j < lid + 1; ++j)
        acc += buf[(lid + j) % 32];
    if (i % 2 == 0)
        acc = helper(acc);
    out[i] = acc;
}
`

func runProf(t *testing.T, prof *Profiler) []int32 {
	t.Helper()
	m := compile(t, profSrc)
	m.Profiler = prof
	const n, wg = 256, 32
	in := m.NewRegion(n*4, ir.Global)
	out := m.NewRegion(n*4, ir.Global)
	iv := make([]int32, n)
	for i := range iv {
		iv[i] = int32(i%13 - 6)
	}
	in.WriteInt32s(0, iv)
	args := []Value{{K: ir.Pointer, P: Ptr{R: in}}, {K: ir.Pointer, P: Ptr{R: out}}}
	if err := m.Launch("prof", args, ND1(n, wg)); err != nil {
		t.Fatalf("launch: %v", err)
	}
	return out.ReadInt32s(0, n)
}

// TestProfiledExecutionParity holds profiled execution byte-identical to
// unprofiled and checks the derived counts are plausible and complete.
func TestProfiledExecutionParity(t *testing.T) {
	ref := runProf(t, nil)
	prof := NewProfiler()
	got := runProf(t, prof)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("out[%d]: profiled %d, unprofiled %d", i, got[i], ref[i])
		}
	}

	snaps := prof.Snapshot()
	if len(snaps) != 1 || snaps[0].Kernel != "prof" {
		t.Fatalf("snapshot = %+v, want one kernel 'prof'", snaps)
	}
	s := snaps[0]
	const groups = 256 / 32
	if s.Groups != groups {
		t.Fatalf("groups %d, want %d", s.Groups, groups)
	}
	if s.Instrs == 0 {
		t.Fatal("no instructions counted")
	}
	// Every work-item hits the one barrier exactly once.
	if s.Barriers != 256 {
		t.Fatalf("barriers = %d, want 256", s.Barriers)
	}
	if s.Faults != 0 {
		t.Fatalf("faults = %d, want 0", s.Faults)
	}
	var opTotal int64
	for _, oc := range s.Opcodes {
		opTotal += oc.Count
	}
	if opTotal != s.Instrs {
		t.Fatalf("opcode counts sum to %d, instrs %d", opTotal, s.Instrs)
	}
	if len(s.Blocks) == 0 {
		t.Fatal("no block entries counted")
	}
	// The loop body dominates: its block must out-hit function entry.
	var maxHits int64
	for _, bc := range s.Blocks {
		if bc.Hits > maxHits {
			maxHits = bc.Hits
		}
	}
	// 256 items x avg 16.5 loop iterations >> 256 entries.
	if maxHits < 1000 {
		t.Fatalf("hottest block has %d hits, expected a dominant loop body", maxHits)
	}

	var buf bytes.Buffer
	prof.Dump(&buf)
	for _, want := range []string{"kernel prof:", "opcodes:", "blocks:", "barrier"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("Dump missing %q:\n%s", want, buf.String())
		}
	}
}

// TestProfilerFaultCounting checks a faulting group is counted and
// still flushes a self-consistent profile.
func TestProfilerFaultCounting(t *testing.T) {
	const src = `
kernel void oops(global int* out) { out[get_global_id(0)] = out[0] / (int)get_global_id(0); }
`
	m := compile(t, src)
	prof := NewProfiler()
	m.Profiler = prof
	out := m.NewRegion(64*4, ir.Global)
	err := m.Launch("oops", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(64, 64))
	if err == nil {
		t.Fatal("expected division-by-zero fault")
	}
	s := prof.Snapshot()[0]
	if s.Faults != 1 || s.Groups != 1 {
		t.Fatalf("faults = %d, groups = %d, want 1 and 1", s.Faults, s.Groups)
	}
	var opTotal int64
	for _, oc := range s.Opcodes {
		opTotal += oc.Count
	}
	if opTotal != s.Instrs || s.Instrs == 0 {
		t.Fatalf("opcode counts sum to %d, instrs %d", opTotal, s.Instrs)
	}
}
