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
// unprofiled (SampleEvery=1 makes every group record its landings) and
// checks the derived counts are plausible and complete.
func TestProfiledExecutionParity(t *testing.T) {
	ref := runProf(t, nil)
	prof := NewProfiler(ProfileOptions{SampleEvery: 1})
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
	if s.Groups != groups || s.Sampled != groups {
		t.Fatalf("groups %d sampled %d, want %d at SampleEvery=1", s.Groups, s.Sampled, groups)
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

// TestProfilerSampling checks the 1-in-N group sampling: 64 groups at
// SampleEvery=16 sample exactly 4, 8 groups sample none, and the launch
// path's instruction estimate is the sampled total scaled by the period.
func TestProfilerSampling(t *testing.T) {
	prof := NewProfiler(ProfileOptions{SampleEvery: 16})
	runProf(t, prof) // 8 groups: not enough for a sample yet
	s := prof.Snapshot()[0]
	if s.Groups != 8 || s.Sampled != 0 {
		t.Fatalf("groups %d sampled %d, want 8/0", s.Groups, s.Sampled)
	}
	for i := 0; i < 7; i++ {
		runProf(t, prof)
	}
	s = prof.Snapshot()[0]
	if s.Groups != 64 || s.Sampled != 4 {
		t.Fatalf("groups %d sampled %d, want 64/4", s.Groups, s.Sampled)
	}
	if s.Instrs == 0 {
		t.Fatal("sampled groups counted no instructions")
	}
	if est := prof.KernelInstrEstimate("prof"); est != s.Instrs*16 {
		t.Fatalf("KernelInstrEstimate = %d, want Instrs %d x SampleEvery 16", est, s.Instrs)
	}
}

// TestProfilerSamplingAnyGroupCount: a stream of T-group launches
// samples one group in every, whatever T is — the one- and two-group
// slices the runtime starts included — and for T > 1 the sampled group
// moves across the grid: group 0, whose items alone enter the if-arm,
// is sampled sometimes but not always.
func TestProfilerSamplingAnyGroupCount(t *testing.T) {
	mod := compileOrDie(t, `
kernel void samp(global int* out)
{
    if (get_group_id(0) == 0)
        out[0] = 1;
}
`)
	for _, every := range []int64{2, 16, 64} {
		for _, T := range []int64{1, 2, 3, 4, 8, 64} {
			prof := NewProfiler(ProfileOptions{SampleEvery: every})
			m := NewMachine(mod)
			m.Profiler = prof
			out := m.NewRegion(4, ir.Global)
			args := []Value{{K: ir.Pointer, P: Ptr{R: out}}}
			launches := (256*every + T - 1) / T
			for i := int64(0); i < launches; i++ {
				if err := m.Launch("samp", args, ND1(T, 1)); err != nil {
					t.Fatal(err)
				}
			}
			s := prof.Snapshot()[0]
			groups := launches * T
			if want := groups / every; s.Groups != groups || s.Sampled < want-1 || s.Sampled > want+1 {
				t.Errorf("T=%d every=%d: %d groups, %d sampled; want %d groups, %d±1 sampled",
					T, every, s.Groups, s.Sampled, groups, want)
				continue
			}
			var group0 int64
			for _, bc := range s.Blocks {
				if strings.HasPrefix(bc.Block, "if.then") {
					group0 += bc.Hits
				}
			}
			if T == 1 && group0 != s.Sampled {
				t.Errorf("T=1 every=%d: group 0 sampled %d times of %d samples", every, group0, s.Sampled)
			}
			if T > 1 && (group0 == 0 || group0 == s.Sampled) {
				t.Errorf("T=%d every=%d: group 0 sampled %d times of %d samples: the sampled group does not move",
					T, every, group0, s.Sampled)
			}
		}
	}
}

// TestProfilerFaultCounting checks faults are recorded even for
// unsampled groups, and that a sampled faulting group still flushes a
// self-consistent profile.
func TestProfilerFaultCounting(t *testing.T) {
	const src = `
kernel void oops(global int* out) { out[get_global_id(0)] = out[0] / (int)get_global_id(0); }
`
	for _, tc := range []struct {
		every   int64
		sampled int64
	}{
		{1 << 20, 0}, // never samples
		{1, 1},
	} {
		m := compile(t, src)
		prof := NewProfiler(ProfileOptions{SampleEvery: tc.every})
		m.Profiler = prof
		out := m.NewRegion(64*4, ir.Global)
		err := m.Launch("oops", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(64, 64))
		if err == nil {
			t.Fatal("expected division-by-zero fault")
		}
		s := prof.Snapshot()[0]
		if s.Faults != 1 {
			t.Fatalf("SampleEvery %d: faults = %d, want 1", tc.every, s.Faults)
		}
		if s.Sampled != tc.sampled {
			t.Fatalf("SampleEvery %d: sampled = %d, want %d", tc.every, s.Sampled, tc.sampled)
		}
		var opTotal int64
		for _, oc := range s.Opcodes {
			opTotal += oc.Count
		}
		if opTotal != s.Instrs || (s.Instrs > 0) != (tc.sampled > 0) {
			t.Fatalf("SampleEvery %d: opcode counts sum to %d, instrs %d", tc.every, opTotal, s.Instrs)
		}
	}
}
