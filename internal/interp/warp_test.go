package interp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
)

// scalarO1 is DefaultCompileOpts minus warp execution: the per-item
// reference the warp engine must match byte for byte.
var scalarO1 = CompileOpts{Opt: true}

// runWarpKernel compiles src, launches kernel "k" once under opts with
// one int32 output buffer of n elements and one int32 input buffer of n
// elements (seeded deterministically), and returns the output bytes.
func runWarpKernel(t *testing.T, src string, opts CompileOpts, nd NDRange, n int) []byte {
	t.Helper()
	mod, err := clc.Compile(src, "k")
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	m := NewMachine(mod)
	m.UseProgram(CompileModuleOpts(mod, opts))
	in := m.NewRegion(int64(n)*4, ir.Global)
	out := m.NewRegion(int64(n)*4, ir.Global)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in.Bytes[i*4:], uint32(i*2654435761+12345))
	}
	args := []Value{
		{K: ir.Pointer, P: Ptr{R: out}},
		{K: ir.Pointer, P: Ptr{R: in}},
		IntV(int64(n)),
	}
	if err := m.Launch("k", args, nd); err != nil {
		t.Fatalf("launch: %v\n%s", err, src)
	}
	return out.Bytes
}

// TestWarpScalarParityFuzz randomizes branch conditions on the local id
// (the divergence source the uniformity analysis must classify) inside
// a loop with loads, stores and a barrier, and requires the warp engine
// — at several widths, including widths that leave partial warps — to
// reproduce the scalar engine's output bytes exactly.
func TestWarpScalarParityFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	for trial := 0; trial < 12; trial++ {
		src := fmt.Sprintf(`
kernel void k(global int* out, global const int* in, int n)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int acc = %d;
    int i;
    for (i = 0; i < %d; ++i) {
        if (((lid >> %d) ^ (i * %d)) & %d) acc += in[(gid + i) %% n] * %d;
        else acc -= (i + lid) & %d;
        if ((i & 3) == %d) acc ^= lid << 1;
    }
    barrier(1);
    if ((lid & %d) == 0) acc += gid * %d;
    out[gid] = acc;
}
`,
			rng.Intn(100), 8+rng.Intn(24), rng.Intn(3), 1+rng.Intn(7), rng.Intn(4),
			1+rng.Intn(5), rng.Intn(8), rng.Intn(4), rng.Intn(4), 1+rng.Intn(3))
		nd := ND1(128, 64)
		want := runWarpKernel(t, src, scalarO1, nd, 128)
		for _, width := range []int{64, 24, 7} {
			got := runWarpKernel(t, src, CompileOpts{Opt: true, WarpWidth: width}, nd, 128)
			if !bytes.Equal(want, got) {
				t.Fatalf("trial %d: warp width %d diverges from scalar output\n%s", trial, width, src)
			}
		}
	}
}

// warpStats launches kernel "k" of src over two 64-item groups under
// an exact profiler and a stats sink, and returns both views.
func warpStats(t *testing.T, src string) (KernelProfileSnapshot, WarpLaunchStats, *Profiler) {
	t.Helper()
	mod, err := clc.Compile(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(mod)
	m.UseProgram(CompileModuleOpts(mod, DefaultCompileOpts))
	m.Profiler = NewProfiler()
	var sunk []WarpLaunchStats
	m.WarpStats = warpSinkFunc(func(st WarpLaunchStats) { sunk = append(sunk, st) })

	const n = 128
	in := m.NewRegion(n*4, ir.Global)
	out := m.NewRegion(n*4, ir.Global)
	args := []Value{
		{K: ir.Pointer, P: Ptr{R: out}},
		{K: ir.Pointer, P: Ptr{R: in}},
		IntV(n),
	}
	if err := m.Launch("k", args, ND1(n, 64)); err != nil {
		t.Fatal(err)
	}
	snaps := m.Profiler.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("got %d kernel snapshots, want 1", len(snaps))
	}
	if len(sunk) != 1 {
		t.Fatalf("sink observed %d launches, want 1", len(sunk))
	}
	return snaps[0], sunk[0], m.Profiler
}

// TestWarpStatsReform checks the warp statistics end to end, through
// both the profiler snapshot and a custom Machine.WarpStats sink, on
// the two ways a warp meets divergence. A branch on the local id splits
// the lane mask and reconverges: the warp never leaves vector dispatch
// (no spill, nothing to re-form). A call the inliner must leave alone
// (a recursive helper) spills every warp onto the scalar path, and the
// barrier after it re-forms them.
func TestWarpStatsReform(t *testing.T) {
	s, st, prof := warpStats(t, `
kernel void k(global int* out, global const int* in, int n)
{
    int lid = (int)get_local_id(0);
    int acc = 0;
    int i;
    for (i = 0; i < 16; ++i) acc += i & 7;
    if (lid > 5) acc += in[lid];
    barrier(1);
    for (i = 0; i < 16; ++i) acc += i & 3;
    out[lid] = acc;
}
`)
	if s.Warps != 2 {
		t.Errorf("Warps = %d, want 2 (two 64-item groups, one warp each)", s.Warps)
	}
	if s.WarpLanes != 128 {
		t.Errorf("WarpLanes = %d, want 128 (full occupancy)", s.WarpLanes)
	}
	if s.WarpDiverges != 2 {
		t.Errorf("WarpDiverges = %d, want 2 (the local-id branch splits every warp once)", s.WarpDiverges)
	}
	if s.WarpSpills != 0 || s.WarpReforms != 0 {
		t.Errorf("WarpSpills/WarpReforms = %d/%d, want 0/0 (a local-id branch is masked, not spilled)", s.WarpSpills, s.WarpReforms)
	}
	if st.Kernel != "k" || st.Width != DefaultWarpWidth {
		t.Errorf("sink stats = %+v, want kernel k at width %d", st, DefaultWarpWidth)
	}
	if st.Warps != s.Warps || st.Diverges != s.WarpDiverges || st.Spills != s.WarpSpills || st.Reforms != s.WarpReforms {
		t.Errorf("sink stats %+v disagree with profiler snapshot %+v", st, s)
	}
	var buf bytes.Buffer
	prof.Dump(&buf)
	if !strings.Contains(buf.String(), "warps: 2") || !strings.Contains(buf.String(), "masked divergences 2") ||
		!strings.Contains(buf.String(), "divergence fallbacks 0") {
		t.Errorf("Dump lacks warp stats:\n%s", buf.String())
	}

	s, st, _ = warpStats(t, `
int tri(int x) { if (x <= 0) return 0; return x + tri(x - 1); }
kernel void k(global int* out, global const int* in, int n)
{
    int lid = (int)get_local_id(0);
    int acc = tri(lid & 3);
    barrier(1);
    int i;
    for (i = 0; i < 16; ++i) acc += i & 3;
    out[lid] = acc;
}
`)
	if s.WarpSpills != 2 {
		t.Errorf("WarpSpills = %d, want 2 (the recursive call spills every warp)", s.WarpSpills)
	}
	if s.WarpReforms != 2 {
		t.Errorf("WarpReforms = %d, want 2 (every warp re-forms at the barrier)", s.WarpReforms)
	}
	if st.Spills != s.WarpSpills || st.Reforms != s.WarpReforms {
		t.Errorf("sink stats %+v disagree with profiler snapshot %+v", st, s)
	}
}

type warpSinkFunc func(WarpLaunchStats)

func (f warpSinkFunc) ObserveWarpLaunch(st WarpLaunchStats) { f(st) }

// TestWarpPartialOccupancy: a group smaller than the warp width forms
// one partial warp and still computes correct results.
func TestWarpPartialOccupancy(t *testing.T) {
	const src = `
kernel void k(global int* out, global const int* in, int n)
{
    int lid = (int)get_local_id(0);
    int acc = 0;
    int i;
    for (i = 0; i < 32; ++i) acc += i & 7;
    out[get_global_id(0)] = acc + in[lid] + lid;
}
`
	mod, err := clc.Compile(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(mod)
	m.UseProgram(CompileModuleOpts(mod, DefaultCompileOpts))
	m.Profiler = NewProfiler()
	const n = 20 // two groups of 10: partial warps at width 64
	in := m.NewRegion(n*4, ir.Global)
	out := m.NewRegion(n*4, ir.Global)
	args := []Value{
		{K: ir.Pointer, P: Ptr{R: out}},
		{K: ir.Pointer, P: Ptr{R: in}},
		IntV(n),
	}
	if err := m.Launch("k", args, ND1(n, 10)); err != nil {
		t.Fatal(err)
	}
	s := m.Profiler.Snapshot()[0]
	if s.Warps != 2 || s.WarpLanes != 20 {
		t.Errorf("Warps/WarpLanes = %d/%d, want 2/20 (two partial warps)", s.Warps, s.WarpLanes)
	}
	for i := 0; i < n; i++ {
		lid := i % 10
		got := int32(binary.LittleEndian.Uint32(out.Bytes[i*4:]))
		// sum over 32 iterations of (i & 7) = 4 * (0+1+...+7) = 112.
		if exp := int32(112 + lid); got != exp {
			t.Fatalf("out[%d] = %d, want %d", i, got, exp)
		}
	}
}

// TestWarpFaultAttribution: a fault on one specific lane must be
// attributed to the same work-item global id under the warp engine as
// under the scalar engine, with the same error text. There is one case
// per lane-mode trap that depends on a lane's own data; each first
// faults on lid 37 of 64, a lane that is neither the first nor the last
// the lane loop visits. far runs past the end of both buffers from lid
// 37 on. The once cases trap on uniform operands inside a divergent
// region, once per warp: on its first active lane, lid 37 again. Each
// names its faulting instruction, which the warp listing must show in
// once mode.
func TestWarpFaultAttribution(t *testing.T) {
	cases := []struct{ name, stmt, once string }{
		{"division by zero", "out[lid] = n / (lid - 37) + 1;", ""},
		{"remainder by zero", "out[lid] = n % (lid - 37);", ""},
		{"indexed load", "out[lid] = in[far];", ""},
		{"store", "out[far] = n;", ""},
		{"load-bin-store", "out[far] += n;", ""},
		{"atomic_add", "atomic_add(&out[far], n);", ""},
		{"once division by zero", "if (lid >= 37) out[lid] = n / (n - 64) + 1;", "bin sdiv"},
		{"once indexed load", "if (lid >= 37) out[lid] = in[n * 1000];", "gep+load"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			src := fmt.Sprintf(`
kernel void k(global int* out, global const int* in, int n)
{
    int lid = (int)get_local_id(0);
    int far = lid + (lid / 37) * 1000;
    %s
}
`, c.stmt)
			mod, err := clc.Compile(src, "k")
			if err != nil {
				t.Fatal(err)
			}
			if c.once != "" {
				var listing strings.Builder
				if err := CompileModuleOpts(mod, DefaultCompileOpts).DumpWarp(&listing, "k"); err != nil {
					t.Fatal(err)
				}
				found := false
				for _, line := range strings.Split(listing.String(), "\n") {
					f := strings.Fields(line)
					found = found || len(f) > 2 && f[1] == "once" && strings.Contains(line, c.once)
				}
				if !found {
					t.Fatalf("no once-mode %q instruction:\n%s", c.once, listing.String())
				}
			}
			fault := func(opts CompileOpts) string {
				m := NewMachine(mod)
				m.UseProgram(CompileModuleOpts(mod, opts))
				in := m.NewRegion(64*4, ir.Global)
				out := m.NewRegion(64*4, ir.Global)
				args := []Value{
					{K: ir.Pointer, P: Ptr{R: out}},
					{K: ir.Pointer, P: Ptr{R: in}},
					IntV(64),
				}
				err := m.Launch("k", args, ND1(64, 64))
				if err == nil {
					t.Fatal("launch did not fault")
				}
				return err.Error()
			}
			scalar := fault(scalarO1)
			warp := fault(DefaultCompileOpts)
			if scalar != warp {
				t.Errorf("fault attribution differs:\n  scalar: %s\n  warp:   %s", scalar, warp)
			}
			if !strings.Contains(warp, "(37,0,0)") {
				t.Errorf("fault not attributed to lane 37: %s", warp)
			}
		})
	}
}

// TestWarpWidthKnob: WarpWidth is per-program — width 0 disables warp
// execution entirely (no warps reported), and Prog exposes the width.
func TestWarpWidthKnob(t *testing.T) {
	const src = `
kernel void k(global int* out, global const int* in, int n)
{
    out[get_local_id(0)] = n;
}
`
	mod, err := clc.Compile(src, "k")
	if err != nil {
		t.Fatal(err)
	}
	if w := CompileModuleOpts(mod, scalarO1).WarpWidth(); w != 0 {
		t.Errorf("scalar program WarpWidth = %d, want 0", w)
	}
	if w := CompileModuleOpts(mod, DefaultCompileOpts).WarpWidth(); w != DefaultWarpWidth {
		t.Errorf("default program WarpWidth = %d, want %d", w, DefaultWarpWidth)
	}

	m := NewMachine(mod)
	m.UseProgram(CompileModuleOpts(mod, scalarO1))
	m.Profiler = NewProfiler()
	in := m.NewRegion(64*4, ir.Global)
	out := m.NewRegion(64*4, ir.Global)
	args := []Value{
		{K: ir.Pointer, P: Ptr{R: out}},
		{K: ir.Pointer, P: Ptr{R: in}},
		IntV(64),
	}
	if err := m.Launch("k", args, ND1(64, 64)); err != nil {
		t.Fatal(err)
	}
	if s := m.Profiler.Snapshot()[0]; s.Warps != 0 {
		t.Errorf("scalar program formed %d warps, want 0", s.Warps)
	}
}

// TestWarpMixedRegionLanes holds the warp engine's memory arms, which
// resolve the first active lane's region once per instruction, to the
// tree-walker and the scalar engine when one instruction's lanes name
// two buffers (a select on lid parity) or one lane of a uniform base
// runs out of bounds. Each kernel runs as two groups of 64 over out, a
// (1000+i), b (2000+i) and c (zero). The mixed cases must leave every
// buffer byte-identical across the engines; the fault cases must fail
// at global id 101, lane 37 of the second group, on every engine.
func TestWarpMixedRegionLanes(t *testing.T) {
	const head = `
kernel void k(global int* out, global int* a, global int* b, global int* c)
{
    int i = (int)get_global_id(0);
    int l = (int)get_local_id(0);
    global int* p = (l & 1) ? a : b;
`
	cases := []struct{ name, body, fault string }{
		{"load", "out[i] = p[i] + p[(i + 5) & 127];", ""},
		{"store", "p[i] = i * 3; out[i] = a[i] - b[i];", ""},
		{"load-bin-store", "p[i] += i;", ""},
		{"atomic", "out[i] = atomic_add(((l & 2) ? a : c) + (i & 3), l) >= 0; atomic_max(p + (i & 7), i);", ""},
		{"load out of bounds", "out[i] = a[i == 101 ? 100000 : i];", "out-of-bounds access: offset 400000 size 4 in region of 512 bytes"},
		{"store out of bounds", "a[i == 101 ? -1 : i] = l;", "out-of-bounds access: offset -4 size 4 in region of 512 bytes"},
		{"atomic out of bounds", "atomic_add(c + (i == 101 ? 128 : l), 1);", "out-of-bounds access: offset 512 size 4 in region of 512 bytes"},
	}
	engines := []struct {
		name string
		opts *CompileOpts // nil: the tree-walker
	}{
		{"treewalk", nil},
		{"scalar-o1", &scalarO1},
		{"warp-64", &DefaultCompileOpts},
		{"warp-24", &CompileOpts{Opt: true, WarpWidth: 24}},
	}
	const n = 128
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod, err := clc.Compile(head+"    "+c.body+"\n}\n", "k")
			if err != nil {
				t.Fatal(err)
			}
			var ref []byte
			for _, e := range engines {
				m := NewMachine(mod)
				if e.opts == nil {
					m.Engine = EngineTreeWalk
				} else {
					m.UseProgram(CompileModuleOpts(mod, *e.opts))
				}
				var bufs []*Region
				var args []Value
				for k := 0; k < 4; k++ {
					r := m.NewRegion(n*4, ir.Global)
					for i := 0; i < n && (k == 1 || k == 2); i++ {
						r.WriteInt32s(int64(i)*4, []int32{int32(k*1000 + i)})
					}
					bufs = append(bufs, r)
					args = append(args, Value{K: ir.Pointer, P: Ptr{R: r}})
				}
				err := m.Launch("k", args, ND1(n, 64))
				if c.fault != "" {
					want := "work-item global id (101,0,0): interp: " + c.fault
					if err == nil || !strings.HasSuffix(err.Error(), want) {
						t.Errorf("%s: err = %v, want ...%s", e.name, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				var all []byte
				for _, r := range bufs {
					all = append(all, r.Bytes...)
				}
				if ref == nil {
					ref = all
				} else if !bytes.Equal(ref, all) {
					t.Fatalf("%s: buffers differ from the tree-walker's", e.name)
				}
			}
		})
	}
}
