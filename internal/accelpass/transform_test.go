package accelpass

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/rtlib"
)

// runEquiv compiles src, runs the named kernel both natively and through
// the accelOS transformation with a reduced number of physical
// work-groups, compares every output buffer byte for byte, and returns
// the native buffers by argument index.
//
// bufs maps argument index -> byte size for buffers; ints maps argument
// index -> scalar int32 value. seed fills buffers deterministically.
func runEquiv(t *testing.T, src, kernel string, nd interp.NDRange, physGroups int64,
	bufSizes map[int]int64, intArgs map[int]int64) map[int][]byte {
	t.Helper()

	orig, err := clc.Compile(src, "orig")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	tm := ir.CloneModule(orig)
	res, err := Transform(tm)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	info := res.Kernels[kernel]
	if info == nil {
		t.Fatalf("no info for kernel %q", kernel)
	}

	nArgs := len(orig.Lookup(kernel).Params)
	run := func(m *ir.Module, transformed bool) map[int][]byte {
		mach := interp.NewMachine(m)
		args := make([]interp.Value, 0, nArgs+1)
		out := make(map[int][]byte)
		for i := 0; i < nArgs; i++ {
			if size, ok := bufSizes[i]; ok {
				r := mach.NewRegion(size, ir.Global)
				// Deterministic fill so both runs see identical inputs.
				for j := range r.Bytes {
					r.Bytes[j] = byte((j*31 + i*7) % 251)
				}
				args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
				out[i] = r.Bytes
			} else if v, ok := intArgs[i]; ok {
				args = append(args, interp.IntV(v))
			} else {
				t.Fatalf("argument %d has no binding", i)
			}
		}
		launchND := nd
		if transformed {
			rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
			rtr := mach.NewRegion(rtlib.RTWords*8, ir.Global)
			rtr.WriteInt64s(0, rtWords)
			args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: rtr}})
			launchND = interp.NDRange{
				Dims:   nd.Dims,
				Global: [3]int64{physGroups * nd.Local[0], nd.Local[1], nd.Local[2]},
				Local:  nd.Local,
			}
		}
		if err := mach.Launch(kernel, args, launchND); err != nil {
			t.Fatalf("launch (transformed=%v): %v", transformed, err)
		}
		return out
	}

	want := run(orig, false)
	got := run(tm, true)
	for i := range want {
		if string(want[i]) != string(got[i]) {
			t.Errorf("kernel %s: buffer arg %d differs between native and transformed execution", kernel, i)
		}
	}
	return want
}

func TestTransformMopEquivalence(t *testing.T) {
	src := `
kernel void mop(global const float* ina, global const float* inb, global float* out)
{
    size_t gid = get_global_id(0);
    size_t grid = get_group_id(0);
    if (grid < 6)
        out[gid] = ina[gid] + inb[gid];
    else
        out[gid] = ina[gid] - inb[gid];
}
`
	// 12 virtual groups of 64 squeezed onto 2 physical groups.
	runEquiv(t, src, "mop", interp.ND1(12*64, 64), 2,
		map[int]int64{0: 12 * 64 * 4, 1: 12 * 64 * 4, 2: 12 * 64 * 4}, nil)
}

func TestTransformBarrierReduction(t *testing.T) {
	src := `
#define WG 32
kernel void reduce(global const int* in, global int* out)
{
    local int scratch[WG];
    int lid = (int)get_local_id(0);
    scratch[lid] = in[get_global_id(0)];
    barrier(1);
    int s;
    for (s = WG / 2; s > 0; s >>= 1) {
        if (lid < s) scratch[lid] += scratch[lid + s];
        barrier(1);
    }
    if (lid == 0) out[get_group_id(0)] = scratch[0];
}
`
	runEquiv(t, src, "reduce", interp.ND1(16*32, 32), 3,
		map[int]int64{0: 16 * 32 * 4, 1: 16 * 4}, nil)
}

func TestTransformAtomics(t *testing.T) {
	src := `
kernel void histo(global const int* data, global int* bins, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) {
        int v = data[i];
        if (v < 0) v = -v;
        atomic_add(&bins[v % 64], 1);
    }
}
`
	runEquiv(t, src, "histo", interp.ND1(8*64, 64), 2,
		map[int]int64{0: 8 * 64 * 4, 1: 64 * 4}, map[int]int64{2: 8 * 64})
}

func TestTransformHelperWithBuiltins(t *testing.T) {
	src := `
long my_index(int stride) { return get_global_id(0) * stride + get_group_id(0); }
kernel void k(global long* out, int stride)
{
    out[get_global_id(0)] = my_index(stride) + get_num_groups(0) * 1000 + get_global_size(0);
}
`
	runEquiv(t, src, "k", interp.ND1(10*16, 16), 2,
		map[int]int64{0: 10 * 16 * 8}, map[int]int64{1: 3})
}

func TestTransform2D(t *testing.T) {
	src := `
kernel void t2d(global float* out, int width)
{
    long x = get_global_id(0);
    long y = get_global_id(1);
    long gx = get_group_id(0);
    long gy = get_group_id(1);
    out[y * width + x] = (float)(gx * 100 + gy * 10) + (float)(x + y);
}
`
	nd := interp.ND2(32, 16, 8, 4)
	runEquiv(t, src, "t2d", nd, 2, map[int]int64{0: 32 * 16 * 4}, map[int]int64{1: 32})
}

// TestTransformDimOutOfRange: a work-item query with a dimension outside
// 0..2 returns the OpenCL value — 0 for an id or offset, 1 for a size or
// count — natively and through the transformation, whose runtime library
// would otherwise index the RT descriptor by that dimension. The
// dimension is a runtime argument or a constant.
func TestTransformDimOutOfRange(t *testing.T) {
	queries := []struct {
		name string
		want int64
	}{
		{"get_global_id", 0}, {"get_local_id", 0}, {"get_group_id", 0}, {"get_global_offset", 0},
		{"get_num_groups", 1}, {"get_local_size", 1}, {"get_global_size", 1},
	}
	dims := []struct {
		arg string
		d   int64
	}{{"d", 3}, {"d", -1}, {"d", 7}, {"3", 0}}
	const items = 4 * 8
	for _, q := range queries {
		for _, dim := range dims {
			name := fmt.Sprintf("%s(%s)", q.name, dim.arg)
			if dim.arg == "d" {
				name = fmt.Sprintf("%s(d=%d)", q.name, dim.d)
			}
			t.Run(name, func(t *testing.T) {
				src := fmt.Sprintf(`
kernel void q(global long* out, int d)
{
    out[get_global_id(0)] = %s(%s);
}
`, q.name, dim.arg)
				out := runEquiv(t, src, "q", interp.ND1(items, 8), 2,
					map[int]int64{0: items * 8}, map[int]int64{1: dim.d})[0]
				for i := 0; i < items; i++ {
					if got := int64(binary.LittleEndian.Uint64(out[i*8:])); got != q.want {
						t.Fatalf("native out[%d] = %d, want %d", i, got, q.want)
					}
				}
			})
		}
	}
}

func TestTransformMetadata(t *testing.T) {
	src := `
kernel void tiny(global int* out) { out[get_global_id(0)] = 1; }
kernel void big(global float* a, global float* b, global float* c, int n)
{
    int i = (int)get_global_id(0);
    float acc = 0.0f;
    int j;
    for (j = 0; j < n; ++j)
        acc += a[i] * b[j] + sqrt(fabs(a[j])) * c[i] - (float)j * 0.5f;
    c[i] = acc * 2.0f + a[i];
}
`
	m, err := clc.Compile(src, "meta")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Transform(m)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	tiny := res.Kernels["tiny"]
	big := res.Kernels["big"]
	if tiny.Chunk <= big.Chunk {
		t.Errorf("adaptive chunks: tiny=%d (instrs %d) should exceed big=%d (instrs %d)",
			tiny.Chunk, tiny.InstrCount, big.Chunk, big.InstrCount)
	}
	if big.Regs <= 4 {
		t.Errorf("register estimate for big = %d, want > thread overhead", big.Regs)
	}
	// Transformed module must still expose kernels under original names.
	for _, name := range []string{"tiny", "big"} {
		f := res.Module.Lookup(name)
		if f == nil || !f.Kernel {
			t.Errorf("transformed module lost kernel %q", name)
		}
		cf := res.Module.Lookup(name + "__compute")
		if cf == nil || cf.Kernel {
			t.Errorf("compute function for %q missing or still a kernel", name)
		}
	}
	// No work-item builtins may remain in compute functions.
	for _, name := range []string{"tiny__compute", "big__compute"} {
		f := res.Module.Lookup(name)
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall && strings.HasPrefix(in.Callee, "get_") {
					t.Errorf("%s still calls %s", name, in.Callee)
				}
			}
		}
	}
}

func TestTransformLocalHoisting(t *testing.T) {
	src := `
kernel void stencil(global const float* in, global float* out)
{
    local float tile[66];
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    tile[lid + 1] = in[gid];
    if (lid == 0) tile[0] = (gid > 0) ? in[gid - 1] : 0.0f;
    if (lid == 63) tile[65] = in[gid + 1];
    barrier(1);
    out[gid] = 0.25f * tile[lid] + 0.5f * tile[lid + 1] + 0.25f * tile[lid + 2];
}
`
	m, err := clc.Compile(src, "hoist")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := Transform(m)
	if err != nil {
		t.Fatalf("Transform: %v", err)
	}
	info := res.Kernels["stencil"]
	if len(info.Hoisted) != 1 || info.Hoisted[0].Count != 66 {
		t.Fatalf("hoisted = %+v, want one array of 66", info.Hoisted)
	}
	if info.OrigLocalBytes != 66*4 {
		t.Errorf("OrigLocalBytes = %d, want %d", info.OrigLocalBytes, 66*4)
	}
	// The compute function must have no local allocas left.
	cf := res.Module.Lookup("stencil__compute")
	for _, b := range cf.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpAlloca && in.AllocaSpace == ir.Local {
				t.Error("local alloca left in compute function after hoisting")
			}
		}
	}
	// And the behaviour must be preserved. Note gid+1 on the last
	// work-item reads one element past; size the buffer accordingly.
	runEquiv(t, src, "stencil", interp.ND1(8*64, 64), 2,
		map[int]int64{0: (8*64 + 1) * 4, 1: 8 * 64 * 4}, nil)
}
