package interp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
)

// TestPointerWordParity holds pointers to the same behaviour on the
// tree-walker, the scalar O1 engine and the warp engine at widths 64, 24
// and 7: pointers picked by select and phi, stored to and reloaded from
// global and local memory, compared for equality against null and
// across regions, ordered within a region below its base, offset below
// the base without a dereference, and the null, dangling and
// out-of-bounds accesses, each faulting at the same work-item with the
// same message on every engine. A pointer below its base stays an
// expression: unoptimized code keeps every named local in memory. Each
// kernel runs as two groups of 64
// over out, a (1000+i), b (2000+i) and slots, 128 pointer-sized words
// the host leaves zero but for a dangling word in slot 37.
func TestPointerWordParity(t *testing.T) {
	const head = `
kernel void k(global int* out, global int* a, global int* b, global int** slots)
{
    int i = (int)get_global_id(0);
    int l = (int)get_local_id(0);
`
	cases := []struct {
		name, body string
		want       func(i int) int32 // nil: the launch faults with fault
		fault      string
	}{
		{"select and phi", `
    global int* p = (i & 1) ? a : b;
    global int* q = a;
    if (i % 3 == 0)
        q = b;
    out[i] = p[i] * 10 + q[i];`,
			func(i int) int32 {
				p, q := 2000, 1000
				if i&1 != 0 {
					p = 1000
				}
				if i%3 == 0 {
					q = 2000
				}
				return int32((p+i)*10 + q + i)
			}, ""},
		{"stored and reloaded", `
    local int* lp[64];
    slots[i] = (int*)((i & 1) ? a : b);
    lp[l] = (local int*)((i & 2) ? a : b);
    barrier(1);
    global int* p = (global int*)slots[i];
    global int* q = (global int*)lp[63 - l];
    out[i] = p[i] * 10 + q[i];`,
			func(i int) int32 {
				p, q := 2000, 2000
				if i&1 != 0 {
					p = 1000
				}
				if (i&^63+63-i%64)&2 != 0 {
					q = 1000
				}
				return int32((p+i)*10 + q + i)
			}, ""},
		{"equality against null and across regions", `
    global int* nul = (global int*)slots[i & 31];
    global int* p = (i & 1) ? a : nul;
    int r = 0;
    if (p == nul) r += 1;
    if (p != nul) r += 2;
    if (a == b) r += 4;
    if (a != b) r += 8;
    if (p == a) r += 16;
    if (p != b) r += 32;
    if (nul == p) r += 64;
    out[i] = r;`,
			func(i int) int32 {
				if i&1 != 0 {
					return 2 + 8 + 16 + 32
				}
				return 1 + 8 + 32 + 64
			}, ""},
		{"order below the base", `
    int r = 0;
    if (a + i - 1 < a + i) r += 1;
    if (a + i - 1 <= a + i) r += 2;
    if (a + i > a + i - 1) r += 4;
    if (a + i >= a + i - 1) r += 8;
    if (a + i - 1 > a + i) r += 16;
    if (a - 1 < a) r += 32;
    out[i] = r;`,
			func(int) int32 { return 1 + 2 + 4 + 8 + 32 }, ""},
		{"offset below the base, never dereferenced", `
    out[i] = (a - 1000 + 1000)[i];`,
			func(i int) int32 { return int32(1000 + i) }, ""},
		{"null access", `
    global int* p = a;
    if (i == 37)
        p = (global int*)slots[0];
    out[i] = *p;`,
			nil, "null pointer dereference"},
		{"dangling access", `
    global int* p = (global int*)slots[i];
    if (i == 37)
        out[i] = *p;`,
			nil, "load of dangling pointer word 0x77770000000008"},
		{"out-of-bounds access", `
    int idx = i;
    if (i == 37)
        idx = 100000;
    out[i] = a[idx];`,
			nil, "out-of-bounds access: offset 400000 size 4 in region of 512 bytes"},
	}
	engines := []struct {
		name string
		opts *CompileOpts // nil: the tree-walker
	}{
		{"treewalk", nil},
		{"scalar-o1", &CompileOpts{Opt: true}},
		{"warp-64", &CompileOpts{Opt: true, WarpWidth: 64}},
		{"warp-24", &CompileOpts{Opt: true, WarpWidth: 24}},
		{"warp-7", &CompileOpts{Opt: true, WarpWidth: 7}},
	}
	const n = 128
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mod, err := clc.Compile(head+c.body+"\n}\n", "k")
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
				out, a, b := m.NewRegion(n*4, ir.Global), m.NewRegion(n*4, ir.Global), m.NewRegion(n*4, ir.Global)
				slots := m.NewRegion(n*8, ir.Global)
				for i := 0; i < n; i++ {
					a.WriteInt32s(int64(i)*4, []int32{int32(1000 + i)})
					b.WriteInt32s(int64(i)*4, []int32{int32(2000 + i)})
				}
				slots.WriteInt64s(37*8, []int64{0x7777<<ptrOffBits | 8})
				args := []Value{{K: ir.Pointer, P: Ptr{R: out}}, {K: ir.Pointer, P: Ptr{R: a}},
					{K: ir.Pointer, P: Ptr{R: b}}, {K: ir.Pointer, P: Ptr{R: slots}}}
				err := m.Launch("k", args, ND1(n, 64))
				if c.want == nil {
					want := fmt.Sprintf("work-item global id (37,0,0): interp: %s", c.fault)
					if err == nil || !strings.HasSuffix(err.Error(), want) {
						t.Errorf("%s: err = %v, want ...%s", e.name, err, want)
					}
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				for i, got := range out.ReadInt32s(0, n) {
					if want := c.want(i); got != want {
						t.Fatalf("%s: out[%d] = %d, want %d", e.name, i, got, want)
					}
				}
				if ref == nil {
					ref = append([]byte(nil), out.Bytes...)
				} else if !bytes.Equal(ref, out.Bytes) {
					t.Fatalf("%s: output differs from the tree-walker's", e.name)
				}
			}
		})
	}
}
