package interp

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
)

// TestSincosMatchesSinCos pins what the sin/cos pairing relies on:
// math.Sincos gives the bits math.Sin and math.Cos do, over LCG-drawn
// float32 and float64 bit patterns, the special values, multiples of π/4
// and arguments at and past 2^29, where Go switches to Payne–Hanek
// reduction. The one exception is the sine of a NaN: math.Sin returns
// the argument, payload and sign included, math.Sincos the canonical
// NaN, so the VM's sincos returns the argument itself. It runs against
// evalMath, at both kinds and in both orders, on every NaN and every
// 64th other argument. If a toolchain breaks this, the pairing goes and
// the test stays.
func TestSincosMatchesSinCos(t *testing.T) {
	bad := 0
	check := func(x float64, helper bool) {
		s, c := math.Sincos(x)
		if x != x {
			s, helper = math.Sin(x), true
		}
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			if bad++; bad <= 5 {
				t.Errorf("Sincos(%v) = %v, %v; Sin, Cos = %v, %v", x, s, c, math.Sin(x), math.Cos(x))
			}
		}
		if !helper {
			return
		}
		for _, kind := range []ir.Kind{ir.F32, ir.F64} {
			for _, op := range []uint8{mathSin, mathCos} {
				p, q := sincos(op, kind, x)
				if p != fword(evalMath(op, kind, x, 0)) || q != fword(evalMath(mathSin+mathCos-op, kind, x, 0)) {
					if bad++; bad <= 5 {
						t.Errorf("sincos(%d, %v, %v) differs from evalMath", op, kind, x)
					}
				}
			}
		}
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat64,
		math.MaxFloat32, -math.MaxFloat32, math.MaxFloat64, -math.MaxFloat64}
	for _, x := range specials {
		check(x, true)
	}
	for k := -4096; k <= 4096; k++ {
		x := float64(k) * math.Pi / 4
		check(x, k%16 == 0)
		check(float64(float32(x)), false)
	}
	lcg := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		return lcg
	}
	const draws = 1 << 20
	for i := 0; i < draws; i++ {
		r := next()
		check(float64(math.Float32frombits(uint32(r>>32))), i%64 == 0)
		check(math.Float64frombits(r), false)
		// At and past the reduction threshold, 2^29 · [1, 2^24).
		check(math.Ldexp(float64(r>>40|1<<23), 6+int(r%40)), false)
	}
	for e := 29; e < 64; e++ {
		x := math.Ldexp(1, e)
		for _, y := range []float64{x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)), -x} {
			check(y, true)
		}
	}
	if bad > 0 {
		t.Fatalf("%d mismatches", bad)
	}
}

// TestSinCosPairs holds kernels that take the sin and cos of one value to
// byte-identical outputs on the tree-walker, scalar O0 and O1 and the
// warp engine at widths 64, 24 and 7, and checks that the warp-64
// listing pairs them exactly where expected: a pair in either order,
// with a store and a use of the first result between the two, one of two
// sins with the cos, none across different arguments, doubles, a uniform
// argument (computed once per warp), a divergent argument under a masked
// branch, and a second result that is a loop phi's incoming value on an
// unconditional edge, where the phi copy must stay a move. Scalar O0
// (no fusion) pairs nothing.
func TestSinCosPairs(t *testing.T) {
	const head = `
kernel void k(global float* out, global const float* in, global double* dout)
{
    int i = (int)get_global_id(0);
    float x = in[i];
    float y = x * 0.5f + 1.0f;
`
	cases := []struct {
		name, body string
		pairs      int
		mode       string // the pairs' dispatch mode at warp 64
	}{
		{"sin then cos", `
    out[i] = sin(x);
    out[128 + i] = cos(x);`, 1, "lane"},
		{"cos then sin", `
    out[i] = cos(y);
    out[128 + i] = sin(y);`, 1, "lane"},
		{"store and use between", `
    float s = sin(x);
    out[i] = s;
    float t = s * 3.0f;
    out[128 + i] = cos(x) - t;`, 1, "lane"},
		{"two sins and one cos", `
    float a = sin(x);
    float b = sin(x);
    float c = cos(x);
    out[i] = a - b;
    out[128 + i] = b + c;`, 1, "lane"},
		{"different arguments do not pair", `
    out[i] = sin(x);
    out[128 + i] = cos(y);`, 0, ""},
		{"double", `
    double d = (double)x * 1.25;
    dout[i] = cos(d);
    out[i] = sin(x);
    dout[128 + i] = sin(d);`, 1, "lane"},
		{"uniform argument", `
    float u = in[3] * 7.0f;
    out[i] = sin(u) + (float)i;
    out[128 + i] = cos(u);`, 1, "once"},
		{"divergent argument under a masked branch", `
    if (i % 3 == 1) {
        float s = sin(x);
        out[i] = s * cos(x);
    }`, 1, "lane"},
		{"second result into a loop phi", `
    float acc = x;
    float c = 0.0f;
    int k = 0;
    while (k < 5) {
        float s = sin(acc);
        c = cos(acc);
        acc = s + 0.25f;
        k = k + 1;
    }
    out[i] = acc;
    out[128 + i] = c;`, 1, "lane"},
	}
	engines := []struct {
		name string
		opts *CompileOpts // nil: the tree-walker
	}{
		{"treewalk", nil},
		{"scalar-o0", &o0},
		{"scalar-o1", &scalarO1},
		{"warp-64", &CompileOpts{Opt: true, WarpWidth: 64}},
		{"warp-24", &CompileOpts{Opt: true, WarpWidth: 24}},
		{"warp-7", &CompileOpts{Opt: true, WarpWidth: 7}},
	}
	const n = 128
	pairLine := regexp.MustCompile(`^\s+\d+ (\S+)\s+\S+, \S+ = math `)
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
					p := CompileModuleOpts(mod, *e.opts)
					m.UseProgram(p)
					pairs, placeholders := 0, 0
					for _, in := range p.fns["k"].code {
						if in.op == opMath && in.c >= 0 {
							pairs++
						}
						if in.op == opMath && in.dst < 0 {
							placeholders++
						}
					}
					want := c.pairs
					if e.name == "scalar-o0" {
						want = 0
					}
					if pairs != want || placeholders != want {
						t.Errorf("%s: %d pairs and %d second halves, want %d", e.name, pairs, placeholders, want)
					}
					if e.name == "warp-64" {
						var buf strings.Builder
						if err := p.DumpWarp(&buf, "k"); err != nil {
							t.Fatal(err)
						}
						listed := 0
						for _, line := range strings.Split(buf.String(), "\n") {
							if mt := pairLine.FindStringSubmatch(line); mt != nil {
								listed++
								if mt[1] != c.mode {
									t.Errorf("pair dispatched %s, want %s: %s", mt[1], c.mode, line)
								}
							}
						}
						if listed != c.pairs {
							t.Errorf("listing shows %d pairs, want %d:\n%s", listed, c.pairs, buf.String())
						}
					}
				}
				out, in, dout := m.NewRegion(2*n*4, ir.Global), m.NewRegion(n*4, ir.Global), m.NewRegion(2*n*8, ir.Global)
				xs := make([]float32, n)
				lcg := uint32(12345)
				for i := range xs {
					lcg = lcg*1664525 + 1013904223
					xs[i] = float32(int32(lcg)) / (1 << 21) // ±1024
				}
				xs[5], xs[9], xs[17], xs[33] = 3e9, float32(math.Inf(1)), float32(math.Pi/4), math.Float32frombits(0xFFC00123)
				in.WriteFloat32s(0, xs)
				args := []Value{{K: ir.Pointer, P: Ptr{R: out}}, {K: ir.Pointer, P: Ptr{R: in}}, {K: ir.Pointer, P: Ptr{R: dout}}}
				if err := m.Launch("k", args, ND1(n, 64)); err != nil {
					t.Fatalf("%s: %v", e.name, err)
				}
				got := append(append([]byte(nil), out.Bytes...), dout.Bytes...)
				if ref == nil {
					ref = got
				} else if !bytes.Equal(ref, got) {
					t.Fatalf("%s: output differs from the tree-walker's", e.name)
				}
			}
		})
	}
}
