package interp

import (
	"testing"
	"time"

	"repro/internal/clc"
	"repro/internal/ir"
)

// TestDispatchFloors holds the dispatch speedups the VM is built
// around, each as an in-run ratio between a slow and a fast compile of
// the same kernel: the O1 pipeline plus fusion over the unoptimized
// lowering on one work-item spinning a tight loop; warp over scalar
// dispatch on a group whose loop is warp-uniform; warp over scalar on a
// group whose loop control is uniform but whose accumulator is
// divergent, so every arithmetic instruction runs in lane mode; warp
// over scalar on sgemm's inner-loop shape, a uniform loop of
// divergent loads through a uniform base; and fusion over none on
// mri-q's inner loop, a uniform loop whose divergent phase takes
// qr += cos(p); qi += sin(p), which fusion computes with one
// math.Sincos. A short calibration run gives each side the launch count
// that takes about floorLoop; then the sides alternate three timed loops
// of that many launches and each keeps its fastest, so a burst of load on
// one side cannot fail the row. The floors
// sit at about half of what the engine measures, so only a real
// regression trips them. On a 2-vCPU box shared with other work, two
// runs each read, with slice columns and separate sin and cos calls,
// 8.4/4.3× (o1-over-o0), 23.5/21.9× (warp), 4.6/4.6× (lane),
// 3.2/3.4× (mem-lane) and 1.28/1.21× (sincos); with fixed-width
// columns and sin/cos pairs, 4.9/5.9×, 18.1/20.3×, 4.3/5.7×,
// 4.4/2.9× and 2.08/2.24×, the sincos row's fast side falling from
// 2.9–3.1 to 1.7–1.9 ms. Earlier, the lane row read 0.9–1.8× while a
// lane-mode instruction re-decoded its opcode and operands for every
// lane, and the memory row 2.2–2.3× while every lane's load looked up
// its region. Overhead bounds of a few percent are not timed here: one
// side alone moves more than that between runs.
func TestDispatchFloors(t *testing.T) {
	if raceEnabled {
		t.Skip("timing under the race detector measures its instrumentation")
	}
	if testing.Short() {
		t.Skip("timed test")
	}
	const spin = `
kernel void spin(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 100000; ++i) acc += i & 7;
    out[0] = acc;
}
`
	const uniform = `
kernel void k(global int* out)
{
    int acc = 0;
    int i;
    for (i = 0; i < 20000; ++i) acc += i & 7;
    out[get_local_id(0)] = acc;
}
`
	const lane = `
kernel void k(global int* out)
{
    int lid = (int)get_local_id(0);
    int acc = lid;
    int i;
    for (i = 0; i < 2000; ++i) acc = acc * 3 + (i ^ lid);
    out[lid] = acc;
}
`
	const mem = `
kernel void k(global int* out, global const float* in)
{
    int lid = (int)get_local_id(0);
    float acc = 0;
    int i;
    for (i = 0; i < 4000; ++i) acc += in[(i & 63) * 64 + lid];
    out[lid] = (int)acc;
}
`
	const sincos = `
kernel void k(global int* out)
{
    int lid = (int)get_local_id(0);
    float x = (float)lid * 0.015625f - 0.5f;
    float qr = 0.0f;
    float qi = 0.0f;
    int i;
    for (i = 0; i < 1000; ++i) {
        float p = 6.2831853f * (float)(i & 63) * x;
        qr += cos(p);
        qi += sin(p);
    }
    out[lid] = (int)(qr * 1000.0f + qi);
}
`
	rows := []struct {
		name, src, kernel string
		items, in         int64 // in: words of a second, input buffer
		slow, fast        CompileOpts
		floor             float64
	}{
		{"o1-over-o0", spin, "spin", 1, 0, CompileOpts{Disable: []string{"fuse"}}, DefaultCompileOpts, 3},
		{"warp-over-scalar", uniform, "k", 64, 0, scalarO1, DefaultCompileOpts, 2},
		{"lane-over-scalar", lane, "k", 64, 0, scalarO1, DefaultCompileOpts, 1.5},
		{"mem-lane", mem, "k", 64, 64 * 64, scalarO1, DefaultCompileOpts, 1.5},
		{"sincos", sincos, "k", 64, 0, CompileOpts{Opt: true, WarpWidth: DefaultWarpWidth, Disable: []string{"fuse"}}, DefaultCompileOpts, 1.05},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			mod, err := clc.Compile(r.src, r.kernel)
			if err != nil {
				t.Fatal(err)
			}
			// launches returns a side: the time n launches take.
			launches := func(opts CompileOpts) func(n int) time.Duration {
				m := NewMachine(mod)
				m.UseProgram(CompileModuleOpts(mod, opts))
				args := []Value{{K: ir.Pointer, P: Ptr{R: m.NewRegion(r.items*4, ir.Global)}}}
				if r.in > 0 {
					args = append(args, Value{K: ir.Pointer, P: Ptr{R: m.NewRegion(r.in*4, ir.Global)}})
				}
				nd := ND1(r.items, r.items)
				return func(n int) time.Duration {
					t0 := time.Now()
					for i := 0; i < n; i++ {
						if err := m.Launch(r.kernel, args, nd); err != nil {
							t.Fatal(err)
						}
					}
					return time.Since(t0)
				}
			}
			sides := []func(int) time.Duration{launches(r.slow), launches(r.fast)}
			// A short calibration run sets each side's launch count, so
			// one timed loop takes about floorLoop.
			var n [2]int
			for i, side := range sides {
				k := 1
				for d := side(k); ; d = side(k) {
					if d >= floorLoop/8 {
						n[i] = max(1, int(int64(k)*int64(floorLoop)/int64(d)))
						break
					}
					k *= 2
				}
			}
			var best [2]int64 // ns per launch
			for round := 0; round < 3; round++ {
				for i, side := range sides {
					if ns := int64(side(n[i])) / int64(n[i]); best[i] == 0 || ns < best[i] {
						best[i] = ns
					}
				}
			}
			ratio := float64(best[0]) / float64(best[1])
			t.Logf("slow %d ns/op, fast %d ns/op: %.2f× (floor %.1f×)", best[0], best[1], ratio, r.floor)
			if ratio < r.floor {
				t.Errorf("fast side is only %.2f× the slow side, floor %.1f×", ratio, r.floor)
			}
		})
	}
}

// floorLoop is how long one timed loop of a TestDispatchFloors side runs.
const floorLoop = 250 * time.Millisecond
