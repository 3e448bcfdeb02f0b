package parboil

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/interp"
)

// warpUniformShapes are the kernels that pin the uniformity rule the
// warp tables follow: a value is uniform when it is the same for every
// lane that executes it together. Each shape breaks if one part of the
// rule goes missing (passes.Uniformity.diverge); nested is the shape the
// rule exists for.
var warpUniformShapes = []struct {
	name, src string
}{
	// A uniform-trip loop inside a divergent guard: its counter, index
	// math, loads and loop test are the same for every lane that runs it.
	{"nested", `
kernel void nested(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    if (lid < k) {
        int acc = 0;
        int j;
        for (j = 0; j < n; ++j)
            acc += a[j] * (lid + 1);
        out[gid] = acc;
    }
}
`},
	// temporal: lanes leave a per-lane loop at different iterations, so
	// the counter read after it differs per lane.
	{"counter", `
kernel void counter(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int acc = 0;
    int j;
    for (j = 0; j < (lid & 7) + 1; ++j)
        acc += a[j];
    out[gid] = acc + j * 1000;
}
`},
	// join: two uniform values meet where the sides of a divergent
	// branch reconverge.
	{"join", `
kernel void join(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int x;
    if (lid < k) x = a[1] + n; else x = a[2] * 3;
    out[gid] = x;
}
`},
	// wrap: the lanes that stay in the loop run whole iterations while
	// the lanes that break wait, then read the iteration's values.
	{"wrap", `
kernel void wrap(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int acc = 0;
    int res = -1;
    int j;
    for (j = 0; j < n; ++j) {
        int t = a[j];
        if (t > 1) {
            if (lid >= 12 - 2 * j) {
                acc += t;
            } else {
                res = t * 100 + j;
                break;
            }
        }
        acc += 1;
    }
    out[gid] = acc * 10000 + res;
}
`},
	// wrap, at the loop exit: the lanes that leave a per-lane loop wait
	// on the exit edge, whose phi copy reads res, while the others run
	// more iterations; the counter stays uniform.
	{"exit", `
kernel void exit(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int res = -1;
    int j;
    for (j = 0; j < (lid & 7) + 1; ++j) {
        res = a[j] * 3 + j;
        if (res > n * 100)
            break;
    }
    out[gid] = res;
}
`},
	// temporal, through the reconvergence block: x is read only inside
	// the region of the branch on (lid + t) & 3, but that region reaches
	// x's definition again before its own reconvergence block, the
	// inner loop's header, so x is live there.
	{"reentry", `
kernel void reentry(global int* out, global const int* a, int n, int k)
{
    int lid = (int)get_local_id(0);
    int gid = (int)get_global_id(0);
    int acc = 0;
    int j = 0;
    int t = 0;
    for (;;) {
        int x = a[j];
        for (;;) {
            if (t >= n) {
                out[gid] = acc;
                return;
            }
            t = t + 1;
            if (((lid + t) & 3) == 0) {
                j = j + 1;
                break;
            }
            acc = acc + x;
        }
    }
}
`},
}

func warpUniformSpec() LaunchSpec {
	a := make([]int32, 64)
	for i := range a {
		a[i] = int32((i*7 + 3) % 5)
	}
	return LaunchSpec{
		Dims: 1, Global: [3]int64{192, 1, 1}, Local: [3]int64{64, 1, 1},
		Args: []Arg{
			{Name: "out", I32: make([]int32, 192), Out: true},
			{Name: "a", I32: a},
			ScalarArg("n", 9),
			ScalarArg("k", 37),
		},
	}
}

// TestWarpUniformAmongActiveLanes runs each shape at warp widths 64, 24
// and 7 against the tree-walker, and holds the nested loop's counter,
// index loads and loop test in once mode.
func TestWarpUniformAmongActiveLanes(t *testing.T) {
	for _, s := range warpUniformShapes {
		k := &Kernel{Benchmark: "shape", Name: s.name, Source: s.src, Setup: warpUniformSpec}
		ref, err := k.RunNativeEngine(interp.EngineTreeWalk)
		if err != nil {
			t.Fatalf("%s: tree-walker: %v", s.name, err)
		}
		for _, width := range []int{64, 24, 7} {
			got, err := k.RunNativeVM(interp.CompileOpts{Opt: true, WarpWidth: width})
			if err != nil {
				t.Fatalf("%s: warp-%d: %v", s.name, width, err)
			}
			if !bytes.Equal(ref[0], got[0]) {
				t.Errorf("%s: warp-%d output differs from the tree-walker's", s.name, width)
			}
		}
	}

	mod, err := clc.Compile(warpUniformShapes[0].src, "nested")
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := interp.CompileModuleOpts(mod, interp.DefaultCompileOpts).DumpWarp(&dump, "nested"); err != nil {
		t.Fatal(err)
	}
	// Each listed instruction is "pc mode text"; the loop is the only
	// code with a uniform loop test, an add of 1 and loads.
	var test, count, loads, laneLoads int
	for _, line := range strings.Split(dump.String(), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || len(f[0]) != 4 {
			continue
		}
		text := strings.Join(f[2:], " ")
		once := f[1] == "once"
		switch {
		case strings.HasPrefix(text, "cmp+jump") || strings.HasPrefix(text, "condjump"):
			if once {
				test++
			}
		case strings.Contains(text, "add.i32") && strings.HasSuffix(text, ", 1"):
			if once {
				count++
			}
		case strings.Contains(text, "load"):
			if once {
				loads++
			} else {
				laneLoads++
			}
		}
	}
	if test == 0 || count == 0 || loads == 0 || laneLoads != 0 {
		t.Errorf("nested loop: %d once-mode loop tests, %d once-mode counter adds, %d once-mode and %d lane-mode loads; want the loop's test, counter and loads all once-mode:\n%s",
			test, count, loads, laneLoads, dump.String())
	}
}
