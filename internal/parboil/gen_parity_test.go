package parboil

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/opencl"
	"repro/internal/rtlib"
)

// The generated-kernel differential suite: the engine contract — a
// divergent branch masks lanes and reconverges, a spill survives only
// for what the warp stream cannot express — is held by kernels drawn
// from a grammar of the shapes that contract is about, not only by the
// 25 fixed Parboil kernels. Every kernel runs natively on the
// tree-walker (the oracle), the scalar VM with and without O1, and the
// warp VM, then transformed and sliced with a plan change mid-launch on
// the three VM forms; every run must leave the same bytes.

const (
	genLocal  = 32 // work-group size; also the local tile's length
	genGroups = 6
	genItems  = genLocal * genGroups
)

// genHelpers are the functions generated kernels call: a phi-bearing
// valued helper and a void one with a pointer argument (both inlined),
// and a recursive one (which must stay a call and spill the warp).
const genHelpers = `
int pick(int a, int b) { if (a > b) return a - b; return b + 1; }
void bumpat(global int* p, int i, int v) { p[i] = p[i] + v; }
int tri(int x) { if (x <= 0) return 0; return x + tri(x - 1); }
`

// kernelGen draws one kernel body. Statements only communicate between
// work-items through the local tile, written before and read after a
// barrier every work-item of the group reaches in the same round, so
// the kernels are race-free and their output is engine-invariant.
type kernelGen struct {
	rng     *rand.Rand
	sb      strings.Builder
	depth   int
	loops   int  // enclosing loops: break/continue are legal inside one
	returns bool // early returns allowed (after the last barrier only)
	uniq    int
}

func (g *kernelGen) line(indent int, format string, args ...any) {
	g.sb.WriteString(strings.Repeat("    ", indent))
	fmt.Fprintf(&g.sb, format, args...)
	g.sb.WriteByte('\n')
}

// cond returns a divergent or, one time in four, a uniform condition.
func (g *kernelGen) cond() string {
	switch g.rng.Intn(8) {
	case 0:
		return fmt.Sprintf("n > %d", g.rng.Intn(3)*genItems)
	case 1:
		return fmt.Sprintf("(int)get_group_id(0) %% %d == 0", 2+g.rng.Intn(2))
	case 2, 3:
		return fmt.Sprintf("((lid >> %d) ^ acc) & 1", g.rng.Intn(3))
	case 4:
		return fmt.Sprintf("lid %% %d == %d", 2+g.rng.Intn(4), g.rng.Intn(2))
	case 5:
		return fmt.Sprintf("in[(gid + %d) %% n] > %d", g.rng.Intn(genItems), g.rng.Intn(60))
	default:
		return fmt.Sprintf("lid < %d", 1+g.rng.Intn(genLocal))
	}
}

// expr returns an int expression over the kernel's variables.
func (g *kernelGen) expr() string {
	switch g.rng.Intn(7) {
	case 0:
		return fmt.Sprintf("in[(gid * %d + %d) %% n]", 1+g.rng.Intn(5), g.rng.Intn(genItems))
	case 1:
		return fmt.Sprintf("pick(acc & 15, lid + %d)", g.rng.Intn(9))
	case 2:
		return fmt.Sprintf("(acc >> %d) + gid", 1+g.rng.Intn(3))
	case 3:
		return fmt.Sprintf("in[%d] * %d", g.rng.Intn(genItems), 1+g.rng.Intn(4))
	case 4:
		return fmt.Sprintf("lid * %d - %d", 1+g.rng.Intn(7), g.rng.Intn(20))
	case 5:
		return fmt.Sprintf("(int)get_group_id(0) + %d", g.rng.Intn(5))
	default:
		return fmt.Sprintf("%d", 1+g.rng.Intn(50))
	}
}

func (g *kernelGen) block(indent int) {
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.stmt(indent)
	}
}

func (g *kernelGen) stmt(indent int) {
	pick := g.rng.Intn(12)
	if g.depth >= 3 && pick >= 4 && pick <= 8 {
		pick = 0
	}
	switch pick {
	case 0, 1, 2:
		g.line(indent, "acc = acc %s (%s);", []string{"+", "-", "^", "*"}[g.rng.Intn(4)], g.expr())
	case 3:
		g.line(indent, "bumpat(out, gid, %s);", g.expr())
	case 4, 5: // if / if-else, possibly nested
		g.depth++
		g.line(indent, "if (%s) {", g.cond())
		g.block(indent + 1)
		if g.rng.Intn(2) == 0 {
			g.line(indent, "} else {")
			g.block(indent + 1)
		}
		g.line(indent, "}")
		g.depth--
	case 6, 7: // loop with a per-lane or uniform trip count
		g.depth++
		g.loops++
		g.uniq++
		j := fmt.Sprintf("j%d", g.uniq)
		bound := fmt.Sprintf("(lid & %d) + %d", 1+2*g.rng.Intn(4), g.rng.Intn(3))
		if g.rng.Intn(3) == 0 {
			bound = fmt.Sprintf("%d", 1+g.rng.Intn(5))
		}
		g.line(indent, "int %s;", j)
		g.line(indent, "for (%s = 0; %s < %s; ++%s) {", j, j, bound, j)
		g.line(indent+1, "acc = acc + %s * %d;", j, 1+g.rng.Intn(5))
		g.block(indent + 1)
		g.line(indent, "}")
		// The counter after the loop: per lane where the trip count is.
		g.line(indent, "acc = acc + %s;", j)
		g.loops--
		g.depth--
	case 8: // break / continue inside a loop, an early return outside
		switch {
		case g.loops > 0 && g.rng.Intn(2) == 0:
			g.line(indent, "if (%s) break;", g.cond())
		case g.loops > 0:
			g.line(indent, "if (%s) continue;", g.cond())
		case g.returns:
			g.line(indent, "if ((acc & %d) == %d && lid > %d) { out[gid] = out[gid] + acc; return; }",
				7+8*g.rng.Intn(2), g.rng.Intn(8), g.rng.Intn(genLocal))
		default:
			g.line(indent, "acc = acc + 1;")
		}
	case 9: // now and then the recursive helper: a call the inliner leaves, hence a spill
		if g.rng.Intn(4) == 0 {
			g.line(indent, "acc = acc + tri((lid + %d) & 3);", g.rng.Intn(4))
			break
		}
		fallthrough
	default:
		g.line(indent, "acc = acc ^ (%s);", g.expr())
	}
}

// exchange is the top-level communication step: every work-item writes
// its tile slot, all meet at a barrier, each reads a neighbour's slot,
// and a second barrier closes the tile for the next exchange. With
// split set the first barrier sits inside both arms of a divergent
// branch instead — every work-item still executes exactly one barrier,
// but inside a divergent region, which the warp engine can only spill.
func (g *kernelGen) exchange(split bool) {
	g.line(1, "tile[lid] = acc;")
	if split {
		g.line(1, "if (lid & 1) {")
		g.line(2, "acc = acc + %d;", 1+g.rng.Intn(9))
		g.line(2, "barrier(1);")
		g.line(1, "} else {")
		g.line(2, "acc = acc - %d;", 1+g.rng.Intn(9))
		g.line(2, "barrier(1);")
		g.line(1, "}")
	} else {
		g.line(1, "barrier(1);")
	}
	g.line(1, "acc = acc + tile[(lid + %d) %% %d];", 1+g.rng.Intn(genLocal-1), genLocal)
	g.line(1, "barrier(1);")
}

// genKernel returns the source of one generated kernel: one to three
// phases, each a block of statements followed by an exchange, then a
// tail in which work-items may return early (one that has returned no
// longer arrives at barriers, so not before the last of them).
func genKernel(seed int64) string {
	g := &kernelGen{rng: rand.New(rand.NewSource(seed))}
	g.sb.WriteString(genHelpers)
	g.line(0, "kernel void k(global int* out, global const int* in, int n)")
	g.line(0, "{")
	g.line(1, "local int tile[%d];", genLocal)
	g.line(1, "int lid = (int)get_local_id(0);")
	g.line(1, "int gid = (int)get_global_id(0);")
	g.line(1, "int acc = in[gid] + %d;", g.rng.Intn(100))
	for phase, phases := 0, 1+g.rng.Intn(3); phase < phases; phase++ {
		g.block(1)
		g.exchange(seed%3 == 0 && phase == 0)
	}
	g.returns = true
	g.block(1)
	g.line(1, "out[gid] = out[gid] + acc;")
	g.line(0, "}")
	return g.sb.String()
}

func genSpec() LaunchSpec {
	in := make([]int32, genItems)
	for i := range in {
		in[i] = int32((i*2654435761 + 12345) % 97)
	}
	return LaunchSpec{
		Dims: 1, Global: [3]int64{genItems, 1, 1}, Local: [3]int64{genLocal, 1, 1},
		Args: []Arg{
			{Name: "out", I32: make([]int32, genItems), Out: true},
			{Name: "in", I32: in},
			ScalarArg("n", genItems),
		},
	}
}

// slicedRun executes the transformed kernel as a multi-slice launch
// with the plan changed after the first slice, and returns the final
// argument buffers.
func slicedRun(t *testing.T, orig, tm *ir.Module, info *accelpass.KernelInfo, prog *interp.Prog) [][]byte {
	t.Helper()
	spec := genSpec()
	cl, bufs, err := clKernelFromSpec(orig, "k", spec)
	if err != nil {
		t.Fatal(err)
	}
	nd := interp.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
	rtWords := rtlib.BuildRT(nd.Dims, nd.NumGroups(), nd.Local, info.Chunk)
	h, err := opencl.NewLaunchHandle(opencl.GetPlatforms()[0], tm, cl, nd, rtWords, 1, rtWords[rtlib.RTChunk])
	if err != nil {
		t.Fatal(err)
	}
	h.UseProgram(prog)
	h.SetSliceRounds(1)
	for slices := 0; ; slices++ {
		done, err := h.Step()
		if err != nil {
			t.Fatalf("slice %d: %v", slices, err)
		}
		if done {
			if slices == 0 {
				t.Fatal("expected a multi-slice execution")
			}
			return bufs
		}
		if slices == 0 {
			h.UpdatePlan(3, 1)
		}
	}
}

func TestGeneratedKernelParity(t *testing.T) {
	var spills, diverges int64
	clean := 0 // kernels with nothing in them that may spill
	for seed := int64(1); seed <= 40; seed++ {
		src := genKernel(seed)
		k := &Kernel{Benchmark: "gen", Name: "k", Source: src, Setup: genSpec}
		ref, err := k.RunNativeEngine(interp.EngineTreeWalk)
		if err != nil {
			t.Fatalf("seed %d: tree-walker: %v\n%s", seed, err, src)
		}
		check := func(name string, got [][]byte) {
			t.Helper()
			if !bytes.Equal(ref[0], got[0]) {
				t.Fatalf("seed %d: %s output differs from the tree-walker's\n%s", seed, name, src)
			}
		}
		for _, v := range []struct {
			name string
			opts interp.CompileOpts
		}{{"vm O0", vmParityO0}, {"vm O1", vmParityO1}, {"vm warp", interp.DefaultCompileOpts}, {"vm warp-24", interp.CompileOpts{Opt: true, WarpWidth: 24}},
			// Warp tables over memory-form code: every local is a private
			// alloca, so nearly every branch masks and every helper call spills.
			{"vm warp-O0", interp.CompileOpts{WarpWidth: 7}}} {
			got, err := k.RunNativeVM(v.opts)
			if err != nil {
				t.Fatalf("seed %d: %s: %v\n%s", seed, v.name, err, src)
			}
			check(v.name, got)
		}

		orig, err := clc.Compile(src, "k")
		if err != nil {
			t.Fatal(err)
		}
		tm := ir.CloneModule(orig)
		res, err := accelpass.Transform(tm)
		if err != nil {
			t.Fatalf("seed %d: transform: %v\n%s", seed, err, src)
		}
		for _, v := range []struct {
			name string
			opts interp.CompileOpts
		}{{"sliced O0", vmParityO0}, {"sliced O1", vmParityO1}, {"sliced warp", interp.DefaultCompileOpts}} {
			check(v.name, slicedRun(t, orig, tm, res.Kernels["k"], interp.CompileModuleOpts(tm, v.opts)))
		}

		// What the warp engine did with it, natively.
		mod, _ := clc.Compile(src, "k")
		mach := interp.NewMachine(mod)
		mach.Profiler = interp.NewProfiler()
		args, _, err := bindSpecArgs(mach, genSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := mach.Launch("k", args, interp.NDRange{Dims: 1, Global: [3]int64{genItems, 1, 1}, Local: [3]int64{genLocal, 1, 1}}); err != nil {
			t.Fatal(err)
		}
		s := mach.Profiler.Snapshot()[0]
		spills += s.WarpSpills
		diverges += s.WarpDiverges
		if !strings.Contains(src[len(genHelpers):], "tri(") && seed%3 != 0 {
			clean++
			if s.WarpSpills != 0 {
				t.Errorf("seed %d: %d spills in a kernel with no recursive call and no divergent barrier\n%s", seed, s.WarpSpills, src)
			}
		}
	}
	if spills == 0 || diverges == 0 || clean < 10 {
		t.Errorf("the generated kernels exercised %d spills and %d masked divergences, %d of them with nothing to spill at; want all three kinds",
			spills, diverges, clean)
	}
}

// FuzzGeneratedKernelParity draws kernels from the same grammar past
// the deterministic suite's 40 seeds: each runs natively on the
// tree-walker, the scalar O1 VM and the warp VM at widths 64, 24 and 7,
// and every run must leave the same bytes. A failing seed lands in
// testdata/fuzz/FuzzGeneratedKernelParity and is kept as a regression.
func FuzzGeneratedKernelParity(f *testing.F) {
	for seed := int64(1); seed <= 40; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		src := genKernel(seed)
		k := &Kernel{Benchmark: "gen", Name: "k", Source: src, Setup: genSpec}
		ref, err := k.RunNativeEngine(interp.EngineTreeWalk)
		if err != nil {
			t.Fatalf("seed %d: tree-walker: %v\n%s", seed, err, src)
		}
		for _, width := range []int{0, 64, 24, 7} { // 0: the scalar engine
			got, err := k.RunNativeVM(interp.CompileOpts{Opt: true, WarpWidth: width})
			if err != nil {
				t.Fatalf("seed %d: warp width %d: %v\n%s", seed, width, err, src)
			}
			if !bytes.Equal(ref[0], got[0]) {
				t.Fatalf("seed %d: warp width %d output differs from the tree-walker's\n%s", seed, width, src)
			}
		}
	})
}
