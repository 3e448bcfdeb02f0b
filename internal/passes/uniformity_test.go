package passes

import (
	"strings"
	"testing"

	"repro/internal/ir"
)

// analyzeKernel compiles, optimizes and analyzes one kernel.
func analyzeKernel(t *testing.T, src, name string) (*ir.Function, *Uniformity) {
	t.Helper()
	mod := compileAndPromote(t, src, name)
	f := mod.Lookup(name)
	if f == nil {
		t.Fatalf("kernel %s lost", name)
	}
	return f, AnalyzeUniformity(f)
}

// blockByPrefix returns the unique block whose name starts with prefix.
func blockByPrefix(t *testing.T, f *ir.Function, prefix string) *ir.Block {
	t.Helper()
	var hit *ir.Block
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Name, prefix) {
			if hit != nil {
				t.Fatalf("multiple blocks match %q:\n%s", prefix, f)
			}
			hit = b
		}
	}
	if hit == nil {
		t.Fatalf("no block matches %q:\n%s", prefix, f)
	}
	return hit
}

// TestUniformityDiamondUniform: branching on a kernel argument keeps
// every block control-uniform and the join phi uniform.
func TestUniformityDiamondUniform(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void dia(global int* out, int c)
{
    int x;
    if (c > 0) x = 1; else x = 2;
    out[get_global_id(0)] = x;
}
`, "dia")
	for _, b := range f.Blocks {
		if !u.BlockUniform(b) {
			t.Errorf("block %s divergent, want uniform (branch condition is a kernel arg):\n%s", b.Name, f)
		}
	}
	join := blockByPrefix(t, f, "if.end")
	phis := join.Phis()
	if len(phis) != 1 {
		t.Fatalf("join has %d phis, want 1:\n%s", len(phis), f)
	}
	if !u.ValueUniform(phis[0]) {
		t.Errorf("join phi divergent, want uniform (both incomings are constants over a uniform branch)")
	}
}

// TestUniformityDiamondDivergent: branching on get_local_id makes the
// arms divergent, while the join — the branch block's postdominator —
// stays control-uniform; the join phi still turns divergent because
// lanes arrive over different edges.
func TestUniformityDiamondDivergent(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void ddia(global int* out)
{
    int x;
    if ((int)get_local_id(0) > 3) x = 1; else x = 2;
    out[get_global_id(0)] = x;
}
`, "ddia")
	for _, prefix := range []string{"if.then", "if.else"} {
		if b := blockByPrefix(t, f, prefix); u.BlockUniform(b) {
			t.Errorf("block %s uniform, want divergent (guarded by a local-id branch):\n%s", b.Name, f)
		}
	}
	join := blockByPrefix(t, f, "if.end")
	if !u.BlockUniform(join) {
		t.Errorf("join %s divergent, want uniform (it postdominates the branch):\n%s", join.Name, f)
	}
	phis := join.Phis()
	if len(phis) != 1 {
		t.Fatalf("join has %d phis, want 1:\n%s", len(phis), f)
	}
	if u.ValueUniform(phis[0]) {
		t.Errorf("join phi uniform, want divergent (its predecessors are divergent)")
	}
}

// TestUniformityLoop: a loop with an argument-bounded trip count is
// fully control-uniform and its induction phi is uniform; a load is
// uniform iff its address is — in[i] (uniform index) and everything
// accumulated from it stay uniform, in[get_local_id(0)] does not.
func TestUniformityLoop(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void loop(global int* out, global const int* in, int n)
{
    int acc = 0;
    int i;
    for (i = 0; i < n; ++i) acc += in[i];
    out[get_global_id(0)] = acc + in[get_local_id(0)];
}
`, "loop")
	for _, b := range f.Blocks {
		if !u.BlockUniform(b) {
			t.Errorf("block %s divergent, want uniform (trip count is a kernel arg):\n%s", b.Name, f)
		}
	}
	phis, uniformLoads, divergentLoads := 0, 0, 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpPhi:
				// Both loop-carried phis: i counts, acc sums values read
				// through a uniform address.
				phis++
				if !u.ValueUniform(in) {
					t.Errorf("loop-carried phi divergent, want uniform:\n%s", f)
				}
			case ir.OpLoad:
				if u.ValueUniform(in) != u.ValueUniform(in.Args[0]) {
					t.Errorf("load uniform=%v through an address uniform=%v, want them equal",
						u.ValueUniform(in), u.ValueUniform(in.Args[0]))
				}
				if u.ValueUniform(in) {
					uniformLoads++
				} else {
					divergentLoads++
				}
			}
		}
	}
	if phis != 2 || uniformLoads != 1 || divergentLoads != 1 {
		t.Fatalf("fixture has %d phis, %d uniform and %d divergent loads, want 2, 1 and 1:\n%s",
			phis, uniformLoads, divergentLoads, f)
	}
}

// TestUniformityReconverge: a divergent branch reports where its sides
// meet again — the join of a diamond, nothing for sides that return
// separately — and a uniform branch is not a divergent one.
func TestUniformityReconverge(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void rc(global int* out, int c)
{
    int x = 0;
    if (c > 0) x = 3;
    if ((int)get_local_id(0) > 3) x += 1; else x += 2;
    out[get_global_id(0)] = x;
    if ((int)get_local_id(0) == 1) return;
    out[get_global_id(0)] = x + 1;
}
`, "rc")
	var diamond, early *ir.Block
	for _, b := range f.Blocks {
		if !u.DivergentBranch(b) {
			continue
		}
		if r := u.Reconverge(b); r != nil {
			diamond = b
			if !u.BlockUniform(r) || len(r.Phis()) == 0 {
				t.Errorf("diamond reconverges at %s, want the control-uniform join with its phi:\n%s", r.Name, f)
			}
		} else {
			early = b
		}
	}
	if diamond == nil || early == nil {
		t.Fatalf("want one divergent branch with a join and one whose sides return separately:\n%s", f)
	}
	if u.DivergentBranch(f.Entry()) {
		t.Errorf("branch on a kernel argument reported divergent:\n%s", f)
	}
}

// TestUniformityNestedDivergence: an argument-conditioned branch NESTED
// inside a local-id-conditioned region is still divergent — control
// dependence widens through the enclosing divergent branch — and so is
// everything it guards.
func TestUniformityNestedDivergence(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void nest(global int* out, int c)
{
    int x = 0;
    if ((int)get_local_id(0) > 3) {
        if (c > 0) x = 1; else x = 2;
        x += 5;
    }
    out[get_global_id(0)] = x;
}
`, "nest")
	divergent := 0
	for _, b := range f.Blocks {
		if !u.BlockUniform(b) {
			divergent++
		}
	}
	// The outer then-region holds the inner diamond (then/else/join)
	// plus its own continuation: at least 4 divergent blocks.
	if divergent < 4 {
		t.Errorf("%d divergent blocks, want the whole nested region (>= 4):\n%s", divergent, f)
	}
	entry := f.Entry()
	if !u.BlockUniform(entry) {
		t.Errorf("entry divergent, want uniform:\n%s", f)
	}
	// The outer join postdominates the local-id branch: uniform again.
	last := f.Blocks[len(f.Blocks)-1]
	if t2 := last.Terminator(); t2 != nil && t2.Op == ir.OpRet && !u.BlockUniform(last) {
		t.Errorf("exit block divergent, want uniform (postdominates the divergence):\n%s", f)
	}
}

// TestUniformityGroupBuiltins: group-level builtins are uniform,
// item-level ones divergent.
func TestUniformityGroupBuiltins(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void ids(global long* out)
{
    long g = get_group_id(0) * get_local_size(0) + get_num_groups(0);
    long l = get_local_id(0) + get_global_id(0);
    out[l] = g + l;
}
`, "ids")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpCall || !in.HasResult() {
				continue
			}
			switch in.Callee {
			case "get_group_id", "get_local_size", "get_num_groups":
				if !u.ValueUniform(in) {
					t.Errorf("%s divergent, want uniform (group-level builtin)", in.Callee)
				}
			case "get_local_id", "get_global_id":
				if u.ValueUniform(in) {
					t.Errorf("%s uniform, want divergent (item-level builtin)", in.Callee)
				}
			}
		}
	}
}

// loopPhi returns the phi of the unique block named prefix whose
// incoming values include the constant 0: a loop counter's phi.
func loopPhi(t *testing.T, f *ir.Function, prefix string) *ir.Instr {
	t.Helper()
	for _, phi := range blockByPrefix(t, f, prefix).Phis() {
		for _, a := range phi.Args {
			if c, ok := a.(*ir.ConstInt); ok && c.V == 0 {
				return phi
			}
		}
	}
	t.Fatalf("no counter phi in %s:\n%s", prefix, f)
	return nil
}

// TestUniformityLoopInDivergentIf: a uniform-trip loop inside a
// local-id guard runs with the same lanes on every iteration, so its
// counter phi and its loads through the counter are uniform, although
// every block of the loop is control-divergent.
func TestUniformityLoopInDivergentIf(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void nested(global int* out, global const int* in, int n, int k)
{
    if ((int)get_local_id(0) < k) {
        int acc = 0;
        int j;
        for (j = 0; j < n; ++j) acc += in[j];
        out[get_global_id(0)] = acc;
    }
}
`, "nested")
	head := blockByPrefix(t, f, "for.cond")
	if u.BlockUniform(head) {
		t.Errorf("loop header %s control-uniform, want divergent (inside a local-id guard):\n%s", head.Name, f)
	}
	if u.DivergentBranch(head) {
		t.Errorf("loop test divergent, want uniform (trip count is a kernel arg):\n%s", f)
	}
	if !u.ValueUniform(loopPhi(t, f, "for.cond")) {
		t.Errorf("loop counter divergent, want uniform among the lanes that run the loop:\n%s", f)
	}
	loads := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad {
				loads++
				if !u.ValueUniform(in) {
					t.Errorf("load divergent, want uniform (its address is the counter):\n%s", f)
				}
			}
		}
	}
	if loads != 1 {
		t.Fatalf("fixture has %d loads, want 1:\n%s", loads, f)
	}
}

// TestUniformityCounterAfterLoop (temporal): lanes leave a loop with a
// per-lane trip count at different iterations, so its counter read
// after the loop differs per lane even though every iteration computes
// it from uniform values.
func TestUniformityCounterAfterLoop(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void after(global int* out)
{
    int j;
    for (j = 0; j < ((int)get_local_id(0) & 7); ++j) ;
    out[get_global_id(0)] = j;
}
`, "after")
	if u.ValueUniform(loopPhi(t, f, "for.cond")) {
		t.Errorf("counter read after a per-lane loop uniform, want divergent:\n%s", f)
	}
}

// TestUniformityBreakWrap (wrap): a break under a local-id branch whose
// sides meet only after the loop. The lanes that stay run whole
// iterations while the breaking lanes wait, so every value the breaking
// side reads from the loop is divergent.
func TestUniformityBreakWrap(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void wrap(global int* out, global const int* in, int n)
{
    int res = -1;
    int j;
    for (j = 0; j < n; ++j) {
        int v = in[j];
        if (v > 1) {
            if ((int)get_local_id(0) >= 12 - j) {
                out[j] = v;
            } else {
                res = v * 100;
                break;
            }
        }
    }
    out[get_global_id(0)] = res;
}
`, "wrap")
	if u.ValueUniform(loopPhi(t, f, "for.cond")) {
		t.Errorf("loop counter uniform, want divergent (read by the lanes that break):\n%s", f)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad && u.ValueUniform(in) {
				t.Errorf("load in the loop uniform, want divergent (read by the lanes that break):\n%s", f)
			}
		}
	}
}

// TestUniformityReentry (temporal): x is read only inside the region of
// the local-id branch, but the region reaches x's definition before the
// inner loop's header, where the branch reconverges; the lanes that
// break redefine x before the others have read theirs.
func TestUniformityReentry(t *testing.T) {
	f, u := analyzeKernel(t, `
kernel void reentry(global int* out, global const int* in, int n)
{
    int acc = 0;
    int j = 0;
    int t = 0;
    for (;;) {
        int x = in[j];
        for (;;) {
            if (t >= n) {
                out[get_global_id(0)] = acc;
                return;
            }
            t = t + 1;
            if ((((int)get_local_id(0) + t) & 3) == 0) {
                j = j + 1;
                break;
            }
            acc = acc + x;
        }
    }
}
`, "reentry")
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLoad && u.ValueUniform(in) {
				t.Errorf("load uniform, want divergent (live where the branch reconverges):\n%s", f)
			}
		}
	}
}
