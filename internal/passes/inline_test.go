package passes

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
)

// callsTo counts the calls in f that name a function defined in m.
func callsTo(m *ir.Module, f *ir.Function) map[string]int {
	n := make(map[string]int)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				if c := m.Lookup(in.Callee); c != nil && !c.IsDecl() {
					n[in.Callee]++
				}
			}
		}
	}
	return n
}

// TestInlineValuedAndVoid: a helper returning from two places (its
// value becomes a phi in the continuation), one returning from one
// place and a void one with a pointer argument all fold into the
// kernel, which is then the only function left.
func TestInlineValuedAndVoid(t *testing.T) {
	mod := compileAndPromote(t, `
int pick(int a, int b) { if (a > b) return a - b; return b + 1; }
int twice(int a) { return a + a; }
void bumpat(global int* p, int i, int v) { p[i] = p[i] + v; }
kernel void k(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int v = pick(i, n) + twice(i);
    bumpat(out, i, v);
    bumpat(out, i, pick(v, 3));
}
`, "k")
	k := mod.Lookup("k")
	if c := callsTo(mod, k); len(c) != 0 {
		t.Errorf("calls left in the kernel: %v\n%s", c, k)
	}
	for _, name := range []string{"pick", "twice", "bumpat"} {
		if mod.Lookup(name) != nil {
			t.Errorf("%s survived although nothing calls it any more", name)
		}
	}
	if err := ir.Verify(mod); err != nil {
		t.Errorf("inlined module fails verify: %v\n%s", err, k)
	}
	// Two calls of pick, each returning from two places: two join phis.
	if n := countOps(k, ir.OpPhi); n != 2 {
		t.Errorf("%d phis in the kernel, want 2 (one per inlined pick)\n%s", n, k)
	}
	if n := countOps(k, ir.OpStore); n != 2 {
		t.Errorf("%d stores in the kernel, want 2 (one per inlined bumpat)\n%s", n, k)
	}
}

// TestInlinePhiBearingCallee: a callee whose own body carries phis (a
// promoted loop), called from inside the caller's loop and after it —
// each copy keeps its phis consistent with its copied blocks, and the
// caller's phis follow the block split at the call.
func TestInlinePhiBearingCallee(t *testing.T) {
	mod := compileAndPromote(t, `
int sum(global const int* p, int n)
{
    int s = 0;
    int i;
    for (i = 0; i < n; ++i) s += p[i];
    return s;
}
kernel void k(global int* out, global const int* in, int n)
{
    int acc = 0;
    int j;
    for (j = 0; j < n; ++j) acc += sum(in, j);
    out[get_global_id(0)] = acc + sum(in, n);
}
`, "k")
	k := mod.Lookup("k")
	if c := callsTo(mod, k); len(c) != 0 {
		t.Errorf("calls left in the kernel: %v\n%s", c, k)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatalf("inlined module fails verify: %v\n%s", err, k)
	}
	// The caller's two loop-carried phis, and two per copy of sum.
	if n := countOps(k, ir.OpPhi); n != 6 {
		t.Errorf("%d phis in the kernel, want 6\n%s", n, k)
	}
	seen := make(map[string]bool)
	for _, b := range k.Blocks {
		if seen[b.Name] {
			t.Errorf("block name %s used twice: profile weights are keyed by it", b.Name)
		}
		seen[b.Name] = true
	}
}

// TestInlineLeavesRecursion: functions on a call-graph cycle stay
// functions and calls to them stay calls, while an ordinary helper that
// calls one is still inlined; a helper nothing calls is not removed.
func TestInlineLeavesRecursion(t *testing.T) {
	mod := compileAndPromote(t, `
int tri(int x) { if (x <= 0) return 0; return x + tri(x - 1); }
int even(int x);
int odd(int x) { if (x == 0) return 0; return even(x - 1); }
int even(int x) { if (x == 0) return 1; return odd(x - 1); }
int wrap(int x) { return tri(x) + 1; }
int unused(int x) { return x * 3; }
kernel void k(global int* out)
{
    int i = (int)get_global_id(0);
    out[i] = wrap(i & 3) + even(i & 7);
}
`, "k")
	k := mod.Lookup("k")
	calls := callsTo(mod, k)
	if calls["tri"] != 1 || calls["even"] != 1 || len(calls) != 2 {
		t.Errorf("kernel calls %v, want exactly one each of tri and even\n%s", calls, k)
	}
	for _, name := range []string{"tri", "odd", "even", "unused"} {
		if f := mod.Lookup(name); f == nil || f.IsDecl() {
			t.Errorf("%s was removed", name)
		}
	}
	if c := callsTo(mod, mod.Lookup("tri")); c["tri"] != 1 {
		t.Errorf("tri's self call was touched: %v", c)
	}
	if mod.Lookup("wrap") != nil {
		t.Errorf("wrap survived although its only call was inlined")
	}
	if err := ir.Verify(mod); err != nil {
		t.Errorf("module fails verify: %v", err)
	}
}

// TestInlineBounded: a chain of helpers each calling the previous one
// twice doubles in size per level; inlining stops at the bound instead
// of building a kernel of 2^20 instructions.
func TestInlineBounded(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("int f0(int x) { return x * 3 + 1; }\n")
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&sb, "int f%d(int x) { return f%d(x) + f%d(x + 1); }\n", i, i-1, i-1)
	}
	sb.WriteString("kernel void k(global int* out) { out[0] = f20(1); }\n")
	mod := compileAndPromote(t, sb.String(), "k")
	for _, f := range mod.Funcs {
		if n := f.NumInstrs(); n > inlineMaxInstrs {
			t.Errorf("%s grew to %d instructions, bound %d", f.Name, n, inlineMaxInstrs)
		}
	}
	if c := callsTo(mod, mod.Lookup("k")); len(c) == 0 {
		t.Errorf("the whole chain was inlined into the kernel")
	}
	if err := ir.Verify(mod); err != nil {
		t.Errorf("module fails verify: %v", err)
	}
}
