package clc_test

import (
	"regexp"
	"strings"
	"testing"

	"repro/internal/clc"
	"repro/internal/ir"
	"repro/internal/parboil"
)

// positioned is the shape of every front-end diagnostic: the stage's
// first error, with the line and column it was found at.
var positioned = regexp.MustCompile(`^clc: \d+:\d+: `)

// FuzzCompile holds the front end to its contract on tenant-supplied
// text: Compile returns a positioned error or a module that passes
// ir.Verify, and never panics. The seed corpus — the 25 Parboil sources
// and truncations of each, which end mid-declaration, mid-expression and
// mid-token — runs under plain `go test`; crashers the fuzzer found live
// under testdata/fuzz.
func FuzzCompile(f *testing.F) {
	for _, k := range parboil.Kernels() {
		f.Add(k.Source)
		for _, frac := range []int{1, 2, 3, 5, 7} {
			f.Add(k.Source[:len(k.Source)*frac/8])
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := clc.Compile(src, "fuzz")
		if err != nil {
			if !positioned.MatchString(err.Error()) {
				t.Fatalf("error without a position: %v", err)
			}
			return
		}
		if err := ir.Verify(m); err != nil {
			t.Fatalf("compiled module fails verification: %v", err)
		}
	})
}

// TestNestingBounded: nesting the parser would have to recurse through
// is refused with a positioned error before it can exhaust the stack —
// a fatal error no recover contains. Each source fits one wire frame.
func TestNestingBounded(t *testing.T) {
	const n = 300_000
	for name, src := range map[string]string{
		"parens": "kernel void k(global int* o) { o[0] = " + strings.Repeat("(", n) + "1" + strings.Repeat(")", n) + "; }",
		"unary":  "kernel void k(global int* o) { o[0] = " + strings.Repeat("-", n) + "1; }",
		"blocks": "kernel void k(global int* o) { " + strings.Repeat("{", n) + strings.Repeat("}", n) + " }",
		"ifs":    "kernel void k(global int* o) { " + strings.Repeat("if (1) ", n) + "; }",
	} {
		_, err := clc.Compile(src, name)
		if err == nil || !positioned.MatchString(err.Error()) || !strings.Contains(err.Error(), "nesting deeper than") {
			t.Errorf("%s nested %d deep: err = %.80v, want a positioned nesting error", name, n, err)
		}
	}
	// What real kernels nest stays well inside the bound.
	ok := "kernel void k(global int* o) { o[0] = " + strings.Repeat("(", 100) + "1" + strings.Repeat(")", 100) + "; }"
	if _, err := clc.Compile(ok, "ok"); err != nil {
		t.Errorf("100 nested parentheses: %v", err)
	}
}
