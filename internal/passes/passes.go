// Package passes provides the middle-end passes run by the accelOS JIT
// pipeline: constant folding, dead code elimination, a liveness-based
// register usage estimator (feeding the occupancy model) and instruction
// counting (feeding the adaptive scheduling policy).
package passes

import (
	"fmt"

	"repro/internal/ir"
)

// Pass transforms or analyzes a module.
type Pass interface {
	Name() string
	Run(m *ir.Module) error
}

// Manager runs a pass pipeline, verifying the module after each pass.
type Manager struct {
	Passes []Pass
	// Verify controls whether the IR verifier runs after every pass.
	Verify bool
}

// NewManager returns a manager with verification enabled.
func NewManager(ps ...Pass) *Manager {
	return &Manager{Passes: ps, Verify: true}
}

// O1 returns the optimization pipeline the bytecode VM compiles behind:
// mem2reg (allocas to SSA values with phis), inlining (callees into
// callers, uncalled helpers dropped), constant folding, dead code
// elimination, and constant-branch folding plus straight-line block
// merging, in that order. Inlining sits after mem2reg so promotion only
// ever sees small functions, and before the clean-ups so they run once,
// over the merged kernels, with the arguments of each call site visible.
// Passes named in disable are skipped — the per-pass knob the parity
// suite and the accelsim -dump-ir tool use to isolate one pass.
func O1(disable ...string) *Manager {
	skip := make(map[string]bool, len(disable))
	for _, n := range disable {
		skip[n] = true
	}
	all := []Pass{Mem2Reg{}, Inline{}, ConstFold{}, DCE{}, SimplifyCFG{}}
	var ps []Pass
	for _, p := range all {
		if !skip[p.Name()] {
			ps = append(ps, p)
		}
	}
	return NewManager(ps...)
}

// RunO1 runs the O1 pipeline over the module in place.
func RunO1(m *ir.Module, disable ...string) error {
	return O1(disable...).Run(m)
}

// Run executes the pipeline.
func (pm *Manager) Run(m *ir.Module) error {
	for _, p := range pm.Passes {
		if err := p.Run(m); err != nil {
			return fmt.Errorf("pass %s: %w", p.Name(), err)
		}
		if pm.Verify {
			if err := ir.Verify(m); err != nil {
				return fmt.Errorf("after pass %s: %w", p.Name(), err)
			}
		}
	}
	return nil
}

// replaceAllUses rewrites every operand equal to old with new within f.
func replaceAllUses(f *ir.Function, old, new ir.Value) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// hasUses reports whether v is used as an operand anywhere in f.
func hasUses(f *ir.Function, v ir.Value) bool {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a == v {
					return true
				}
			}
		}
	}
	return false
}
