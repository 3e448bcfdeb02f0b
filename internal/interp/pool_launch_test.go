package interp

import (
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/clc"
	"repro/internal/ir"
)

// countSrc adds one to each item's word, so a group that runs twice or
// never shows.
const countSrc = `
kernel void count(global int* out)
{
    atomic_inc(&out[get_global_id(0)]);
}
`

// TestWorkerPoolLaunches: every group of a multi-group launch runs
// exactly once while the pool closes under it, a launch on a closed pool
// completes on its caller, and a thousand launches leave the goroutine
// count where it was.
func TestWorkerPoolLaunches(t *testing.T) {
	mod, err := clc.Compile(countSrc, "count")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("close", func(t *testing.T) {
		const launchers, launches, groups = 4, 50, 8
		for round := 0; round < 20; round++ {
			p := NewWorkerPool(2)
			outs := make([]*Region, launchers)
			var wg sync.WaitGroup
			for i := range outs {
				m := NewMachine(mod)
				m.Workers = p
				outs[i] = m.NewRegion(groups*4, ir.Global)
				args := []Value{{K: ir.Pointer, P: Ptr{R: outs[i]}}}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < launches; j++ {
						if err := m.Launch("count", args, ND1(groups, 1)); err != nil {
							t.Error(err)
						}
					}
				}()
			}
			time.Sleep(time.Duration(round) * 50 * time.Microsecond)
			p.Close()
			wg.Wait()
			for i, out := range outs {
				for g, n := range out.ReadInt32s(0, groups) {
					if n != launches {
						t.Fatalf("round %d: launcher %d's group %d ran %d times in %d launches", round, i, g, n, launches)
					}
				}
			}
		}
	})

	t.Run("launch after close", func(t *testing.T) {
		p := NewWorkerPool(2)
		p.Close()
		m := NewMachine(mod)
		m.Workers = p
		out := m.NewRegion(4*4, ir.Global)
		if err := m.Launch("count", []Value{{K: ir.Pointer, P: Ptr{R: out}}}, ND1(4, 1)); err != nil {
			t.Fatal(err)
		}
		if got := out.ReadInt32s(0, 4); !slices.Equal(got, []int32{1, 1, 1, 1}) {
			t.Fatalf("a launch on a closed pool left %v", got)
		}
	})

	t.Run("goroutines", func(t *testing.T) {
		p := NewWorkerPool(0)
		defer p.Close()
		m := NewMachine(mod)
		m.Workers = p
		out := m.NewRegion(8*4, ir.Global)
		args := []Value{{K: ir.Pointer, P: Ptr{R: out}}}
		before := runtime.NumGoroutine()
		const launches = 1000
		for i := 0; i < launches; i++ {
			if err := m.Launch("count", args, ND1(8, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutines went %d → %d over %d launches", before, after, launches)
		}
		for g, n := range out.ReadInt32s(0, 8) {
			if n != launches {
				t.Fatalf("group %d ran %d times in %d launches", g, n, launches)
			}
		}
	})
}
