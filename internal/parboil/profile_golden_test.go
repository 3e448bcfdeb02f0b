package parboil

import (
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
)

// profileGoldenConfigs are the engine configurations the golden profile
// covers: the cheapest lowering (calls survive: no inliner), and the O1
// scalar and warp engines.
var profileGoldenConfigs = []struct {
	name string
	opts interp.CompileOpts
}{
	{"tier0", interp.Tier0CompileOpts},
	{"o1", interp.CompileOpts{Opt: true}},
	{"o1-warp", interp.CompileOpts{Opt: true, WarpWidth: interp.DefaultWarpWidth}},
}

// profileGoldenUniform is a 26th kernel for the landing sites no
// Parboil kernel reaches in vector dispatch: a warp-invariant
// short-circuit condition (a once-mode condjump) and a warp-invariant
// counted loop.
var profileGoldenUniform = &Kernel{
	Benchmark: "synthetic",
	Name:      "uniform",
	Source: `
kernel void uniform(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int j = 0;
    do {
        acc += j ^ n;
        ++j;
    } while (j < n);
    if (n > 2 && acc > 5)
        acc += 7;
    out[i] = acc + i;
}
`,
	Setup: func() LaunchSpec {
		return LaunchSpec{Dims: 1, Global: [3]int64{256, 1, 1}, Local: [3]int64{64, 1, 1},
			Args: []Arg{{Name: "out", I32: make([]int32, 256), Out: true}, ScalarArg("n", 9)}}
	},
}

// profileGoldenLines condenses one kernel's profiles, a line per
// configuration. A profile accumulates the native verification launch
// plus the same launch through the accelOS transformation on three
// physical groups (the scheduling wrapper is where the unoptimized
// lowering makes calls); its line holds the instruction and barrier
// totals and a hash of the snapshot's sorted opcode and block lines.
func profileGoldenLines(k *Kernel) ([]string, error) {
	orig, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return nil, err
	}
	tm := ir.CloneModule(orig)
	res, err := accelpass.Transform(tm)
	if err != nil {
		return nil, err
	}
	var lines []string
	for _, cfg := range profileGoldenConfigs {
		prof := interp.NewProfiler()
		for _, mod := range []*ir.Module{orig, tm} {
			mach := interp.NewMachine(mod)
			mach.Profiler = prof
			mach.UseProgram(interp.CompileModuleOpts(mod, cfg.opts))
			var info *accelpass.KernelInfo
			if mod == tm {
				info = res.Kernels[k.Name]
			}
			if _, err := launchSpec(mach, k.Name, k.Setup(), info, 3); err != nil {
				return nil, fmt.Errorf("%s: %w", cfg.name, err)
			}
		}
		s := prof.Snapshot()[0]
		h := fnv.New64a()
		for _, oc := range s.Opcodes {
			fmt.Fprintf(h, "%s %d\n", oc.Name, oc.Count)
		}
		for _, bc := range s.Blocks {
			fmt.Fprintf(h, "%s/%s %d\n", bc.Fn, bc.Block, bc.Hits)
		}
		lines = append(lines, fmt.Sprintf("%s %s instrs=%d barriers=%d profile=%016x", k.FullName(), cfg.name, s.Instrs, s.Barriers, h.Sum64()))
	}
	return lines, nil
}

// TestProfileGolden holds the derived profile — landings counted at
// control transfers, everything else walked from them at snapshot —
// equal to the profile the per-instruction counting loops produced:
// testdata/profile_golden.txt is profileGoldenLines' output at the last
// commit that counted every instruction (PR 16). A landing hook dropped
// from a dispatch loop changes the totals of every kernel that takes that
// transfer.
func TestProfileGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/profile_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	kernels := append(Kernels(), profileGoldenUniform)
	n := len(profileGoldenConfigs)
	if len(want) != len(kernels)*n {
		t.Fatalf("golden file has %d lines, want %d", len(want), len(kernels)*n)
	}
	for i, k := range kernels {
		k, want := k, want[i*n:(i+1)*n]
		t.Run(k.FullName(), func(t *testing.T) {
			t.Parallel()
			got, err := profileGoldenLines(k)
			if err != nil {
				t.Fatal(err)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Errorf("derived profile differs from the counted one:\n got  %s\n want %s", got[j], want[j])
				}
			}
		})
	}
}
