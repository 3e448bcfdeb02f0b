// Command clcc compiles an OpenCL C kernel file through the CLC front
// end and shows the compilation pipeline the accelOS JIT applies: the
// original IR, the transformed IR (computation function + scheduling
// kernel, linked against the runtime library), and the per-kernel
// metadata that feeds the host runtime (instruction count, adaptive
// chunk, register estimate, local memory).
//
// Usage:
//
//	clcc [-stage=ir|transformed|meta|warp] file.cl
//	                          # warp: the transformed kernels' bytecode
//	                          # as the daemon compiles it, each
//	                          # instruction with its warp dispatch mode
//	clcc -demo                # use the paper's Fig. 8 example kernel
//	clcc -profile file.cl     # run each kernel on synthesized arguments
//	                          # and dump its VM execution profile
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/accelpass"
	"repro/internal/clc"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/passes"
)

const demoSrc = `/* The paper's running example (Fig. 8a). */
#define NConstant 4
kernel void mop(global const float* ina, global const float* inb, global float* out)
{
    size_t gid = get_global_id(0);
    size_t grid = get_group_id(0);
    if (grid < NConstant)
        out[gid] = ina[gid] + inb[gid];
    else
        out[gid] = ina[gid] - inb[gid];
}
`

func main() {
	stage := flag.String("stage", "all", "what to print: ir, transformed, meta, all (those three), or warp (transformed bytecode with warp dispatch modes)")
	demo := flag.Bool("demo", false, "compile the paper's Fig. 8 example instead of a file")
	profile := flag.Bool("profile", false, "execute each kernel on synthesized arguments (64x64 NDRange) and dump its VM execution profile")
	flag.Parse()

	var src, name string
	if *demo {
		src, name = demoSrc, "fig8"
	} else {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: clcc [-stage=...] file.cl  (or clcc -demo)")
			os.Exit(2)
		}
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		src, name = string(data), flag.Arg(0)
	}

	mod, err := clc.Compile(src, name)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *stage == "ir" || *stage == "all" {
		fmt.Println("==== original IR ====")
		fmt.Print(mod.String())
	}

	tm := ir.CloneModule(mod)
	res, err := accelpass.Transform(tm)
	if err != nil {
		fmt.Fprintln(os.Stderr, "transform:", err)
		os.Exit(1)
	}
	if *stage == "transformed" || *stage == "all" {
		fmt.Println("\n==== transformed IR (computation functions + scheduling kernels + runtime library) ====")
		fmt.Print(res.Module.String())
	}
	if *stage == "meta" || *stage == "all" {
		fmt.Println("\n==== JIT metadata ====")
		for _, f := range mod.Kernels() {
			info := res.Kernels[f.Name]
			fmt.Printf("kernel %-24s instrs=%-4d chunk=%d (adaptive: %d) regs/thread=%-3d local=%dB (orig %dB) hoisted=%d\n",
				f.Name, info.InstrCount, info.Chunk, passes.AdaptiveChunk(info.InstrCount),
				info.Regs, info.LocalBytes, info.OrigLocalBytes, len(info.Hoisted))
		}
	}
	if *stage == "warp" {
		if err := dumpWarp(res.Module); err != nil {
			fmt.Fprintln(os.Stderr, "warp:", err)
			os.Exit(1)
		}
	}
	if *profile {
		fmt.Println("\n==== VM execution profiles (synthesized arguments, 64x64 NDRange) ====")
		if err := profileKernels(mod); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
	}
}

// dumpWarp compiles the transformed module the way the daemon's JIT
// does (interp.CompileModule) and lists every scheduling kernel's
// bytecode with its dispatch modes. A "spill" in the listing is a point
// where the warp leaves vector dispatch.
func dumpWarp(trans *ir.Module) error {
	prog := interp.CompileModule(trans)
	for _, f := range trans.Kernels() {
		if err := prog.DumpWarp(os.Stdout, f.Name); err != nil {
			return err
		}
	}
	return nil
}

// profileKernels executes every kernel in the module once on the
// bytecode VM with synthesized arguments — global/constant pointers get
// a zeroed 1 MB buffer, local pointers a 4 KB per-group region, ints 64
// and floats 1.0 — under a profiler, then dumps the
// per-opcode/per-block profile. Kernels that fault on the synthetic
// input (e.g. divide by a zeroed buffer element) are reported, not
// fatal: the profile still covers the instructions executed up to the
// fault.
func profileKernels(mod *ir.Module) error {
	prof := interp.NewProfiler()
	for _, f := range mod.Kernels() {
		m := interp.NewMachine(mod)
		m.Profiler = prof
		if err := m.Launch(f.Name, synthArgs(m, f), interp.ND1(64, 64)); err != nil {
			fmt.Printf("kernel %s faulted on synthesized input: %v\n", f.Name, err)
		}
	}
	prof.Dump(os.Stdout)
	return nil
}

// synthArgs builds profileKernels' synthesized argument list for one
// kernel: zeroed 1 MB global buffers, 4 KB local regions, 64 for
// integers, 1.0 for floats.
func synthArgs(m *interp.Machine, f *ir.Function) []interp.Value {
	args := make([]interp.Value, 0, len(f.Params))
	for _, p := range f.Params {
		switch {
		case p.Ty.IsPointer() && p.Ty.Space == ir.Local:
			args = append(args, interp.LocalArgV(4096))
		case p.Ty.IsPointer():
			r := m.NewRegion(1<<20, ir.Global)
			args = append(args, interp.Value{K: ir.Pointer, P: interp.Ptr{R: r}})
		case p.Ty.IsFloat():
			args = append(args, interp.FloatV(1.0))
		case p.Ty.Kind == ir.I64:
			args = append(args, interp.LongV(64))
		default:
			args = append(args, interp.IntV(64))
		}
	}
	return args
}
