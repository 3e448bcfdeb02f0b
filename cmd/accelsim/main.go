// Command accelsim regenerates the paper's tables and figures on the
// simulated platforms.
//
// Usage:
//
//	accelsim -exp all                 # every figure and table, both platforms
//	accelsim -exp fig9 -platform amd  # one experiment, one platform
//	accelsim -exp fig13 -full         # paper-scale populations (625/16384/32768)
//
// Experiments: fig2, fig9, fig10, fig11, fig12, fig13, fig14, fig15,
// table1, table2, all. Beyond the paper, `-exp cluster` simulates a
// multi-device pool behind the cluster scheduler:
//
//	accelsim -exp cluster -devices 4 -policy least-loaded
//	accelsim -exp cluster -devices 4 -policy all -tenants 4
//
// `-exp chaos` runs the fault-injection harness: a seeded multi-tenant
// Parboil workload under injected device failures and slice delays on
// the in-process runtime, the deterministic runaway-kernel watchdog
// scenario, and client-side transport chaos (dropped frames, torn
// connections, failed shm maps) against a clean child-process daemon.
// Every chain must be byte-identical to the native reference or fail
// with a typed error, and both runtimes must drain to zero:
//
//	accelsim -exp chaos -seed 42
//
// An unknown `-exp` exits 2 before anything is printed.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/clc"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/parboil"
	"repro/internal/passes"
)

// experimentIDs lists every value -exp accepts.
var experimentIDs = []string{"fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
	"table1", "table2", "cluster", "chaos", "all"}

// checkExp rejects an -exp value accelsim does not run, naming the ones
// it does.
func checkExp(id string) error {
	if !slices.Contains(experimentIDs, id) {
		return fmt.Errorf("-exp: unknown experiment %q (%s)", id, strings.Join(experimentIDs, ", "))
	}
	return nil
}

func main() {
	// Re-executed as the chaos daemon child: serve and never return.
	if sock := os.Getenv(experiments.ChaosDaemonEnv); sock != "" {
		experiments.ServeChaosDaemon(sock)
		return
	}
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(experimentIDs, ", ")+")")
	platform := flag.String("platform", "both", "platform: nvidia, amd or both")
	full := flag.Bool("full", false, "paper-scale populations (625 pairs, 16384 4-sets, 32768 8-sets); slow")
	pairs := flag.Int("pairs", 0, "override pair population size")
	fours := flag.Int("fours", 0, "override 4-set population size")
	eights := flag.Int("eights", 0, "override 8-set population size")
	par := flag.Int("parallel", runtime.NumCPU(), "workload-level parallelism")
	devices := flag.Int("devices", 3, "cluster experiment: pool size (heterogeneous, alternating platforms)")
	policy := flag.String("policy", "all", "cluster experiment: placement policy, or 'all' to sweep")
	tenants := flag.Int("tenants", 3, "cluster experiment: concurrent applications")
	perTenant := flag.Int("per-tenant", 4, "cluster experiment: kernel requests per application")
	seed := flag.Int64("seed", 42, "chaos experiment: fault-injection RNG seed")
	dumpIR := flag.String("dump-ir", "", "print a named Parboil kernel's IR before and after the O1 pipeline, then exit (e.g. -dump-ir sad/larger_sad_calc_8)")
	disable := flag.String("disable-pass", "", "comma-separated O1 passes to skip with -dump-ir ("+strings.Join(passNames(passes.O1()), ", ")+")")
	flag.Parse()

	if err := checkExp(*exp); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *dumpIR != "" {
		if err := runDumpIR(*dumpIR, *disable); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "cluster" {
		if err := runCluster(*devices, *policy, *tenants, *perTenant); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}
	if *exp == "chaos" {
		if err := runChaos(*seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return
	}

	var devs []*device.Platform
	switch *platform {
	case "both":
		devs = device.Platforms()
	default:
		d, err := device.ByName(*platform)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		devs = []*device.Platform{d}
	}

	sizes := experiments.Sizes{Pairs: 200, Fours: 256, Eights: 192}
	if *full {
		sizes = experiments.PaperSizes
	}
	if *pairs > 0 {
		sizes.Pairs = *pairs
	}
	if *fours > 0 {
		sizes.Fours = *fours
	}
	if *eights > 0 {
		sizes.Eights = *eights
	}

	for _, dev := range devs {
		fmt.Printf("==================== %s ====================\n", dev.Name)
		e := experiments.NewEngine(dev)
		needPops := map[string]bool{"fig9": true, "fig10": true, "fig12": true,
			"fig13": true, "fig14": true, "table1": true, "table2": true, "all": true}
		var pops []*experiments.Population
		if needPops[*exp] {
			fmt.Printf("running populations (pairs=%d, 4-sets=%d, 8-sets=%d)...\n",
				sizes.Pairs, sizes.Fours, sizes.Eights)
			pops = e.RunPopulations(sizes, *par)
		}
		run := func(id string) {
			switch id {
			case "fig2":
				fig2(e)
			case "fig9":
				fig9(pops)
			case "fig10":
				fig10(pops)
			case "fig11":
				fig11(e)
			case "fig12":
				fig12(pops)
			case "fig13":
				fig13(pops)
			case "fig14":
				fig14(pops)
			case "fig15":
				fig15(e)
			case "table1", "table2":
				table(pops, dev.Vendor)
			}
		}
		if *exp == "all" {
			for _, id := range []string{"fig2", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "table1"} {
				run(id)
			}
		} else {
			run(*exp)
		}
	}
}

var schemes = []experiments.Scheme{experiments.Baseline, experiments.EK, experiments.AccelOS}

// runDumpIR prints a kernel's IR before and after the VM's O1
// optimization pipeline — the inspection tool for the per-pass disable
// knob (skip a pass and diff the output to see what it contributed).
func runDumpIR(name, disable string) error {
	skip, err := parseDisable(disable)
	if err != nil {
		return err
	}
	k, err := parboil.ByName(name)
	if err != nil {
		return err
	}
	mod, err := clc.Compile(k.Source, k.Name)
	if err != nil {
		return err
	}
	fmt.Printf("--- %s: pre-pipeline IR (clc -O0 memory form) ---\n\n", name)
	fmt.Println(mod.String())
	opt := ir.CloneModule(mod)
	pm := passes.O1(skip...)
	if err := pm.Run(opt); err != nil {
		return fmt.Errorf("O1 pipeline: %w", err)
	}
	pipeline := strings.Join(passNames(pm), " + ")
	if pipeline == "" {
		pipeline = "no passes"
	}
	fmt.Printf("--- %s: post-pipeline IR (%s) ---\n\n", name, pipeline)
	fmt.Println(opt.String())
	pre, post := mod.Lookup(k.Name), opt.Lookup(k.Name)
	fmt.Printf("kernel %s: %d -> %d instructions\n", k.Name, pre.NumInstrs(), post.NumInstrs())
	return nil
}

// parseDisable splits -disable-pass's comma-separated list and rejects
// any name the O1 pipeline does not run, so a typo fails instead of
// silently skipping nothing.
func parseDisable(list string) ([]string, error) {
	known := passNames(passes.O1())
	var skip []string
	for _, p := range strings.Split(list, ",") {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if !slices.Contains(known, p) {
			return nil, fmt.Errorf("-disable-pass: %q is not an O1 pass (%s)", p, strings.Join(known, ", "))
		}
		skip = append(skip, p)
	}
	return skip, nil
}

// passNames lists a pipeline's passes in run order.
func passNames(pm *passes.Manager) []string {
	names := make([]string, len(pm.Passes))
	for i, p := range pm.Passes {
		names[i] = p.Name()
	}
	return names
}

// runCluster sweeps the cluster scheduler: one row per placement
// policy, with and without rebalancing.
func runCluster(devices int, policy string, tenants, perTenant int) error {
	pols := []string{policy}
	if policy == "all" {
		pols = cluster.PolicyNames()
	}
	fmt.Printf("--- cluster: %d devices, %d tenants x %d requests ---\n", devices, tenants, perTenant)
	fmt.Printf("%-16s %-10s %12s %8s %8s %11s %s\n",
		"policy", "rebalance", "makespan", "speedup", "spread", "migrations", "tenant shares")
	for _, pol := range pols {
		for _, reb := range []bool{false, true} {
			rep, err := experiments.RunClusterExperiment(experiments.ClusterConfig{
				Devices: devices, Policy: pol,
				Tenants: tenants, PerTenant: perTenant,
				Seed: 0xC10, Rebalance: reb,
			})
			if err != nil {
				return err
			}
			var shares strings.Builder
			for _, t := range experiments.SortedTenants(rep.TenantShares) {
				fmt.Fprintf(&shares, "%s=%.2f ", t, rep.TenantShares[t])
			}
			fmt.Printf("%-16s %-10v %12d %7.2fx %8.3f %11d %s\n",
				pol, reb, rep.Result.Makespan, rep.Speedup, rep.ShareSpread,
				rep.Result.Migrations, shares.String())
		}
	}
	return nil
}

func fig2(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 2: parallel execution of bfs, cutcp, stencil, tpacf ---")
	r := e.RunWorkload(experiments.Fig2Workload())
	fmt.Println("(a) individual slowdowns:")
	for _, s := range schemes {
		fmt.Printf("    %-8s", s)
		for i, k := range r.Kernels {
			fmt.Printf("  %s=%.2f", shortName(k), r.Slowdowns[s][i])
		}
		fmt.Println()
	}
	fmt.Printf("(b) system unfairness: OpenCL=%.2f EK=%.2f accelOS=%.2f (accelOS %.2fx fairer)\n",
		r.Unfairness[experiments.Baseline], r.Unfairness[experiments.EK],
		r.Unfairness[experiments.AccelOS], r.FairnessImprovement(experiments.AccelOS))
	fmt.Printf("(c) throughput speedup:  EK=%.2fx accelOS=%.2fx\n",
		r.Speedup[experiments.EK], r.Speedup[experiments.AccelOS])
}

func fig9(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 9: average system unfairness (lower is better) ---")
	fmt.Printf("%8s %10s %10s %10s\n", "requests", "OpenCL", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %10.2f %10.2f %10.2f\n", p.K,
			p.AvgUnfairness(experiments.Baseline),
			p.AvgUnfairness(experiments.EK),
			p.AvgUnfairness(experiments.AccelOS))
	}
}

func fig10(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 10: fairness improvement distribution (higher is better) ---")
	fmt.Printf("%8s %-8s %8s %8s %8s %8s %8s %10s\n", "requests", "scheme", "min", "p25", "median", "p75", "max", "%below 1x")
	for _, p := range pops {
		for _, s := range []experiments.Scheme{experiments.EK, experiments.AccelOS} {
			xs := p.FairnessImprovements(s)
			fmt.Printf("%8d %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %9.1f%%\n", p.K, s.String(),
				metrics.Percentile(xs, 0), metrics.Percentile(xs, 25), metrics.Percentile(xs, 50),
				metrics.Percentile(xs, 75), metrics.Percentile(xs, 100),
				100*metrics.FractionBelow(xs, 1))
		}
	}
}

func fig11(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 11: unfairness for alphabetical 2-kernel pairs (lower is better) ---")
	fmt.Printf("%-58s %8s %8s %8s\n", "pair", "OpenCL", "EK", "accelOS")
	for _, p := range experiments.Fig11Pairs() {
		r := e.RunWorkload(p)
		name := shortName(r.Kernels[0]) + " + " + shortName(r.Kernels[1])
		fmt.Printf("%-58s %8.2f %8.2f %8.2f\n", name,
			r.Unfairness[experiments.Baseline], r.Unfairness[experiments.EK], r.Unfairness[experiments.AccelOS])
	}
}

func fig12(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 12: average kernel execution overlap (higher is better) ---")
	fmt.Printf("%8s %10s %10s %10s\n", "requests", "OpenCL", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %9.0f%% %9.0f%% %9.0f%%\n", p.K,
			100*p.AvgOverlap(experiments.Baseline),
			100*p.AvgOverlap(experiments.EK),
			100*p.AvgOverlap(experiments.AccelOS))
	}
}

func fig13(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 13: average system throughput speedup over OpenCL ---")
	fmt.Printf("%8s %10s %10s\n", "requests", "EK", "accelOS")
	for _, p := range pops {
		fmt.Printf("%8d %9.2fx %9.2fx\n", p.K,
			p.AvgSpeedup(experiments.EK), p.AvgSpeedup(experiments.AccelOS))
	}
}

func fig14(pops []*experiments.Population) {
	fmt.Println("\n--- Fig. 14: throughput speedup distribution ---")
	fmt.Printf("%8s %-8s %8s %8s %8s %8s %8s %10s\n", "requests", "scheme", "min", "p25", "median", "p75", "max", "%slowdown")
	for _, p := range pops {
		for _, s := range []experiments.Scheme{experiments.EK, experiments.AccelOS} {
			xs := p.Speedups(s)
			fmt.Printf("%8d %-8s %8.2f %8.2f %8.2f %8.2f %8.2f %9.1f%%\n", p.K, s.String(),
				metrics.Percentile(xs, 0), metrics.Percentile(xs, 25), metrics.Percentile(xs, 50),
				metrics.Percentile(xs, 75), metrics.Percentile(xs, 100),
				100*metrics.FractionBelow(xs, 1))
		}
	}
}

func fig15(e *experiments.Engine) {
	fmt.Println("\n--- Fig. 15: accelOS single-kernel performance impact ---")
	rows := e.Fig15()
	sort.Slice(rows, func(i, j int) bool { return rows[i].Kernel < rows[j].Kernel })
	var naive, opt []float64
	fmt.Printf("%-38s %8s %10s\n", "kernel", "naive", "optimized")
	for _, r := range rows {
		fmt.Printf("%-38s %8.3f %10.3f\n", r.Kernel, r.Naive, r.Optimized)
		naive = append(naive, r.Naive)
		opt = append(opt, r.Optimized)
	}
	fmt.Printf("%-38s %8.3f %10.3f\n", "geometric mean", metrics.GeoMean(naive), metrics.GeoMean(opt))
}

func table(pops []*experiments.Population, vendor string) {
	n := "1"
	if vendor == "AMD" {
		n = "2"
	}
	fmt.Printf("\n--- Table %s: STP / ANTT / worst ANTT (%s) ---\n", n, vendor)
	fmt.Printf("%8s | %8s %8s %8s | %8s %8s %8s\n", "", "EK", "", "", "accelOS", "", "")
	fmt.Printf("%8s | %8s %8s %8s | %8s %8s %8s\n", "RQSTs", "STP", "ANTT", "W.ANTT", "STP", "ANTT", "W.ANTT")
	for _, p := range pops {
		fmt.Printf("%8d | %8.2f %8.2f %8.2f | %8.2f %8.2f %8.2f\n", p.K,
			p.AvgSTP(experiments.EK), p.AvgANTT(experiments.EK), p.MaxWANTT(experiments.EK),
			p.AvgSTP(experiments.AccelOS), p.AvgANTT(experiments.AccelOS), p.MaxWANTT(experiments.AccelOS))
	}
}

func shortName(full string) string {
	if i := strings.Index(full, "/"); i >= 0 {
		return full[:i] + "/" + abbreviate(full[i+1:])
	}
	return full
}

func abbreviate(s string) string {
	if len(s) > 20 {
		return s[:20]
	}
	return s
}

// runChaos drives the fault-injection harness end to end: the
// in-process runtime phase (device failures + slice delays), the
// deterministic watchdog scenario, then transport chaos against a
// clean daemon child (this binary re-executed via ChaosDaemonEnv).
func runChaos(seed int64) error {
	fmt.Printf("== chaos: runtime phase (seed %d) ==\n", seed)
	if _, err := experiments.RunChaosRuntime(seed, os.Stdout); err != nil {
		return err
	}
	if err := experiments.RunChaosWatchdog(os.Stdout); err != nil {
		return err
	}

	fmt.Println("== chaos: service phase (client-side transport faults) ==")
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	sock, stop, err := experiments.SpawnChaosDaemon(exe)
	if err != nil {
		return err
	}
	if _, err := experiments.RunChaosService(sock, seed, os.Stdout); err != nil {
		stop()
		return err
	}
	if err := stop(); err != nil {
		return err
	}
	fmt.Println("chaos: all chains byte-identical or typed; daemon drained to mem=0 active=0")
	return nil
}
