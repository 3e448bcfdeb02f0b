// Command bench is the repository's one benchmark: four workloads
// driven through the real daemon stack (service → wire → accelos →
// opencl → interp) in closed loops, every op verified, end-to-end
// numbers from an untraced run and per-layer numbers from a separate
// traced run. README.md in this directory defines every metric.
//
//	go run ./bench -workload solo-small -seed 1            # end-to-end
//	go run ./bench -workload solo-small -seed 1 -trace 1   # per-layer
//	go run ./bench -workload solo-small -seed 1 -trace t.json
//	go run ./bench -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// defaultSeconds is BENCHMARK.json's run_seconds: with four workloads
// the driver's 92 runs, five set-ups each, fit its time cap at 24 s.
const defaultSeconds = 24

func main() {
	os.Exit(realMain())
}

func realMain() int {
	name := flag.String("workload", "", "workload to run (solo-small, solo-parboil, pair-long-short, churn-sessions)")
	seed := flag.Int64("seed", 1, "seed for input bytes, Parboil round order and session rotation")
	seconds := flag.Int("seconds", defaultSeconds, "length of the measured phase")
	trace := flag.String("trace", "0", "0: end-to-end run; 1: traced per-layer run; FILE: traced run, Chrome trace written to FILE")
	out := flag.String("out", "", "append the run's result as one JSON line to this file")
	compare := flag.Bool("compare", false, "compare two -out files: bench -compare A B")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || flag.NArg() != 0 {
		if err == nil {
			err = fmt.Errorf("bad arguments")
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		flag.Usage()
		return 2
	}
	traced := *trace != "0" && *trace != ""
	traceOut := ""
	if traced && *trace != "1" {
		traceOut = *trace
	}

	base, err := workDir()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	specs, err := parboilSpecs()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res, runErr := run(w, *seed, specs, realConfig(w, *seconds), base, traced, traceOut)
	if res == nil || res.Metrics == nil {
		fmt.Fprintln(os.Stderr, "bench:", runErr)
		return 1
	}
	defs := endToEndDefs
	if traced {
		defs = perLayerDefs()
	}
	if err := report(os.Stdout, res, defs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if runErr != nil { // a leak: the numbers are printed, the run still fails
		fmt.Fprintln(os.Stderr, "bench:", runErr)
		return 1
	}
	return 0
}

// workDir is where a run keeps its sockets and shm segments:
// .bench_build under the current directory, which the repository's
// .gitignore names. Relative, so that socket paths stay under the
// 104-byte limit wherever the checkout is.
func workDir() (string, error) {
	const dir = ".bench_build"
	return dir, os.MkdirAll(dir, 0o755)
}

// report prints every metric by name with its unit, the op counts, and
// as the last line the JSON object the driver reads.
func report(w io.Writer, res *result, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	fmt.Fprintf(w, "workload %s seed %d traced %v\n", res.Workload, res.Seed, res.Traced)
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", d.Name, v)
		}
		metrics[d.Name] = value{v, d.Unit}
		fmt.Fprintf(w, "%-42s %14.4f %s\n", d.Name, v, d.Unit)
	}
	for _, p := range partyNames {
		if n, ok := res.Attempted[p]; ok {
			fmt.Fprintf(w, "%-42s ops_attempted %d ops_failed %d\n", p, n, res.Failed[p])
		}
	}
	if !res.Traced {
		w0, _ := workloadByName(res.Workload)
		fmt.Fprintf(w, "fg_tail_us is p%d over %d samples\n", w0.tailPct, res.TailSamples)
	}
	fmt.Fprintf(w, "machine speed %.3f of nominal (median over cycles); times and rates above are corrected by it\n", res.Speed)
	for _, e := range res.Errors {
		fmt.Fprintln(w, "failed:", e)
	}
	attempted, failed := res.totals()
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func appendResult(path string, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
