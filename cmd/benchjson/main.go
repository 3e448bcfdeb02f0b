// Command benchjson converts `go test -bench` text output into a JSON
// record. The CI benchmark smoke jobs pipe benchmark suites through it
// to produce the BENCH_*.json records they upload as build artifacts
// (none is committed); to write one locally:
//
//	go test -run xxx -bench 'InterpLaunch|SlicedLaunch|Dispatch' \
//	    -benchtime 1x -benchmem . | go run ./cmd/benchjson -out BENCH_interp.json
//	go test -run xxx -bench 'AsyncPipeline|EventOverhead' \
//	    -benchtime 3x -benchmem . | go run ./cmd/benchjson \
//	    -require AsyncPipeline,EventOverhead -out BENCH_api.json
//
// -require makes the conversion fail unless every listed name substring
// matched at least one benchmark, so a CI job cannot silently record an
// empty or mis-filtered run. -require-ratio enforces speedup floors
// between two benchmarks of the same record ('slow:fast>=min'), the
// machine-independent way CI guards the interpreter optimization
// pipeline's >=3x BenchmarkDispatch win:
//
//	go run ./cmd/benchjson \
//	    -require-ratio 'BenchmarkDispatch/vm-O0:BenchmarkDispatch/vm>=3'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Runs        int64              `json:"runs"`
	NsPerOp     float64            `json:"ns_per_op,omitempty"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Record is the output document.
type Record struct {
	Note       string   `json:"note,omitempty"`
	GOOS       string   `json:"goos,omitempty"`
	GOARCH     string   `json:"goarch,omitempty"`
	Pkg        string   `json:"pkg,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	in := flag.String("in", "-", "benchmark text output ('-' for stdin)")
	out := flag.String("out", "-", "JSON destination ('-' for stdout)")
	note := flag.String("note", "", "free-form note stored in the record")
	require := flag.String("require", "", "comma-separated name substrings that must each match a benchmark")
	requireRatio := flag.String("require-ratio", "",
		"comma-separated 'slow:fast>=min' specs; fails unless ns/op(slow)/ns/op(fast) >= min within this record (a machine-independent speedup guard)")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rec, err := parse(src)
	if err != nil {
		fatal(err)
	}
	if err := checkRequired(rec, *require); err != nil {
		fatal(err)
	}
	if err := checkRatios(rec, *requireRatio); err != nil {
		fatal(err)
	}
	rec.Note = *note

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}

// checkRequired verifies every comma-separated substring matches at
// least one parsed benchmark name.
func checkRequired(rec *Record, require string) error {
	for _, want := range strings.Split(require, ",") {
		want = strings.TrimSpace(want)
		if want == "" {
			continue
		}
		found := false
		for _, b := range rec.Benchmarks {
			if strings.Contains(b.Name, want) {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("required benchmark %q not found in input", want)
		}
	}
	return nil
}

// checkRatios enforces 'slow:fast>=min' speedup floors within the
// record: the named benchmarks are matched exactly (after the
// -GOMAXPROCS strip) and ns/op(slow)/ns/op(fast) must reach min. CI
// uses it to guard optimization-pipeline speedups without depending on
// the runner's absolute clock: both sides ran on the same machine in
// the same job.
func checkRatios(rec *Record, specs string) error {
	for _, spec := range strings.Split(specs, ",") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		names, minStr, ok := strings.Cut(spec, ">=")
		if !ok {
			return fmt.Errorf("bad ratio spec %q: want 'slow:fast>=min'", spec)
		}
		slowName, fastName, ok := strings.Cut(names, ":")
		if !ok {
			return fmt.Errorf("bad ratio spec %q: want 'slow:fast>=min'", spec)
		}
		min, err := strconv.ParseFloat(strings.TrimSpace(minStr), 64)
		if err != nil {
			return fmt.Errorf("bad ratio bound in %q: %v", spec, err)
		}
		find := func(name string) (Result, error) {
			name = strings.TrimSpace(name)
			for _, b := range rec.Benchmarks {
				if b.Name == name {
					return b, nil
				}
			}
			return Result{}, fmt.Errorf("benchmark %q not found for ratio check", name)
		}
		slow, err := find(slowName)
		if err != nil {
			return err
		}
		fast, err := find(fastName)
		if err != nil {
			return err
		}
		if fast.NsPerOp <= 0 {
			return fmt.Errorf("benchmark %q has no ns/op", fast.Name)
		}
		ratio := slow.NsPerOp / fast.NsPerOp
		if ratio < min {
			return fmt.Errorf("ratio %s/%s = %.2f, below required %.2f",
				slow.Name, fast.Name, ratio, min)
		}
		fmt.Fprintf(os.Stderr, "benchjson: ratio %s/%s = %.2fx (>= %.2f ok)\n",
			slow.Name, fast.Name, ratio, min)
	}
	return nil
}

// parse reads the standard benchmark output format: header key: value
// lines followed by "BenchmarkName-N  <runs>  <value> <unit> ..." rows.
func parse(r io.Reader) (*Record, error) {
	rec := &Record{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rec.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rec.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rec.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rec.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, err := parseLine(line)
			if err != nil {
				return nil, fmt.Errorf("parsing %q: %w", line, err)
			}
			rec.Benchmarks = append(rec.Benchmarks, res)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rec.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines found")
	}
	return rec, nil
}

func parseLine(line string) (Result, error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return Result{}, fmt.Errorf("too few fields")
	}
	name := fields[0]
	// Strip the -GOMAXPROCS suffix.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, fmt.Errorf("bad run count %q", fields[1])
	}
	res := Result{Name: name, Runs: runs}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, fmt.Errorf("bad value %q", fields[i])
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			res.NsPerOp = v
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		default:
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[unit] = v
		}
	}
	return res, nil
}
