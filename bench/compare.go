package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readResults loads the end-to-end runs of a -out file, grouped by
// workload; traced runs in the file are skipped.
func readResults(path string) (map[string][]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string][]*result)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Traced {
			out[r.Workload] = append(out[r.Workload], &r)
		}
	}
	return out, sc.Err()
}

func values(runs []*result, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		v = append(v, r.Metrics[metric])
	}
	return v
}

// verdict judges one metric of one workload: b against a. A metric
// whose runs spread wider than its bound on either side is unresolved,
// not unchanged — unless every run of b reads better than every run of
// a; otherwise it is worse when b's median is worse than a's by more
// than the bound.
func verdict(d metricDef, a, b []float64) (medA, medB, rel, spread float64, v string) {
	medA, medB = median(a), median(b)
	rel = (medB - medA) / medA
	worse := rel
	if d.Better == "higher" {
		worse = -rel
	}
	spread = max(quartileSpread(a), quartileSpread(b))
	switch {
	case spread > d.Bound && !allBetter(d, a, b):
		v = "unresolved"
	case worse > d.Bound:
		v = "worse"
	default:
		v = "ok"
	}
	return
}

func allBetter(d metricDef, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && y >= x) || (d.Better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints, for every workload and end-to-end metric, both
// medians, their relative difference, the larger quartile spread, the
// bound and the verdict. It returns 1 if any metric is worse.
func compareFiles(w io.Writer, pathA, pathB string) int {
	var sets [2]map[string][]*result
	for i, path := range []string{pathA, pathB} {
		var err error
		if sets[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareRuns(w, sets[0], sets[1])
}

func compareRuns(w io.Writer, a, b map[string][]*result) int {
	code := 0
	fmt.Fprintf(w, "%-16s %-13s %14s %14s %8s %8s %6s  %s\n", "workload", "metric", "median A", "median B", "diff", "spread", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a[wl.name], b[wl.name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-16s no runs on one side (%d, %d)\n", wl.name, len(ra), len(rb))
			continue
		}
		for _, d := range endToEndDefs {
			medA, medB, rel, spread, v := verdict(d, values(ra, d.Name), values(rb, d.Name))
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-13s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, medA, medB, rel*100, spread*100, d.Bound*100, v)
		}
	}
	return code
}
