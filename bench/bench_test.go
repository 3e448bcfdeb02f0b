package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	specsOnce sync.Once
	specsVal  []*launchSpec
	specsErr  error
)

// testSpecs builds the 25 Parboil specs (and their native outputs) once
// for the whole test binary.
func testSpecs(t *testing.T) []*launchSpec {
	t.Helper()
	specsOnce.Do(func() { specsVal, specsErr = parboilSpecs() })
	if specsErr != nil {
		t.Fatal(specsErr)
	}
	return specsVal
}

// The seed decides the op sequence and nothing else does: the same seed
// gives the same sequence, another seed another one. pair-long-short
// issues two fixed Parboil launches, so no seed can change it.
func TestSeedDecidesOpSequence(t *testing.T) {
	specs := testSpecs(t)
	for _, w := range workloads {
		seq := func(seed int64) string {
			in, err := newInputs(w, seed, specs)
			if err != nil {
				t.Fatal(err)
			}
			return in.opSequence(60)
		}
		a, again, b := seq(7), seq(7), seq(8)
		if a != again {
			t.Errorf("%s: seed 7 gave two different op sequences", w.name)
		}
		if differs := a != b; differs != (w.name != "pair-long-short") {
			t.Errorf("%s: seeds 7 and 8 differ = %v", w.name, differs)
		}
	}
}

// smokeConfig is one short cycle after one set-up with the warm-up
// counts divided by fifty.
var smokeConfig = config{cycles: 1, cycle: 500 * time.Millisecond, setups: 1, warmDiv: 50, probe: smokeProbes}

func smokeRun(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	base, err := os.MkdirTemp("", "bench") // short: socket paths cap out near 104 bytes
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(base)
	traceOut := ""
	if traced {
		traceOut = base + "/trace.json"
	}
	res, err := run(w, 1, testSpecs(t), smokeConfig, base, traced, traceOut)
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if _, failed := res.totals(); failed != 0 {
		t.Fatalf("%s: failed ops: %v", w.name, res.Errors)
	}
	if traced {
		b, err := os.ReadFile(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), `"parent"`) || !strings.Contains(string(b), `"chain"`) {
			t.Errorf("%s: Chrome trace spans carry no parent or chain id", w.name)
		}
	}
	return res
}

func checkMetrics(t *testing.T, w workload, res *result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		v, ok := res.Metrics[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: metric %s missing or not finite (%v)", w.name, d.Name, v)
		}
		if d.Bound != 0 && v <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, v)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", w.name, len(res.Metrics), len(defs))
	}
}

// Every workload runs end to end, verifies every op, leaks nothing and
// reports every end-to-end metric.
func TestSmokeEndToEnd(t *testing.T) {
	t.Parallel()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			res := smokeRun(t, w, false)
			checkMetrics(t, w, res, endToEndDefs)
			if res.Attempted["fg"] == 0 || (w.duo && res.Attempted["bg"] == 0) || (!w.duo && res.Attempted["ref"] == 0) {
				t.Errorf("%s: a party attempted no op: %v", w.name, res.Attempted)
			}
		})
	}
}

// The traced run reports every per-layer metric and writes a trace with
// parent and chain ids. One workload is enough: the cycles are the code
// TestSmokeEndToEnd runs, and the probes are the same for all four
// (every traced run takes the whole Parboil ladder and a rotation of
// sessions).
func TestSmokeTraced(t *testing.T) {
	t.Parallel()
	w, err := workloadByName("solo-small")
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, w, smokeRun(t, w, true), perLayerDefs())
}

// BENCHMARK.json at the repository root says what this package measures;
// the tables here are what it does measure.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q, table has %q", i, doc.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
		unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json has %+v, table has %+v", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(want[i].Name) || !unitRE.MatchString(want[i].Unit) {
				t.Errorf("%s: %q (%q) is not a valid name and unit", kind, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEndDefs)
	same("per_layer", doc.PerLayer, perLayerDefs())
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, -seconds defaults to %d", doc.RunSeconds, defaultSeconds)
	}
}

func TestQuartileSpreadIsPythons(t *testing.T) {
	// statistics.quantiles([1,2,4,7,11,16,22,29,37,46], n=4) == [3.5, 13.5, 31.0]
	v := []float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37}
	if got, want := quartileSpread(v), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "m", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "m", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, []float64{101, 100, 100, 99, 103}, "ok"},
		{"slower", lower, steady, []float64{115, 116, 114, 115, 117}, "worse"},
		{"faster", lower, steady, []float64{80, 81, 79, 80, 82}, "ok"},
		{"rate fell", higher, steady, []float64{85, 86, 84, 85, 87}, "worse"},
		{"rate rose", higher, steady, []float64{115, 116, 114, 115, 117}, "ok"},
		{"too noisy to tell", lower, []float64{80, 100, 120, 90, 130}, []float64{85, 105, 125, 95, 135}, "unresolved"},
		{"noisy but every run better", lower, []float64{80, 100, 120, 90, 130}, []float64{40, 50, 60, 45, 65}, "ok"},
	} {
		if _, _, _, _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
