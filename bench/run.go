package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// config sizes a run. A real run takes it from -seconds; the smoke test
// shrinks it.
type config struct {
	cycles  int
	cycle   time.Duration // length of one cycle
	setups  int           // full set-ups timed; the last one serves the measured phase
	warmDiv int           // divides the fixed warm-up counts (1 in a real run)
	probe   probeSize
}

func realConfig(w workload, seconds int) config {
	return config{
		cycles:  w.cycles,
		cycle:   time.Duration(seconds) * time.Second / time.Duration(w.cycles),
		setups:  5,
		warmDiv: 1,
		probe:   fullProbes,
	}
}

// result is what one run reports.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Metrics  map[string]float64 `json:"metrics"`
	// Attempted and Failed count ops per party: fg, bg, and ref (the
	// native reference loop of a solo workload).
	Attempted map[string]int `json:"ops_attempted"`
	Failed    map[string]int `json:"ops_failed"`
	// TailSamples is the number of samples fg_tail_us was taken over.
	TailSamples int      `json:"tail_samples"`
	Errors      []string `json:"errors,omitempty"`
	// Speed is the median over cycles of the machine's speed relative to
	// nominalSpeed, by which every time and rate is corrected.
	Speed float64 `json:"machine_speed"`
}

// partyNames are the parties a run counts ops for, in report order: the
// tenants, and the native reference loop of a solo workload.
var partyNames = []string{"fg", "bg", "ref"}

func (r *result) totals() (attempted, failed int) {
	for _, n := range r.Attempted {
		attempted += n
	}
	for _, n := range r.Failed {
		failed += n
	}
	return
}

func (r *result) count(w workload, cycles []cycle) {
	parties := map[string]*tally{"fg": {}, "bg": {}, "ref": {}}
	var speeds []float64
	for _, c := range cycles {
		speeds = append(speeds, c.speed)
		parties["fg"].add(c.fg)
		parties["bg"].add(c.bg)
		if w.duo { // the alone windows are the tenants' own ops
			parties["fg"].add(c.fgRef)
			parties["bg"].add(c.bgRef)
		} else {
			parties["ref"].add(c.fgRef)
		}
		r.TailSamples += len(c.fg.lat)
	}
	r.Speed = median(speeds)
	r.Attempted, r.Failed = map[string]int{}, map[string]int{}
	for _, name := range partyNames {
		t := parties[name]
		if t.attempted == 0 {
			continue
		}
		r.Attempted[name], r.Failed[name] = t.attempted, t.failed
		if t.err != nil {
			r.Errors = append(r.Errors, fmt.Sprintf("%s: %d failed, first: %v", name, t.failed, t.err))
		}
	}
}

// run executes one workload under base (a directory the run may fill
// and empties again). The returned error is a harness failure or a
// leak; failed ops are counted in the result, not returned.
func run(w workload, seed int64, specs []*launchSpec, cfg config, base string, traced bool, traceOut string) (*result, error) {
	in, err := newInputs(w, seed, specs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	res := &result{Workload: w.name, Seed: seed, Traced: traced}
	if traced {
		return res, runTraced(in, cfg, dir, traceOut, res)
	}

	var setups []float64
	var inst *instance
	for i := 0; i < cfg.setups; i++ {
		if inst != nil {
			if err := inst.teardown(); err != nil {
				return nil, err
			}
		}
		speed := calibrate(setupCalib)
		var el time.Duration
		if inst, el, err = setup(in, dir, i, false, cfg.warmDiv); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, el.Seconds()*speed)
	}
	runtime.GC()
	cycles := make([]cycle, cfg.cycles)
	for i := range cycles {
		cycles[i] = runCycle(in, inst, cfg.cycle, nil)
	}
	res.Metrics = endToEnd(w, cycles)
	res.Metrics["setup_s"] = median(setups)
	res.count(w, cycles)
	return res, inst.teardown()
}

// runTraced is the separate run the per-layer metrics come from. Two
// instances are set up, A with a telemetry registry installed and the
// harness recording spans, B with neither; short cycles alternate
// between them (two full cycles' time in all), so the traced run
// measures its own distortion as a ratio of neighbours, and the probes
// of layers.go follow.
// tracedPairs is how many (traced, untraced) cycle pairs a traced run
// alternates; odd, so that the median is one pair's ratio.
const tracedPairs = 3

func runTraced(in *inputs, cfg config, dir, traceOut string, res *result) error {
	rec := &recorder{}
	a, _, err := setup(in, dir, 0, true, cfg.warmDiv)
	if err != nil {
		return err
	}
	b, _, err := setup(in, dir, 1, false, cfg.warmDiv)
	if err != nil {
		a.teardown()
		return err
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	goroutines := runtime.NumGoroutine()
	t0 := time.Now()
	var ca, cb []cycle
	var counted counters // over A's cycles only: the VM's cache counters are process-wide
	var overhead []float64
	for i := 0; i < tracedPairs; i++ {
		before := snapshot(a)
		ca = append(ca, runCycle(in, a, cfg.cycle/tracedPairs, rec))
		counted.add(snapshot(a), before)
		cb = append(cb, runCycle(in, b, cfg.cycle/tracedPairs, nil))
		overhead = append(overhead, (ca[i].fg.p50us()/cb[i].fg.p50us()-1)*100)
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	res.count(in.w, append(append([]cycle(nil), ca...), cb...))

	m := make(map[string]float64)
	counted.metrics(m)
	m["bench.trace_overhead_pct"] = median(overhead)
	var twin []time.Duration // fg ops of the untraced twin
	for _, c := range cb {
		twin = append(twin, c.fg.lat...)
	}
	m["bench.fg_p99_us"] = percentileUs(twin, 99)
	m["bench.heap_inuse_mb"] = float64(ms0.HeapInuse) / (1 << 20)
	m["bench.goroutines"] = float64(goroutines)
	m["bench.machine_speed"] = res.Speed
	m["bench.gc_pause_us_per_s"] = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e3 / elapsed.Seconds()
	perr := probes(in, a, dir, cfg.probe, rec, m)
	res.Metrics = m

	err = a.teardown()
	if berr := b.teardown(); err == nil {
		err = berr
	}
	if err == nil {
		err = perr
	}
	if err == nil && traceOut != "" {
		err = rec.write(traceOut)
	}
	return err
}
