package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// window is one party's closed loop over one fixed-length window.
type window struct {
	ops     int // verified ops
	failed  int
	elapsed time.Duration // from the window's start to the party's last completion
	lat     []time.Duration
	err     error // first failure, for the report
}

func (w window) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

func (w window) p50us() float64 { return percentileUs(w.lat, 50) }

// runWindow runs the parties' loops side by side for d. An op that is
// in flight when the window ends is waited for and counted, and the
// party's elapsed time runs to that op's end, so a window of a few long
// ops is not quantised by the one that straddles the deadline.
func runWindow(d time.Duration, rec *recorder, parties ...*party) []window {
	out := make([]window, len(parties))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for i, p := range parties {
		wg.Add(1)
		go func(w *window, p *party) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				lat, err := p.op(rec)
				if err != nil {
					w.failed++
					if w.err == nil {
						w.err = err
					}
					continue
				}
				w.ops++
				w.lat = append(w.lat, lat)
			}
			w.elapsed = time.Since(start)
		}(&out[i], p)
	}
	wg.Wait()
	return out
}

// calibrate runs a fixed pure-Go loop — arithmetic, data-dependent
// loads and stores over a 32 KiB table, an unpredictable branch — on
// every CPU for d and returns its speed relative to nominalSpeed. The
// loop calls nothing in the repository, so only the machine moves it.
// Each vCPU of the box this was sized on flips between a fast and a
// roughly 25 % slower state every few seconds, with nothing else
// running in the VM, so that identical runs minutes apart differ by
// 8 % (CV) in every time and rate; multiplying a cycle's times by the
// speed read next to it halves that (README, "speed correction").
func calibrate(d time.Duration) float64 {
	n := runtime.GOMAXPROCS(0)
	passes := make([]int, n)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var table [8192]uint32
			x := uint32(g + 1)
			for time.Now().Before(deadline) {
				for i := 0; i < 4096; i++ {
					x = x*1664525 + 1013904223
					slot := &table[(x>>13)&8191]
					if *slot&1 == 0 {
						*slot += x
					} else {
						*slot ^= x >> 3
					}
					x += *slot
				}
				passes[g]++
			}
			calibSink.Add(uint64(x))
		}(g)
	}
	wg.Wait()
	total := 0
	for _, p := range passes {
		total += p
	}
	return float64(total) / time.Since(start).Seconds() / nominalSpeed
}

// calibSink keeps the loop's result alive.
var calibSink atomic.Uint64

const (
	// nominalSpeed is the calibration loop's passes per second on the
	// box the benchmark was sized on, at that box's usual speed. A
	// corrected time is the wall time multiplied by the speed relative
	// to it: what the op would have taken at the usual speed. On another
	// machine every corrected number scales by one constant, which no
	// comparison of two commits on that machine sees.
	nominalSpeed = 48000.0
	// calibShare is the share of every cycle spent calibrating, and
	// setupCalib the reading taken before every set-up.
	calibShare = 0.15
	setupCalib = 150 * time.Millisecond
)

// cycle is the windows of one cycle. In a solo workload fgRef is the
// reference party's window and bgRef, bg stay empty; in a duo workload
// fgRef and bgRef are the tenants alone and fg, bg the shared window.
type cycle struct {
	fgRef, bgRef, fg, bg window
	// speed is the machine's speed relative to nominal, read at the
	// start of the cycle.
	speed float64
}

// runCycle runs one cycle of length d against an instance.
func runCycle(in *inputs, inst *instance, d time.Duration, rec *recorder) cycle {
	calib := time.Duration(float64(d) * calibShare)
	c := cycle{speed: calibrate(calib)}
	d -= calib
	ref := time.Duration(float64(d) * in.w.refShare)
	if in.w.duo {
		c.bgRef = runWindow(ref, rec, inst.bg)[0]
		c.fgRef = runWindow(ref, rec, inst.fg)[0]
		both := runWindow(d-2*ref, rec, inst.fg, inst.bg)
		c.fg, c.bg = both[0], both[1]
	} else {
		c.fgRef = runWindow(ref, nil, in.ref)[0]
		c.fg = runWindow(d-ref, rec, inst.fg)[0]
	}
	return c
}

// tally is the per-party op count a run prints.
type tally struct {
	attempted, failed int
	err               error
}

func (t *tally) add(w window) {
	t.attempted += w.ops + w.failed
	t.failed += w.failed
	if t.err == nil {
		t.err = w.err
	}
}

// endToEnd reduces the cycles of a run to the end-to-end metrics. Rates
// and medians are the median over cycles of the per-window value, the
// tail is pooled over every measured window, and each ratio is formed
// inside a cycle from windows next to each other in time and then
// reduced by the median, so drift slower than a cycle cancels. Times
// and rates are corrected by the cycle's machine speed.
func endToEnd(w workload, cycles []cycle) map[string]float64 {
	var fgRate, fgP50, bgRate, bgP50, tax, unfair, antt, stp, pooled []float64
	for _, c := range cycles {
		p50, refP50 := c.fg.p50us(), c.fgRef.p50us()
		fgRate = append(fgRate, c.fg.rate()/c.speed)
		fgP50 = append(fgP50, p50*c.speed)
		for _, l := range c.fg.lat {
			pooled = append(pooled, float64(l.Nanoseconds())/1e3*c.speed)
		}
		tax = append(tax, p50/refP50)
		slow := []float64{c.fgRef.rate() / c.fg.rate()}
		if w.duo {
			bgRate = append(bgRate, c.bg.rate()/c.speed)
			bgP50 = append(bgP50, c.bg.p50us()*c.speed)
			slow = append(slow, c.bgRef.rate()/c.bg.rate())
		} else {
			// The other party of a solo workload is the reference loop:
			// the base every ratio of the workload is taken against.
			bgRate = append(bgRate, c.fgRef.rate()/c.speed)
			bgP50 = append(bgP50, refP50*c.speed)
		}
		lo, hi, sum, inv := math.Inf(1), 0.0, 0.0, 0.0
		for _, s := range slow {
			lo, hi = math.Min(lo, s), math.Max(hi, s)
			sum += s
			inv += 1 / s
		}
		unfair = append(unfair, hi/lo)
		antt = append(antt, sum/float64(len(slow)))
		stp = append(stp, inv)
	}
	return map[string]float64{
		"fg_ops_per_s": median(fgRate),
		"fg_p50_us":    median(fgP50),
		"fg_tail_us":   percentile(pooled, float64(w.tailPct)),
		"bg_ops_per_s": median(bgRate),
		"bg_p50_us":    median(bgP50),
		"sharing_tax":  median(tax),
		"unfairness":   median(unfair),
		"antt":         median(antt),
		"stp":          median(stp),
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, the quartiles taken as Python's
// statistics.quantiles(v, n=4) takes them (exclusive method).
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return math.Abs((q(3) - q(1)) / median(s))
}

// percentile is the nearest-rank percentile of v.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// percentileUs is the nearest-rank percentile of the durations, in µs.
func percentileUs(d []time.Duration, p float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = float64(x.Nanoseconds()) / 1e3
	}
	return percentile(v, p)
}

func medianDur(d []time.Duration) float64 { return percentileUs(d, 50) }
