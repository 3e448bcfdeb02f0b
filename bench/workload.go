package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/opencl"
	"repro/internal/service"
)

// workload is one traffic mix. A cycle is a calibration reading, a
// reference window per party and a measured window; every ratio is
// formed inside a cycle.
//
// A solo workload has one daemon tenant (fg) and a reference party that
// runs the same kernels untransformed on a plain opencl.CommandQueue;
// the cycle is [reference][fg]. A duo workload has two daemon tenants;
// the cycle is [bg alone][fg alone][fg and bg together].
type workload struct {
	name   string
	why    string
	duo    bool
	cycles int
	// refShare is each reference window's share of a cycle; the
	// measured window takes the rest.
	refShare float64
	// tailPct is the pooled percentile fg_tail_us reports: the highest
	// that has at least ten samples beyond it in a full run, sits inside
	// one mode of the latency distribution rather than on the knee
	// between two, and is set by the program rather than by the host
	// (README, "tail percentile"). solo-small fails the last test
	// everywhere above its upper quartile; its p99 is the per-layer
	// bench.fg_p99_us.
	tailPct int
	// Fixed warm-up op counts, charged to set-up.
	warmFg, warmBg int
}

var workloads = []workload{
	{
		name: "solo-small", cycles: 20, refShare: 0.2, tailPct: 75, warmFg: 2000,
		why: "one tenant, 256-item kernel: per-launch fixed cost (wrapper, accelos serve/plan/retire, events, service, wire) dominates; VM speed matters little",
	},
	{
		name: "solo-parboil", cycles: 8, refShare: 0.3, tailPct: 90, warmFg: 4,
		why: "one tenant, rounds of the 25 Parboil launches: interp executes about 95% of a round, service and wire do little; the opposite of solo-small",
	},
	{
		name: "pair-long-short", duo: true, cycles: 8, refShare: 0.25, tailPct: 95, warmFg: 200, warmBg: 20,
		why: "the paper's experiment: short spmv chains beside long sgemm chains; the outcome is set by accelos share planning and LaunchHandle slicing",
	},
	{
		name: "churn-sessions", duo: true, cycles: 12, refShare: 0.15, tailPct: 99, warmFg: 2000, warmBg: 25,
		why: "control plane beside data plane: connect, JIT-compile, create and fill buffers, close, next to a small-chain tenant; no kernel-vs-kernel contention",
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// plan is everything the seed decides: the bytes the small chain
// writes, the order of the Parboil launches inside a round, and the
// order in which sessions rotate over the 25 Parboil programs. Nothing
// else about a run depends on the seed.
type plan struct {
	bumpInput    []byte
	roundOrder   []int
	sessionOrder []int
}

func newPlan(seed int64, kernels int) plan {
	r := rand.New(rand.NewSource(seed))
	p := plan{bumpInput: make([]byte, 4*bumpItems)}
	r.Read(p.bumpInput)
	p.roundOrder = r.Perm(kernels)
	p.sessionOrder = r.Perm(kernels)
	return p
}

// party is one closed loop: its next op starts when the previous one
// completed. op returns the op's latency; a non-nil error is a failed
// op (an API error or an output that differs from the reference).
type party struct {
	name string
	op   func(rec *recorder) (time.Duration, error)
}

func chainParty(name string, c *chain) *party {
	c.tenant = name
	return &party{name: name, op: func(rec *recorder) (time.Duration, error) {
		ct, err := c.run(rec, 0, 0)
		return ct.total, err
	}}
}

// roundParty runs the chains in order as one op.
func roundParty(name string, chains []*chain) *party {
	for _, c := range chains {
		c.tenant = name
	}
	return &party{name: name, op: func(rec *recorder) (time.Duration, error) {
		id := rec.newID()
		t0 := time.Now()
		var first error
		for _, c := range chains {
			if _, err := c.run(rec, id, id); err != nil && first == nil {
				first = err
			}
		}
		t1 := time.Now()
		rec.add(id, 0, id, name, "round", t0, t1)
		return t1.Sub(t0), first
	}}
}

// sessions is the churn-sessions background tenant: every op is a whole
// client lifetime with no launch in it.
type sessions struct {
	sock   string
	prefix string
	specs  []*launchSpec
	order  []int
	n      int
	// steps, when set, collects each session's time per step name (a
	// session's buffer steps summed).
	steps map[string][]time.Duration
}

func (s *sessions) party(name string) *party {
	return &party{name: name, op: func(rec *recorder) (time.Duration, error) {
		spec := s.specs[s.order[s.n%len(s.order)]]
		tenant := fmt.Sprintf("%s%d", s.prefix, s.n)
		s.n++
		t0 := time.Now()
		took, err := runSession(rec, name, s.sock, tenant, spec)
		for step, d := range took {
			if s.steps != nil {
				s.steps[step] = append(s.steps[step], d)
			}
		}
		return time.Since(t0), err
	}}
}

// runSession dials as a new tenant, compiles one program, creates and
// fills a buffer per array argument, reads the first back, and closes.
func runSession(rec *recorder, track, sock, tenant string, spec *launchSpec) (took map[string]time.Duration, err error) {
	id := rec.newID()
	start := time.Now()
	last := start
	took = make(map[string]time.Duration, 8)
	step := func(name string) {
		now := time.Now()
		rec.add(rec.newID(), id, id, track, name, last, now)
		took[name] += now.Sub(last)
		last = now
	}
	defer func() { rec.add(id, 0, id, track, "session "+spec.name, start, time.Now()) }()

	c, err := service.Dial(sock, tenant, "")
	if err != nil {
		return took, fmt.Errorf("session %s: dial: %w", spec.name, err)
	}
	step("service.dial")
	defer func() {
		c.Close()
		step("service.close")
	}()
	prog, err := c.CreateProgram(spec.source)
	if err != nil {
		return took, fmt.Errorf("session %s: program: %w", spec.name, err)
	}
	step("service.create_program")
	if _, err := prog.CreateKernel(spec.kernel); err != nil {
		return took, fmt.Errorf("session %s: kernel: %w", spec.name, err)
	}
	step("service.create_kernel")
	var first *service.RemoteBuffer
	var firstData []byte
	for _, a := range spec.args {
		if a.data == nil {
			continue
		}
		b, err := c.CreateBuffer(int64(len(a.data)))
		if err != nil {
			return took, fmt.Errorf("session %s: buffer: %w", spec.name, err)
		}
		step("service.create_buffer")
		if err := b.Write(0, a.data); err != nil {
			return took, fmt.Errorf("session %s: write: %w", spec.name, err)
		}
		step("service.write")
		if first == nil {
			first, firstData = b, a.data
		}
	}
	got := make([]byte, len(firstData))
	if err := first.Read(0, got); err != nil {
		return took, fmt.Errorf("session %s: read: %w", spec.name, err)
	}
	step("service.read")
	if !bytes.Equal(got, firstData) {
		return took, fmt.Errorf("session %s: read-back differs from what was written", spec.name)
	}
	return took, nil
}

// inputs are the seed-independent and seed-dependent data of a run,
// built once before the first set-up and not timed: the Parboil specs
// with their native outputs, the plan, and the reference party.
type inputs struct {
	w       workload
	plan    plan
	parboil []*launchSpec // all 25, registration order
	bump    *launchSpec
	ref     *party // solo workloads only
}

// newInputs takes the 25 Parboil specs (parboilSpecs) rather than
// building them: they are the same for every run of a process.
func newInputs(w workload, seed int64, specs []*launchSpec) (*inputs, error) {
	in := &inputs{w: w, plan: newPlan(seed, len(specs)), parboil: specs}
	in.bump = bumpSpec(in.plan.bumpInput)
	if !w.duo {
		ctx := opencl.GetPlatforms()[0].CreateContext()
		var chains []*chain
		for _, s := range in.fgSpecs() {
			c, err := nativeChain(ctx, s)
			if err != nil {
				return nil, err
			}
			chains = append(chains, c)
		}
		in.ref = in.fgParty("ref", chains)
	}
	return in, nil
}

func (in *inputs) spec(name string) *launchSpec {
	for _, s := range in.parboil {
		if s.name == name {
			return s
		}
	}
	panic("bench: no Parboil kernel " + name)
}

// fgSpecs are the launches of one foreground op, in issue order.
func (in *inputs) fgSpecs() []*launchSpec {
	switch in.w.name {
	case "solo-parboil":
		specs := make([]*launchSpec, len(in.parboil))
		for i, k := range in.plan.roundOrder {
			specs[i] = in.parboil[k]
		}
		return specs
	case "pair-long-short":
		return []*launchSpec{in.spec("spmv/spmv_jds")}
	default:
		return []*launchSpec{in.bump}
	}
}

// fgParty wraps the chains of fgSpecs as the workload's foreground op.
func (in *inputs) fgParty(name string, chains []*chain) *party {
	if len(chains) == 1 {
		return chainParty(name, chains[0])
	}
	return roundParty(name, chains)
}

// opSequence renders the seed-dependent part of the run as text: the
// first n foreground ops and, where there is one, background ops.
func (in *inputs) opSequence(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("fg")
		for _, s := range in.fgSpecs() {
			b.WriteString(" " + s.name)
			if s == in.bump {
				fmt.Fprintf(&b, " %x", in.plan.bumpInput)
			}
		}
		b.WriteByte('\n')
		if in.w.name == "churn-sessions" {
			fmt.Fprintf(&b, "bg session %s\n", in.parboil[in.plan.sessionOrder[i%len(in.plan.sessionOrder)]].name)
		}
	}
	return b.String()
}
