package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// instance is one daemon in the harness process — a runtime behind a
// server on a real unix socket with real shm segments — and the client
// connections of the workload's tenants.
type instance struct {
	dir     string // holds the socket and the private shm directory
	shmDir  string
	sock    string
	rt      *accelos.Runtime
	srv     *service.Server
	reg     *telemetry.Registry // nil unless traced
	clients []*service.Client
	fg, bg  *party
	// fgChains are the daemon-side chains of one foreground op, parallel
	// to inputs.fgSpecs.
	fgChains []*chain
}

// setup builds instance n of a run under base and drives the workload's
// fixed warm-up through it. Everything from NewRuntime to the last
// warm-up op is what setup_s times, so lazy work a later change moves
// out of the measured phase (tier promotion, pool growth, a compile
// cache) is charged here. warmDiv divides the warm-up counts: 1 in a
// real run, more in the smoke test.
func setup(in *inputs, base string, n int, traced bool, warmDiv int) (inst *instance, elapsed time.Duration, err error) {
	dir := filepath.Join(base, fmt.Sprintf("i%d", n))
	shmDir := filepath.Join(dir, "shm")
	if err := os.MkdirAll(shmDir, 0o700); err != nil {
		return nil, 0, err
	}
	inst = &instance{dir: dir, shmDir: shmDir, sock: filepath.Join(dir, "d.sock")}
	defer func() {
		if err != nil {
			inst.teardown()
			inst = nil
		}
	}()

	t0 := time.Now()
	inst.rt = accelos.NewRuntime(opencl.GetPlatforms()[0])
	opts := service.Options{ShmDir: shmDir}
	if traced {
		inst.reg = telemetry.NewRegistry()
		inst.rt.SetTelemetry(nil, inst.reg, nil)
		opts.Metrics = inst.reg
	}
	inst.srv = service.NewServer(inst.rt, opts)
	if err := inst.srv.Start(inst.sock); err != nil {
		return inst, 0, err
	}

	fgc, err := inst.dial("fg")
	if err != nil {
		return inst, 0, err
	}
	var chains []*chain
	for _, s := range in.fgSpecs() {
		c, err := serviceChain(fgc, s)
		if err != nil {
			return inst, 0, err
		}
		chains = append(chains, c)
	}
	inst.fg, inst.fgChains = in.fgParty("fg", chains), chains

	switch in.w.name {
	case "pair-long-short":
		bgc, err := inst.dial("bg")
		if err != nil {
			return inst, 0, err
		}
		c, err := serviceChain(bgc, in.spec("sgemm/mysgemmNT"))
		if err != nil {
			return inst, 0, err
		}
		inst.bg = chainParty("bg", c)
	case "churn-sessions":
		s := &sessions{sock: inst.sock, prefix: fmt.Sprintf("s%d-", n), specs: in.parboil, order: in.plan.sessionOrder}
		inst.bg = s.party("bg")
	}

	// Background first: a session compiles a program, and the first of
	// each kind grows pools the foreground then finds warm.
	if inst.bg != nil {
		if err := warm(inst.bg, in.w.warmBg/warmDiv); err != nil {
			return inst, 0, err
		}
	}
	if err := warm(inst.fg, in.w.warmFg/warmDiv); err != nil {
		return inst, 0, err
	}
	return inst, time.Since(t0), nil
}

func (inst *instance) dial(tenant string) (*service.Client, error) {
	c, err := service.Dial(inst.sock, tenant, "")
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", tenant, err)
	}
	inst.clients = append(inst.clients, c)
	return c, nil
}

func warm(p *party, n int) error {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		if _, err := p.op(nil); err != nil {
			return fmt.Errorf("warm-up op %d of %s: %w", i, p.name, err)
		}
	}
	return nil
}

// teardown closes every client, the server and the runtime, then checks
// that nothing is left: no device memory in use, no active execution,
// no segment in the private shm directory.
func (inst *instance) teardown() error {
	for _, c := range inst.clients {
		c.Close()
	}
	var leak error
	if inst.srv != nil {
		inst.srv.Close()
	}
	if inst.rt != nil {
		inst.rt.Shutdown()
		if used := inst.rt.Memory().Used(); used != 0 {
			leak = fmt.Errorf("leak: %d bytes of device memory in use after shutdown", used)
		} else if n := inst.rt.ActiveExecutions(); n != 0 {
			leak = fmt.Errorf("leak: %d executions active after shutdown", n)
		}
	}
	if ents, err := os.ReadDir(inst.shmDir); err == nil && len(ents) != 0 && leak == nil {
		leak = fmt.Errorf("leak: %d shm segments left in %s (first %s)", len(ents), inst.shmDir, ents[0].Name())
	}
	if err := os.RemoveAll(inst.dir); err != nil && leak == nil {
		leak = err
	}
	return leak
}
