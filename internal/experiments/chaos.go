// Chaos harness: seeded fault injection against the live runtime and
// the out-of-process service boundary. The acceptance contract is
// byte-identical-or-typed-error — under injected device failures, slice
// delays, dropped frames, torn connections and failed shm maps, every
// kernel chain either produces output byte-identical to the fault-free
// native reference or fails with one of the runtime's typed sentinels.
// Silent corruption or an untyped error fails the run.

package experiments

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// chaosTenants is the fan-out of both chaos phases: the 25 Parboil
// kernels are split across this many concurrent tenants.
const chaosTenants = 4

// chaosNatives computes the fault-free reference outputs every chaos
// run compares against.
func chaosNatives(kernels []*parboil.Kernel) ([][][]byte, error) {
	out := make([][][]byte, len(kernels))
	for i, k := range kernels {
		ref, err := k.RunNative()
		if err != nil {
			return nil, fmt.Errorf("%s: native reference: %w", k.FullName(), err)
		}
		out[i] = ref
	}
	return out, nil
}

// typedRuntimeFault reports whether an in-process chain failure is one
// of the sentinels the fault model is allowed to surface.
func typedRuntimeFault(err error) bool {
	return errors.Is(err, accelos.ErrDeviceLost) ||
		errors.Is(err, accelos.ErrKernelTimeout) ||
		errors.Is(err, accelos.ErrKernelQuarantined) ||
		errors.Is(err, opencl.ErrBufferReleased)
}

// proxyBuffer, proxyKernel, proxyProgram and proxyApp are the ProxyCL
// surface a Parboil replay uses, which accelos.App and service.Client
// both provide.
type proxyBuffer interface {
	WriteAsync(off int64, data []byte, waits ...*opencl.Event) (*opencl.Event, error)
	ReadAsync(off int64, out []byte, waits ...*opencl.Event) (*opencl.Event, error)
	Release()
}

type proxyKernel[B proxyBuffer] interface {
	SetArgInt32(i int, v int32) error
	SetArgBuffer(i int, b B) error
}

type proxyProgram[K any] interface {
	CreateKernel(name string) (K, error)
}

type proxyApp[P proxyProgram[K], K proxyKernel[B], B proxyBuffer] interface {
	CreateProgram(src string) (P, error)
	CreateBuffer(size int64) (B, error)
	EnqueueKernelAsync(k K, nd opencl.NDRange, waits ...*opencl.Event) (*opencl.Event, error)
}

// replayParboil replays one kernel's verification launch through a
// ProxyCL surface — uploads behind events, kernel behind the uploads,
// read-backs behind the kernel — and compares every buffer against the
// native reference.
func replayParboil[A proxyApp[P, K, B], P proxyProgram[K], K proxyKernel[B], B proxyBuffer](app A, k *parboil.Kernel, native [][]byte) error {
	prog, err := app.CreateProgram(k.Source)
	if err != nil {
		return fmt.Errorf("%s: program: %w", k.FullName(), err)
	}
	kh, err := prog.CreateKernel(k.Name)
	if err != nil {
		return fmt.Errorf("%s: kernel: %w", k.FullName(), err)
	}
	spec := k.Setup()
	// outs[i] is allocated when argument i gets its buffer bufs[i].
	bufs := make([]B, len(spec.Args))
	outs := make([][]byte, len(spec.Args))
	defer func() {
		for i, b := range bufs {
			if outs[i] != nil {
				b.Release()
			}
		}
	}()
	var uploads []*opencl.Event
	for i, a := range spec.Args {
		if a.Scalar != nil {
			if err := kh.SetArgInt32(i, int32(*a.Scalar)); err != nil {
				return err
			}
			continue
		}
		host := parboil.EncodeArg(a)
		if host == nil {
			return fmt.Errorf("%s: argument %q has no value", k.FullName(), a.Name)
		}
		b, err := app.CreateBuffer(int64(len(host)))
		if err != nil {
			return fmt.Errorf("%s: buffer %q: %w", k.FullName(), a.Name, err)
		}
		bufs[i], outs[i] = b, make([]byte, len(native[i]))
		ev, err := b.WriteAsync(0, host)
		if err != nil {
			return fmt.Errorf("%s: write %q: %w", k.FullName(), a.Name, err)
		}
		uploads = append(uploads, ev)
		if err := kh.SetArgBuffer(i, b); err != nil {
			return err
		}
	}
	nd := opencl.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
	kev, err := app.EnqueueKernelAsync(kh, nd, uploads...)
	if err != nil {
		return fmt.Errorf("%s: enqueue: %w", k.FullName(), err)
	}
	var reads []*opencl.Event
	for i, b := range bufs {
		if outs[i] == nil {
			continue
		}
		ev, err := b.ReadAsync(0, outs[i], kev)
		if err != nil {
			return fmt.Errorf("%s: read %q: %w", k.FullName(), spec.Args[i].Name, err)
		}
		reads = append(reads, ev)
	}
	for _, ev := range reads {
		if err := ev.Wait(); err != nil {
			return fmt.Errorf("%s: pipeline: %w", k.FullName(), err)
		}
	}
	for i := range spec.Args {
		if outs[i] != nil && !bytes.Equal(native[i], outs[i]) {
			return fmt.Errorf("%s: buffer %d (%s) differs from the native reference",
				k.FullName(), i, spec.Args[i].Name)
		}
	}
	return nil
}

// waitUntil polls cond to true within the deadline.
func waitUntil(what string, d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("chaos: timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// ChaosReport summarizes one chaos phase for the caller's output.
type ChaosReport struct {
	Chains      int
	OK          int
	TypedFailed int
	Retries     int64
	FaultsFired map[fault.Point]int64
	Relaunches  int64
	DeviceFails int64
}

// RunChaosRuntime is chaos phase A: the 25-kernel Parboil workload
// split across concurrent tenants on a two-device cluster runtime,
// with seeded device failures and slice delays injected underneath and
// a repair goroutine healing devices behind them. Every chain must be
// byte-identical or fail typed; afterwards the runtime must drain to
// zero active executions and zero held memory.
func RunChaosRuntime(seed int64, w io.Writer) (*ChaosReport, error) {
	kernels := parboil.Kernels()
	natives, err := chaosNatives(kernels)
	if err != nil {
		return nil, err
	}

	rt := accelos.NewClusterRuntime(opencl.GetPlatforms(), cluster.LeastLoaded(), 2)
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	rt.SetSliceRounds(2)
	// A generous deadline: the watchdog hooks run on every launch but
	// must never kill a legitimate chaos kernel. The deterministic
	// watchdog scenario (RunChaosWatchdog) covers the kill path.
	rt.SetFaultPolicy(accelos.FaultPolicy{
		MaxRelaunches:  4,
		LaunchDeadline: 60 * time.Second,
	})

	inj := fault.NewInjector(seed).
		EnableLimited(fault.DeviceFail, 0.2, 12).
		Enable(fault.SliceDelay, 0.25)
	inj.SetSliceDelay(200 * time.Microsecond)
	rt.Pool().SetFaultInjector(inj)
	opencl.SetFaultInjector(inj)
	defer opencl.SetFaultInjector(nil)
	defer rt.Pool().SetFaultInjector(nil)

	// The repair crew: failed devices come back on a short lease, so
	// parked and relaunched work always finds a home eventually.
	stopHeal := make(chan struct{})
	var healWG sync.WaitGroup
	healWG.Add(1)
	go func() {
		defer healWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopHeal:
				return
			case <-tick.C:
				for d := range rt.Pool().Devices() {
					rt.Pool().HealDevice(d)
				}
			}
		}
	}()

	rep := &ChaosReport{}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for tnt := 0; tnt < chaosTenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			app := rt.Connect(fmt.Sprintf("chaos-%d", tnt))
			defer app.Close()
			for i := tnt; i < len(kernels); i += chaosTenants {
				err := replayParboil(app, kernels[i], natives[i])
				mu.Lock()
				rep.Chains++
				switch {
				case err == nil:
					rep.OK++
				case typedRuntimeFault(err):
					rep.TypedFailed++
				default:
					if firstErr == nil {
						firstErr = fmt.Errorf("tenant %d: untyped chaos failure: %w", tnt, err)
					}
				}
				mu.Unlock()
			}
		}(tnt)
	}
	wg.Wait()
	close(stopHeal)
	healWG.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Quiesce: injection off, everything healed, and the runtime must
	// drain completely — no leaked executions, no held memory, nothing
	// parked.
	opencl.SetFaultInjector(nil)
	rt.Pool().SetFaultInjector(nil)
	for d := range rt.Pool().Devices() {
		rt.Pool().HealDevice(d)
	}
	if err := waitUntil("active executions to drain", 30*time.Second,
		func() bool { return rt.ActiveExecutions() == 0 }); err != nil {
		return nil, err
	}
	if err := waitUntil("memory to drain", 30*time.Second,
		func() bool { return rt.Memory().Used() == 0 }); err != nil {
		return nil, fmt.Errorf("%w (still holding %d bytes)", err, rt.Memory().Used())
	}
	if n := rt.Pool().Parked(); n != 0 {
		return nil, fmt.Errorf("chaos: %d executions still parked after heal", n)
	}

	rep.FaultsFired = inj.Counts()
	rep.Relaunches = reg.CounterTotal("relaunches_total")
	rep.DeviceFails = reg.CounterTotal("device_failures_total")
	if w != nil {
		fmt.Fprintf(w, "chaos runtime: seed=%d chains=%d ok=%d typed-failed=%d device-failures=%d relaunches=%d faults=%v\n",
			seed, rep.Chains, rep.OK, rep.TypedFailed, rep.DeviceFails, rep.Relaunches, rep.FaultsFired)
	}
	return rep, nil
}

// chaosSpinSrc is a runaway kernel: every item spins until its own
// output word, which the host never sets, turns non-zero, so only
// RunChaosWatchdog's 10 ms deadline or the launch-global instruction
// budget can end it. The budget does after about 1 s on a 2-vCPU x86
// box, a hundred times the deadline.
const chaosSpinSrc = `
kernel void spin(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; out[i] == 0; ++t) acc += (i + t) & 7;
    if (i < n) out[i] = acc;
}
`

// RunChaosWatchdog is the deterministic runaway-kernel scenario: a spin
// kernel against a short wall-clock deadline must die twice with
// ErrKernelTimeout and then be quarantined.
func RunChaosWatchdog(w io.Writer) error {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	rt.SetFaultPolicy(accelos.FaultPolicy{
		LaunchDeadline:  10 * time.Millisecond,
		QuarantineAfter: 2,
	})
	app := rt.Connect("runaway")
	defer app.Close()

	prog, err := app.CreateProgram(chaosSpinSrc)
	if err != nil {
		return err
	}
	k, err := prog.CreateKernel("spin")
	if err != nil {
		return err
	}
	const n = 64
	buf, err := app.CreateBuffer(n * 4)
	if err != nil {
		return err
	}
	defer buf.Release()
	if err := k.SetArgBuffer(0, buf); err != nil {
		return err
	}
	if err := k.SetArgInt32(1, n); err != nil {
		return err
	}
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1}}
	for i := 0; i < 2; i++ {
		if err := app.EnqueueKernel(k, nd); !errors.Is(err, accelos.ErrKernelTimeout) {
			return fmt.Errorf("chaos watchdog: launch %d: err = %v, want ErrKernelTimeout", i, err)
		}
	}
	if err := app.EnqueueKernel(k, nd); !errors.Is(err, accelos.ErrKernelQuarantined) {
		return fmt.Errorf("chaos watchdog: post-quarantine launch: err = %v, want ErrKernelQuarantined", err)
	}
	if w != nil {
		fmt.Fprintf(w, "chaos watchdog: 2 kills -> quarantined (%d recorded)\n",
			rt.WatchdogKills("runaway", "spin"))
	}
	return nil
}

// retryableChaos classifies a service-phase chain failure: transient
// per the client's own classification, or caused by an injected fault
// (which the harness knows is transient by construction).
func retryableChaos(err error) bool {
	return service.Retryable(err) || errors.Is(err, fault.ErrInjected)
}

// RunChaosService is chaos phase B: the same Parboil workload driven
// through service clients against a CLEAN daemon at sock (the daemon
// must run in another process — transport injection is installed in
// this process only, modeling a flaky link as seen from the client).
// Frame drops, torn connections and shm map failures are injected
// client-side; chains ride them out with DialWithOptions retry plus
// chain-level replay. Replay is safe at chain granularity because every
// chain rebuilds its state — programs, buffers, uploads — from
// host-resident inputs against a fresh connection; the runtime never
// re-enqueues a possibly-executed kernel (see service.Retryable).
func RunChaosService(sock string, seed int64, w io.Writer) (*ChaosReport, error) {
	kernels := parboil.Kernels()
	natives, err := chaosNatives(kernels)
	if err != nil {
		return nil, err
	}

	inj := fault.NewInjector(seed).
		Enable(fault.WireDropFrame, 0.005).
		Enable(fault.WireCloseConn, 0.003).
		Enable(fault.ShmMapFail, 0.05)
	wire.SetFaultInjector(inj)
	defer wire.SetFaultInjector(nil)

	reg := telemetry.NewRegistry()
	rep := &ChaosReport{}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	for tnt := 0; tnt < chaosTenants; tnt++ {
		wg.Add(1)
		go func(tnt int) {
			defer wg.Done()
			tenant := fmt.Sprintf("chaos-%d", tnt)
			for i := tnt; i < len(kernels); i += chaosTenants {
				const maxAttempts = 12
				var chainErr error
				for attempt := 0; attempt < maxAttempts; attempt++ {
					var c *service.Client
					c, chainErr = service.DialWithOptions(sock, tenant, "", service.DialOptions{
						Retry:      30,
						Backoff:    time.Millisecond,
						MaxBackoff: 50 * time.Millisecond,
						Seed:       seed + int64(tnt*100+i),
						Metrics:    reg,
					})
					if chainErr == nil {
						chainErr = replayParboil(c, kernels[i], natives[i])
						if chainErr != nil && retryableChaos(chainErr) {
							c.CountRetry()
						}
						c.Close()
					}
					if chainErr == nil || !retryableChaos(chainErr) {
						break
					}
				}
				mu.Lock()
				rep.Chains++
				if chainErr == nil {
					rep.OK++
				} else if firstErr == nil {
					firstErr = fmt.Errorf("tenant %d kernel %s: chain did not converge: %w",
						tnt, kernels[i].FullName(), chainErr)
				}
				mu.Unlock()
			}
		}(tnt)
	}
	wg.Wait()
	wire.SetFaultInjector(nil)
	if firstErr != nil {
		return nil, firstErr
	}
	rep.FaultsFired = inj.Counts()
	rep.Retries = reg.CounterTotal("client_retries_total")
	if w != nil {
		fmt.Fprintf(w, "chaos service: seed=%d chains=%d ok=%d client-retries=%d faults=%v\n",
			seed, rep.Chains, rep.OK, rep.Retries, rep.FaultsFired)
	}
	return rep, nil
}

// ChaosDaemonEnv carries the socket path to a process re-executed as
// the service-phase chaos daemon. Hosts of the harness (accelsim, the
// test binary) check it at startup and divert into ServeChaosDaemon.
const ChaosDaemonEnv = "ACCELSIM_CHAOS_DAEMON"

// ServeChaosDaemon is the child-process side of the service chaos
// phase: a clean two-device daemon on sock — no injector; phase B
// models a flaky transport as seen from the client — serving until
// stdin closes, then printing the drained final state for the parent
// to assert on. Never returns.
func ServeChaosDaemon(sock string) {
	rt := accelos.NewClusterRuntime(opencl.GetPlatforms(), cluster.LeastLoaded(), 2)
	srv := service.NewServer(rt, service.Options{})
	if err := srv.Start(sock); err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(1)
	}
	fmt.Println("READY")
	io.Copy(io.Discard, os.Stdin)
	srv.Close()
	fmt.Printf("FINAL mem=%d active=%d\n", rt.Memory().Used(), rt.ActiveExecutions())
	rt.Shutdown()
	os.Exit(0)
}

// SpawnChaosDaemon re-executes exe with args as a chaos daemon (via
// ChaosDaemonEnv) on a fresh socket and waits for it to come up. The
// returned stop function closes the daemon's stdin, waits for it to
// exit, and errors unless it drained to mem=0 active=0 — the no-leak
// half of the chaos contract.
func SpawnChaosDaemon(exe string, args ...string) (sock string, stop func() error, err error) {
	// os.MkdirTemp over the caller's choice: sockaddr_un caps the path
	// at ~104 bytes, which nested temp dirs routinely blow.
	dir, err := os.MkdirTemp("", "chaos")
	if err != nil {
		return "", nil, err
	}
	sock = filepath.Join(dir, "d.sock")
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), ChaosDaemonEnv+"="+sock)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return "", nil, err
	}
	out := bufio.NewReader(stdout)
	line, err := out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "READY" {
		cmd.Process.Kill()
		cmd.Wait()
		os.RemoveAll(dir)
		return "", nil, fmt.Errorf("chaos daemon startup: %q, %v", line, err)
	}
	stop = func() error {
		defer os.RemoveAll(dir)
		stdin.Close()
		var final string
		for {
			line, err := out.ReadString('\n')
			if err != nil {
				break
			}
			if strings.HasPrefix(line, "FINAL") {
				final = strings.TrimSpace(line)
			}
		}
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("chaos daemon exit: %w", err)
		}
		if final != "FINAL mem=0 active=0" {
			return fmt.Errorf("chaos daemon leaked state: %q, want FINAL mem=0 active=0", final)
		}
		return nil
	}
	return sock, stop, nil
}
