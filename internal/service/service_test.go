package service

// The integration suite for the out-of-process boundary. Tests that
// move verified data through the shared mappings run the daemon in a
// real child process (the test binary re-executed in daemon mode, see
// TestMain): that is the deployment shape the subsystem exists for,
// and it keeps the race detector honest — synchronization between the
// two sides flows through socket frames, which -race cannot see, so an
// in-process daemon would report false races on the shared pages.
// Control-path tests (backpressure, rate limits, eviction, admission)
// keep the server in-process so they can assert against the runtime's
// internals; their kernels run on pages only the daemon side touches.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/opencl"
	"repro/internal/parboil"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const daemonEnv = "ACCELD_TEST_SOCKET"

func TestMain(m *testing.M) {
	if sock := os.Getenv(daemonEnv); sock != "" {
		runTestDaemon(sock)
		return
	}
	os.Exit(m.Run())
}

// runTestDaemon is the child-process mode: serve one runtime on the
// socket until stdin closes or SIGTERM arrives (the restart test kills
// the daemon out from under its clients that way), then tear down and
// report the runtime's final state for the parent to assert on.
func runTestDaemon(sock string) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	srv := NewServer(rt, Options{})
	if err := srv.Start(sock); err != nil {
		fmt.Printf("ERR %v\n", err)
		os.Exit(1)
	}
	// The handler goes in before READY: a SIGTERM sent as soon as the
	// parent reads it must not meet the default action.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	fmt.Println("READY")
	eof := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin)
		close(eof)
	}()
	select {
	case <-sig:
	case <-eof:
	}
	srv.Close()
	fmt.Printf("FINAL mem=%d active=%d\n", rt.Memory().Used(), rt.ActiveExecutions())
	rt.Shutdown()
	os.Exit(0)
}

// daemon is a handle on an out-of-process test daemon.
type daemon struct {
	sock  string
	stdin io.WriteCloser
	out   *bufio.Reader
	cmd   *exec.Cmd
}

// startDaemon re-executes the test binary in daemon mode and waits for
// its socket to be live.
func startDaemon(t *testing.T) *daemon {
	t.Helper()
	// t.TempDir is too deep for sockaddr_un's ~104-byte path limit.
	dir, err := os.MkdirTemp("", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return startDaemonAt(t, filepath.Join(dir, "d.sock"))
}

// startDaemonAt runs the daemon on a caller-chosen socket path, so the
// restart test can bring a replacement up at the address its clients
// already hold.
func startDaemonAt(t *testing.T, sock string) *daemon {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), daemonEnv+"="+sock)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{sock: sock, stdin: stdin, out: bufio.NewReader(stdout), cmd: cmd}
	t.Cleanup(func() {
		stdin.Close()
		cmd.Wait()
	})
	line, err := d.out.ReadString('\n')
	if err != nil || strings.TrimSpace(line) != "READY" {
		t.Fatalf("daemon did not come up: %q err=%v", line, err)
	}
	return d
}

// stop closes the daemon's stdin and returns its final-state report.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	d.stdin.Close()
	return d.reap(t)
}

// sigterm kills the daemon the way a process manager would and returns
// its final-state report.
func (d *daemon) sigterm(t *testing.T) string {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal daemon: %v", err)
	}
	return d.reap(t)
}

func (d *daemon) reap(t *testing.T) string {
	t.Helper()
	line, err := d.out.ReadString('\n')
	if err != nil {
		t.Fatalf("daemon final report: %v", err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v", err)
	}
	return strings.TrimSpace(line)
}

// startService runs an in-process server for control-path tests. The
// runtime is returned for assertions against its internals.
func startService(t *testing.T, rt *accelos.Runtime, opts Options) (*Server, string) {
	t.Helper()
	t.Cleanup(rt.Shutdown)
	dir, err := os.MkdirTemp("", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	srv := NewServer(rt, opts)
	sock := filepath.Join(dir, "d.sock")
	if err := srv.Start(sock); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, sock
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

const svcVaddSrc = `
kernel void vadd(global const float* a, global const float* b, global float* c, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) c[i] = a[i] + b[i];
}
`

const svcIncSrc = `
kernel void inc(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = out[i] + 1;
}
`

// svcChurnSrc is a long-running kernel (mirrors the accelos test
// workload) so disconnect and admission tests can catch it in flight.
const svcChurnSrc = `
kernel void churn(global int* out, int n)
{
    local int scratch[1024];
    int l = (int)get_local_id(0);
    scratch[l] = l;
    barrier(1);
    int i = (int)get_global_id(0);
    int acc = 0;
    int t;
    for (t = 0; t < 300; ++t) acc += (i + t) & 7;
    if (i < n) out[i] = out[i] + scratch[l] + 1 + (acc & 0);
}
`

// svcHoldSrc holds its device slot until the host lets it go: item 0
// spins until the word after the grid, out[n], turns non-zero, and the
// launch stays resident until it ends. The admission test writes that
// word through the buffer's shared mapping once the launches it races
// against the hold are queued. One spinning item keeps the launch-global
// instruction budget for seconds; a spinning grid spends it in 0.1 s.
const svcHoldSrc = `
kernel void hold(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int t;
    if (i == 0)
        for (t = 0; out[n] == 0; ++t) ;
    if (i < n) out[i] = out[i] + 1;
}
`

const svcPeerSrc = `
kernel void peer(global int* out, int n)
{
    local int scratch[1024];
    int l = (int)get_local_id(0);
    scratch[l] = 2 * l;
    barrier(1);
    int i = (int)get_global_id(0);
    if (i < n) out[i] = scratch[l];
}
`

// TestServiceEndToEnd drives one client through the whole surface
// against an out-of-process daemon — program, buffers, async uploads,
// kernel, read-back — and then proves the zero-copy story: mutating
// the client's mapping directly, with no Write at all, is visible to
// the next kernel launch, and the result is read straight out of the
// output buffer's mapping.
func TestServiceEndToEnd(t *testing.T) {
	d := startDaemon(t)
	c, err := Dial(d.sock, "e2e", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	prog, err := c.CreateProgram(svcVaddSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("vadd")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1024
	a, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}

	av := make([]byte, n*4)
	bv := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(av[i*4:], math.Float32bits(float32(i)))
		binary.LittleEndian.PutUint32(bv[i*4:], math.Float32bits(float32(3*i)))
	}
	evA, err := a.WriteAsync(0, av)
	if err != nil {
		t.Fatal(err)
	}
	evB, err := b.WriteAsync(0, bv)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, a); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(1, b); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(2, out); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(3, n); err != nil {
		t.Fatal(err)
	}
	kev, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 64), evA, evB)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, n*4)
	rev, err := out.ReadAsync(0, got, kev)
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Wait(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := float32(4 * i)
		if v := math.Float32frombits(binary.LittleEndian.Uint32(got[i*4:])); v != want {
			t.Fatalf("c[%d] = %g, want %g", i, v, want)
		}
	}

	// Zero-copy: poke the input through the raw mapping — no WriteAsync,
	// nothing on the wire but the launch — and the daemon's kernel must
	// see the new values; the result is read out of the mapping too.
	ab := a.Bytes()
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(ab[i*4:], math.Float32bits(float32(2*i)))
	}
	if err := c.EnqueueKernel(k, opencl.ND1(n, 64)); err != nil {
		t.Fatal(err)
	}
	ob := out.Bytes()
	for i := 0; i < n; i++ {
		want := float32(5 * i)
		if v := math.Float32frombits(binary.LittleEndian.Uint32(ob[i*4:])); v != want {
			t.Fatalf("zero-copy c[%d] = %g, want %g", i, v, want)
		}
	}
	a.Release()
	b.Release()
	out.Release()
	c.Finish()
	if final := d.stop(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("daemon final state %q", final)
	}
}

// TestServiceGatedReadJoin drives the daemon's read join: a read's
// event completes when the server-side events it waits on do, or fails
// with the first of their failures. Each chain is a client write gated
// on a user event, a kernel behind the write and a read behind the
// kernel, and the gate resolves only after the read has been sent, so
// the join is already waiting when the outcome arrives. A failed gate
// must fail the read with the propagated error; a completed one must
// read back what the kernel wrote. Either way the daemon drains.
func TestServiceGatedReadJoin(t *testing.T) {
	d := startDaemon(t)
	c, err := Dial(d.sock, "join", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prog, err := c.CreateProgram(svcIncSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("inc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, n); err != nil {
		t.Fatal(err)
	}
	in, out, want := make([]byte, n*4), make([]byte, n*4), make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[i*4:], uint32(3*i))
		binary.LittleEndian.PutUint32(want[i*4:], uint32(3*i+1))
	}
	cause := fmt.Errorf("gate: %w", accelos.ErrDeviceLost)
	for _, fail := range []bool{true, false} {
		gate := opencl.NewUserEvent()
		wev, err := buf.WriteAsync(0, in, gate)
		if err != nil {
			t.Fatal(err)
		}
		kev, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 64), wev)
		if err != nil {
			t.Fatal(err)
		}
		rev, err := buf.ReadAsync(0, out, kev)
		if err != nil {
			t.Fatal(err)
		}
		if fail {
			gate.Fail(cause)
			err := rev.Wait()
			if !errors.Is(err, accelos.ErrDeviceLost) || !strings.Contains(err.Error(), "gate") {
				t.Fatalf("read behind a failed gate: %v, want the propagated %v", err, cause)
			}
			continue
		}
		gate.Complete()
		if err := rev.Wait(); err != nil {
			t.Fatalf("read behind a completed gate: %v", err)
		}
		if !bytes.Equal(out, want) {
			t.Fatal("read behind a completed gate returned the wrong bytes")
		}
	}
	buf.Release()
	c.Finish()
	if final := d.stop(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("daemon final state %q", final)
	}
}

// parboilNative caches the in-process reference results (RunNative)
// for every Parboil kernel, shared across the parity and churn tests.
var (
	parboilOnce sync.Once
	parboilRef  [][][]byte
	parboilErr  error
)

func parboilNatives(t *testing.T) [][][]byte {
	t.Helper()
	parboilOnce.Do(func() {
		kernels := parboil.Kernels()
		parboilRef = make([][][]byte, len(kernels))
		for i, k := range kernels {
			ref, err := k.RunNative()
			if err != nil {
				parboilErr = fmt.Errorf("%s: %w", k.FullName(), err)
				return
			}
			parboilRef[i] = ref
		}
	})
	if parboilErr != nil {
		t.Fatal(parboilErr)
	}
	return parboilRef
}

// runParboilViaService replays a kernel's verification launch through
// the service boundary — uploads behind events, kernel behind the
// uploads, read-backs behind the kernel — and compares every buffer
// byte for byte against the in-process native reference.
func runParboilViaService(c *Client, k *parboil.Kernel, native [][]byte) error {
	prog, err := c.CreateProgram(k.Source)
	if err != nil {
		return fmt.Errorf("%s: program: %w", k.FullName(), err)
	}
	rk, err := prog.CreateKernel(k.Name)
	if err != nil {
		return fmt.Errorf("%s: kernel: %w", k.FullName(), err)
	}
	spec := k.Setup()
	bufs := make([]*RemoteBuffer, len(spec.Args))
	defer func() {
		for _, b := range bufs {
			if b != nil {
				b.Release()
			}
		}
	}()
	var uploads []*opencl.Event
	for i, a := range spec.Args {
		if a.Scalar != nil {
			if err := rk.SetArgInt32(i, int32(*a.Scalar)); err != nil {
				return err
			}
			continue
		}
		host := parboil.EncodeArg(a)
		if host == nil {
			return fmt.Errorf("%s: argument %q has no value", k.FullName(), a.Name)
		}
		b, err := c.CreateBuffer(int64(len(host)))
		if err != nil {
			return fmt.Errorf("%s: buffer %q: %w", k.FullName(), a.Name, err)
		}
		bufs[i] = b
		ev, err := b.WriteAsync(0, host)
		if err != nil {
			return fmt.Errorf("%s: write %q: %w", k.FullName(), a.Name, err)
		}
		uploads = append(uploads, ev)
		if err := rk.SetArgBuffer(i, b); err != nil {
			return err
		}
	}
	nd := opencl.NDRange{Dims: spec.Dims, Global: spec.Global, Local: spec.Local}
	kev, err := c.EnqueueKernelAsync(rk, nd, uploads...)
	if err != nil {
		return fmt.Errorf("%s: enqueue: %w", k.FullName(), err)
	}
	outs := make([][]byte, len(spec.Args))
	var reads []*opencl.Event
	for i, b := range bufs {
		if b == nil {
			continue
		}
		outs[i] = make([]byte, b.Size())
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
		if outs[i] == nil {
			continue
		}
		if !bytes.Equal(native[i], outs[i]) {
			return fmt.Errorf("%s: buffer %d (%s) differs between native and service execution",
				k.FullName(), i, spec.Args[i].Name)
		}
	}
	return nil
}

// TestServiceParboilParity splits all 25 Parboil kernels across 8
// concurrent clients of one out-of-process daemon; every launch must
// be byte-identical to the in-process native run.
func TestServiceParboilParity(t *testing.T) {
	natives := parboilNatives(t)
	kernels := parboil.Kernels()
	d := startDaemon(t)

	const nClients = 8
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(d.sock, fmt.Sprintf("parity-%d", w), "")
			if err != nil {
				errs[w] = err
				return
			}
			defer c.Close()
			for i := w; i < len(kernels); i += nClients {
				if err := runParboilViaService(c, kernels[i], natives[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", w, err)
		}
	}
	if t.Failed() {
		return
	}
	if final := d.stop(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("daemon final state %q", final)
	}
}

// TestServiceChurn64Clients is the headline scale test: 66 concurrent
// clients against one daemon, a third of which start launches and then
// vanish mid-flight, while the rest verify Parboil launches byte for
// byte. The daemon must survive the churn and converge to zero held
// memory and zero active executions.
func TestServiceChurn64Clients(t *testing.T) {
	natives := parboilNatives(t)
	kernels := parboil.Kernels()
	d := startDaemon(t)

	const nClients = 66
	var wg sync.WaitGroup
	errs := make([]error, nClients)
	for w := 0; w < nClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(d.sock, fmt.Sprintf("churn-%d", w), "")
			if err != nil {
				errs[w] = err
				return
			}
			if w%3 == 2 {
				// A churny client: start work, then disconnect abruptly
				// with launches still in flight. No assertions — the
				// daemon's convergence check below is the assertion.
				abandonLaunch(c)
				return
			}
			defer c.Close()
			ki := w % len(kernels)
			if err := runParboilViaService(c, kernels[ki], natives[ki]); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Errorf("client %d: %v", w, err)
		}
	}
	if t.Failed() {
		return
	}
	if final := d.stop(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("daemon final state after churn %q", final)
	}
}

// abandonLaunch starts a long kernel and closes the connection without
// waiting for anything. Every error is ignored — the client is
// simulating a crash.
func abandonLaunch(c *Client) {
	defer c.Close()
	prog, err := c.CreateProgram(svcChurnSrc)
	if err != nil {
		return
	}
	k, err := prog.CreateKernel("churn")
	if err != nil {
		return
	}
	const n = 256 * 32
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		return
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		return
	}
	if err := k.SetArgInt32(1, n); err != nil {
		return
	}
	c.EnqueueKernelAsync(k, opencl.ND1(n, 32))
}

// TestServiceDisconnectMidLaunch catches a kernel actually running on
// the device when its client drops: the daemon must cancel the launch
// at a slice boundary, release the tenant's buffers, and leave the
// runtime completely clean.
func TestServiceDisconnectMidLaunch(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	rt.SetSliceRounds(1)
	srv, sock := startService(t, rt, Options{})

	c, err := Dial(sock, "dropper", "")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := c.CreateProgram(svcChurnSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("churn")
	if err != nil {
		t.Fatal(err)
	}
	const n = 512 * 32
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, n); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 32)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "kernel to launch", func() bool { return rt.Stats().KernelsLaunched >= 1 })
	c.Close()
	waitFor(t, "connection teardown", func() bool { return srv.NumConns() == 0 })
	waitFor(t, "launch cancellation", func() bool { return rt.ActiveExecutions() == 0 })
	waitFor(t, "buffer reclamation", func() bool { return rt.Memory().Used() == 0 })
}

// smallDeviceRuntime is a runtime over a 1 MB copy of the first
// platform's device, so a few buffers oversubscribe it.
func smallDeviceRuntime() *accelos.Runtime {
	dev := *opencl.GetPlatforms()[0].Dev
	dev.GlobalMemMB = 1
	return accelos.NewRuntime(&opencl.Platform{Dev: &dev})
}

// TestServiceOversizedBufferIsOutOfMemory: a buffer larger than the
// device fails at once, and the client sees opencl.ErrOutOfMemory
// (wire.CodeOutOfMemory), not an internal error.
func TestServiceOversizedBufferIsOutOfMemory(t *testing.T) {
	rt := smallDeviceRuntime()
	shmDir := t.TempDir()
	_, sock := startService(t, rt, Options{ShmDir: shmDir})
	c, err := Dial(sock, "oversized", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.CreateBuffer(2 << 20)
	if !errors.Is(err, opencl.ErrOutOfMemory) {
		t.Fatalf("oversized buffer: err = %v, want ErrOutOfMemory", err)
	}
	if code := wire.CodeOf(err); code != wire.CodeOutOfMemory {
		t.Fatalf("oversized buffer: code %v, want %v", code, wire.CodeOutOfMemory)
	}
	if got := rt.Memory().Paused(); got != 0 {
		t.Fatalf("an oversized allocation paused: Paused = %d", got)
	}
	if n := shmSegments(t, shmDir); n != 0 {
		t.Fatalf("a refused allocation left %d segments", n)
	}
}

// shmSegments counts the files in a daemon's -shm-dir.
func shmSegments(t *testing.T, dir string) int {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return len(ents)
}

// TestServiceDisconnectEndsPausedBuffer: a client whose buffer creation
// is paused behind a peer's memory disconnects; the daemon closes its
// App, which ends the pause. The paused request never had a segment, and
// the holder's goes with its buffer.
func TestServiceDisconnectEndsPausedBuffer(t *testing.T) {
	rt := smallDeviceRuntime()
	shmDir := t.TempDir()
	srv, sock := startService(t, rt, Options{ShmDir: shmDir})
	holder, err := Dial(sock, "holder", "")
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.CreateBuffer(800 << 10); err != nil {
		t.Fatal(err)
	}
	waiter, err := Dial(sock, "waiter", "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := waiter.CreateBuffer(500 << 10)
		done <- err
	}()
	waitFor(t, "the waiter's allocation to pause", func() bool { return rt.Memory().Paused() == 1 })
	if n := shmSegments(t, shmDir); n != 1 {
		t.Fatalf("%d segments while the waiter is paused, want the holder's only", n)
	}
	waiter.Close()
	if err := <-done; err == nil {
		t.Fatal("CreateBuffer on a closed client succeeded")
	}
	waitFor(t, "connection teardown", func() bool { return srv.NumConns() == 1 })
	waitFor(t, "the pause to end", func() bool { return rt.Memory().Paused() == 0 })
	if n := shmSegments(t, shmDir); n != 1 {
		t.Fatalf("%d segments after the waiter left, want the holder's only", n)
	}
	holder.Close()
	waitFor(t, "the holder's segment to go", func() bool { return shmSegments(t, shmDir) == 0 })
}

// TestServiceSlowClientEviction covers both deadline defenses: a
// connection that never completes the handshake, and an admitted
// client that floods requests while refusing to read its replies.
func TestServiceSlowClientEviction(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	reg := telemetry.NewRegistry()
	srv, sock := startService(t, rt, Options{
		HandshakeTimeout: 50 * time.Millisecond,
		WriteTimeout:     200 * time.Millisecond,
		Metrics:          reg,
	})

	// A mute connection must be evicted at the handshake deadline.
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	waitFor(t, "handshake eviction", func() bool { return srv.NumConns() == 0 })
	if _, err := nc.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept the mute connection open")
	}
	if got := reg.Counter("service_evictions_total", telemetry.L("tenant", ""),
		telemetry.L("reason", "handshake-timeout")).Value(); got != 1 {
		t.Errorf("handshake-timeout evictions = %d, want 1", got)
	}

	// A client that handshakes, then floods enqueues without ever
	// reading a reply: once the socket buffers fill, the daemon's write
	// deadline expires and the connection is evicted instead of wedging
	// the read loop forever.
	fl, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	hello := wire.Hello{Version: wire.Version, Tenant: "flooder"}
	if err := wire.WriteFrame(fl, wire.MsgHello, 0, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	if f, err := wire.ReadFrame(fl); err != nil || f.Type != wire.MsgWelcome {
		t.Fatalf("flooder handshake: %v %v", f, err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Every frame provokes an error reply the client never reads.
		m := wire.EnqueueCopy{Dir: wire.CopyWrite, Buffer: 999, N: 1}
		for req := uint64(1); ; req++ {
			if err := wire.WriteFrame(fl, wire.MsgEnqueueCopy, req, m.Encode()); err != nil {
				return
			}
		}
	}()
	waitFor(t, "flooder eviction", func() bool { return srv.NumConns() == 0 })
	fl.Close()
	<-done
	if got := reg.Counter("service_evictions_total", telemetry.L("tenant", "flooder"),
		telemetry.L("reason", "write-timeout")).Value(); got < 1 {
		t.Errorf("write-timeout evictions = %d, want >= 1", got)
	}
}

// TestServiceBuildFailedRoundTrip: a program that does not compile fails
// its own CreateProgram with accelos.ErrBuildFailed, typed across the
// process boundary and with the front end's position in the message;
// the connection, and the daemon behind it, go on building valid ones.
func TestServiceBuildFailedRoundTrip(t *testing.T) {
	d := startDaemon(t)
	c, err := Dial(d.sock, "malformed", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, src := range []string{
		"kernel void broken(global int* out) { out[0] = ; }",
		"kernel void open(global int* out) { out[0] = 1;",
		"\x00\xff not a program",
	} {
		_, err := c.CreateProgram(src)
		if !errors.Is(err, accelos.ErrBuildFailed) {
			t.Errorf("CreateProgram(%q) = %v, want ErrBuildFailed", src, err)
		}
	}
	if _, err := c.CreateProgram("kernel void broken(global int* out) { out[0] = ; }"); err == nil ||
		!strings.Contains(err.Error(), "1:") {
		t.Errorf("build failure lost the diagnostic's position: %v", err)
	}
	prog, err := c.CreateProgram(svcVaddSrc)
	if err != nil {
		t.Fatalf("valid program after failed builds: %v", err)
	}
	if _, err := prog.CreateKernel("vadd"); err != nil {
		t.Fatal(err)
	}
}

// TestServiceBadHandshake exercises every admission refusal: wrong
// token, unknown tenant, protocol version skew, and a first frame that
// is not a hello at all. Each must be answered with a typed code that
// the client surfaces as the matching sentinel.
func TestServiceBadHandshake(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	srv, sock := startService(t, rt, Options{
		Auth: map[string]string{"alice": "sesame"},
	})

	if _, err := Dial(sock, "alice", "wrong"); !errors.Is(err, wire.ErrUnknownTenant) {
		t.Errorf("wrong token: err = %v, want ErrUnknownTenant", err)
	}
	if _, err := Dial(sock, "mallory", "sesame"); !errors.Is(err, wire.ErrUnknownTenant) {
		t.Errorf("unknown tenant: err = %v, want ErrUnknownTenant", err)
	}
	c, err := Dial(sock, "alice", "sesame")
	if err != nil {
		t.Fatalf("good credentials rejected: %v", err)
	}
	c.Close()

	// Version skew, over a raw connection.
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{Version: wire.Version + 1, Tenant: "alice", Token: "sesame"}
	if err := wire.WriteFrame(nc, wire.MsgHello, 0, hello.Encode()); err != nil {
		t.Fatal(err)
	}
	f, err := wire.ReadFrame(nc)
	if err != nil {
		t.Fatal(err)
	}
	var w wire.Welcome
	if f.Type != wire.MsgWelcome || w.Decode(f.Body) != nil || w.Code != wire.CodeBadHandshake {
		t.Errorf("version skew answered with %v / %+v, want CodeBadHandshake", f.Type, w)
	}
	nc.Close()

	// A first frame that is not a hello.
	nc2, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(nc2, wire.MsgEnqueueKernel, 1, nil); err != nil {
		t.Fatal(err)
	}
	f, err = wire.ReadFrame(nc2)
	if err != nil {
		t.Fatal(err)
	}
	if f.Type != wire.MsgWelcome || w.Decode(f.Body) != nil || w.Code != wire.CodeBadHandshake {
		t.Errorf("non-hello first frame answered with %v / %+v, want CodeBadHandshake", f.Type, w)
	}
	nc2.Close()
	waitFor(t, "rejected connections to drain", func() bool { return srv.NumConns() == 0 })
}

// TestServiceBackpressure fills the per-connection in-flight window
// deterministically — a write transfer gated on a client-side user
// event holds its slot open — and checks that excess enqueues fail
// with the backpressure sentinel while the admitted ones complete once
// the gate opens.
func TestServiceBackpressure(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	_, sock := startService(t, rt, Options{MaxInflight: 4})

	c, err := Dial(sock, "pushy", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prog, err := c.CreateProgram(svcIncSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("inc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	gateBuf, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	const launches = 10
	bufs := make([]*RemoteBuffer, launches)
	for i := range bufs {
		if bufs[i], err = c.CreateBuffer(n * 4); err != nil {
			t.Fatal(err)
		}
	}

	// The gated write occupies slot 1 of 4 until the gate completes.
	gate := opencl.NewUserEvent()
	wev, err := gateBuf.WriteAsync(0, make([]byte, n*4), gate)
	if err != nil {
		t.Fatal(err)
	}
	evs := make([]*opencl.Event, launches)
	for i := range evs {
		if err := k.SetArgBuffer(0, bufs[i]); err != nil {
			t.Fatal(err)
		}
		if err := k.SetArgInt32(1, n); err != nil {
			t.Fatal(err)
		}
		if evs[i], err = c.EnqueueKernelAsync(k, opencl.ND1(n, 32), wev); err != nil {
			t.Fatal(err)
		}
	}
	// The three enqueues that fit the window are parked behind the
	// gate; everything after must already be rejected.
	rejected := 0
	for i := 3; i < launches; i++ {
		if err := evs[i].Wait(); !errors.Is(err, wire.ErrBackpressure) {
			t.Errorf("launch %d: err = %v, want ErrBackpressure", i, err)
		} else {
			rejected++
		}
	}
	if rejected != launches-3 {
		t.Fatalf("rejected %d launches, want %d", rejected, launches-3)
	}
	gate.Complete()
	if err := wev.Wait(); err != nil {
		t.Fatalf("gated write: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := evs[i].Wait(); err != nil {
			t.Errorf("admitted launch %d failed: %v", i, err)
		}
	}
}

// TestServiceRateLimit puts one tenant behind a near-zero token
// bucket: the first enqueue spends the burst, the second must be
// refused with the rate-limit sentinel.
func TestServiceRateLimit(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	_, sock := startService(t, rt, Options{RatePerSec: 0.001, Burst: 1})

	c, err := Dial(sock, "throttled", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	prog, err := c.CreateProgram(svcIncSrc)
	if err != nil {
		t.Fatal(err)
	}
	k, err := prog.CreateKernel("inc")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, n); err != nil {
		t.Fatal(err)
	}
	ev1, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev1.Wait(); err != nil {
		t.Fatalf("first launch (inside burst): %v", err)
	}
	ev2, err := c.EnqueueKernelAsync(k, opencl.ND1(n, 32))
	if err != nil {
		t.Fatal(err)
	}
	if err := ev2.Wait(); !errors.Is(err, wire.ErrRateLimited) {
		t.Fatalf("second launch: err = %v, want ErrRateLimited", err)
	}
}

// TestServiceAdmissionRoundTrip drives the bounded runtime's run queue
// (acceld -max-resident) through the wire: with one resident slot, the
// second and third launches wait in the device's run queue behind a
// running one, and the third completes client-side with verified output.
func TestServiceAdmissionRoundTrip(t *testing.T) {
	rt := accelos.NewClusterRuntime(opencl.GetPlatforms()[:1], cluster.LeastLoaded(), 1)
	rt.SetSliceRounds(1)
	_, sock := startService(t, rt, Options{})

	c, err := Dial(sock, "greedy", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	progL, err := c.CreateProgram(svcHoldSrc)
	if err != nil {
		t.Fatal(err)
	}
	kL, err := progL.CreateKernel("hold")
	if err != nil {
		t.Fatal(err)
	}
	progS, err := c.CreateProgram(svcPeerSrc)
	if err != nil {
		t.Fatal(err)
	}
	const longN, shortN = 256 * 32, 32 * 32
	bufL, err := c.CreateBuffer((longN + 1) * 4) // the grid, then the hold's release word
	if err != nil {
		t.Fatal(err)
	}
	if err := kL.SetArgBuffer(0, bufL); err != nil {
		t.Fatal(err)
	}
	if err := kL.SetArgInt32(1, longN); err != nil {
		t.Fatal(err)
	}
	// The second and third launches run the same kernel into their own
	// buffers, so the third's output is its own.
	var kS [2]*RemoteKernel
	var bufS [2]*RemoteBuffer
	for i := range kS {
		if kS[i], err = progS.CreateKernel("peer"); err != nil {
			t.Fatal(err)
		}
		if bufS[i], err = c.CreateBuffer(shortN * 4); err != nil {
			t.Fatal(err)
		}
		if err := kS[i].SetArgBuffer(0, bufS[i]); err != nil {
			t.Fatal(err)
		}
		if err := kS[i].SetArgInt32(1, shortN); err != nil {
			t.Fatal(err)
		}
	}

	// The hold kernel keeps the one resident slot until the test writes
	// its release word, so both later launches must queue behind it.
	base := rt.Stats()
	evL, err := c.EnqueueKernelAsync(kL, opencl.ND1(longN, 32))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "long kernel to hold the device", func() bool {
		return rt.Stats().KernelsLaunched > base.KernelsLaunched
	})
	evQ, err := c.EnqueueKernelAsync(kS[0], opencl.ND1(shortN, 32))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second kernel to queue", func() bool {
		return rt.Stats().QueuedAdmissions > base.QueuedAdmissions
	})
	evR, err := c.EnqueueKernelAsync(kS[1], opencl.ND1(shortN, 32))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "third kernel to queue", func() bool {
		return rt.Stats().QueuedAdmissions-base.QueuedAdmissions == 2
	})
	binary.LittleEndian.PutUint32(bufL.Bytes()[longN*4:], 1)
	for _, ev := range []*opencl.Event{evL, evQ, evR} {
		if err := ev.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := rt.Stats().QueuedAdmissions - base.QueuedAdmissions; got != 2 {
		t.Fatalf("queued admissions = %d, want 2", got)
	}
	out := make([]byte, shortN*4)
	if err := bufS[1].Read(0, out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shortN; i++ {
		if got, want := int32(binary.LittleEndian.Uint32(out[i*4:])), int32(2*(i%32)); got != want {
			t.Fatalf("third launch out[%d] = %d, want %d", i, got, want)
		}
	}
}

// runIncChain runs one complete chain — upload, blocking kernel,
// read-back, release — and verifies the bytes. It is the unit of
// replay for the restart test: every input a chain needs lives
// host-side, so it can be rebuilt from scratch against a fresh daemon
// rather than resumed (re-enqueueing against a restarted daemon is not
// idempotent; see Retryable).
func runIncChain(c *Client) error {
	prog, err := c.CreateProgram(svcIncSrc)
	if err != nil {
		return err
	}
	k, err := prog.CreateKernel("inc")
	if err != nil {
		return err
	}
	const n = 512
	buf, err := c.CreateBuffer(n * 4)
	if err != nil {
		return err
	}
	defer buf.Release()
	if err := buf.Write(0, make([]byte, n*4)); err != nil {
		return err
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		return err
	}
	if err := k.SetArgInt32(1, n); err != nil {
		return err
	}
	if err := c.EnqueueKernel(k, opencl.ND1(n, 64)); err != nil {
		return err
	}
	out := make([]byte, n*4)
	if err := buf.Read(0, out); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if v := binary.LittleEndian.Uint32(out[i*4:]); v != 1 {
			return fmt.Errorf("out[%d] = %d, want 1", i, v)
		}
	}
	return nil
}

// TestServiceDaemonRestart is the crash-recovery satellite: a daemon is
// SIGTERM'd between two chains and restarted on the same socket. The
// orphaned client must fail with typed errors (never hang), and a
// redial with Retry must ride out the restart window and run the second
// chain byte-identically against the replacement daemon.
func TestServiceDaemonRestart(t *testing.T) {
	dir, err := os.MkdirTemp("", "svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	sock := filepath.Join(dir, "d.sock")
	reg := telemetry.NewRegistry()
	opts := DialOptions{
		Retry:      200,
		Backoff:    2 * time.Millisecond,
		MaxBackoff: 50 * time.Millisecond,
		Seed:       7,
		Metrics:    reg,
	}

	d1 := startDaemonAt(t, sock)
	c1, err := DialWithOptions(sock, "phoenix", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := runIncChain(c1); err != nil {
		t.Fatalf("first chain: %v", err)
	}

	// Kill the daemon out from under the client, the way a process
	// manager would.
	if final := d1.sigterm(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("daemon final state %q", final)
	}

	// The orphaned client must answer with the typed connection-death
	// error — classified retryable so callers know a redial can help —
	// and must not hang.
	if _, err := c1.CreateBuffer(64); err == nil {
		t.Fatal("call against dead daemon succeeded")
	} else {
		if !errors.Is(err, ErrClientClosed) {
			t.Fatalf("orphaned call: err = %v, want ErrClientClosed", err)
		}
		if !Retryable(err) {
			t.Fatalf("orphaned call error %v not classified retryable", err)
		}
	}
	c1.Close()

	// Redial while the daemon is still down: the retry loop must absorb
	// the dead-socket window and connect once the replacement is up.
	type dialRes struct {
		c   *Client
		err error
	}
	dialed := make(chan dialRes, 1)
	go func() {
		c, err := DialWithOptions(sock, "phoenix", "", opts)
		dialed <- dialRes{c, err}
	}()
	time.Sleep(30 * time.Millisecond) // guarantee a few failed attempts
	d2 := startDaemonAt(t, sock)
	res := <-dialed
	if res.err != nil {
		t.Fatalf("redial across restart: %v", res.err)
	}
	if err := runIncChain(res.c); err != nil {
		t.Fatalf("second chain after restart: %v", err)
	}
	res.c.Close()
	if got := reg.Counter("client_retries_total", telemetry.L("tenant", "phoenix")).Value(); got == 0 {
		t.Error("client_retries_total = 0, want > 0 across the restart window")
	}
	if final := d2.stop(t); final != "FINAL mem=0 active=0" {
		t.Fatalf("replacement daemon final state %q", final)
	}
}
