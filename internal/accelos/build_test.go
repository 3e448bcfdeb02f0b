package accelos

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// offsetFillSrc returns a one-kernel program writing i + c to out[i]; a
// distinct c is a distinct source, and so a distinct build.
func offsetFillSrc(c int) string {
	return fmt.Sprintf(`
kernel void fill(global int* out, int n)
{
    int i = (int)get_global_id(0);
    if (i < n) out[i] = i + %d;
}
`, c)
}

// slowSrc generates a program of n kernels, about half a millisecond of
// compile each (four times that under the race detector).
func slowSrc(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, `
kernel void slow%d(global int* out, int n)
{
    int i = (int)get_global_id(0);
    int acc = %d;
    for (int j = 0; j < n; j++) {
        if ((j & 3) == 1) acc += j * %d; else acc ^= j + i;
    }
    if (i < n) out[i] = acc;
}
`, i, i, i+1)
	}
	return b.String()
}

// runFill launches prog's fill kernel over n items on app and returns
// the output bytes.
func runFill(t *testing.T, app *App, prog *Program, n int64) []byte {
	t.Helper()
	buf, err := app.CreateBuffer(n * 4)
	if err != nil {
		t.Fatal(err)
	}
	defer buf.Release()
	k, err := prog.CreateKernel("fill")
	if err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgBuffer(0, buf); err != nil {
		t.Fatal(err)
	}
	if err := k.SetArgInt32(1, int32(n)); err != nil {
		t.Fatal(err)
	}
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{32, 1, 1}}
	if err := app.EnqueueKernel(k, nd); err != nil {
		t.Fatalf("%s: enqueue: %v", app.Name, err)
	}
	out := make([]byte, n*4)
	if err := buf.Read(0, out); err != nil {
		t.Fatalf("%s: read: %v", app.Name, err)
	}
	return out
}

func wantFill(n int64, c int) []byte {
	want := make([]byte, n*4)
	for i := int64(0); i < n; i++ {
		binary.LittleEndian.PutUint32(want[i*4:], uint32(int32(i)+int32(c)))
	}
	return want
}

// cachedBuilds reports the build cache's size and whether it holds src.
func cachedBuilds(rt *Runtime, src string) (int, bool) {
	rt.buildMu.Lock()
	defer rt.buildMu.Unlock()
	_, ok := rt.builds[sha256.Sum256([]byte(src))]
	return len(rt.builds), ok
}

// holdBuildSlots takes every compile slot, so a build claimed in the
// meantime stays in flight until the returned release runs.
func holdBuildSlots(rt *Runtime) (release func()) {
	for i := 0; i < cap(rt.buildSlots); i++ {
		rt.buildSlots <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(rt.buildSlots); i++ {
			<-rt.buildSlots
		}
	}
}

func waitCounter(t *testing.T, reg *telemetry.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for reg.CounterTotal(name) < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, never reached %d", name, reg.CounterTotal(name), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestBuildSharedAcrossApps: eight applications create one source at
// once. It compiles once, every application launches the kernel and
// reads the same bytes, and one application closing leaves the others'
// programs working — they share modules, not ownership.
func TestBuildSharedAcrossApps(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	const apps, n = 8, 256
	src := offsetFillSrc(7)
	as := make([]*App, apps)
	progs := make([]*Program, apps)
	var wg sync.WaitGroup
	for i := range as {
		as[i] = rt.Connect(fmt.Sprintf("tenant-%d", i))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := as[i].CreateProgram(src)
			if err != nil {
				t.Errorf("app %d: CreateProgram: %v", i, err)
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if got := rt.Stats().ProgramsJITed; got != 1 {
		t.Errorf("ProgramsJITed = %d, want 1: one source, one compile", got)
	}
	if hits, misses := reg.CounterTotal("jit_cache_hits_total"), reg.CounterTotal("jit_cache_misses_total"); hits != apps-1 || misses != 1 {
		t.Errorf("jit cache hits %d misses %d, want %d and 1", hits, misses, apps-1)
	}
	if reg.Histogram("jit_compile_ns").Count() != 1 {
		t.Errorf("jit_compile_ns has %d observations, want 1", reg.Histogram("jit_compile_ns").Count())
	}
	for i, p := range progs {
		if p.trans != progs[0].trans || p.orig != progs[0].orig {
			t.Errorf("app %d holds its own modules; want the shared build's", i)
		}
	}

	want := wantFill(n, 7)
	outs := make([][]byte, apps)
	for i := range as {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i] = runFill(t, as[i], progs[i], n)
		}(i)
	}
	wg.Wait()
	for i, out := range outs {
		if !bytes.Equal(out, want) {
			t.Errorf("app %d read different bytes", i)
		}
	}

	as[0].Close()
	for i := 1; i < apps; i++ {
		if out := runFill(t, as[i], progs[i], n); !bytes.Equal(out, want) {
			t.Errorf("app %d read different bytes after app 0 closed", i)
		}
		as[i].Close()
	}
}

// TestBuildDoesNotBlockOtherTenants: while one application's program is
// compiling, another application allocates buffers and runs a
// write → kernel → read chain to completion. A compile that held up the
// runtime's other entry points would make CreateProgram return first.
func TestBuildDoesNotBlockOtherTenants(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	builder := rt.Connect("builder")
	defer builder.Close()
	other := rt.Connect("other")
	defer other.Close()
	// Built before the slow compile starts: with one compile slot it
	// would otherwise queue behind it.
	prog, err := other.CreateProgram(vaddSrc)
	if err != nil {
		t.Fatal(err)
	}

	built := make(chan error, 1) // one send: the CreateProgram's outcome
	start := time.Now()
	go func() {
		_, err := builder.CreateProgram(slowSrc(400))
		built <- err
	}()
	// The miss is counted when the builder claims the source, just
	// before it compiles.
	waitCounter(t, reg, "jit_cache_misses_total", 1)

	const n, buffers = 64, 10
	bufs := make([]*BufferHandle, buffers)
	for i := range bufs {
		if bufs[i], err = other.CreateBuffer(n * 4); err != nil {
			t.Fatalf("CreateBuffer %d: %v", i, err)
		}
	}
	in := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(in[i*4:], float32ToBits(float32(i)))
	}
	k, _ := prog.CreateKernel("vadd")
	_ = k.SetArgBuffer(0, bufs[0])
	_ = k.SetArgBuffer(1, bufs[1])
	_ = k.SetArgBuffer(2, bufs[2])
	_ = k.SetArgInt32(3, n)
	wev, err := bufs[0].WriteAsync(0, in)
	if err != nil {
		t.Fatal(err)
	}
	kev, err := other.EnqueueKernelAsync(k, opencl.ND1(n, 32), wev)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, n*4)
	rev, err := bufs[2].ReadAsync(0, out, kev)
	if err != nil {
		t.Fatal(err)
	}
	if err := rev.Wait(); err != nil {
		t.Fatalf("chain: %v", err)
	}
	select {
	case err := <-built:
		t.Fatalf("CreateProgram returned (%v, after %v) before another app's %d buffers and chain had: the compile did not overlap them",
			err, time.Since(start), buffers)
	default:
	}
	if !bytes.Equal(out, in) {
		t.Error("chain read back different bytes than it wrote (b is zero, so c must equal a)")
	}
	if err := <-built; err != nil {
		t.Fatalf("CreateProgram: %v", err)
	}
	t.Logf("%d buffers and a chain served inside a %v compile", buffers, time.Since(start))
}

// TestBuildCacheBounded: seventy distinct sources leave at most
// maxBuilds entries, and a program whose entry was evicted still
// launches — it holds its modules — while creating its source again
// compiles again.
func TestBuildCacheBounded(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	app := rt.Connect("many")
	defer app.Close()

	const sources, n = 70, 64
	progs := make([]*Program, sources)
	for c := range progs {
		p, err := app.CreateProgram(offsetFillSrc(c))
		if err != nil {
			t.Fatalf("source %d: %v", c, err)
		}
		progs[c] = p
		if size, _ := cachedBuilds(rt, ""); size > maxBuilds {
			t.Fatalf("build cache holds %d entries after %d sources, bound is %d", size, c+1, maxBuilds)
		}
	}
	if got := rt.Stats().ProgramsJITed; got != sources {
		t.Errorf("ProgramsJITed = %d, want %d", got, sources)
	}
	evicted := -1
	for c := range progs {
		if _, ok := cachedBuilds(rt, offsetFillSrc(c)); !ok {
			evicted = c
			break
		}
	}
	if evicted < 0 {
		t.Fatalf("no source was evicted: %d sources in a cache of %d", sources, maxBuilds)
	}
	if out := runFill(t, app, progs[evicted], n); !bytes.Equal(out, wantFill(n, evicted)) {
		t.Errorf("program %d, evicted from the build cache, computed wrong bytes", evicted)
	}
	again, err := app.CreateProgram(offsetFillSrc(evicted))
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Stats().ProgramsJITed; got != sources+1 {
		t.Errorf("ProgramsJITed = %d after re-creating an evicted source, want %d", got, sources+1)
	}
	if out := runFill(t, app, again, n); !bytes.Equal(out, wantFill(n, evicted)) {
		t.Errorf("program %d, rebuilt after eviction, computed wrong bytes", evicted)
	}
}

// TestBuildFailureNotCached: creators that wait on a build that fails
// all get that build's error, typed; the failure is not cached; and the
// runtime goes on to build valid sources.
func TestBuildFailureNotCached(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	const creators = 6
	bad := offsetFillSrc(1) + "kernel void broken(global int* out) { out[0] = ; }\n"
	// With every compile slot taken the first creator's build stays in
	// flight until all the others are waiting on it.
	release := holdBuildSlots(rt)
	errs := make([]error, creators)
	var wg sync.WaitGroup
	for i := range errs {
		app := rt.Connect(fmt.Sprintf("tenant-%d", i))
		defer app.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = app.CreateProgram(bad)
		}(i)
	}
	waitCounter(t, reg, "jit_cache_hits_total", creators-1)
	release()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrBuildFailed) {
			t.Errorf("creator %d: err = %v, want ErrBuildFailed", i, err)
		}
		if err != errs[0] {
			t.Errorf("creator %d got its own error %v; want the one build's %v", i, err, errs[0])
		}
	}
	if errs[0] != nil && !strings.Contains(errs[0].Error(), "clc: ") {
		t.Errorf("build error lost the front end's diagnostic: %v", errs[0])
	}
	if size, ok := cachedBuilds(rt, bad); ok || size != 0 {
		t.Errorf("failed build still cached (%d entries)", size)
	}
	if got := rt.Stats().ProgramsJITed; got != 0 {
		t.Errorf("ProgramsJITed = %d after a failed build, want 0", got)
	}

	// Not cached: the same source fails afresh, as a second miss.
	app := rt.Connect("after")
	defer app.Close()
	if _, err := app.CreateProgram(bad); !errors.Is(err, ErrBuildFailed) {
		t.Errorf("second creation: err = %v, want ErrBuildFailed", err)
	}
	if misses := reg.CounterTotal("jit_cache_misses_total"); misses != 2 {
		t.Errorf("jit_cache_misses_total = %d, want 2", misses)
	}
	prog, err := app.CreateProgram(offsetFillSrc(1))
	if err != nil {
		t.Fatalf("valid source after failed builds: %v", err)
	}
	if out := runFill(t, app, prog, 64); !bytes.Equal(out, wantFill(64, 1)) {
		t.Error("valid source after failed builds computed wrong bytes")
	}
}

// TestBuildPanicContained: a panic inside the compiler ends as that
// build's typed error. Its waiter wakes, the entry leaves the cache, the
// compile slot is returned and the panic is counted against the tenant.
func TestBuildPanicContained(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	src := "no front end sees this"
	key := buildKey(sha256.Sum256([]byte(src)))
	b := &build{done: make(chan struct{})}
	rt.buildMu.Lock()
	rt.builds[key] = b
	rt.buildMu.Unlock()

	waiter := make(chan *build, 1) // one send: what the waiter woke to
	app := rt.Connect("waiter")
	defer app.Close()
	go func() { waiter <- rt.buildProgram(app.Name, src) }()
	waitCounter(t, reg, "jit_cache_hits_total", 1)

	rt.runBuild(b, key, "hostile", func() error { panic("clc: unknown expression") })

	if got := <-waiter; got != b || !errors.Is(got.err, ErrBuildFailed) {
		t.Errorf("waiter woke to %+v, want the panicked build with ErrBuildFailed", got)
	}
	if !strings.Contains(b.err.Error(), "compiler panic: clc: unknown expression") {
		t.Errorf("error does not carry the panic value: %v", b.err)
	}
	if size, ok := cachedBuilds(rt, src); ok || size != 0 {
		t.Errorf("panicked build still cached (%d entries)", size)
	}
	if len(rt.buildSlots) != 0 {
		t.Errorf("%d compile slots still held after the panic", len(rt.buildSlots))
	}
	if got := reg.Counter("jit_panics_total", telemetry.L("tenant", "hostile")).Value(); got != 1 {
		t.Errorf(`jit_panics_total{tenant="hostile"} = %d, want 1`, got)
	}
}

// spinSrc is a small counted loop; runSpin checks its every output word.
const spinSrc = `
kernel void spin(global int* out, int n)
{
    int i = 0;
    int acc = 0;
    do {
        acc += i & 7;
        i = i + 1;
    } while (i < n);
    out[get_global_id(0)] = acc;
}
`

// runSpin launches spinSrc's kernel over n items on app, blocking, and
// checks every output word.
func runSpin(t *testing.T, app *App, k *KernelHandle, buf *BufferHandle, n int) {
	t.Helper()
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{int64(n), 1, 1}, Local: [3]int64{32, 1, 1}}
	want := int32(0) // sum of i&7 for i in [0, n)
	for i := int32(0); i < int32(n); i++ {
		want += i & 7
	}
	if err := app.EnqueueKernel(k, nd); err != nil {
		t.Fatalf("%s: enqueue: %v", app.Name, err)
	}
	out := make([]byte, n*4)
	if err := buf.Read(0, out); err != nil {
		t.Fatalf("%s: read: %v", app.Name, err)
	}
	app.Finish()
	for i := 0; i < n; i++ {
		if got := int32(binary.LittleEndian.Uint32(out[i*4:])); got != want {
			t.Fatalf("%s: out[%d] = %d, want %d", app.Name, i, got, want)
		}
	}
}

// TestBuildCompilesOnce: the JIT lowers a program for the VM when it is
// created. Two tenants of one source share its module and its one
// compiled program — the program cache misses once, at the build — and
// every launch of either tenant finds that program in the cache.
func TestBuildCompilesOnce(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	const n = 64
	first := rt.Connect("tenant-a")
	defer first.Close()
	second := rt.Connect("tenant-b")
	defer second.Close()
	kA, bufA := setupIntKernel(t, first, spinSrc, "spin", n)
	defer bufA.Release()
	kB, bufB := setupIntKernel(t, second, spinSrc, "spin", n)
	defer bufB.Release()
	if kA.prog.trans != kB.prog.trans {
		t.Fatal("two tenants of one source hold different modules")
	}
	if got := rt.Stats().ProgramsJITed; got != 1 {
		t.Errorf("ProgramsJITed = %d, want 1", got)
	}
	if misses, hits := reg.CounterTotal("program_cache_misses_total"), reg.CounterTotal("program_cache_hits_total"); misses != 1 || hits != 0 {
		t.Errorf("before any launch: program cache misses %d hits %d, want 1 and 0", misses, hits)
	}

	runSpin(t, first, kA, bufA, n)
	runSpin(t, second, kB, bufB, n)

	if misses, hits := reg.CounterTotal("program_cache_misses_total"), reg.CounterTotal("program_cache_hits_total"); misses != 1 || hits < 2 {
		t.Errorf("after one launch per tenant: program cache misses %d hits %d, want 1 and at least 2", misses, hits)
	}
	// A kernel is counted after its event reports, so wait for both.
	waitCounter(t, reg, "kernels_total", 2)
	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		`kernels_total{dev="0",status="ok",tenant="tenant-a"} 1`,
		`kernels_total{dev="0",status="ok",tenant="tenant-b"} 1`,
	} {
		if !strings.Contains(text.String(), wantLine) {
			t.Errorf("metrics snapshot missing %q:\n%s", wantLine, text.String())
		}
	}
}
