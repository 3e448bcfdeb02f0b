package accelos

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// spinSrc is a do-while loop so the whole body — two bins, the compare
// and the back-edge — lands in one block and both hot superinstructions
// (bin+bin, bin+cmp+jump) are eligible at tier 1.
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

// TestRuntimeTieredTelemetry drives the full tiered lifecycle through
// the runtime: EnableTiering makes the JIT defer optimization, the
// first launch runs the tier-0 program, the background controller
// promotes the now-hot kernel, and a second launch runs the swapped
// tier-1 program — with every step visible in the metrics registry
// (per-tier kernel counts, promotion counter, compile-time histogram,
// and program-cache hit/miss counters labeled by tier).
func TestRuntimeTieredTelemetry(t *testing.T) {
	rt := NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	tc := rt.EnableTiering(interp.TierOptions{HotInstrs: 1, SampleEvery: 1})
	defer tc.Close()
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)
	defer interp.SetCacheMetrics(nil)

	app := rt.Connect("tenant-t")
	defer app.Close()
	const n = 64
	k, buf := setupIntKernel(t, app, spinSrc, "spin", n)
	defer buf.Release()
	runSpin(t, app, k, buf, n)

	// HotInstrs 1 makes the single launch hot; the background worker
	// recompiles at tier 1 and hot-swaps.
	deadline := time.Now().Add(10 * time.Second)
	for tc.Promotions() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("tier controller never promoted the hot kernel")
		}
		time.Sleep(time.Millisecond)
	}

	runSpin(t, app, k, buf, n)

	var text bytes.Buffer
	if err := reg.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		// One execution per tier: first launch on the cheap compile,
		// second on the promoted program.
		`kernels_total{dev="0",status="ok",tenant="tenant-t",tier="0"} 1`,
		`kernels_total{dev="0",status="ok",tenant="tenant-t",tier="1"} 1`,
		// Exactly one promotion of this kernel, timed.
		`tier_promotions_total{kernel="spin",tier="1"} 1`,
		`tier_compile_ns_count{tier="1"} 1`,
		// The first resolution cold-compiled tier 0; the post-swap
		// resolution hit the cached tier-1 program.
		`program_cache_misses_total{tier="0"} 1`,
		`program_cache_hits_total{tier="1"}`,
	} {
		if !strings.Contains(text.String(), wantLine) {
			t.Errorf("metrics snapshot missing %q:\n%s", wantLine, text.String())
		}
	}
}
