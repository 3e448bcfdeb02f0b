// Multitenant: several applications share one accelerator through the
// accelOS runtime — the data-center scenario that motivates the paper.
//
// Each tenant connects over ProxyCL, builds its own program, allocates
// buffers and iterates its kernel. The runtime JITs each program once,
// plans every launch against the currently active set (shares grow as
// tenants leave), and the memory manager pauses tenants whose
// allocations would oversubscribe device memory until peers release
// theirs. A pause that no release can end fails with
// opencl.ErrOutOfMemory (OpenCL's CL_MEM_OBJECT_ALLOCATION_FAILURE);
// the tenant then releases what it holds and tries again.
package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"

	"repro/internal/accelos"
	"repro/internal/metrics"
	"repro/internal/opencl"
	"repro/internal/telemetry"
)

const (
	tenants = 6
	n       = 2048
	iters   = 4
)

var sources = []string{
	`kernel void scale(global int* data, int n) {
		int i = (int)get_global_id(0);
		if (i < n) data[i] = data[i] * 3;
	}`,
	`kernel void offset(global int* data, int n) {
		int i = (int)get_global_id(0);
		if (i < n) data[i] = data[i] + 7;
	}`,
	`kernel void squareish(global int* data, int n) {
		int i = (int)get_global_id(0);
		if (i < n) data[i] = data[i] * data[i] % 65537;
	}`,
}

var kernelNames = []string{"scale", "offset", "squareish"}

// allocate creates the tenant's buffers. When the memory manager fails
// an allocation with opencl.ErrOutOfMemory, the tenant releases the
// buffers it holds and starts over, as an OpenCL application does on
// CL_MEM_OBJECT_ALLOCATION_FAILURE. It reports whether it had to retry.
func allocate(app *accelos.App, sizes ...int64) ([]*accelos.BufferHandle, bool) {
	retried := false
	for {
		var bufs []*accelos.BufferHandle
		var err error
		for _, size := range sizes {
			var b *accelos.BufferHandle
			if b, err = app.CreateBuffer(size); err != nil {
				break
			}
			bufs = append(bufs, b)
		}
		if err == nil {
			return bufs, retried
		}
		if !errors.Is(err, opencl.ErrOutOfMemory) {
			log.Fatalf("%s: %v", app.Name, err)
		}
		for _, b := range bufs {
			b.Release()
		}
		retried = true
	}
}

func tenant(rt *accelos.Runtime, id int, wg *sync.WaitGroup, report chan<- string, retries *atomic.Int32) {
	defer wg.Done()
	app := rt.Connect(fmt.Sprintf("tenant-%d", id))
	defer app.Close()

	src := sources[id%len(sources)]
	prog, err := app.CreateProgram(src)
	if err != nil {
		log.Fatalf("tenant %d: %v", id, err)
	}
	// Each tenant allocates a sizeable buffer; combined they exceed
	// device memory, so some tenants get paused until others finish.
	big := rt.Ctx.GlobalMemBytes() / (tenants/2 + 1)
	bufs, retried := allocate(app, big, n*4)
	if retried {
		retries.Add(1)
	}
	for _, b := range bufs {
		defer b.Release()
	}
	data := bufs[1]
	host := make([]byte, n*4)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(host[i*4:], uint32(i+id))
	}
	// Event-based submission: the write, the iteration chain and the
	// read-back are enqueued up front with wait-list edges; the tenant
	// blocks only on the final event while the daemon sees its whole
	// pending window.
	wev, err := data.WriteAsync(0, host)
	if err != nil {
		log.Fatal(err)
	}

	k, err := prog.CreateKernel(kernelNames[id%len(sources)])
	if err != nil {
		log.Fatalf("tenant %d: %v", id, err)
	}
	_ = k.SetArgBuffer(0, data)
	_ = k.SetArgInt32(1, n)
	nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
	prev := wev
	for it := 0; it < iters; it++ {
		kev, err := app.EnqueueKernelAsync(k, nd, prev)
		if err != nil {
			log.Fatalf("tenant %d: launch: %v", id, err)
		}
		prev = kev
	}
	rev, err := data.ReadAsync(0, host, prev)
	if err != nil {
		log.Fatalf("tenant %d: read: %v", id, err)
	}
	if err := rev.Wait(); err != nil {
		log.Fatalf("tenant %d: pipeline: %v", id, err)
	}
	first := int32(binary.LittleEndian.Uint32(host[4:]))
	report <- fmt.Sprintf("tenant %d (%s): %d iterations done, data[1]=%d",
		id, kernelNames[id%len(sources)], iters, first)
}

func main() {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	defer rt.Shutdown()
	// Live telemetry: every completed kernel contributes its measured
	// shared (enqueue→retire) and alone (summed slice) times, so the run
	// ends with the paper's §7.4 scorecard computed from real span data.
	reg := telemetry.NewRegistry()
	score := metrics.NewLiveScorecard()
	rt.SetTelemetry(nil, reg, score)

	dev := rt.Pool().Devices()[0]
	fmt.Printf("starting %d tenants on %s (device memory %d MB)\n\n",
		tenants, dev.Name, dev.GlobalMemMB)

	report := make(chan string, tenants)
	var wg sync.WaitGroup
	var retries atomic.Int32
	for id := 0; id < tenants; id++ {
		wg.Add(1)
		go tenant(rt, id, &wg, report, &retries)
	}
	wg.Wait()
	close(report)
	for line := range report {
		fmt.Println(" ", line)
	}

	st := rt.Stats()
	fmt.Printf("\nruntime: %d programs JITed, %d kernel launches scheduled\n",
		st.ProgramsJITed, st.KernelsLaunched)
	fmt.Printf("memory manager: %d tenant pauses while the device was oversubscribed\n",
		rt.Memory().TotalPauses())
	fmt.Printf("  %d tenants released their buffers and retried after ErrOutOfMemory\n",
		retries.Load())

	// The sliced engine re-plans every launch on each arrival and
	// completion; the live scorecard below shows what the contention cost
	// each tenant, in the paper's §7.4 multi-tenancy metrics.
	fmt.Printf("scheduler: %d dynamic re-plans\n", st.Replans)

	fmt.Println("\nlive §7.4 scorecard (shared = enqueue→retire, alone = summed slice time):")
	fmt.Println(score.Compute().String())
}
