package interp

import (
	"runtime"
	"sync"
)

// WorkerPool is a persistent set of goroutines that execute work-group
// batches for VM launches. Before it existed, every Launch spawned up to
// GOMAXPROCS fresh goroutines; for the sliced execution engine — whose
// slices can be a handful of small work-groups — the spawn cost rivaled
// the work. A pool is attached to a Machine (opencl.MachinePool owns
// one per platform and seeds it on Acquire); machines without one share
// a lazily started process-wide default.
//
// Tasks are self-sufficient group-claim loops (they pull group indices
// from the launch's atomic cursor until it runs dry), so the pool never
// needs to guarantee placement: TrySubmit hands a task to an idle worker
// if there is one, and the launching goroutine always runs the claim
// loop itself too. A fully busy pool therefore degrades to inline
// execution instead of queueing or deadlocking.
type WorkerPool struct {
	tasks chan func()
	wg    sync.WaitGroup // the workers

	mu     sync.Mutex
	closed bool
}

// Lanes is how many work-groups a VM launch executes side by side: the
// occupancy of the device that actually runs the bytecode, as opposed to
// the modelled platform the §3 plan is computed against. launchVM sizes
// its claim loops with it and an opencl.LaunchHandle clamps the physical
// work-groups its slices start to it; both read it here so they cannot
// drift. It takes the Go scheduler's lock, so callers on a latency path
// read it where that lock is quiet (the handle does so at construction).
func Lanes() int { return runtime.GOMAXPROCS(0) }

// NewWorkerPool starts a pool of n persistent workers (n < 1 means
// Lanes).
func NewWorkerPool(n int) *WorkerPool {
	if n < 1 {
		n = Lanes()
	}
	p := &WorkerPool{tasks: make(chan func())}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *WorkerPool) worker() {
	defer p.wg.Done()
	for f := range p.tasks {
		f()
	}
}

// TrySubmit hands the task to an idle worker, reporting false (without
// running it) when every worker is busy or the pool is closed.
func (p *WorkerPool) TrySubmit(f func()) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

// Close stops the workers and returns once they have exited, each after
// the task it was running. Subsequent TrySubmit calls report false, so
// launches still in flight finish on their own goroutines.
func (p *WorkerPool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.tasks)
	}
	p.mu.Unlock()
	p.wg.Wait()
}

// defaultWorkers is the shared pool for machines not owned by a
// platform machine pool.
var (
	defaultWorkersOnce sync.Once
	defaultWorkersPool *WorkerPool
)

func defaultWorkers() *WorkerPool {
	defaultWorkersOnce.Do(func() { defaultWorkersPool = NewWorkerPool(0) })
	return defaultWorkersPool
}
