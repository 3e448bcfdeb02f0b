package interp

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// WorkerPool is a persistent set of goroutines that execute work-group
// batches for VM launches, so no launch spawns goroutines (for tiny
// slices the spawns rivaled the work). A pool is attached to a Machine
// (opencl.MachinePool owns one per platform and seeds it on Acquire);
// machines without one share a lazily started process-wide default.
//
// Tasks are self-sufficient group-claim loops (they pull group indices
// from the launch's atomic cursor until it runs dry), so the pool never
// needs to guarantee placement: trySubmit hands a task to an idle worker
// if there is one, and the launching goroutine always runs the claim
// loop itself too. A fully busy pool therefore degrades to inline
// execution instead of queueing or deadlocking.
//
// A worker whose task asked to linger (Machine.LaunchLinger) waits
// awake for the next task in a one-slot hand-off before it parks.
type WorkerPool struct {
	tasks chan *task
	wg    sync.WaitGroup       // the workers
	slot  atomic.Pointer[task] // nil, &lingering, or the task handed over

	mu     sync.Mutex
	closed bool
}

// task is one helper lane's claim loop; linger asks the worker that ran
// it to linger afterwards, and sink, if set, hears for how long.
type task struct {
	run    func()
	linger bool
	sink   LaneStatsSink
}

var lingering task // the slot's mark while a worker polls it

// laneLinger: a lone daemon tenant's next Parboil launch came 0.23 ms
// (median), 0.94 ms (p90) and 6 ms (p99) after its last helper finished
// (2 vCPUs); 1 ms caught 95 % of them, 20 ms 99 % for 1.6× the polling.
const laneLinger = time.Millisecond

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
	p := &WorkerPool{tasks: make(chan *task)}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

func (p *WorkerPool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		for ; t != nil && t != &lingering; t = p.linger(t) {
			t.run()
		}
	}
}

// linger polls the slot after a task that asked for it, one worker at
// a time, and returns what it takes out: a task handed over, the mark
// when none came, or nil when it did not linger.
func (p *WorkerPool) linger(t *task) *task {
	if !t.linger || !p.slot.CompareAndSwap(nil, &lingering) {
		return nil
	}
	runtime.Gosched() // the launcher t readied is in this P's runnext: run it first
	start := time.Now()
	for p.slot.Load() == &lingering && time.Since(start) < laneLinger {
	}
	if t.sink != nil {
		t.sink.ObserveLinger(int64(time.Since(start)))
	}
	return p.slot.Swap(nil)
}

// trySubmit hands t to the lingering worker, else to an idle one,
// reporting whether either took it (false when every worker is busy or
// the pool is closed) and whether the lingering one did.
func (p *WorkerPool) trySubmit(t *task) (ok, handoff bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false, false
	}
	if p.slot.CompareAndSwap(&lingering, t) {
		return true, true
	}
	select {
	case p.tasks <- t:
		return true, false
	default:
		return false, false
	}
}

// Close stops the workers and returns once they have exited, each after
// the task it was running. Subsequent trySubmit calls report false, so
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
