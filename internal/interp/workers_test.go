package interp

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// lingerSink counts what a lingering worker reports.
type lingerSink struct{ lingers, ns atomic.Int64 }

func (s *lingerSink) ObserveLaneStart(int64, bool) {}
func (s *lingerSink) ObserveLinger(ns int64)       { s.lingers.Add(1); s.ns.Add(ns) }

// awaitSlot waits until the pool's hand-off slot holds want, reporting
// false if it does not within d.
func awaitSlot(p *WorkerPool, want *task, d time.Duration) bool {
	for deadline := time.Now().Add(d); p.slot.Load() != want; {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
	}
	return true
}

// submitFunc hands f to the pool as a task that does not linger.
func submitFunc(p *WorkerPool, f func()) bool {
	ok, _ := p.trySubmit(&task{run: f})
	return ok
}

// mustSubmit submits t until the pool takes it: a worker turning from
// the slot to the channel takes neither for a moment. It reports
// whether the lingering worker took it.
func mustSubmit(p *WorkerPool, t *task) bool {
	for {
		if ok, handoff := p.trySubmit(t); ok {
			return handoff
		}
		runtime.Gosched()
	}
}

// TestWorkerPoolLinger pins the hand-off to a lingering worker: it takes
// the next task without the channel, a task submitted at any moment
// around the linger deadline runs exactly once, Close waits out at most
// one linger, and a closed pool takes nothing even while a worker still
// polls the slot.
func TestWorkerPoolLinger(t *testing.T) {
	t.Run("handoff", func(t *testing.T) {
		p := NewWorkerPool(1)
		defer p.Close()
		sink := &lingerSink{}
		ran := make(chan int, 2)
		// The lone worker lingers after the first task, so it is not at
		// the channel: only the slot can take the second. Its polling
		// may end before this goroutine submits (a slow scheduler), so
		// retry the pair.
		handed := false
		for try := 0; try < 100 && !handed; try++ {
			mustSubmit(p, &task{run: func() { ran <- 1 }, linger: true, sink: sink})
			<-ran
			if !awaitSlot(p, &lingering, laneLinger) {
				continue
			}
			var ok bool
			if ok, handed = p.trySubmit(&task{run: func() { ran <- 2 }}); ok {
				select {
				case got := <-ran:
					if got != 2 {
						t.Fatalf("ran task %d, want 2", got)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("an accepted task never ran (handed to the lingering worker: %v)", handed)
				}
			}
		}
		if !handed {
			t.Fatal("a lingering worker never took a task from the slot")
		}
		// The task handed over did not ask to linger: the worker parks.
		if !awaitSlot(p, nil, time.Second) {
			t.Fatal("the slot stayed claimed after a task that did not linger")
		}
		if sink.lingers.Load() == 0 {
			t.Error("no linger was reported to the task's sink")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		// Each round leaves the worker lingering and submits the next
		// task at a random offset between half and one and a half
		// lingers later: through the slot, through the channel, or
		// refused while the worker turns from one to the other. A task
		// the pool accepted must run exactly once; one left in the slot
		// after the worker stopped polling would never run.
		p := NewWorkerPool(1)
		defer p.Close()
		rng := rand.New(rand.NewSource(1))
		const rounds = 2000
		var runs [rounds]atomic.Int32
		ran := make(chan struct{}, 1)
		for i := 0; i < rounds; i++ {
			mustSubmit(p, &task{run: func() { ran <- struct{}{} }, linger: true})
			<-ran
			off := laneLinger/2 + time.Duration(rng.Int63n(int64(laneLinger)))
			for t0 := time.Now(); time.Since(t0) < off; {
				runtime.Gosched()
			}
			mustSubmit(p, &task{run: func() { runs[i].Add(1); ran <- struct{}{} }})
			select {
			case <-ran:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: an accepted task never ran (slot %p)", i, p.slot.Load())
			}
		}
		for i := range runs {
			if n := runs[i].Load(); n != 1 {
				t.Fatalf("round %d's task ran %d times", i, n)
			}
		}
	})

	t.Run("close", func(t *testing.T) {
		p := NewWorkerPool(2)
		ran := make(chan struct{}, 1)
		for lingers := false; !lingers; {
			mustSubmit(p, &task{run: func() { ran <- struct{}{} }, linger: true})
			<-ran
			lingers = awaitSlot(p, &lingering, laneLinger)
		}
		t0 := time.Now()
		p.Close()
		if d := time.Since(t0); d > laneLinger+50*time.Millisecond {
			t.Errorf("Close took %v while a worker lingered", d)
		}
	})

	t.Run("submit after close", func(t *testing.T) {
		// Close marks the pool closed, then waits for the lingering
		// worker: a submit in between meets a closed pool with the slot
		// still claimed and must be refused, not handed over.
		for i := 0; i < 200; i++ {
			p := NewWorkerPool(1)
			ran := make(chan struct{}, 1)
			for lingers := false; !lingers; {
				mustSubmit(p, &task{run: func() { ran <- struct{}{} }, linger: true})
				<-ran
				lingers = awaitSlot(p, &lingering, laneLinger)
			}
			closed := make(chan struct{})
			go func() { p.Close(); close(closed) }()
			for closing := false; !closing; runtime.Gosched() {
				p.mu.Lock()
				closing = p.closed
				p.mu.Unlock()
			}
			var late atomic.Bool
			if submitFunc(p, func() { late.Store(true) }) {
				t.Fatalf("iteration %d: a closed pool accepted a task", i)
			}
			<-closed
			if late.Load() {
				t.Fatalf("iteration %d: a task submitted after Close ran", i)
			}
		}
	})
}
