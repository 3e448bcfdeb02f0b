package opencl

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// This file is the event half of the asynchronous host API: every
// Enqueue* call returns an *Event immediately and the command completes
// in the background. Events carry a status, an error and completion
// callbacks. An event's dependencies are fixed when it is created and
// name only events that already exist, so the dependency graph is
// acyclic by construction.

// EventStatus is the lifecycle state of a command (mirrors the OpenCL
// execution-status model, with an explicit failure state).
type EventStatus int32

const (
	// EventQueued: the command is in its queue with unsatisfied wait-list
	// dependencies.
	EventQueued EventStatus = iota
	// EventSubmitted: every dependency completed; the command has been
	// released to the runtime.
	EventSubmitted
	// EventRunning: the command body is executing.
	EventRunning
	// EventComplete: the command finished successfully.
	EventComplete
	// EventFailed: the command (or one of its dependencies) failed; Err
	// carries the cause.
	EventFailed
)

func (s EventStatus) String() string {
	switch s {
	case EventQueued:
		return "queued"
	case EventSubmitted:
		return "submitted"
	case EventRunning:
		return "running"
	case EventComplete:
		return "complete"
	case EventFailed:
		return "failed"
	}
	return "?"
}

// Terminal reports whether the status is final.
func (s EventStatus) Terminal() bool { return s == EventComplete || s == EventFailed }

// Event is one asynchronously completing command (or a user event). It
// is created by an Enqueue* call, NewUserEvent, or a runtime submission,
// and completes exactly once.
type Event struct {
	mu     sync.Mutex
	status EventStatus
	err    error
	// done is made by the first blocking wait that finds the event
	// incomplete, and closed by finish; most events are observed only
	// through callbacks and never need one.
	done chan struct{}
	cbs  []func(*Event)
	rel  []func(*Event) // wait-list dependants (WhenAll); run before cbs

	// times stamps each status transition as an offset from epoch
	// (indexed by EventStatus; terminal statuses share the EventComplete
	// slot; 0 marks a skipped state). The clGetEventProfilingInfo
	// analogue — see ProfilingInfo.
	times [4]time.Duration
}

// epoch anchors event timestamps: an offset from it keeps the monotonic
// reading in a third of a time.Time's bytes.
var epoch = time.Now()

// stamp is the current offset from epoch, never 0.
func stamp() time.Duration { return max(time.Since(epoch), 1) }

// closedCh is what a wait on a terminal event receives from.
var closedCh = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// newEvent returns a queued event.
func newEvent() *Event {
	e := &Event{}
	e.times[EventQueued] = stamp()
	return e
}

// NewUserEvent returns an event completed by host code rather than by a
// command (clCreateUserEvent): pass it in wait lists to gate commands on
// host-side conditions, then call Complete or Fail exactly once.
func NewUserEvent() *Event { return newEvent() }

// compactWaits drops nil entries (callers may pass optional events).
func compactWaits(waits []*Event) []*Event {
	out := make([]*Event, 0, len(waits))
	for _, w := range waits {
		if w != nil {
			out = append(out, w)
		}
	}
	return out
}

// Status returns the event's current lifecycle state.
func (e *Event) Status() EventStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.status
}

// Err returns the failure cause, or nil while incomplete or on success.
func (e *Event) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// doneCh returns a channel that is closed once the event is terminal.
func (e *Event) doneCh() <-chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.status.Terminal() {
		return closedCh
	}
	if e.done == nil {
		e.done = make(chan struct{})
	}
	return e.done
}

// Wait blocks until the event completes and returns its error.
func (e *Event) Wait() error {
	<-e.doneCh()
	return e.Err()
}

// WaitContext blocks until the event completes (returning its error,
// like Wait) or the context is done (returning the context's error).
// Wait has no escape hatch: if a runtime layer drops an event on an
// internal error path without completing it, every waiter blocks
// forever. Layers that own such paths — the service client bounds all
// blocking waits by its connection lifetime — wait through this
// instead; Wait stays the zero-dependency wrapper for callers whose
// events are guaranteed to complete.
func (e *Event) WaitContext(ctx context.Context) error {
	select {
	case <-e.doneCh():
		return e.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// WaitAll waits for every event and returns the first failure.
func WaitAll(events ...*Event) error {
	var first error
	for _, ev := range events {
		if ev == nil {
			continue
		}
		if err := ev.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// OnComplete registers a completion callback. It fires exactly once,
// after the event reaches a terminal status — immediately (on the
// caller's goroutine) if it already has. Callbacks observe the final
// status and error through the event itself.
func (e *Event) OnComplete(fn func(*Event)) { e.register(&e.cbs, fn) }

// register appends fn to one of the event's callback lists, or runs it
// at once if the event is already terminal.
func (e *Event) register(list *[]func(*Event), fn func(*Event)) {
	e.mu.Lock()
	if e.status.Terminal() {
		e.mu.Unlock()
		fn(e)
		return
	}
	*list = append(*list, fn)
	e.mu.Unlock()
}

// transition advances an incomplete event's status (Queued → Submitted →
// Running), stamping the transition time. Terminal events ignore it: a
// dependency failure may have finished the event while its command was
// being released.
func (e *Event) transition(s EventStatus) {
	e.mu.Lock()
	if !e.status.Terminal() && s > e.status && s < EventComplete {
		e.status = s
		e.times[s] = stamp()
	}
	e.mu.Unlock()
}

// EventProfile carries the wall-clock timestamps of an event's status
// transitions — the clGetEventProfilingInfo analogue
// (CL_PROFILING_COMMAND_QUEUED / SUBMIT / START / END). A zero
// timestamp means the event skipped that state (user events complete
// without ever being submitted; failed dependencies finish commands
// that never ran).
type EventProfile struct {
	Queued    time.Time // enqueue time
	Submitted time.Time // wait list satisfied, released to the runtime
	Running   time.Time // command body started executing
	Complete  time.Time // terminal (success or failure)
}

func span(from, to time.Time) time.Duration {
	if from.IsZero() || to.IsZero() {
		return 0
	}
	return to.Sub(from)
}

// QueueDelay is the time spent waiting on the wait list.
func (p EventProfile) QueueDelay() time.Duration { return span(p.Queued, p.Submitted) }

// LaunchDelay is the gap between release and execution start.
func (p EventProfile) LaunchDelay() time.Duration { return span(p.Submitted, p.Running) }

// Duration is the command body's execution time.
func (p EventProfile) Duration() time.Duration { return span(p.Running, p.Complete) }

// Total is enqueue-to-terminal wall time.
func (p EventProfile) Total() time.Duration { return span(p.Queued, p.Complete) }

// ErrProfilingNotAvailable is returned by ProfilingInfo while the event
// has not reached a terminal status — the CL_PROFILING_INFO_NOT_AVAILABLE
// analogue. An in-flight event has not accumulated its full transition
// record, and handing out a partial profile made every consumer treat
// zero stamps as zero durations.
var ErrProfilingNotAvailable = errors.New("opencl: profiling info not available until the event completes")

// ProfilingInfo returns the event's status-transition timestamps.
// Pipelines tune overlap from these measured spans instead of host-side
// wall-clock deltas: summing Duration over a chain's events against the
// chain's Total shows exactly how much transfer and kernel time the
// wait-list edges managed to overlap.
//
// The contract mirrors clGetEventProfilingInfo: querying before the
// event completes returns ErrProfilingNotAvailable and a zero profile.
// After completion every transition the event went through is stamped;
// states it legitimately skipped (a user event is never submitted or
// run, a command whose dependency failed never ran) keep zero stamps,
// and the EventProfile span helpers report zero durations across them.
func (e *Event) ProfilingInfo() (EventProfile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.status.Terminal() {
		return EventProfile{}, ErrProfilingNotAvailable
	}
	at := func(d time.Duration) time.Time {
		if d == 0 {
			return time.Time{}
		}
		return epoch.Add(d)
	}
	return EventProfile{
		Queued:    at(e.times[EventQueued]),
		Submitted: at(e.times[EventSubmitted]),
		Running:   at(e.times[EventRunning]),
		Complete:  at(e.times[EventComplete]),
	}, nil
}

// MarkSubmitted records that the command left its queue for the runtime.
// Producer-side API (queues and runtime layers); terminal events ignore it.
func (e *Event) MarkSubmitted() { e.transition(EventSubmitted) }

// MarkRunning records that the command body started executing.
// Producer-side API; terminal events ignore it.
func (e *Event) MarkRunning() { e.transition(EventRunning) }

// finish completes the event exactly once: later calls are no-ops, so a
// dependency-failure propagation and a command body racing to finish the
// same event resolve deterministically to whichever lands first. The
// wait-list dependants (WhenAll) are released before any OnComplete
// observer runs: an observer may be slow (a reply written to a socket),
// and the next command of a chain must not queue behind it.
func (e *Event) finish(err error) {
	e.mu.Lock()
	if e.status.Terminal() {
		e.mu.Unlock()
		return
	}
	if err != nil {
		e.status, e.err = EventFailed, err
	} else {
		e.status = EventComplete
	}
	e.times[EventComplete] = stamp()
	rel, cbs, done := e.rel, e.cbs, e.done
	e.rel, e.cbs = nil, nil
	e.mu.Unlock()
	if done != nil {
		close(done)
	}
	for _, fn := range rel {
		fn(e)
	}
	for _, fn := range cbs {
		fn(e)
	}
}

// Complete marks the event successful. Producer-side API: valid on user
// and controlled events (queue-owned events are completed by their
// command). No-op if already terminal.
func (e *Event) Complete() { e.finish(nil) }

// Fail marks the event failed with the given cause. Producer-side API;
// no-op if already terminal.
func (e *Event) Fail(err error) {
	if err == nil {
		err = fmt.Errorf("opencl: event failed")
	}
	e.finish(err)
}

// WhenAll invokes fn exactly once, after every listed event is terminal,
// with the first failure among them (nil if all succeeded). With an
// empty list it fires immediately on the caller's goroutine. The last
// event to finish calls fn before its own OnComplete observers.
func WhenAll(waits []*Event, fn func(error)) {
	n := 0
	for _, w := range waits {
		if w != nil {
			n++
		}
	}
	if n == 0 {
		fn(nil)
		return
	}
	var (
		mu        sync.Mutex
		remaining = n
		firstErr  error
	)
	for _, w := range waits {
		if w == nil {
			continue
		}
		w.register(&w.rel, func(ev *Event) {
			mu.Lock()
			if err := ev.Err(); err != nil && firstErr == nil {
				firstErr = err
			}
			remaining--
			ready := remaining == 0
			err := firstErr
			mu.Unlock()
			if ready {
				fn(err)
			}
		})
	}
}

// EventGroup tracks a set of in-flight events and blocks until all of
// them reach a terminal status — the machinery behind both
// CommandQueue.Finish and accelos App.Finish. The zero value is ready
// to use.
type EventGroup struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int
}

// Add registers an event with the group; it leaves the group when it
// completes (with either outcome).
func (g *EventGroup) Add(ev *Event) {
	g.mu.Lock()
	if g.cond == nil {
		g.cond = sync.NewCond(&g.mu)
	}
	g.n++
	g.mu.Unlock()
	ev.OnComplete(func(*Event) {
		g.mu.Lock()
		g.n--
		if g.n == 0 {
			g.cond.Broadcast()
		}
		g.mu.Unlock()
	})
}

// Wait blocks until every registered event is terminal.
func (g *EventGroup) Wait() {
	g.mu.Lock()
	for g.n > 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// Pending reports how many registered events are not yet terminal.
func (g *EventGroup) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}
