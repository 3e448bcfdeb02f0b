package accelos

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/opencl"
)

// MemoryManager implements the paper's pausing policy (§5): an
// allocation that would oversubscribe the accelerator memory pauses
// until peers release memory. The runtime's opencl.Context is the one
// ledger and makes the one capacity check; the manager keeps which
// applications hold buffers and which allocations are paused, oldest
// first. A paused allocation ends in exactly one of three ways:
//  1. it fits after a free;
//  2. it fails with opencl.ErrOutOfMemory when no memory can be freed
//     unless a paused application acts — every application holding
//     unfreed buffers is paused and no released buffer waits on an
//     unpin — and then only the holder that paused last fails;
//  3. it fails with ErrAppClosed when its own application closes.
type MemoryManager struct {
	ctx *opencl.Context

	mu      sync.Mutex
	cond    *sync.Cond
	held    map[*BufferHandle]bool // unfreed buffers
	paused  []*pause
	pausedN int64 // cumulative pauses, for observability

	// draining counts released buffers not yet freed: a command still
	// pins them, and their bytes come back without anyone acting.
	draining atomic.Int64
}

// pause is one paused allocation.
type pause struct {
	h    *BufferHandle
	mk   func() (*opencl.Buffer, error)
	err  error
	done bool
}

func newMemoryManager(ctx *opencl.Context) *MemoryManager {
	m := &MemoryManager{ctx: ctx, held: make(map[*BufferHandle]bool)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// alloc runs mk, the context allocation of h's bytes, and binds the
// buffer to h, pausing h's application while the device has no room. An
// allocation larger than the device fails at once.
func (m *MemoryManager) alloc(h *BufferHandle, mk func() (*opencl.Buffer, error)) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	err := m.hold(h, mk)
	if !errors.Is(err, opencl.ErrOutOfMemory) {
		return err
	}
	if capacity := m.ctx.GlobalMemBytes(); h.Size > capacity {
		return fmt.Errorf("accelos: allocation of %d bytes exceeds device capacity %d: %w", h.Size, capacity, err)
	}
	p := &pause{h: h, mk: mk}
	m.paused = append(m.paused, p)
	m.pausedN++
	m.failStuck()
	for !p.done {
		if h.app.isClosed() {
			m.unpause(p)
			return ErrAppClosed
		}
		m.cond.Wait()
	}
	return p.err
}

// hold runs mk and records the buffer as h's.
func (m *MemoryManager) hold(h *BufferHandle, mk func() (*opencl.Buffer, error)) error {
	b, err := mk()
	if err == nil {
		h.buf, m.held[h] = b, true
	}
	return err
}

// holding returns the application's unfreed buffers.
func (m *MemoryManager) holding(a *App) []*BufferHandle {
	m.mu.Lock()
	defer m.mu.Unlock()
	var hs []*BufferHandle
	for h := range m.held {
		if h.app == a {
			hs = append(hs, h)
		}
	}
	return hs
}

// wake has every paused allocation recheck its application; Close calls
// it.
func (m *MemoryManager) wake() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// freed is a buffer's free hook. The paused allocations retry first,
// oldest first, so a new allocation — say, the retry of an application
// that was just failed — cannot take the bytes from one that paused
// before it.
func (m *MemoryManager) freed(h *BufferHandle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.draining.Add(-1)
	delete(m.held, h)
	still := m.paused[:0]
	for _, p := range m.paused {
		if p.err = m.hold(p.h, p.mk); errors.Is(p.err, opencl.ErrOutOfMemory) {
			still = append(still, p)
			continue
		}
		p.done = true
	}
	clear(m.paused[len(still):])
	m.paused = still
	m.failStuck()
	m.cond.Broadcast()
}

// failStuck fails the holder that paused last when no memory can be
// freed unless a paused application acts.
func (m *MemoryManager) failStuck() {
	if len(m.paused) == 0 || m.draining.Load() != 0 {
		return
	}
	holders := make(map[*App]bool)
	for h := range m.held {
		if !slices.ContainsFunc(m.paused, func(p *pause) bool { return p.h.app == h.app }) {
			return
		}
		holders[h.app] = true
	}
	for i := len(m.paused) - 1; i >= 0; i-- {
		if p := m.paused[i]; holders[p.h.app] {
			p.err, p.done = opencl.ErrOutOfMemory, true
			m.unpause(p)
			m.cond.Broadcast()
			return
		}
	}
}

func (m *MemoryManager) unpause(p *pause) {
	m.paused = slices.DeleteFunc(m.paused, func(q *pause) bool { return q == p })
}

// Used returns current device memory usage in bytes: the context's
// ledger.
func (m *MemoryManager) Used() int64 { return m.ctx.AllocatedBytes() }

// Paused returns how many allocations are currently paused.
func (m *MemoryManager) Paused() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.paused)
}

// TotalPauses returns the cumulative number of pause events.
func (m *MemoryManager) TotalPauses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pausedN
}
