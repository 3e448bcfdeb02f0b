package accelos

import (
	"fmt"
	"sync"
)

// MemoryManager tracks device memory allocations per application and
// implements the paper's pausing policy (§5): when the accelerator
// memory cannot serve all applications concurrently, an application's
// allocation blocks until peers release memory.
type MemoryManager struct {
	capacity int64

	mu      sync.Mutex
	cond    *sync.Cond
	used    int64
	perApp  map[int]int64
	paused  int
	pausedN int64 // cumulative pauses, for observability
}

// NewMemoryManager returns a manager for a device with the given
// capacity in bytes.
func NewMemoryManager(capacity int64) *MemoryManager {
	m := &MemoryManager{capacity: capacity, perApp: make(map[int]int64)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// Alloc reserves size bytes for the application, blocking (pausing the
// application) while the device is oversubscribed. An allocation larger
// than the device fails outright.
func (m *MemoryManager) Alloc(appID int, size int64) error {
	if size <= 0 {
		return fmt.Errorf("accelos: invalid allocation of %d bytes", size)
	}
	if size > m.capacity {
		return fmt.Errorf("accelos: allocation of %d bytes exceeds device capacity %d", size, m.capacity)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.used+size > m.capacity {
		m.paused++
		m.pausedN++
		m.cond.Wait()
		m.paused--
	}
	m.used += size
	m.perApp[appID] += size
	return nil
}

// Free releases size bytes owned by the application and resumes paused
// applications. Every buffer returns its bytes here once, when it is
// really freed — a buffer pinned by in-flight commands at Release time,
// even one of an application that has since closed, only once the last
// command unpins it — so the ledger matches the context's allocations.
// The free is clamped to what the application holds, so a mismatched
// one cannot drive the ledger negative.
func (m *MemoryManager) Free(appID int, size int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if held := m.perApp[appID]; size > held {
		size = held
	}
	m.used -= size
	m.perApp[appID] -= size
	if m.perApp[appID] <= 0 {
		delete(m.perApp, appID)
	}
	m.cond.Broadcast()
}

// Used returns current device memory usage in bytes.
func (m *MemoryManager) Used() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.used
}

// Paused returns how many applications are currently paused.
func (m *MemoryManager) Paused() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.paused
}

// TotalPauses returns the cumulative number of pause events.
func (m *MemoryManager) TotalPauses() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pausedN
}
