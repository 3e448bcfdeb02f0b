package cluster

import (
	"sync"

	"repro/internal/device"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Pool is the live device pool: per-device run queues behind one
// admission controller. The simulation driver (sim.RunCluster) keeps
// its own fluid bookkeeping; Pool is the concurrent-safe variant the
// accelOS runtime uses to route real (interpreter-backed) kernel
// launches across platforms and to plan shares against the right
// device's resident set.
type Pool struct {
	mu   sync.Mutex
	devs []*device.Platform
	pol  Policy
	// maxResident bounds each device's concurrently executing requests;
	// 0 means unbounded. A request past the bound waits in its device's
	// run queue until Complete frees a slot or Rebalance migrates it.
	maxResident int

	resident [][]slot
	queued   [][]slot
	// work estimates pending cost units per device for load snapshots.
	work []int64

	// failed marks devices removed from placement by FailDevice; parked
	// holds requests that arrived while no healthy device existed,
	// re-admitted in order by the next HealDevice.
	failed []bool
	parked []slot

	observer func(PoolEvent)
	// evq and notifying serialize event delivery: every mutation appends
	// its events under mu, and exactly one goroutine at a time drains the
	// queue, so observers see events in the order the pool state actually
	// changed. (Firing from each mutating goroutine after unlock — the
	// previous scheme — let a racing FailDevice's eviction overtake the
	// admission it evicted, double-placing the request downstream.)
	evq, spare []PoolEvent
	notifying  bool

	// inj, when set, is consulted after every placement: a DeviceFail
	// fire kills the device the request just landed on (chaos harness).
	inj *fault.Injector
}

// slot is one request in the pool with the work it was charged at
// Submit: summing a kernel's virtual-group costs walks its whole grid,
// so it is done once, outside the pool lock, and every later move
// (completion, heal, migration) reuses the figure.
type slot struct {
	e    *sim.ClusterExec
	work int64
}

// PoolEventKind classifies a pool membership change.
type PoolEventKind int

// Pool membership events.
const (
	// EvAdmitted: the request became resident on Dev (straight from
	// Submit, promoted from Dev's run queue by Complete, or re-admitted
	// from the parked set by HealDevice).
	EvAdmitted PoolEventKind = iota
	// EvQueued: the request is waiting in Dev's run queue.
	EvQueued
	// EvCompleted: the request retired from Dev.
	EvCompleted
	// EvMigrated: Rebalance moved the queued request to drained Dev and
	// admitted it there.
	EvMigrated
	// EvDeviceFailed: FailDevice removed Dev from placement. Followed by
	// one EvEvicted per request that was resident or queued there.
	EvDeviceFailed
	// EvDeviceHealed: HealDevice returned Dev to placement; parked
	// requests re-enter the pool as EvAdmitted/EvQueued events on Dev.
	EvDeviceHealed
	// EvEvicted: the request was thrown off failed Dev. It is no longer
	// in the pool; the owner decides whether to resubmit it (the accelOS
	// runtime relaunches the remaining slice range elsewhere).
	EvEvicted
	// EvParked: Submit found no healthy device (Dev is -1). The request
	// is held in the pool's parked set and re-admitted by HealDevice.
	EvParked
)

// PoolEvent is one membership change: the event source for
// completion-driven re-planning on the live path (the runtime re-runs
// the §3 share plan for Dev's surviving residents whenever one retires,
// mirroring the simulated driver's per-event re-planning).
type PoolEvent struct {
	Kind PoolEventKind
	Dev  int
	Exec *sim.ClusterExec
}

// SetObserver installs a callback invoked (outside the pool lock, in
// pool-mutation order) for every membership change. At most one
// observer; nil removes it.
func (p *Pool) SetObserver(fn func(PoolEvent)) {
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// SetFaultInjector installs (or, with nil, removes) the chaos injector
// consulted at the pool's DeviceFail point.
func (p *Pool) SetFaultInjector(in *fault.Injector) {
	p.mu.Lock()
	p.inj = in
	p.mu.Unlock()
}

// emitLocked appends events to the delivery queue in mutation order.
// The caller must hold mu and must call dispatch after releasing it.
func (p *Pool) emitLocked(evs ...PoolEvent) {
	p.evq = append(p.evq, evs...)
}

// dispatch drains the event queue through the observer. Exactly one
// goroutine drains at a time; a mutator that finds another goroutine
// already draining leaves its events for that drain to deliver, which
// keeps delivery single-threaded and ordered. Observers run outside the
// pool lock and may re-enter the pool.
func (p *Pool) dispatch() {
	p.mu.Lock()
	if p.notifying {
		p.mu.Unlock()
		return
	}
	p.notifying = true
	// Deliver batch by batch, handing the drained batch back as the next
	// one's buffer: a pool in steady state appends into the same two
	// arrays instead of allocating per event, and what an observer emits
	// while a batch is out queues behind it, in order.
	for len(p.evq) > 0 {
		batch, fn := p.evq, p.observer
		p.evq = p.spare[:0]
		p.mu.Unlock()
		for i, ev := range batch {
			if fn != nil {
				fn(ev)
			}
			batch[i] = PoolEvent{} // drop the request reference
		}
		p.mu.Lock()
		p.spare = batch
	}
	p.notifying = false
	p.mu.Unlock()
}

// NewPool builds a pool over the devices with the placement policy.
func NewPool(devs []*device.Platform, pol Policy, maxResident int) *Pool {
	if pol == nil {
		pol = LeastLoaded()
	}
	return &Pool{
		devs:        devs,
		pol:         pol,
		maxResident: maxResident,
		resident:    make([][]slot, len(devs)),
		queued:      make([][]slot, len(devs)),
		work:        make([]int64, len(devs)),
		failed:      make([]bool, len(devs)),
	}
}

// Devices returns the pool members.
func (p *Pool) Devices() []*device.Platform { return p.devs }

// Bounded reports whether the pool enforces a per-device residency
// limit (and can therefore ever hold queued requests).
func (p *Pool) Bounded() bool { return p.maxResident > 0 }

// Loads snapshots the pool for placement decisions.
func (p *Pool) Loads() []sim.DeviceLoad {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.loadsLocked()
}

func (p *Pool) loadsLocked() []sim.DeviceLoad {
	out := make([]sim.DeviceLoad, len(p.devs))
	for i, d := range p.devs {
		out[i] = sim.DeviceLoad{
			Dev:         d,
			Index:       i,
			Resident:    len(p.resident[i]),
			Queued:      len(p.queued[i]),
			PendingWork: p.work[i],
		}
	}
	return out
}

// healthyLoadsLocked is loadsLocked restricted to devices still in
// placement. Each load keeps its true Index so a policy's pick maps
// back to the real device.
func (p *Pool) healthyLoadsLocked() []sim.DeviceLoad {
	out := make([]sim.DeviceLoad, 0, len(p.devs))
	for i, d := range p.devs {
		if p.failed[i] {
			continue
		}
		out = append(out, sim.DeviceLoad{
			Dev:         d,
			Index:       i,
			Resident:    len(p.resident[i]),
			Queued:      len(p.queued[i]),
			PendingWork: p.work[i],
		})
	}
	return out
}

// Submit places a request on a healthy device. It returns the device
// index the policy picked and what happened there: EvAdmitted (resident
// now, launch it), EvQueued (waiting in that device's run queue until
// Complete frees a slot or Rebalance migrates it), or EvParked (no
// healthy device exists; devIdx is -1 and the request waits in the
// parked set until HealDevice re-admits it).
func (p *Pool) Submit(e *sim.ClusterExec) (devIdx int, kind PoolEventKind) {
	s := slot{e: e, work: e.K.TotalWork() * e.K.NumIters()}
	p.mu.Lock()
	loads := p.healthyLoadsLocked()
	if len(loads) == 0 {
		p.parked = append(p.parked, s)
		p.emitLocked(PoolEvent{Kind: EvParked, Dev: -1, Exec: e})
		p.mu.Unlock()
		p.dispatch()
		return -1, EvParked
	}
	di := p.pol.Pick(e, loads)
	if di < 0 || di >= len(loads) {
		di = 0
	}
	di = loads[di].Index
	if p.maxResident <= 0 || len(p.resident[di]) < p.maxResident {
		p.resident[di] = append(p.resident[di], s)
		kind = EvAdmitted
	} else {
		p.queued[di] = append(p.queued[di], s)
		kind = EvQueued
	}
	p.work[di] += s.work
	p.emitLocked(PoolEvent{Kind: kind, Dev: di, Exec: e})
	inj := p.inj
	p.mu.Unlock()
	p.dispatch()
	if inj.Should(fault.DeviceFail) {
		p.FailDevice(di)
	}
	return di, kind
}

// FailDevice removes a device from placement and evicts everything on
// it: an EvDeviceFailed event, then one EvEvicted per request that was
// resident or queued there (in residency order). Evicted requests leave
// the pool entirely — the owner resubmits the ones it still wants run.
// It returns how many requests were evicted; failing an already-failed
// or out-of-range device is a no-op.
func (p *Pool) FailDevice(devIdx int) int {
	if devIdx < 0 || devIdx >= len(p.devs) {
		return 0
	}
	p.mu.Lock()
	if p.failed[devIdx] {
		p.mu.Unlock()
		return 0
	}
	p.failed[devIdx] = true
	// Appending into the resident list's array is safe: the list is
	// dropped on the next line.
	orphans := append(p.resident[devIdx], p.queued[devIdx]...)
	p.resident[devIdx] = nil
	p.queued[devIdx] = nil
	p.work[devIdx] = 0
	p.emitLocked(PoolEvent{Kind: EvDeviceFailed, Dev: devIdx})
	for _, s := range orphans {
		p.emitLocked(PoolEvent{Kind: EvEvicted, Dev: devIdx, Exec: s.e})
	}
	p.mu.Unlock()
	p.dispatch()
	return len(orphans)
}

// HealDevice returns a failed device to placement and re-admits the
// parked set through it: each parked request becomes resident on the
// healed device (EvAdmitted) while slots last, then queues there
// (EvQueued — heal re-admission bypasses MaxQueued, since the requests
// were already accepted by Submit). Healing a healthy or out-of-range
// device is a no-op.
func (p *Pool) HealDevice(devIdx int) {
	if devIdx < 0 || devIdx >= len(p.devs) {
		return
	}
	p.mu.Lock()
	if !p.failed[devIdx] {
		p.mu.Unlock()
		return
	}
	p.failed[devIdx] = false
	parked := p.parked
	p.parked = nil
	p.emitLocked(PoolEvent{Kind: EvDeviceHealed, Dev: devIdx})
	for _, s := range parked {
		kind := EvAdmitted
		if p.maxResident > 0 && len(p.resident[devIdx]) >= p.maxResident {
			kind = EvQueued
			p.queued[devIdx] = append(p.queued[devIdx], s)
		} else {
			p.resident[devIdx] = append(p.resident[devIdx], s)
		}
		p.work[devIdx] += s.work
		p.emitLocked(PoolEvent{Kind: kind, Dev: devIdx, Exec: s.e})
	}
	p.mu.Unlock()
	p.dispatch()
}

// Failed reports whether the device is currently out of placement.
func (p *Pool) Failed(devIdx int) bool {
	if devIdx < 0 || devIdx >= len(p.devs) {
		return false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.failed[devIdx]
}

// Healthy counts devices currently in placement.
func (p *Pool) Healthy() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, f := range p.failed {
		if !f {
			n++
		}
	}
	return n
}

// Parked counts requests waiting for any device to heal.
func (p *Pool) Parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.parked)
}

// Complete retires a request from a device and admits the head of its
// run queue, if any. The newly admitted request (nil if none) is
// returned so the caller can launch it. Completing a request that is no
// longer resident — it was evicted by FailDevice after the caller
// launched it — is a no-op: the eviction already released its slot and
// dropped its work.
func (p *Pool) Complete(devIdx int, e *sim.ClusterExec) *sim.ClusterExec {
	if devIdx < 0 || devIdx >= len(p.devs) {
		return nil
	}
	p.mu.Lock()
	rs := p.resident[devIdx]
	at := -1
	for i, r := range rs {
		if r.e == e {
			at = i
			break
		}
	}
	if at < 0 {
		p.mu.Unlock()
		return nil
	}
	p.work[devIdx] -= rs[at].work
	p.resident[devIdx] = append(rs[:at], rs[at+1:]...)
	p.emitLocked(PoolEvent{Kind: EvCompleted, Dev: devIdx, Exec: e})
	var next *sim.ClusterExec
	if len(p.queued[devIdx]) > 0 && (p.maxResident <= 0 || len(p.resident[devIdx]) < p.maxResident) {
		s := p.queued[devIdx][0]
		p.queued[devIdx] = p.queued[devIdx][1:]
		p.resident[devIdx] = append(p.resident[devIdx], s)
		p.emitLocked(PoolEvent{Kind: EvAdmitted, Dev: devIdx, Exec: s.e})
		next = s.e
	}
	p.mu.Unlock()
	p.dispatch()
	return next
}

// ResidentOn returns the requests currently resident on a device (the
// set the §3 planner divides the device among).
func (p *Pool) ResidentOn(devIdx int) []*sim.ClusterExec {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]*sim.ClusterExec, len(p.resident[devIdx]))
	for i, s := range p.resident[devIdx] {
		out[i] = s.e
	}
	return out
}

// Rebalance migrates queued requests to drained devices (idle, empty
// queue, healthy) and admits them there. It returns the migrations
// performed as (request, new device) pairs so the caller can launch
// them. Failed devices neither receive nor donate work.
func (p *Pool) Rebalance() map[*sim.ClusterExec]int {
	p.mu.Lock()
	moves := make(map[*sim.ClusterExec]int)
	for di := range p.devs {
		if p.failed[di] || len(p.resident[di]) > 0 || len(p.queued[di]) > 0 {
			continue
		}
		// Steal from the most backlogged queue.
		donor := -1
		for j := range p.devs {
			if j == di || p.failed[j] || len(p.queued[j]) == 0 {
				continue
			}
			if donor < 0 || len(p.queued[j]) > len(p.queued[donor]) {
				donor = j
			}
		}
		if donor < 0 {
			continue
		}
		s := p.queued[donor][0]
		p.queued[donor] = p.queued[donor][1:]
		p.work[donor] -= s.work
		p.work[di] += s.work
		p.resident[di] = append(p.resident[di], s)
		moves[s.e] = di
		p.emitLocked(PoolEvent{Kind: EvMigrated, Dev: di, Exec: s.e})
	}
	p.mu.Unlock()
	p.dispatch()
	return moves
}
