package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/sim"
)

// TestPoolFailHealLifecycle pins the failure model's event stream
// deterministically: fail evicts residents and queue in order, a stale
// Complete is a membership-checked no-op, an all-failed pool parks, and
// heal re-admits the parked set.
func TestPoolFailHealLifecycle(t *testing.T) {
	p := cluster.NewPool(twoShapes(), cluster.RoundRobin(), 1)
	var evs []cluster.PoolEvent
	p.SetObserver(func(ev cluster.PoolEvent) { evs = append(evs, ev) })

	e1 := exec(1, "a", 64, 100)
	e2 := exec(2, "b", 64, 100)
	e3 := exec(3, "c", 64, 100)
	p.Submit(e1) // dev 0, resident
	p.Submit(e2) // dev 1, resident
	if _, kind := p.Submit(e3); kind != cluster.EvQueued {
		t.Fatal("e3 not queued")
	}
	qdev := evs[len(evs)-1].Dev // device holding e3's queue slot

	evicted := p.FailDevice(qdev)
	wantEvict := 2 // the resident plus queued e3
	if evicted != wantEvict {
		t.Fatalf("FailDevice evicted %d, want %d", evicted, wantEvict)
	}
	if !p.Failed(qdev) || p.Healthy() != 1 {
		t.Fatalf("after fail: Failed=%v Healthy=%d", p.Failed(qdev), p.Healthy())
	}
	// EvDeviceFailed first, then the evictions in residency order.
	tail := evs[len(evs)-3:]
	if tail[0].Kind != cluster.EvDeviceFailed || tail[0].Dev != qdev {
		t.Fatalf("first post-fail event = %+v, want EvDeviceFailed dev %d", tail[0], qdev)
	}
	if tail[1].Kind != cluster.EvEvicted || tail[2].Kind != cluster.EvEvicted || tail[2].Exec != e3 {
		t.Fatalf("eviction events = %+v %+v, want resident then queued e3", tail[1], tail[2])
	}

	// Completing an evicted request must be a no-op: no event, no
	// promotion, nil return.
	n := len(evs)
	if next := p.Complete(qdev, tail[1].Exec); next != nil || len(evs) != n {
		t.Fatalf("Complete after eviction: next=%v, %d new events", next, len(evs)-n)
	}

	// Failing the survivor leaves nowhere to place: submits park.
	p.FailDevice(1 - qdev)
	e4 := exec(4, "d", 64, 100)
	if di, kind := p.Submit(e4); kind != cluster.EvParked || di != -1 {
		t.Fatalf("submit with no healthy device = (%d, %v), want (-1, EvParked)", di, kind)
	}
	if p.Parked() != 1 || p.Healthy() != 0 {
		t.Fatalf("Parked=%d Healthy=%d, want 1/0", p.Parked(), p.Healthy())
	}

	// Heal re-admits the parked request on the healed device.
	p.HealDevice(qdev)
	if p.Parked() != 0 {
		t.Fatalf("Parked=%d after heal, want 0", p.Parked())
	}
	tail = evs[len(evs)-2:]
	if tail[0].Kind != cluster.EvDeviceHealed || tail[0].Dev != qdev {
		t.Fatalf("heal event = %+v, want EvDeviceHealed dev %d", tail[0], qdev)
	}
	if tail[1].Kind != cluster.EvAdmitted || tail[1].Exec != e4 || tail[1].Dev != qdev {
		t.Fatalf("re-admission event = %+v, want EvAdmitted e4 on dev %d", tail[1], qdev)
	}
}

// placement is the observer-side state machine for the stress test.
type placement int

const (
	plOut placement = iota
	plResident
	plQueued
	plParked
)

// TestPoolStressNoDoublePlacement hammers Submit, Complete, Rebalance,
// FailDevice and HealDevice from many goroutines under the race
// detector while an observer replays the ordered event stream through a
// per-request state machine. Any double placement — the race this
// ordering exists to prevent — shows up as an illegal transition
// (EvAdmitted/EvMigrated for a request that is already resident).
func TestPoolStressNoDoublePlacement(t *testing.T) {
	devs := []*device.Platform{
		device.NVIDIAK20m(), device.AMDR9295X2(),
		device.NVIDIAK20m(), device.AMDR9295X2(),
	}
	p := cluster.NewPool(devs, cluster.LeastLoaded(), 2)

	const (
		nSubmitters = 4
		perSubmit   = 75
		total       = nSubmitters * perSubmit
	)
	type placed struct {
		e   *sim.ClusterExec
		dev int
	}
	var (
		smu        sync.Mutex
		state      = make(map[*sim.ClusterExec]placement)
		doneN      int
		violations []string
		runCh      = make(chan placed, 8*total)
		evictCh    = make(chan *sim.ClusterExec, 8*total)
	)
	bad := func(ev cluster.PoolEvent, st placement) {
		violations = append(violations,
			fmt.Sprintf("event %v for exec %d in state %d", ev.Kind, ev.Exec.K.ID, st))
	}
	p.SetObserver(func(ev cluster.PoolEvent) {
		if ev.Exec == nil {
			return // EvDeviceFailed / EvDeviceHealed
		}
		smu.Lock()
		st := state[ev.Exec]
		switch ev.Kind {
		case cluster.EvAdmitted, cluster.EvMigrated:
			if st == plResident {
				bad(ev, st) // double placement
			}
			state[ev.Exec] = plResident
			smu.Unlock()
			runCh <- placed{ev.Exec, ev.Dev}
			return
		case cluster.EvQueued:
			if st == plResident || st == plQueued {
				bad(ev, st)
			}
			state[ev.Exec] = plQueued
		case cluster.EvParked:
			if st != plOut {
				bad(ev, st)
			}
			state[ev.Exec] = plParked
		case cluster.EvCompleted:
			if st != plResident {
				bad(ev, st)
			}
			state[ev.Exec] = plOut
			doneN++
		case cluster.EvEvicted:
			if st != plResident && st != plQueued {
				bad(ev, st)
			}
			state[ev.Exec] = plOut
			smu.Unlock()
			evictCh <- ev.Exec
			return
		}
		smu.Unlock()
	})

	var wg sync.WaitGroup
	stopChaos := make(chan struct{})
	// quit stops the service goroutines without closing the channels: a
	// late observer callback may still be mid-send after SetObserver(nil)
	// returns, so the channels must stay open.
	quit := make(chan struct{})

	// Completers: retire whatever the event stream admits. The recorded
	// device may be stale (evicted after admission) — Complete must
	// absorb that as a no-op and the eviction path resubmits.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case pl := <-runCh:
					p.Complete(pl.dev, pl.e)
				case <-quit:
					return
				}
			}
		}()
	}
	// Resubmitter: the runtime's relaunch analogue.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case e := <-evictCh:
				p.Submit(e)
			case <-quit:
				return
			}
		}
	}()
	// Chaos: fail/heal random devices and force migrations, concurrently
	// with placement traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopChaos:
				return
			default:
			}
			d := rng.Intn(len(devs))
			switch rng.Intn(3) {
			case 0:
				p.FailDevice(d)
			case 1:
				p.HealDevice(d)
			case 2:
				p.Rebalance()
			}
		}
	}()
	// Submitters.
	for w := 0; w < nSubmitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perSubmit; i++ {
				p.Submit(exec(w*perSubmit+i, fmt.Sprintf("t%d", w), 64, 100))
			}
		}(w)
	}

	// Drain: stop the chaos, heal everything, and keep rebalancing until
	// every request has completed.
	deadline := time.Now().Add(30 * time.Second)
	for {
		smu.Lock()
		n := doneN
		smu.Unlock()
		if n >= total {
			break
		}
		if time.Now().After(deadline) {
			smu.Lock()
			t.Fatalf("drain stalled at %d/%d done (%d violations)", doneN, total, len(violations))
		}
		select {
		case <-stopChaos:
		default:
			close(stopChaos)
		}
		for d := range devs {
			p.HealDevice(d)
		}
		p.Rebalance()
		time.Sleep(time.Millisecond)
	}
	select {
	case <-stopChaos:
	default:
		close(stopChaos)
	}
	p.SetObserver(nil)
	close(quit)
	wg.Wait()

	smu.Lock()
	defer smu.Unlock()
	for _, v := range violations {
		t.Error(v)
	}
	if doneN != total {
		t.Errorf("doneN = %d, want %d", doneN, total)
	}
	if p.Parked() != 0 {
		t.Errorf("Parked = %d after drain, want 0", p.Parked())
	}
	for d := range devs {
		if n := len(p.ResidentOn(d)); n != 0 {
			t.Errorf("device %d still has %d residents after drain", d, n)
		}
	}
	for _, l := range p.Loads() {
		if l.Queued != 0 || l.PendingWork != 0 {
			t.Errorf("device %d loads after drain: %+v", l.Index, l)
		}
	}
}
