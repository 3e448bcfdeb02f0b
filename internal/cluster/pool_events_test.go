package cluster_test

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/device"
)

// TestPoolEventsAdmissionLifecycle checks the event stream the live
// runtime schedules from: admit, queue, complete-and-promote.
func TestPoolEventsAdmissionLifecycle(t *testing.T) {
	p := cluster.NewPool([]*device.Platform{device.NVIDIAK20m()}, cluster.RoundRobin(), 1)
	var evs []cluster.PoolEvent
	p.SetObserver(func(ev cluster.PoolEvent) { evs = append(evs, ev) })

	e1 := exec(1, "a", 64, 100)
	e2 := exec(2, "b", 64, 100)
	if _, kind := p.Submit(e1); kind != cluster.EvAdmitted {
		t.Fatal("first submit not admitted")
	}
	if _, kind := p.Submit(e2); kind != cluster.EvQueued {
		t.Fatal("second submit admitted past maxResident")
	}
	if next := p.Complete(0, e1); next != e2 {
		t.Fatalf("Complete promoted %v, want e2", next)
	}

	want := []struct {
		kind cluster.PoolEventKind
		exec interface{}
	}{
		{cluster.EvAdmitted, e1},
		{cluster.EvQueued, e2},
		{cluster.EvCompleted, e1},
		{cluster.EvAdmitted, e2},
	}
	if len(evs) != len(want) {
		t.Fatalf("got %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Exec != w.exec {
			t.Errorf("event %d = kind %v exec %v, want kind %v exec %v",
				i, evs[i].Kind, evs[i].Exec, w.kind, w.exec)
		}
		if evs[i].Dev != 0 {
			t.Errorf("event %d on dev %d, want 0", i, evs[i].Dev)
		}
	}
}

// TestPoolEventsMigration checks Rebalance reports queue steals as
// EvMigrated on the receiving device.
func TestPoolEventsMigration(t *testing.T) {
	// Round-robin over two devices with maxResident 1: e1->dev0,
	// e2->dev1, e3->dev0's queue.
	p := cluster.NewPool(twoShapes(), cluster.RoundRobin(), 1)
	var evs []cluster.PoolEvent
	p.SetObserver(func(ev cluster.PoolEvent) { evs = append(evs, ev) })

	e1 := exec(1, "a", 64, 100)
	e2 := exec(2, "b", 64, 100)
	e3 := exec(3, "c", 64, 100)
	p.Submit(e1)
	p.Submit(e2)
	if _, kind := p.Submit(e3); kind != cluster.EvQueued {
		t.Fatal("e3 admitted past maxResident")
	}
	// dev1 drains; its queue is empty, so Rebalance steals e3 there.
	p.Complete(1, e2)
	moves := p.Rebalance()
	if di, ok := moves[e3]; !ok || di != 1 {
		t.Fatalf("Rebalance moves = %v, want e3 -> dev1", moves)
	}
	last := evs[len(evs)-1]
	if last.Kind != cluster.EvMigrated || last.Exec != e3 || last.Dev != 1 {
		t.Errorf("last event = %+v, want EvMigrated e3 on dev 1", last)
	}
}
