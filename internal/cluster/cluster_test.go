// The external test package breaks the accelos -> cluster dependency
// direction so these tests can drive the cluster layer with the real
// §3 weighted planner.
package cluster_test

import (
	"testing"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/sim"
)

// twoShapes returns a deliberately heterogeneous pool: the two
// evaluation platforms differ in CU count, threads/CU, local memory,
// warp size and launch overhead.
func twoShapes() []*device.Platform {
	return []*device.Platform{device.NVIDIAK20m(), device.AMDR9295X2()}
}

func exec(id int, tenant string, wgs, numWGs int64) *sim.ClusterExec {
	return &sim.ClusterExec{
		K: &sim.KernelExec{
			ID: id, Name: tenant, WGSize: wgs, NumWGs: numWGs,
			LocalBytes: 1024, RegsPerThread: 20,
			BaseWGCost: 8000, MemIntensity: 0.3, SatFrac: 0.5, Chunk: 2,
		},
		Tenant: tenant,
	}
}

func sched(pol cluster.Policy) *cluster.Scheduler {
	return cluster.NewScheduler(pol, accelos.PlanWeighted)
}

// TestPoliciesOverHeterogeneousPool exercises every placement policy
// over both device shapes: all requests must complete, deterministically,
// on every policy.
func TestPoliciesOverHeterogeneousPool(t *testing.T) {
	for _, name := range cluster.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			pol, err := cluster.PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			var execs []*sim.ClusterExec
			for i := 0; i < 8; i++ {
				e := exec(i, []string{"a", "b"}[i%2], 64+int64(i%3)*64, 2000+int64(i)*500)
				e.Arrival = int64(i) * 5000
				execs = append(execs, e)
			}
			r := sim.RunCluster(twoShapes(), execs, sched(pol), sim.ClusterOptions{Rebalance: true})
			if r.Makespan <= 0 {
				t.Fatal("zero makespan")
			}
			for i, tm := range r.Timings {
				if tm.End <= 0 {
					t.Errorf("exec %d never completed under %s", i, name)
				}
			}
			// Both heterogeneous shapes must actually be used.
			busy := 0
			for _, d := range r.Devices {
				if d.BusyCycles > 0 {
					busy++
				}
			}
			if busy < 2 {
				t.Errorf("%s left a pool member idle for the whole run", name)
			}
		})
	}
}

func TestPolicyByNameUnknown(t *testing.T) {
	if _, err := cluster.PolicyByName("speculative"); err == nil {
		t.Error("unknown policy name should fail")
	}
	if len(cluster.PolicyNames()) < 4 {
		t.Errorf("want >= 4 registered policies, have %v", cluster.PolicyNames())
	}
}

func TestRoundRobinCycles(t *testing.T) {
	pol := cluster.RoundRobin()
	loads := poolLoads(3)
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		seen[pol.Pick(exec(i, "t", 64, 100), loads)] = true
	}
	if len(seen) != 3 {
		t.Errorf("round-robin visited %d of 3 devices", len(seen))
	}
}

func TestLeastLoadedNormalizesByCapacity(t *testing.T) {
	pol := cluster.LeastLoaded()
	loads := poolLoads(2)
	// Same absolute backlog on both devices: the wider AMD device
	// (index 1: 44 CUs x 2560 threads vs 13 x 2048) is less loaded
	// per thread slot.
	loads[0].PendingWork = 1 << 20
	loads[1].PendingWork = 1 << 20
	if got := pol.Pick(exec(0, "t", 64, 100), loads); got != 1 {
		t.Errorf("least-loaded picked %d, want the wider device 1", got)
	}
}

func TestBestFitMatchesFootprintToShape(t *testing.T) {
	pol := cluster.BestFit()
	loads := poolLoads(2)
	// A small grid wastes the AMD device's width; best-fit should keep
	// it on the narrower NVIDIA shape.
	small := exec(0, "t", 64, 128)
	if got := pol.Pick(small, loads); got != 0 {
		t.Errorf("best-fit placed a small grid on device %d, want 0", got)
	}
	// A huge grid gets the width it can use.
	big := exec(1, "t", 64, 2_000_000)
	if got := pol.Pick(big, loads); got != 1 {
		t.Errorf("best-fit placed a huge grid on device %d, want 1", got)
	}
}

func TestTenantAffinityIsSticky(t *testing.T) {
	pol := cluster.TenantAffinity()
	loads := poolLoads(4)
	first := pol.Pick(exec(0, "tenant-x", 64, 100), loads)
	for i := 1; i < 5; i++ {
		if got := pol.Pick(exec(i, "tenant-x", 64, 100), loads); got != first {
			t.Errorf("tenant-x moved from %d to %d with no backlog", first, got)
		}
	}
	// Overload the home device: the tenant must spill.
	loads[first].PendingWork = 1 << 40
	for i := range loads {
		if i != first {
			loads[i].PendingWork = 1
		}
	}
	if got := pol.Pick(exec(9, "tenant-x", 64, 100), loads); got == first {
		t.Error("tenant-affinity did not spill off an overloaded home device")
	}
}

func poolLoads(n int) []sim.DeviceLoad {
	devs := device.PoolOf(n)
	loads := make([]sim.DeviceLoad, n)
	for i, d := range devs {
		loads[i] = sim.DeviceLoad{Dev: d, Index: i}
	}
	return loads
}

// TestAggregateTenantFairness is the acceptance bar for the cluster
// scheduler: three tenants with equal weights and symmetric demand over
// a heterogeneous pool end up with aggregate shares within 10% of
// equal, and the cluster beats single-device serial execution.
func TestAggregateTenantFairness(t *testing.T) {
	devs := device.PoolOf(3) // NVIDIA, AMD, NVIDIA: two shapes
	var execs []*sim.ClusterExec
	id := 0
	for _, tenant := range []string{"a", "b", "c"} {
		for j := 0; j < 3; j++ {
			execs = append(execs, exec(id, tenant, 128, 6000))
			id++
		}
	}
	// Round-robin over tenant-grouped submissions lands one kernel of
	// each tenant on every device, so the per-device §3 equal shares
	// compose into equal aggregates across the heterogeneous pool.
	r := sim.RunCluster(devs, execs, sched(cluster.RoundRobin()), sim.ClusterOptions{Rebalance: true})
	shares := r.TenantShares()
	want := 1.0 / 3
	for tenant, s := range shares {
		if s < want*0.9 || s > want*1.1 {
			t.Errorf("tenant %s aggregate share %.3f outside 10%% of %.3f (all: %v)",
				tenant, s, want, shares)
		}
	}

	// Single-device serial yardstick: every request back to back on the
	// pool's first device.
	var serial int64
	for _, e := range execs {
		serial += e.K.EstimateIsolatedCycles(devs[0]) * e.K.NumIters()
	}
	if r.Makespan >= serial {
		t.Errorf("cluster makespan %d did not beat single-device serial %d", r.Makespan, serial)
	}
}

// TestTenantWeightsSkewAggregates checks the weighted generalization: a
// weight-3 tenant receives about three times the aggregate capacity of
// a weight-1 tenant with identical demand.
func TestTenantWeightsSkewAggregates(t *testing.T) {
	// Both tenants contend on one device so the 3:1 weights are what
	// divides capacity.
	devs := device.PoolOf(1)
	execs := []*sim.ClusterExec{
		exec(0, "gold", 128, 8000),
		exec(1, "free", 128, 8000),
	}
	s := sched(cluster.RoundRobin())
	s.TenantWeights = map[string]float64{"gold": 3, "free": 1}
	r := sim.RunCluster(devs, execs, s, sim.ClusterOptions{})
	shares := r.TenantShares()
	ratio := shares["gold"] / shares["free"]
	if ratio < 2 {
		t.Errorf("3:1 tenant weights produced aggregate ratio %.2f, want >= 2 (shares %v)", ratio, shares)
	}
}

// TestSchedulerEqualizesAcrossDeviceCounts: a tenant whose kernels are
// spread over many devices must not out-collect a tenant confined to
// one; per-exec weights divide by the cluster-wide kernel count.
func TestSchedulerEqualizesAcrossDeviceCounts(t *testing.T) {
	// Homogeneous pool so the comparison isolates the weighting, not
	// device width.
	devs := []*device.Platform{device.NVIDIAK20m(), device.NVIDIAK20m()}
	// Tenant "many" submits 4 kernels, tenant "one" submits 1, all
	// identical and all arriving together.
	var execs []*sim.ClusterExec
	for i := 0; i < 4; i++ {
		execs = append(execs, exec(i, "many", 128, 4000))
	}
	execs = append(execs, exec(4, "one", 128, 4000))
	r := sim.RunCluster(devs, execs, sched(cluster.LeastLoaded()), sim.ClusterOptions{})
	shares := r.TenantShares()
	// "many" finishes its shards later (same total capacity spread over
	// 4 kernels), so exact equality is not expected — but it must not
	// collect multiples of "one"'s share the way per-kernel equal
	// division (4 kernels vs 1) would give it.
	if shares["many"] > 3*shares["one"] {
		t.Errorf("tenant with 4 kernels collected %.3f vs %.3f — per-tenant weighting not applied",
			shares["many"], shares["one"])
	}
}

func TestPoolAdmissionAndSteal(t *testing.T) {
	devs := twoShapes()
	p := cluster.NewPool(devs, cluster.RoundRobin(), 1)
	a := exec(0, "t", 64, 1000)
	b := exec(1, "t", 64, 1000)
	c := exec(2, "t", 64, 1000)
	if _, kind := p.Submit(a); kind != cluster.EvAdmitted {
		t.Fatal("first request on an empty device should be admitted")
	}
	if _, kind := p.Submit(b); kind != cluster.EvAdmitted {
		t.Fatal("second request lands on the other empty device")
	}
	di, kind := p.Submit(c)
	if kind != cluster.EvQueued {
		t.Fatal("third request should queue behind the admission limit")
	}
	loads := p.Loads()
	if loads[di].Queued != 1 {
		t.Errorf("device %d shows %d queued, want 1", di, loads[di].Queued)
	}
	// Completing the resident request admits the queued one.
	var done *sim.ClusterExec
	if di == 0 {
		done = p.Complete(0, a)
	} else {
		done = p.Complete(1, b)
	}
	if done != c {
		t.Errorf("Complete admitted %v, want the queued request", done)
	}
	if got := len(p.ResidentOn(di)); got != 1 {
		t.Errorf("%d resident on device %d after refill, want 1", got, di)
	}
}

// TestPoolChargesWorkOnce: the work a request adds to its device's load
// is computed at Submit and remembered, so what Complete, Rebalance and
// HealDevice move is exactly what was charged — even if the caller's
// description of the request changed meanwhile — and a drained pool
// reads zero pending work.
func TestPoolChargesWorkOnce(t *testing.T) {
	devs := []*device.Platform{device.NVIDIAK20m(), device.AMDR9295X2()}
	p := cluster.NewPool(devs, cluster.RoundRobin(), 1)
	a := &sim.ClusterExec{K: &sim.KernelExec{ID: 1, WGSize: 64, NumWGs: 40, BaseWGCost: 100, Imbalance: 0.5}, Tenant: "a"}
	b := &sim.ClusterExec{K: &sim.KernelExec{ID: 2, WGSize: 64, NumWGs: 8}, Tenant: "b"}
	c := &sim.ClusterExec{K: &sim.KernelExec{ID: 3, WGSize: 64, NumWGs: 16, Iters: 3}, Tenant: "c"}
	da, _ := p.Submit(a)
	db, _ := p.Submit(b)
	if _, kind := p.Submit(c); kind != cluster.EvQueued || da != 0 || db != 1 {
		t.Fatalf("setup: a on %d, b on %d, c %v; want 0, 1, queued", da, db, kind)
	}
	charged := p.Loads()
	if want := a.K.TotalWork() + c.K.TotalWork()*3; charged[0].PendingWork != want {
		t.Fatalf("device 0 charged %d, want %d", charged[0].PendingWork, want)
	}
	cWork := c.K.TotalWork() * 3
	a.K.NumWGs, c.K.Iters = 4000, 1 // must not move the books
	p.Complete(db, b)
	if moved := p.Rebalance(); moved[c] != 1 {
		t.Fatalf("c did not migrate to the drained device: %v", moved)
	}
	if l := p.Loads(); l[1].PendingWork != cWork || l[0].PendingWork != charged[0].PendingWork-cWork {
		t.Errorf("after migrating c: pending %d and %d, want %d and %d",
			l[0].PendingWork, l[1].PendingWork, charged[0].PendingWork-cWork, cWork)
	}
	p.Complete(da, a)
	p.Complete(1, c)
	for _, l := range p.Loads() {
		if l.PendingWork != 0 {
			t.Errorf("device %d: %d work pending in a drained pool", l.Index, l.PendingWork)
		}
	}
}

func TestPoolRebalanceFeedsIdleDevice(t *testing.T) {
	devs := twoShapes()
	// Sticky policy: everything on device 0.
	p := cluster.NewPool(devs, stickyPolicy{}, 1)
	a := exec(0, "t", 64, 1000)
	b := exec(1, "t", 64, 1000)
	p.Submit(a)
	p.Submit(b) // queued behind a on device 0
	moves := p.Rebalance()
	if moves[b] != 1 {
		t.Errorf("rebalance moves %v, want request b on device 1", moves)
	}
	if got := len(p.ResidentOn(1)); got != 1 {
		t.Errorf("device 1 has %d resident after rebalance, want 1", got)
	}
}

type stickyPolicy struct{}

func (stickyPolicy) Name() string                                    { return "sticky" }
func (stickyPolicy) Pick(e *sim.ClusterExec, l []sim.DeviceLoad) int { return 0 }
