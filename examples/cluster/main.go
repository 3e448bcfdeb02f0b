// Cluster: fair sharing across a heterogeneous accelerator pool.
//
// The walkthrough has two halves. First it runs the cluster SIMULATION
// (sim.RunCluster) over a 3-device pool: a multi-tenant workload is
// placed by a pluggable policy, each device divides itself among its
// residents with the paper's §3 share plan weighted so per-tenant
// AGGREGATE shares — not per-device shares — are equalized, and when a
// device drains, queued requests and split virtual-group ranges migrate
// to it. Then it runs the LIVE runtime over a pool
// (accelos.NewClusterRuntime): the same ProxyCL applications as the
// multitenant example, with launches spread across pool members by the
// placement policy.
package main

import (
	"fmt"
	"log"
	"sync"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/opencl"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	simulation()
	live()
}

func simulation() {
	devs := device.PoolOf(3)
	fmt.Println("=== cluster simulation: 3 tenants x 4 requests over 3 devices ===")
	for i, d := range devs {
		fmt.Printf("  device %d: %s (%d CUs x %d threads)\n", i, d.Name, d.NumCUs, d.ThreadsPerCU)
	}

	execs := workload.Tenants(devs, 3, 4, 0xC10)
	for _, polName := range cluster.PolicyNames() {
		pol, err := cluster.PolicyByName(polName)
		if err != nil {
			log.Fatal(err)
		}
		sched := cluster.NewScheduler(pol, accelos.PlanWeighted)
		res := sim.RunCluster(devs, workloadCopy(execs), sched, sim.ClusterOptions{Rebalance: true})

		fmt.Printf("\n--- policy %s ---\n", polName)
		fmt.Printf("  makespan %d cycles, %d migrations (%d range splits)\n",
			res.Makespan, res.Migrations, len(res.Splits))
		for i, d := range res.Devices {
			fmt.Printf("  device %d: %3d executions, busy %d cycles, %d steals in, %d splits in\n",
				i, d.Executions, d.BusyCycles, d.StealsIn, d.SplitsIn)
		}
		shares := res.TenantShares()
		for _, t := range experiments.SortedTenants(shares) {
			fmt.Printf("  %s aggregate share: %.2f\n", t, shares[t])
		}
		for _, s := range res.Splits {
			fmt.Printf("  migrated kernel %d virtual groups [%d,%d) from device %d to device %d at cycle %d\n",
				s.KernelID, s.Range[0], s.Range[1], s.From, s.To, s.At)
		}
	}
}

func workloadCopy(execs []*sim.ClusterExec) []*sim.ClusterExec {
	out := make([]*sim.ClusterExec, len(execs))
	for i, e := range execs {
		k := *e.K
		out[i] = &sim.ClusterExec{K: &k, Tenant: e.Tenant, Arrival: e.Arrival}
	}
	return out
}

const src = `kernel void scale(global int* data, int n) {
	int i = (int)get_global_id(0);
	if (i < n) data[i] = data[i] * 3;
}`

func live() {
	fmt.Println("\n=== live pooled runtime: 4 apps over 2 platforms ===")
	rt := accelos.NewClusterRuntime(opencl.GetPlatforms(), cluster.RoundRobin(), 0)
	defer rt.Shutdown()

	const n = 1 << 12
	var wg sync.WaitGroup
	for id := 0; id < 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			app := rt.Connect(fmt.Sprintf("app-%d", id))
			defer app.Close()
			prog, err := app.CreateProgram(src)
			if err != nil {
				log.Fatalf("app %d: %v", id, err)
			}
			buf, err := app.CreateBuffer(n * 4)
			if err != nil {
				log.Fatalf("app %d: %v", id, err)
			}
			defer buf.Release()
			k, err := prog.CreateKernel("scale")
			if err != nil {
				log.Fatalf("app %d: %v", id, err)
			}
			_ = k.SetArgBuffer(0, buf)
			_ = k.SetArgInt32(1, n)
			nd := opencl.NDRange{Dims: 1, Global: [3]int64{n, 1, 1}, Local: [3]int64{64, 1, 1}}
			// Chain the iterations through wait-list edges and block only
			// once at the end: the cluster scheduler sees the whole chain
			// as this app's pending window. (A nil wait-list entry is
			// skipped, so the first iteration needs no special case.)
			var prev *opencl.Event
			for it := 0; it < 3; it++ {
				ev, err := app.EnqueueKernelAsync(k, nd, prev)
				if err != nil {
					log.Fatalf("app %d: launch: %v", id, err)
				}
				prev = ev
			}
			if err := prev.Wait(); err != nil {
				log.Fatalf("app %d: chain: %v", id, err)
			}
		}(id)
	}
	wg.Wait()

	st := rt.Stats()
	fmt.Printf("runtime: %d programs JITed, %d launches total\n", st.ProgramsJITed, st.KernelsLaunched)
	for i, c := range st.DeviceLaunches {
		fmt.Printf("  pool member %d (%s): %d launches\n", i, rt.Pool().Devices()[i].Name, c)
	}
}
