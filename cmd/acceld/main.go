// Command acceld is the out-of-process accelOS daemon: one runtime over
// a pool of one or more devices, served behind a unix socket
// speaking the internal/wire protocol. Client processes attach with
// service.Dial and get the full ProxyCL surface; buffer bytes are
// shared through mmap'd segments, so only control frames cross the
// socket.
//
// Usage:
//
//	acceld -socket /tmp/acceld.sock
//	acceld -devices 4 -policy least-loaded -max-resident 2
//	acceld -auth "alice=sesame,bob=hunter2" -rate 500 -burst 64
//
// SIGINT/SIGTERM drains every connection (releasing tenant buffers and
// cancelling in-flight launches), dumps the service metrics, and exits.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/accelos"
	"repro/internal/cluster"
	"repro/internal/opencl"
	"repro/internal/service"
	"repro/internal/telemetry"
)

func main() {
	socket := flag.String("socket", "/tmp/acceld.sock", "unix socket path to serve on")
	devices := flag.Int("devices", 1, "device pool size (alternating the two paper platforms)")
	policy := flag.String("policy", "least-loaded", "placement policy of the device pool")
	maxResident := flag.Int("max-resident", 0, "bounded admission: max resident executions per device (0 = unbounded)")
	maxInflight := flag.Int("max-inflight", 0, "per-connection in-flight enqueue window (0 = default 1024)")
	rate := flag.Float64("rate", 0, "per-tenant enqueue rate limit in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "rate-limit burst depth (0 = max(1, rate))")
	auth := flag.String("auth", "", "comma-separated tenant=token pairs; empty admits any tenant")
	shmDir := flag.String("shm-dir", "", "directory for shared-memory buffer segments (default: system temp)")
	sliceRounds := flag.Int64("slice-rounds", 0, "scheduler slice length in rounds (0 = runtime default)")
	dumpMetrics := flag.Bool("metrics", true, "dump service metrics on shutdown")
	flag.Parse()

	rt, err := buildRuntime(*devices, *policy, *maxResident)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *sliceRounds > 0 {
		rt.SetSliceRounds(*sliceRounds)
	}
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(nil, reg, nil)

	opts := service.Options{
		MaxInflight: *maxInflight,
		RatePerSec:  *rate,
		Burst:       *burst,
		ShmDir:      *shmDir,
		Metrics:     reg,
	}
	if *auth != "" {
		opts.Auth = make(map[string]string)
		for _, pair := range strings.Split(*auth, ",") {
			tenant, token, ok := strings.Cut(strings.TrimSpace(pair), "=")
			if !ok || tenant == "" {
				fmt.Fprintf(os.Stderr, "acceld: bad -auth entry %q (want tenant=token)\n", pair)
				os.Exit(2)
			}
			opts.Auth[tenant] = token
		}
	}

	srv := service.NewServer(rt, opts)
	if err := srv.Start(*socket); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("acceld: serving %d device(s) on %s\n", *devices, *socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("acceld: %v — draining %d connection(s)\n", s, srv.NumConns())
	srv.Close()
	st := rt.Stats()
	rt.Shutdown()
	os.Remove(*socket)
	fmt.Printf("acceld: served %d launches (%d queued)\n",
		st.KernelsLaunched, st.QueuedAdmissions)
	if *dumpMetrics {
		reg.WriteText(os.Stdout)
	}
}

// buildRuntime assembles the hosted runtime: a pool of devices (at least
// one) cycling the two paper machines under a placement policy, with
// optional bounded admission.
func buildRuntime(devices int, policy string, maxResident int) (*accelos.Runtime, error) {
	pol, err := cluster.PolicyByName(policy)
	if err != nil {
		return nil, err
	}
	var plats []*opencl.Platform
	for i := 0; i < max(devices, 1); i++ {
		plats = append(plats, opencl.GetPlatforms()[i%2])
	}
	return accelos.NewClusterRuntime(plats, pol, maxResident), nil
}
