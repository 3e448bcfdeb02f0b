package main

import "testing"

// TestBuildRuntimeOneDeviceIsBounded: -max-resident applies to a single
// device exactly as to a larger pool (it used to be dropped silently),
// and -devices below one still serves one device.
func TestBuildRuntimeOneDeviceIsBounded(t *testing.T) {
	for _, devices := range []int{0, 1, 3} {
		rt, err := buildRuntime(devices, "least-loaded", 2)
		if err != nil {
			t.Fatal(err)
		}
		if !rt.Pool().Bounded() {
			t.Errorf("-devices %d -max-resident 2: pool is unbounded", devices)
		}
		if got, want := len(rt.Pool().Devices()), max(devices, 1); got != want {
			t.Errorf("-devices %d: pool has %d devices, want %d", devices, got, want)
		}
		rt.Shutdown()
	}
	if _, err := buildRuntime(1, "no-such-policy", 0); err == nil {
		t.Error("unknown policy accepted")
	}
}
