package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"testing"
	"time"

	"repro/internal/accelos"
	"repro/internal/opencl"
	"repro/internal/wire"
)

// TestRetryable pins the transient/fatal classification, including
// wrapped chains the way real call sites produce them.
func TestRetryable(t *testing.T) {
	refused := &net.OpError{Op: "dial", Net: "unix", Err: syscall.ECONNREFUSED}
	missing := &net.OpError{Op: "dial", Net: "unix",
		Err: &os.SyscallError{Syscall: "connect", Err: syscall.ENOENT}}
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"backpressure", wire.ErrBackpressure, true},
		{"rate-limited", wire.ErrRateLimited, true},
		{"client-closed", ErrClientClosed, true},
		{"client-closed-wrapped", fmt.Errorf("%w: read: EOF", ErrClientClosed), true},
		{"dial-refused", refused, true},
		{"dial-socket-missing", missing, true},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"remote-backpressure", wire.CodeBackpressure.Err("window full"), true},
		{"bad-handshake", wire.ErrBadHandshake, false},
		{"unknown-tenant", wire.ErrUnknownTenant, false},
		{"remote-unknown-tenant", wire.CodeUnknownTenant.Err("bad token"), false},
		{"app-closed", accelos.ErrAppClosed, false},
		{"device-lost", accelos.ErrDeviceLost, false},
		{"kernel-timeout", accelos.ErrKernelTimeout, false},
		{"quarantined", accelos.ErrKernelQuarantined, false},
		{"arbitrary", errors.New("something else"), false},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestBackoffSchedule checks the exponential shape, the cap, the jitter
// bound, and that a fixed seed reproduces the same schedule.
func TestBackoffSchedule(t *testing.T) {
	opts := DialOptions{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond, Seed: 42}
	a, b := newBackoff(opts), newBackoff(opts)
	base := opts.Backoff
	for i := 0; i < 10; i++ {
		da, db := a.next(), b.next()
		if da != db {
			t.Fatalf("step %d: same seed diverged: %v vs %v", i, da, db)
		}
		if da < base || da > 2*base {
			t.Fatalf("step %d: delay %v outside [base, 2*base] for base %v", i, da, base)
		}
		base *= 2
		if base > opts.MaxBackoff {
			base = opts.MaxBackoff
		}
	}

	// Defaults kick in for the zero value.
	z := newBackoff(DialOptions{})
	if z.base != 10*time.Millisecond || z.max != time.Second {
		t.Fatalf("zero-value defaults = (%v, %v), want (10ms, 1s)", z.base, z.max)
	}
}

// TestDialWithOptionsFatalStopsRetrying proves a fatal error short-
// circuits the retry loop: against a daemon that rejects the tenant,
// the dial must fail immediately with the typed error even with a
// large Retry budget.
func TestDialWithOptionsFatalStopsRetrying(t *testing.T) {
	rt := accelos.NewRuntime(opencl.GetPlatforms()[0])
	_, sock := startService(t, rt, Options{Auth: map[string]string{"alice": "sesame"}})

	start := time.Now()
	_, err := DialWithOptions(sock, "mallory", "", DialOptions{
		Retry:   100,
		Backoff: 50 * time.Millisecond,
	})
	if !errors.Is(err, wire.ErrUnknownTenant) {
		t.Fatalf("err = %v, want ErrUnknownTenant", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("fatal dial error took %v — the retry loop did not short-circuit", d)
	}
}
