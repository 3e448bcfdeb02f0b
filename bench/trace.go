package main

import (
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// recorder keeps the harness's own spans in memory: one per public call
// the harness makes into a layer, each with its parent and the id of
// the op (chain, round or session) it belongs to. A nil recorder
// records nothing — the untraced run passes nil everywhere.
type recorder struct {
	mu    sync.Mutex
	spans []telemetry.Span
	next  int64
}

// newID reserves a span id, so children recorded first can name a
// parent recorded when it ends.
func (r *recorder) newID() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records [start,end] as span id under parent (0: a root). chain is
// the id of the root span of the op the span belongs to.
func (r *recorder) add(id, parent, chain int64, tenant, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, telemetry.Span{
		ID: id, Parent: parent,
		Proc: "bench", Thread: tenant, Cat: "bench", Name: name,
		Start: start, End: end,
		Args: []telemetry.Arg{{Key: "chain", Val: strconv.FormatInt(chain, 10)}},
	})
}

// write exports the spans as a Chrome trace_event document.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	werr := telemetry.WriteChromeTraceSpans(f, r.spans)
	r.mu.Unlock()
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
