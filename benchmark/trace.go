package main

// The traced run's span recorder. Spans are recorded only from the
// benchmark's own code, around calls into each layer, and kept in memory
// until the run ends; the end-to-end run records nothing (a nil *tracer
// is a no-op).

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer collects spans from any goroutine.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newID reserves a span ID, so a caller can hand it to a callee (over
// HTTP, in a header) before the span ends.
func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores a finished span; a nil tracer drops it.
func (t *tracer) record(id, parent uint64, req int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed runs fn inside a new root span and returns its duration.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	fn()
	end := time.Now()
	t.record(t.newID(), 0, 0, name, start, end)
	return end.Sub(start)
}

// snapshot returns a copy of every span recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsUs returns the durations, in microseconds, of spans named name
// whose start lies in [from, to) (nanoseconds since the epoch).
func durationsUs(spans []span, name string, from, to int64) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// selfTimesUs returns, for every span named name started in [from, to),
// its self time in microseconds: its duration minus the union of its
// children's intervals.
func selfTimesUs(spans []span, name string, from, to int64) []float64 {
	children := map[uint64][]interval{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.Start >= from && s.Start < to {
			out = append(out, float64(selfTime(interval{s.Start, s.End}, children[s.ID]))/1e3)
		}
	}
	return out
}

// dump writes every span as one JSON line to path, creating its
// directory.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("span dump: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
