package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Spans of one request
// share ID; Parent indexes the span that caused this one (-1 for roots).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer (an
// untraced run) records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span starting at start and returns its index, or -1
// when tracing is off for this call.
func (t *tracer) begin(name string, id uint64, parent int, on bool, start time.Time) int {
	if t == nil || !on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: int64(start.Sub(t.t0))})
	return len(t.spans) - 1
}

// end closes span i now.
func (t *tracer) end(i int) {
	if i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its duration.
func (t *tracer) timed(name string, id uint64, f func()) time.Duration {
	start := time.Now()
	i := t.begin(name, id, -1, true, start)
	f()
	t.end(i)
	return time.Since(start)
}

// write dumps every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
