package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Spans of one refresh cycle or one request share ID;
// Parent indexes the enclosing span (-1 for a root).
type span struct {
	Name    string `json:"name"`
	ID      uint64 `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder keeps spans in memory and writes them out at the end of the
// run. A nil or disabled recorder records nothing, so untraced runs pay
// one branch per call site.
type recorder struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder(on bool) *recorder { return &recorder{on: on, t0: time.Now()} }

// begin opens a span and returns its handle (-1 when not recording).
func (r *recorder) begin(name string, id uint64, parent int) int {
	if r == nil || !r.on {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, StartNS: now})
	return len(r.spans) - 1
}

// end closes the span h.
func (r *recorder) end(h int) {
	if r == nil || !r.on || h < 0 {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[h].EndNS = now
	r.mu.Unlock()
}

// add records a span whose start and end the caller measured itself.
func (r *recorder) add(name string, id uint64, parent int, start, end time.Time) {
	if r == nil || !r.on {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent,
		StartNS: start.Sub(r.t0).Nanoseconds(), EndNS: end.Sub(r.t0).Nanoseconds()})
	r.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (r *recorder) write(path string) error {
	if r == nil || !r.on {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
