package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one recorded call into a layer. Spans of one op share Op (the
// op's sequence number) and hang under the op's root span by Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Op     int    `json:"op"`
	Class  string `json:"class"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was made
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps spans in memory for the traced rounds of a run; they are
// written out once, after the timed phase. A nil *tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	ops   int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op opens a root span for one op and returns its sequence number.
func (t *tracer) op() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// add records a finished span and returns its id.
func (t *tracer) add(op, parent int, class, name string, start time.Time, dur time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Class: class, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), Dur: dur.Nanoseconds(),
	})
	return id
}

// selfTimes sums each span name's self time — its duration minus the part
// its children cover — in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make(map[int]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.Dur
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += float64(s.Dur-child[s.ID]) / 1e6
	}
	return self
}

// write saves the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}
