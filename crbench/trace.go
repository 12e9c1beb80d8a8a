package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval of the traced run: a setup step, a Run call,
// a pipeline stage or a layer probe. Parent is the enclosing span's ID
// (0 for a root).
type Span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns"`
	Counts  map[string]uint64 `json:"counts,omitempty"`
}

func (s Span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// Tracer keeps the traced run's spans in memory; they are written out once
// the run ends. A nil *Tracer records nothing, which is how the untimed
// (end-to-end) run calls the same code without tracing.
type Tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	return t.Add(name, parent, time.Now(), time.Time{})
}

// Add records a span with known bounds (a zero end leaves it open).
func (t *Tracer) Add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := Span{ID: id, Parent: parent, Name: name, StartNS: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		s.EndNS = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, s)
	return id
}

// End closes span id now.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = int64(time.Since(t.t0))
}

// Count adds n to the named count of span id.
func (t *Tracer) Count(id int, key string, n uint64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	if s.Counts == nil {
		s.Counts = make(map[string]uint64)
	}
	s.Counts[key] += n
}

// Span returns a copy of span id.
func (t *Tracer) Span(id int) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1]
}

// Children returns copies of the spans whose parent is id.
func (t *Tracer) Children(id int) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// SelfTime is span id's duration minus the part of it its children cover.
func (t *Tracer) SelfTime(id int) time.Duration {
	parent := t.Span(id)
	kids := t.Children(id)
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var covered, reach int64
	reach = parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, reach), min(k.EndNS, parent.EndNS)
		if hi > lo {
			covered += hi - lo
			reach = hi
		}
	}
	return parent.dur() - time.Duration(covered)
}

// WriteFile writes every span as JSON.
func (t *Tracer) WriteFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.MarshalIndent(struct {
		Spans []Span `json:"spans"`
	}{t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
