package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call made by the harness into a layer's public
// surface. Parent is the span of the enclosing rung of the ladder (0 for a
// root); Op groups the spans of one logical operation. Rungs are timed in
// separate calls on the same stored bytes, so a child lies inside its
// parent by construction of the ladder, not in time: a layer's self time
// is its duration minus the sum of its children's.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      string `json:"op"`
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// recorder keeps spans in memory until the benchmark ends. A nil recorder
// records nothing: end-to-end metrics are measured with tracing off.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	first map[string]int // rung name -> ID of its first span (the parent link)
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), first: map[string]int{}}
}

// add records one finished call and returns its span ID.
func (r *recorder) add(op, name, parent string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: r.first[parent], Op: op, Name: name,
		StartUs: start.Sub(r.t0).Microseconds(), EndUs: end.Sub(r.t0).Microseconds(),
	})
	if _, ok := r.first[name]; !ok {
		r.first[name] = id
	}
	return id
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// probe is one rung of the traced pass: it calls fn repeatedly on a single
// goroutine, records every call as a span under parent, and returns the
// median duration. It stops after maxReps calls or once budget is spent,
// but never before minReps calls.
type prober struct {
	rec     *recorder
	minReps int
	maxReps int
	budget  time.Duration
}

func (p prober) run(op, name, parent string, fn func()) time.Duration {
	var ds []time.Duration
	var spent time.Duration
	for len(ds) < p.minReps || (len(ds) < p.maxReps && spent < p.budget) {
		t0 := time.Now()
		fn()
		t1 := time.Now()
		p.rec.add(op, name, parent, t0, t1)
		ds = append(ds, t1.Sub(t0))
		spent += t1.Sub(t0)
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}
