package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call (the program itself is not instrumented). Spans of
// one cycle share Workload and Rep; Parent is the enclosing span's ID,
// 0 for a cycle's root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, which is how the untraced run is spelled.
type tracer struct {
	workload string
	origin   time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// add records a finished span and returns its ID for use as a parent.
func (t *tracer) add(name string, rep, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: rep,
		StartUS: float64(start.Sub(t.origin)) / 1e3,
		EndUS:   float64(end.Sub(t.origin)) / 1e3,
	})
	return id
}

// seconds returns the duration of every span with the given name.
func (t *tracer) seconds(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.EndUS-s.StartUS)/1e6)
		}
	}
	return out
}

// writeJSON writes v indented to dir/name, creating dir.
func writeJSON(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}
