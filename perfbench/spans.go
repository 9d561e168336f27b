package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it, -1 for a root.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps a run's spans in memory. A nil *tracer records nothing, so
// untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its index.
func (tr *tracer) begin(name string, parent int) int {
	if tr == nil {
		return -1
	}
	tr.spans = append(tr.spans, span{Name: name, Parent: parent, StartNS: int64(time.Since(tr.t0))})
	return len(tr.spans) - 1
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	tr.spans[id].EndNS = int64(time.Since(tr.t0))
}

// timeSpan runs f inside a span and returns f's wall time.
func (tr *tracer) timeSpan(name string, parent int, f func()) time.Duration {
	id := tr.begin(name, parent)
	start := time.Now()
	f()
	d := time.Since(start)
	tr.end(id)
	return d
}

// total sums the durations of the spans with the given name opened after
// span from (all of them for from < 0).
func (tr *tracer) total(name string, from int) time.Duration {
	if tr == nil {
		return 0
	}
	var d int64
	for _, s := range tr.spans[from+1:] {
		if s.Name == name {
			d += s.EndNS - s.StartNS
		}
	}
	return time.Duration(d)
}

// writeFile writes the spans as JSON.
func (tr *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{tr.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
