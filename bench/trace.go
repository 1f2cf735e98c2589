package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded interval at a layer boundary. Op groups the spans
// of one benchmark operation; Parent is the span that caused this one
// (0 for an operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// recorder is the benchmark's own span recorder: spans and counts are kept
// in memory and written once, when the run ends. A nil recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]float64
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), counts: map[string]float64{}}
}

// begin opens a span and returns its id; end closes it.
func (r *recorder) begin(parent, op int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].EndNS = now
	r.mu.Unlock()
}

// count adds n to a named per-layer count, recorded at the same boundary
// as the span that did the work.
func (r *recorder) count(name string, n float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counts[name] += n
	r.mu.Unlock()
}

// selfMS sums, per span name, each span's duration minus the part of it
// its child spans cover, in milliseconds.
func (r *recorder) selfMS() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, edge), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += float64(s.EndNS-s.StartNS-covered) / 1e6
	}
	return out
}

// totalMS sums span durations per name, children included.
func (r *recorder) totalMS(name string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var ns int64
	for _, s := range r.spans {
		if s.Name == name {
			ns += s.EndNS - s.StartNS
		}
	}
	return float64(ns) / 1e6
}

// write stores the spans and counts as one JSON document.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans  []span             `json:"spans"`
		Counts map[string]float64 `json:"counts"`
	}{r.spans, r.counts})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
