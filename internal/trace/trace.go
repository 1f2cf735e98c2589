// Package trace is the observability layer of the pipeline: a lightweight
// span tracer plus a counter registry, threaded through compilation
// (parse → normalize → MEMO → XML → enumeration → DSQL generation) and
// execution (per-step spans carrying the engine's StepMetric payloads).
//
// The tracer is nil-disabled: a nil *Tracer is the "off" tracer, every
// method on it (and on the Active handles it returns) no-ops without
// taking a lock, reading the clock, or allocating. The hot execution path
// therefore pays nothing when tracing is off — a property locked down by
// TestDisabledTracerZeroAlloc and BenchmarkSpanDisabled.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// SpanID identifies a recorded span; 0 is "no span" (the root parent).
type SpanID int

// Attr is one key/value annotation on a span. Exactly one of Val/Str is
// meaningful, per IsStr.
type Attr struct {
	Key   string `json:"key"`
	Val   int64  `json:"val,omitempty"`
	Str   string `json:"str,omitempty"`
	IsStr bool   `json:"-"`
}

// StepStats is the execution payload of one DSQL step span, mirroring the
// engine's StepMetric (the engine converts; trace stays dependency-free).
type StepStats struct {
	Step         int           `json:"step"`
	Move         string        `json:"move,omitempty"`
	IsMove       bool          `json:"isMove"`
	Rows         int64         `json:"rows"`
	Bytes        int64         `json:"bytes"`
	HashedRows   int64         `json:"hashedRows,omitempty"`
	MaxNodeBytes int64         `json:"maxNodeBytes,omitempty"`
	Attempts     int           `json:"attempts"`
	Duration     time.Duration `json:"durationNs"`
	// LocalOps/LocalRows are the node-local evaluation tallies behind the
	// step (operators run, rows produced), summed over source nodes.
	LocalOps  int64 `json:"localOps,omitempty"`
	LocalRows int64 `json:"localRows,omitempty"`
	// LocalBatches counts the column batches the vectorized executor
	// emitted (zero under the row engine).
	LocalBatches int64 `json:"localBatches,omitempty"`
}

// Span is one recorded interval (or instantaneous event, Dur == 0).
type Span struct {
	ID     SpanID        `json:"id"`
	Parent SpanID        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"` // offset from the tracer epoch
	Dur    time.Duration `json:"durNs"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Step   *StepStats    `json:"step,omitempty"`
	Err    string        `json:"err,omitempty"`
}

// Tracer records spans and counters for one pipeline run. Safe for
// concurrent use; a nil Tracer is the disabled tracer.
type Tracer struct {
	epoch time.Time // immutable after New
	reg   *Registry // immutable after New; Registry is internally synchronized
	mu    sync.Mutex
	spans []Span
}

// New builds an enabled tracer with a fresh counter registry.
func New() *Tracer {
	return &Tracer{epoch: time.Now(), reg: NewRegistry()}
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil }

// Counters exposes the tracer's registry (nil when disabled; the Registry
// methods are themselves nil-safe, so callers need not check).
func (t *Tracer) Counters() *Registry {
	if t == nil {
		return nil
	}
	return t.reg
}

// Active is a live span handle. The zero Active (from a disabled tracer)
// no-ops everywhere.
type Active struct {
	t     *Tracer
	id    SpanID
	start time.Time
}

// Begin starts a root-level span.
func (t *Tracer) Begin(name string) Active { return t.BeginUnder(0, name) }

// BeginUnder starts a span as a child of parent (0 = root).
func (t *Tracer) BeginUnder(parent SpanID, name string) Active {
	if t == nil {
		return Active{}
	}
	now := time.Now()
	t.mu.Lock()
	id := SpanID(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: now.Sub(t.epoch)})
	t.mu.Unlock()
	return Active{t: t, id: id, start: now}
}

// Event records an instantaneous child span.
func (t *Tracer) Event(parent SpanID, name string) {
	if t == nil {
		return
	}
	t.BeginUnder(parent, name)
}

// ID returns the span's identity for parenting children (0 when disabled).
func (a Active) ID() SpanID { return a.id }

// End closes the span, recording its duration.
func (a Active) End() {
	if a.t == nil {
		return
	}
	d := time.Since(a.start)
	a.t.mu.Lock()
	a.t.spans[a.id-1].Dur = d
	a.t.mu.Unlock()
}

// Int annotates the span with an integer attribute.
func (a Active) Int(key string, v int64) {
	if a.t == nil {
		return
	}
	a.t.mu.Lock()
	sp := &a.t.spans[a.id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Val: v})
	a.t.mu.Unlock()
}

// Bool annotates the span with a 0/1 integer attribute.
func (a Active) Bool(key string, v bool) {
	n := int64(0)
	if v {
		n = 1
	}
	a.Int(key, n)
}

// Str annotates the span with a string attribute.
func (a Active) Str(key, v string) {
	if a.t == nil {
		return
	}
	a.t.mu.Lock()
	sp := &a.t.spans[a.id-1]
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Str: v, IsStr: true})
	a.t.mu.Unlock()
}

// SetStep attaches a step-execution payload to the span.
func (a Active) SetStep(s StepStats) {
	if a.t == nil {
		return
	}
	// Copy inside the enabled branch only: taking the parameter's address
	// directly would force it to the heap even on the disabled path,
	// breaking the zero-allocation contract.
	c := s
	a.t.mu.Lock()
	a.t.spans[a.id-1].Step = &c
	a.t.mu.Unlock()
}

// SetErr records the span's failure; nil clears nothing and no-ops.
func (a Active) SetErr(err error) {
	if a.t == nil || err == nil {
		return
	}
	msg := err.Error()
	a.t.mu.Lock()
	a.t.spans[a.id-1].Err = msg
	a.t.mu.Unlock()
}

// Spans returns a deep copy of the recorded spans in record order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	for i := range out {
		if len(out[i].Attrs) > 0 {
			out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
		}
		if out[i].Step != nil {
			s := *out[i].Step
			out[i].Step = &s
		}
	}
	return out
}

// StepSpans returns copies of the spans carrying step payloads, in record
// (= serial step execution) order.
func (t *Tracer) StepSpans() []Span {
	var out []Span
	for _, s := range t.Spans() {
		if s.Step != nil {
			out = append(out, s)
		}
	}
	return out
}

// String renders an attribute for text output.
func (a Attr) String() string {
	if a.IsStr {
		return fmt.Sprintf("%s=%q", a.Key, a.Str)
	}
	return fmt.Sprintf("%s=%d", a.Key, a.Val)
}
