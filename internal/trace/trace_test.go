package trace

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeRecording(t *testing.T) {
	tr := New()
	if !tr.Enabled() {
		t.Fatal("New tracer should be enabled")
	}
	root := tr.Begin("optimize")
	child := tr.BeginUnder(root.ID(), "parse")
	child.Int("tokens", 42)
	child.Str("sql", "SELECT 1")
	child.End()
	tr.Event(root.ID(), "prune")
	step := tr.BeginUnder(root.ID(), "step")
	step.SetStep(StepStats{Step: 3, IsMove: true, Move: "SHUFFLE", Rows: 10, Bytes: 100, Attempts: 2})
	step.SetErr(errors.New("boom"))
	step.End()
	root.End()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	if spans[0].Name != "optimize" || spans[0].Parent != 0 {
		t.Errorf("root span wrong: %+v", spans[0])
	}
	if spans[1].Parent != spans[0].ID {
		t.Errorf("parse should parent under optimize: %+v", spans[1])
	}
	if len(spans[1].Attrs) != 2 || spans[1].Attrs[0].Val != 42 || spans[1].Attrs[1].Str != "SELECT 1" {
		t.Errorf("attrs wrong: %+v", spans[1].Attrs)
	}
	if spans[2].Name != "prune" || spans[2].Dur != 0 {
		t.Errorf("event wrong: %+v", spans[2])
	}
	if spans[3].Step == nil || spans[3].Step.Bytes != 100 || spans[3].Step.Attempts != 2 {
		t.Errorf("step payload wrong: %+v", spans[3].Step)
	}
	if spans[3].Err != "boom" {
		t.Errorf("err not recorded: %q", spans[3].Err)
	}
	if spans[0].Dur <= 0 || spans[1].Dur <= 0 {
		t.Errorf("ended spans should have durations: %v %v", spans[0].Dur, spans[1].Dur)
	}

	steps := tr.StepSpans()
	if len(steps) != 1 || steps[0].Step.Step != 3 {
		t.Errorf("StepSpans wrong: %+v", steps)
	}
}

func TestSpansDeepCopy(t *testing.T) {
	tr := New()
	sp := tr.Begin("a")
	sp.Int("k", 1)
	sp.SetStep(StepStats{Rows: 5})
	sp.End()

	got := tr.Spans()
	got[0].Attrs[0].Val = 99
	got[0].Step.Rows = 99
	again := tr.Spans()
	if again[0].Attrs[0].Val != 1 || again[0].Step.Rows != 5 {
		t.Error("Spans must return copies, not aliases into the tracer")
	}
}

func TestDisabledTracerNilSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Error("nil tracer must be disabled")
	}
	sp := tr.Begin("x")
	sp2 := tr.BeginUnder(7, "y")
	tr.Event(0, "e")
	sp.Int("k", 1)
	sp.Str("k", "v")
	sp.SetStep(StepStats{})
	sp.SetErr(errors.New("x"))
	sp.End()
	sp2.End()
	if sp.ID() != 0 || sp2.ID() != 0 {
		t.Error("disabled spans must have ID 0")
	}
	if tr.Spans() != nil || tr.StepSpans() != nil {
		t.Error("disabled tracer must report no spans")
	}
	if tr.Text() != "" {
		t.Error("disabled tracer must render empty text")
	}
	if b, err := tr.JSON(); err != nil || string(b) != "null" {
		t.Errorf("disabled tracer JSON = %q, %v", b, err)
	}
	if tr.Counters() != nil {
		t.Error("disabled tracer must have nil counters")
	}
	// Registry methods on the nil registry are also nil-safe.
	tr.Counters().Add("n", 1)
	tr.Counters().Set("n", 1)
	if tr.Counters().Get("n") != 0 {
		t.Error("nil registry Get should be 0")
	}
	if tr.Counters().Snapshot() != nil || tr.Counters().Names() != nil {
		t.Error("nil registry should snapshot nil")
	}
	if tr.Counters().String() != "" {
		t.Error("nil registry should render empty")
	}
}

// TestDisabledTracerZeroAlloc locks down the hot-path contract: with
// tracing off, the span calls the engine makes per step cost zero
// allocations.
func TestDisabledTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin("step")
		sp.Int("id", 1)
		sp.SetStep(StepStats{Rows: 1, Bytes: 2})
		tr.Counters().Add("exec.steps", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f times per op, want 0", allocs)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Add("b", 2)
	r.Add("a", 1)
	r.Add("b", 3)
	r.Set("c", 7)
	if r.Get("b") != 5 || r.Get("a") != 1 || r.Get("c") != 7 {
		t.Errorf("counter values wrong: %v", r.Snapshot())
	}
	if r.Get("missing") != 0 {
		t.Error("missing counter should read 0")
	}
	if names := r.Names(); strings.Join(names, ",") != "a,b,c" {
		t.Errorf("Names not sorted: %v", names)
	}
	want := "a=1\nb=5\nc=7\n"
	if got := r.String(); got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	snap := r.Snapshot()
	snap["a"] = 99
	if r.Get("a") != 1 {
		t.Error("Snapshot must copy")
	}
}

func TestTextRendering(t *testing.T) {
	tr := New()
	root := tr.Begin("execute")
	s0 := tr.BeginUnder(root.ID(), "step")
	s0.SetStep(StepStats{Step: 0, IsMove: true, Move: "SHUFFLE", Rows: 10, Bytes: 80, Attempts: 1, LocalOps: 4, LocalRows: 99})
	s0.End()
	s1 := tr.BeginUnder(root.ID(), "step")
	s1.Int("id", 1)
	s1.SetErr(errors.New("injected"))
	s1.End()
	root.End()
	tr.Counters().Add("exec.steps", 2)

	out := tr.Text()
	for _, want := range []string{
		"execute", "step=0 rows=10 bytes=80 attempts=1 move=SHUFFLE",
		"local_ops=4 local_rows=99",
		"id=1", `err="injected"`, "-- counters", "exec.steps=2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Text missing %q:\n%s", want, out)
		}
	}
	// Children indent under their parent.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "  ") {
		t.Errorf("child span not indented:\n%s", out)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New()
	sp := tr.Begin("optimize")
	sp.Int("groups", 12)
	sp.End()
	tr.Counters().Add("optimize.options_considered", 240)

	data, err := tr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Counters map[string]int64 `json:"counters"`
		Spans    []Span           `json:"spans"`
	}
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, data)
	}
	if decoded.Counters["optimize.options_considered"] != 240 {
		t.Errorf("counters lost: %v", decoded.Counters)
	}
	if len(decoded.Spans) != 1 || decoded.Spans[0].Name != "optimize" {
		t.Errorf("spans lost: %+v", decoded.Spans)
	}
}

func TestAttrString(t *testing.T) {
	if got := (Attr{Key: "rows", Val: 7}).String(); got != "rows=7" {
		t.Errorf("int attr = %q", got)
	}
	if got := (Attr{Key: "sql", Str: "x", IsStr: true}).String(); got != `sql="x"` {
		t.Errorf("str attr = %q", got)
	}
}

func TestFmtDur(t *testing.T) {
	if fmtDur(0) != "-" {
		t.Error("zero duration should render as -")
	}
	if fmtDur(1500*time.Nanosecond) == "" {
		t.Error("nonzero duration should render")
	}
}

func TestConcurrentUse(t *testing.T) {
	tr := New()
	root := tr.Begin("parallel")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tr.BeginUnder(root.ID(), "group")
				sp.Int("worker", int64(i))
				tr.Counters().Add("groups", 1)
				sp.End()
			}
		}(i)
	}
	wg.Wait()
	root.End()
	if got := len(tr.Spans()); got != 1+8*50 {
		t.Errorf("got %d spans, want %d", got, 1+8*50)
	}
	if tr.Counters().Get("groups") != 400 {
		t.Errorf("counter = %d, want 400", tr.Counters().Get("groups"))
	}
	_ = tr.Text() // render under no lock violations
}

func BenchmarkSpanDisabled(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("step")
		sp.Int("id", int64(i))
		sp.SetStep(StepStats{Rows: 1})
		tr.Counters().Add("exec.steps", 1)
		sp.End()
	}
}

func BenchmarkSpanEnabled(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Begin("step")
		sp.Int("id", int64(i))
		sp.End()
	}
}

func TestBoolAttr(t *testing.T) {
	tr := New()
	sp := tr.Begin("memo")
	sp.Bool("decided", true)
	sp.Bool("exhausted", false)
	sp.End()
	if a := tr.Spans()[0].Attrs; len(a) != 2 || a[0].Key != "decided" || a[0].Val != 1 || a[1].Val != 0 {
		t.Errorf("Bool attrs = %+v, want decided=1 exhausted=0", a)
	}
	var off *Tracer
	off.Begin("x").Bool("k", true) // the disabled span records nothing
}
