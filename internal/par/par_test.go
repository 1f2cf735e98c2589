package par

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestForNilMeansEveryIndexRan is the property the engine relies on when
// it indexes the result slots a fan-out filled: at any width and under
// any way the run can be cut short, a nil return means no index was
// skipped — and a parent that is already cancelled runs nothing and says
// so, instead of reporting success over empty slots.
func TestForNilMeansEveryIndexRan(t *testing.T) {
	boom := errors.New("boom")
	const n = 8
	scenarios := []struct {
		name string
		// setup returns the context to run under and the task body.
		setup   func() (context.Context, func(ctx context.Context, i int) error)
		wantErr error
		wantRan int // -1: any
		// nilOK: the run may also finish undisturbed (every index had
		// started before the cancel landed), which is a correct nil.
		nilOK bool
	}{
		{
			name: "pre-cancelled parent",
			setup: func() (context.Context, func(context.Context, int) error) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx, func(context.Context, int) error { return nil }
			},
			wantErr: context.Canceled,
			wantRan: 0,
		},
		{
			name: "parent cancelled mid-flight by a task",
			setup: func() (context.Context, func(context.Context, int) error) {
				ctx, cancel := context.WithCancel(context.Background())
				return ctx, func(_ context.Context, i int) error {
					if i == 2 {
						cancel()
					}
					return nil
				}
			},
			wantErr: context.Canceled,
			wantRan: -1,
			nilOK:   true,
		},
		{
			name: "sibling failure",
			setup: func() (context.Context, func(context.Context, int) error) {
				return context.Background(), func(_ context.Context, i int) error {
					if i == 2 {
						return boom
					}
					return nil
				}
			},
			wantErr: boom,
			wantRan: -1,
		},
		{
			name: "undisturbed",
			setup: func() (context.Context, func(context.Context, int) error) {
				return context.Background(), func(context.Context, int) error { return nil }
			},
			wantErr: nil,
			wantRan: n,
		},
	}
	for _, sc := range scenarios {
		for _, w := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w=%d", sc.name, w), func(t *testing.T) {
				// Repeat: the w=4 outcome must not depend on the schedule.
				for rep := 0; rep < 200; rep++ {
					ctx, body := sc.setup()
					var ran atomic.Int32
					err := For(ctx, n, w, func(ctx context.Context, i int) error {
						ran.Add(1)
						return body(ctx, i)
					})
					if err == nil && int(ran.Load()) != n {
						t.Fatalf("nil return with %d of %d indices run", ran.Load(), n)
					}
					if !(err == nil && sc.nilOK) && !errors.Is(err, sc.wantErr) {
						t.Fatalf("got %v, want %v (ran %d)", err, sc.wantErr, ran.Load())
					}
					if sc.wantRan >= 0 && int(ran.Load()) != sc.wantRan {
						t.Fatalf("ran %d tasks, want %d", ran.Load(), sc.wantRan)
					}
				}
			})
		}
	}
}

func TestForPanicBecomesTypedError(t *testing.T) {
	for _, w := range []int{1, 4} {
		// Index 0 is the caller's share at w=1 and any worker's at w=4;
		// index 7 is reached by a spawned worker at w=4 more often than not.
		for _, at := range []int{0, 7} {
			err := For(context.Background(), 8, w, func(_ context.Context, i int) error {
				if i == at {
					panic(fmt.Sprintf("bad index %d", i))
				}
				return nil
			})
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("w=%d at=%d: got %v, want *PanicError", w, at, err)
			}
			if pe.Value != fmt.Sprintf("bad index %d", at) || !strings.Contains(string(pe.Stack), "par_test.go") {
				t.Fatalf("w=%d at=%d: value %v, stack does not name the panicking frame:\n%s", w, at, pe.Value, pe.Stack)
			}
		}
	}
}

func TestForZeroTasks(t *testing.T) {
	if err := For(context.Background(), 0, 4, func(context.Context, int) error {
		t.Error("task ran")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
