// Package par is the one fan-out loop of the reproduction: the engine's
// per-node step work and the PDW enumerator's per-wave group work both run
// through For, so cancellation, error choice and panic handling have one
// definition instead of one per call site and per worker count.
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic converted to an error at a goroutine boundary:
// the recovered value plus the stack of the goroutine that panicked.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("internal error: panic: %v", e.Value) }

// Recover, deferred directly, turns a panic of the deferring function
// into a *PanicError stored in *err. It is the recover boundary every
// goroutine that runs query work sits behind.
func Recover(err *error) {
	if r := recover(); r != nil {
		*err = &PanicError{Value: r, Stack: debug.Stack()}
	}
}

// For runs fn(ctx, i) for every i in [0, n) on min(w, n) workers, the
// calling goroutine being one of them: w <= 1 spawns nothing and is the
// serial reference order. The first failure cancels the context handed to
// fn, and indices not yet started are skipped.
//
// It returns the lowest-index failure among the indices that ran (a panic
// in fn is a failure, typed *PanicError); with no failure, the context's
// error if any index was skipped. A nil return therefore means every
// index ran to completion, at any w and under any schedule.
func For(ctx context.Context, n, w int, fn func(ctx context.Context, i int) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var skipped atomic.Bool
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			if ctx.Err() != nil {
				skipped.Store(true)
				return
			}
			func() {
				defer Recover(&errs[i])
				errs[i] = fn(ctx, i)
			}()
			if errs[i] != nil {
				cancel()
			}
		}
	}
	var wg sync.WaitGroup
	for k := 1; k < w && k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if skipped.Load() {
		return ctx.Err() // no fn failed, so only the caller's context can have ended
	}
	return nil
}
