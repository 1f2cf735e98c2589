package engine

import (
	"context"
	"runtime"
	"time"
)

// workers returns the effective worker count for n node-local tasks under
// a Parallelism setting (0 = GOMAXPROCS, 1 = strictly serial), never more
// than the task count.
func workers(parallelism, n int) int {
	p := parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// sleepCtx waits for d unless the context ends first, returning the
// context's error in that case. It backs retry backoff, slow faults and
// the simulated control→compute dispatch round trip (NodeLatency), so a
// step timeout, a caller cancel or another node's failure cuts all three
// short.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
