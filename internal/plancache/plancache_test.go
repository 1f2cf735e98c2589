package plancache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pdwqo/internal/par"
)

// compileCounter returns a compile func that counts invocations and
// returns val.
func compileCounter(n *atomic.Int64, val any) func() (any, error) {
	return func() (any, error) {
		n.Add(1)
		return val, nil
	}
}

func TestDoHitMiss(t *testing.T) {
	c := New(4)
	var n atomic.Int64
	v, out, err := c.Do("k", 1, compileCounter(&n, "plan"))
	if err != nil || out != OutcomeMiss || v != "plan" {
		t.Fatalf("first Do = (%v, %v, %v), want (plan, miss, nil)", v, out, err)
	}
	v, out, err = c.Do("k", 1, compileCounter(&n, "other"))
	if err != nil || out != OutcomeHit || v != "plan" {
		t.Fatalf("second Do = (%v, %v, %v), want cached plan", v, out, err)
	}
	if n.Load() != 1 {
		t.Errorf("compiled %d times, want 1", n.Load())
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Compiles != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestDoCompileErrorNotCached(t *testing.T) {
	c := New(4)
	boom := errors.New("boom")
	_, _, err := c.Do("k", 1, func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if c.Len() != 0 {
		t.Error("error result must not be cached")
	}
	var n atomic.Int64
	if _, out, _ := c.Do("k", 1, compileCounter(&n, 1)); out != OutcomeMiss || n.Load() != 1 {
		t.Error("next Do after error must recompile")
	}
	if m := c.Metrics(); m.CompileErrors != 1 {
		t.Errorf("CompileErrors = %d, want 1", m.CompileErrors)
	}
}

func TestGetPut(t *testing.T) {
	c := New(4)
	if _, ok := c.Get("tmpl", 1); ok {
		t.Fatal("Get on empty cache must miss")
	}
	c.Put("tmpl", 1, "template")
	v, ok := c.Get("tmpl", 1)
	if !ok || v != "template" {
		t.Fatalf("Get = (%v, %v)", v, ok)
	}
	// A later epoch invalidates the entry.
	if _, ok := c.Get("tmpl", 2); ok {
		t.Fatal("Get at a newer epoch must miss")
	}
	m := c.Metrics()
	if m.Invalidations == 0 {
		t.Errorf("expected an invalidation, metrics = %+v", m)
	}
}

func TestPutStaleDropped(t *testing.T) {
	c := New(4)
	c.Put("a", 5, "v5")
	c.Put("b", 3, "stale") // epoch 3 < observed high-water 5
	if _, ok := c.Get("b", 5); ok {
		t.Error("stale Put must not be stored")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(2)
	c.Put("a", 1, 1)
	c.Put("b", 1, 2)
	c.Get("a", 1) // refresh a: b is now LRU
	c.Put("c", 1, 3)
	if _, ok := c.Get("b", 1); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.Get("a", 1); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.Get("c", 1); !ok {
		t.Error("c should have survived")
	}
	if m := c.Metrics(); m.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", m.Evictions)
	}
	if c.Len() != 2 || c.Capacity() != 2 {
		t.Errorf("Len=%d Capacity=%d", c.Len(), c.Capacity())
	}
}

func TestPutRefreshExisting(t *testing.T) {
	c := New(2)
	c.Put("a", 1, "old")
	c.Put("a", 1, "new")
	if v, ok := c.Get("a", 1); !ok || v != "new" {
		t.Fatalf("Get = (%v, %v), want refreshed value", v, ok)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

func TestEpochSweep(t *testing.T) {
	c := New(8)
	c.Put("a", 1, 1)
	c.Put("b", 1, 2)
	if c.Epoch() != 1 {
		t.Fatalf("Epoch = %d", c.Epoch())
	}
	// Observing a newer epoch sweeps everything older.
	var n atomic.Int64
	c.Do("c", 3, compileCounter(&n, 3))
	if c.Epoch() != 3 {
		t.Errorf("Epoch = %d, want 3", c.Epoch())
	}
	if c.Len() != 1 {
		t.Errorf("old-epoch entries not swept: Len = %d", c.Len())
	}
	if m := c.Metrics(); m.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", m.Invalidations)
	}
}

func TestDoStaleEntryInvalidated(t *testing.T) {
	c := New(4)
	var n atomic.Int64
	c.Do("k", 1, compileCounter(&n, "v1"))
	v, out, err := c.Do("k", 2, compileCounter(&n, "v2"))
	if err != nil || out != OutcomeMiss || v != "v2" {
		t.Fatalf("Do at newer epoch = (%v, %v, %v), want recompile", v, out, err)
	}
	if n.Load() != 2 {
		t.Errorf("compiled %d times, want 2", n.Load())
	}
}

func TestDefaultCapacity(t *testing.T) {
	if c := New(0); c.Capacity() != DefaultCapacity {
		t.Errorf("Capacity = %d, want %d", c.Capacity(), DefaultCapacity)
	}
	if c := New(-5); c.Capacity() != DefaultCapacity {
		t.Errorf("Capacity = %d, want %d", c.Capacity(), DefaultCapacity)
	}
}

func TestPurge(t *testing.T) {
	c := New(4)
	c.Put("a", 1, 1)
	c.Put("b", 1, 2)
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
	if c.Epoch() != 1 {
		t.Errorf("Purge must not touch the epoch: %d", c.Epoch())
	}
	if m := c.Metrics(); m.Invalidations != 2 {
		t.Errorf("Invalidations = %d, want 2", m.Invalidations)
	}
}

func TestSingleflightShares(t *testing.T) {
	c := New(4)
	var compiles atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	// First caller blocks inside compile.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Do("k", 1, func() (any, error) {
			compiles.Add(1)
			close(started)
			<-release
			return "slow", nil
		})
	}()
	<-started
	// 8 more callers must join the in-flight compile, not start their own.
	results := make([]any, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, out, err := c.Do("k", 1, compileCounter(&compiles, "dup"))
			if err != nil || out != OutcomeShared {
				t.Errorf("waiter %d: (%v, %v, %v)", i, v, out, err)
			}
			results[i] = v
		}(i)
	}
	// A joiner increments Shared before parking on the flight, so once the
	// counter reaches 8 every waiter is inside the singleflight; only then
	// release the compile.
	for c.Metrics().Shared < 8 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if n := compiles.Load(); n != 1 {
		t.Fatalf("compiled %d times, want 1", n)
	}
	for i, v := range results {
		if v != "slow" {
			t.Errorf("waiter %d got %v", i, v)
		}
	}
	if m := c.Metrics(); m.Shared != 8 {
		t.Errorf("expected 8 shared flights, metrics = %+v", m)
	}
}

func TestStaleOnArrivalNotServedLater(t *testing.T) {
	c := New(4)
	inCompile := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Do("k", 1, func() (any, error) {
			close(inCompile)
			<-release
			return "stale-plan", nil
		})
	}()
	<-inCompile
	// The epoch advances while the compile is in flight.
	c.Put("other", 2, "bump")
	close(release)
	<-done
	if _, ok := c.Get("k", 2); ok {
		t.Error("a plan compiled under epoch 1 must not be served at epoch 2")
	}
	if _, ok := c.Get("k", 1); ok {
		t.Error("stale-on-arrival store must be dropped entirely")
	}
}

// TestStampede is the -race stress demanded by the PR: 64 goroutines
// hammer one hot fingerprint while a quarter of them also rotate through
// a stream of fresh misses, and between waves a writer bumps the stats
// epoch. Within each epoch wave the requests are fully concurrent, so
// the singleflight must collapse the hot key's stampede to one compile.
// Invariants: exactly one compile per (key, epoch) ever runs, no caller
// is served a value compiled under a different (key, epoch) than it
// asked for, and the whole thing terminates (no deadlock).
//
// The waves are barriered because exactly-once per (key, epoch) is only
// well-defined while that epoch is current: once the epoch moves on, the
// cache is free (and required) to drop the pair, and a hypothetical
// straggler still asking for it would legitimately recompile.
func TestStampede(t *testing.T) {
	c := New(4096) // roomy: eviction would legitimately force recompiles
	const (
		goroutines = 64
		rounds     = 25
		epochs     = 8
	)
	type ck struct {
		key   string
		epoch uint64
	}
	var mu sync.Mutex
	compiled := map[ck]int{}

	for e := uint64(1); e <= epochs; e++ { // the "writer": one bump per wave
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					key := "hot"
					if g%4 == 0 && r%2 == 1 {
						key = fmt.Sprintf("cold-%d-%d-%d", e, g, r)
					}
					want := ck{key, e}
					v, _, err := c.Do(key, e, func() (any, error) {
						mu.Lock()
						compiled[want]++
						mu.Unlock()
						return want, nil
					})
					if err != nil {
						t.Errorf("Do: %v", err)
						return
					}
					if got := v.(ck); got != want {
						t.Errorf("asked (%s, %d), served (%s, %d)", key, e, got.key, got.epoch)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
	mu.Lock()
	defer mu.Unlock()
	for k, n := range compiled {
		if n != 1 {
			t.Errorf("(%s, %d) compiled %d times, want exactly once", k.key, k.epoch, n)
		}
	}
	m := c.Metrics()
	if int(m.Compiles) != len(compiled) {
		t.Errorf("Compiles = %d, distinct (key, epoch) = %d", m.Compiles, len(compiled))
	}
	if m.Evictions != 0 {
		t.Errorf("unexpected evictions: %+v", m)
	}
}

func TestOutcomeString(t *testing.T) {
	cases := map[Outcome]string{OutcomeMiss: "miss", OutcomeHit: "hit", OutcomeShared: "shared"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}

func TestOldEpochCallerInvalidates(t *testing.T) {
	// A caller that read the epoch just before a bump can arrive with an
	// epoch older than a cached entry's. The entry must not be served to it
	// (it was compiled under a catalog the caller has not seen), and both
	// Do and Get treat it as a stale miss.
	c := New(4)
	c.Put("k", 2, "new")
	if _, ok := c.Get("k", 1); ok {
		t.Error("Get with an older epoch must not serve a newer entry")
	}
	c.Put("k", 2, "new")
	var n atomic.Int64
	if _, out, _ := c.Do("k", 1, compileCounter(&n, "old")); out != OutcomeMiss || n.Load() != 1 {
		t.Error("Do with an older epoch must recompile")
	}
}

// TestSharedFlightError: a compile that fails — by returning an error or
// by panicking — fails its owner and every caller sharing the flight with
// the same error, and leaves no flight behind: the next caller compiles.
func TestSharedFlightError(t *testing.T) {
	boom := errors.New("boom")
	isPanic := func(err error) bool {
		var pe *par.PanicError
		return errors.As(err, &pe) && pe.Value == boom
	}
	for _, mode := range []struct {
		name string
		fail func() (any, error)
		is   func(error) bool
	}{
		{"error", func() (any, error) { return nil, boom }, func(err error) bool { return errors.Is(err, boom) }},
		{"panic", func() (any, error) { panic(boom) }, isPanic},
	} {
		t.Run(mode.name, func(t *testing.T) {
			c := New(4)
			release := make(chan struct{})
			started := make(chan struct{})
			done := make(chan error, 1)
			go func() {
				_, _, err := c.Do("k", 1, func() (any, error) {
					close(started)
					<-release
					return mode.fail()
				})
				done <- err
			}()
			<-started
			waiter := make(chan error, 1)
			go func() {
				_, out, err := c.Do("k", 1, func() (any, error) { return "never", nil })
				if out != OutcomeShared {
					t.Errorf("outcome = %v, want shared", out)
				}
				waiter <- err
			}()
			for c.Metrics().Shared < 1 {
				time.Sleep(time.Millisecond)
			}
			close(release)
			if err := <-done; !mode.is(err) {
				t.Errorf("owner err = %v", err)
			}
			select {
			case err := <-waiter:
				if !mode.is(err) {
					t.Errorf("waiter must see the shared compile error, got %v", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("waiter still blocked on a flight whose compile failed")
			}
			if v, out, err := c.Do("k", 1, func() (any, error) { return "plan", nil }); err != nil || out != OutcomeMiss || v != "plan" {
				t.Errorf("Do after the failed flight = (%v, %v, %v), want a fresh compile", v, out, err)
			}
			if m := c.Metrics(); m.CompileErrors != 1 {
				t.Errorf("CompileErrors = %d, want 1", m.CompileErrors)
			}
		})
	}
}
