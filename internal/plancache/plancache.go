// Package plancache implements the control node's shared plan cache: a
// concurrent, bounded LRU keyed by an opaque fingerprint string, with
// singleflight compilation (N concurrent misses on one key compile once)
// and epoch-based invalidation (an entry compiled under catalog epoch E
// is never served once the observed epoch moves past E — the stale-plan
// guarantee DDL and statistics refresh rely on).
//
// The cache stores opaque values; the pdwqo layer above decides what a
// "plan template" is and how literals are re-bound into it. Keeping this
// package value-agnostic keeps its concurrency surface small and fully
// unit-testable.
package plancache

import (
	"container/list"
	"strconv"
	"sync"

	"pdwqo/internal/par"
)

// DefaultCapacity bounds the cache when the caller passes a non-positive
// capacity to New.
const DefaultCapacity = 128

// Metrics is a snapshot of the cache's lifetime counters.
type Metrics struct {
	// Hits counts lookups served from a cached entry at the current epoch.
	Hits int64
	// Shared counts lookups that joined another caller's in-flight
	// compilation instead of compiling themselves (the singleflight win).
	Shared int64
	// Misses counts lookups that had to start a compilation. A Get that
	// finds nothing counts nothing: the caller's fall-through Do counts
	// the lookup's one outcome.
	Misses int64
	// Compiles counts compilations that finished successfully and were
	// stored. Exactly-once per (key, epoch): Compiles never exceeds the
	// number of distinct (key, epoch) pairs ever missed.
	Compiles int64
	// CompileErrors counts compilations that failed; errors are never
	// cached, so the next lookup retries.
	CompileErrors int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// Invalidations counts entries dropped because their epoch went stale.
	Invalidations int64
}

// Outcome classifies how Do satisfied a lookup.
type Outcome uint8

// Do outcomes.
const (
	// OutcomeMiss means the caller ran the compile itself.
	OutcomeMiss Outcome = iota
	// OutcomeHit means a cached entry at the requested epoch was served.
	OutcomeHit
	// OutcomeShared means the caller joined another caller's in-flight
	// compilation for the same (key, epoch).
	OutcomeShared
)

// String names the outcome, matching the optimize.cache.* counter suffixes.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeShared:
		return "shared"
	default:
		return "miss"
	}
}

// entry is one cached value pinned to the epoch it was compiled under.
type entry struct {
	key   string
	epoch uint64
	val   any
	elem  *list.Element
}

// flight is one in-progress compilation; waiters block on done.
type flight struct {
	done chan struct{}
	val  any
	err  error
}

// Cache is the concurrent bounded LRU with singleflight and epochs.
// The zero value is not usable; construct with New.
type Cache struct {
	capacity int // immutable after New; everything below mu is guarded by it
	mu       sync.Mutex
	epoch    uint64 // highest epoch ever observed by Do
	entries  map[string]*entry
	order    *list.List // front = most recently used
	inflight map[string]*flight
	m        Metrics
}

// New returns an empty cache bounded to capacity entries (DefaultCapacity
// when capacity <= 0).
func New(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Cache{
		capacity: capacity,
		entries:  make(map[string]*entry),
		order:    list.New(),
		inflight: make(map[string]*flight),
	}
}

// Do looks key up at the given epoch, compiling on miss. The compile
// function runs outside the cache lock; concurrent callers for the same
// (key, epoch) share one compilation. The Outcome reports whether the
// value came from a cached entry, a shared flight, or this caller's own
// compile. Compile errors are returned, not cached; a compile that panics
// is a compile error (*par.PanicError) to this caller and to every caller
// sharing the flight, so the flight always lands.
func (c *Cache) Do(key string, epoch uint64, compile func() (any, error)) (any, Outcome, error) {
	c.mu.Lock()
	c.observeLocked(epoch)
	if e, ok := c.entries[key]; ok {
		if e.epoch == epoch {
			c.order.MoveToFront(e.elem)
			c.m.Hits++
			v := e.val
			c.mu.Unlock()
			return v, OutcomeHit, nil
		}
		// The entry predates this caller's epoch (observeLocked already
		// swept anything older than the cache's high-water mark; this
		// handles a racing bump between the caller reading the epoch and
		// acquiring the lock).
		c.removeLocked(e)
		c.m.Invalidations++
	}
	fkey := key + "\x00" + strconv.FormatUint(epoch, 10)
	if f, ok := c.inflight[fkey]; ok {
		c.m.Shared++
		c.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, OutcomeShared, f.err
		}
		return f.val, OutcomeShared, nil
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[fkey] = f
	c.m.Misses++
	c.mu.Unlock()

	func() {
		defer par.Recover(&f.err)
		f.val, f.err = compile()
	}()

	c.mu.Lock()
	delete(c.inflight, fkey)
	if f.err == nil {
		c.m.Compiles++
		c.storeLocked(key, epoch, f.val)
	} else {
		c.m.CompileErrors++
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, OutcomeMiss, f.err
}

// Get looks key up at the given epoch without compiling. It serves the
// template-lookup fast path: the pdwqo layer probes the shape key with
// Get and falls through to a singleflighted Do on an exact key when the
// template is absent, so only a hit counts here. A stale entry is
// removed, never returned.
func (c *Cache) Get(key string, epoch uint64) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observeLocked(epoch)
	e, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	if e.epoch != epoch {
		c.removeLocked(e)
		c.m.Invalidations++
		return nil, false
	}
	c.order.MoveToFront(e.elem)
	c.m.Hits++
	return e.val, true
}

// Put stores val under key at the given epoch (dropped unobserved if the
// epoch is already stale).
func (c *Cache) Put(key string, epoch uint64, val any) { c.Move("", key, epoch, val) }

// Move is Put that also drops the entry under from: the pdwqo layer files
// a re-bindable template, compiled under its exact key, under its shape
// key alone, so the cache holds one entry per template.
func (c *Cache) Move(from, key string, epoch uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[from]; ok {
		c.removeLocked(e)
	}
	c.observeLocked(epoch)
	c.storeLocked(key, epoch, val)
}

// observeLocked advances the cache's epoch high-water mark and sweeps
// entries that can never be served again (their epoch is strictly older
// than something some caller has already seen).
func (c *Cache) observeLocked(epoch uint64) {
	if epoch <= c.epoch {
		return
	}
	c.epoch = epoch
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.epoch < epoch {
			c.removeLocked(e)
			c.m.Invalidations++
		}
		el = next
	}
}

// storeLocked inserts (or refreshes) key at epoch and enforces capacity.
func (c *Cache) storeLocked(key string, epoch uint64, val any) {
	if epoch < c.epoch {
		// A bump happened while this value compiled; it is stale on
		// arrival and must not be served.
		c.m.Invalidations++
		return
	}
	if e, ok := c.entries[key]; ok {
		e.epoch, e.val = epoch, val
		c.order.MoveToFront(e.elem)
		return
	}
	e := &entry{key: key, epoch: epoch, val: val}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	for len(c.entries) > c.capacity {
		oldest := c.order.Back().Value.(*entry)
		c.removeLocked(oldest)
		c.m.Evictions++
	}
}

func (c *Cache) removeLocked(e *entry) {
	c.order.Remove(e.elem)
	delete(c.entries, e.key)
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Capacity returns the LRU bound.
func (c *Cache) Capacity() int { return c.capacity }

// Epoch returns the highest epoch the cache has observed.
func (c *Cache) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Metrics returns a snapshot of the lifetime counters.
func (c *Cache) Metrics() Metrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m
}

// Purge drops every entry (counted as invalidations) without touching the
// epoch; in-flight compilations are unaffected.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = make(map[string]*entry)
	c.order.Init()
	c.m.Invalidations += int64(n)
}
