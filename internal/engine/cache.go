package engine

import (
	"container/list"
	"errors"
	"sync"

	"cqa/internal/core"
)

// planCache is a thread-safe LRU cache of prepared plans keyed by the
// canonical query signature (schema.Query.Signature). Classification and
// rewriting are query-only work — often exponential in the query size —
// so memoizing them lets repeated queries skip straight to evaluation.
type planCache struct {
	mu  sync.Mutex
	cap int
	// order is the recency list; front = most recently used. Values are
	// *cacheEntry.
	order   *list.List
	entries map[string]*list.Element
	// flights holds the preparations in progress, so concurrent misses
	// for one signature prepare once and share the plan.
	flights map[string]*flight

	hits, misses, evictions uint64
}

// flight is one in-progress preparation; done closes when plan/err are
// final.
type flight struct {
	done chan struct{}
	plan *core.Prepared
	err  error
}

// errPreparePanicked is what callers waiting on a preparation see when
// the preparing call panicked (the panic itself propagates to the
// preparing caller).
var errPreparePanicked = errors.New("engine: concurrent preparation of the same query panicked")

type cacheEntry struct {
	sig  string
	plan *core.Prepared
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		order:   list.New(),
		entries: make(map[string]*list.Element),
		flights: make(map[string]*flight),
	}
}

// load returns the plan for sig, promoting it to most recently used,
// or runs prepare on a miss and caches its result. prepare runs outside
// the cache lock, so a slow rewrite never blocks other signatures;
// concurrent misses for the same signature wait for the first one's
// preparation instead of duplicating it, and count as hits. Preparation
// errors are not cached. hit reports whether this call did not prepare.
func (c *planCache) load(sig string, prepare func() (*core.Prepared, error)) (p *core.Prepared, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[sig]; ok {
		c.hits++
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).plan, true, nil
	}
	if f, ok := c.flights[sig]; ok {
		c.hits++
		c.mu.Unlock()
		<-f.done
		return f.plan, true, f.err
	}
	c.misses++
	f := &flight{done: make(chan struct{}), err: errPreparePanicked}
	c.flights[sig] = f
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.flights, sig)
		if f.err == nil {
			c.put(sig, f.plan)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.plan, f.err = prepare()
	return f.plan, false, f.err
}

// put inserts a plan, evicting the least recently used entry when over
// capacity. c.mu must be held.
func (c *planCache) put(sig string, plan *core.Prepared) {
	c.entries[sig] = c.order.PushFront(&cacheEntry{sig: sig, plan: plan})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).sig)
		c.evictions++
	}
}

// len returns the number of cached plans.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// counters snapshots the hit/miss/eviction counters.
func (c *planCache) counters() (hits, misses, evictions uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions, c.order.Len()
}
