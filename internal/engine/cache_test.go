package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cqa/internal/core"
)

// Concurrent misses for one signature run one preparation and share its
// plan; a panicking preparation releases its waiters with an error and
// leaves nothing cached.
func TestPlanCacheSingleFlight(t *testing.T) {
	c := newPlanCache(4)
	release := make(chan struct{})
	var calls atomic.Int32
	want := &core.Prepared{}
	prepare := func() (*core.Prepared, error) {
		calls.Add(1)
		<-release
		return want, nil
	}
	const n = 8
	var started, wg sync.WaitGroup
	plans := make([]*core.Prepared, n)
	for i := 0; i < n; i++ {
		started.Add(1)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started.Done()
			p, _, err := c.load("q", prepare)
			if err != nil {
				t.Error(err)
			}
			plans[i] = p
		}(i)
	}
	started.Wait()
	close(release)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("prepare ran %d times, want 1", got)
	}
	for i, p := range plans {
		if p != want {
			t.Fatalf("caller %d got a different plan", i)
		}
	}
	if _, hit, _ := c.load("q", prepare); !hit {
		t.Fatal("prepared plan was not cached")
	}

	c.mu.Lock()
	hitsBefore := c.hits
	c.mu.Unlock()
	inPrepare, proceed := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		c.load("bad", func() (*core.Prepared, error) {
			close(inPrepare)
			<-proceed
			panic("boom")
		})
	}()
	<-inPrepare
	waiter := make(chan error)
	go func() {
		_, _, err := c.load("bad", prepare)
		waiter <- err
	}()
	// The waiter counts its hit before blocking on the flight.
	for {
		c.mu.Lock()
		h := c.hits
		c.mu.Unlock()
		if h > hitsBefore {
			break
		}
		runtime.Gosched()
	}
	close(proceed)
	if err := <-waiter; !errors.Is(err, errPreparePanicked) {
		t.Fatalf("waiter error = %v, want errPreparePanicked", err)
	}
	c.mu.Lock()
	_, cached := c.entries["bad"]
	c.mu.Unlock()
	if cached {
		t.Fatal("panicked preparation was cached")
	}
}
