package search

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"ikrq/internal/model"
)

// cachedResult builds a small distinct result for cache bookkeeping tests.
func cachedResult(tag int) *Result {
	return &Result{Routes: []Route{{
		Doors: []model.DoorID{model.DoorID(tag)},
		Psi:   float64(tag),
		Sims:  []float64{1},
	}}}
}

// do runs the cache protocol for route results — the unit these tests
// drive.
func (c *ResultCache) do(ctx context.Context, key string, run func() (*Result, error)) (*Result, bool, error) {
	v, cached, err := c.doAny(ctx, key, func() (cacheable, error) {
		r, err := run()
		if r == nil {
			return nil, err // keep the interface nil, not a typed nil
		}
		return r, err
	})
	if v == nil {
		return nil, cached, err
	}
	return v.(*Result), cached, err
}

// mustDo runs the cache protocol with a never-failing loader.
func mustDo(t *testing.T, c *ResultCache, key string, tag int) (*Result, bool) {
	t.Helper()
	res, cached, err := c.do(context.Background(), key, func() (*Result, error) {
		return cachedResult(tag), nil
	})
	if err != nil {
		t.Fatalf("do(%q): %v", key, err)
	}
	return res, cached
}

func TestResultCacheHitAndLRUEviction(t *testing.T) {
	c := NewResultCache(CacheOptions{MaxEntries: 2, MaxBytes: -1})
	if _, cached := mustDo(t, c, "a", 1); cached {
		t.Error("first lookup reported cached")
	}
	resA, cached := mustDo(t, c, "a", 999)
	if !cached || resA.Routes[0].Psi != 1 {
		t.Error("repeat lookup did not serve the stored result")
	}
	mustDo(t, c, "b", 2)
	mustDo(t, c, "a", 999) // refresh a; b is now LRU
	mustDo(t, c, "c", 3)   // evicts b
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, cached := mustDo(t, c, "a", 999); !cached {
		t.Error("recently used entry was evicted")
	}
	if _, cached := mustDo(t, c, "b", 2); cached {
		t.Error("LRU entry survived past the entry cap")
	}
	st := c.Stats()
	if st.Evictions < 1 {
		t.Errorf("evictions = %d, want >= 1", st.Evictions)
	}
	if st.Hits != 3 || st.Misses != 4 {
		t.Errorf("hits/misses = %d/%d, want 3/4", st.Hits, st.Misses)
	}
	if st.Entries != 2 || st.Bytes <= 0 {
		t.Errorf("gauges entries=%d bytes=%d, want 2 entries and positive bytes", st.Entries, st.Bytes)
	}
}

func TestResultCacheByteBudget(t *testing.T) {
	one := entryCost("k0", cachedResult(0))
	c := NewResultCache(CacheOptions{MaxEntries: 1 << 20, MaxBytes: 3 * one})
	for i := 0; i < 10; i++ {
		mustDo(t, c, fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 3 {
		t.Errorf("Len = %d after byte-budget inserts, want <= 3", c.Len())
	}
	st := c.Stats()
	if st.Bytes > uint64(3*one) {
		t.Errorf("resident bytes %d exceed the %d budget", st.Bytes, 3*one)
	}
	if st.Evictions == 0 {
		t.Error("byte budget evicted nothing")
	}
}

func TestResultCacheEpochInvalidation(t *testing.T) {
	c := NewResultCache(CacheOptions{})
	mustDo(t, c, "a", 1)
	c.Invalidate()
	if _, cached := mustDo(t, c, "a", 2); cached {
		t.Error("entry from a past epoch was served")
	}
	if res, cached := mustDo(t, c, "a", 999); !cached || res.Routes[0].Psi != 2 {
		t.Error("re-stored entry not served in the new epoch")
	}
	st := c.Stats()
	if st.Invalidations != 1 || st.Epoch != 1 {
		t.Errorf("invalidations/epoch = %d/%d, want 1/1", st.Invalidations, st.Epoch)
	}

	// A search that raced the invalidation must not install its result: the
	// entry was stamped with the epoch at search start.
	_, _, err := c.do(context.Background(), "raced", func() (*Result, error) {
		c.Invalidate()
		return cachedResult(3), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, cached := mustDo(t, c, "raced", 4); cached {
		t.Error("result computed before an invalidation was installed after it")
	}
}

func TestResultCacheSingleflightCollapses(t *testing.T) {
	c := NewResultCache(CacheOptions{})
	var runs atomic.Uint64
	leaderIn := make(chan struct{})
	release := make(chan struct{})

	const followers = 4
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(context.Background(), "k", func() (*Result, error) {
			runs.Add(1)
			close(leaderIn)
			<-release
			return cachedResult(7), nil
		})
	}()
	<-leaderIn
	results := make([]*Result, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Spin until this goroutine joins the in-flight execution (the
			// collapsed counter moves) so the release below cannot win the race.
			res, _, err := c.do(context.Background(), "k", func() (*Result, error) {
				runs.Add(1)
				return cachedResult(7), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}(i)
	}
	// Wait for every follower to be parked on the flight before releasing
	// the leader; collapsed counts exactly the waits.
	for c.Stats().Collapsed < followers {
	}
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("%d searcher runs for %d concurrent identical queries, want 1", got, followers+1)
	}
	for i, res := range results {
		if res == nil || res.Routes[0].Psi != 7 {
			t.Errorf("follower %d got a wrong result: %+v", i, res)
		}
	}
	if st := c.Stats(); st.Collapsed != followers {
		t.Errorf("collapsed = %d, want %d", st.Collapsed, followers)
	}
}

func TestResultCacheCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	c := NewResultCache(CacheOptions{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leaderErr error
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.do(leaderCtx, "k", func() (*Result, error) {
			close(leaderIn)
			<-leaderCtx.Done() // the searcher observes its own cancellation
			return nil, leaderCtx.Err()
		})
	}()
	<-leaderIn

	followerDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res, _, err := c.do(context.Background(), "k", func() (*Result, error) {
			return cachedResult(9), nil
		})
		if err == nil && (res == nil || res.Routes[0].Psi != 9) {
			err = errors.New("follower rerun produced a wrong result")
		}
		followerDone <- err
	}()
	for c.Stats().Collapsed == 0 {
	}
	cancelLeader()
	wg.Wait()

	if !errors.Is(leaderErr, context.Canceled) {
		t.Errorf("leader error = %v, want context.Canceled", leaderErr)
	}
	if err := <-followerDone; err != nil {
		t.Errorf("follower inherited the leader's cancellation: %v", err)
	}
}

func TestResultCacheWaiterOwnContext(t *testing.T) {
	c := NewResultCache(CacheOptions{})
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(context.Background(), "k", func() (*Result, error) {
			close(leaderIn)
			<-release
			return cachedResult(1), nil
		})
	}()
	<-leaderIn

	ctx, cancel := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(ctx, "k", func() (*Result, error) { return cachedResult(1), nil })
		waitErr <- err
	}()
	for c.Stats().Collapsed == 0 {
	}
	cancel() // the waiter gives up; the leader keeps running
	if err := <-waitErr; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	wg.Wait()
	if _, cached := mustDo(t, c, "k", 999); !cached {
		t.Error("leader's result was not installed after a waiter bailed")
	}
}

// BenchmarkRepeatedQueryCached quantifies the result cache on a repeated
// query; read next to BenchmarkRepeatedQueryPooled (the uncached serving
// path) — after the first iteration every Search is a hit.
func BenchmarkRepeatedQueryCached(b *testing.B) {
	e := testMall(b)
	e.EnableResultCache(CacheOptions{})
	r := req([]string{"coffee", "laptop"}, 3, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(r, Options{Algorithm: ToE}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestResultCacheErrorsAreSharedNotCached(t *testing.T) {
	c := NewResultCache(CacheOptions{})
	boom := errors.New("searcher failed")
	_, _, err := c.do(context.Background(), "k", func() (*Result, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the run error", err)
	}
	if c.Len() != 0 {
		t.Error("a failed run left an entry behind")
	}
	if _, cached := mustDo(t, c, "k", 1); cached {
		t.Error("error outcome was served as a cache hit")
	}
}
