package cache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestAnswersGetPut(t *testing.T) {
	a := NewAnswers[string](4, 0, func(s string) int { return len(s) })
	if _, ok := a.Get("q"); ok {
		t.Fatal("hit on empty store")
	}
	a.Put("q", "answer")
	v, ok := a.Get("q")
	if !ok || v != "answer" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := a.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Len != 1 || st.Bytes != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnswersLRUEviction(t *testing.T) {
	a := NewAnswers[int](2, 0, nil)
	a.Put("a", 1)
	a.Put("b", 2)
	a.Get("a") // touch: a is now more recent than b
	a.Put("c", 3)
	if _, ok := a.Get("b"); ok {
		t.Fatal("b should have been the LRU victim")
	}
	if _, ok := a.Get("a"); !ok {
		t.Fatal("recently touched a was evicted")
	}
	if st := a.Stats(); st.Evictions != 1 || st.Len != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAnswersTTLExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	a := NewAnswers[int](4, time.Minute, nil)
	a.now = func() time.Time { return now }
	a.Put("k", 7)
	if _, ok := a.Get("k"); !ok {
		t.Fatal("fresh entry missing")
	}
	now = now.Add(59 * time.Second)
	if _, ok := a.Get("k"); !ok {
		t.Fatal("entry expired before its TTL")
	}
	now = now.Add(2 * time.Second) // 61s after insertion
	if _, ok := a.Get("k"); ok {
		t.Fatal("entry served past its TTL")
	}
	if st := a.Stats(); st.Evictions != 1 || st.Len != 0 {
		t.Fatalf("stats after expiry = %+v", st)
	}
}

func TestAnswersVersionStampInvalidation(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	a.Put("k", 1)
	a.Bump()
	if _, ok := a.Get("k"); ok {
		t.Fatal("stale-version entry served after Bump")
	}
	// Refill at the new version works.
	a.Put("k", 2)
	if v, ok := a.Get("k"); !ok || v != 2 {
		t.Fatalf("post-bump refill: %d, %v", v, ok)
	}
}

// TestAnswersBumpMidComputation: an answer whose computation began
// before a Bump is stored under the old stamp and never served.
func TestAnswersBumpMidComputation(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
			close(started)
			<-release
			return 1, true, nil
		})
	}()
	<-started
	a.Bump() // dataset reloaded while the fill is in flight
	close(release)
	<-done
	if _, ok := a.Get("k"); ok {
		t.Fatal("answer computed against the old dataset version was served")
	}
}

func TestAnswersDoOutcomes(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	v, outcome, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 9, true, nil
	})
	if err != nil || v != 9 || outcome != OutcomeMiss {
		t.Fatalf("first Do: v=%d outcome=%v err=%v", v, outcome, err)
	}
	v, outcome, err = a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		t.Error("recomputed a cached answer")
		return 0, false, nil
	})
	if err != nil || v != 9 || outcome != OutcomeHit {
		t.Fatalf("second Do: v=%d outcome=%v err=%v", v, outcome, err)
	}
}

// TestAnswersDoStorm: N concurrent Do calls with the same key → exactly
// one computation, everyone gets the answer, and it is cached after.
func TestAnswersDoStorm(t *testing.T) {
	const n = 24
	a := NewAnswers[int](4, 0, nil)
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	var hits, coalesced, misses atomic.Int32
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outcome, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
				calls.Add(1)
				<-release
				return 5, true, nil
			})
			if err != nil || v != 5 {
				t.Errorf("Do: v=%d err=%v", v, err)
			}
			switch outcome {
			case OutcomeHit:
				hits.Add(1)
			case OutcomeCoalesced:
				coalesced.Add(1)
			case OutcomeMiss:
				misses.Add(1)
			}
		}()
	}
	waitFor(t, func() bool { return a.Waiting("k") == n-1 })
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("computations = %d, want exactly 1", calls.Load())
	}
	if misses.Load() != 1 || hits.Load()+coalesced.Load() != n-1 {
		t.Fatalf("outcomes: %d misses, %d hits, %d coalesced (n=%d)",
			misses.Load(), hits.Load(), coalesced.Load(), n)
	}
	if v, ok := a.Get("k"); !ok || v != 5 {
		t.Fatalf("answer not cached after storm: %d, %v", v, ok)
	}
}

// TestAnswersDoesNotCacheErrors: a failed computation leaves the store
// empty so the next caller retries.
func TestAnswersDoesNotCacheErrors(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	boom := errors.New("boom")
	if _, _, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 0, true, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var calls int
	v, _, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		calls++
		return 3, true, nil
	})
	if err != nil || v != 3 || calls != 1 {
		t.Fatalf("retry after error: v=%d calls=%d err=%v", v, calls, err)
	}
}

// TestAnswersStoreVeto: fn's store=false (a partial/degraded answer)
// returns the value to the caller but keeps it out of the cache.
func TestAnswersStoreVeto(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	v, outcome, err := a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
		return 8, false, nil
	})
	if err != nil || v != 8 || outcome != OutcomeMiss {
		t.Fatalf("vetoed Do: v=%d outcome=%v err=%v", v, outcome, err)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("vetoed answer was cached")
	}
}

// TestAnswersVetoedAnswerNotShared: a waiter never adopts an answer its
// leader declined to store. The leader's degraded answer is its own (its
// deadline degraded it); the waiter retries, leads, and computes the
// complete answer under its own context.
func TestAnswersVetoedAnswerNotShared(t *testing.T) {
	a := NewAnswers[string](4, 0, nil)
	started, release := make(chan struct{}), make(chan struct{})
	leader := make(chan string, 1)
	go func() {
		v, _, _ := a.Do(context.Background(), "k", func(context.Context) (string, bool, error) {
			close(started)
			<-release
			return "partial", false, nil
		})
		leader <- v
	}()
	<-started
	waiter := make(chan string, 1)
	var outcome Outcome
	go func() {
		v, o, _ := a.Do(context.Background(), "k", func(context.Context) (string, bool, error) {
			return "complete", true, nil
		})
		outcome = o
		waiter <- v
	}()
	waitFor(t, func() bool { return a.Waiting("k") == 1 })
	close(release)
	if v := <-leader; v != "partial" {
		t.Fatalf("leader got %q, want its own partial answer", v)
	}
	if v := <-waiter; v != "complete" || outcome != OutcomeMiss {
		t.Fatalf("waiter got %q (outcome %v), want its own complete answer as a miss", v, outcome)
	}
	if st := a.Stats(); st.Coalesced != 0 {
		t.Fatalf("coalesced = %d, want 0: a vetoed answer was shared", st.Coalesced)
	}
}

// TestAnswersZeroCapacityCoalesces: a capacity-0 store keeps nothing
// but still collapses concurrent identical computations into one.
func TestAnswersZeroCapacityCoalesces(t *testing.T) {
	a := NewAnswers[int](0, 0, nil)
	release := make(chan struct{})
	var calls atomic.Int32
	fn := func(context.Context) (int, bool, error) {
		calls.Add(1)
		<-release
		return 7, true, nil
	}
	const n = 4
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, o, err := a.Compute(context.Background(), "k", fn)
			if err != nil || v != 7 {
				t.Errorf("Compute: v=%d err=%v", v, err)
			}
			outcomes[i] = o
		}(i)
	}
	waitFor(t, func() bool { return a.Waiting("k") == n-1 })
	close(release)
	wg.Wait()
	if calls.Load() != 1 {
		t.Fatalf("computations = %d, want 1", calls.Load())
	}
	if st := a.Stats(); st.Coalesced != n-1 || st.Len != 0 || st.Evictions != 0 {
		t.Fatalf("stats = %+v, want %d coalesced and nothing kept", st, n-1)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("capacity-0 store kept an answer")
	}
}

// TestAnswersCancelledComputationNotCached: the PR 3 rule carried over —
// a computation ended by cancellation caches nothing.
func TestAnswersCancelledComputationNotCached(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := a.Do(ctx, "k", func(ctx context.Context) (int, bool, error) {
		return 0, true, ctx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, ok := a.Get("k"); ok {
		t.Fatal("cancelled computation was cached")
	}
}

// TestAnswersEvictIf: delta invalidation removes exactly the matching
// keys, leaves the rest live, and counts the removals as evictions.
func TestAnswersEvictIf(t *testing.T) {
	a := NewAnswers[int](8, 0, nil)
	a.Put("q:sales", 1)
	a.Put("q:returns", 2)
	a.Put("q:promo", 3)
	n := a.EvictIf(func(key string, _ int) bool { return key == "q:sales" || key == "q:promo" })
	if n != 2 {
		t.Fatalf("EvictIf removed %d entries, want 2", n)
	}
	if _, ok := a.Get("q:sales"); ok {
		t.Fatal("evicted q:sales still served")
	}
	if _, ok := a.Get("q:promo"); ok {
		t.Fatal("evicted q:promo still served")
	}
	if v, ok := a.Get("q:returns"); !ok || v != 2 {
		t.Fatalf("untouched q:returns lost: %d, %v", v, ok)
	}
	if st := a.Stats(); st.Evictions != 2 {
		t.Fatalf("evictions = %d, want 2", st.Evictions)
	}
}

// TestAnswersEvictIfMidComputation: a leader that began computing
// before an EvictIf targeting its key cannot publish afterwards — the
// pre-append answer must not reappear under a post-append cache state.
func TestAnswersEvictIfMidComputation(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = a.Do(context.Background(), "k", func(context.Context) (int, bool, error) {
			close(started)
			<-release
			return 1, true, nil
		})
	}()
	<-started
	a.EvictIf(func(key string, _ int) bool { return key == "k" }) // rows appended mid-fill
	close(release)
	<-done
	if _, ok := a.Get("k"); ok {
		t.Fatal("answer computed before the delta invalidation was served after it")
	}
	// A non-matching key computed across the same window still stores.
	a.Put("other", 5)
	if _, ok := a.Get("other"); !ok {
		t.Fatal("unrelated key rejected by delta invalidation")
	}
}

// TestAnswersEvictIfRingOverflow: when more invalidations land than the
// ring retains, a put from before the retained window is discarded
// conservatively — never trusted.
func TestAnswersEvictIfRingOverflow(t *testing.T) {
	a := NewAnswers[int](4, 0, nil)
	ver, startSeq := a.version.Load(), a.invalSeq.Load()
	for i := 0; i < invalRing+8; i++ {
		a.EvictIf(func(string, int) bool { return false })
	}
	a.put("k", 1, ver, startSeq) // leader that started before the storm
	if _, ok := a.Get("k"); ok {
		t.Fatal("put older than the invalidation ring was stored")
	}
	// A fresh computation stores fine.
	a.Put("k", 2)
	if v, ok := a.Get("k"); !ok || v != 2 {
		t.Fatalf("fresh put after overflow: %d, %v", v, ok)
	}
}
