package kdapcore

import (
	"context"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kdap/internal/telemetry/profile"
)

// differentiateOutcome runs a differentiate under a fresh wide event and
// returns the cache outcome the pipeline recorded on it.
func differentiateOutcome(ctx context.Context, e *Engine, q string) ([]*StarNet, cacheOutcome, error) {
	p := profile.New("query", "")
	nets, err := e.DifferentiateCtx(profile.NewContext(ctx, p), q)
	return nets, cacheOutcome(p.CacheOutcome()), err
}

// exploreOutcome is differentiateOutcome for an explore.
func exploreOutcome(ctx context.Context, e *Engine, sn *StarNet, opts ExploreOptions) (*Facets, cacheOutcome, error) {
	p := profile.New("explore", "")
	f, err := e.ExploreCtx(profile.NewContext(ctx, p), sn, opts)
	return f, cacheOutcome(p.CacheOutcome()), err
}

// cachedEbizEngine is ebizEngine with the answer cache on.
func cachedEbizEngine() *Engine {
	e := ebizEngine()
	e.SetAnswerCache(64, 0)
	return e
}

// TestAnswerCacheDifferentiateStorm is the engine-level coalescing
// proof: N concurrent identical Differentiate calls perform the
// pipeline exactly once — one cacheMiss, everyone else served by the
// store or the in-flight computation, all with the same answer.
func TestAnswerCacheDifferentiateStorm(t *testing.T) {
	const n = 16
	e := cachedEbizEngine()

	start := make(chan struct{})
	var wg sync.WaitGroup
	var misses, served atomic.Int32
	results := make([][]*StarNet, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			nets, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD")
			if err != nil || len(nets) == 0 {
				t.Errorf("goroutine %d: nets=%d err=%v", i, len(nets), err)
				return
			}
			results[i] = nets
			switch outcome {
			case cacheMiss:
				misses.Add(1)
			case cacheHit, cacheCoalesced:
				served.Add(1)
			default:
				t.Errorf("goroutine %d: unexpected outcome %v", i, outcome)
			}
		}(i)
	}
	close(start)
	wg.Wait()

	if misses.Load() != 1 {
		t.Fatalf("pipeline ran %d times, want exactly 1", misses.Load())
	}
	if served.Load() != n-1 {
		t.Fatalf("served from cache/in-flight: %d, want %d", served.Load(), n-1)
	}
	for i := 1; i < n; i++ {
		if &results[i][0] != &results[0][0] {
			// All callers share the one computed slice — not copies.
			t.Fatalf("goroutine %d received a different answer object", i)
		}
	}
}

// TestAnswerCacheCanonicalization: whitespace-variant spellings of the
// same query share one cache entry.
func TestAnswerCacheCanonicalization(t *testing.T) {
	e := cachedEbizEngine()
	nets1, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD")
	if err != nil || outcome != cacheMiss {
		t.Fatalf("cold: outcome=%v err=%v", outcome, err)
	}
	nets2, outcome, err := differentiateOutcome(context.Background(), e, "  Columbus \t LCD ")
	if err != nil || outcome != cacheHit {
		t.Fatalf("whitespace variant: outcome=%v err=%v, want hit", outcome, err)
	}
	if &nets1[0] != &nets2[0] {
		t.Fatal("variant spelling did not share the cached answer")
	}
	if got := CanonicalQuery(" a \t b\nc "); got != "a b c" {
		t.Fatalf("CanonicalQuery = %q", got)
	}
}

// TestAnswerCacheInvalidation: InvalidateAnswers retires every cached
// answer and advances the data version that ETags embed.
func TestAnswerCacheInvalidation(t *testing.T) {
	e := cachedEbizEngine()
	ctx := context.Background()
	if _, outcome, err := differentiateOutcome(ctx, e, "Columbus LCD"); err != nil || outcome != cacheMiss {
		t.Fatalf("cold: outcome=%v err=%v", outcome, err)
	}
	if _, outcome, _ := differentiateOutcome(ctx, e, "Columbus LCD"); outcome != cacheHit {
		t.Fatalf("warm: outcome=%v, want hit", outcome)
	}
	v := e.DataVersion()
	e.InvalidateAnswers()
	if e.DataVersion() != v+1 {
		t.Fatalf("DataVersion = %d, want %d", e.DataVersion(), v+1)
	}
	if _, outcome, err := differentiateOutcome(ctx, e, "Columbus LCD"); err != nil || outcome != cacheMiss {
		t.Fatalf("post-invalidate: outcome=%v err=%v, want miss", outcome, err)
	}
}

// TestAnswerCacheExploreHit: a repeated explore is a cacheHit whose
// facets match the fresh computation exactly, rebound to the caller's
// own net.
func TestAnswerCacheExploreHit(t *testing.T) {
	e := cachedEbizEngine()
	ctx := context.Background()
	nets, _, err := differentiateOutcome(ctx, e, "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	opts := DefaultExploreOptions()

	cold, outcome, err := exploreOutcome(ctx, e, nets[0], opts)
	if err != nil || outcome != cacheMiss {
		t.Fatalf("cold explore: outcome=%v err=%v", outcome, err)
	}
	warm, outcome, err := exploreOutcome(ctx, e, nets[0], opts)
	if err != nil || outcome != cacheHit {
		t.Fatalf("warm explore: outcome=%v err=%v", outcome, err)
	}
	if warm.Net != nets[0] {
		t.Fatal("cached facets not rebound to the caller's net")
	}
	if warm.SubspaceSize != cold.SubspaceSize || warm.TotalAggregate != cold.TotalAggregate {
		t.Fatalf("warm aggregates differ: %d/%g vs %d/%g",
			warm.SubspaceSize, warm.TotalAggregate, cold.SubspaceSize, cold.TotalAggregate)
	}
	if !reflect.DeepEqual(warm.Dimensions, cold.Dimensions) {
		t.Fatal("warm facet tree differs from cold computation")
	}

	// Option changes that shape the result are distinct cache entries.
	opts2 := opts
	opts2.Mode = Bellwether
	if _, outcome, err := exploreOutcome(ctx, e, nets[0], opts2); err != nil || outcome != cacheMiss {
		t.Fatalf("mode change: outcome=%v err=%v, want miss", outcome, err)
	}
}

// TestAnswerCacheCustomScoreBypass: a CustomScore func has no canonical
// identity, so those explores bypass the cache entirely — and never
// pollute it for canonical callers.
func TestAnswerCacheCustomScoreBypass(t *testing.T) {
	e := cachedEbizEngine()
	ctx := context.Background()
	nets, _, err := differentiateOutcome(ctx, e, "Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	opts := DefaultExploreOptions()
	opts.CustomScore = func(corr float64) float64 { return -corr }
	if _, ok := ExploreCacheKey(nets[0], opts); ok {
		t.Fatal("CustomScore options produced a cache key")
	}
	for i := 0; i < 2; i++ {
		if _, outcome, err := exploreOutcome(ctx, e, nets[0], opts); err != nil || outcome != cacheBypass {
			t.Fatalf("custom-score explore %d: outcome=%v err=%v, want bypass", i, outcome, err)
		}
	}
	if _, expl, ok := e.AnswerCacheStats(); !ok || expl.Len != 0 {
		t.Fatalf("bypassed explore left %d cache entries", expl.Len)
	}
}

// TestAnswerCacheDisabled: without SetAnswerCache every call is a
// bypass and stats report not-ok.
func TestAnswerCacheDisabled(t *testing.T) {
	e := ebizEngine()
	if e.AnswerCacheEnabled() {
		t.Fatal("cache enabled before SetAnswerCache")
	}
	if _, _, ok := e.AnswerCacheStats(); ok {
		t.Fatal("stats ok without a cache")
	}
	if _, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD"); err != nil || outcome != cacheBypass {
		t.Fatalf("uncached differentiate: outcome=%v err=%v", outcome, err)
	}
}

// TestAnswerCacheCancelledNotCached carries PR 3's rule through the
// cached path: a cancelled differentiate leaves no entry behind.
func TestAnswerCacheCancelledNotCached(t *testing.T) {
	e := cachedEbizEngine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := differentiateOutcome(ctx, e, "Columbus LCD"); err == nil {
		t.Fatal("cancelled differentiate succeeded")
	}
	diff, _, ok := e.AnswerCacheStats()
	if !ok || diff.Len != 0 {
		t.Fatalf("cancelled computation left %d cached entries", diff.Len)
	}
	// And the next caller computes fresh, successfully.
	if nets, outcome, err := differentiateOutcome(context.Background(), e, "Columbus LCD"); err != nil || outcome != cacheMiss || len(nets) == 0 {
		t.Fatalf("retry after cancel: nets=%d outcome=%v err=%v", len(nets), outcome, err)
	}
}

// TestAnswerCacheTTL: entries expire; a TTL of an hour keeps them.
func TestAnswerCacheTTL(t *testing.T) {
	e := ebizEngine()
	e.SetAnswerCache(16, time.Hour)
	ctx := context.Background()
	if _, outcome, err := differentiateOutcome(ctx, e, "Columbus LCD"); err != nil || outcome != cacheMiss {
		t.Fatalf("cold: outcome=%v err=%v", outcome, err)
	}
	if _, outcome, _ := differentiateOutcome(ctx, e, "Columbus LCD"); outcome != cacheHit {
		t.Fatalf("within TTL: outcome=%v, want hit", outcome)
	}
}

// TestBatchedExploreCountsOneMiss: with the answer cache and batching
// both on, a cold explore consults the answer store once — one miss,
// no hits — and records that miss as its outcome.
func TestBatchedExploreCountsOneMiss(t *testing.T) {
	e := cachedEbizEngine()
	e.SetBatching(time.Millisecond, DefaultBatchMax)
	ctx := context.Background()
	nets, err := e.Differentiate("Columbus LCD")
	if err != nil || len(nets) == 0 {
		t.Fatalf("differentiate: nets=%d err=%v", len(nets), err)
	}
	if _, outcome, err := exploreOutcome(ctx, e, nets[0], DefaultExploreOptions()); err != nil || outcome != cacheMiss {
		t.Fatalf("cold batched explore: outcome=%v err=%v, want miss", outcome, err)
	}
	if _, expl, _ := e.AnswerCacheStats(); expl.Misses != 1 || expl.Hits != 0 {
		t.Fatalf("explore store after one cold explore: %d misses, %d hits; want 1, 0", expl.Misses, expl.Hits)
	}
}
